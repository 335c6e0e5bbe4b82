"""Hamming-windowed STFT log-magnitude spectrograms on a fixed grid.

The analysis chain is stft -> log_magnitude -> to_fixed; every feature
method downstream consumes the fixed-size, [0, 1]-normalized matrix.
to_fixed is an align-corners bilinear resize in numpy. Its index rule and
the order of its four-term sum are fixed: existing fixed/ cache files and
model files were made with them, and any other order changes their bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import AudioClip
from .errors import SonoclassError

DEFAULT_FRAME_SIZE = 256
DEFAULT_HOP = 64
DEFAULT_LOG_FLOOR = 1e-10
DEFAULT_FIXED_ROWS = 128
DEFAULT_FIXED_COLS = 128


@dataclass(frozen=True)
class StftParams:
    frame_size: int = DEFAULT_FRAME_SIZE
    hop: int = DEFAULT_HOP
    log_floor: float = DEFAULT_LOG_FLOOR

    def __post_init__(self):
        if self.frame_size < 2:  # one sample gives one frequency bin: no image to resize
            raise ValueError(f"need frame_size >= 2, got {self.frame_size}")
        if not (0 < self.hop <= self.frame_size):
            raise ValueError(f"need 0 < hop <= frame_size, got hop={self.hop} frame_size={self.frame_size}")
        if not (self.log_floor > 0):
            raise ValueError("log_floor must be positive")

    @property
    def window(self) -> np.ndarray:
        """Symmetric Hamming window: 0.54 - 0.46*cos(2*pi*n/(frame_size-1))."""
        return np.hamming(self.frame_size)


def frame_count(n_samples: int, params: StftParams) -> int:
    """Frames in an n-sample clip; trailing partial frames are dropped."""
    return (n_samples - params.frame_size) // params.hop + 1


def stft(clip: AudioClip, params: StftParams | None = None) -> np.ndarray:
    """Short-time Fourier transform, one-sided spectrum.

    Returns a complex (frame_size/2 + 1) x n_frames matrix where entry
    (y, x) = sum_n f[n + x*hop] * w[n] * exp(-i*2*pi*y*n/frame_size).
    """
    if params is None:
        params = StftParams()
    samples = clip.samples
    if samples.size < params.frame_size:
        raise SonoclassError(
            f"clip has {samples.size} samples, need at least {params.frame_size}"
        )
    n_frames = frame_count(samples.size, params)
    starts = params.hop * np.arange(n_frames)
    frames = samples[starts[:, None] + np.arange(params.frame_size)[None, :]]
    spectrum = np.fft.rfft(frames * params.window[None, :], axis=1)
    return spectrum.T.copy()


def log_magnitude(
    stft_matrix: np.ndarray, log_floor: float = DEFAULT_LOG_FLOOR
) -> np.ndarray:
    """Natural-log magnitude with a floor so no entry is -inf. Rows are
    frequency bins (row 0 = DC), columns are frames."""
    return np.log(np.maximum(np.abs(stft_matrix), log_floor))


def log_spectrogram(clip: AudioClip, params: StftParams | None = None) -> np.ndarray:
    """Convenience: stft followed by log_magnitude."""
    if params is None:
        params = StftParams()
    return log_magnitude(stft(clip, params), log_floor=params.log_floor)


def _bilinear_axis(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Left neighbour i and fraction x - i of n_out align-corners samples x."""
    x = np.linspace(0.0, n_in - 1.0, n_out)
    # x in [i, i+1), and the last sample in the closed last interval
    i = np.minimum(x.astype(np.intp), n_in - 2)
    return i, x - i


def to_fixed(
    values: np.ndarray,
    rows: int = DEFAULT_FIXED_ROWS,
    cols: int = DEFAULT_FIXED_COLS,
) -> np.ndarray:
    """Bilinear-resize to rows x cols and min-max normalize into [0, 1].

    A constant input has no range to normalize and maps to all 0.5.
    """
    values = np.asarray(values, dtype=np.float64)
    in_rows, in_cols = values.shape
    if in_rows < 2 or in_cols < 2:
        raise SonoclassError(f"cannot resize a {in_rows}x{in_cols} spectrogram")

    i0, y0 = _bilinear_axis(in_rows, rows)
    i1, y1 = _bilinear_axis(in_cols, cols)
    r, y0 = i0[:, None], y0[:, None]
    resized = (
        values[r, i1] * (1 - y0) * (1 - y1)
        + values[r, i1 + 1] * (1 - y0) * y1
        + values[r + 1, i1] * y0 * (1 - y1)
        + values[r + 1, i1 + 1] * y0 * y1
    )

    lo = float(resized.min())
    hi = float(resized.max())
    # constant up to interpolation rounding: no contrast to normalize
    if hi - lo > 1e-12 * max(abs(lo), abs(hi)):
        return (resized - lo) / (hi - lo)
    return np.full_like(resized, 0.5)
