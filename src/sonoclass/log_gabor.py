"""Log-Gabor filter bank and the three spectrogram feature methods.

Filters live in the 2D frequency domain: a Gaussian on the log-radial axis
(zero response at DC) times a Gaussian in wrapped angular distance from the
filter orientation. Filtering multiplies the spectrogram's FFT by the mask
and takes the modulus of the complex inverse transform, which is the
magnitude of the real+imaginary spatial filter pair.

The three feature methods share one filtering step, `apply_filter`:
'single' filters with one mask, 'bank' with the whole (scales x
orientations) stack and averages, and 'patches' runs 'bank' on each of
three row bands. `build_bank` keeps one bank per (grid, params), and
threads that ask for one bank together build it once.

So one filtering of the whole stack, `apply_filter(values, bank.masks)`,
gives every 'single' feature and the 'bank' feature at once: slice
[s-1, o-1] of the stack, raveled, is single (s, o) and the stack's mean
over the first two axes is bank, each equal element for element to what
`single_filter_feature` and `bank_average_feature` return.
`pipeline._grid_entries` computes a bank entry and single entries asked
together this way, as `compare` does when it fills its cache. A stack
costs one forward FFT and then one 2D inverse FFT per mask, each written
straight into the float output.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SonoclassError

MIN_GRID = 8
BAND_ROWS = 128  # the fixed-grid height the three-band split is defined on

DEFAULT_SIGMA_RATIO = 0.65
DEFAULT_SIGMA_THETA = 0.6545


@dataclass(frozen=True)
class LogGaborParams:
    """Bank geometry: central frequencies are in cycles/pixel, angles in rad;
    an empty f0_per_scale puts the scales an octave apart, from 1/3 down."""

    n_scales: int = 2
    n_orientations: int = 6
    f0_per_scale: tuple[float, ...] = ()
    sigma_ratio: float = DEFAULT_SIGMA_RATIO
    sigma_theta: float = DEFAULT_SIGMA_THETA

    def __post_init__(self):
        if self.n_scales < 1 or self.n_orientations < 1:
            raise ValueError("need at least one scale and one orientation")
        f0 = tuple(float(f) for f in self.f0_per_scale)
        try:
            f0 = f0 or tuple((1.0 / 3.0) / 2 ** m for m in range(self.n_scales))
        except OverflowError:  # 2 ** 1024 has no float
            raise ValueError(f"{self.n_scales} scales an octave apart go below the "
                             "smallest float frequency") from None
        if len(f0) != self.n_scales:
            raise ValueError("f0_per_scale must list one frequency per scale")
        if any(not (0.0 < f <= 0.5) for f in f0):
            raise ValueError("central frequencies must lie in (0, 0.5] cycles/pixel")
        if not (0.0 < self.sigma_ratio < 1.0):
            raise ValueError("sigma_ratio must lie in (0, 1)")
        if not (self.sigma_theta > 0.0):
            raise ValueError("sigma_theta must be positive")
        object.__setattr__(self, "f0_per_scale", f0)

    def orientation_angle(self, orientation: int) -> float:
        """Angle of 1-based orientation n: (n-1)*pi/n_orientations."""
        return (orientation - 1) * np.pi / self.n_orientations


@dataclass(frozen=True)
class LogGaborBank:
    """Frequency-domain masks, indexed [scale-1, orientation-1] (1-based API)."""

    masks: np.ndarray  # (n_scales, n_orientations, rows, cols), FFT layout
    params: LogGaborParams

    def mask(self, scale: int, orientation: int) -> np.ndarray:
        n_s, n_o = self.masks.shape[:2]
        if not (1 <= scale <= n_s and 1 <= orientation <= n_o):
            raise SonoclassError(
                f"(scale={scale}, orientation={orientation}) outside "
                f"{n_s} scales x {n_o} orientations"
            )
        return self.masks[scale - 1, orientation - 1]


def log_gabor_value(r, theta, f0, theta0, sigma_ratio, sigma_theta):
    """Transfer function at polar frequency (r, theta); defined as 0 at r = 0.

    radial term exp(-ln(r/f0)^2 / (2 ln(sigma_ratio)^2)) times angular term
    exp(-d^2 / (2 sigma_theta^2)) with d the wrapped distance to theta0.
    """
    r = np.asarray(r, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_ratio = np.log(np.where(r > 0, r, 1.0) / f0)
    radial = np.exp(-(log_ratio ** 2) / (2.0 * np.log(sigma_ratio) ** 2))
    radial = np.where(r > 0, radial, 0.0)
    dtheta = np.abs(np.arctan2(np.sin(theta - theta0), np.cos(theta - theta0)))
    angular = np.exp(-(dtheta ** 2) / (2.0 * sigma_theta ** 2))
    return radial * angular


_BANK_LOCK = threading.Lock()


def build_bank(grid_shape: tuple[int, int], params: LogGaborParams | None = None) -> LogGaborBank:
    """Evaluate all masks on an FFT-layout frequency grid.

    Each mask is rescaled by its grid maximum so its peak is exactly 1;
    the DC sample is exactly 0. Banks are cached per (grid, params): the
    masks are read-only, so every caller can share one bank. The cache is
    read under one lock, so threads that miss it together, such as the
    clip tasks of an extraction or of compare's cache fill, build a bank
    once.
    """
    params = LogGaborParams() if params is None else params
    with _BANK_LOCK:
        return _cached_bank(grid_shape, params)


@lru_cache(maxsize=32)
def _cached_bank(grid_shape: tuple[int, int], params: LogGaborParams) -> LogGaborBank:
    rows, cols = grid_shape
    if rows < MIN_GRID or cols < MIN_GRID:
        raise SonoclassError(f"grid {rows}x{cols} is below the {MIN_GRID}x{MIN_GRID} minimum")

    fy = np.fft.fftfreq(rows)[:, None]  # cycles/pixel along rows
    fx = np.fft.fftfreq(cols)[None, :]
    radius = np.hypot(fy, fx)
    angle = np.arctan2(fy, fx)

    masks = np.empty((params.n_scales, params.n_orientations, rows, cols))
    for m, f0 in enumerate(params.f0_per_scale):
        for n in range(params.n_orientations):
            theta0 = params.orientation_angle(n + 1)
            mask = log_gabor_value(
                radius, angle, f0, theta0, params.sigma_ratio, params.sigma_theta
            )
            masks[m, n] = mask / mask.max()
    masks.setflags(write=False)
    return LogGaborBank(masks=masks, params=params)


def apply_filter(values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Magnitude response of one frequency mask or a stack of masks
    (circular convolution over the last two axes).

    One forward FFT of `values` serves every mask. Each mask then gets its
    own 2D inverse FFT, whose modulus goes straight into its slice of the
    float output: one inverse FFT over the whole stack would hold a complex
    copy of it and run its column pass over an array too large for the
    cache. Either way every output element is the same to the bit."""
    if values.shape != masks.shape[-2:]:
        raise SonoclassError(f"spectrogram {values.shape} vs mask {masks.shape}")
    spectrum = np.fft.fft2(values)
    out = np.empty(masks.shape)
    for index in np.ndindex(masks.shape[:-2]):
        np.abs(np.fft.ifft2(spectrum * masks[index]), out=out[index])
    return out


def single_filter_feature(values: np.ndarray, bank: LogGaborBank, scale: int,
                          orientation: int) -> np.ndarray:
    """Method 'single': one filter's magnitude, flattened row-major."""
    return apply_filter(values, bank.mask(scale, orientation)).ravel()


def bank_average_feature(values: np.ndarray, bank: LogGaborBank) -> np.ndarray:
    """Method 'bank': all filters applied, averaged, flattened row-major."""
    return apply_filter(values, bank.masks).mean(axis=(0, 1)).ravel()


def band_row_ranges(rows: int = BAND_ROWS) -> tuple[tuple[int, int], ...]:
    """Half-open row intervals of the low/mid/high frequency bands."""
    e1 = -(-rows // 3)       # ceil(rows/3)
    e2 = -(-2 * rows // 3)   # ceil(2*rows/3)
    return ((0, e1), (e1, e2), (e2, rows))


def band_patch_feature(values: np.ndarray, bank: LogGaborBank) -> np.ndarray:
    """Method 'patches': three frequency bands, each bank-averaged.

    The fixed spectrogram is split into three near-equal row bands; each
    band gets its own bank (same parameters, band-sized grid), is averaged,
    and the flattened bands are concatenated low||mid||high.
    """
    rows, cols = values.shape
    if rows != BAND_ROWS:
        raise SonoclassError(f"band split is defined for {BAND_ROWS} rows, got {rows}")
    return np.concatenate([
        bank_average_feature(values[lo:hi], build_bank((hi - lo, cols), bank.params))
        for lo, hi in band_row_ranges(rows)
    ])
