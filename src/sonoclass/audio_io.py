"""WAV loading, peak normalization, and the synthetic test corpus.

Only uncompressed RIFF/WAVE containers are read: 8/16/24/32-bit integer PCM
and 32/64-bit IEEE float, mono or multichannel (downmixed by averaging).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, SonoclassError
from .manifest import DatasetManifest, ManifestEntry

SYNTH_KINDS = ("noise_burst", "harmonic_tone", "chirp", "impulse_train")
# the most values one array may hold (128 MiB of float64): a synthetic clip,
# a fixed grid, a log-Gabor bank or a wavelet S2 map set is allocated whole,
# so a larger one is refused up front
MAX_ARRAY_VALUES = 2 ** 24
# save_wav's 16-bit mono header holds the byte rate, twice the sample rate,
# in 32 bits
MAX_SAMPLE_RATE = 2 ** 31 - 1

_WAVE_FORMAT_PCM = 1
_WAVE_FORMAT_IEEE_FLOAT = 3
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE


@dataclass(frozen=True)
class AudioClip:
    """A mono sample buffer with its sample rate.

    samples are dimensionless amplitudes; loaders keep them inside [-1, 1].
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.array(self.samples, dtype=np.float64)  # a private copy
        if samples.ndim != 1 or samples.size == 0:
            raise SonoclassError("clip must contain at least one sample")
        if not np.all(np.isfinite(samples)):
            raise SonoclassError("clip contains non-finite samples")
        if int(self.sample_rate) <= 0:
            raise SonoclassError("sample_rate must be positive")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))


def _parse_riff_chunks(raw: bytes):
    """Yield (chunk_id, payload) pairs from a RIFF/WAVE blob."""
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise SonoclassError("not a RIFF/WAVE file")
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos:pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        payload = raw[pos + 8:pos + 8 + size]
        if len(payload) < size:
            raise SonoclassError(f"truncated {cid!r} chunk")
        yield cid, payload
        pos += 8 + size + (size & 1)  # chunks are word-aligned


def _decode_samples(data: bytes, fmt: int, bits: int) -> np.ndarray:
    """Decode integer PCM, else IEEE float: load_wav admits no other fmt."""
    if fmt == _WAVE_FORMAT_PCM:
        if bits == 8:
            return (np.frombuffer(data, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
        if bits == 16:
            return np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
        if bits == 24:
            b = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
            v = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
            v = np.where(v >= (1 << 23), v - (1 << 24), v)
            return v.astype(np.float64) / float(1 << 23)
        if bits == 32:
            return np.frombuffer(data, dtype="<i4").astype(np.float64) / float(1 << 31)
        raise SonoclassError(f"{bits}-bit integer PCM is not supported")
    if bits == 32:
        return np.frombuffer(data, dtype="<f4").astype(np.float64)
    if bits == 64:
        return np.frombuffer(data, dtype="<f8").astype(np.float64)
    raise SonoclassError(f"{bits}-bit float is not supported")


def load_wav(path) -> AudioClip:
    """Load a PCM or IEEE-float WAV file as a normalized mono clip.

    Multichannel input is downmixed by averaging the channels. Integer
    samples are scaled to [-1, 1] by the type's maximum magnitude; float
    samples hotter than full scale are divided by their peak.
    """
    with open(path, "rb") as fh:
        raw = fh.read()

    fmt = channels = rate = bits = None
    data = None
    for cid, payload in _parse_riff_chunks(raw):
        if cid == b"fmt ":
            if len(payload) < 16:
                raise SonoclassError("fmt chunk too short")
            fmt, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", payload, 0)
            if fmt == _WAVE_FORMAT_EXTENSIBLE:
                if len(payload) < 26:
                    raise SonoclassError("extensible fmt chunk too short")
                (fmt,) = struct.unpack_from("<H", payload, 24)  # subformat GUID prefix
        elif cid == b"data":
            data = payload
    if fmt is None or data is None:
        raise SonoclassError("missing fmt or data chunk")
    if fmt not in (_WAVE_FORMAT_PCM, _WAVE_FORMAT_IEEE_FLOAT):
        raise SonoclassError(f"WAV format tag {fmt:#x} (compressed codec?)")
    if channels < 1:
        raise SonoclassError("zero channels")

    frame_bytes = channels * (bits // 8)
    if frame_bytes == 0 or len(data) % frame_bytes:
        raise SonoclassError("data chunk is not a whole number of frames")
    if len(data) == 0:
        raise SonoclassError("zero audio frames")

    samples = _decode_samples(data, fmt, bits)
    if channels > 1:
        samples = samples.reshape(-1, channels).mean(axis=1)
    if not np.all(np.isfinite(samples)):
        raise SonoclassError("non-finite samples")
    peak = float(np.max(np.abs(samples)))
    if peak > 1.0:
        samples = samples / peak
    return AudioClip(samples=samples, sample_rate=rate)


def save_wav(path, clip: AudioClip) -> None:
    """Write a clip as 16-bit PCM mono WAV."""
    pcm = np.clip(np.round(clip.samples * 32767.0), -32768, 32767).astype("<i2")
    data = pcm.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, _WAVE_FORMAT_PCM, 1, clip.sample_rate,
        clip.sample_rate * 2, 2, 16,
    )
    header += b"data" + struct.pack("<I", len(data))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)


def peak_normalize(clip: AudioClip) -> AudioClip:
    """Scale so max |sample| is exactly 1; silence passes through unchanged."""
    peak = float(np.max(np.abs(clip.samples)))
    if peak == 0.0:
        return clip
    return AudioClip(samples=clip.samples / peak, sample_rate=clip.sample_rate)


def _fade_envelope(n: int, sample_rate: int) -> np.ndarray:
    """10 ms linear fade-in/out to avoid clicks at the clip edges."""
    env = np.ones(n)
    k = min(n // 2, max(1, int(round(0.01 * sample_rate))))
    ramp = np.linspace(0.0, 1.0, k, endpoint=False)
    env[:k] = ramp
    env[n - k:] = ramp[::-1]
    return env


def _sample_count(duration_s: float, sample_rate: int) -> int:
    """Samples in a clip; ConfigError unless the duration is finite and
    positive, the rate lies in [1, MAX_SAMPLE_RATE], and they give at least
    one and at most MAX_ARRAY_VALUES samples."""
    if not (np.isfinite(duration_s) and duration_s > 0):
        raise ConfigError(f"duration must be finite and > 0, got {duration_s}")
    if not 1 <= sample_rate <= MAX_SAMPLE_RATE:
        raise ConfigError(f"sample rate must lie in [1, {MAX_SAMPLE_RATE}], got {sample_rate}")
    samples = duration_s * sample_rate  # checked before rounding: inf has no int
    if samples > MAX_ARRAY_VALUES:
        raise ConfigError(f"{duration_s} s at {sample_rate} Hz is above the cap of "
                          f"{MAX_ARRAY_VALUES} samples")
    n = int(round(samples))
    if n < 1:
        raise ConfigError(f"{duration_s} s at {sample_rate} Hz is less than one sample")
    return n


def synthesize_clip(kind: str, duration_s: float, sample_rate: int, seed: int) -> AudioClip:
    """Generate one deterministic clip of the given kind.

    kinds: noise_burst (amplitude-enveloped white noise), harmonic_tone
    (seed-chosen fundamental in [200, 800] Hz plus 2 harmonics), chirp
    (linear sweep over a seed-chosen band), impulse_train (seed-chosen
    period in [50, 200] ms). Same arguments always give the same samples.
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown clip kind {kind!r}; expected one of {SYNTH_KINDS}")
    n = _sample_count(duration_s, sample_rate)

    rng = np.random.default_rng([int(seed), SYNTH_KINDS.index(kind)])
    t = np.arange(n) / sample_rate

    if kind == "noise_burst":
        attack = rng.uniform(0.005, 0.02)
        decay = rng.uniform(0.1, 0.4)
        env = np.minimum(t / attack, 1.0) * np.exp(-np.maximum(t - attack, 0.0) / decay)
        samples = env * rng.standard_normal(n)
    elif kind == "harmonic_tone":
        f0 = rng.uniform(200.0, 800.0)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
        samples = np.zeros(n)
        for h, amp in enumerate((1.0, 0.5, 0.25), start=1):
            samples += amp * np.sin(2.0 * np.pi * h * f0 * t + phases[h - 1])
        # slow tremolo; its sidebands sit far below one STFT bin, so the
        # spectrum stays concentrated at f0, 2f0, 3f0
        am_rate = rng.uniform(3.0, 8.0)
        samples *= 1.0 - 0.25 * (1.0 - np.cos(2.0 * np.pi * am_rate * t))
        samples *= _fade_envelope(n, sample_rate)
    elif kind == "chirp":
        f_lo = rng.uniform(1500.0, 2500.0)
        f_hi = min(f_lo + rng.uniform(3000.0, 4500.0), 0.45 * sample_rate)
        # phase of a linear sweep: 2*pi * (f_lo*t + (f_hi-f_lo)*t^2 / (2*T))
        phase = 2.0 * np.pi * (f_lo * t + (f_hi - f_lo) * t * t / (2.0 * duration_s))
        samples = np.sin(phase + rng.uniform(0.0, 2.0 * np.pi))
        samples *= _fade_envelope(n, sample_rate)
    else:  # impulse_train
        period = int(round(rng.uniform(0.05, 0.2) * sample_rate))
        samples = np.zeros(n)
        samples[::max(period, 1)] = 1.0

    peak = float(np.max(np.abs(samples)))
    if peak > 0.0:
        samples = samples * (0.9 / peak)
    return AudioClip(samples=samples, sample_rate=sample_rate)


def generate_corpus(
    out_dir,
    clips_per_class: int = 60,
    duration_s: float = 1.0,
    sample_rate: int = 16000,
    seed: int = 0,
) -> DatasetManifest:
    """Write one WAV per clip for each synthetic class; returns the
    (not yet split) manifest."""
    if seed < 0:
        raise ConfigError(f"seed must be at least 0, got {seed}")
    if clips_per_class < 1:
        raise ConfigError(f"clips per class must be at least 1, got {clips_per_class}")
    _sample_count(duration_s, sample_rate)  # before any directory is made
    out_dir = Path(out_dir)
    entries = []
    for kind in SYNTH_KINDS:
        kind_dir = out_dir / kind
        kind_dir.mkdir(parents=True, exist_ok=True)
        for i in range(clips_per_class):
            clip = synthesize_clip(kind, duration_s, sample_rate, seed + i)
            path = kind_dir / f"{kind}_{i:03d}.wav"
            save_wav(path, clip)
            entries.append(ManifestEntry(path=str(path), label=kind))
    return DatasetManifest(entries=tuple(entries))
