"""Run configuration: flat `key = value` text with namespaced keys.

Every RunConfig field declares its own flat key and value parser; unknown
keys are rejected, and every value is checked when the config is built,
before any clip is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import log_gabor, spectrogram, svm, wavelet_baseline
from .errors import ConfigError
from .feature_select import DEFAULT_N_BINS, MAX_N_BINS
from .spectrogram import StftParams
from .svm import MAX_PASSES, KernelParams

METHODS = ("single", "bank", "patches", "wavelet")
# the most values one fixed grid or one log-Gabor bank may hold (128 MiB of
# float64); each is allocated whole, so a larger one is refused up front
MAX_ARRAY_VALUES = 2 ** 24


def _parse_float_tuple(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text or text == "auto":
        return ()
    return tuple(float(tok) for tok in text.split(","))


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.strip().split(",")) if text.strip() else ()


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, tuple):
        return ",".join(_fmt_value(v) for v in value) if value else "auto"
    return str(value)


def _key(key: str, default, parse=None, low=None, high=None):
    """A RunConfig field read from flat key `key` by parse (by default the
    type of the default value), at least `low` and at most `high` when
    those are given."""
    return field(default=default, metadata={"key": key, "parse": parse or type(default),
                                            "low": low, "high": high})


@dataclass(frozen=True)
class RunConfig:
    method: str = _key("method", "bank")
    seed: int = _key("seed", 0, low=0)
    frame_size: int = _key("stft.frame_size", spectrogram.DEFAULT_FRAME_SIZE)
    hop: int = _key("stft.hop", spectrogram.DEFAULT_HOP)
    log_floor: float = _key("stft.log_floor", spectrogram.DEFAULT_LOG_FLOOR)
    fixed_rows: int = _key("fixed.rows", spectrogram.DEFAULT_FIXED_ROWS)
    fixed_cols: int = _key("fixed.cols", spectrogram.DEFAULT_FIXED_COLS)
    gabor_scales: int = _key("gabor.scales", log_gabor.LogGaborParams.n_scales)
    gabor_orientations: int = _key("gabor.orientations", log_gabor.LogGaborParams.n_orientations)
    # empty = LogGaborParams' octave rule
    gabor_f0: tuple[float, ...] = _key("gabor.f0", (), _parse_float_tuple)
    gabor_sigma_ratio: float = _key("gabor.sigma_ratio", log_gabor.DEFAULT_SIGMA_RATIO)
    gabor_sigma_theta: float = _key("gabor.sigma_theta", log_gabor.DEFAULT_SIGMA_THETA)
    single_scale: int = _key("single.scale", 1)
    single_orientation: int = _key("single.orientation", 1)
    wavelet_patches: int = _key("wavelet.patches", 200, low=1)
    wavelet_sizes: tuple[int, ...] = _key("wavelet.sizes", wavelet_baseline.DEFAULT_PATCH_SIZES,
                                          _parse_int_tuple)
    mi_n_bins: int = _key("mi.n_bins", DEFAULT_N_BINS, low=2, high=MAX_N_BINS)
    mi_top_k: int = _key("mi.top_k", 256, low=1)
    svm_c: float = _key("svm.c", 10.0)
    svm_gamma: float = _key("svm.gamma", 0.5)
    svm_tol: float = _key("svm.tol", svm.DEFAULT_TOL)
    svm_max_passes: int = _key("svm.max_passes", svm.DEFAULT_MAX_PASSES, low=1,
                               high=MAX_PASSES)
    # empty = library default grid
    grid_c: tuple[float, ...] = _key("grid.c", (), _parse_float_tuple)
    grid_gamma: tuple[float, ...] = _key("grid.gamma", (), _parse_float_tuple)
    grid_folds: int = _key("grid.folds", svm.DEFAULT_FOLDS, low=2)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if not self.wavelet_sizes or any(s < 1 for s in self.wavelet_sizes):
            raise ConfigError("wavelet.sizes needs at least one positive size")
        for f in fields(self):
            low, high, value = f.metadata["low"], f.metadata["high"], getattr(self, f.name)
            if low is not None and value < low:
                raise ConfigError(f"{f.metadata['key']} must be at least {low}, got {value}")
            if high is not None and value > high:
                raise ConfigError(f"{f.metadata['key']} must be at most {high}, got {value}")
        if not (np.isfinite(self.svm_tol) and self.svm_tol > 0):
            raise ConfigError(f"svm.tol must be positive and finite, got {self.svm_tol}")
        rows, cols = self.fixed_rows, self.fixed_cols
        step = 2 ** len(wavelet_baseline.SCALES)  # tiwt's divisibility rule
        if self.method == "wavelet" and (min(rows, cols) < step or rows % step or cols % step):
            raise ConfigError(
                f"method wavelet needs fixed.rows and fixed.cols to be positive "
                f"multiples of {step}, got {rows}x{cols}"
            )
        # a patch is cut from a C1 plane, and the scale-1 plane is the largest
        largest = min(rows, cols) // 2
        if self.method == "wavelet" and max(self.wavelet_sizes) > largest:
            raise ConfigError(
                f"wavelet.sizes = {_fmt_value(self.wavelet_sizes)} needs every size at most "
                f"{largest}, the side of the largest C1 plane of a {rows}x{cols} grid"
            )
        if self.method != "wavelet" and min(rows, cols) < log_gabor.MIN_GRID:
            raise ConfigError(
                f"fixed grid {rows}x{cols} is below the "
                f"{log_gabor.MIN_GRID}x{log_gabor.MIN_GRID} minimum"
            )
        # single, bank and patches all emit one feature per grid pixel
        if self.method != "wavelet" and self.mi_top_k > rows * cols:
            raise ConfigError(
                f"mi.top_k = {self.mi_top_k} is above the {rows * cols} features "
                f"of a {rows}x{cols} grid"
            )
        if self.method == "patches" and rows != log_gabor.BAND_ROWS:
            raise ConfigError(f"method patches needs fixed.rows = {log_gabor.BAND_ROWS}, got {rows}")
        if self.method == "single" and not (
            1 <= self.single_scale <= self.gabor_scales
            and 1 <= self.single_orientation <= self.gabor_orientations
        ):
            raise ConfigError(
                f"single.scale = {self.single_scale}, single.orientation = "
                f"{self.single_orientation} outside {self.gabor_scales} scales x "
                f"{self.gabor_orientations} orientations"
            )
        # the parameter objects own their rules; building them here makes a
        # bad value fail before any file is read or written
        try:
            self.stft_params()
            self.gabor_params()
            kernel = self.kernel_params()
            for c in self.grid_c:
                replace(kernel, c=c)
            for gamma in self.grid_gamma:
                replace(kernel, gamma=gamma)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        cap, grid = MAX_ARRAY_VALUES, rows * cols
        if grid > cap:
            raise ConfigError(f"fixed grid {rows}x{cols} holds {grid} values, above the cap of {cap}")
        bank = self.gabor_scales * self.gabor_orientations * grid
        if bank > cap:
            raise ConfigError(
                f"log-Gabor bank of {self.gabor_scales} scales x {self.gabor_orientations} "
                f"orientations of {rows}x{cols} holds {bank} values, above the cap of {cap}"
            )

    def stft_params(self) -> StftParams:
        return StftParams(frame_size=self.frame_size, hop=self.hop, log_floor=self.log_floor)

    def gabor_params(self) -> log_gabor.LogGaborParams:
        return log_gabor.LogGaborParams(
            n_scales=self.gabor_scales,
            n_orientations=self.gabor_orientations,
            f0_per_scale=self.gabor_f0,
            sigma_ratio=self.gabor_sigma_ratio,
            sigma_theta=self.gabor_sigma_theta,
        )

    def kernel_params(self) -> KernelParams:
        return KernelParams(gamma=self.svm_gamma, c=self.svm_c)


# flat config key -> (RunConfig field, parser), in field order
CONFIG_KEYS = {f.metadata["key"]: (f.name, f.metadata["parse"]) for f in fields(RunConfig)}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment; unknown keys fail."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def config_from_flat(flat: dict[str, str]) -> RunConfig:
    kwargs = {}
    for key, value in flat.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        field_name, parser = CONFIG_KEYS[key]
        try:
            kwargs[field_name] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
    return RunConfig(**kwargs)


def load_config(path=None, overrides: dict[str, str] | None = None) -> RunConfig:
    flat: dict[str, str] = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        flat.update(parse_config_text(text, source=str(path)))
    flat.update(overrides or {})
    return config_from_flat(flat)


def config_to_flat(config: RunConfig) -> dict[str, str]:
    """Canonical flat echo of every key (used for model files and hashing)."""
    return {key: _fmt_value(getattr(config, name)) for key, (name, _) in CONFIG_KEYS.items()}
