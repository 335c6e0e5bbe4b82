"""End-to-end glue: manifests, run configuration, feature extraction with
caching, training, evaluation, and the multi-method comparison report.

A dataset manifest is tab-separated text (path TAB label TAB split, split
one of train/test, or two fields for not-yet-split data); a JSON variant
with the same fields is accepted by extension. Run configuration is flat
`key = value` text with namespaced keys; unknown keys are rejected.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import audio_io, log_gabor, svm, wavelet_baseline
from .errors import ConfigError, SonoclassError
from .feature_select import FeatureMatrix, MiSelection, apply_selection, select_top_k
from .model_io import METHODS, TrainedModel
from .spectrogram import StftParams, log_spectrogram, to_fixed
from .svm import KernelParams, grid_search_cv, ovo_predict_batch, ovo_train
from .wavelet_baseline import PatchSet, c1_pyramid, global_max, patch_transform, sample_patches

TRAIN_FRACTION = 2.0 / 3.0


# --------------------------------------------------------------------------
# Manifest
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: str
    split: str = ""  # "train", "test", or "" when not yet assigned


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple[ManifestEntry, ...]

    def __post_init__(self):
        paths = [e.path for e in self.entries]
        if len(set(paths)) != len(paths):
            raise SonoclassError("duplicate paths in manifest")
        for e in self.entries:
            if not e.label:
                raise SonoclassError(f"{e.path}: empty label")
            if e.split not in ("", "train", "test"):
                raise SonoclassError(f"{e.path}: bad split {e.split!r}")

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(sorted({e.label for e in self.entries}))

    def rows(self, split: str) -> tuple[ManifestEntry, ...]:
        return tuple(e for e in self.entries if e.split == split)

    def split_hash(self) -> str:
        text = "\n".join(f"{e.path}\t{e.split}" for e in sorted(self.entries, key=lambda e: e.path))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def read_manifest(path) -> DatasetManifest:
    path = Path(path)
    if not path.exists():
        raise SonoclassError(f"manifest not found: {path}")
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise SonoclassError(f"{path}: {exc}") from exc
    if path.suffix.lower() == ".json":
        try:
            doc = json.loads(text)
            entries = tuple(
                ManifestEntry(str(e["path"]), str(e["label"]), str(e.get("split", "")))
                for e in doc["entries"]
            )
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise SonoclassError(f"{path}: {exc}") from exc
        return DatasetManifest(entries=entries)

    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) == 2:
            entries.append(ManifestEntry(parts[0], parts[1]))
        elif len(parts) == 3:
            entries.append(ManifestEntry(parts[0], parts[1], parts[2]))
        else:
            raise SonoclassError(f"{path}:{lineno}: expected 2 or 3 tab-separated fields")
    return DatasetManifest(entries=tuple(entries))


def write_manifest(path, manifest: DatasetManifest) -> None:
    path = Path(path)
    if path.suffix.lower() == ".json":
        doc = {"entries": [
            {"path": e.path, "label": e.label, "split": e.split} for e in manifest.entries
        ]}
        path.write_text(json.dumps(doc, indent=2) + "\n")
        return
    lines = [
        f"{e.path}\t{e.label}\t{e.split}" if e.split else f"{e.path}\t{e.label}"
        for e in manifest.entries
    ]
    path.write_text("\n".join(lines) + "\n")


def auto_split(
    manifest: DatasetManifest,
    train_fraction: float = TRAIN_FRACTION,
    seed: int = 0,
) -> DatasetManifest:
    """Assign stratified train/test splits: ceil(fraction * n) per class to train."""
    if seed < 0:
        raise ConfigError(f"seed must be at least 0, got {seed}")
    if not (np.isfinite(train_fraction) and 0.0 < train_fraction <= 1.0):
        raise ConfigError(f"train fraction must lie in (0, 1], got {train_fraction}")
    by_class: dict[str, list[int]] = {}
    for i, e in enumerate(manifest.entries):
        by_class.setdefault(e.label, []).append(i)
    rng = np.random.default_rng(seed)
    split = [""] * len(manifest.entries)
    for label in sorted(by_class):
        rows = by_class[label]
        if len(rows) < 3:
            raise SonoclassError(f"class {label!r} has only {len(rows)} entries")
        n_train = int(np.ceil(train_fraction * len(rows)))
        order = rng.permutation(len(rows))
        for rank, j in enumerate(order):
            split[rows[j]] = "train" if rank < n_train else "test"
    entries = tuple(
        replace(e, split=s) for e, s in zip(manifest.entries, split)
    )
    return DatasetManifest(entries=entries)


# --------------------------------------------------------------------------
# Run configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    method: str = "bank"
    seed: int = 0
    frame_size: int = 256
    hop: int = 64
    log_floor: float = 1e-10
    fixed_rows: int = 128
    fixed_cols: int = 128
    gabor_scales: int = 2
    gabor_orientations: int = 6
    gabor_f0: tuple[float, ...] = ()  # empty = one octave below 1/3 per extra scale
    gabor_sigma_ratio: float = 0.65
    gabor_sigma_theta: float = 0.6545
    single_scale: int = 1
    single_orientation: int = 1
    wavelet_patches: int = 200
    wavelet_sizes: tuple[int, ...] = (4, 8, 12)
    mi_n_bins: int = 16
    mi_top_k: int = 256
    svm_c: float = 10.0
    svm_gamma: float = 0.5
    svm_tol: float = 1e-3
    svm_max_passes: int = 200
    grid_c: tuple[float, ...] = ()      # empty = library default grid
    grid_gamma: tuple[float, ...] = ()
    grid_folds: int = 5

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if not self.wavelet_sizes or any(s < 1 for s in self.wavelet_sizes):
            raise ConfigError("wavelet.sizes needs at least one positive size")
        for name, low in (("seed", 0), ("mi_top_k", 1), ("mi_n_bins", 2),
                          ("svm_max_passes", 1), ("grid_folds", 2), ("wavelet_patches", 1)):
            value = getattr(self, name)
            if value < low:
                raise ConfigError(f"{_FIELD_TO_KEY[name]} must be at least {low}, got {value}")
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

    def stft_params(self) -> StftParams:
        return StftParams(frame_size=self.frame_size, hop=self.hop, log_floor=self.log_floor)

    def gabor_params(self) -> log_gabor.LogGaborParams:
        f0 = self.gabor_f0
        if not f0:
            f0 = tuple((1.0 / 3.0) / 2 ** i for i in range(self.gabor_scales))
        return log_gabor.LogGaborParams(
            n_scales=self.gabor_scales,
            n_orientations=self.gabor_orientations,
            f0_per_scale=f0,
            sigma_ratio=self.gabor_sigma_ratio,
            sigma_theta=self.gabor_sigma_theta,
        )

    def kernel_params(self) -> KernelParams:
        return KernelParams(gamma=self.svm_gamma, c=self.svm_c)


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


# flat config key -> (RunConfig field, parser)
_CONFIG_KEYS = {
    "method": ("method", str),
    "seed": ("seed", int),
    "stft.frame_size": ("frame_size", int),
    "stft.hop": ("hop", int),
    "stft.log_floor": ("log_floor", float),
    "fixed.rows": ("fixed_rows", int),
    "fixed.cols": ("fixed_cols", int),
    "gabor.scales": ("gabor_scales", int),
    "gabor.orientations": ("gabor_orientations", int),
    "gabor.f0": ("gabor_f0", _parse_float_tuple),
    "gabor.sigma_ratio": ("gabor_sigma_ratio", float),
    "gabor.sigma_theta": ("gabor_sigma_theta", float),
    "single.scale": ("single_scale", int),
    "single.orientation": ("single_orientation", int),
    "wavelet.patches": ("wavelet_patches", int),
    "wavelet.sizes": ("wavelet_sizes", _parse_int_tuple),
    "mi.n_bins": ("mi_n_bins", int),
    "mi.top_k": ("mi_top_k", int),
    "svm.c": ("svm_c", float),
    "svm.gamma": ("svm_gamma", float),
    "svm.tol": ("svm_tol", float),
    "svm.max_passes": ("svm_max_passes", int),
    "grid.c": ("grid_c", _parse_float_tuple),
    "grid.gamma": ("grid_gamma", _parse_float_tuple),
    "grid.folds": ("grid_folds", int),
}
_FIELD_TO_KEY = {field_name: key for key, (field_name, _) in _CONFIG_KEYS.items()}


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
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def config_from_flat(flat: dict[str, str]) -> RunConfig:
    kwargs = {}
    for key, value in flat.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        field_name, parser = _CONFIG_KEYS[key]
        try:
            kwargs[field_name] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
    return RunConfig(**kwargs)


def load_config(path=None, overrides: dict[str, str] | None = None) -> RunConfig:
    flat: dict[str, str] = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        flat.update(parse_config_text(text, source=str(path)))
    flat.update(overrides or {})
    return config_from_flat(flat)


def config_to_flat(config: RunConfig) -> dict[str, str]:
    """Canonical flat echo of every key (used for model files and hashing)."""
    out = {}
    for f in fields(RunConfig):
        out[_FIELD_TO_KEY[f.name]] = _fmt_value(getattr(config, f.name))
    return out


# --------------------------------------------------------------------------
# Feature extraction with caching
# --------------------------------------------------------------------------

_FIXED_KEYS = ("stft.frame_size", "stft.hop", "stft.log_floor", "fixed.rows", "fixed.cols")
_GABOR_KEYS = _FIXED_KEYS + (
    "method", "gabor.scales", "gabor.orientations", "gabor.f0",
    "gabor.sigma_ratio", "gabor.sigma_theta", "single.scale", "single.orientation",
)


def _subset_hash(flat: dict[str, str], keys) -> str:
    text = "\n".join(f"{k}={flat[k]}" for k in keys)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _content_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _write_cache(path: Path, array: np.ndarray) -> None:
    """Save array to a unique temp file beside path, then rename it into
    place, so neither a crash nor a concurrent run leaves a partial file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            np.save(fh, array)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0


class FeatureExtractor:
    """Per-clip feature computation with an optional on-disk cache.

    Each stage (fixed grid, C1 pyramid, log-Gabor feature) stores one array
    per clip at cache_dir/<stage>/<config hash>/<content hash>.npy, so a
    parameter change invalidates exactly the affected stage. A file that is
    not a well-formed .npy of the expected shape is recomputed and
    rewritten. stats counts a hit or a miss for every stage looked up.
    """

    def __init__(self, config: RunConfig, cache_dir=None):
        self.config = config
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.stats = CacheStats()
        flat = config_to_flat(config)
        self._fixed_hash = _subset_hash(flat, _FIXED_KEYS)
        self._feature_hash = _subset_hash(flat, _GABOR_KEYS)
        self._stft_params = config.stft_params()

    def _cached(self, stage: str, stage_hash: str, content: str, shape: tuple[int, ...],
                compute) -> np.ndarray:
        """The stage's cached array when it has this shape, else compute()'s,
        written to the cache (with no cache directory it only computes)."""
        path = None
        if self.cache_dir is not None:
            path = self.cache_dir / stage / stage_hash / f"{content}.npy"
            try:
                with open(path, "rb") as fh:
                    array = np.lib.format.read_array(fh)
            except (OSError, ValueError):  # missing, truncated or not a plain .npy
                pass
            else:
                if array.shape == shape:
                    self.stats.hits += 1
                    return array
        self.stats.misses += 1
        array = compute()
        if path is not None:
            _write_cache(path, array)
        return array

    def fixed_values(self, path, content: str) -> np.ndarray:
        rows, cols = self.config.fixed_rows, self.config.fixed_cols

        def compute():
            clip = audio_io.peak_normalize(audio_io.load_wav(path))
            return to_fixed(log_spectrogram(clip, self._stft_params), rows, cols)

        return self._cached("fixed", self._fixed_hash, content, (rows, cols), compute)

    def c1(self, path) -> list[np.ndarray]:
        """The C1 pyramid, cached as its planes raveled and joined in SCALES order."""
        content = _content_hash(path)
        rows, cols = self.config.fixed_rows, self.config.fixed_cols
        shapes = [(len(wavelet_baseline.ORIENTATIONS), rows >> j, cols >> j)
                  for j in wavelet_baseline.SCALES]
        ends = np.cumsum([np.prod(shape) for shape in shapes])

        def compute():
            pyramid = c1_pyramid(self.fixed_values(path, content))
            return np.concatenate([plane.ravel() for plane in pyramid])

        joined = self._cached("c1", self._fixed_hash, content, (int(ends[-1]),), compute)
        return [part.reshape(shape) for part, shape in zip(np.split(joined, ends[:-1]), shapes)]

    def gabor_feature(self, path) -> np.ndarray:
        content = _content_hash(path)
        cfg = self.config

        def compute():
            fixed = self.fixed_values(path, content)
            bank = log_gabor.build_bank((cfg.fixed_rows, cfg.fixed_cols), cfg.gabor_params())
            if cfg.method == "single":
                return log_gabor.single_filter_feature(
                    fixed, bank, cfg.single_scale, cfg.single_orientation
                )
            if cfg.method == "bank":
                return log_gabor.bank_average_feature(fixed, bank)
            return log_gabor.band_patch_feature(fixed, bank)

        # every log-Gabor method gives one value per fixed-grid cell
        return self._cached("feat", self._feature_hash, content,
                            (cfg.fixed_rows * cfg.fixed_cols,), compute)


@dataclass
class ExtractResult:
    train: FeatureMatrix | None
    test: FeatureMatrix | None
    class_names: tuple[str, ...]
    patch_set: PatchSet | None
    stats: CacheStats


def _collect(entries, fn) -> list:
    """Apply fn to every entry; failures abort the run with every one listed."""
    out = []
    failures = []
    for e in entries:
        try:
            out.append(fn(e))
        except (SonoclassError, OSError) as exc:
            failures.append(f"{e.path}: {exc}")
    if failures:
        raise SonoclassError(
            f"{len(failures)} file(s) failed:\n" + "\n".join(failures)
        )
    return out


def extract_features(
    manifest: DatasetManifest,
    config: RunConfig,
    cache_dir=None,
    patch_set: PatchSet | None = None,
    splits: tuple[str, ...] = ("train", "test"),
) -> ExtractResult:
    """Run the per-clip pipeline for the requested manifest splits.

    Rows follow manifest order within each split. For the wavelet method a
    missing patch_set is sampled from the training rows' C1 pyramids with
    the configured seed; the C2 vectors then reuse those pyramids. C1 is
    cached per clip, while C2 depends on the patches and is recomputed.
    """
    extractor = FeatureExtractor(config, cache_dir)
    class_names = manifest.classes
    label_index = {name: i for i, name in enumerate(class_names)}
    vectors: dict[str, list] = {}

    if config.method == "wavelet":
        if patch_set is None:
            train_rows = manifest.rows("train")
            if not train_rows:
                raise SonoclassError(
                    "wavelet method needs a non-empty train split to sample patches"
                )
            train_c1 = _collect(train_rows, lambda e: extractor.c1(e.path))
            patch_set = sample_patches(
                train_c1,
                n_patches=config.wavelet_patches,
                sizes=config.wavelet_sizes,
                seed=config.seed,
            )
            if "train" in splits:
                vectors["train"] = [global_max(patch_transform(c1, patch_set)) for c1 in train_c1]
        feature_fn = lambda e: global_max(patch_transform(extractor.c1(e.path), patch_set))
    else:
        feature_fn = lambda e: extractor.gabor_feature(e.path)

    # one batch over every pending split, so one report lists every failure
    pending = [split for split in splits if split not in vectors and manifest.rows(split)]
    batch = iter(_collect([e for split in pending for e in manifest.rows(split)], feature_fn))
    for split in pending:
        vectors[split] = [next(batch) for _ in manifest.rows(split)]
    matrices: dict[str, FeatureMatrix] = {}
    for split, split_vectors in vectors.items():
        labels = np.array([label_index[e.label] for e in manifest.rows(split)], dtype=np.int64)
        matrices[split] = FeatureMatrix(values=np.vstack(split_vectors), labels=labels)

    return ExtractResult(
        train=matrices.get("train"),
        test=matrices.get("test"),
        class_names=class_names,
        patch_set=patch_set,
        stats=extractor.stats,
    )


def _selected_train(
    manifest: DatasetManifest,
    config: RunConfig,
    cache_dir=None,
    patch_set: PatchSet | None = None,
) -> tuple[ExtractResult, FeatureMatrix, MiSelection | None]:
    """Extract the train split and keep its MI top-K columns (log-Gabor
    methods; wavelet C2 vectors pass through unselected)."""
    result = extract_features(
        manifest, config, cache_dir=cache_dir, patch_set=patch_set, splits=("train",)
    )
    if result.train is None:
        raise SonoclassError("manifest has no train rows")
    if config.method == "wavelet":
        return result, result.train, None
    selection = select_top_k(result.train, k=config.mi_top_k, n_bins=config.mi_n_bins)
    matrix = FeatureMatrix(apply_selection(result.train.values, selection), result.train.labels)
    return result, matrix, selection


# --------------------------------------------------------------------------
# Train / evaluate / grid search / compare
# --------------------------------------------------------------------------

def train_model(
    manifest: DatasetManifest,
    config: RunConfig,
    cache_dir=None,
    patch_set: PatchSet | None = None,
) -> TrainedModel:
    """Fit MI selection (log-Gabor methods), the scaler, and all pair SVMs."""
    result, matrix, selection = _selected_train(manifest, config, cache_dir, patch_set)
    ovo = ovo_train(
        matrix,
        config.kernel_params(),
        tol=config.svm_tol,
        max_passes=config.svm_max_passes,
        seed=config.seed,
    )
    return TrainedModel(
        ovo=ovo,
        method=config.method,
        config=config_to_flat(config),
        class_names=result.class_names,
        selected_indices=None if selection is None else selection.selected,
        selected_scores=None if selection is None else selection.scores[selection.selected],
        n_raw_features=result.train.n_features,
        patch_set=result.patch_set if config.method == "wavelet" else None,
    )


@dataclass
class EvaluationReport:
    class_names: tuple[str, ...]
    confusion: np.ndarray                 # (k, k) counts, rows = truth
    per_class_accuracy: dict[str, float]  # percentages
    averaged_accuracy: float              # unweighted mean of per-class values
    sample_weighted_accuracy: float       # plain correct/total
    n_test: int
    method: str
    metadata: dict[str, str] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)


def evaluate_model(
    model: TrainedModel,
    manifest: DatasetManifest,
    cache_dir=None,
) -> EvaluationReport:
    """Classify the manifest's test rows and tabulate accuracies."""
    config = config_from_flat(model.config)
    test_rows = manifest.rows("test")
    if not test_rows:
        raise SonoclassError("manifest has no test rows")
    label_index = {name: i for i, name in enumerate(model.class_names)}
    unknown = sorted({e.label for e in test_rows} - set(model.class_names))
    if unknown:
        raise SonoclassError(f"labels not in the model: {unknown}")

    if model.method == "wavelet" and model.patch_set is None:
        raise SonoclassError("wavelet model carries no patch set")

    t0 = time.perf_counter()
    values = extract_features(
        manifest, config, cache_dir=cache_dir, patch_set=model.patch_set, splits=("test",)
    ).test.values
    t_features = time.perf_counter() - t0

    if model.selected_indices is not None:
        if values.shape[1] != model.n_raw_features:
            raise SonoclassError(
                f"extracted {values.shape[1]} features, model expects {model.n_raw_features}"
            )
        values = values[:, model.selected_indices]
    if values.shape[1] != model.ovo.n_features:
        raise SonoclassError(
            f"{values.shape[1]} features after selection, model expects {model.ovo.n_features}"
        )

    truth = np.array([label_index[e.label] for e in test_rows], dtype=np.int64)
    t0 = time.perf_counter()
    predicted = ovo_predict_batch(model.ovo, values)
    t_predict = time.perf_counter() - t0

    return tabulate_report(
        truth, predicted, model.class_names,
        method=model.method,
        metadata={
            "split_hash": manifest.split_hash(),
            "config": ";".join(f"{k}={v}" for k, v in sorted(model.config.items())),
        },
        timings={"features_s": t_features, "predict_s": t_predict},
    )


def tabulate_report(
    truth: np.ndarray,
    predicted: np.ndarray,
    class_names: tuple[str, ...],
    method: str = "",
    metadata: dict[str, str] | None = None,
    timings: dict[str, float] | None = None,
) -> EvaluationReport:
    """Confusion matrix and accuracies from parallel truth/prediction labels.

    Per-class accuracy covers only classes present in truth; the averaged
    accuracy is their unweighted mean, reported next to the plain
    sample-weighted accuracy.
    """
    k = len(class_names)
    confusion = np.zeros((k, k), dtype=np.int64)
    for t, p in zip(truth, predicted):
        confusion[t, p] += 1
    per_class = {}
    for i, name in enumerate(class_names):
        total = int(confusion[i].sum())
        if total:
            per_class[name] = 100.0 * confusion[i, i] / total
    averaged = float(np.mean(list(per_class.values()))) if per_class else 0.0
    weighted = 100.0 * float(np.trace(confusion)) / max(len(truth), 1)
    return EvaluationReport(
        class_names=class_names,
        confusion=confusion,
        per_class_accuracy=per_class,
        averaged_accuracy=averaged,
        sample_weighted_accuracy=weighted,
        n_test=len(truth),
        method=method,
        metadata=metadata or {},
        timings=timings or {},
    )


def grid_search(
    manifest: DatasetManifest,
    config: RunConfig,
    cache_dir=None,
) -> tuple[KernelParams, list[tuple[float, float, float]]]:
    """Cross-validated (C, gamma) search on the training split's features."""
    _, matrix, _ = _selected_train(manifest, config, cache_dir)
    c_grid = config.grid_c or svm.DEFAULT_C_GRID
    gamma_grid = config.grid_gamma or svm.DEFAULT_GAMMA_GRID
    return grid_search_cv(
        matrix, c_grid, gamma_grid,
        folds=config.grid_folds, seed=config.seed,
        tol=config.svm_tol, max_passes=config.svm_max_passes,
    )


@dataclass
class ComparisonResult:
    grid_reports: list[tuple[int, int, EvaluationReport]]  # (scale, orientation, report)
    method_reports: dict[str, EvaluationReport]            # bank / patches / wavelet
    class_names: tuple[str, ...]
    split_hash: str


def compare_methods(
    manifest: DatasetManifest,
    config: RunConfig,
    cache_dir=None,
) -> ComparisonResult:
    """Evaluate every single-filter configuration plus the three multi-filter
    methods on one shared split. Reporting only; nothing is asserted about
    which method wins."""
    # every config is checked before the first model trains
    grid_configs = [
        replace(config, method="single", single_scale=scale, single_orientation=orientation)
        for scale in range(1, config.gabor_scales + 1)
        for orientation in range(1, config.gabor_orientations + 1)
    ]
    method_configs = [replace(config, method=m) for m in ("bank", "patches", "wavelet")]

    def report(cfg: RunConfig) -> EvaluationReport:
        model = train_model(manifest, cfg, cache_dir=cache_dir)
        return evaluate_model(model, manifest, cache_dir=cache_dir)

    grid_reports = [(c.single_scale, c.single_orientation, report(c)) for c in grid_configs]
    method_reports = {c.method: report(c) for c in method_configs}
    return ComparisonResult(
        grid_reports=grid_reports,
        method_reports=method_reports,
        class_names=manifest.classes,
        split_hash=manifest.split_hash(),
    )


# --------------------------------------------------------------------------
# Report rendering (machine-readable CSVs carry no timing fields)
# --------------------------------------------------------------------------

def _pct(value: float) -> str:
    return format(value, ".6f")


def evaluation_csv(report: EvaluationReport) -> str:
    lines = ["kind,truth,predicted,value"]
    for name in report.class_names:
        if name in report.per_class_accuracy:
            lines.append(f"per_class,{name},,{_pct(report.per_class_accuracy[name])}")
    lines.append(f"averaged,,,{_pct(report.averaged_accuracy)}")
    lines.append(f"sample_weighted,,,{_pct(report.sample_weighted_accuracy)}")
    lines.append(f"n_test,,,{report.n_test}")
    lines.append(f"method,,,{report.method}")
    lines.append(f"split_hash,,,{report.metadata.get('split_hash', '')}")
    for i, truth in enumerate(report.class_names):
        for j, pred in enumerate(report.class_names):
            lines.append(f"confusion,{truth},{pred},{report.confusion[i, j]}")
    return "\n".join(lines) + "\n"


def evaluation_text(report: EvaluationReport) -> str:
    width = max(len(n) for n in report.class_names)
    lines = [f"method: {report.method}    test clips: {report.n_test}", ""]
    lines.append(f"{'class'.ljust(width)}  correct/total  accuracy")
    for i, name in enumerate(report.class_names):
        total = int(report.confusion[i].sum())
        if not total:
            continue
        correct = int(report.confusion[i, i])
        lines.append(
            f"{name.ljust(width)}  {correct:>4d}/{total:<4d}     "
            f"{report.per_class_accuracy[name]:6.2f}%"
        )
    lines.append("")
    lines.append(f"averaged accuracy (unweighted): {report.averaged_accuracy:.2f}%")
    lines.append(f"sample-weighted accuracy:       {report.sample_weighted_accuracy:.2f}%")
    lines.append("")
    lines.append("confusion (rows = truth):")
    header = " " * width + "  " + " ".join(n[:6].rjust(6) for n in report.class_names)
    lines.append(header)
    for i, name in enumerate(report.class_names):
        row = " ".join(str(int(v)).rjust(6) for v in report.confusion[i])
        lines.append(f"{name.ljust(width)}  {row}")
    if report.metadata.get("config"):
        lines.append("")
        lines.append(f"config: {report.metadata['config']}")
    if report.timings:
        lines.append("")
        lines.append("timings: " + "  ".join(
            f"{k}={v:.2f}" for k, v in report.timings.items()
        ))
    return "\n".join(lines) + "\n"


def single_grid_csv(result: ComparisonResult) -> str:
    header = "scale,orientation," + ",".join(result.class_names) + ",averaged"
    lines = [header]
    for scale, orientation, report in result.grid_reports:
        cells = [
            _pct(report.per_class_accuracy.get(name, float("nan")))
            for name in result.class_names
        ]
        lines.append(
            f"{scale},{orientation}," + ",".join(cells) + f",{_pct(report.averaged_accuracy)}"
        )
    return "\n".join(lines) + "\n"


def comparison_csv(result: ComparisonResult) -> str:
    methods = list(result.method_reports)
    lines = ["class," + ",".join(methods)]
    for name in result.class_names:
        cells = [
            _pct(result.method_reports[m].per_class_accuracy.get(name, float("nan")))
            for m in methods
        ]
        lines.append(f"{name}," + ",".join(cells))
    lines.append("averaged," + ",".join(
        _pct(result.method_reports[m].averaged_accuracy) for m in methods
    ))
    lines.append("sample_weighted," + ",".join(
        _pct(result.method_reports[m].sample_weighted_accuracy) for m in methods
    ))
    lines.append(f"split_hash,{result.split_hash}" + "," * (len(methods) - 1))
    return "\n".join(lines) + "\n"


def comparison_text(result: ComparisonResult) -> str:
    lines = ["single-filter grid (per-class accuracy %):", ""]
    width = max(len(n) for n in result.class_names)
    head = "scale orient  " + "  ".join(n[:7].rjust(7) for n in result.class_names) + "  averaged"
    lines.append(head)
    for scale, orientation, report in result.grid_reports:
        cells = "  ".join(
            f"{report.per_class_accuracy.get(name, float('nan')):7.2f}"
            for name in result.class_names
        )
        lines.append(f"{scale:>5d} {orientation:>6d}  {cells}  {report.averaged_accuracy:8.2f}")
    lines.append("")
    lines.append("method comparison (per-class accuracy %):")
    lines.append("")
    methods = list(result.method_reports)
    lines.append("class".ljust(width) + "  " + "  ".join(m.rjust(8) for m in methods))
    for name in result.class_names:
        cells = "  ".join(
            f"{result.method_reports[m].per_class_accuracy.get(name, float('nan')):8.2f}"
            for m in methods
        )
        lines.append(name.ljust(width) + "  " + cells)
    lines.append("averaged".ljust(width) + "  " + "  ".join(
        f"{result.method_reports[m].averaged_accuracy:8.2f}" for m in methods
    ))
    lines.append(f"\nsplit hash: {result.split_hash}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Synthetic corpus
# --------------------------------------------------------------------------

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
    if not (np.isfinite(duration_s) and duration_s > 0):
        raise ConfigError(f"duration must be finite and > 0, got {duration_s}")
    if sample_rate < 1:
        raise ConfigError(f"sample rate must be at least 1, got {sample_rate}")
    if round(duration_s * sample_rate) < 1:
        raise ConfigError(f"{duration_s} s at {sample_rate} Hz is less than one sample")
    out_dir = Path(out_dir)
    entries = []
    for kind in audio_io.SYNTH_KINDS:
        kind_dir = out_dir / kind
        kind_dir.mkdir(parents=True, exist_ok=True)
        for i in range(clips_per_class):
            clip = audio_io.synthesize_clip(kind, duration_s, sample_rate, seed + i)
            path = kind_dir / f"{kind}_{i:03d}.wav"
            audio_io.save_wav(path, clip)
            entries.append(ManifestEntry(path=str(path), label=kind))
    return DatasetManifest(entries=tuple(entries))
