"""Feature extraction with an on-disk cache, and the train, evaluate,
grid-search and compare flows built on it.

Manifests live in `manifest`, the run configuration in `config` and the
report types and renderers in `report`.
"""

from __future__ import annotations

import hashlib
import os
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import audio_io, log_gabor, svm, wavelet_baseline
from .config import RunConfig, config_to_flat
from .errors import SonoclassError
from .feature_select import FeatureMatrix, MiSelection, apply_selection, select_top_k
from .manifest import DatasetManifest
from .model_io import TrainedModel
from .report import ComparisonResult, EvaluationReport, tabulate_report
from .spectrogram import log_spectrogram, to_fixed
from .svm import KernelParams, grid_search_cv, ovo_predict_batch, ovo_train
from .wavelet_baseline import PatchSet, c1_pyramid, global_max, patch_transform, sample_patches

# the keys each stage's config hash covers; their order is hashed into every
# cache path, so it is kept by hand
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
    """Cache hits and misses per stage; hits and misses are the totals."""

    stages: dict[str, list[int]] = field(default_factory=dict)  # stage -> [hits, misses]

    def count(self, stage: str, hit: bool) -> None:
        self.stages.setdefault(stage, [0, 0])[0 if hit else 1] += 1

    @property
    def hits(self) -> int:
        return sum(hits for hits, _ in self.stages.values())

    @property
    def misses(self) -> int:
        return sum(misses for _, misses in self.stages.values())


class FeatureExtractor:
    """Per-clip feature computation with an optional on-disk cache.

    Each stage (C1 pyramid, wavelet C2 vector, log-Gabor feature) stores one
    array per clip at cache_dir/<stage>/<stage hash>/<content hash>.npy, so
    a parameter change invalidates exactly the affected stage. A file that
    is not a well-formed .npy of the expected shape is recomputed and
    rewritten. The fixed grid is not cached: it is computed on every call,
    and each one counts as a fixed miss. A miss computes from the fixed grid
    (C1, log-Gabor) or the C1 pyramid (C2) the caller passes, else from the
    stage below. stats counts a hit or a miss for every stage looked up.
    content_hashes memoizes each clip's content hash by path; passing one
    dict to several extractors hashes each clip once between them.
    """

    def __init__(self, config: RunConfig, cache_dir=None, content_hashes=None):
        self.config = config
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.stats = CacheStats()
        flat = config_to_flat(config)
        self._fixed_hash = _subset_hash(flat, _FIXED_KEYS)
        self._feature_hash = _subset_hash(flat, _GABOR_KEYS)
        self._stft_params = config.stft_params()
        self._content_hashes = {} if content_hashes is None else content_hashes

    def _content(self, path) -> str:
        content = self._content_hashes.get(path)
        if content is None:
            content = self._content_hashes[path] = _content_hash(path)
        return content

    def _entry(self, stage: str, stage_hash: str, content: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / stage / stage_hash / f"{content}.npy"

    def feature_entry(self, content: str) -> Path | None:
        """Where gabor_feature caches a clip's feature; None with no cache."""
        return self._entry("feat", self._feature_hash, content)

    def c1_entry(self, content: str) -> Path | None:
        """Where c1 caches a clip's pyramid; None with no cache."""
        return self._entry("c1", self._fixed_hash, content)

    def _cached(self, stage: str, stage_hash: str, content: str, shape: tuple[int, ...],
                compute) -> np.ndarray:
        """The stage's cached array when it has this shape, else compute()'s,
        written to the cache (with no cache directory it only computes)."""
        path = self._entry(stage, stage_hash, content)
        if path is not None:
            try:
                with open(path, "rb") as fh:
                    array = np.lib.format.read_array(fh)
            except (OSError, ValueError):  # missing, truncated or not a plain .npy
                pass
            else:
                if array.shape == shape:
                    self.stats.count(stage, hit=True)
                    return array
        self.stats.count(stage, hit=False)
        array = compute()
        if path is not None:
            _write_cache(path, array)
        return array

    def fixed_values(self, path) -> np.ndarray:
        self.stats.count("fixed", hit=False)
        clip = audio_io.peak_normalize(audio_io.load_wav(path))
        return to_fixed(log_spectrogram(clip, self._stft_params),
                        self.config.fixed_rows, self.config.fixed_cols)

    def c1(self, path, fixed: np.ndarray | None = None) -> list[np.ndarray]:
        """The C1 pyramid, cached as its planes raveled and joined in SCALES
        order; fixed is the clip's grid when the caller already holds it."""
        rows, cols = self.config.fixed_rows, self.config.fixed_cols
        shapes = [(len(wavelet_baseline.ORIENTATIONS), rows >> j, cols >> j)
                  for j in wavelet_baseline.SCALES]
        ends = np.cumsum([np.prod(shape) for shape in shapes])

        def compute():
            pyramid = c1_pyramid(self.fixed_values(path) if fixed is None else fixed)
            return np.concatenate([plane.ravel() for plane in pyramid])

        joined = self._cached("c1", self._fixed_hash, self._content(path), (int(ends[-1]),),
                              compute)
        return [part.reshape(shape) for part, shape in zip(np.split(joined, ends[:-1]), shapes)]

    def c2(self, path, patch_set: PatchSet, pyramid: list[np.ndarray] | None = None) -> np.ndarray:
        """The C2 vector for patch_set, cached under the C1 stage's config
        hash joined with the patch set's digest; pyramid is the clip's C1
        when the caller already holds it."""
        key = hashlib.sha256(f"{self._fixed_hash}\n{patch_set.digest}".encode()).hexdigest()[:16]

        def compute():
            c1 = self.c1(path) if pyramid is None else pyramid
            return global_max(patch_transform(c1, patch_set), len(patch_set))

        return self._cached("c2", key, self._content(path), (len(patch_set),), compute)

    def gabor_feature(self, path, fixed: np.ndarray | None = None) -> np.ndarray:
        """The log-Gabor feature; fixed is the clip's grid when the caller
        already holds it."""
        cfg = self.config

        def compute():
            grid = self.fixed_values(path) if fixed is None else fixed
            bank = log_gabor.build_bank((cfg.fixed_rows, cfg.fixed_cols), cfg.gabor_params())
            if cfg.method == "single":
                return log_gabor.single_filter_feature(
                    grid, bank, cfg.single_scale, cfg.single_orientation
                )
            if cfg.method == "bank":
                return log_gabor.bank_average_feature(grid, bank)
            return log_gabor.band_patch_feature(grid, bank)

        # every log-Gabor method gives one value per fixed-grid cell
        return self._cached("feat", self._feature_hash, self._content(path),
                            (cfg.fixed_rows * cfg.fixed_cols,), compute)


@dataclass
class ExtractResult:
    train: FeatureMatrix | None
    test: FeatureMatrix | None
    patch_set: PatchSet | None
    stats: CacheStats


def collect(entries, fn) -> list:
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

    Rows follow manifest order within each split, and labels index
    manifest.classes. Every requested split is extracted in one batch, so
    one error lists every clip that failed. For the wavelet method a
    missing patch_set is sampled from the training rows' C1 pyramids with
    the configured seed, and those pyramids are handed to
    FeatureExtractor.c2, so a training row's C2 is computed from them on a
    miss. Each clip is hashed once per manifest object.
    """
    extractor = FeatureExtractor(config, cache_dir, manifest.content_hashes)
    if config.method == "wavelet":
        pyramids: dict[str, list[np.ndarray]] = {}
        if patch_set is None:
            train_rows = manifest.rows("train")
            if not train_rows:
                raise SonoclassError(
                    "wavelet method needs a non-empty train split to sample patches"
                )
            train_c1 = collect(train_rows, lambda e: extractor.c1(e.path))
            patch_set = sample_patches(
                train_c1,
                n_patches=config.wavelet_patches,
                sizes=config.wavelet_sizes,
                seed=config.seed,
            )
            pyramids = {e.path: c1 for e, c1 in zip(train_rows, train_c1)}
        feature_fn = lambda e: extractor.c2(e.path, patch_set, pyramids.get(e.path))
    else:
        feature_fn = lambda e: extractor.gabor_feature(e.path)

    pending = [split for split in splits if manifest.rows(split)]
    batch = iter(collect([e for split in pending for e in manifest.rows(split)], feature_fn))
    label_index = {name: i for i, name in enumerate(manifest.classes)}
    matrices: dict[str, FeatureMatrix] = {}
    for split in pending:
        rows = manifest.rows(split)
        values = np.vstack([next(batch) for _ in rows])
        labels = np.array([label_index[e.label] for e in rows], dtype=np.int64)
        matrices[split] = FeatureMatrix(values=values, labels=labels)

    return ExtractResult(
        train=matrices.get("train"),
        test=matrices.get("test"),
        patch_set=patch_set,
        stats=extractor.stats,
    )


def _check_train_classes(manifest: DatasetManifest) -> None:
    """A model holds a pair SVM for every two manifest classes, so it needs
    train rows of two or more classes and of each."""
    trained = {e.label for e in manifest.rows("train")}
    if not trained:
        raise SonoclassError("manifest has no train rows")
    if len(trained) < 2:
        raise SonoclassError(f"train rows of one class only ({min(trained)}); a model needs 2 or more")
    missing = [name for name in manifest.classes if name not in trained]
    if missing:
        raise SonoclassError(f"no train rows for class(es): {', '.join(missing)}")


def _selected_train(
    manifest: DatasetManifest,
    config: RunConfig,
    cache_dir=None,
) -> tuple[ExtractResult, FeatureMatrix, MiSelection | None]:
    """Extract the train split and keep its MI top-K columns (log-Gabor
    methods; wavelet C2 vectors pass through unselected). The train classes
    are checked before any clip is read."""
    _check_train_classes(manifest)
    result = extract_features(manifest, config, cache_dir=cache_dir, splits=("train",))
    if config.method == "wavelet":
        return result, result.train, None
    selection = select_top_k(result.train, k=config.mi_top_k, n_bins=config.mi_n_bins)
    matrix = FeatureMatrix(apply_selection(result.train.values, selection), result.train.labels)
    return result, matrix, selection


def train_model(
    manifest: DatasetManifest,
    config: RunConfig,
    cache_dir=None,
) -> TrainedModel:
    """Fit MI selection (log-Gabor methods), the scaler, and all pair SVMs."""
    result, matrix, selection = _selected_train(manifest, config, cache_dir)
    ovo = ovo_train(
        matrix,
        config.kernel_params(),
        tol=config.svm_tol,
        max_passes=config.svm_max_passes,
        seed=config.seed,
    )
    return TrainedModel(
        ovo=ovo,
        config=config,
        class_names=manifest.classes,
        selection=selection,
        patch_set=result.patch_set,
    )


def evaluate_model(
    model: TrainedModel,
    manifest: DatasetManifest,
    cache_dir=None,
) -> EvaluationReport:
    """Classify the manifest's test rows and tabulate accuracies."""
    test_rows = manifest.rows("test")
    if not test_rows:
        raise SonoclassError("manifest has no test rows")
    label_index = {name: i for i, name in enumerate(model.class_names)}
    unknown = sorted({e.label for e in test_rows} - set(model.class_names))
    if unknown:
        raise SonoclassError(f"labels not in the model: {unknown}")

    values = extract_features(
        manifest, model.config, cache_dir=cache_dir, patch_set=model.patch_set, splits=("test",)
    ).test.values
    if model.selection is not None:
        values = apply_selection(values, model.selection)

    truth = np.array([label_index[e.label] for e in test_rows], dtype=np.int64)
    flat = config_to_flat(model.config)
    return tabulate_report(
        truth, ovo_predict_batch(model.ovo, values), model.class_names,
        method=model.method,
        split_hash=manifest.split_hash(),
        config=";".join(f"{k}={flat[k]}" for k in sorted(flat)),
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


def _extract_each_clip_once(manifest: DatasetManifest, configs: list[RunConfig],
                            cache_dir) -> None:
    """Write the configs' missing feat/ entries, and the wavelet config's
    missing c1/ entry, from one fixed grid per train or test clip. The
    single and bank entries come from one stacked filtering: single (s, o)
    is slice [s-1, o-1] of the stack and bank its mean, as gabor_feature
    would write. The patches feature and the C1 pyramid are computed by
    gabor_feature and c1 from the same grid.

    A damaged entry is left to the read-and-check of the configuration that
    reads it. With no cache directory there is nothing to fill, so it does
    nothing. One error lists every clip that failed."""
    if not cache_dir:
        return
    extractors = [FeatureExtractor(cfg, cache_dir, manifest.content_hashes) for cfg in configs]
    base = extractors[0]
    grid = (base.config.fixed_rows, base.config.fixed_cols)

    def fill(row) -> None:
        content = base._content(row.path)
        missing = [ex for ex in extractors
                   if not (ex.c1_entry(content) if ex.config.method == "wavelet"
                           else ex.feature_entry(content)).is_file()]
        if not missing:
            return
        fixed = base.fixed_values(row.path)
        stack = None
        for ex in missing:
            cfg = ex.config
            if cfg.method == "wavelet":
                ex.c1(row.path, fixed)
            elif cfg.method == "patches":
                ex.gabor_feature(row.path, fixed)
            else:
                if stack is None:  # only when a single or bank entry is missing
                    bank = log_gabor.build_bank(grid, base.config.gabor_params())
                    stack = log_gabor.apply_filter(fixed, bank.masks)
                feature = (stack[cfg.single_scale - 1, cfg.single_orientation - 1]
                           if cfg.method == "single" else stack.mean(axis=(0, 1)))
                _write_cache(ex.feature_entry(content), feature.ravel())

    collect(manifest.rows("train") + manifest.rows("test"), fill)


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
    # refused before any clip is read
    _check_train_classes(manifest)
    if not manifest.rows("test"):
        raise SonoclassError("manifest has no test rows")
    _extract_each_clip_once(manifest, grid_configs + method_configs, cache_dir)

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
