"""Feature extraction with an on-disk cache, and the train, evaluate,
grid-search and compare flows built on it.

Manifests live in `manifest`, the run configuration in `config` and the
report types and renderers in `report`.
"""

from __future__ import annotations

import hashlib
import os
import threading
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import audio_io, cpus, log_gabor, svm, wavelet_baseline
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
    place, so neither a crash nor a concurrent run leaves a partial file.
    The stage directory is made only when the temp file has nowhere to go."""
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        fh = open(tmp, "xb")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(tmp, "xb")
    try:
        with fh:
            np.save(fh, array)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class CacheStats:
    """Cache hits and misses per stage; hits and misses are the totals.
    count takes one lock, so clip tasks on several threads count exactly."""

    stages: dict[str, list[int]] = field(default_factory=dict)  # stage -> [hits, misses]
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def count(self, stage: str, hit: bool) -> None:
        with self._lock:
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
    is not a well-formed .npy of the expected shape, float64 and finite, is
    recomputed and rewritten. The fixed grid is not cached: it is computed
    on every call, and each one counts as a fixed miss. A C1 or log-Gabor
    miss computes from a new fixed grid (the feature through _grid_entries),
    a C2 miss from the C1 pyramid the caller passes, else from the C1 stage.
    stats counts a hit or a miss for every stage looked up.
    content_hashes memoizes each clip's content hash by path; passing one
    dict to several extractors hashes each clip once between them. With no
    cache directory no clip is hashed. A cache directory that is a file,
    or lies under one, is refused here, before any clip is read; one that
    does not exist yet is made by the first write. Clip tasks on several
    threads may share one extractor: each writes only its own clip's files
    and memo entry, and stats counts under a lock.
    """

    def __init__(self, config: RunConfig, cache_dir=None, content_hashes=None):
        self.config = config
        self.cache_dir = Path(cache_dir) if cache_dir else None
        if self.cache_dir is not None and any(
                p.exists() and not p.is_dir() for p in (self.cache_dir, *self.cache_dir.parents)):
            raise SonoclassError(f"cache directory {cache_dir} is not a directory")
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

    def _entry(self, stage: str, stage_hash: str, content: str) -> Path:
        return self.cache_dir / stage / stage_hash / f"{content}.npy"

    def grid_entry(self, content: str) -> Path:
        """Where the clip's _grid_entries array for this config is cached:
        c1/ for wavelet, feat/ otherwise (with a cache directory only)."""
        if self.config.method == "wavelet":
            return self._entry("c1", self._fixed_hash, content)
        return self._entry("feat", self._feature_hash, content)

    def _cached(self, stage: str, stage_hash: str, path, shape: tuple[int, ...],
                compute) -> np.ndarray:
        """The stage's cached array if it is finite float64 of this shape, else
        compute()'s, written to the cache under stage_hash. The clip's
        content hash is computed only with a cache directory, and without
        one this only computes."""
        if self.cache_dir is None:
            self.stats.count(stage, hit=False)
            return compute()
        entry = self._entry(stage, stage_hash, self._content(path))
        try:
            with open(entry, "rb") as fh:
                array = np.lib.format.read_array(fh)
        except (OSError, ValueError):  # missing, truncated or not a plain .npy
            pass
        else:
            if array.shape == shape and array.dtype == np.float64 and np.isfinite(array).all():
                self.stats.count(stage, hit=True)
                return array
        self.stats.count(stage, hit=False)
        array = compute()
        _write_cache(entry, array)
        return array

    def fixed_values(self, path) -> np.ndarray:
        self.stats.count("fixed", hit=False)
        clip = audio_io.peak_normalize(audio_io.load_wav(path))
        return to_fixed(log_spectrogram(clip, self._stft_params),
                        self.config.fixed_rows, self.config.fixed_cols)

    def c1(self, path) -> list[np.ndarray]:
        """The C1 pyramid, cached as its planes raveled and joined in SCALES order."""
        rows, cols = self.config.fixed_rows, self.config.fixed_cols
        shapes = [(len(wavelet_baseline.ORIENTATIONS), rows >> j, cols >> j)
                  for j in wavelet_baseline.SCALES]
        ends = np.cumsum([np.prod(shape) for shape in shapes])
        joined = self._cached("c1", self._fixed_hash, path, (int(ends[-1]),),
                              lambda: _joined_c1(self.fixed_values(path)))
        return [part.reshape(shape) for part, shape in zip(np.split(joined, ends[:-1]), shapes)]

    def c2(self, path, patch_set: PatchSet, pyramid: list[np.ndarray] | None = None) -> np.ndarray:
        """The C2 vector for patch_set, cached under the C1 stage's config
        hash joined with the patch set's digest; pyramid is the clip's C1
        when the caller already holds it."""
        text = f"{self._fixed_hash}\n{patch_set.digest}"
        key = hashlib.sha256(text.encode()).hexdigest()[:16]

        def compute():
            c1 = self.c1(path) if pyramid is None else pyramid
            return global_max(patch_transform(c1, patch_set), len(patch_set))

        return self._cached("c2", key, path, (len(patch_set),), compute)

    def gabor_feature(self, path) -> np.ndarray:
        """The log-Gabor feature of the config's method."""
        # every log-Gabor method gives one value per fixed-grid cell
        return self._cached("feat", self._feature_hash, path,
                            (self.config.fixed_rows * self.config.fixed_cols,),
                            lambda: _grid_entries([self.config], self.fixed_values(path))[0])


def _joined_c1(grid: np.ndarray) -> np.ndarray:
    """The grid's C1 planes raveled and joined in SCALES order."""
    return np.concatenate([plane.ravel() for plane in c1_pyramid(grid)])


def _grid_entries(configs: list[RunConfig], grid: np.ndarray) -> list[np.ndarray]:
    """Each config's cache entry computed from one clip's fixed grid: the
    joined C1 planes for wavelet, else the log-Gabor feature. The configs
    share the grid and differ only in method and single filter. A bank
    config and single configs asked together share one filtering of the
    whole bank: single (s, o) is slice [s-1, o-1] of it and bank its mean,
    equal to what single_filter_feature and bank_average_feature return."""
    shared = {"single", "bank"} <= {cfg.method for cfg in configs}
    stack = None
    entries = []
    for cfg in configs:
        if cfg.method == "wavelet":
            entries.append(_joined_c1(grid))
            continue
        bank = log_gabor.build_bank(grid.shape, cfg.gabor_params())
        if shared and cfg.method in ("single", "bank"):
            if stack is None:
                stack = log_gabor.apply_filter(grid, bank.masks)
            entries.append((stack[cfg.single_scale - 1, cfg.single_orientation - 1]
                            if cfg.method == "single" else stack.mean(axis=(0, 1))).ravel())
        elif cfg.method == "single":
            entries.append(log_gabor.single_filter_feature(
                grid, bank, cfg.single_scale, cfg.single_orientation))
        elif cfg.method == "bank":
            entries.append(log_gabor.bank_average_feature(grid, bank))
        else:
            entries.append(log_gabor.band_patch_feature(grid, bank))
    return entries


@dataclass
class ExtractResult:
    train: FeatureMatrix | None
    test: FeatureMatrix | None
    patch_set: PatchSet | None
    stats: CacheStats


def collect(entries, fn, mapped: bool = False) -> list:
    """[fn(entry) for entry in entries], one task per entry: on the calling
    thread, or with mapped over cpus.run_each on one worker per CPU
    (cpus.worker_count). A failing entry does not stop the others; the run
    then ends in one error that lists every entry it failed for, once each,
    in entry order."""
    def attempt(entry) -> tuple:
        try:
            return fn(entry), None
        except (SonoclassError, OSError) as exc:
            return None, exc

    entries = list(entries)
    outcomes = cpus.run_each(attempt, entries, cpus.worker_count(len(entries)) if mapped else 1)
    failures = [f"{e.path}: {error}" for e, (_, error) in zip(entries, outcomes) if error]
    if failures:
        raise SonoclassError(
            f"{len(failures)} file(s) failed:\n" + "\n".join(failures)
        )
    return [value for value, _ in outcomes]


def extract_features(
    manifest: DatasetManifest,
    config: RunConfig,
    cache_dir=None,
    patch_set: PatchSet | None = None,
    splits: tuple[str, ...] = ("train", "test"),
) -> ExtractResult:
    """Run the per-clip pipeline for the requested manifest splits.

    Rows follow manifest order within each split, and labels index
    manifest.classes. Every requested split is extracted in one batch into
    one preallocated matrix, one clip task per row, so one error lists
    every clip that failed. For the wavelet method a missing patch_set is
    sampled from the training rows' C1 pyramids with the configured seed,
    and those pyramids are handed to FeatureExtractor.c2, so a training
    row's C2 is computed from them on a miss. Each clip is hashed once per
    manifest object.

    Without cache_dir, per-clip extraction is a parallel step: collect
    maps the clips, one task per manifest row, each task filling its own
    row on its own thread, S2 included; the wavelet train rows' C1
    pyramids are mapped the same way. With cache_dir the clips run
    serially on this thread, cold or warm, so a cold run's stage calls
    nest as a single-stack tracer (perfbench/tracer.py) counts them and a
    warm run's feature reads start no thread. The C2 pass of a wavelet
    train extraction is the exception: each of its tasks scores a C1
    pyramid already held and reads no traced stage, so it is mapped with
    a cache too. The matrix is the same bytes on any number of CPUs.
    """
    extractor = FeatureExtractor(config, cache_dir, manifest.content_hashes)
    pyramids: dict[str, list[np.ndarray]] = {}
    if config.method == "wavelet":
        if patch_set is None:
            train_rows = manifest.rows("train")
            if not train_rows:
                raise SonoclassError(
                    "wavelet method needs a non-empty train split to sample patches"
                )
            train_c1 = collect(train_rows, lambda e: extractor.c1(e.path), cache_dir is None)
            patch_set = sample_patches(
                train_c1,
                n_patches=config.wavelet_patches,
                sizes=config.wavelet_sizes,
                seed=config.seed,
            )
            pyramids = {e.path: c1 for e, c1 in zip(train_rows, train_c1)}
        feature_fn = lambda e: extractor.c2(e.path, patch_set, pyramids.get(e.path))
        width = len(patch_set)
    else:
        feature_fn = lambda e: extractor.gabor_feature(e.path)
        width = config.fixed_rows * config.fixed_cols  # one value per fixed-grid cell

    pending = [split for split in splits if manifest.rows(split)]
    entries = [e for split in pending for e in manifest.rows(split)]
    row_of = {e.path: row for row, e in enumerate(entries)}  # manifest paths are unique
    values = np.empty((len(entries), width))

    def fill(entry) -> None:
        values[row_of[entry.path]] = feature_fn(entry)

    collect(entries, fill, cache_dir is None or all(e.path in pyramids for e in entries))
    label_index = {name: i for i, name in enumerate(manifest.classes)}
    matrices: dict[str, FeatureMatrix] = {}
    start = 0
    for split in pending:
        split_rows = manifest.rows(split)
        labels = np.array([label_index[e.label] for e in split_rows], dtype=np.int64)
        matrices[split] = FeatureMatrix(values[start:start + len(split_rows)], labels)
        start += len(split_rows)

    return ExtractResult(
        train=matrices.get("train"),
        test=matrices.get("test"),
        patch_set=patch_set,
        stats=extractor.stats,
    )


def _check_train_classes(manifest: DatasetManifest, folds: int = 0) -> None:
    """A model holds a pair SVM for every two manifest classes, so it needs
    train rows of two or more classes, and max(folds, 2) rows of each."""
    labels = [e.label for e in manifest.rows("train")]
    if not labels:
        raise SonoclassError("manifest has no train rows")
    if len(set(labels)) < 2:
        raise SonoclassError(f"train rows of one class only ({labels[0]}); a model needs 2 or more")
    missing = [name for name in manifest.classes if name not in labels]
    if missing:
        raise SonoclassError(f"no train rows for class(es): {', '.join(missing)}")
    for name in manifest.classes:
        if labels.count(name) < max(folds, 2):
            why = f"{folds}-fold cross-validation needs {folds}" if folds else "a model needs 2"
            raise SonoclassError(f"class {name} has {labels.count(name)} train row(s); {why} or more")


def _selected_train(
    manifest: DatasetManifest,
    config: RunConfig,
    cache_dir=None,
    folds: int = 0,
) -> tuple[ExtractResult, FeatureMatrix, MiSelection | None]:
    """Extract the train split and keep its MI top-K columns (log-Gabor
    methods; wavelet C2 vectors pass through unselected). The train classes
    are checked before any clip is read."""
    _check_train_classes(manifest, folds)
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
    _, matrix, _ = _selected_train(manifest, config, cache_dir, config.grid_folds)
    c_grid = config.grid_c or svm.DEFAULT_C_GRID
    gamma_grid = config.grid_gamma or svm.DEFAULT_GAMMA_GRID
    return grid_search_cv(
        matrix, c_grid, gamma_grid,
        folds=config.grid_folds, seed=config.seed,
        tol=config.svm_tol, max_passes=config.svm_max_passes,
    )


def _extract_each_clip_once(manifest: DatasetManifest, configs: list[RunConfig],
                            cache_dir) -> None:
    """Write each config's missing grid_entry from one fixed grid per train
    or test clip, through _grid_entries, so a bank entry and single entries
    missing together come from one filtering of the whole bank.

    This cold cache fill is a parallel step: collect maps the rows with a
    missing entry, one task per manifest row, on one worker per CPU, so a
    warm cache starts no thread. A clip repeated under two paths gets one
    task per row: each writes the entries still missing when it starts,
    computing no fixed grid if there are none, and two that race write the
    same bytes through _write_cache's rename.
    The entries are the same bytes on any number of CPUs. A damaged entry
    is left to the read-and-check of the configuration that reads it. With
    no cache directory there is nothing to fill, so it does nothing. One
    error lists every clip that failed."""
    if not cache_dir:
        return
    extractors = [FeatureExtractor(cfg, cache_dir, manifest.content_hashes) for cfg in configs]
    base = extractors[0]

    def missing(content: str) -> list[FeatureExtractor]:
        return [ex for ex in extractors if not ex.grid_entry(content).is_file()]

    def incomplete(row) -> bool:
        try:
            return bool(missing(base._content(row.path)))
        except OSError:  # unreadable: listed by collect
            return True

    def fill(row) -> None:
        # memoized by incomplete before the map, so no task writes the memo (an
        # unreadable clip raises again); the counts base.stats takes are discarded
        content = base._content(row.path)
        todo = missing(content)
        if not todo:  # a copy whose twin's task wrote every entry first
            return
        entries = _grid_entries([ex.config for ex in todo], base.fixed_values(row.path))
        for ex, array in zip(todo, entries):
            _write_cache(ex.grid_entry(content), array)

    rows = [row for row in manifest.rows("train") + manifest.rows("test") if incomplete(row)]
    collect(rows, fill, mapped=True)


def compare_methods(
    manifest: DatasetManifest,
    config: RunConfig,
    cache_dir=None,
) -> ComparisonResult:
    """Evaluate every single-filter configuration plus the three multi-filter
    methods on one shared split. Reporting only; nothing is asserted about
    which method wins. If any pair solve of the 15 models stops without
    converging, one NonConvergenceWarning gives the count."""
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

    converged: list[bool] = []  # one flag per pair solve

    def report(cfg: RunConfig) -> EvaluationReport:
        model = train_model(manifest, cfg, cache_dir=cache_dir)
        converged.extend(m.converged for m in model.ovo.pair_models.values())
        return evaluate_model(model, manifest, cache_dir=cache_dir)

    grid_reports = [(c.single_scale, c.single_orientation, report(c)) for c in grid_configs]
    method_reports = {c.method: report(c) for c in method_configs}
    svm.warn_unconverged(converged.count(False), len(converged))
    return ComparisonResult(
        grid_reports=grid_reports,
        method_reports=method_reports,
        class_names=manifest.classes,
        split_hash=manifest.split_hash(),
    )
