"""Mutual-information feature ranking.

Features are discretized into equal-width histograms (edges fit on training
data only) and scored by I(feature; label) in bits; the top-K indices by
score reduce every feature vector thereafter.

`mi_scores` scores a block of columns at a time, the blocks on every CPU
of the affinity mask through `cpus.run_each`: one `bincount` over
(column, bin, class) codes gives every joint table of the block, and the
MI terms of the nonzero cells of all its columns are computed together.
The columns that have the same number m of nonzero cells are summed
together, each as one row of m terms; that rounds exactly like the 1-D
`np.sum` in `_mi_from_counts`, so the scores are bit-identical to scoring
each column with `discretize` and `mutual_information`. Those per-column
functions stay: they are the public estimator and the oracle the blocked
pass is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cpus
from .errors import SonoclassError

DEFAULT_N_BINS = 16
# a block's columns bound its per-sample temporaries and its cells (n_bins x
# classes per column) its joint tables; 16 bins x 4 classes fill both at once
BLOCK_COLUMNS = 2048
BLOCK_CELLS = BLOCK_COLUMNS * 64
MAX_N_BINS = BLOCK_CELLS // 2  # 65,536: one column's table at 2 classes fills a block


@dataclass(frozen=True)
class FeatureMatrix:
    """S x D feature values with integer class labels in [0, k)."""

    values: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if values.ndim != 2:
            raise ValueError("values must be a 2D matrix")
        if labels.shape != (values.shape[0],):
            raise SonoclassError(
                f"{labels.shape[0]} labels for {values.shape[0]} rows"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("feature values must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MiSelection:
    """The K kept of D feature indices, best first, and their MI scores (bits)."""

    selected: np.ndarray      # (K,) feature indices
    scores: np.ndarray        # (K,) scores of the selected features
    n_features: int           # D, the length of the vectors it gathers from

    def __post_init__(self):
        if np.any((self.selected < 0) | (self.selected >= self.n_features)):
            raise SonoclassError(f"selected index outside {self.n_features} raw features")
        if self.scores.shape != self.selected.shape:
            raise SonoclassError(f"{self.scores.size} scores for {self.selected.size} indices")


def discretize(column: np.ndarray, n_bins: int) -> np.ndarray:
    """Equal-width bins over [min, max]; a constant column maps to bin 0."""
    if n_bins < 2:
        raise ValueError("need at least 2 bins")
    column = np.asarray(column, dtype=np.float64)
    lo = column.min()
    hi = column.max()
    if hi == lo:
        return np.zeros(column.shape, dtype=np.int64)
    idx = np.floor((column - lo) * (n_bins / (hi - lo))).astype(np.int64)
    return np.clip(idx, 0, n_bins - 1)


def mutual_information(x: np.ndarray, y: np.ndarray) -> float:
    """I(X; Y) in bits from empirical joint frequencies (0 log 0 = 0)."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 1 or x.size == 0:
        raise SonoclassError(f"x has shape {x.shape}, y has shape {y.shape}")
    _, xi = np.unique(x, return_inverse=True)
    _, yi = np.unique(y, return_inverse=True)
    n_x = int(xi.max()) + 1
    n_y = int(yi.max()) + 1
    joint = np.bincount(xi * n_y + yi, minlength=n_x * n_y).reshape(n_x, n_y)
    return _mi_from_counts(joint)


def _mi_from_counts(joint: np.ndarray) -> float:
    total = joint.sum()
    p_xy = joint / total
    p_x = p_xy.sum(axis=1, keepdims=True)
    p_y = p_xy.sum(axis=0, keepdims=True)
    mask = p_xy > 0
    ratio = p_xy[mask] / (p_x @ p_y)[mask]
    return max(float(np.sum(p_xy[mask] * np.log2(ratio))), 0.0)


def mi_scores(matrix: FeatureMatrix, n_bins: int = DEFAULT_N_BINS) -> np.ndarray:
    """MI with the labels, in bits, of every feature: shape (D,).

    The column blocks are scored by `cpus.run_each` on one worker per CPU
    in the affinity mask (`cpus.worker_count`), and the scores do not
    depend on the count. The blocks in flight together are no wider than
    one block on one CPU.
    """
    labels = matrix.labels
    if np.unique(labels).size < 2:
        raise SonoclassError("selection needs at least 2 distinct classes")
    if n_bins < 2:
        raise ValueError("need at least 2 bins")

    _, label_idx = np.unique(labels, return_inverse=True)
    n_classes = int(label_idx.max()) + 1
    d = matrix.n_features
    budget = max(1, min(BLOCK_COLUMNS, BLOCK_CELLS // (n_bins * n_classes)))
    workers = cpus.worker_count(budget)
    width = budget // workers

    def score(start: int, _worker: int) -> np.ndarray:
        block = matrix.values[:, start:start + width]
        return _block_scores(block, label_idx, n_classes, n_bins)

    return np.concatenate(cpus.run_each(score, range(0, d, width), workers) or [np.zeros(0)])


def select_top_k(matrix: FeatureMatrix, k: int, n_bins: int = DEFAULT_N_BINS) -> MiSelection:
    """Rank every feature by `mi_scores` and keep the k best.

    Ties break toward the lower feature index. Compute this on the
    training split only; test rows reuse the selected indices.
    """
    d = matrix.n_features
    if not (1 <= k <= d):
        raise SonoclassError(f"k={k} outside [1, {d}]")
    scores = mi_scores(matrix, n_bins)
    selected = np.lexsort((np.arange(d), -scores))[:k].copy()
    return MiSelection(selected=selected, scores=scores[selected], n_features=d)


def _block_scores(
    block: np.ndarray, label_idx: np.ndarray, n_classes: int, n_bins: int
) -> np.ndarray:
    """MI of each column of an S x B block, as `discretize` followed by
    `_mi_from_counts` would give it, bit for bit."""
    n_samples, width = block.shape
    cells = n_bins * n_classes
    lo = block.min(axis=0)
    span = block.max(axis=0) - lo
    span[span == 0] = 1.0  # a constant column has x - lo == 0: bin 0
    # x - lo >= 0, so truncating to int is discretize's floor; the clip
    # takes the column maximum from n_bins to the top bin, and, as in
    # discretize, a NaN from an overflowing bin width to bin 0
    scaled = block - lo
    scaled *= n_bins / span
    codes = scaled.astype(np.int64)
    del scaled
    np.clip(codes, 0, n_bins - 1, out=codes)
    # code of sample i in column j: its cell (bin, class) of column j's table
    codes *= n_classes
    codes += label_idx[:, None]
    codes += np.arange(0, width * cells, cells)
    joint = np.bincount(codes.ravel(), minlength=width * cells)
    del codes

    p_xy = joint / n_samples
    p_x = p_xy.reshape(width * n_bins, n_classes).sum(axis=1)
    # the nonzero cells, column by column, each in row-major (bin, class) order
    nz = np.flatnonzero(joint > 0)  # a bool mask is searched faster
    col = nz // cells
    p = p_xy[nz]
    # numpy sums the bins of a class one after another, and so does a
    # weighted bincount over the nonzero cells in bin order
    col_class = col * n_classes + nz % n_classes
    p_y = np.bincount(col_class, weights=p, minlength=width * n_classes)
    terms = p_x[nz // n_classes]
    terms *= p_y[col_class]
    np.divide(p, terms, out=terms)
    np.log2(terms, out=terms)
    terms *= p

    # columns with m nonzero cells are summed as rows of m terms, which
    # rounds like np.sum over one column's m terms; in order of m, each
    # group's rows are one contiguous run
    nnz = np.bincount(col, minlength=width)
    order = np.argsort(nnz, kind="stable")
    m_sorted = nnz[order]
    # where each column's terms start in terms, less where they start in runs
    shift = (np.cumsum(nnz) - nnz)[order] - (np.cumsum(m_sorted) - m_sorted)
    runs = terms[np.repeat(shift, m_sorted) + np.arange(terms.size)]
    sums = np.empty(width)
    row = at = 0
    ms, counts = np.unique(m_sorted, return_counts=True)
    for m, count in zip(ms.tolist(), counts.tolist()):
        sums[order[row:row + count]] = runs[at:at + count * m].reshape(count, m).sum(axis=1)
        row += count
        at += count * m
    return np.where(sums < 0.0, 0.0, sums)  # max(sum, 0.0), as _mi_from_counts


def apply_selection(vector: np.ndarray, selection: MiSelection) -> np.ndarray:
    """Gather the selected feature indices, in stored (descending-score) order."""
    vector = np.asarray(vector)
    if vector.shape[-1] != selection.n_features:
        raise SonoclassError(
            f"vector has {vector.shape[-1]} features, selection expects {selection.n_features}"
        )
    return vector[..., selection.selected]
