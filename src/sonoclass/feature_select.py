"""Mutual-information feature ranking.

Features are discretized into equal-width histograms (edges fit on training
data only) and scored by I(feature; label) in bits; the top-K indices by
score reduce every feature vector thereafter.

`mi_scores` is the library's one MI estimator. It scores a block of
columns at a time, the blocks on every CPU of the affinity mask through
`cpus.run_each`: one `bincount` over (column, bin, class) codes gives every
joint table of the block, and each column's MI comes from its integer
counts by the plug-in identity I(X;Y) = H(X) + H(Y) - H(X,Y) (Cover &
Thomas, Elements of Information Theory, 2nd ed., eq. 2.45): with n rows and
f(c) = c log2 c, n I = f(n) - sum_y f(c_y) + sum_x (sum_y f(c_xy) - f(c_x)).
f is a table of the n + 1 possible counts. Every column sums its own cells
in the same order, so columns with equal count tables score equal bits.
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

    # f(c) = c log2 c of every count c in [0, n], and n H(Y) = f(n) - sum_y f(c_y)
    flogf = np.arange(matrix.n_samples + 1.0)
    flogf[1:] *= np.log2(flogf[1:])
    n_hy = flogf[-1] - flogf[np.bincount(label_idx)].sum()

    def score(start: int) -> np.ndarray:
        block = matrix.values[:, start:start + width]
        return _block_scores(block, label_idx, n_classes, n_bins, flogf, n_hy)

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


def _block_scores(block: np.ndarray, label_idx: np.ndarray, n_classes: int, n_bins: int,
                  flogf: np.ndarray, n_hy: float) -> np.ndarray:
    """MI of each column of an S x B block: equal-width bins over [min, max],
    then (n H(Y) - n H(Y|X)) / n from the column's joint counts, with
    flogf[c] = c log2 c and n_hy = n H(Y)."""
    n_samples, width = block.shape
    cells = n_bins * n_classes
    lo = block.min(axis=0)
    span = block.max(axis=0) - lo
    span[span == 0] = 1.0  # a constant column has x - lo == 0: bin 0
    # x - lo >= 0, so truncating to int is a floor; the clip takes the
    # column maximum from n_bins to the top bin, and a NaN from an
    # overflowing bin width to bin 0
    scaled = block - lo
    scaled *= n_bins / span
    codes = scaled.astype(np.int64)
    del scaled
    np.clip(codes, 0, n_bins - 1, out=codes)
    # code of sample i in column j: its cell (bin, class) of column j's table
    codes *= n_classes
    codes += label_idx[:, None]
    codes += np.arange(0, width * cells, cells)
    # row j * n_bins + x: bin x of column j, one count per class
    joint = np.bincount(codes.ravel(), minlength=width * cells).reshape(-1, n_classes)
    del codes
    # -n H(Y|X) = sum over bins x of (sum_y f(c_xy) - f(c_x)): exactly 0 for
    # a bin of one class, so every separating column scores n H(Y) / n
    per_bin = flogf[joint].sum(axis=1)
    per_bin -= flogf[joint.sum(axis=1)]
    mi = n_hy + per_bin.reshape(width, n_bins).sum(axis=1)
    mi /= n_samples
    return np.maximum(mi, 0.0)  # rounding can dip below 0


def apply_selection(vector: np.ndarray, selection: MiSelection) -> np.ndarray:
    """Gather the selected feature indices, in stored (descending-score) order."""
    vector = np.asarray(vector)
    if vector.shape[-1] != selection.n_features:
        raise SonoclassError(
            f"vector has {vector.shape[-1]} features, selection expects {selection.n_features}"
        )
    return vector[..., selection.selected]
