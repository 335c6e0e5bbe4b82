"""Mutual-information feature ranking.

Features are discretized into equal-width histograms (edges fit on training
data only) and scored by I(feature; label) in bits; the top-K indices by
score reduce every feature vector thereafter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SonoclassError

DEFAULT_N_BINS = 16
DEFAULT_TOP_K = 256


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
    """Ranking result: per-feature scores (bits) and the chosen indices."""

    scores: np.ndarray        # (D,)
    selected: np.ndarray      # (K,) feature indices, descending score

    @property
    def n_features(self) -> int:
        return self.scores.shape[0]


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


def select_top_k(
    matrix: FeatureMatrix,
    k: int = DEFAULT_TOP_K,
    n_bins: int = DEFAULT_N_BINS,
) -> MiSelection:
    """Rank every feature by MI with the labels and keep the k best.

    Ties break toward the lower feature index. Compute this on the
    training split only; test rows reuse the selected indices.
    """
    d = matrix.n_features
    if not (1 <= k <= d):
        raise SonoclassError(f"k={k} outside [1, {d}]")
    labels = matrix.labels
    if np.unique(labels).size < 2:
        raise SonoclassError("selection needs at least 2 distinct classes")

    _, label_idx = np.unique(labels, return_inverse=True)
    n_classes = int(label_idx.max()) + 1
    scores = np.empty(d)
    for j in range(d):
        binned = discretize(matrix.values[:, j], n_bins)
        joint = np.bincount(
            binned * n_classes + label_idx, minlength=n_bins * n_classes
        ).reshape(n_bins, n_classes)
        scores[j] = _mi_from_counts(joint)

    order = np.lexsort((np.arange(d), -scores))
    selected = order[:k].copy()
    return MiSelection(scores=scores, selected=selected)


def apply_selection(vector: np.ndarray, selection: MiSelection) -> np.ndarray:
    """Gather the selected feature indices, in stored (descending-score) order."""
    vector = np.asarray(vector)
    if vector.shape[-1] != selection.n_features:
        raise SonoclassError(
            f"vector has {vector.shape[-1]} features, selection expects {selection.n_features}"
        )
    return vector[..., selection.selected]
