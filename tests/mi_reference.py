"""Reference copy of MI scoring in its one-column-at-a-time form, and a
textbook table oracle.

`sonoclass.feature_select.mi_scores` scores a block of columns with one
`bincount` and sums the terms of all its columns together. This copy bins
one column with `discretize`, builds its joint table with `np.unique` and
`np.bincount`, and sums its terms with one 1-D `np.sum`. Tests require
that both give the same scores, bit for bit. `mi_table_oracle` evaluates
the textbook sum over an explicit count table, term by term in Python.
"""

import math

import numpy as np

from sonoclass.errors import SonoclassError


def discretize(column, n_bins):
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


def mutual_information(x, y):
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


def _mi_from_counts(joint):
    total = joint.sum()
    p_xy = joint / total
    p_x = p_xy.sum(axis=1, keepdims=True)
    p_y = p_xy.sum(axis=0, keepdims=True)
    mask = p_xy > 0
    ratio = p_xy[mask] / (p_x @ p_y)[mask]
    return max(float(np.sum(p_xy[mask] * np.log2(ratio))), 0.0)


def per_column_oracle(matrix, n_bins):
    """The MI with the labels of each column of a FeatureMatrix, one at a time."""
    return np.array([
        mutual_information(discretize(col, n_bins), matrix.labels) for col in matrix.values.T
    ])


def mi_table_oracle(joint):
    """Direct textbook evaluation over an explicit probability table."""
    joint = np.asarray(joint, dtype=float)
    joint = joint / joint.sum()
    p_x = joint.sum(axis=1)
    p_y = joint.sum(axis=0)
    total = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            if joint[i, j] > 0:
                total += joint[i, j] * math.log2(joint[i, j] / (p_x[i] * p_y[j]))
    return total


def samples_from_counts(counts, seed=0):
    """Expand a count table into (x, y) sample arrays, shuffled."""
    xs, ys = [], []
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            xs += [i] * counts[i, j]
            ys += [j] * counts[i, j]
    xs = np.array(xs)
    ys = np.array(ys)
    order = np.random.default_rng(seed).permutation(xs.size)
    return xs[order], ys[order]
