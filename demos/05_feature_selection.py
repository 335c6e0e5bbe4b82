"""Mutual-information feature ranking on a transparent toy problem.

Features are histogram-discretized (equal-width bins fit on training data)
and scored by I(feature; label) in bits. A copy of the label scores its
full entropy, noise scores near zero, constants exactly zero.
"""

import numpy as np

from sonoclass import FeatureMatrix, apply_selection, mi_scores, select_top_k

rng = np.random.default_rng(0)
n = 300
labels = rng.integers(0, 2, size=n)

values = np.column_stack([
    labels + 0.05 * rng.normal(size=n),   # nearly the label
    rng.normal(size=n),                   # pure noise
    np.full(n, 2.5),                      # constant
    labels * 0.4 + 0.6 * rng.normal(size=n),  # weak signal
])
matrix = FeatureMatrix(values=values, labels=labels)

for i, score in enumerate(mi_scores(matrix, n_bins=16)):
    print(f"feature {i}: {score:.4f} bits")

# the selection keeps the k best indices and their scores
selection = select_top_k(matrix, k=2, n_bins=16)
print("selected (best first):", selection.selected.tolist(),
      "scores:", np.round(selection.scores, 4).tolist())

vector = values[0]
print("reduced vector:", np.round(apply_selection(vector, selection), 3))

# label entropy is the ceiling for any single feature
p = labels.mean()
h = -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
print(f"label entropy H(Y) = {h:.4f} bits (upper bound on any score)")
