"""The SMO-trained RBF SVM: binary solver, one-vs-one voting, grid search.

The trainer does pairwise coordinate ascent on the dual, keeping
sum(alpha*y) = 0 and 0 <= alpha <= C feasible at every step, and stops
when the most violating pair is within the tolerance of optimality.
"""

import numpy as np

from sonoclass import FeatureMatrix, KernelParams, ovo_train, smo_train
from sonoclass.svm import grid_search_cv, ovo_predict_batch, rbf_kernel_matrix

rng = np.random.default_rng(1)

# --- binary problem with a known closed form -------------------------------
x = rng.normal(size=(2, 3))
y = np.array([1.0, -1.0])
k12 = rbf_kernel_matrix(x, x, gamma=0.5)[0, 1]
model = smo_train(x, y, KernelParams(gamma=0.5, c=100.0), tol=1e-10, max_passes=200)
print(f"two-point problem: alpha = {abs(model.dual_coef[0]):.6f}, "
      f"closed form 1/(1-K12) = {1 / (1 - k12):.6f}")

# --- three separable clusters, one-vs-one ----------------------------------
centers = np.array([[0, 0], [5, 0], [0, 5]])
values = np.vstack([rng.normal(size=(20, 2)) * 0.5 + c for c in centers])
labels = np.repeat(np.arange(3), 20)
matrix = FeatureMatrix(values, labels)

ovo = ovo_train(matrix, KernelParams(gamma=0.5, c=10.0))
print(f"\n3 classes -> {len(ovo.pair_models)} pairwise models "
      f"(k(k-1)/2), pairs: {sorted(ovo.pair_models)}")
predicted = ovo_predict_batch(ovo, values)
print(f"training accuracy: {100 * np.mean(predicted == labels):.1f}%")

sv_counts = {pair: len(m.support_vectors) for pair, m in ovo.pair_models.items()}
print("support vectors per pair:", sv_counts)

# --- cross-validated grid search -------------------------------------------
best, table = grid_search_cv(
    matrix, c_grid=[0.1, 1.0, 10.0], gamma_grid=[0.01, 0.1, 1.0],
    folds=5, seed=0,
)
print(f"\ngrid search over {len(table)} points -> c={best.c:g}, gamma={best.gamma:g}")
for c, g, acc in table:
    marker = " <-- best" if (c, g) == (best.c, best.gamma) else ""
    print(f"  c={c:<5g} gamma={g:<5g} cv accuracy {acc:.3f}{marker}")
