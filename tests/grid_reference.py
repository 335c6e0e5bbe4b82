"""Reference copy of the grid search in its one-task-per-cell form.

`sonoclass.svm.grid_search_cv` solves the pair problems of many cells in
one batch. This copy trains every (C, gamma, fold) cell with its own
ovo_train call, one cell at a time, so tests can require that both give
the same table, the same best cell and the same non-convergence warning.
"""

import numpy as np

from sonoclass.feature_select import FeatureMatrix
from sonoclass.svm import KernelParams, ovo_predict_batch, ovo_train, stratified_folds


def _cv_cell(matrix, assignment, folds, tol, max_passes, c, gamma):
    params = KernelParams(gamma=gamma, c=c)
    correct = unconverged = solves = 0
    for fold in range(folds):
        train_rows = assignment != fold
        test_rows = ~train_rows
        model = ovo_train(
            FeatureMatrix(matrix.values[train_rows], matrix.labels[train_rows]),
            params, tol=tol, max_passes=max_passes,
        )
        unconverged += sum(not m.converged for m in model.pair_models.values())
        solves += len(model.pair_models)
        predicted = ovo_predict_batch(model, matrix.values[test_rows])
        correct += int(np.sum(predicted == matrix.labels[test_rows]))
    return correct, unconverged, solves


def grid_search_cv(matrix, c_grid, gamma_grid, folds=5, seed=0, tol=1e-3, max_passes=200):
    """Returns (best params, table, warning text or None)."""
    cells = [
        (c, gamma)
        for c in sorted(float(v) for v in c_grid)
        for gamma in sorted(float(v) for v in gamma_grid)
    ]
    assignment = stratified_folds(matrix.labels, folds, seed)
    results = [
        _cv_cell(matrix, assignment, folds, tol, max_passes, c, gamma)
        for c, gamma in cells
    ]
    table = []
    best = None
    for (c, gamma), (correct, _, _) in zip(cells, results):
        accuracy = correct / matrix.n_samples
        table.append((c, gamma, accuracy))
        if best is None or accuracy > best[0]:
            best = (accuracy, KernelParams(gamma=gamma, c=c))
    unconverged = sum(r[1] for r in results)
    message = None
    if unconverged:
        message = f"{unconverged} of {sum(r[2] for r in results)} pair solves did not converge"
    return best[1], table, message
