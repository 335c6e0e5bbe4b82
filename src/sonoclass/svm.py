"""Soft-margin RBF SVM: SMO dual solver, one-against-one voting, grid search.

The binary trainer does pairwise coordinate ascent on the dual

    max W(a) = sum_i a_i - 1/2 sum_ij y_i y_j a_i a_j k(x_i, x_j)
    s.t.      sum_i a_i y_i = 0,  0 <= a_i <= C

keeping both constraints feasible at every step. Multiclass is handled by
one binary model per class pair and majority voting.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import combinations

import numpy as np

from .errors import SonoclassError
from .feature_select import FeatureMatrix

DEFAULT_TOL = 1e-3
DEFAULT_MAX_PASSES = 200
DEFAULT_C_GRID = tuple(2.0 ** p for p in range(-5, 16, 2))
DEFAULT_GAMMA_GRID = tuple(2.0 ** p for p in range(-15, 4, 2))

_STEP_EPS = 1e-12


@dataclass(frozen=True)
class KernelParams:
    """RBF width gamma (= 1/(2 sigma^2)) and box constraint c."""

    gamma: float
    c: float

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not (np.isfinite(self.c) and self.c > 0):
            raise ValueError(f"c must be positive and finite, got {self.c}")


@dataclass(frozen=True)
class BinarySvmModel:
    """Support vectors with dual weights a_i*y_i and the bias term."""

    support_vectors: np.ndarray  # (n_sv, D)
    dual_coef: np.ndarray        # (n_sv,) = alpha_i * y_i, alpha_i > 0
    bias: float
    params: KernelParams
    converged: bool = True
    n_passes: int = 0


@dataclass(frozen=True)
class OvoModel:
    """k(k-1)/2 pairwise models over integer class labels.

    pair_models maps (a, b) with a < b to the binary model trained with
    class a as +1 and class b as -1. scaler holds per-feature (min, max)
    from the training matrix.
    """

    classes: tuple[int, ...]
    pair_models: dict[tuple[int, int], BinarySvmModel]
    scaler: tuple[np.ndarray, np.ndarray]

    @property
    def n_features(self) -> int:
        return self.scaler[0].shape[0]

    @property
    def converged(self) -> bool:
        return all(m.converged for m in self.pair_models.values())


def rbf_kernel(x: np.ndarray, x2: np.ndarray, gamma: float) -> float:
    """exp(-gamma * ||x - x2||^2); equals 1 at zero distance."""
    x = np.asarray(x, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x.shape != x2.shape:
        raise SonoclassError(f"{x.shape} vs {x2.shape}")
    diff = x - x2
    return float(np.exp(-gamma * np.dot(diff, diff)))


def rbf_kernel_matrix(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """Pairwise kernel values between the rows of a and b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


def dual_objective(kernel: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> float:
    """W(alpha) for a precomputed kernel matrix."""
    ay = alpha * y
    return float(alpha.sum() - 0.5 * ay @ kernel @ ay)


def smo_train(
    x: np.ndarray,
    y: np.ndarray,
    params: KernelParams,
    tol: float = DEFAULT_TOL,
    max_passes: int = DEFAULT_MAX_PASSES,
    seed: int = 0,
    debug: bool = False,
) -> BinarySvmModel:
    """Train one binary SVM by sequential minimal optimization.

    Scans for KKT violators in a freshly shuffled order each pass
    (seeded, so training is deterministic), pairing each violator with the
    point of maximum error difference. Terminates when a full pass finds
    no violator; if max_passes runs out first the best iterate is returned
    with converged=False and a warning.

    With debug=True the dual objective is recomputed after every accepted
    step and monotone ascent is asserted.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise SonoclassError(f"x {x.shape} incompatible with y {y.shape}")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if np.unique(y).size < 2:
        raise SonoclassError("both classes must be present")

    n = x.shape[0]
    c = params.c
    kernel = rbf_kernel_matrix(x, x, params.gamma)
    # The scalar work of a step runs on Python floats, which cost far less
    # per operation than numpy scalars and round identically. numpy keeps
    # the O(n) work: the g update, the max-|dE| pick and the bias.
    ys = y.tolist()
    diag = kernel.diagonal().tolist()
    alpha = [0.0] * n
    g = np.zeros(n)  # bias-free decision sums K @ (alpha*y), kept incrementally
    gs = g.tolist()
    rng = np.random.default_rng(seed)
    # Check violations at half the contract tolerance so the bias chosen for
    # the returned model cannot push residuals past tol.
    inner_tol = tol / 2.0
    last_obj = 0.0
    b = 0.0  # refreshed from alpha at the start of every pass

    def take_step(i: int, j: int) -> bool:
        # The pair step depends on errors only through e_i - e_j, so the
        # current bias estimate cancels out of the update itself.
        nonlocal g, gs, last_obj
        if i == j:
            return False
        a_i, a_j = alpha[i], alpha[j]
        y_i, y_j = ys[i], ys[j]
        s = y_i * y_j
        if s < 0:
            lo, hi = max(0.0, a_j - a_i), min(c, c + a_j - a_i)
        else:
            lo, hi = max(0.0, a_i + a_j - c), min(c, a_i + a_j)
        if lo >= hi:
            return False
        eta = diag[i] + diag[j] - 2.0 * kernel.item(i, j)
        diff = (gs[i] - y_i) - (gs[j] - y_j)
        slope = y_j * diff  # dW/da_j along the constraint line
        if eta > 0.0:
            a_j_new = min(max(a_j + slope / eta, lo), hi)
        else:
            # Flat or concave-up section: the restricted dual is the exact
            # quadratic below, so the maximum sits at an endpoint.
            gain_lo = slope * (lo - a_j) - 0.5 * eta * (lo - a_j) ** 2
            gain_hi = slope * (hi - a_j) - 0.5 * eta * (hi - a_j) ** 2
            if gain_lo > gain_hi + _STEP_EPS:
                a_j_new = lo
            elif gain_hi > gain_lo + _STEP_EPS:
                a_j_new = hi
            else:
                return False
        if abs(a_j_new - a_j) < _STEP_EPS * (a_j_new + a_j + _STEP_EPS):
            return False
        a_i_new = min(max(a_i + s * (a_j - a_j_new), 0.0), c)

        alpha[i], alpha[j] = a_i_new, a_j_new
        g += (a_i_new - a_i) * y_i * kernel[i] + (a_j_new - a_j) * y_j * kernel[j]
        gs = g.tolist()
        if debug:
            obj = dual_objective(kernel, y, np.array(alpha))
            assert obj >= last_obj - 1e-9 * max(1.0, abs(last_obj)), (
                f"dual objective decreased: {last_obj} -> {obj}"
            )
            last_obj = obj
        return True

    def examine(i: int) -> bool:
        y_i, a_i = ys[i], alpha[i]
        r = (gs[i] + b - y_i) * y_i
        if not ((r < -inner_tol and a_i < c) or (r > inner_tol and a_i > 0.0)):
            return False
        errors = g - y  # bias cancels in the pairwise difference
        j = int(np.abs(errors[i] - errors).argmax())
        if take_step(i, j):
            return True
        for j2 in rng.permutation(n).tolist():
            if j2 != j and take_step(i, j2):
                return True
        return False

    passes = 0
    examine_all = True
    converged = False
    while passes < max_passes:
        passes += 1
        b = _bias_from_state(y, g, np.array(alpha), c)
        order = rng.permutation(n).tolist()
        if not examine_all:
            order = [i for i in order if 0.0 < alpha[i] < c]
        changed = sum(examine(i) for i in order)
        if examine_all:
            if changed == 0:
                converged = True
                break
            examine_all = False
        elif changed == 0:
            examine_all = True
    if not converged:
        warnings.warn(
            f"SMO stopped after {passes} passes without satisfying the KKT "
            f"conditions (tol={tol}); returning the best iterate",
            RuntimeWarning,
            stacklevel=2,
        )

    alpha = np.array(alpha)
    bias = _recompute_bias(kernel, y, alpha, c)
    mask = alpha > 0.0
    return BinarySvmModel(
        support_vectors=x[mask].copy(),
        dual_coef=(alpha * y)[mask],
        bias=bias,
        params=params,
        converged=converged,
        n_passes=passes,
    )


def _bias_from_state(y: np.ndarray, g: np.ndarray, alpha: np.ndarray, c: float) -> float:
    """Average over unbounded support vectors, or the feasible-interval midpoint.

    g holds the bias-free decision sums K @ (alpha*y). Bound status is
    decided inside a tiny relative band: pair updates can leave an alpha one
    rounding step away from 0 or C, and averaging such a point as if it were
    interior would corrupt the bias.
    """
    band = 1e-12 * c
    at_zero = alpha <= band
    at_c = alpha >= c - band
    unbounded = ~at_zero & ~at_c
    if np.any(unbounded):
        return float(np.mean(y[unbounded] - g[unbounded]))
    resid = y - g
    lower = ((y > 0) & at_zero) | ((y < 0) & at_c)
    upper = ((y < 0) & at_zero) | ((y > 0) & at_c)
    b_lo = float(resid[lower].max()) if np.any(lower) else None
    b_hi = float(resid[upper].min()) if np.any(upper) else None
    if b_lo is None:
        return b_hi if b_hi is not None else 0.0
    if b_hi is None:
        return b_lo
    return 0.5 * (b_lo + b_hi)


def _recompute_bias(kernel: np.ndarray, y: np.ndarray, alpha: np.ndarray, c: float) -> float:
    return _bias_from_state(y, kernel @ (alpha * y), alpha, c)


def decision_values(model: BinarySvmModel, x: np.ndarray) -> np.ndarray:
    """sum_i (a_i y_i) k(x, x_i) + b for each row x, the margin before the sign."""
    x = np.asarray(x, dtype=np.float64)
    if model.support_vectors.shape[0] == 0:
        return np.full(x.shape[0], model.bias)
    if x.shape[1] != model.support_vectors.shape[1]:
        raise SonoclassError(
            f"x has {x.shape[1]} features, model expects {model.support_vectors.shape[1]}"
        )
    k = rbf_kernel_matrix(x, model.support_vectors, model.params.gamma)
    return k @ model.dual_coef + model.bias


def fit_scaler(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature (min, max) over the training matrix."""
    return values.min(axis=0), values.max(axis=0)


def apply_scaler(values: np.ndarray, scaler: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Min-max map to [0, 1] on training data; constant features map to 0."""
    lo, hi = scaler
    span = hi - lo
    safe = np.where(span > 0.0, span, 1.0)
    return np.where(span > 0.0, (values - lo) / safe, 0.0)


def ovo_train(
    matrix: FeatureMatrix,
    params: KernelParams,
    tol: float = DEFAULT_TOL,
    max_passes: int = DEFAULT_MAX_PASSES,
    seed: int = 0,
) -> OvoModel:
    """Train one binary model per unordered class pair.

    Features are min-max scaled to [0, 1] with edges from the whole
    training matrix before any pair is trained. Each pair trains on its
    own rows only, with the lower class label mapped to +1.
    """
    classes = tuple(int(v) for v in np.unique(matrix.labels))
    if len(classes) < 2:
        raise SonoclassError("need at least 2 classes")
    counts = {cls: int(np.sum(matrix.labels == cls)) for cls in classes}
    small = [cls for cls, n in counts.items() if n < 2]
    if small:
        raise SonoclassError(f"classes {small} have fewer than 2 training samples")

    scaler = fit_scaler(matrix.values)
    scaled = apply_scaler(matrix.values, scaler)

    pair_models: dict[tuple[int, int], BinarySvmModel] = {}
    for pair_idx, (a, b) in enumerate(combinations(classes, 2)):
        rows = np.flatnonzero((matrix.labels == a) | (matrix.labels == b))
        y = np.where(matrix.labels[rows] == a, 1.0, -1.0)
        pair_models[(a, b)] = smo_train(
            scaled[rows], y, params,
            tol=tol, max_passes=max_passes, seed=seed + pair_idx,
        )
    return OvoModel(classes=classes, pair_models=pair_models, scaler=scaler)


def ovo_votes(model: OvoModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class vote counts and per-class sums of winning |margin| for rows of x."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != model.n_features:
        raise SonoclassError(
            f"x has {x.shape[1]} features, model expects {model.n_features}"
        )
    scaled = apply_scaler(x, model.scaler)
    index = {cls: i for i, cls in enumerate(model.classes)}
    votes = np.zeros((x.shape[0], len(model.classes)))
    support = np.zeros_like(votes)
    for (a, b), pair_model in model.pair_models.items():
        d = decision_values(pair_model, scaled)
        winner = np.where(d > 0.0, index[a], index[b])
        rows = np.arange(x.shape[0])
        votes[rows, winner] += 1.0
        support[rows, winner] += np.abs(d)
    return votes, support


def ovo_predict_batch(model: OvoModel, x: np.ndarray) -> np.ndarray:
    """Majority vote per row; ties go to the largest winning-margin sum, then lowest class."""
    votes, support = ovo_votes(model, x)
    classes = np.asarray(model.classes)
    out = np.empty(votes.shape[0], dtype=np.int64)
    for r in range(votes.shape[0]):
        best = np.flatnonzero(votes[r] == votes[r].max())
        if best.size > 1:
            strongest = support[r, best].max()
            best = best[support[r, best] == strongest]
        out[r] = classes[best[0]]
    return out


def stratified_folds(labels: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Deterministic stratified fold assignment, one id per row."""
    rng = np.random.default_rng(seed)
    assignment = np.empty(labels.shape[0], dtype=np.int64)
    for cls in np.unique(labels):
        rows = np.flatnonzero(labels == cls)
        if rows.size < folds:
            raise SonoclassError(
                f"class {cls} has {rows.size} samples for {folds} folds"
            )
        rows = rng.permutation(rows)
        assignment[rows] = np.arange(rows.size) % folds
    return assignment


def _worker_count(n_cells: int) -> int:
    """One worker per CPU this process may run on, and never more than cells."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_cells))


def _cv_cell(
    matrix: FeatureMatrix,
    assignment: np.ndarray,
    folds: int,
    seed: int,
    tol: float,
    max_passes: int,
    cell: tuple[float, float],
) -> tuple[int, int, int]:
    """Cross-validate one (c, gamma) cell.

    Returns the number of correctly predicted rows over all folds, the
    number of pair solves that did not converge and the number of pair
    solves. The per-solve non-convergence warning is silenced here;
    grid_search_cv reports the count once.
    """
    c, gamma = cell
    params = KernelParams(gamma=gamma, c=c)
    correct = unconverged = solves = 0
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="SMO stopped", category=RuntimeWarning)
        for fold in range(folds):
            train_rows = assignment != fold
            test_rows = ~train_rows
            model = ovo_train(
                FeatureMatrix(matrix.values[train_rows], matrix.labels[train_rows]),
                params, tol=tol, max_passes=max_passes, seed=seed + fold,
            )
            unconverged += sum(not m.converged for m in model.pair_models.values())
            solves += len(model.pair_models)
            predicted = ovo_predict_batch(model, matrix.values[test_rows])
            correct += int(np.sum(predicted == matrix.labels[test_rows]))
    return correct, unconverged, solves


def grid_search_cv(
    matrix: FeatureMatrix,
    c_grid=DEFAULT_C_GRID,
    gamma_grid=DEFAULT_GAMMA_GRID,
    folds: int = 5,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_passes: int = DEFAULT_MAX_PASSES,
) -> tuple[KernelParams, list[tuple[float, float, float]]]:
    """Exhaustive (C, gamma) search scored by stratified k-fold accuracy.

    Returns the best parameters (ties resolved toward smaller C, then
    smaller gamma) and the full table of (c, gamma, accuracy) rows in
    evaluation order.

    Cells are independent and deterministic, so they run in a fork pool
    with one worker per CPU in this process's affinity mask; with one
    CPU they run in this process. The table is the same either way. If
    any pair solve stops without converging, one RuntimeWarning gives
    the count.
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
    assignment = stratified_folds(matrix.labels, folds, seed)
    cells = [
        (c, gamma)
        for c in sorted(float(v) for v in c_grid)
        for gamma in sorted(float(v) for v in gamma_grid)
    ]
    run_cell = partial(_cv_cell, matrix, assignment, folds, seed, tol, max_passes)
    workers = _worker_count(len(cells))
    if workers == 1:
        results = list(map(run_cell, cells))
    else:
        # fork, not spawn: a spawned worker re-imports the caller's main
        # module, which breaks scripts that call this at top level without a
        # __main__ guard (demos/06_svm_training.py). Cells differ in cost by
        # orders of magnitude, so they are handed out one at a time.
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = pool.map(run_cell, cells, chunksize=1)

    table: list[tuple[float, float, float]] = []
    best: tuple[float, KernelParams] | None = None
    for (c, gamma), (correct, _, _) in zip(cells, results):
        accuracy = correct / matrix.n_samples
        table.append((c, gamma, accuracy))
        if best is None or accuracy > best[0]:
            best = (accuracy, KernelParams(gamma=gamma, c=c))
    unconverged = sum(r[1] for r in results)
    if unconverged:
        warnings.warn(
            f"{unconverged} of {sum(r[2] for r in results)} pair solves did not converge",
            RuntimeWarning,
            stacklevel=2,
        )
    return best[1], table
