"""Soft-margin RBF SVM: SMO dual solver, one-against-one voting, grid search.

The binary trainer does pairwise coordinate ascent on the dual

    max W(a) = sum_i a_i - 1/2 sum_ij y_i y_j a_i a_j k(x_i, x_j)
    s.t.      sum_i a_i y_i = 0,  0 <= a_i <= C

keeping both constraints feasible at every step. Multiclass is handled by
one binary model per class pair and majority voting.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import partial
from itertools import combinations

import numpy as np

from . import cpus
from .errors import NonConvergenceWarning, SonoclassError
from .feature_select import FeatureMatrix

DEFAULT_TOL = 1e-3
DEFAULT_MAX_PASSES = 200
DEFAULT_FOLDS = 5
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
    # This solve is also the solve at every box C' in [params.c, c_limit]
    # (see smo_train). 0 when unknown, as for a model read from a file.
    c_limit: float = 0.0


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


def smo_train(
    x: np.ndarray,
    y: np.ndarray,
    params: KernelParams,
    tol: float = DEFAULT_TOL,
    max_passes: int = DEFAULT_MAX_PASSES,
    seed: int = 0,
) -> BinarySvmModel:
    """Train one binary SVM by sequential minimal optimization.

    Scans for KKT violators in a freshly shuffled order each pass
    (seeded, so training is deterministic), pairing each violator with the
    point of maximum error difference. Terminates when a full pass finds
    no violator; if max_passes runs out first the best iterate is returned
    with converged=False. Nothing is warned: converged and n_passes say it.

    For every C' in [C, c_limit] of the returned model, the same call at C'
    takes every step the same way and returns the same model, bit for bit,
    but for params. C enters the solve only through the clips to the box
    [0, C], the `a_i < C` and `0 < a_i < C` tests, the endpoint gains of a
    step with eta <= 0, and the zero band 1e-12*C of the bias. While no alpha comes within a
    relative 1e-9 of C, no clip or test at C decides anything, and a
    larger C' decides nothing differently: every clip at a bound that
    depends on C leaves some alpha at C, to rounding. A step with eta <= 0
    whose endpoints depend on C (s < 0, or s > 0 with a_i + a_j > C)
    compares gains that do, so it rules out any larger C'. Otherwise
    c_limit is just below 1e12 times the least alpha ever assigned above
    the zero band: up to there every alpha is on the same side of the
    band at C' as at C. If the box bound, c_limit is C.
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
    b = 0.0  # refreshed from alpha at the start of every pass
    # For c_limit: whether C decided a step, and the least alpha ever
    # assigned above the zero band of _bias_from_state.
    near_c = c * (1.0 - 1e-9)
    band = 1e-12 * c
    box_bound = False
    least = math.inf

    def take_step(i: int, j: int) -> bool:
        # The pair step depends on errors only through e_i - e_j, so the
        # current bias estimate cancels out of the update itself.
        nonlocal g, gs, box_bound, least
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
            if s < 0 or a_i + a_j > c:
                box_bound = True
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
        if a_i_new >= near_c or a_j_new >= near_c:
            box_bound = True
        if band < a_i_new < least:
            least = a_i_new
        if band < a_j_new < least:
            least = a_j_new
        g += (a_i_new - a_i) * y_i * kernel[i] + (a_j_new - a_j) * y_j * kernel[j]
        gs = g.tolist()
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
        c_limit=c if box_bound else max(c, 1e12 * least * (1.0 - 1e-9)),
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


def _ovo_ladder(matrix: FeatureMatrix, gamma: float, c_values, tol: float,
                max_passes: int, seed: int) -> Iterator[tuple[OvoModel, bool]]:
    """Yield the one-vs-one model at each C of the ascending c_values, and
    whether any of its pairs was solved at that C.

    Features are min-max scaled to [0, 1] with edges from the whole
    training matrix, once for every C. Each pair trains on its own rows
    only, with the lower class label mapped to +1 and seed + its index. A
    pair solve is also the solve at every larger C up to its c_limit (see
    smo_train), so a rung within that limit keeps it with only its params
    replaced. A rung that keeps every pair predicts as the one before it.
    """
    labels, counts = np.unique(matrix.labels, return_counts=True)
    if labels.size < 2:
        raise SonoclassError("need at least 2 classes")
    small = [int(v) for v in labels[counts < 2]]
    if small:
        raise SonoclassError(f"classes {small} have fewer than 2 training samples")
    classes = tuple(int(v) for v in labels)

    scaler = fit_scaler(matrix.values)
    scaled = apply_scaler(matrix.values, scaler)
    pairs = list(combinations(classes, 2))
    pair_models: dict[tuple[int, int], BinarySvmModel] = {}
    for c in c_values:
        params = KernelParams(gamma=gamma, c=c)
        solved = False
        for pair_idx, (a, b) in enumerate(pairs):
            kept = pair_models.get((a, b))
            if kept is not None and c <= kept.c_limit:
                pair_models[(a, b)] = replace(kept, params=params)
                continue
            solved = True
            rows = np.flatnonzero((matrix.labels == a) | (matrix.labels == b))
            y = np.where(matrix.labels[rows] == a, 1.0, -1.0)
            pair_models[(a, b)] = smo_train(
                scaled[rows], y, params,
                tol=tol, max_passes=max_passes, seed=seed + pair_idx,
            )
        yield OvoModel(classes=classes, pair_models=dict(pair_models), scaler=scaler), solved


def ovo_train(
    matrix: FeatureMatrix,
    params: KernelParams,
    tol: float = DEFAULT_TOL,
    max_passes: int = DEFAULT_MAX_PASSES,
    seed: int = 0,
) -> OvoModel:
    """Train one binary model per unordered class pair (see _ovo_ladder).
    The model's converged says whether every pair solve converged."""
    model, _ = next(_ovo_ladder(matrix, params.gamma, [params.c], tol, max_passes, seed))
    return model


def ovo_predict_batch(model: OvoModel, x: np.ndarray) -> np.ndarray:
    """The one-vs-one class label (int64) of each row of x; a 1-D x is one row.

    Each pair model votes for a when its margin is positive, else for b,
    and adds |margin| to its winner's support. The class with the most
    votes wins; a vote tie goes to the largest support, then to the
    lowest class (the first in model.classes).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != model.n_features:
        raise SonoclassError(
            f"x has {x.shape[1]} features, model expects {model.n_features}"
        )
    scaled = apply_scaler(x, model.scaler)
    index = {cls: i for i, cls in enumerate(model.classes)}
    rows = np.arange(x.shape[0])
    votes = np.zeros((x.shape[0], len(model.classes)))
    support = np.zeros_like(votes)
    for (a, b), pair_model in model.pair_models.items():
        d = decision_values(pair_model, scaled)
        winner = np.where(d > 0.0, index[a], index[b])
        votes[rows, winner] += 1.0
        support[rows, winner] += np.abs(d)
    # argmax takes the first of the equal maxima
    support[votes < votes.max(axis=1, keepdims=True)] = -np.inf
    return np.asarray(model.classes, dtype=np.int64)[np.argmax(support, axis=1)]


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


def _cv_ladder(
    matrix: FeatureMatrix,
    assignment: np.ndarray,
    seed: int,
    tol: float,
    max_passes: int,
    c_values: list[float],
    task: tuple[float, int],
) -> list[tuple[int, int, int]]:
    """Cross-validate one (gamma, fold) at every C of the ascending ladder.

    Returns, per C, the number of correctly predicted held-out rows, the
    number of pair solves that did not converge and the number of pair
    solves.
    """
    gamma, fold = task
    train_rows = assignment != fold
    train = FeatureMatrix(matrix.values[train_rows], matrix.labels[train_rows])
    test_values, test_labels = matrix.values[~train_rows], matrix.labels[~train_rows]
    rungs = []
    correct = 0
    for model, solved in _ovo_ladder(train, gamma, c_values, tol, max_passes, seed + fold):
        if solved:  # else every pair is kept, and so is the prediction
            correct = int(np.sum(ovo_predict_batch(model, test_values) == test_labels))
        rungs.append((
            correct,
            sum(not m.converged for m in model.pair_models.values()),
            len(model.pair_models),
        ))
    return rungs


def warn_unconverged(unconverged: int, solves: int) -> None:
    """The one warning of a call that runs many pair solves and returns no
    model to read converged from."""
    if unconverged:
        warnings.warn(f"{unconverged} of {solves} pair solves did not converge",
                      NonConvergenceWarning, stacklevel=3)


def grid_search_cv(
    matrix: FeatureMatrix,
    c_grid=DEFAULT_C_GRID,
    gamma_grid=DEFAULT_GAMMA_GRID,
    folds: int = DEFAULT_FOLDS,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_passes: int = DEFAULT_MAX_PASSES,
) -> tuple[KernelParams, list[tuple[float, float, float]]]:
    """Exhaustive (C, gamma) search scored by stratified k-fold accuracy.

    Returns the best parameters (ties resolved toward smaller C, then
    smaller gamma) and the full table of (c, gamma, accuracy) rows in
    evaluation order: C ascending, then gamma ascending.

    The work is one task per (gamma, fold), which trains at every C in
    ascending order. A pair solve whose box never bound is also the solve
    at every larger C up to its c_limit (see smo_train), so the next rung
    keeps that pair's model instead of solving it again (_ovo_ladder). The
    table is the same as from one independent solve per (C, gamma, fold,
    pair).

    Tasks are deterministic, so they run in a fork pool with one worker
    per CPU in this process's affinity mask; with one CPU they run in
    this process. The table is the same either way. If any pair solve
    stops without converging, one NonConvergenceWarning gives the count; a
    kept solve counts again at every C that keeps it.
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
    c_values = sorted(float(v) for v in c_grid)
    gammas = sorted(float(v) for v in gamma_grid)
    if not c_values or not gammas:
        raise ValueError("need at least one C and one gamma value")
    assignment = stratified_folds(matrix.labels, folds, seed)
    tasks = [(gamma, fold) for gamma in gammas for fold in range(folds)]
    run_task = partial(_cv_ladder, matrix, assignment, seed, tol, max_passes, c_values)
    workers = cpus.worker_count(len(tasks))
    if workers == 1:
        results = list(map(run_task, tasks))
    else:
        # imported here, so that importing the CLI does not pay for it
        import multiprocessing

        # fork, not spawn: a spawned worker re-imports the caller's main
        # module, which breaks scripts that call this at top level without a
        # __main__ guard (demos/06_svm_training.py). Tasks differ in cost,
        # so they are handed out one at a time.
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = pool.map(run_task, tasks, chunksize=1)

    table: list[tuple[float, float, float]] = []
    best: tuple[float, KernelParams] | None = None
    unconverged = solves = 0
    for k, c in enumerate(c_values):
        for g, gamma in enumerate(gammas):
            rungs = [results[g * folds + fold][k] for fold in range(folds)]
            accuracy = sum(r[0] for r in rungs) / matrix.n_samples
            unconverged += sum(r[1] for r in rungs)
            solves += sum(r[2] for r in rungs)
            table.append((c, gamma, accuracy))
            if best is None or accuracy > best[0]:
                best = (accuracy, KernelParams(gamma=gamma, c=c))
    warn_unconverged(unconverged, solves)
    return best[1], table
