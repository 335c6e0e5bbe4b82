"""Soft-margin RBF SVM: batched SMO dual solver, one-against-one voting, grid search.

The binary trainer minimizes the dual

    f(a) = 1/2 sum_ij y_i y_j a_i a_j k(x_i, x_j) - sum_i a_i
    s.t.   sum_i a_i y_i = 0,  0 <= a_i <= C

by sequential minimal optimization with the second-order working-set
selection of Fan, Chen & Lin (JMLR 6, 2005), as LIBSVM does: each step
moves one pair of multipliers along the equality constraint and keeps
both constraints feasible. Independent problems are solved together, one
row each of padded numpy arrays, so the one-vs-one models of one or more
training matrices solve all their class pairs in one batch, and a grid
search solves every (C, gamma, fold, pair) problem of the call in a few,
then scores each (gamma, fold, pair) group at all its C values at once
from the multipliers. Multiclass is handled by one binary model per
class pair and majority voting.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations, count, product

import numpy as np

from .errors import NonConvergenceWarning, SonoclassError
from .feature_select import FeatureMatrix

DEFAULT_TOL = 1e-3
DEFAULT_MAX_PASSES = 200
# the most max_passes: a pair solve of n rows takes up to max_passes x n
# steps, counted in int64, which holds that product for up to 2^32 rows
MAX_PASSES = 2 ** 31 - 1
DEFAULT_FOLDS = 5
DEFAULT_C_GRID = tuple(2.0 ** p for p in range(-5, 16, 2))
DEFAULT_GAMMA_GRID = tuple(2.0 ** p for p in range(-15, 4, 2))

# floor on a pair's curvature: a flat pair (duplicate rows) then steps to a
# box edge, as with LIBSVM's TAU
_TAU = 1e-12
# grid_search_cv gives _solve_batch as many whole (gamma, fold) tasks as
# fit in this many values (per pair: its kernel, and its rows at each C),
# and at least one, so that the arrays in flight stay small
BATCH_VALUES = 1 << 16


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
    n_passes: int = 0  # solver iterations (pair steps) taken


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


@dataclass(frozen=True)
class _Batch:
    """_solve_batch's result: problem p = g * len(c_values) + k (group g at
    c_values[k]) has multipliers alphas[p], zero-padded to the widest group,
    and kernels[g] and labels[g] are group g's kernel and labels."""

    kernels: list
    labels: list
    c_values: list
    alphas: np.ndarray
    converged: np.ndarray
    steps: np.ndarray

    def model(self, g: int, k: int, x: np.ndarray, gamma: float) -> BinarySvmModel:
        """The model of problem p, where x holds group g's rows and
        kernels[g] is their kernel at gamma."""
        y = self.labels[g]
        p, c = g * len(self.c_values) + k, float(self.c_values[k])
        alpha = self.alphas[p, :y.size]
        mask = alpha > 0.0
        return BinarySvmModel(
            support_vectors=x[mask],
            dual_coef=(alpha * y)[mask],
            bias=float(_bias_from_state(y, (self.kernels[g] @ (alpha * y))[None],
                                        alpha[None], np.array([c]))[0]),
            params=KernelParams(gamma=gamma, c=c),
            converged=bool(self.converged[p]),
            n_passes=int(self.steps[p]),
        )


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
) -> BinarySvmModel:
    """Train one binary SVM: a batch of one for _solve_batch.

    Stops when the maximal violating pair is within tol/2 of optimality,
    so that the bias chosen for the returned model cannot push residuals
    past tol, or after max_passes x n pair steps for n rows, and then
    returns the last iterate with converged=False. Nothing is warned:
    converged and n_passes (the steps taken) say it.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise SonoclassError(f"x {x.shape} incompatible with y {y.shape}")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if np.unique(y).size < 2:
        raise SonoclassError("both classes must be present")
    batch = _solve_batch([(rbf_kernel_matrix(x, x, params.gamma), y)], [params.c],
                         tol, max_passes)
    return batch.model(0, 0, x, params.gamma)


def _solve_batch(groups, c_values, tol: float, max_passes: int) -> _Batch:
    """Solve each group (kernel, y) at every C of c_values, cold from
    alpha = 0, and return the multipliers, flags, kernels and labels as a
    _Batch. Only the kernel of a group's rows enters the solve; its model
    takes the rows afterwards (_Batch.model).

    Problem p = g * len(c_values) + k is row p of arrays padded to the most
    rows of any group; padding rows have y = 0, so they belong to neither
    index set and never move. Every iteration takes one WSS2 step in every
    live problem, with G the gradient of f: i maximizes -y_t G_t over I_up
    (the maximum is m(a)), and j maximizes b^2/q over the I_low rows t
    with gap b = m(a) + y_t G_t > 0, where q is the pair's curvature. The
    step moves a_i by y_i d and a_j by -y_j d, with d = b/q clipped to
    both boxes; a multiplier whose box clips d lands exactly on 0 or C,
    and G += y d (K_i - K_j). A problem leaves the batch when its gap
    m(a) - M(a) is at most tol/2, or after max_passes x its rows steps;
    a max_passes outside [1, MAX_PASSES] is refused. Problems share
    nothing, so each one's model is bit for bit the model of that problem
    solved alone.
    """
    if not 1 <= max_passes <= MAX_PASSES:
        raise ValueError(f"max_passes={max_passes} outside [1, {MAX_PASSES}]")
    kernels = [kernel for kernel, _ in groups]
    n_c, width = len(c_values), max(k.shape[0] for k in kernels)
    tensor = np.zeros((len(kernels), width, width))
    y = np.zeros((len(kernels) * n_c, width))
    for g, (kernel, labels) in enumerate(groups):
        tensor[g, :labels.size, :labels.size] = kernel
        y[g * n_c:(g + 1) * n_c, :labels.size] = labels
    c = np.tile(np.asarray(c_values, dtype=np.float64), len(kernels))
    cap = max_passes * np.count_nonzero(y, axis=1)
    alphas = np.zeros_like(y)
    steps = np.zeros(len(c), dtype=np.int64)
    converged = np.zeros(len(c), dtype=bool)

    # the live problems' state, one row each
    live = np.arange(len(c))
    kernel_of = live // n_c
    pos, neg = y > 0.0, y < 0.0
    diag = np.diagonal(tensor, axis1=1, axis2=2)[kernel_of]
    a = np.zeros_like(y)
    grad = -np.abs(y)  # G = Q a - 1 at a = 0
    it = np.zeros(len(c), dtype=np.int64)
    while True:
        score = -(y * grad)
        below, above = a < c[:, None], a > 0.0
        up, low = np.where(pos, below, above), np.where(neg, below, above)
        up_score = np.where(up, score, -np.inf)
        i = up_score.argmax(axis=1)
        m = up_score[np.arange(live.size), i]
        done = m - np.where(low, score, np.inf).min(axis=1) <= tol / 2.0
        stop = done | (it >= cap)
        if stop.any():
            finished = live[stop]
            alphas[finished], steps[finished], converged[finished] = a[stop], it[stop], done[stop]
            keep = ~stop
            if not keep.any():
                break
            live, kernel_of, y, pos, neg, c, cap, diag, a, grad, it, score, low, i, m = (
                v[keep] for v in (live, kernel_of, y, pos, neg, c, cap, diag, a, grad, it,
                                  score, low, i, m))
        r = np.arange(live.size)
        k_i = tensor[kernel_of, i]
        gap = m[:, None] - score
        curv = np.maximum(k_i[r, i][:, None] + diag - 2.0 * k_i, _TAU)
        j = np.where(low & (gap > 0.0), gap * gap / curv, -np.inf).argmax(axis=1)
        y_i, y_j, a_i, a_j = y[r, i], y[r, j], a[r, i], a[r, j]
        room_i = np.where(y_i > 0.0, c - a_i, a_i)
        room_j = np.where(y_j > 0.0, a_j, c - a_j)
        d = np.minimum(np.minimum(gap[r, j] / curv[r, j], room_i), room_j)
        a[r, i] = np.where(d == room_i, np.where(y_i > 0.0, c, 0.0), a_i + y_i * d)
        a[r, j] = np.where(d == room_j, np.where(y_j > 0.0, 0.0, c), a_j - y_j * d)
        grad += y * d[:, None] * (k_i - tensor[kernel_of, j])
        it += 1

    return _Batch(kernels, [labels for _, labels in groups], c_values, alphas, converged, steps)


def _bias_from_state(y: np.ndarray, g: np.ndarray, alpha: np.ndarray, c: np.ndarray):
    """The bias of each problem, one a row: the mean of y - g over unbounded
    support vectors, else the feasible interval's midpoint, its one finite
    end, or 0. g holds the bias-free decision sums K @ (alpha*y), c each
    row's box; one y may serve every row.

    Bound status is decided inside a tiny relative band: pair updates can
    leave an alpha one rounding step away from 0 or C, and averaging such
    a point as if it were interior would corrupt the bias.
    """
    band = 1e-12 * c[:, None]
    at_zero, at_c = alpha <= band, alpha >= c[:, None] - band
    unbounded = ~at_zero & ~at_c
    resid = y - g
    b_lo = np.where((y > 0) & at_zero | (y < 0) & at_c, resid, -np.inf).max(axis=1)
    b_hi = np.where((y < 0) & at_zero | (y > 0) & at_c, resid, np.inf).min(axis=1)
    has_lo, has_hi = b_lo > -np.inf, b_hi < np.inf
    # the missing end counts as 0, so that no inf - inf is ever evaluated
    ends = np.where(has_lo, b_lo, 0.0) + np.where(has_hi, b_hi, 0.0)
    mean = np.where(unbounded, resid, 0.0).sum(axis=1) / np.maximum(unbounded.sum(axis=1), 1)
    return np.where(unbounded.any(axis=1), mean, np.where(has_lo & has_hi, 0.5, 1.0) * ends)


def decision_values(model: BinarySvmModel, x: np.ndarray) -> np.ndarray:
    """sum_i (a_i y_i) k(x, x_i) + b for each row x, the margin before the sign."""
    x = np.asarray(x, dtype=np.float64)
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


def _pair_problems(matrix: FeatureMatrix):
    """The classes, the scaler and one (x, y) per unordered class pair.

    Features are min-max scaled to [0, 1] with edges from the whole
    training matrix. Each pair keeps its own rows only, with the lower
    class label mapped to +1.
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
    pairs = {}
    for a, b in combinations(classes, 2):
        rows = np.flatnonzero((matrix.labels == a) | (matrix.labels == b))
        pairs[(a, b)] = (scaled[rows], np.where(matrix.labels[rows] == a, 1.0, -1.0))
    return classes, scaler, pairs


def ovo_train(
    matrix: FeatureMatrix,
    params: KernelParams,
    tol: float = DEFAULT_TOL,
    max_passes: int = DEFAULT_MAX_PASSES,
) -> OvoModel:
    """Train one binary model per unordered class pair (see _pair_problems),
    all pairs in one batch: the one-matrix case of ovo_train_each. The
    model's converged says whether every pair solve converged."""
    return next(ovo_train_each([matrix], params, tol, max_passes))


def ovo_train_each(
    matrices: list[FeatureMatrix],
    params: KernelParams,
    tol: float = DEFAULT_TOL,
    max_passes: int = DEFAULT_MAX_PASSES,
) -> Iterator[OvoModel]:
    """Yield the one-vs-one model of each matrix in order, all at params,
    with the pair problems of every matrix solved in one _solve_batch.

    The solve holds each pair's kernel and labels, not its rows. A model
    is built when it is asked for, from its matrix scaled again, so a
    caller that is done with one model before asking for the next holds
    one model's support vectors at a time. Each model is, bit for bit,
    the one ovo_train gives for its matrix alone.
    """
    groups = []
    for matrix in matrices:
        _, _, pairs = _pair_problems(matrix)
        groups += [(rbf_kernel_matrix(x, x, params.gamma), y) for x, y in pairs.values()]
    batch = _solve_batch(groups, [params.c], tol, max_passes)
    group = count()
    for matrix in matrices:
        classes, scaler, pairs = _pair_problems(matrix)
        yield OvoModel(classes=classes, scaler=scaler, pair_models={
            pair: batch.model(next(group), 0, x, params.gamma) for pair, (x, _) in pairs.items()})


def _ovo_vote(classes: tuple[int, ...], pairs, d: np.ndarray) -> np.ndarray:
    """The one-vs-one class label (int64) of each (batch, row) of d, where
    d[:, p] holds the margins of the p-th pair (a, b) of pairs: each pair
    votes for a when its margin is positive, else for b, and adds |margin|
    to its winner's support, pair by pair in order. The class with the most
    votes wins; a vote tie goes to the largest support, then to the lowest
    class (the first in classes).
    """
    at = tuple(np.ogrid[:d.shape[0], :d.shape[2]])
    votes = np.zeros((d.shape[0], d.shape[2], len(classes)))
    support = np.zeros_like(votes)
    for p, (a, b) in enumerate(pairs):
        winner = at + (np.where(d[:, p] > 0.0, classes.index(a), classes.index(b)),)
        votes[winner] += 1.0
        support[winner] += np.abs(d[:, p])
    # argmax takes the first of the equal maxima
    support[votes < votes.max(axis=2, keepdims=True)] = -np.inf
    return np.asarray(classes, dtype=np.int64)[np.argmax(support, axis=2)]


def ovo_predict_batch(model: OvoModel, x: np.ndarray) -> np.ndarray:
    """The one-vs-one label (int64, see _ovo_vote) of each row of x; a 1-D x is one row."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != model.n_features:
        raise SonoclassError(
            f"x has {x.shape[1]} features, model expects {model.n_features}"
        )
    scaled = apply_scaler(x, model.scaler)
    d = np.stack([decision_values(m, scaled) for m in model.pair_models.values()])
    return _ovo_vote(model.classes, model.pair_models, d[None])[0]


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

    Every (C, gamma, fold, pair) problem is solved cold, so the table is
    the one that ovo_train gives cell by cell. The problems of whole
    (gamma, fold) tasks go to _solve_batch together, at most about
    BATCH_VALUES values at once. Each (gamma, fold, pair) group is then
    scored at every C together, from the multipliers, with no model objects:
    one bias call, one held-out kernel and one product give its margins,
    and _ovo_vote labels a task's held-out rows. If any pair solve stops
    without converging, one NonConvergenceWarning gives the count.
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
    c_values = sorted(float(v) for v in c_grid)
    gammas = sorted(float(v) for v in gamma_grid)
    if not c_values or not gammas:
        raise ValueError("need at least one C and one gamma value")
    for gamma, c in product(gammas, c_values):
        KernelParams(gamma=gamma, c=c)  # rejects a bad value before any solve
    assignment = stratified_folds(matrix.labels, folds, seed)
    splits = []
    for fold in range(folds):
        train = assignment != fold
        classes, scaler, pairs = _pair_problems(FeatureMatrix(matrix.values[train],
                                                              matrix.labels[train]))
        splits.append((classes, pairs, apply_scaler(matrix.values[~train], scaler),
                       matrix.labels[~train]))

    chunks, size = [[]], 0
    for fold, (_, pairs, _, _) in enumerate(splits):
        cost = sum(y.size * (y.size + len(c_values)) for _, y in pairs.values())
        for g in range(len(gammas)):
            if chunks[-1] and size + cost > BATCH_VALUES:
                chunks.append([])
                size = 0
            chunks[-1].append((fold, g))
            size += cost

    n_c, c_column = len(c_values), np.asarray(c_values)
    correct = np.zeros((n_c, len(gammas)), dtype=np.int64)
    unconverged = solves = 0
    for chunk in chunks:
        batch = _solve_batch([(rbf_kernel_matrix(x, x, gammas[g]), y) for fold, g in chunk
                              for x, y in splits[fold][1].values()],
                             c_values, tol, max_passes)
        unconverged += int(np.count_nonzero(~batch.converged))
        solves += batch.converged.size
        group = 0
        for fold, g in chunk:
            classes, pairs, test_scaled, test_labels = splits[fold]
            d = np.empty((n_c, len(pairs), test_labels.size))
            for p, (x, y) in enumerate(pairs.values()):
                alpha = batch.alphas[group * n_c:(group + 1) * n_c, :y.size]
                ay = alpha * y
                bias = _bias_from_state(y, ay @ batch.kernels[group], alpha, c_column)
                d[:, p] = ay @ rbf_kernel_matrix(test_scaled, x, gammas[g]).T + bias[:, None]
                group += 1
            correct[:, g] += np.sum(_ovo_vote(classes, pairs, d) == test_labels, axis=1)

    table = [(c, gamma, int(correct[k, g]) / matrix.n_samples)
             for k, c in enumerate(c_values) for g, gamma in enumerate(gammas)]
    # max keeps the first best row: the smallest C, then the smallest gamma
    c, gamma, _ = max(table, key=lambda row: row[2])
    warn_unconverged(unconverged, solves)
    return KernelParams(gamma=gamma, c=c), table
