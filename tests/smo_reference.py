"""Reference copy of the SMO trainer: one problem, in plain Python.

`sonoclass.svm.smo_train` solves its problem as one row of the batched
solver `svm._solve_batch`. This copy runs the same second-order
working-set selection and pair step for a single problem with a loop over
Python floats, so tests can require that both give identical models: the
same support vectors, dual weights, bias, iteration count and convergence
flag, bit for bit.

Only the solver loop is copied; the kernel and bias helpers are shared
with the package. With debug=True the dual objective (from qp_oracle) is
recomputed after every step and monotone ascent is asserted; the package's
solver has no such mode, so the tests check its ascent through exact
parity with this copy.
"""

import math

import numpy as np

from qp_oracle import dual_objective
from sonoclass.errors import SonoclassError
from sonoclass.svm import (
    DEFAULT_MAX_PASSES,
    DEFAULT_TOL,
    BinarySvmModel,
    KernelParams,
    _bias_from_state,
    rbf_kernel_matrix,
)

_TAU = 1e-12


def smo_train(
    x: np.ndarray,
    y: np.ndarray,
    params: KernelParams,
    tol: float = DEFAULT_TOL,
    max_passes: int = DEFAULT_MAX_PASSES,
    debug: bool = False,
) -> BinarySvmModel:
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
    k = kernel.tolist()
    ys = y.tolist()
    alpha = [0.0] * n
    grad = [-1.0] * n  # gradient of 1/2 a'Qa - sum(a) at a = 0
    steps = 0
    converged = False
    last_obj = 0.0
    while True:
        score = [-(ys[t] * grad[t]) for t in range(n)]
        up = [(ys[t] > 0 and alpha[t] < c) or (ys[t] < 0 and alpha[t] > 0.0) for t in range(n)]
        low = [(ys[t] < 0 and alpha[t] < c) or (ys[t] > 0 and alpha[t] > 0.0) for t in range(n)]
        i, m = -1, -math.inf
        for t in range(n):
            if up[t] and score[t] > m:
                i, m = t, score[t]
        lowest = min((score[t] for t in range(n) if low[t]), default=math.inf)
        if m - lowest <= tol / 2.0:
            converged = True
            break
        if steps >= max_passes * n:
            break

        # the second-order pick: the largest gap^2 / curvature among the
        # I_low rows below m
        j, best, j_gap, j_curv = -1, -math.inf, 0.0, 0.0
        for t in range(n):
            gap = m - score[t]
            if low[t] and gap > 0.0:
                curv = max(k[i][i] + k[t][t] - 2.0 * k[i][t], _TAU)
                obj = gap * gap / curv
                if obj > best:
                    j, best, j_gap, j_curv = t, obj, gap, curv
        y_i, y_j, a_i, a_j = ys[i], ys[j], alpha[i], alpha[j]
        room_i = c - a_i if y_i > 0.0 else a_i
        room_j = a_j if y_j > 0.0 else c - a_j
        d = min(j_gap / j_curv, room_i, room_j)
        alpha[i] = (c if y_i > 0.0 else 0.0) if d == room_i else a_i + y_i * d
        alpha[j] = (0.0 if y_j > 0.0 else c) if d == room_j else a_j - y_j * d
        for t in range(n):
            grad[t] += ys[t] * d * (k[i][t] - k[j][t])
        steps += 1
        if debug:
            obj = dual_objective(kernel, y, np.array(alpha))
            assert obj >= last_obj - 1e-9 * max(1.0, abs(last_obj)), (
                f"dual objective decreased: {last_obj} -> {obj}"
            )
            last_obj = obj

    alpha = np.array(alpha)
    mask = alpha > 0.0
    return BinarySvmModel(
        support_vectors=x[mask],
        dual_coef=(alpha * y)[mask],
        bias=float(_bias_from_state(y, (kernel @ (alpha * y))[None], alpha[None],
                                    np.array([c]))[0]),
        params=params,
        converged=converged,
        n_passes=steps,
    )
