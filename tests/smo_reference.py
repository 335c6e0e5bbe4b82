"""Reference copy of the SMO trainer in its numpy-scalar form.

`sonoclass.svm.smo_train` runs the scalar work of each pair step on
Python floats. This copy keeps the same algorithm on numpy scalars,
step for step, so tests can require that both give identical models:
the same support vectors, dual weights, bias, pass count and
convergence flag, bit for bit.

Only the solver loop is copied; the kernel and bias helpers are shared
with the package. With debug=True the dual objective (from qp_oracle) is
recomputed after every accepted step and monotone ascent is asserted; the
package's solver has no such mode, so the tests check its ascent through
exact parity with this copy.
"""

import numpy as np

from qp_oracle import dual_objective
from sonoclass.errors import SonoclassError
from sonoclass.svm import (
    DEFAULT_MAX_PASSES,
    DEFAULT_TOL,
    BinarySvmModel,
    KernelParams,
    _bias_from_state,
    _recompute_bias,
    rbf_kernel_matrix,
)

_STEP_EPS = 1e-12


def smo_train(
    x: np.ndarray,
    y: np.ndarray,
    params: KernelParams,
    tol: float = DEFAULT_TOL,
    max_passes: int = DEFAULT_MAX_PASSES,
    seed: int = 0,
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
    alpha = np.zeros(n)
    g = np.zeros(n)  # bias-free decision sums K @ (alpha*y), kept incrementally
    rng = np.random.default_rng(seed)
    inner_tol = tol / 2.0
    last_obj = 0.0
    b = 0.0  # refreshed from alpha at the start of every pass

    def take_step(i: int, j: int) -> bool:
        nonlocal g, last_obj
        if i == j:
            return False
        a_i, a_j = alpha[i], alpha[j]
        y_i, y_j = y[i], y[j]
        s = y_i * y_j
        if s < 0:
            lo, hi = max(0.0, a_j - a_i), min(c, c + a_j - a_i)
        else:
            lo, hi = max(0.0, a_i + a_j - c), min(c, a_i + a_j)
        if lo >= hi:
            return False
        eta = kernel[i, i] + kernel[j, j] - 2.0 * kernel[i, j]
        diff = (g[i] - y_i) - (g[j] - y_j)
        slope = y_j * diff  # dW/da_j along the constraint line
        if eta > 0.0:
            a_j_new = min(max(a_j + slope / eta, lo), hi)
        else:
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
        if debug:
            obj = dual_objective(kernel, y, alpha)
            assert obj >= last_obj - 1e-9 * max(1.0, abs(last_obj)), (
                f"dual objective decreased: {last_obj} -> {obj}"
            )
            last_obj = obj
        return True

    def examine(i: int) -> bool:
        r = (g[i] + b - y[i]) * y[i]
        if not ((r < -inner_tol and alpha[i] < c) or (r > inner_tol and alpha[i] > 0.0)):
            return False
        errors = g - y  # bias cancels in the pairwise difference
        j = int(np.argmax(np.abs(errors[i] - errors)))
        if take_step(i, j):
            return True
        for j2 in rng.permutation(n):
            if j2 != j and take_step(i, int(j2)):
                return True
        return False

    passes = 0
    examine_all = True
    converged = False
    while passes < max_passes:
        passes += 1
        b = _bias_from_state(y, g, alpha, c)
        order = rng.permutation(n)
        if not examine_all:
            order = order[(alpha[order] > 0.0) & (alpha[order] < c)]
        changed = sum(examine(int(i)) for i in order)
        if examine_all:
            if changed == 0:
                converged = True
                break
            examine_all = False
        elif changed == 0:
            examine_all = True

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
