"""Independent dense-QP solver used to cross-check the SMO trainer.

Projected gradient ascent (FISTA with function restart) on the SVM dual.
The projection onto {0 <= a <= C, y.a = 0} is exact: the optimality
condition a_i = clip(z_i - lam*y_i, 0, C) reduces to a one-dimensional
piecewise-linear root find in lam, solved by sorting the breakpoints.

Nothing here touches the package's solver path; only the dual objective
definition (the formula under test) is shared mathematics.
"""

import numpy as np


def project_box_hyperplane(z: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """Euclidean projection of z onto {a: 0 <= a <= C, sum(y*a) = 0}."""
    u = y * z
    lo = np.where(y > 0, 0.0, -c)
    hi = np.where(y > 0, c, 0.0)
    breakpoints = np.sort(np.concatenate([u - lo, u - hi]))
    h = np.clip(u[None, :] - breakpoints[:, None], lo[None, :], hi[None, :]).sum(axis=1)
    k = int((h >= 0).sum()) - 1
    if k < 0:
        lam = breakpoints[0]
    elif k == len(breakpoints) - 1 or h[k] == 0.0:
        lam = breakpoints[k]
    else:
        slope = (h[k + 1] - h[k]) / (breakpoints[k + 1] - breakpoints[k])
        lam = breakpoints[k] - h[k] / slope if slope != 0.0 else breakpoints[k]
    return np.clip(z - lam * y, 0.0, c)


def dual_objective(kernel: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> float:
    ay = alpha * y
    return float(alpha.sum() - 0.5 * ay @ kernel @ ay)


def solve_dual(
    kernel: np.ndarray,
    y: np.ndarray,
    c: float,
    max_iters: int = 200000,
    check_every: int = 500,
) -> tuple[np.ndarray, float]:
    """Maximize the dual by accelerated projected gradient; returns (alpha, W)."""
    n = len(y)
    q = (y[:, None] * y[None, :]) * kernel
    step = 1.0 / max(float(np.linalg.eigvalsh(q)[-1]), 1e-12)
    x = project_box_hyperplane(np.zeros(n), y, c)
    v = x.copy()
    t = 1.0
    last_check = dual_objective(kernel, y, x)
    stalls = 0
    for it in range(1, max_iters + 1):
        x_new = project_box_hyperplane(v + step * (1.0 - q @ v), y, c)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        v = x_new + ((t - 1.0) / t_new) * (x_new - x)
        if dual_objective(kernel, y, x_new) < dual_objective(kernel, y, x):
            t_new = 1.0
            v = x_new.copy()
        x, t = x_new, t_new
        if it % check_every == 0:
            obj = dual_objective(kernel, y, x)
            if obj - last_check < 1e-14 * max(1.0, abs(obj)):
                stalls += 1
                if stalls >= 2:
                    break
            else:
                stalls = 0
            last_check = obj
    return x, dual_objective(kernel, y, x)


def _project_batch(z: np.ndarray, y: np.ndarray, c: np.ndarray,
                   live: np.ndarray) -> np.ndarray:
    """project_box_hyperplane on each row of z, over its live entries only
    (y is 0 and the result 0 elsewhere); c has shape (P, 1)."""
    u = y * z
    lo = np.minimum(y, 0.0) * c  # -C where y < 0, else 0
    hi = np.maximum(y, 0.0) * c
    dead = np.concatenate([~live, ~live], axis=1)
    breakpoints = np.sort(np.where(dead, np.inf, np.concatenate([u - lo, u - hi], axis=1)),
                          axis=1)
    h = np.clip(u[:, None, :] - breakpoints[:, :, None], lo[:, None, :], hi[:, None, :]).sum(axis=2)
    k = (h >= 0).sum(axis=1) - 1
    at = np.clip(k, 0, None)[:, None]
    after = np.clip(k + 1, 0, breakpoints.shape[1] - 1)[:, None]
    b_k = np.take_along_axis(breakpoints, at, axis=1)[:, 0]
    h_k = np.take_along_axis(h, at, axis=1)[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = ((np.take_along_axis(h, after, axis=1)[:, 0] - h_k)
                 / (np.take_along_axis(breakpoints, after, axis=1)[:, 0] - b_k))
        lam = np.where(slope != 0.0, b_k - h_k / slope, b_k)
    on_breakpoint = (k == 2 * live.sum(axis=1) - 1) | (h_k == 0.0)
    lam = np.where(k < 0, breakpoints[:, 0], np.where(on_breakpoint, b_k, lam))
    return np.where(live, np.clip(z - lam[:, None] * y, 0.0, c), 0.0)


def _objective_batch(kernels: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    ay = alpha * y
    return alpha.sum(axis=1) - 0.5 * (ay * np.matmul(kernels, ay[:, :, None])[:, :, 0]).sum(axis=1)


def solve_dual_batch(
    kernels: list[np.ndarray],
    ys: list[np.ndarray],
    cs: list[float],
    max_iters: int = 200000,
    check_every: int = 500,
) -> list[tuple[np.ndarray, float]]:
    """solve_dual on every (kernel, y, c) at once: the same projection, step,
    restart and two-stall stop rule, on arrays padded to the largest problem
    with one live mask per problem. A problem that stops keeps its iterate
    while the others go on. Returns each problem's (alpha, W)."""
    n_max = max(len(y) for y in ys)
    live = np.array([np.arange(n_max) < len(y) for y in ys])
    y = np.zeros(live.shape)
    kernel = np.zeros(live.shape + (n_max,))
    for p, (k_p, y_p) in enumerate(zip(kernels, ys)):
        y[p, :len(y_p)] = y_p
        kernel[p, :len(y_p), :len(y_p)] = k_p
    c = np.asarray(cs, dtype=np.float64)[:, None]
    q = (y[:, :, None] * y[:, None, :]) * kernel
    step = 1.0 / np.maximum(np.linalg.eigvalsh(q)[:, -1], 1e-12)
    x = _project_batch(np.zeros(live.shape), y, c, live)
    v = x.copy()
    t = np.ones(len(ys))
    last_check = _objective_batch(kernel, y, x)
    stalls = np.zeros(len(ys), dtype=np.int64)
    running = np.ones(len(ys), dtype=bool)
    for it in range(1, max_iters + 1):
        x_new = _project_batch(v + step[:, None] * (1.0 - np.matmul(q, v[:, :, None])[:, :, 0]),
                               y, c, live)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        v_new = x_new + ((t - 1.0) / t_new)[:, None] * (x_new - x)
        restart = _objective_batch(kernel, y, x_new) < _objective_batch(kernel, y, x)
        t_new = np.where(restart, 1.0, t_new)
        v_new = np.where(restart[:, None], x_new, v_new)
        x = np.where(running[:, None], x_new, x)
        v = np.where(running[:, None], v_new, v)
        t = np.where(running, t_new, t)
        if it % check_every == 0:
            obj = _objective_batch(kernel, y, x)
            stalled = obj - last_check < 1e-14 * np.maximum(1.0, np.abs(obj))
            stalls = np.where(running, np.where(stalled, stalls + 1, 0), stalls)
            running &= stalls < 2
            if not running.any():
                break
            last_check = obj
    objectives = _objective_batch(kernel, y, x)
    return [(x[p, :len(y_p)].copy(), float(objectives[p])) for p, y_p in enumerate(ys)]


def bias_from_alpha(kernel: np.ndarray, y: np.ndarray, alpha: np.ndarray, c: float) -> float:
    """Unbounded-average / midpoint bias rule, reimplemented for the oracle side."""
    g = kernel @ (alpha * y)
    band = 1e-9 * c
    at_zero = alpha <= band
    at_c = alpha >= c - band
    unbounded = ~at_zero & ~at_c
    if unbounded.any():
        return float(np.mean(y[unbounded] - g[unbounded]))
    resid = y - g
    lower = ((y > 0) & at_zero) | ((y < 0) & at_c)
    upper = ((y < 0) & at_zero) | ((y > 0) & at_c)
    b_lo = float(resid[lower].max()) if lower.any() else None
    b_hi = float(resid[upper].min()) if upper.any() else None
    if b_lo is None:
        return b_hi if b_hi is not None else 0.0
    if b_hi is None:
        return b_lo
    return 0.5 * (b_lo + b_hi)
