"""Slow, independent verification routines used by the test suite.

Nothing here shares a code path with the certified implementations it
checks: membership is decided by exhaustive support enumeration instead of
the simplex, growth constants by rejection sampling of actual objective
values, derivatives by central differences.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from . import expr as ex
from .cones import row_norms, unit_rows
from .problem import (Problem, evaluate_objective, feasibility,
                      objective_values)

__all__ = [
    "TooFewFeasibleSamples", "GrowthProbe",
    "growth_probe", "hull_membership_bruteforce", "fd_check",
    "fd_gradient", "fd_hessian",
]


class TooFewFeasibleSamples(Exception):
    def __init__(self, found: int, needed: int = 50):
        self.found = found
        super().__init__(f"only {found} feasible samples (need {needed})")


@dataclass
class GrowthProbe:
    order: int
    n_feasible: int
    refuted: bool
    constant: float | None       # fitted growth constant, None when refuted
    worst_point: list | None

    def to_json(self):
        return asdict(self)


def _equality_frame(A, d):
    """Orthonormal basis of the affine-equality null space (identity when
    there are no equalities), so samples stay on the affine part of A."""
    if not A.E:
        return np.eye(d)
    E = np.asarray(A.E, dtype=float)
    _, s, Vt = np.linalg.svd(E)
    rank_E = int(np.sum(s > 1e-12))
    return Vt[rank_E:].T  # d x (d - rank_E)


# a sample refutes when its objective value is below F(x) - EPS_REFUTE
EPS_REFUTE = 1e-9


def growth_probe(P: Problem, x, order: int = 1, n_samples: int = 2000,
                 radius: float = 0.1, seed: int = 0,
                 min_feasible: int = 50) -> GrowthProbe:
    """Sample feasible points near x and fit the growth constant
    min (F(y) - F(x)) / |y - x|^order; any strictly lower objective value
    refutes local optimality outright.

    The samples are drawn one by one, then screened together: a sample
    counts when it is feasible, lies off x and every constraint and
    scenario value is defined there.  The first counted sample in draw
    order with a lower value refutes; otherwise the constant is the first
    least quotient."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    x = np.asarray(x, dtype=float)
    F0, _ = evaluate_objective(P, x)
    rng = np.random.default_rng(seed + 17)
    frame = _equality_frame(P.set_A, P.d)
    k = frame.shape[1]
    if k == 0:
        raise TooFewFeasibleSamples(0, min_feasible)
    # a direction, then a radius unless the direction is null: the
    # interleaving fixes the random stream, so the draws stay one by one
    U = np.empty((n_samples, k))
    radii = []
    for i in range(n_samples):
        U[i] = rng.standard_normal(k)
        # the norm of U[i] as unit_rows computes it
        if not math.sqrt(U[i].dot(U[i])) < 1e-12:
            radii.append(radius * rng.random() ** (1.0 / k))
    steps = np.array(radii).reshape(-1, 1) * unit_rows(U, 1e-12)[0]
    # one matrix-vector product per sample, as frame @ step computes it
    Y = x + np.matmul(frame, steps[:, :, None])[:, :, 0]
    feasible, _ = feasibility(P, Y.T)
    dist = row_norms(Y - x)
    keep = feasible & ~(dist < 1e-12)
    Y, dist = Y[keep], dist[keep]
    F, undefined = objective_values(P, Y.T)
    Y, dist, F = Y[~undefined], dist[~undefined], F[~undefined]
    lower = np.flatnonzero(F < F0 - EPS_REFUTE)
    if len(lower):
        first = int(lower[0])
        return GrowthProbe(order=order, n_feasible=first + 1, refuted=True,
                           constant=None, worst_point=Y[first].tolist())
    if len(F) < min_feasible:
        raise TooFewFeasibleSamples(len(F), min_feasible)
    quotients = (F - F0) / np.array([r ** order for r in dist.tolist()])
    # a NaN quotient never becomes the minimum; argmin takes the first least
    least = np.where(np.isnan(quotients), math.inf, quotients)
    if not np.any(least < math.inf):
        return GrowthProbe(order=order, n_feasible=len(F), refuted=False,
                           constant=math.inf, worst_point=None)
    j = int(np.argmin(least))
    return GrowthProbe(order=order, n_feasible=len(F), refuted=False,
                       constant=float(quotients[j]),
                       worst_point=Y[j].tolist())


def hull_membership_bruteforce(target, hull, cone=(), eps: float = 1e-9) -> bool:
    """Decide target in co(hull) + cone(cone) by exhaustive enumeration of
    candidate supports (at most d+1 hull points and d cone rays suffice),
    solving each small linear system directly.  Intended for instances with
    at most a handful of generators."""
    target = np.asarray(target, dtype=float)
    d = target.shape[0]
    hull = [np.asarray(v, dtype=float) for v in hull]
    cone = [np.asarray(v, dtype=float) for v in cone]
    if not hull:
        return False
    scale = max(1.0, float(np.linalg.norm(target)),
                max(float(np.linalg.norm(v)) for v in hull + cone))
    nh, nc = len(hull), len(cone)
    for h_count in range(1, min(nh, d + 1) + 1):
        for h_idx in combinations(range(nh), h_count):
            for c_count in range(0, min(nc, d) + 1):
                for c_idx in combinations(range(nc), c_count):
                    cols = [hull[i] for i in h_idx] + [cone[j] for j in c_idx]
                    A = np.zeros((d + 1, len(cols)))
                    for j, v in enumerate(cols):
                        A[:d, j] = v
                    A[d, :h_count] = 1.0
                    b = np.concatenate([target, [1.0]])
                    w, *_ = np.linalg.lstsq(A, b, rcond=None)
                    if np.any(w < -eps):
                        continue
                    w = np.maximum(w, 0.0)
                    total = sum(w[:h_count])
                    if abs(total - 1.0) > 1e-7:
                        continue
                    recon = sum(wi * v for wi, v in zip(w, cols))
                    if np.linalg.norm(recon - target) <= 1e-7 * scale:
                        return True
    return False


def fd_gradient(e: ex.Expression, x, step: float = 1e-5) -> np.ndarray:
    """Central differences of e at x; the 2d shifted points, x + step e_i
    then x - step e_i for each i, are evaluated as one stack."""
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    X = np.repeat(x[:, None], 2 * d, axis=1)
    axis = np.arange(d)
    X[axis, 2 * axis] += step
    X[axis, 2 * axis + 1] -= step
    vals, reasons = ex.eval_reasons(e, X)
    ex.raise_undefined(reasons)
    return (vals[0::2] - vals[1::2]) / (2 * step)


def fd_hessian(e: ex.Expression, x, step: float = 1e-4) -> np.ndarray:
    """Central second differences of e at x; the 4d^2 shifted points,
    x +- step e_i +- step e_j for each (i, j), are evaluated as one
    stack."""
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    X = np.repeat(x[:, None], 4 * d * d, axis=1)
    rows, cols = np.divmod(np.arange(d * d), d)
    # the signs of the i and j shifts of the four points of each (i, j)
    for k, (si, sj) in enumerate(((1, 1), (1, -1), (-1, 1), (-1, -1))):
        at = 4 * np.arange(d * d) + k
        X[rows, at] += si * step
        X[cols, at] += sj * step
    vals, reasons = ex.eval_reasons(e, X)
    ex.raise_undefined(reasons)
    pp, pm, mp, mm = (vals[k::4] for k in range(4))
    return ((pp - pm - mp + mm) / (4 * step * step)).reshape(d, d)


def fd_check(e: ex.Expression, x, grad_step: float = 1e-5,
             hess_step: float = 1e-4):
    """Max relative errors of the forward-mode gradient and Hessian against
    central differences.  Returns (grad_error, hess_error)."""
    x = np.asarray(x, dtype=float)
    dual = ex.eval2(e, x)
    g_fd = fd_gradient(e, x, grad_step)
    h_fd = fd_hessian(e, x, hess_step)
    g_scale = max(1.0, float(np.max(np.abs(g_fd))))
    h_scale = max(1.0, float(np.max(np.abs(h_fd))))
    g_err = float(np.max(np.abs(dual.grad - g_fd))) / g_scale
    h_err = float(np.max(np.abs(dual.hess - h_fd))) / h_scale
    return g_err, h_err
