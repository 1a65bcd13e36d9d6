"""Small dense linear algebra and a self-contained simplex LP.

Everything here works on problems with at most a few hundred variables.
The simplex uses Bland's rule throughout, so it terminates on degenerate
instances and produces the same answer on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "det", "rank", "stacked_rank", "SCREEN_CHUNK",
    "solve_positive_combination",
    "LpResult", "simplex_solve", "simplex_checked",
    "lp_membership", "lp_direction_margin", "lp_chebyshev_center",
    "InteriorReport",
]


def det(M) -> float:
    """Determinant via LU with partial pivoting."""
    M = np.asarray(M, dtype=float)
    if M.shape[0] != M.shape[1]:
        raise ValueError("det requires a square matrix")
    if M.size == 0:
        return 1.0
    return float(np.linalg.det(M))


# matrices per stacked rank screen in the subset enumerations: large
# enough to amortise the call, small enough to keep the stacks small
SCREEN_CHUNK = 256


def stacked_rank(stack, eps_rank: float = 1e-9):
    """Ranks of the matrices stacked along the leading axes of ``stack``
    (number of singular values above eps_rank times the largest), from one
    SVD call, and the singular values, largest first.  ``rank`` is this
    call on a single matrix, so a stacked screen agrees with it bit for
    bit."""
    sigma = np.linalg.svd(stack, compute_uv=False)
    return np.sum(sigma > eps_rank * sigma[..., :1], axis=-1), sigma


def rank(M, eps_rank: float = 1e-9) -> int:
    """Number of singular values above eps_rank * sigma_max."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0
    return int(stacked_rank(M, eps_rank)[0])


def solve_positive_combination(V, eps: float = 1e-8, eps_pos: float = 1e-8,
                               eps_rank: float = 1e-9):
    """Multipliers beta > 0 with sum(beta_i * V_i) = 0, normalized beta_1 = 1.

    Requires rank([V_1..V_p]) = p - 1; solves the least-squares system for
    beta_2..beta_p restricted to the column space and accepts only when the
    residual vanishes and every multiplier is strictly positive.  Returns
    None when no such combination exists.
    """
    vecs = [np.asarray(v, dtype=float) for v in V]
    p = len(vecs)
    if p == 0:
        return None
    scale = max(1.0, max(float(np.linalg.norm(v)) for v in vecs))
    if p == 1:
        return np.array([1.0]) if np.linalg.norm(vecs[0]) <= eps * scale else None
    M = np.column_stack(vecs)
    if rank(M, eps_rank) != p - 1:
        return None
    B = M[:, 1:]
    g = B.T @ B
    rhs = -B.T @ M[:, 0]
    try:
        beta_tail = np.linalg.solve(g, rhs)
    except np.linalg.LinAlgError:
        beta_tail = np.linalg.solve(g + 1e-12 * np.eye(p - 1), rhs)
    residual = float(np.linalg.norm(B @ beta_tail + M[:, 0]))
    if residual > eps * scale:
        return None
    beta = np.concatenate(([1.0], beta_tail))
    if np.any(beta[1:] <= eps_pos):
        return None
    return beta


# ---------------------------------------------------------------------------
# simplex
# ---------------------------------------------------------------------------


@dataclass
class LpResult:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    x: np.ndarray | None = None
    objective: float = math.nan
    iterations: int = 0


_PIVOT_TOL = 1e-9


def _bland_iterate(T, basis, n_cols, max_iter):
    """Run Bland-rule pivots on tableau T in place.  Returns status."""
    m = T.shape[0] - 1
    for it in range(max_iter):
        reduced = T[-1, :n_cols]
        entering = -1
        for j in range(n_cols):
            if reduced[j] < -_PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return "optimal", it
        col = T[:m, entering]
        leaving = -1
        best = math.inf
        for i in range(m):
            if col[i] > _PIVOT_TOL:
                ratio = T[i, -1] / col[i]
                if ratio < best - _PIVOT_TOL or (
                        abs(ratio - best) <= _PIVOT_TOL
                        and (leaving < 0 or basis[i] < basis[leaving])):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return "unbounded", it
        _pivot(T, leaving, entering)
        basis[leaving] = entering
    return "iteration_limit", max_iter


def _pivot(T, row, col):
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[row]


def simplex_solve(c, A, b, max_iter: int = 20000) -> LpResult:
    """Two-phase dense simplex for min c@x, Ax=b, x>=0 with Bland's rule."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    m, n = A.shape
    A = A.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # phase 1 tableau: columns [original | artificial | rhs]
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(n, n + m))
    T[-1, :n + m] = 0.0
    for i in range(m):
        T[-1, :n] -= T[i, :n]
        T[-1, -1] -= T[i, -1]
    status, it1 = _bland_iterate(T, basis, n + m, max_iter)
    if status != "optimal" or -T[-1, -1] > 1e-7 * max(1.0, np.abs(b).max()):
        return LpResult("infeasible", iterations=it1)

    # drive artificials out of the basis; drop rows that stay artificial
    keep = []
    for i in range(m):
        if basis[i] >= n:
            pivot_col = -1
            for j in range(n):
                if abs(T[i, j]) > _PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(T, i, pivot_col)
                basis[i] = pivot_col
                keep.append(i)
            # else: redundant row, drop it
        else:
            keep.append(i)
    rows = keep + [m]
    T2 = np.zeros((len(keep) + 1, n + 1))
    T2[:len(keep), :n] = T[np.ix_(keep, range(n))]
    T2[:len(keep), -1] = T[keep, -1]
    basis2 = [basis[i] for i in keep]

    # phase 2 objective row
    T2[-1, :n] = c
    T2[-1, -1] = 0.0
    for i, bi in enumerate(basis2):
        if T2[-1, bi] != 0.0:
            T2[-1] -= T2[-1, bi] * T2[i]
    status, it2 = _bland_iterate(T2, basis2, n, max_iter)
    if status == "unbounded":
        return LpResult("unbounded", iterations=it1 + it2)
    if status != "optimal":
        return LpResult("infeasible", iterations=it1 + it2)
    x = np.zeros(n)
    for i, bi in enumerate(basis2):
        x[bi] = T2[i, -1]
    return LpResult("optimal", x=x, objective=float(c @ x), iterations=it1 + it2)


def simplex_checked(c, A, b) -> LpResult:
    """``simplex_solve``, re-verified: an optimal x counts only when it
    reproduces the constraints, ||Ax - b|| <= 1e-8 * max(1, max|A|).
    One that does not reads as ``infeasible``, so no caller reports a
    solution without the evidence for it."""
    res = simplex_solve(c, A, b)
    if res.status != "optimal":
        return res
    residual = float(np.linalg.norm(A @ res.x - b))
    if residual > 1e-8 * max(1.0, float(np.max(np.abs(A)))):
        return LpResult("infeasible", iterations=res.iterations)
    return res


# ---------------------------------------------------------------------------
# membership and interior tests over co(hull) + cone(cone)
# ---------------------------------------------------------------------------


def _stack(hull, cone, d):
    cols = [np.asarray(v, dtype=float) for v in hull] + \
           [np.asarray(v, dtype=float) for v in cone]
    if cols:
        return np.column_stack(cols)
    return np.zeros((d, 0))


def lp_membership(target, hull, cone=()):
    """Weights expressing target = sum(lam_i hull_i) + sum(mu_j cone_j)
    with lam >= 0, sum(lam) = 1, mu >= 0.  Returns (lam, mu) or None."""
    target = np.asarray(target, dtype=float)
    d = target.shape[0]
    nh, nc = len(hull), len(cone)
    if nh == 0:
        return None
    A = np.zeros((d + 1, nh + nc))
    A[:d] = _stack(hull, cone, d)
    A[d, :nh] = 1.0
    b = np.concatenate([target, [1.0]])
    res = simplex_checked(np.zeros(nh + nc), A, b)
    if res.status != "optimal":
        return None
    return res.x[:nh].copy(), res.x[nh:].copy()


def lp_direction_margin(direction, hull, cone=()):
    """max r >= 0 with r * direction in co(hull) + cone(cone).

    Returns math.inf when unbounded and None when even r = 0 is
    unattainable (the set does not contain the origin).
    """
    direction = np.asarray(direction, dtype=float)
    d = direction.shape[0]
    nh, nc = len(hull), len(cone)
    if nh == 0:
        return None
    A = np.zeros((d + 1, nh + nc + 1))
    A[:d, :nh + nc] = _stack(hull, cone, d)
    A[:d, -1] = -direction
    A[d, :nh] = 1.0
    b = np.concatenate([np.zeros(d), [1.0]])
    c = np.zeros(nh + nc + 1)
    c[-1] = -1.0
    res = simplex_checked(c, A, b)
    if res.status == "unbounded":
        return math.inf
    if res.status != "optimal":
        return None
    return float(res.x[-1])


@dataclass
class InteriorReport:
    """Result of the directional interior test.

    ``margin`` is the largest common r with r*u in the generated set for
    every probe direction u (the 2d signed axes plus -ones/sqrt(d)); the
    set then contains the l1 ball of that radius spanned by the axes, so
    a Euclidean ball of radius margin/sqrt(d) is certified.
    """

    feasible: bool
    margin: float  # may be math.inf


def lp_chebyshev_center(hull, cone=(), d: int | None = None) -> InteriorReport:
    """Directional interior certificate for co(hull) + cone(cone)."""
    if len(hull) == 0:
        return InteriorReport(feasible=False, margin=0.0)
    if d is None:
        d = len(np.asarray(hull[0], dtype=float))
    dirs = []
    for k in range(d):
        e = np.zeros(d)
        e[k] = 1.0
        dirs.append(e)
        dirs.append(-e)
    dirs.append(-np.ones(d) / math.sqrt(d))
    overall = math.inf
    for u in dirs:
        r = lp_direction_margin(u, hull, cone)
        if r is None:
            return InteriorReport(feasible=False, margin=0.0)
        overall = min(overall, r)
    return InteriorReport(feasible=True, margin=overall)
