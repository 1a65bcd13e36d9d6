"""Small dense linear algebra and a self-contained simplex LP.

Everything here works on problems with at most a few hundred variables.
The simplex uses Bland's rule throughout, so it terminates on degenerate
instances and produces the same answer on every run.  Its phase 1 does not
read the cost, so a ``Tableau`` keeps it, and every optimum is re-verified
by its residual before anyone reads it.

First-order optimality in its KKT, normal-cone and exact-penalty forms
is one linear system, 0 in co{grad f_i(x)} + cone(N_K(x)) + cone(N_A(x)),
which ``combination_system`` lays out.  Membership, the interior margins
and the second-order forms solve their objectives from the generator
set's one ``Tableau`` of it (``geometry.GeneratorSet.tableau``); so does
the penalty threshold when it caps no run of cone weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import axis_directions

__all__ = [
    "det", "rank", "stacked_rank", "SCREEN_CHUNK",
    "solve_positive_combination", "positive_combinations",
    "LpResult", "Tableau", "simplex_solve",
    "combination_system", "lp_membership", "lp_chebyshev_center",
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

# a singular value counts toward the rank above EPS_RANK times the largest
EPS_RANK = 1e-9
# the volume pre-decision of stacked_rank: a d x p matrix (p <= d) scaled
# to U = M / max|M| whose Gram determinant det(U^T U) = vol(U)^2 is at
# least VOLUME_RATIO * |U|_F^(2p) has rank p by the EPS_RANK test.  As
# vol(U) = s_1...s_p <= s_p s_1^(p-1) and s_1 <= |U|_F, its singular
# values have s_p / s_1 >= vol(U) / |U|_F^p >= sqrt(VOLUME_RATIO) = 1e-4.
# The computed determinant is that of a Gram matrix off by about
# (d + p) u |U|_F^2 per entry (forming it, then its LU; u the unit
# roundoff, and |U|_F >= 1 as max|U| = 1), while passing the test puts
# its least eigenvalue at VOLUME_RATIO |U|_F^2 or more, 10^6 times
# larger; by Weyl the SVD's singular values err by about u s_1, so the
# SVD reads s_p / s_1 >~ 10^-4, far above EPS_RANK.  Every other matrix
# goes to the SVD.
VOLUME_RATIO = 1e-8
# ... only where max|M| lies in VOLUME_RANGE: outside it (and for a zero,
# NaN or infinite max|M|) LAPACK's singular values can underflow to
# subnormals or the largest overflow to inf, and its rank is not the one
# the volume proves
VOLUME_RANGE = (1e-250, 1e250)
# positive_combinations: residual bound (relative to the largest vector
# norm, at least 1) and the least multiplier that counts as positive
EPS_RESIDUAL = 1e-8
EPS_POS = 1e-8
# a unit null vector whose first entry is at most EPS_LEAD in size has no
# combination with beta_1 = 1 (columns 2..p dependent when it is 0), or
# one whose largest weight is at least 1/(sqrt(p) EPS_LEAD) ~ 10^9 / sqrt(p)
# times the first; positive_combinations rejects both
EPS_LEAD = 1e-9
# pivots per simplex phase
MAX_ITER = 20000


def stacked_rank(stack):
    """Ranks of the d x p matrices stacked along the leading axes of
    ``stack``: the number of singular values above EPS_RANK times the
    largest.  One batched Gram determinant gives rank min(d, p) to each
    matrix whose volume proves it (see VOLUME_RATIO), taken of the
    matrix's transpose when p > d, which has the same singular values;
    the rest go through one SVD of their singular values alone
    (``_svd_ranks``).  Every rank is the one that SVD gives the matrix
    alone, so a stacked screen agrees with ``rank`` on each matrix."""
    stack = np.asarray(stack, dtype=float)
    *lead, d, p = stack.shape
    flat = stack.reshape(math.prod(lead), d, p)
    ranks = np.full(len(flat), min(d, p))
    rest = np.flatnonzero(~_full_volume(
        flat if p <= d else flat.transpose(0, 2, 1)))
    if len(rest):
        ranks[rest] = _svd_ranks(flat[rest])
    return ranks.reshape(lead)


def _full_volume(flat):
    """For each d x p matrix of ``flat`` (p <= d): True when its volume
    proves rank p by the EPS_RANK test (see VOLUME_RATIO); never for an
    empty matrix."""
    scale = np.abs(flat).max(axis=(1, 2), initial=0.0)
    # NaN fails both comparisons, inf and 0 one of them; the matrices
    # left out are zeroed, so they raise no warning and prove nothing
    live = (scale >= VOLUME_RANGE[0]) & (scale <= VOLUME_RANGE[1])
    U = (np.where(live[:, None, None], flat, 0.0)
         / np.where(live, scale, 1.0)[:, None, None])
    gram = U.transpose(0, 2, 1) @ U
    frob2 = np.trace(gram, axis1=1, axis2=2)
    # a column that underflowed to subnormals can leave a zero pivot
    with np.errstate(divide="ignore"):
        vol2 = np.linalg.det(gram)
    return live & (vol2 >= VOLUME_RATIO * frob2 ** flat.shape[2])


def _svd_ranks(stack):
    """Ranks of the stacked matrices from their singular values alone."""
    sigma = np.linalg.svd(stack, compute_uv=False)
    return np.sum(sigma > EPS_RANK * sigma[..., :1], axis=-1)


def rank(M) -> int:
    """Number of singular values above EPS_RANK * sigma_max, from one SVD;
    ``stacked_rank`` gives each matrix of a stack this rank."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0
    return int(_svd_ranks(M))


def solve_positive_combination(V):
    """Multipliers beta > 0 with sum(beta_i * V_i) = 0, normalized beta_1 = 1.

    The EPS_RANK test must give [V_1..V_p] rank p - 1 (p > 1); then
    ``positive_combinations`` decides it as a stack of one matrix.
    Returns None when no such combination exists.
    """
    vecs = [np.asarray(v, dtype=float) for v in V]
    if not vecs:
        return None
    M = np.column_stack(vecs)
    if len(vecs) > 1 and rank(M) != len(vecs) - 1:
        return None
    beta = positive_combinations(M[None])[0]
    return None if np.isnan(beta[0]) else beta


def positive_combinations(stack):
    """For each d x p matrix [V_1..V_p] stacked along the leading axis of
    ``stack``, each of rank p - 1 when p > 1: the multipliers beta > 0
    with sum(beta_i * V_i) = 0 and beta_1 = 1, or a row of NaN where
    there are none.

    A single vector has them when its norm is at most EPS_RESIDUAL.
    Otherwise the unit null vector n, the last right singular vector,
    must have |n_1| > EPS_LEAD.  The normal equations give
    beta_2..beta_p; they square the condition number of V_2..V_p, so
    when their solution misses the residual test, beta = n / n_1 takes
    its place and must pass the same test.  Every multiplier must then
    exceed EPS_POS.  Each step works on each matrix alone, so a matrix
    gets the same multipliers, bit for bit, in any stack."""
    stack = np.ascontiguousarray(stack, dtype=float)
    p = stack.shape[2]
    out = np.full((len(stack), p), np.nan)
    if not len(stack):
        return out
    tol = EPS_RESIDUAL * np.maximum(
        1.0, np.linalg.norm(stack, axis=1).max(axis=1))
    if p == 1:
        out[np.linalg.norm(stack[..., 0], axis=1) <= tol] = 1.0
        return out
    null = np.linalg.svd(stack, full_matrices=True)[2][:, -1]
    live = np.flatnonzero(np.abs(null[:, 0]) > EPS_LEAD)
    M, null, tol = stack[live], null[live], tol[live]
    B = M[..., 1:]
    Bt = B.transpose(0, 2, 1)
    beta = _solve_each(Bt @ B, -Bt @ M[..., :1])[..., 0]

    def misses(beta):
        resid = (B @ beta[..., None])[..., 0] + M[..., 0]
        return np.linalg.norm(resid, axis=1) > tol
    redo = misses(beta)
    if redo.any():
        beta[redo] = null[redo, 1:] / null[redo, :1]
        redo &= misses(beta)
    ok = ~redo & np.all(beta > EPS_POS, axis=1)
    out[live[ok], 0] = 1.0
    out[live[ok], 1:] = beta[ok]
    return out


def _solve_each(g, rhs):
    """np.linalg.solve over a stack; a singular matrix in it is solved
    alone, shifted by 1e-12 times the identity."""
    try:
        return np.linalg.solve(g, rhs)
    except np.linalg.LinAlgError:
        if len(g) > 1:
            return np.concatenate([_solve_each(g[i:i + 1], rhs[i:i + 1])
                                   for i in range(len(g))])
        return np.linalg.solve(g + 1e-12 * np.eye(g.shape[-1]), rhs)


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


def _bland_iterate(T, basis, n_cols):
    """Run Bland-rule pivots on tableau T in place.  Returns status."""
    m = T.shape[0] - 1
    for it in range(MAX_ITER):
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
    return "iteration_limit", MAX_ITER


def _pivot(T, row, col):
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[row]


class Tableau:
    """Phase 1 of the two-phase dense simplex for Ax = b, x >= 0, run once
    and kept, so that many objectives re-optimise from it.

    Rows with b_i < 0 are negated, an artificial variable per row starts
    basic, and Bland pivots minimise their sum; the system is infeasible
    when that sum stays above 1e-7 * max(1, max|b|).  The kept tableau
    holds the artificial block, which is B^-1 of the final basis, so
    ``solve`` can append a column that phase 1 never saw.  Phase 1 does
    not read a cost, so ``Tableau(A, b).solve(c)`` is the one-shot
    two-phase simplex bit for bit."""

    def __init__(self, A, b):
        self.A = np.array(A, dtype=float)
        self.b = np.array(b, dtype=float)
        m, n = self.A.shape
        self.flip = np.where(self.b < 0, -1.0, 1.0)

        # columns [original | artificial | rhs]
        T = np.zeros((m + 1, n + m + 1))
        T[:m, :n] = self.A * self.flip[:, None]
        T[:m, n:n + m] = np.eye(m)
        T[:m, -1] = self.b * self.flip
        self.basis = list(range(n, n + m))
        for i in range(m):
            T[-1, :n] -= T[i, :n]
            T[-1, -1] -= T[i, -1]
        status, self.iterations = _bland_iterate(T, self.basis, n + m)
        self.feasible = status == "optimal" and (
            -T[-1, -1] <= 1e-7 * max(1.0, np.abs(self.b).max()))
        self.T = T[:m]

    def solve(self, c, column=None) -> LpResult:
        """min c@x over [A | column] x = b, x >= 0, from the kept phase 1;
        c covers the extra column when one is given, and a scalar c costs
        every column alike.  Feasibility is phase 1's, on A alone: a system
        that needs the extra variable above 0 to be feasible reads
        infeasible.  An optimal x is re-verified against [A | column] and b
        (``_verified``)."""
        A = self.A if column is None else np.column_stack([self.A, column])
        c = np.broadcast_to(np.asarray(c, dtype=float), A.shape[1:])
        return _verified(self._optimum(c, A), A, self.b)

    def _optimum(self, c, A) -> LpResult:
        """Phase 2 on a copy of the kept tableau, with the columns of A
        past the original ones entered as B^-1 times their sign-flipped
        entries.  Artificials still basic are driven out on the first
        column, extra ones included, with an entry above the pivot
        tolerance; a row with none is redundant and dropped."""
        if not self.feasible:
            return LpResult("infeasible", iterations=self.iterations)
        m, n = self.A.shape
        k = A.shape[1]
        T = np.zeros((m, k + 1))
        T[:, :n] = self.T[:, :n]
        T[:, n:k] = self.T[:, n:n + m] @ (A[:, n:] * self.flip[:, None])
        T[:, -1] = self.T[:, -1]
        basis, keep = list(self.basis), []
        for i in range(m):
            if basis[i] >= n:
                nonzero = np.flatnonzero(np.abs(T[i, :k]) > _PIVOT_TOL)
                if not len(nonzero):
                    continue
                _pivot(T, i, nonzero[0])
                basis[i] = int(nonzero[0])
            keep.append(i)

        T2 = np.zeros((len(keep) + 1, k + 1))
        T2[:-1] = T[keep]
        T2[-1, :k] = c
        basis2 = [basis[i] for i in keep]
        for i, bi in enumerate(basis2):
            if T2[-1, bi] != 0.0:
                T2[-1] -= T2[-1, bi] * T2[i]
        status, it2 = _bland_iterate(T2, basis2, k)
        iterations = self.iterations + it2
        if status != "optimal":
            return LpResult("unbounded" if status == "unbounded"
                            else "infeasible", iterations=iterations)
        x = np.zeros(k)
        for i, bi in enumerate(basis2):
            x[bi] = T2[i, -1]
        return LpResult("optimal", x=x, objective=float(c @ x),
                        iterations=iterations)


def _verified(res, A, b) -> LpResult:
    """An optimal x counts only when it reproduces the constraints,
    ||Ax - b|| <= 1e-8 * max(1, max|A|); one that does not reads as
    ``infeasible``, so no caller reports a solution without the evidence
    for it."""
    if res.status != "optimal":
        return res
    residual = float(np.linalg.norm(A @ res.x - b))
    if residual > 1e-8 * max(1.0, float(np.max(np.abs(A)))):
        return LpResult("infeasible", iterations=res.iterations)
    return res


def simplex_solve(c, A, b) -> LpResult:
    """min c@x, Ax = b, x >= 0 by the two-phase dense simplex with Bland's
    rule: ``Tableau(A, b).solve(c)``, its optimum re-verified."""
    return Tableau(A, b).solve(c)


# ---------------------------------------------------------------------------
# the combination system and the membership and interior tests over it
# ---------------------------------------------------------------------------


def combination_system(hull, cone, caps=(), d=None):
    """The equality system (A, b) of 0 in co(hull) + cone(cone), with the
    weights of some runs of cone generators capped at a total of 1.

    Columns are the hull weights lam, then the cone weights mu, then one
    slack per cap.  Rows are the d coordinates, sum(lam_i hull_i) +
    sum(mu_j cone_j) = 0; the convexity row, sum(lam) = 1; and per cap
    (start, stop), sum(mu[start:stop]) + slack = 1.  A caller looking for
    another target than 0 sets it in b[:d].  d is len(hull[0]) unless
    given; an empty hull leaves the convexity row without a column, so the
    system is infeasible."""
    nh, nc, d = len(hull), len(cone), d or len(hull[0])
    A = np.zeros((d + 1 + len(caps), nh + nc + len(caps)))
    A[:d, :nh + nc] = np.reshape([*hull, *cone], (nh + nc, d)).T
    A[d, :nh] = 1.0
    b = np.zeros(len(A))
    b[d:] = 1.0
    for k, (start, stop) in enumerate(caps):
        A[d + 1 + k, nh + start:nh + stop] = 1.0
        A[d + 1 + k, nh + nc + k] = 1.0
    return A, b


def lp_membership(target, hull, cone=()):
    """Weights expressing target = sum(lam_i hull_i) + sum(mu_j cone_j)
    with lam >= 0, sum(lam) = 1, mu >= 0.  Returns (lam, mu) or None."""
    nh = len(hull)
    A, b = combination_system(hull, cone, d=len(target))
    b[:-1] = target
    res = simplex_solve(np.zeros(A.shape[1]), A, b)
    if res.status != "optimal":
        return None
    return res.x[:nh].copy(), res.x[nh:].copy()


def _margins(tableau, directions):
    """For each direction u in turn, max r >= 0 with r * u in the set
    whose combination system ``tableau`` holds (no caps): math.inf when
    unbounded, None when even r = 0 is unattainable (the set does not
    contain the origin), never negative.  Each probe re-optimises from the
    kept phase 1 with one more column, -u, which can pin r = 0 on a row
    that phase 1 found redundant."""
    c = np.zeros(tableau.A.shape[1] + 1)
    c[-1] = -1.0
    column = np.zeros(len(tableau.b))
    for u in directions:
        column[:-1] = -np.asarray(u, dtype=float)
        res = tableau.solve(c, column)
        if res.status == "unbounded":
            yield math.inf
        else:
            # r >= 0 is a constraint: a rounded -0.0 or -1e-16 reads 0.0
            yield (max(0.0, float(res.x[-1])) if res.status == "optimal"
                   else None)


def lp_chebyshev_center(tableau):
    """Directional interior margin of the set whose combination system
    ``tableau`` holds (no caps; d = len(b) - 1): the largest common r with
    r * u in the set for each of the 2d signed axes u, so the radius of the
    largest l1 ball about 0 in the set and the least of its support
    function over |h|_inf = 1; math.inf when no probe is bounded, None
    when the set does not contain the origin.  The Euclidean ball of
    radius r/sqrt(d) lies in that l1 ball."""
    margin = math.inf
    for r in _margins(tableau, axis_directions(len(tableau.b) - 1)):
        if r is None:
            return None
        margin = min(margin, r)
    return margin
