"""Second-order certificates: scenario-weight multipliers, Lagrangian
Hessians, and sampled quadratic-form tests over the critical cone.

Curvature corrections vanish for polyhedral cone blocks, so the quadratic
form alone decides necessity there; with second-order-cone or matrix
blocks present the correction is omitted and a negative form no longer
refutes, which the reports flag explicitly.  Positivity of the form on the
critical cone is sufficient regardless of the cone types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import expr as ex
from .cones import axis_directions, distinct_rows, unit_rows
from .firstorder import (DEFAULT_BUDGET, CombinatorialBudgetExceeded,
                         MultiplierWitness, NecessaryReport,
                         _assemble_witness, _witness_residual,
                         directional_derivatives)
from .geometry import PointContext
from .linkernel import (SCREEN_CHUNK, combination_system, rank,
                        stacked_rank)
from .problem import Problem

__all__ = [
    "hessian_bundle", "second_order_necessary",
    "second_order_sufficient", "SecondOrderReport", "MultiplierVertices",
    "multiplier_vertices",
]

# candidate directions drawn at random for the critical-cone sample, and
# the slope within which a direction counts as critical; the same bound
# decides whether a negative quadratic form refutes
N_CRITICAL_DIRS = 512
EPS_CRIT = 1e-8


def _polytope_vertices(Aeq, beq, n, budget: int = DEFAULT_BUDGET):
    """Vertices of {w >= 0 : Aeq w = beq} by basic-solution enumeration.

    Supports are tried by size up to min(m, n), then lexicographically, so
    vertices of degenerate systems (dependent equality rows) are not
    missed.  A vertex's support is a positive circuit of the columns and
    -beq: every proper subset S of it has [Aeq_S beq] of full column rank.
    So the walk goes level by level.  The supports of size k extend those
    of the frontier of size k - 1 by one larger index, and one stays in
    the frontier while [Aeq_S beq] has full column rank by the EPS_RANK
    test.  Once it has not, every superset with a basic solution has the
    same one, a vertex already kept or none, so a support containing that
    of a kept vertex with [Aeq_S beq] dependent is dropped too.  So is one
    whose [Aeq_S beq] has a least singular value, a lower bound on its
    residual, that fails the residual test below with room for rounding.
    The scalar test below decides every support left.  Every
    support up to size min(m, n) counts against the budget, tried or not,
    so more than ``budget`` of them raise CombinatorialBudgetExceeded
    before the walk starts."""
    m = Aeq.shape[0]
    top = min(m, n)
    if any(total > budget for total in accumulate(
            math.comb(n, k) for k in range(top + 1))):
        raise CombinatorialBudgetExceeded(budget + 1,
                                          "multiplier-vertex enumeration")
    verts, dependent = [], []
    scale = max(1.0, float(np.linalg.norm(beq)))
    # the computed least singular value of [Aeq_S beq] is within
    # unit * sigma_1 of the exact one, and the scalar residual of any w,
    # at least that value times |(w, -1)|, is computed within
    # unit * sigma_1 * (|w| + 1): 3 * unit * sigma_1 covers both
    unit = 16.0 * (m + 1) * (n + 1) * np.finfo(float).eps
    with_beq = np.column_stack([Aeq, beq])
    frontier = np.empty((1, 0), dtype=np.intp)
    for k in range(top + 1):
        cand = _extensions(frontier, n) if k else frontier
        grown = []
        for start in range(0, len(cand), SCREEN_CHUNK):
            chunk = cand[start:start + SCREEN_CHUNK]
            if k < m:
                ranks, sigma = stacked_rank(
                    with_beq[:, np.insert(chunk, k, n, axis=1)]
                    .transpose(1, 0, 2))
                grown.append(chunk[ranks == k + 1])
                chunk = chunk[sigma[:, k] - 3.0 * unit * sigma[:, 0]
                              <= 1e-8 * scale]
            if dependent and len(chunk):
                held = np.zeros((len(chunk), n), dtype=bool)
                np.put_along_axis(held, chunk, True, axis=1)
                chunk = chunk[~np.any([held[:, kept].all(axis=1)
                                       for kept in dependent], axis=0)]
            for support in chunk:
                B = Aeq[:, support]
                if rank(B) < len(support):
                    continue
                sol, *_ = np.linalg.lstsq(B, beq, rcond=None)
                full = np.zeros(n)
                full[support] = sol
                if np.any(full < -1e-9):
                    continue
                if np.linalg.norm(Aeq @ full - beq) > 1e-8 * scale:
                    continue
                full = np.maximum(full, 0.0)
                if not any(np.linalg.norm(full - v) < 1e-8 for v in verts):
                    verts.append(full)
                    if rank(with_beq[:, np.append(support, n)]) <= k:
                        dependent.append(support)
        if not grown:
            break
        frontier = np.concatenate(grown)
    return verts


def _extensions(supports, n):
    """Each row of ``supports`` (increasing indices, rows in lexicographic
    order) extended by every larger index below n, in lexicographic
    order."""
    lo = (supports[:, -1] + 1 if supports.shape[1]
          else np.zeros(len(supports), dtype=np.intp))
    counts = n - lo
    rows = np.repeat(np.arange(len(supports)), counts)
    offsets = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts,
                                               counts)
    return np.column_stack([supports[rows], lo[rows] + offsets])


def hessian_bundle(P: Problem, x, w: MultiplierWitness) -> np.ndarray:
    """Hessian of the weighted Lagrangian: the objective Hessians weighted
    by the witness's scenario weights, plus the second derivative of the
    pairing with its block duals."""
    x = np.asarray(x, dtype=float)
    scen_part = np.zeros((P.d, P.d))
    for idx, sign, weight in w.alpha:
        hess = ex.eval2(P.scenarios[idx - 1], x).hess
        if P.kind == "chebyshev":
            hess = sign * hess
        scen_part = scen_part + weight * hess
    cons_part = np.zeros((P.d, P.d))
    for _, blk, dual in w.block_duals():
        cons_part = cons_part + blk.dual_hessian(x, dual)
    return scen_part + cons_part


# ---------------------------------------------------------------------------
# multiplier-set exploration
# ---------------------------------------------------------------------------


@dataclass
class MultiplierVertices:
    """Joint (dual, scenario weight) vertices.  Exhaustive for problems
    whose blocks are all polyhedral, unless the enumeration ran out of its
    budget; otherwise the single reconstructed witness, flagged partial."""

    pairs: list            # MultiplierWitness per vertex
    exhaustive: bool
    budget_exceeded: bool = False


def _all_polyhedral(P: Problem) -> bool:
    return all(b.polyhedral for b in P.blocks)


def multiplier_vertices(ctx: PointContext,
                        report: NecessaryReport) -> MultiplierVertices:
    """The multiplier pairs at the vertices of the joint polytope; at most
    ``DEFAULT_BUDGET`` supports are tried (see ``_polytope_vertices``)."""
    P = ctx.problem
    G = report.generators
    partial = [] if report.multipliers is None else [report.multipliers]
    if not _all_polyhedral(P):
        return MultiplierVertices(pairs=partial, exhaustive=False)
    # joint polytope over (alpha, cone weights, nA weights)
    Aeq, beq = combination_system(G.grads_F, G.cone)
    m = len(G.grads_F)
    try:
        verts = _polytope_vertices(Aeq, beq, Aeq.shape[1])
    except CombinatorialBudgetExceeded:
        return MultiplierVertices(pairs=partial, exhaustive=False,
                                  budget_exceeded=True)
    pairs = []
    for v in verts:
        w = _assemble_witness(ctx, G, v[:m], v[m:])
        w.stationarity_residual = _witness_residual(P, ctx.x, w)
        if w.stationarity_residual > 1e-7:
            continue
        pairs.append(w)
    pairs = pairs or partial
    return MultiplierVertices(pairs=pairs, exhaustive=bool(pairs))


# ---------------------------------------------------------------------------
# critical-cone sampling and the quadratic-form tests
# ---------------------------------------------------------------------------


def _critical_directions(ctx: PointContext, G):
    """Unit directions passing the linearized feasibility and zero-slope
    (within EPS_CRIT) tests.  N_CRITICAL_DIRS random samples, seeded from
    the context's sampling seed, are augmented with canonical axes and with a
    basis of the equality subspace where every active gradient is flat.
    All candidates are screened at once; the first of near-duplicate
    survivors is kept, in candidate order."""
    d = ctx.problem.d
    candidates = [np.array(axis_directions(d))]
    M = np.array([*G.grads_F, *G.cone], dtype=float).reshape(-1, d)
    if len(M):
        _, s, Vt = np.linalg.svd(M)
        null = Vt[int(np.sum(s > 1e-10)):]
        candidates.append(np.stack([null, -null], axis=1).reshape(-1, d))
    rng = np.random.default_rng(ctx.sampling.seed + 307)
    candidates.append(rng.standard_normal((N_CRITICAL_DIRS, d)))
    H, _ = unit_rows(np.vstack(candidates), 1e-12)
    flat = ~(np.abs(directional_derivatives(G.grads_F, H)) > EPS_CRIT)
    H = H[ctx.tester.accepted(H) & flat]
    return list(H[distinct_rows(H, 1e-9)])


@dataclass
class SecondOrderReport:
    mode: str                      # 'necessary' | 'sufficient'
    applicable: bool
    refuted: bool
    passed: bool
    critical_cone_trivial: bool
    conservative_refutation_only: bool
    multiplier_set_exhaustive: bool
    n_directions: int
    worst_value: float | None
    witness_direction: list | None
    notes: list

    def to_json(self):
        return {"mode": self.mode, "applicable": self.applicable,
                "refuted": self.refuted, "passed": self.passed,
                "critical_cone_trivial": self.critical_cone_trivial,
                "conservative_refutation_only":
                    self.conservative_refutation_only,
                "multiplier_set_exhaustive": self.multiplier_set_exhaustive,
                "n_directions": self.n_directions,
                "worst_value": self.worst_value,
                "witness_direction": self.witness_direction,
                "notes": self.notes}


def _second_order_inputs(ctx: PointContext, first: NecessaryReport):
    """The multiplier vertices and the sampled critical directions for the
    generator set of ``first``, computed once per point context and shared
    by both second-order tests.  The memo entry holds the generator set,
    so its id cannot be reused while the entry lives."""
    G = first.generators
    key = ("second_order", id(G))
    if key not in ctx.memo:
        ctx.memo[key] = (G, multiplier_vertices(ctx, first),
                         _critical_directions(ctx, G))
    _, verts, dirs = ctx.memo[key]
    return verts, dirs


def _worst_form(P: Problem, x, verts: MultiplierVertices, dirs):
    """Per direction h, the largest h'Bh over the Lagrangian Hessians B of
    the multiplier pairs; also the least of those values and a direction
    attaining it."""
    hessians = [hessian_bundle(P, x, w) for w in verts.pairs]
    best = [max(float(h @ B @ h) for B in hessians) for h in dirs]
    k = min(range(len(dirs)), key=best.__getitem__)
    return best, best[k], dirs[k].tolist()


def _budget_notes(verts: MultiplierVertices) -> list:
    if not verts.budget_exceeded:
        return []
    return ["the multiplier-vertex enumeration ran out of its budget, so the "
            "multiplier set is not exhaustive and a negative form refutes "
            "nothing"]


def second_order_necessary(ctx: PointContext,
                           first: NecessaryReport) -> SecondOrderReport:
    """Sampled test: along every critical direction some multiplier pair
    must give a nonnegative quadratic form (polyhedral blocks only; with
    curved blocks a negative form cannot refute and is only reported)."""
    if first.generators.nA:   # x lies on the boundary of A
        return SecondOrderReport(
            mode="necessary", applicable=False, refuted=False, passed=False,
            critical_cone_trivial=False, conservative_refutation_only=True,
            multiplier_set_exhaustive=False, n_directions=0, worst_value=None,
            witness_direction=None,
            notes=["candidate sits on the boundary of the polyhedral set; "
                   "the necessary test is skipped there"])
    if not first.zero_in_D or first.multipliers is None:
        raise ValueError("second-order tests need a successful first-order "
                         "necessary check")
    verts, dirs = _second_order_inputs(ctx, first)
    polyhedral = _all_polyhedral(ctx.problem)
    notes = _budget_notes(verts)
    if not dirs:
        return SecondOrderReport(
            mode="necessary", applicable=True, refuted=False, passed=True,
            critical_cone_trivial=True,
            conservative_refutation_only=not polyhedral,
            multiplier_set_exhaustive=verts.exhaustive,
            n_directions=0, worst_value=None, witness_direction=None,
            notes=notes + ["no nonzero critical directions found; the test "
                           "is vacuously satisfied"])
    _, worst, witness_dir = _worst_form(ctx.problem, ctx.x, verts, dirs)
    refuted = polyhedral and verts.exhaustive and worst < -EPS_CRIT
    if not polyhedral:
        notes.append("curved cone blocks present: the omitted curvature "
                     "term could rescue a negative form, so no refutation "
                     "is drawn")
    return SecondOrderReport(
        mode="necessary", applicable=True, refuted=refuted,
        passed=worst >= -EPS_CRIT, critical_cone_trivial=False,
        conservative_refutation_only=not polyhedral,
        multiplier_set_exhaustive=verts.exhaustive,
        n_directions=len(dirs), worst_value=worst,
        witness_direction=witness_dir, notes=notes)


def second_order_sufficient(ctx: PointContext,
                            first: NecessaryReport) -> SecondOrderReport:
    """Sampled sufficiency: every sampled critical direction must admit a
    multiplier pair with strictly positive quadratic form.  Sampling cannot
    prove positivity over the whole cone, so a pass is labelled sampled,
    and a failure refutes nothing: ``refuted`` is always false."""
    P = ctx.problem
    if not first.zero_in_D or first.multipliers is None:
        raise ValueError("second-order tests need a successful first-order "
                         "necessary check")
    verts, dirs = _second_order_inputs(ctx, first)
    notes = ["pass is over sampled directions only; it cannot certify the "
             "full critical cone"] + _budget_notes(verts)
    if not _all_polyhedral(P):
        notes.append("curvature terms are nonpositive here, so a positive "
                     "form without them implies the corrected condition for "
                     "second-order-regular cones")
    if not dirs:
        return SecondOrderReport(
            mode="sufficient", applicable=True, refuted=False, passed=True,
            critical_cone_trivial=True, conservative_refutation_only=False,
            multiplier_set_exhaustive=verts.exhaustive, n_directions=0,
            worst_value=None, witness_direction=None,
            notes=notes + ["critical cone sampling found only the origin"])
    best, worst, witness_dir = _worst_form(P, ctx.x, verts, dirs)
    return SecondOrderReport(
        mode="sufficient", applicable=True, refuted=False,
        passed=all(v > P.tolerances.eps_pos for v in best),
        critical_cone_trivial=False,
        conservative_refutation_only=False,
        multiplier_set_exhaustive=verts.exhaustive,
        n_directions=len(dirs), worst_value=worst,
        witness_direction=witness_dir, notes=notes)
