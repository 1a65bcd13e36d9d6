"""Second-order certificates: scenario-weight multipliers, Lagrangian
Hessians, and sampled quadratic-form tests over the critical cone.

Curvature corrections vanish for polyhedral cone blocks, so the quadratic
form alone decides necessity there; with second-order-cone or matrix
blocks present the correction is omitted and a negative form no longer
refutes, which the reports flag explicitly.  Positivity of the form on the
critical cone is sufficient regardless of the cone types.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.spatial.distance import cdist

from . import expr as ex
from .cones import KeptRows, row_norms
from .firstorder import (DEFAULT_BUDGET, CombinatorialBudgetExceeded,
                         MultiplierWitness, NecessaryReport,
                         _assemble_witness, _budgeted_chunks,
                         _witness_residual, directional_derivatives)
from .geometry import PointContext
from .linkernel import SCREEN_CHUNK, rank, stacked_rank
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

    Supports of every size up to min(m, n) are tried, so vertices of
    degenerate systems (dependent equality rows) are not missed.  Each
    chunk of supports is screened first (``_support_screen``); the scalar
    test below still decides every support the screen lets through.  Every
    support counts against the budget; trying one more raises
    CombinatorialBudgetExceeded."""
    m = Aeq.shape[0]
    verts = []
    scale = max(1.0, float(np.linalg.norm(beq)))
    groups = ((size, combinations(range(n), size))
              for size in range(0, min(m, n) + 1))
    for _, chunk in _budgeted_chunks(groups, budget,
                                     "multiplier-vertex enumeration"):
        for support in _support_screen(Aeq, beq, chunk, verts, scale):
            B = Aeq[:, support] if support else np.zeros((m, 0))
            if support and rank(B) < len(support):
                continue
            if support:
                sol, *_ = np.linalg.lstsq(B, beq, rcond=None)
            else:
                sol = np.zeros(0)
            full = np.zeros(n)
            full[list(support)] = sol
            if np.any(full < -1e-9):
                continue
            if np.linalg.norm(Aeq @ full - beq) > 1e-8 * scale:
                continue
            full = np.maximum(full, 0.0)
            if not any(np.linalg.norm(full - v) < 1e-8 for v in verts):
                verts.append(full)
    return verts


def _support_screen(Aeq, beq, chunk, verts, scale):
    """The supports of the chunk (all of one size) that the scalar test in
    ``_polytope_vertices`` could turn into a new vertex, in order.

    One stacked SVD drops the rank-deficient supports; it is the scalar
    rank test, bit for bit.  A stacked QR solve of the rest gives basic
    solutions w that differ from the scalar least-squares ones by at most
    delta, a perturbation bound (Wedin) built from each support's
    condition number.  A support is dropped only when, even moved by
    delta, its residual misses beq, an entry of w lies below -1e-9, or its
    vertex repeats one already kept.  The last covers supports whose
    basic solution has a (near) zero entry: in exact arithmetic their
    vertex is that of the smaller support without it, found earlier."""
    if not chunk or not chunk[0]:
        return chunk
    k = len(chunk[0])
    m, n = Aeq.shape
    idx = np.array(chunk)
    B = Aeq[:, idx].transpose(1, 0, 2)
    ranks, sigma = stacked_rank(B)
    keep = np.flatnonzero(ranks == k)
    if not len(keep):
        return []
    idx, B, sigma = idx[keep], B[keep], sigma[keep]
    Q, R = np.linalg.qr(B)
    w = np.linalg.solve(R, Q.transpose(0, 2, 1) @ beq[:, None])[..., 0]
    resid = np.linalg.norm((B @ w[..., None])[..., 0] - beq, axis=1)
    # backward error of Householder QR and of the SVD least-squares solve,
    # relative to |B|, with room for the rounding of the norms compared
    unit = 16.0 * (m + 1) * (n + 1) * np.finfo(float).eps
    smax = sigma[:, 0]
    kappa = smax / sigma[:, -1]
    tilt = unit * kappa
    wnorm = np.linalg.norm(w, axis=1)
    bound = 4.0 * tilt / (1.0 - tilt) * (2.0 * wnorm
                                         + (kappa + 1.0) * resid / smax)
    delta = np.where(tilt < 0.5, bound + unit * wnorm, np.inf)
    drop = (resid - smax * delta - unit * (smax * wnorm + scale)
            > 1e-8 * scale)
    drop |= np.min(w, axis=1) + delta < -1e-9
    if verts:
        cand = np.zeros((len(idx), n))
        np.put_along_axis(cand, idx, np.maximum(w, 0.0), axis=1)
        near = cdist(cand, np.array(verts)).min(axis=1)
        drop |= (near + delta) * (1.0 + unit) < 1e-8
    return [chunk[j] for j, dropped in zip(keep, drop) if not dropped]


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
    cols = list(G.grads_F) + list(G.eta) + list(G.nA)
    n = len(cols)
    m = len(G.grads_F)
    Aeq = np.zeros((P.d + 1, n))
    for j, v in enumerate(cols):
        Aeq[:P.d, j] = v
    Aeq[P.d, :m] = 1.0
    beq = np.zeros(P.d + 1)
    beq[P.d] = 1.0
    try:
        verts = _polytope_vertices(Aeq, beq, n)
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
    axes = np.repeat(np.eye(d), 2, axis=0)
    axes[1::2] *= -1.0
    candidates = [axes]
    rows = [np.asarray(v, dtype=float) for v in G.grads_F]
    rows += [np.asarray(v, dtype=float) for v in G.eta]
    rows += [np.asarray(v, dtype=float) for v in G.nA]
    if rows:
        M = np.vstack(rows)
        _, s, Vt = np.linalg.svd(M)
        null = Vt[int(np.sum(s > 1e-10)):]
        candidates.append(np.stack([null, -null], axis=1).reshape(-1, d))
    rng = np.random.default_rng(ctx.sampling.seed + 307)
    candidates.append(rng.standard_normal((N_CRITICAL_DIRS, d)))
    H = np.vstack(candidates)
    norms = row_norms(H)
    usable = ~(norms < 1e-12)
    H = H[usable] / norms[usable, None]
    flat = ~(np.abs(directional_derivatives(G.grads_F, H)) > EPS_CRIT)
    out, kept = [], KeptRows(d)
    for h in H[ctx.tester.accepted(H) & flat]:
        if not kept.near(h, 1e-9):
            kept.append(h)
            out.append(h)
    return out


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
