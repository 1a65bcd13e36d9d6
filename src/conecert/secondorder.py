"""Second-order certificates: scenario-weight multipliers, Lagrangian
Hessians, and sampled quadratic-form tests over the critical cone.

Along each sampled critical direction h the tests take the largest form
h'B(w)h over the multiplier set.  B(w) is linear in the weights w of the
combination system, so for polyhedral blocks that maximum is one LP per
direction, with no vertex enumeration.  Curvature corrections vanish for
polyhedral cone blocks, so the quadratic form alone decides necessity
there; with second-order-cone or matrix blocks present the correction is
omitted, the single reconstructed multiplier stands in for the set, and a
negative form no longer refutes, which the reports flag explicitly.
Positivity of the form on the critical cone is sufficient regardless of
the cone types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cones import Record, axis_directions, distinct_rows, unit_rows
from .firstorder import (MultiplierWitness, NecessaryReport,
                         _assemble_witness, _witness_residual,
                         directional_derivatives)
from .geometry import PointContext
from .problem import Problem, ScenarioJets

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


def hessian_bundle(jets: ScenarioJets, w: MultiplierWitness) -> np.ndarray:
    """Hessian of the witness's Lagrangian (``MultiplierWitness.lagrangian``)
    at the point of ``jets``: the objective Hessians weighted by its
    scenario weights, plus the second derivative of the pairing with its
    block duals."""
    return w.lagrangian(jets)[1]


# ---------------------------------------------------------------------------
# multiplier-set exploration
# ---------------------------------------------------------------------------


@dataclass
class MultiplierVertices:
    """Per direction, the largest quadratic form over the multiplier set,
    and the multiplier pairs that attain it.  Exhaustive for problems whose
    blocks are all polyhedral; otherwise, or when an LP or a witness check
    fails, the forms of the single reconstructed witness, flagged
    partial."""

    pairs: list            # MultiplierWitness per distinct maximiser
    values: list           # max h'B(w)h per direction; inf when unbounded
    exhaustive: bool


def _all_polyhedral(P: Problem) -> bool:
    return all(b.polyhedral for b in P.blocks)


def _form_maxima(ctx: PointContext, G, dirs):
    """Per direction h, max h'B(w)h over {w >= 0 : Aw = b}, the
    combination system of G, by one LP each: column j costs -h'H_j h,
    with H_j the Hessian of the unit weight on column j alone (0 for the
    nA columns).  The LPs re-optimise as one stack from ``G.tableau``,
    whose phase 1 the necessary check already ran and which does not read
    the cost, so each value is the one-shot LP's bit for bit.  An
    unbounded LP gives math.inf.  The witness of an optimal w must pass
    the residual test, checked once per support.  None when an LP or a
    witness fails."""
    m = len(G.grads_F)
    H = np.array([hessian_bundle(ctx.jets,
                                 _assemble_witness(ctx, G, e[:m], e[m:]))
                  for e in np.eye(G.tableau.A.shape[1])])
    D = np.array(dirs)
    Q = np.einsum("jab,ka,kb->kj", H, D, D)
    witnesses, values = {}, []
    for q, res in zip(Q, G.tableau.solve_stack(-Q)):
        if res.status == "unbounded":
            values.append(math.inf)
            continue
        if res.status != "optimal":
            return None
        support = tuple(np.flatnonzero(res.x > 0))
        if support not in witnesses:
            w = _assemble_witness(ctx, G, res.x[:m], res.x[m:])
            w.stationarity_residual = _witness_residual(ctx.jets, w)
            witnesses[support] = w
        if witnesses[support].stationarity_residual > 1e-7:
            return None
        values.append(float(q @ res.x))
    return MultiplierVertices(list(witnesses.values()), values, True)


def multiplier_vertices(ctx: PointContext, report: NecessaryReport,
                        dirs) -> MultiplierVertices:
    """The largest quadratic form along each direction of ``dirs`` over
    the multiplier set of ``report``'s generators, and the multiplier
    pairs, vertices of that set, that attain it (see ``_form_maxima``).
    With curved blocks, or when an LP fails, the single witness of
    ``report`` stands in, with ``exhaustive`` false."""
    P = ctx.problem
    if _all_polyhedral(P):
        found = _form_maxima(ctx, report.generators, dirs)
        if found is not None:
            return found
    w = report.multipliers
    B = hessian_bundle(ctx.jets, w)
    return MultiplierVertices([w], [float(h @ B @ h) for h in dirs], False)


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
    candidates = [axis_directions(d)]
    M = np.concatenate([np.reshape(G.grads_F, (-1, d)), G.cone])
    if len(M):
        null = _null_basis(M)
        candidates.append(np.stack([null, -null], axis=1).reshape(-1, d))
    rng = np.random.default_rng(ctx.sampling.seed + 307)
    candidates.append(rng.standard_normal((N_CRITICAL_DIRS, d)))
    H, _ = unit_rows(np.vstack(candidates), 1e-12)
    flat = ~(np.abs(directional_derivatives(G.grads_F, H)) > EPS_CRIT)
    H = H[ctx.tester.accepted(H) & flat]
    return list(H[distinct_rows(H, 1e-9)])


def _null_basis(M):
    """Orthonormal rows spanning the null space of the m x d matrix M: the
    right singular vectors past the singular values above 1e-10.  With
    m >= d the thin SVD has all d of them and builds no m x m factor."""
    _, s, Vt = np.linalg.svd(M, full_matrices=len(M) < M.shape[1])
    return Vt[int(np.sum(s > 1e-10)):]


@dataclass
class SecondOrderReport(Record):
    mode: str                      # 'necessary' | 'sufficient'
    applicable: bool
    refuted: bool = False
    passed: bool = False
    critical_cone_trivial: bool = False
    conservative_refutation_only: bool = False
    multiplier_set_exhaustive: bool = False
    n_directions: int = 0
    worst_value: float | None = None
    witness_direction: list | None = None
    notes: list = field(default_factory=list)


def _second_order_inputs(ctx: PointContext, first: NecessaryReport):
    """The sampled critical directions for the generator set of ``first``
    and the largest forms along them, computed once and kept on the set,
    so both second-order tests share them.  The set must be one of the
    context's, and ``first`` its necessary check, so the set alone names
    them.  Without a direction there is no multiplier work, and the
    multiplier set counts as exhaustive when every block is polyhedral."""
    if all(first.generators is not ctx.__dict__.get(name)
           for name in ("generators", "squared")):
        raise ValueError("the necessary report is not of this context")

    def compute():
        dirs = _critical_directions(ctx, first.generators)
        verts = (multiplier_vertices(ctx, first, dirs) if dirs else
                 MultiplierVertices(pairs=[], values=[],
                                    exhaustive=_all_polyhedral(ctx.problem)))
        return verts, dirs
    return first.generators.derived(("second_order",), compute)


def _worst_form(verts: MultiplierVertices, dirs):
    """The least of the largest forms along the directions, and a
    direction attaining it."""
    k = min(range(len(dirs)), key=verts.values.__getitem__)
    return verts.values[k], dirs[k].tolist()


def second_order_necessary(ctx: PointContext,
                           first: NecessaryReport) -> SecondOrderReport:
    """Sampled test: along every critical direction some multiplier pair
    must give a nonnegative quadratic form (polyhedral blocks only; with
    curved blocks a negative form cannot refute and is only reported)."""
    if len(first.generators.nA):   # x lies on the boundary of A
        return SecondOrderReport(
            mode="necessary", applicable=False,
            conservative_refutation_only=True,
            notes=["candidate sits on the boundary of the polyhedral set; "
                   "the necessary test is skipped there"])
    if not first.zero_in_D or first.multipliers is None:
        raise ValueError("second-order tests need a successful first-order "
                         "necessary check")
    verts, dirs = _second_order_inputs(ctx, first)
    polyhedral = _all_polyhedral(ctx.problem)
    if not dirs:
        return SecondOrderReport(
            mode="necessary", applicable=True, passed=True,
            critical_cone_trivial=True,
            conservative_refutation_only=not polyhedral,
            multiplier_set_exhaustive=verts.exhaustive,
            notes=["no nonzero critical directions found; the test is "
                   "vacuously satisfied"])
    worst, witness_dir = _worst_form(verts, dirs)
    refuted = polyhedral and verts.exhaustive and worst < -EPS_CRIT
    notes = [] if polyhedral else [
        "curved cone blocks present: the omitted curvature term could "
        "rescue a negative form, so no refutation is drawn"]
    return SecondOrderReport(
        mode="necessary", applicable=True, refuted=refuted,
        passed=worst >= -EPS_CRIT,
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
             "full critical cone"]
    if not _all_polyhedral(P):
        notes.append("curvature terms are nonpositive here, so a positive "
                     "form without them implies the corrected condition for "
                     "second-order-regular cones")
    if not dirs:
        return SecondOrderReport(
            mode="sufficient", applicable=True, passed=True,
            critical_cone_trivial=True,
            multiplier_set_exhaustive=verts.exhaustive,
            notes=notes + ["critical cone sampling found only the origin"])
    worst, witness_dir = _worst_form(verts, dirs)
    return SecondOrderReport(
        mode="sufficient", applicable=True,
        passed=all(v > P.tolerances.eps_pos for v in verts.values),
        multiplier_set_exhaustive=verts.exhaustive,
        n_directions=len(dirs), worst_value=worst,
        witness_direction=witness_dir, notes=notes)
