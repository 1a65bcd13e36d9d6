"""First-order certificates: cadres, alternance, multipliers, penalties.

The determinant test and the positive-combination test are two faces of the
same certificate; both are always computed and cross-checked before a cadre
is reported.  The membership and interior tests run on the finite generator
families; for sampled families (second-order-cone apexes, matrix cones) a
failed search is reported as sampling-limited rather than as a refutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import combinations, islice

import numpy as np

from . import expr as ex
from .cones import KeptRows, builtin_max, pair_dots, row_norms
from .geometry import GeneratorSet, PointContext, Provenance, block_distances
from .linkernel import (SCREEN_CHUNK, det, lp_chebyshev_center,
                        lp_membership, rank, simplex_checked,
                        solve_positive_combination, stacked_rank)
from .problem import (BLOCK_CLASSES, NlpIneq, Problem, SemiInfinite,
                      activity, evaluate_objective)

__all__ = [
    "Cadre", "AlternanceFailure", "Zbasis", "MultiplierWitness",
    "CombinatorialBudgetExceeded", "NotFeasible",
    "verify_alternance", "find_cadre", "directional_derivatives",
    "necessary_check", "sufficient_check",
    "penalty_value", "penalty_subdiff_check", "semiinfinite_discretize",
    "NecessaryReport", "SufficientReport", "PenaltyReport",
]

DEFAULT_BUDGET = 10 ** 6
# sampled unit directions behind the sufficient check's growth estimate
GROWTH_SAMPLES = 256


class CombinatorialBudgetExceeded(Exception):
    def __init__(self, subsets_tried: int, search: str = "cadre search"):
        self.subsets_tried = subsets_tried
        super().__init__(f"{search} budget exhausted after "
                         f"{subsets_tried} subsets")


class NotFeasible(Exception):
    pass


def _budgeted_chunks(groups, budget: int, search: str):
    """The subsets of each (key, subsets) group, in order, as (key, chunk)
    pairs of at most SCREEN_CHUNK subsets of one group; the budget search
    of ``find_cadre`` and ``_polytope_vertices``.  Every subset handed out
    counts against the budget.  The one after the budget's last is never
    handed out: asking for it raises CombinatorialBudgetExceeded with
    subsets_tried == budget + 1."""
    tried = 0
    for key, subsets in groups:
        while chunk := list(islice(subsets,
                                   min(SCREEN_CHUNK, budget - tried + 1))):
            # the subset after the budget's last is never tried
            over = tried + len(chunk) > budget
            if over:
                chunk.pop()
            yield key, chunk
            tried += len(chunk)
            if over:
                raise CombinatorialBudgetExceeded(tried + 1, search)


@dataclass(frozen=True)
class Zbasis:
    """d linearly independent padding vectors; canonical basis by default."""

    vectors: tuple

    @staticmethod
    def canonical(d: int) -> "Zbasis":
        return Zbasis(tuple(tuple(row) for row in np.eye(d)))

    def as_arrays(self):
        return [np.asarray(v, dtype=float) for v in self.vectors]


@dataclass
class Cadre:
    """A p-point cadre / alternance certificate.

    vectors[0:k0] come from the objective subdifferential, vectors[k0:i0]
    from the cone-constraint normal cone, vectors[i0:p] from the normal
    cone of the polyhedral set.  multipliers are the positive combination
    weights (first one normalized to 1); determinants are the padded
    d+1 alternating determinant sequence.
    """

    p: int
    k0: int
    i0: int
    flavor: str                  # 'plain' | 'generalised' | 'weak'
    vectors: list
    provenance: list
    multipliers: np.ndarray
    padding: list
    determinants: np.ndarray
    residual: float

    @property
    def complete(self) -> bool:
        return self.p == len(self.vectors[0]) + 1

    def to_json(self):
        return {
            "p": self.p, "k0": self.k0, "i0": self.i0, "flavor": self.flavor,
            "complete": self.complete,
            "vectors": [list(map(float, v)) for v in self.vectors],
            "provenance": [pr.to_json() if isinstance(pr, Provenance) else pr
                           for pr in self.provenance],
            "multipliers": [float(b) for b in self.multipliers],
            "padding": [list(map(float, v)) for v in self.padding],
            "determinants": [float(x) for x in self.determinants],
            "residual": self.residual,
        }


@dataclass
class AlternanceFailure:
    reason: str        # 'RankDeficient'|'SignPatternViolated'|
                       # 'NonzeroTailDeterminant'|'MultiplierMismatch'
    index: int | None = None

    def __str__(self):
        if self.index is None:
            return self.reason
        return f"{self.reason} at s={self.index}"


def verify_alternance(vectors, k0: int | None = None, i0: int | None = None,
                      Z: Zbasis | None = None, eps_det: float = 1e-8,
                      flavor: str = "plain", provenance=None):
    """Check the alternating-determinant conditions for the given vectors.

    Pads with vectors from Z (chosen greedily so the trailing columns stay
    independent), computes the d+1 determinants of the matrices that drop
    one column each, and demands strictly alternating signs through p and
    vanishing determinants beyond.  On success the multipliers recovered by
    Cramer's rule are cross-checked against the positive-combination solve.
    """
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    p = len(vecs)
    if p == 0:
        raise ValueError("need at least one vector")
    d = vecs[0].shape[0]
    if not 1 <= p <= d + 1:
        raise ValueError(f"p must lie in 1..{d + 1}")
    k0 = p if k0 is None else k0
    i0 = p if i0 is None else i0
    if not (1 <= k0 <= p and k0 <= i0 <= p):
        raise ValueError("need 1 <= k0 <= i0 <= p")
    Z = Z or Zbasis.canonical(d)

    # greedy padding keeping V_2..V_{d+1} linearly independent
    tail = vecs[1:]
    padding = []
    for z in Z.as_arrays():
        if len(tail) == d:
            break
        if not tail:
            tail = [z]
            padding.append(z)
            continue
        trial = np.column_stack(tail + [z])
        if rank(trial) == len(tail) + 1:
            tail.append(z)
            padding.append(z)
    if len(tail) != d or rank(np.column_stack(tail)) < d:
        return AlternanceFailure("RankDeficient")

    cols = [vecs[0]] + tail  # V_1 .. V_{d+1}
    deltas = np.empty(d + 1)
    for s in range(d + 1):
        M = np.column_stack([cols[j] for j in range(d + 1) if j != s])
        deltas[s] = det(M)

    scale = max(1.0, float(np.max(np.abs(deltas))))
    thresh = eps_det * scale
    for s in range(p):
        if abs(deltas[s]) <= thresh:
            return AlternanceFailure("SignPatternViolated", s + 1)
        if s > 0 and np.sign(deltas[s]) != -np.sign(deltas[s - 1]):
            return AlternanceFailure("SignPatternViolated", s + 1)
    for s in range(p, d + 1):
        if abs(deltas[s]) > thresh:
            return AlternanceFailure("NonzeroTailDeterminant", s + 1)

    beta = np.array([(-1) ** s * deltas[s] / deltas[0] for s in range(p)])
    beta[0] = 1.0
    combo = solve_positive_combination(vecs)
    if combo is None:
        return AlternanceFailure("MultiplierMismatch")
    denom = np.maximum(np.abs(beta), 1.0)
    if np.max(np.abs(combo - beta) / denom) > 1e-8:
        return AlternanceFailure("MultiplierMismatch")
    residual = float(np.linalg.norm(
        np.column_stack(vecs) @ combo))
    if provenance is None:
        provenance = [Provenance("unspecified")] * p
    return Cadre(p=p, k0=k0, i0=i0, flavor=flavor, vectors=vecs,
                 provenance=list(provenance), multipliers=combo,
                 padding=padding, determinants=deltas, residual=residual)


# ---------------------------------------------------------------------------
# cadre search
# ---------------------------------------------------------------------------

_AUX_PAIR_CAP = 24


def _unit_rows(pool) -> KeptRows:
    units = KeptRows(len(pool[0]))
    for v in pool:
        norm = np.linalg.norm(v)
        if norm > 0:
            units.append(v / norm)
    return units


def _dedup_push(pool, prov, units: KeptRows, vec, pr):
    """Append vec unless its direction repeats one in the pool, whose unit
    vectors ``units`` holds."""
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        return
    unit = vec / norm
    if units.near(unit, 1e-12):
        return
    units.append(unit)
    pool.append(vec)
    prov.append(pr)


def _cone_pool(base, base_prov, generalised: bool):
    pool = [np.asarray(v, dtype=float) for v in base]
    prov = list(base_prov)
    if not generalised or len(base) < 2 or len(base) > _AUX_PAIR_CAP:
        return pool, prov
    n = len(base)
    units = _unit_rows(pool)
    for i, j in combinations(range(n), 2):
        _dedup_push(pool, prov, units, pool[i] + pool[j],
                    Provenance("aux_sum", detail=(i, j)))
    total = np.sum([np.asarray(v, dtype=float) for v in base], axis=0)
    _dedup_push(pool, prov, units, total,
                Provenance("aux_sum", detail=tuple(range(n))))
    return pool, prov


def _greedy_independent(vectors):
    chosen = []
    for v in vectors:
        if len(chosen) == len(v):
            break
        trial = np.column_stack(chosen + [v]) if chosen else np.asarray(
            v, dtype=float).reshape(-1, 1)
        if rank(trial) == len(chosen) + 1:
            chosen.append(np.asarray(v, dtype=float))
    return chosen


def _hull_pool(grads, grads_prov, generalised: bool):
    pool = [np.asarray(v, dtype=float) for v in grads]
    prov = list(grads_prov)
    if not generalised or not pool:
        return pool, prov
    zero = np.zeros_like(pool[0])
    if lp_membership(zero, pool) is None:
        return pool, prov
    S = _greedy_independent(pool)
    if not S:
        return pool, prov
    aux = -np.mean(S, axis=0)
    if np.linalg.norm(aux) < 1e-12:
        return pool, prov
    if lp_membership(aux, pool) is not None:
        _dedup_push(pool, prov, _unit_rows(pool), aux, Provenance("aux_hull"))
    return pool, prov


def _subsets(n_grads, n_eta, n_na, k0, e, a):
    """Index tuples into the joined pool (objective gradients, then cone
    generators, then polyhedral-set generators), in enumeration order."""
    eta = range(n_grads, n_grads + n_eta)
    na = range(n_grads + n_eta, n_grads + n_eta + n_na)
    for gi in combinations(range(n_grads), k0):
        for ei in combinations(eta, e):
            for ai in combinations(na, a):
                yield gi + ei + ai


def find_cadre(G: GeneratorSet, flavor: str = "plain", p_min: int = 1,
               p_max: int | None = None, Z: Zbasis | None = None,
               eps_det: float = 1e-8, budget: int = DEFAULT_BUDGET):
    """Search for a cadre over the generator families, smallest p first.

    Subsets are enumerated deterministically: objective gradients first
    (as many as possible), then cone-constraint generators, then
    polyhedral-set generators, each segment in index order.  The
    generalised flavor extends the pools with verified interior points
    (sums of generators within one cone; a checked hull point); the weak
    flavor merges the two cone segments and adds their pairwise sums.
    Subsets are screened in chunks by one stacked rank computation; only
    those of rank p-1, which the positive-combination test demands, go on
    to it and to the alternance test, in enumeration order.  Every subset
    counts against the budget.  Returns the first cadre found or None.
    """
    if flavor not in ("plain", "generalised", "weak"):
        raise ValueError(f"unknown flavor {flavor!r}")
    d = G.d
    p_max = d + 1 if p_max is None else min(p_max, d + 1)
    if p_min > p_max:
        return None
    # both relaxed flavors draw the leading segment from the whole
    # subdifferential, so both get the verified hull point
    generalised = flavor in ("generalised", "weak")
    grads, grads_prov = _hull_pool(G.grads_F, G.grads_prov, generalised)
    if not grads:
        return None
    if flavor == "weak":
        merged = list(G.eta) + list(G.nA)
        merged_prov = list(G.eta_prov) + list(G.nA_prov)
        eta_pool, eta_prov = _cone_pool(merged, merged_prov, True)
        na_pool, na_prov = [], []
    else:
        aux = flavor == "generalised"
        eta_pool, eta_prov = _cone_pool(G.eta, G.eta_prov, aux)
        na_pool, na_prov = _cone_pool(G.nA, G.nA_prov, aux)
    pool = grads + eta_pool + na_pool
    pool_prov = grads_prov + eta_prov + na_prov
    stacked = np.array(pool)
    sizes = (len(grads), len(eta_pool), len(na_pool))
    groups = (((p, k0, e), _subsets(*sizes, k0, e, p - k0 - e))
              for p in range(p_min, p_max + 1)
              for k0 in range(min(p, len(grads)), 0, -1)
              for e in range(min(p - k0, len(eta_pool)), -1, -1)
              if p - k0 - e <= len(na_pool))
    for (p, k0, e), chunk in _budgeted_chunks(groups, budget,
                                              "cadre search"):
        for sub in _rank_screen(stacked, chunk, p):
            vecs = [pool[i] for i in sub]
            if solve_positive_combination(vecs) is None:
                continue
            result = verify_alternance(
                vecs, k0=k0, i0=k0 + e, Z=Z, eps_det=eps_det, flavor=flavor,
                provenance=[pool_prov[i] for i in sub])
            if isinstance(result, Cadre):
                return result
    return None


def _rank_screen(stacked, chunk, p):
    """The subsets of the chunk whose vectors (rows of ``stacked``) have
    rank p - 1, in order.  A single vector passes only when it is zero,
    and that test is relative to its own norm, so p = 1 is not screened."""
    if p == 1 or not chunk:
        return chunk
    mats = stacked[np.array(chunk)].transpose(0, 2, 1)
    ranks, _ = stacked_rank(mats)
    return [chunk[j] for j in np.flatnonzero(ranks == p - 1)]


# ---------------------------------------------------------------------------
# multiplier reconstruction
# ---------------------------------------------------------------------------


@dataclass
class MultiplierWitness:
    """Structured dual data reassembled from membership-LP weights.

    ``duals`` maps a block's position to the block and its dual, whose
    form the block defines (see ``problem``)."""

    alpha: list                  # (scenario_index, sign, weight)
    duals: dict = field(default_factory=dict)   # position -> (block, dual)
    nA: list = field(default_factory=list)      # (provenance, weight)
    stationarity_residual: float = math.nan

    def block_duals(self):
        """(position, block, dual) for each block this witness has a dual
        for, in block order."""
        for pos in sorted(self.duals):
            yield (pos, *self.duals[pos])

    def cone_gradient(self, P: Problem, x) -> np.ndarray:
        """Gradient of the dual pairing: sum over blocks of
        <dual, G_block(x)>."""
        total = np.zeros(P.d)
        for _, blk, dual in self.block_duals():
            total = total + blk.dual_gradient(x, dual)
        return total

    def lambda_l1(self) -> float:
        """l1 size of the cone-constraint dual (used as a penalty threshold)."""
        return sum((blk.dual_size(dual)
                    for _, blk, dual in self.block_duals()), 0.0)

    def to_json(self):
        out = {"alpha": [{"scenario": s, "sign": sg, "weight": w}
                         for s, sg, w in self.alpha]}
        # one table per block kind, each keyed by block position
        for cls in BLOCK_CLASSES:
            out[cls.kind] = {str(b): blk.dual_to_json(dual)
                             for b, (blk, dual) in self.duals.items()
                             if blk.kind == cls.kind}
        out["nA"] = [{"prov": pr.to_json(), "weight": w} for pr, w in self.nA]
        out["stationarity_residual"] = self.stationarity_residual
        return out


def _assemble_witness(ctx: PointContext, G: GeneratorSet,
                      lam, mu) -> MultiplierWitness:
    w = MultiplierWitness(alpha=[(pr.index, pr.sign, float(l))
                                 for pr, l in zip(G.grads_prov, lam) if l > 0])
    n_eta = len(G.eta)
    for k, weight in enumerate(mu):
        if weight <= 0:
            continue
        weight = float(weight)
        if k < n_eta:
            pr = G.eta_prov[k]
            blk = ctx.problem.blocks[pr.block]
            _, dual = w.duals.get(pr.block, (blk, None))
            w.duals[pr.block] = (blk, blk.add_dual(dual, pr,
                                                   weight * G.eta_dual[k]))
        else:
            w.nA.append((G.nA_prov[k - n_eta], weight))
    return w


def _witness_residual(P: Problem, x, w: MultiplierWitness,
                      squared: bool = False) -> float:
    """Recompute the stationarity residual from the structured duals."""
    x = np.asarray(x, dtype=float)
    total = np.zeros(P.d)
    for scen, sign, weight in w.alpha:
        dual = ex.eval2(P.scenarios[scen - 1], x)
        grad = dual.grad
        if P.kind == "chebyshev":
            grad = ((dual.value - P.psi[scen - 1]) * dual.grad
                    if squared else sign * dual.grad)
        total = total + weight * grad
    total = total + w.cone_gradient(P, x)
    for pr, weight in w.nA:
        vec = np.zeros(P.d)
        if pr.kind == "bound":
            vec[pr.index] = float(pr.sign)
        elif pr.kind == "set_eq":
            vec = pr.sign * np.asarray(P.set_A.E[pr.index], dtype=float)
        total = total + weight * vec
    return float(np.linalg.norm(total))


def witness_from_json(P: Problem, data) -> MultiplierWitness:
    """Rebuild a multiplier witness of the problem P from its JSON form."""
    def _prov(d):
        return Provenance(kind=d["kind"], block=d.get("block"),
                          index=d.get("index"), sign=d.get("sign", 1),
                          detail=tuple(d.get("detail", ())))
    duals = {}
    for cls in BLOCK_CLASSES:
        for b, dual in data[cls.kind].items():
            blk = P.blocks[int(b)]
            if blk.kind != cls.kind:
                raise ValueError(f"block {b} is {blk.kind}, not {cls.kind}")
            duals[int(b)] = (blk, blk.dual_from_json(dual))
    return MultiplierWitness(
        alpha=[(rec["scenario"], rec["sign"], rec["weight"])
               for rec in data["alpha"]],
        duals=duals,
        nA=[(_prov(rec["prov"]), rec["weight"]) for rec in data["nA"]],
        stationarity_residual=data.get("stationarity_residual", math.nan))


def reverify_report(P: Problem, report: dict, eps: float = 1e-8) -> dict:
    """Re-check the witnesses attached to a serialized report.

    Recomputes the cadre combination residual and determinant sequence and
    the multiplier stationarity residual from scratch; used by the JSON
    round-trip tests and by consumers of stored reports."""
    x = np.asarray(report["candidate"], dtype=float)
    out = {"ok": True, "checks": []}

    def _cadre_ok(data):
        vecs = [np.asarray(v, dtype=float) for v in data["vectors"]]
        beta = np.asarray(data["multipliers"], dtype=float)
        resid = float(np.linalg.norm(np.column_stack(vecs) @ beta))
        scale = max(1.0, max(np.linalg.norm(v) for v in vecs))
        again = verify_alternance(vecs, k0=data["k0"], i0=data["i0"],
                                  flavor=data["flavor"])
        dets_match = (isinstance(again, Cadre) and np.allclose(
            again.determinants, data["determinants"], atol=1e-7,
            rtol=1e-7))
        return resid <= eps * scale and dets_match, resid

    nec = report.get("necessary") or {}
    if nec.get("cadre"):
        ok, resid = _cadre_ok(nec["cadre"])
        out["checks"].append({"what": "necessary.cadre", "ok": ok,
                              "residual": resid})
    suf = report.get("sufficient") or {}
    if suf.get("complete_alternance"):
        ok, resid = _cadre_ok(suf["complete_alternance"])
        out["checks"].append({"what": "sufficient.complete_alternance",
                              "ok": ok, "residual": resid})
    if nec.get("multipliers"):
        w = witness_from_json(P, nec["multipliers"])
        resid = _witness_residual(P, x, w)
        out["checks"].append({"what": "necessary.multipliers",
                              "ok": resid <= 1e-7, "residual": resid})
    fl = report.get("flavor_search") or {}
    if fl.get("cadre"):
        ok, resid = _cadre_ok(fl["cadre"])
        out["checks"].append({"what": "flavor_search.cadre", "ok": ok,
                              "residual": resid})
    out["ok"] = all(c["ok"] for c in out["checks"])
    return out


# ---------------------------------------------------------------------------
# first-order checks
# ---------------------------------------------------------------------------


def directional_derivatives(grads, H) -> np.ndarray:
    """max over v in grads of <v, h>, for each row h of H."""
    return builtin_max(pair_dots(H, np.array(grads, dtype=float)).T)


@dataclass
class NecessaryReport:
    feasible: bool
    zero_in_D: bool
    multipliers: MultiplierWitness | None
    cadre: Cadre | None
    agreement: bool
    sampling_limited: bool
    budget_exceeded: bool
    generators: GeneratorSet

    def to_json(self):
        return {
            "feasible": self.feasible,
            "zero_in_D": self.zero_in_D,
            "multipliers": self.multipliers.to_json() if self.multipliers else None,
            "cadre": self.cadre.to_json() if self.cadre else None,
            "agreement": self.agreement,
            "sampling_limited": self.sampling_limited,
            "budget_exceeded": self.budget_exceeded,
        }


def _feasible_context(ctx: PointContext) -> None:
    """Raise NotFeasible unless the context's point is feasible."""
    if not ctx.feasibility.feasible:
        raise NotFeasible(f"candidate violates constraints by "
                          f"{ctx.feasibility.max_violation:.3g}")


def necessary_check(ctx: PointContext,
                    squared: bool = False) -> NecessaryReport:
    """Membership test 0 in D(x) with multiplier and cadre witnesses."""
    _feasible_context(ctx)
    P = ctx.problem
    G = ctx.squared if squared else ctx.generators
    weights = lp_membership(np.zeros(P.d), G.grads_F, list(G.eta) + list(G.nA))
    witness = None
    zero_in_D = weights is not None
    if zero_in_D:
        lam, mu = weights
        witness = _assemble_witness(ctx, G, lam, mu)
        witness.stationarity_residual = _witness_residual(
            P, ctx.x, witness, squared=squared)
        if witness.stationarity_residual > 1e-8 * max(
                1.0, max(np.linalg.norm(v) for v in G.grads_F)):
            # never report an unverified witness
            zero_in_D = False
            witness = None
    cadre = None
    budget_exceeded = False
    try:
        cadre = find_cadre(G, "plain", eps_det=P.tolerances.eps_det)
    except CombinatorialBudgetExceeded:
        budget_exceeded = True
    agreement = (cadre is not None) == zero_in_D
    sampling_limited = G.sampled and (not zero_in_D or not agreement)
    return NecessaryReport(feasible=True, zero_in_D=zero_in_D,
                           multipliers=witness, cadre=cadre,
                           agreement=agreement,
                           sampling_limited=sampling_limited,
                           budget_exceeded=budget_exceeded, generators=G)


@dataclass
class SufficientReport:
    zero_in_int_D: bool
    margin: float
    radius: float
    complete_alternance: Cadre | None
    growth_constant_estimate: float | None
    estimate_only: bool
    sampling_limited: bool
    budget_exceeded: bool

    def to_json(self):
        def _num(v):
            return None if v is None else float(v)
        return {
            "zero_in_int_D": self.zero_in_int_D,
            "margin": _num(self.margin),
            "radius": _num(self.radius),
            "complete_alternance": (self.complete_alternance.to_json()
                                    if self.complete_alternance else None),
            "growth_constant_estimate": _num(self.growth_constant_estimate),
            "estimate_only": self.estimate_only,
            "sampling_limited": self.sampling_limited,
            "budget_exceeded": self.budget_exceeded,
        }


def sufficient_check(ctx: PointContext,
                     squared: bool = False) -> SufficientReport:
    """Interior test 0 in int D(x) with a certified ball radius.

    The reported radius is margin/sqrt(d): the common margin over the 2d
    signed axis directions spans an l1 ball inside the generated set, and
    that ball contains the Euclidean ball of radius margin/sqrt(d).
    """
    _feasible_context(ctx)
    P = ctx.problem
    G = ctx.squared if squared else ctx.generators
    cone = list(G.eta) + list(G.nA)
    interior = lp_chebyshev_center(G.grads_F, cone, d=P.d)
    margin = interior.margin if interior.feasible else 0.0
    radius = 0.0
    if interior.feasible:
        radius = math.inf if math.isinf(margin) else margin / math.sqrt(P.d)
    verdict = interior.feasible and margin > P.tolerances.eps_pos

    complete = None
    budget_exceeded = False
    try:
        complete = find_cadre(G, "generalised", p_min=P.d + 1,
                              eps_det=P.tolerances.eps_det)
    except CombinatorialBudgetExceeded:
        budget_exceeded = True

    growth, _ = _min_feasible_slope(ctx, G.grads_F, GROWTH_SAMPLES,
                                    ctx.sampling.seed + 101)
    sampling_limited = G.sampled and not verdict
    return SufficientReport(zero_in_int_D=verdict, margin=margin,
                            radius=radius, complete_alternance=complete,
                            growth_constant_estimate=growth,
                            estimate_only=True,
                            sampling_limited=sampling_limited,
                            budget_exceeded=budget_exceeded)


def _min_feasible_slope(ctx: PointContext, grads, n_samples: int, seed: int):
    """Sampled lower envelope of the linearized growth: the least, over
    sampled linearized-feasible unit h, of max <v, h>, and the number of
    feasible samples."""
    H = np.random.default_rng(seed).standard_normal((n_samples,
                                                     ctx.problem.d))
    norms = row_norms(H)
    usable = ~(norms < 1e-12)
    H = H[usable] / norms[usable, None]
    H = H[ctx.tester.accepted(H)]
    if not len(H):
        return None, 0
    best = min(directional_derivatives(grads, H).tolist())
    return best, len(H)


# ---------------------------------------------------------------------------
# penalty function
# ---------------------------------------------------------------------------


def penalty_value(P: Problem, x, c: float) -> float:
    """F(x) + c * dist(G(x), K) in the block norms."""
    if c < 0:
        raise ValueError("penalty parameter must be nonnegative")
    x = np.asarray(x, dtype=float)
    F, _ = evaluate_objective(P, x)
    return F + c * float(sum(block_distances(P, x)))


def _penalty_groups(P: Problem, G: GeneratorSet):
    """Generator groups of the penalty-term subdifferential at a feasible x:
    the normal-cone generators with unit-norm duals, one group per scalar
    constraint of a separable block and one per other block.  The convex
    weights within a group may total at most 1."""
    groups = {}
    for v, pr, dual in zip(G.eta, G.eta_prov, G.eta_dual):
        key = (pr.block, pr.index if P.blocks[pr.block].separable else None)
        groups.setdefault(key, []).append(v / np.linalg.norm(dual))
    return list(groups.values())


@dataclass
class PenaltyReport:
    c: float
    value: float
    zero_in_subdiff: bool
    verified_at_2c: bool | None

    def to_json(self):
        return {"c": self.c, "value": self.value,
                "zero_in_subdiff": self.zero_in_subdiff,
                "verified_at_2c": self.verified_at_2c}


def _penalty_inclusion(P, c, G, groups) -> bool:
    """Feasibility of 0 = sum(alpha grad_F) + c*sum(group weights) + cone(nA)
    with convex alpha and per-group total weight at most 1."""
    d = P.d
    nh = len(G.grads_F)
    if nh == 0:
        return False
    cols = []
    cols.extend(np.asarray(v, dtype=float) for v in G.grads_F)
    group_spans = []
    for vecs in groups:
        start = len(cols)
        cols.extend(c * np.asarray(v, dtype=float) for v in vecs)
        group_spans.append((start, len(cols)))
    na_start = len(cols)
    cols.extend(np.asarray(v, dtype=float) for v in G.nA)
    n_core = len(cols)
    n_slack = len(group_spans)
    n = n_core + n_slack
    m = d + 1 + len(group_spans)
    A = np.zeros((m, n))
    b = np.zeros(m)
    for j, v in enumerate(cols):
        A[:d, j] = v
    A[d, :nh] = 1.0
    b[d] = 1.0
    for gidx, (s, t) in enumerate(group_spans):
        A[d + 1 + gidx, s:t] = 1.0
        A[d + 1 + gidx, n_core + gidx] = 1.0
        b[d + 1 + gidx] = 1.0
    return simplex_checked(np.zeros(n), A, b).status == "optimal"


def penalty_subdiff_check(ctx: PointContext, c: float) -> PenaltyReport:
    """Inclusion 0 in subdiff(F + c dist)(x) + N_A(x) at a feasible x;
    when it holds, it is checked at 2c as well."""
    if c < 0:
        raise ValueError("penalty parameter must be nonnegative")
    _feasible_context(ctx)
    P = ctx.problem
    G = ctx.generators
    groups = _penalty_groups(P, G)
    ok = _penalty_inclusion(P, c, G, groups)
    double = None
    if ok:
        double = _penalty_inclusion(P, 2 * c, G, groups)
    return PenaltyReport(c=c, value=penalty_value(P, ctx.x, c),
                         zero_in_subdiff=ok, verified_at_2c=double)


# ---------------------------------------------------------------------------
# semi-infinite discretization
# ---------------------------------------------------------------------------


def semiinfinite_discretize(P: Problem, x):
    """Replace each semi-infinite block by plain inequalities at its active
    grid points (at most d+1 per block, largest gradient norm first on
    overflow).  Returns (problem, actions) where actions records dropped
    and capped blocks."""
    x = np.asarray(x, dtype=float)
    act = activity(P, x)
    new_blocks = []
    actions = []
    for ba, blk in zip(act.blocks, P.blocks):
        if not isinstance(blk, SemiInfinite):
            new_blocks.append(blk)
            continue
        if not ba.active:
            actions.append((ba.position, "dropped", []))
            continue
        chosen = list(ba.active)
        capped = False
        if len(chosen) > P.d + 1:
            norms = [float(np.linalg.norm(blk._grad(x, j))) for j in chosen]
            order = sorted(range(len(chosen)),
                           key=lambda k: (-norms[k], chosen[k]))
            chosen = sorted(chosen[k] for k in order[:P.d + 1])
            capped = True
        exprs = tuple(ex.substitute(blk.g, P.d + 1, blk.grid[j])
                      for j in chosen)
        new_blocks.append(NlpIneq(exprs))
        actions.append((ba.position, "capped" if capped else "kept",
                        [blk.grid[j] for j in chosen]))
    Q = replace(P, blocks=tuple(new_blocks), source=P.source + "#discretized")
    return Q, actions
