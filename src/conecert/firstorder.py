"""First-order certificates: cadres, alternance, multipliers, penalties.

The determinant test and the positive-combination test are two faces of the
same certificate: one solve decides the signs and gives the multipliers,
whose residual is checked before a cadre is reported.  The membership and
interior tests run on the finite generator families; for sampled families
(second-order-cone apexes, matrix cones) a failed search is reported as
sampling-limited rather than as a refutation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from itertools import chain, combinations, count

import numpy as np

from . import expr as ex
from .cones import (Record, SequenceChain, builtin_max, distinct_rows,
                    pair_dots, row_norms, unit_rows)
from .geometry import (GeneratorSet, PointContext, Provenance,
                       block_distances, nA_vector)
from .linkernel import (EPS_POS, EPS_RANK, SCREEN_CHUNK, combination_residual,
                        combination_system, lp_chebyshev_center,
                        lp_membership, positive_combinations, rank,
                        simplex_solve, stacked_rank)
from .problem import (BLOCK_CLASSES, NlpIneq, Problem, SemiInfinite,
                      activity, evaluate_objective, scenario_derivatives)

__all__ = [
    "Cadre", "AlternanceFailure", "MultiplierWitness",
    "CombinatorialBudgetExceeded", "NotFeasible",
    "verify_alternance", "find_cadre", "cadre_search",
    "directional_derivatives", "necessary_check", "sufficient_check",
    "penalty_value", "penalty_subdiff_check", "semiinfinite_discretize",
    "NecessaryReport", "SufficientReport", "PenaltyReport",
]

DEFAULT_BUDGET = 10 ** 6


class CombinatorialBudgetExceeded(Exception):
    def __init__(self, subsets_tried: int):
        self.subsets_tried = subsets_tried
        super().__init__(f"cadre search budget exhausted after "
                         f"{subsets_tried} subsets")


class NotFeasible(Exception):
    pass


def _prefix_walk(columns, groups, budget: int):
    """The subsets of each (key, segments) group, in order, as (key, block)
    pairs; the budgeted search of ``find_cadre``.

    A group's subsets take ``count`` increasing indices from each of its
    (start, stop, count) segments, range(start, stop), in turn, and come in
    lexicographic order.  A block holds at most SCREEN_CHUNK subsets of
    one group, one per row of an integer array.  The walk over the tree of
    index prefixes (``_prefix_tree``) drops every subset below a large
    subtree's linearly dependent prefix.  Every subset handed out or
    dropped counts against the budget.  The one after the budget's last
    is never handed out: asking for it raises CombinatorialBudgetExceeded
    with subsets_tried == budget + 1."""
    tried = 0
    for key, segments in groups:
        rest = np.empty((0, sum(c for _, _, c in segments)), dtype=np.intp)
        for part in _prefix_tree(columns, segments):
            size = part if isinstance(part, int) else len(part)
            over = tried + size > budget
            if not isinstance(part, int):
                rest = np.concatenate([rest, part[:budget - tried]])
            tried += size
            whole = len(rest) if over else len(rest) - len(rest) % SCREEN_CHUNK
            for start in range(0, whole, SCREEN_CHUNK):
                yield key, rest[start:start + SCREEN_CHUNK]
            rest = rest[whole:]
            if over:
                raise CombinatorialBudgetExceeded(budget + 1)
        if len(rest):
            yield key, rest


def _prefix_tree(columns, segments):
    """The subsets of one group (see ``_prefix_walk``) in order, as index
    blocks, with the size of each dropped subtree, an int, in its place.

    A node is an index prefix; its children extend it by one admissible
    index, and their subtrees shrink as that index grows.  The children
    whose subtree holds at least SCREEN_CHUNK subsets (a product of
    binomials) are checked together, by one stacked rank call on the rows
    of ``columns`` that each indexes.  A child whose vectors have less
    than full column rank (the EPS_RANK test) is dropped with its
    subtree, since no subset below it is linearly independent; the others
    are walked in turn.  The subtrees of the remaining, smaller children
    follow whole, as one block, unchecked."""
    # per index position: its segment, where a segment's first position
    # starts, the segment's stop and the positions left in it after this
    slots = [(s, start if k == 0 else None, stop, count - 1 - k)
             for s, (start, stop, count) in enumerate(segments)
             for k in range(count)]
    # the subsets of the segments after each one
    later = [math.prod(math.comb(stop - start, count)
                       for start, stop, count in segments[s + 1:])
             for s in range(len(segments))]
    todo = [("node", np.empty(0, dtype=np.intp))]
    while todo:
        kind, *item = todo.pop()
        if kind == "drop":
            yield item[0]
            continue
        if kind == "rest":
            # every subset below the prefix whose next index is at least lo
            prefix, lo = item
            s, _, stop, left = slots[len(prefix)]
            block = _combination_rows(lo, stop, left + 1)
            for segment in segments[s + 1:]:
                if segment[2]:
                    block = _joined(block, _combination_rows(*segment))
            yield _joined(prefix[None], block) if len(prefix) else block
            continue
        prefix, = item
        t = len(prefix)
        if t == len(slots):
            # the one, empty, subset of a group of no indices
            yield prefix[None]
            continue
        s, first, stop, left = slots[t]
        lo = prefix[-1] + 1 if first is None else first
        hi = stop - left

        def size(j):
            return math.comb(int(stop - j - 1), left) * later[s]
        mid = lo
        while mid < hi and size(mid) >= SCREEN_CHUNK:
            mid += 1
        # pushed last first, so the walk keeps the lexicographic order
        if mid < hi:
            todo.append(("rest", prefix, mid))
        if mid > lo:
            heads = np.column_stack([np.tile(prefix, (mid - lo, 1)),
                                     np.arange(lo, mid)])
            ranks = stacked_rank(columns[heads].transpose(0, 2, 1))
            for head, r in zip(heads[::-1], ranks[::-1]):
                todo.append(("node", head) if r == t + 1
                            else ("drop", size(head[-1])))


def _joined(a, b):
    """Each row of a joined with each row of b, in order."""
    return np.hstack([np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1))])


def _combination_rows(start, stop, r: int):
    """combinations(range(start, stop), r), in order, as the rows of an
    integer array."""
    n = math.comb(int(stop - start), r)
    flat = chain.from_iterable(combinations(range(start, stop), r))
    return np.fromiter(flat, dtype=np.intp, count=n * r).reshape(n, r)


@dataclass
class Cadre(Record):
    """A p-point cadre / alternance certificate.

    vectors[0:k0] come from the objective subdifferential, vectors[k0:i0]
    from the cone-constraint normal cone, vectors[i0:p] from the normal
    cone of the polyhedral set.  multipliers are the weights z_1..z_p of
    the alternance test's null vector (z_1 = 1), residual the norm of
    their combination; padding the 1-based indices of the rows of Z (the
    axes e_i by default) that complete vectors[1:] to a basis;
    determinants the padded d+1 alternating determinant sequence
    divided by 10^determinants_exponent, which is 0 unless some minor is
    not 0 or a finite normal float (see ``_minors``).
    """

    p: int
    k0: int
    i0: int
    flavor: str                  # 'plain' | 'generalised' | 'weak'
    complete: bool = field(init=False)    # p == d + 1
    vectors: list
    provenance: list
    multipliers: np.ndarray
    padding: list
    determinants: np.ndarray
    determinants_exponent: int
    residual: float

    def __post_init__(self):
        self.complete = self.p == len(self.vectors[0]) + 1


@dataclass
class AlternanceFailure:
    """Why ``verify_alternance`` refused a set; index is the s of a minor."""

    reason: str        # 'RankDeficient'|'SignPatternViolated'|
                       # 'NonzeroTailDeterminant'|'ResidualTooLarge'
    index: int | None = None

    def __str__(self):
        if self.index is None:
            return self.reason
        return f"{self.reason} at s={self.index}"


def verify_alternance(vectors, k0: int | None = None, i0: int | None = None,
                      Z=None, eps_det: float = 1e-8,
                      flavor: str = "plain", provenance=None):
    """Check the alternating-determinant conditions for the given vectors.

    Pads with rows of Z, the unit axes when None (chosen greedily so the
    trailing columns stay independent), takes the d+1 determinants of the
    matrices that drop one column each from one solve (``_alternance``),
    and demands strictly alternating signs through p and vanishing
    determinants beyond.  The multipliers, read off the same solve, must
    then pass the residual test of ``linkernel.combination_residual``.
    """
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    p = len(vecs)
    if p == 0:
        raise ValueError("need at least one vector")
    if vecs[0].ndim != 1 or any(v.shape != vecs[0].shape for v in vecs):
        raise ValueError("the vectors must be 1-D and of one length")
    d = len(vecs[0])
    if not 1 <= p <= d + 1:
        raise ValueError(f"p must lie in 1..{d + 1}")
    k0 = p if k0 is None else k0
    i0 = p if i0 is None else i0
    if not (1 <= k0 <= p and k0 <= i0 <= p):
        raise ValueError("need 1 <= k0 <= i0 <= p")
    pads = np.eye(d) if Z is None else np.asarray(Z, dtype=float)
    if pads.ndim != 2 or pads.shape[1] != d:
        raise ValueError(f"Z must be 2-D with {d} columns, got shape "
                         f"{pads.shape}")
    return _alternance(vecs, k0, i0, pads, eps_det, flavor, provenance)


def _alternance(vecs, k0, i0, pads, eps_det, flavor, provenance):
    """The test of ``verify_alternance`` on valid arguments, with pads the
    rows of Z.

    Write V = [V_1 .. V_{d+1}] for vecs and their padding, and Delta_s for
    det V without column s.  The tail V_2 .. V_{d+1} is nonsingular, so
    V z = 0 has one solution with z_1 = 1, and by Cramer's rule
    Delta_s = (-1)^(s-1) z_s Delta_1: one solve gives every minor, and
    one ``slogdet`` Delta_1 as a sign and a logarithm.  Delta_s
    alternates in sign exactly when z_s > 0, so the sign test runs on z,
    relative to max|z|, whatever the scale of the vectors: z_s must
    exceed eps_det max|z| for s <= p, and |z_s| must not for s > p.
    z_1..z_p are the multipliers; their residual checks the rounded
    solve, as a re-check of the report does."""
    p, d = len(vecs), len(vecs[0])
    tail = _padded_tail(np.array(vecs[1:]).reshape(p - 1, d).T, pads)
    if tail is None:
        return AlternanceFailure("RankDeficient")
    T, padding = tail
    z = _null_vector(vecs[0], T)
    # written so that a NaN, or an overflow to inf, fails each test
    top = max(map(abs, z))
    for s, zs in enumerate(z):
        if s < p and not zs > eps_det * top:
            return AlternanceFailure("SignPatternViolated", s + 1)
        if s >= p and not abs(zs) <= eps_det * top:
            return AlternanceFailure("NonzeroTailDeterminant", s + 1)
    residual, ok = combination_residual(vecs, z[:p])
    if not ok:
        return AlternanceFailure("ResidualTooLarge")
    deltas, exponent = _minors(z, top, *np.linalg.slogdet(T))
    if provenance is None:
        provenance = [Provenance("unspecified")] * p
    return Cadre(p=p, k0=k0, i0=i0, flavor=flavor, vectors=vecs,
                 provenance=list(provenance), multipliers=np.array(z[:p]),
                 padding=padding, determinants=deltas,
                 determinants_exponent=exponent, residual=residual)


def _null_vector(v1, T):
    """z with z_1 = 1 and [v1, T] z = 0, T nonsingular: one solve."""
    return [1.0, *np.linalg.solve(T, -v1).tolist()]


def _padded_tail(S, pads):
    """(T, padding): T = [S, pads[k - 1] for k in padding], d x d, where
    padding is the increasing 1-based indices of the rows of pads that
    keep the columns of T independent; None when the
    columns of S are dependent or the rows cannot complete them.  A
    vector counts as independent of the ones before it when its residual
    off their span exceeds EPS_RANK times its norm.

    The test runs on every vector divided by the power of two of its
    largest |entry|.  That scaling is exact and leaves the test as it
    is, but no norm or QR step then overflows or underflows, whatever
    the scale of the vectors.  Each round takes one QR of the columns
    kept so far, S first, followed by the rows of pads not yet decided.
    The diagonal of R holds each column's residual off the span of the
    columns before it, exact up to the first column that fails: the rows
    before that one are kept, that one is dropped, and the next round
    starts after it.  S of d columns takes one QR and no row."""
    d, k = S.shape
    cols, left = _unit_columns(S), np.arange(len(pads) if k < d else 0)
    units = _unit_columns(pads.T) if len(left) else None
    kept = []
    while True:
        n = cols.shape[1]
        M = np.hstack([cols, units[:, left]]) if len(left) else cols
        # R in the upper triangle of h.T, the reflectors below it
        h = np.linalg.qr(M, mode="raw")[0]
        bound = EPS_RANK * np.linalg.norm(M, axis=0)
        ok = (np.abs(h.diagonal()) > bound[:d]).tolist()
        if not all(ok[:k]):
            return None
        # the first row that fails; the kept ones passed in their round
        j = next((i for i in range(n, len(ok)) if not ok[i]), len(ok))
        kept.extend(left[:j - n].tolist())
        if j == d:
            return np.hstack([S, pads[kept].T]), [k + 1 for k in kept]
        cols, left = M[:, :j], left[j - n + 1:]
        if not len(left):
            return None


def _unit_columns(A):
    """A with each column divided by the power of two of its largest
    |entry|, so that entry lies in [1/2, 1); a zero column stays 0."""
    return np.ldexp(A, -np.frexp(np.abs(A).max(axis=0))[1])


def _minors(z, top, sign, logdet):
    """(determinants, k): the minors Delta_s = (-1)^(s-1) z_s Delta_1,
    with Delta_1 = sign exp(logdet) and top = max|z|, divided by 10^k.
    k is 0 when every minor is 0 or a finite normal float, so such
    minors are reported as they are; otherwise it is the power of ten of
    the largest minor, floor(log10 max|Delta_s|), taken in logarithms,
    so no minor overflows or underflows unseen.  No minor is -0.0."""
    sign, logdet = float(sign), float(logdet)
    signed = [sign * (-zs if s % 2 else zs) for s, zs in enumerate(z)]
    try:
        delta_1 = math.exp(logdet)
    except OverflowError:
        delta_1 = math.inf
    # Delta_1 itself (z_1 = 1) fails the test when it is inf
    deltas = [zs * delta_1 for zs in signed]
    if all(zs == 0 or sys.float_info.min <= abs(delta) <= sys.float_info.max
           for zs, delta in zip(signed, deltas)):
        return np.array(deltas) + 0.0, 0
    k = math.floor(math.log10(top) + logdet / math.log(10))
    return np.array(signed) * 10.0 ** (logdet / math.log(10) - k) + 0.0, k


# ---------------------------------------------------------------------------
# cadre search
# ---------------------------------------------------------------------------

_AUX_PAIR_CAP = 24


def _extend_pool(pool, prov, vecs, vecs_prov):
    """Append each of vecs, with its provenance, whose unit direction lies
    1e-12 or more from that of every nonzero pool vector and of every one
    appended before it."""
    units, _ = unit_rows(np.array(pool), np.finfo(float).smallest_subnormal)
    aux, idx = unit_rows(np.array(vecs), 1e-12)
    for k in idx[distinct_rows(aux, 1e-12, kept=units)]:
        pool.append(vecs[k])
        prov.append(vecs_prov[k])


def _cone_pool(base, base_prov, generalised: bool):
    pool = [np.asarray(v, dtype=float) for v in base]
    if not generalised or len(base) < 2 or len(base) > _AUX_PAIR_CAP:
        return pool, base_prov
    prov = list(base_prov)
    n = len(base)
    pairs = list(combinations(range(n), 2))
    total = np.sum([np.asarray(v, dtype=float) for v in base], axis=0)
    _extend_pool(pool, prov, [pool[i] + pool[j] for i, j in pairs] + [total],
                 [Provenance("aux_sum", detail=ij) for ij in pairs]
                 + [Provenance("aux_sum", detail=tuple(range(n)))])
    return pool, prov


def _greedy_independent(vectors):
    """Each of vectors, in order, that raises the rank of the ones picked
    before it by one (the EPS_RANK test), until they number d."""
    picked = []
    for v in vectors:
        if len(picked) == len(v):
            break
        v = np.asarray(v, dtype=float)
        if rank(np.column_stack(picked + [v])) == len(picked) + 1:
            picked.append(v)
    return picked


def _hull_pool(grads, grads_prov, generalised: bool):
    pool = [np.asarray(v, dtype=float) for v in grads]
    prov = list(grads_prov)
    if not generalised or not pool:
        return pool, prov
    # the one LP below also decides whether 0 is in co(pool): when it is
    # not, a strict separator h has <h, v> > 0 on the pool, so <h, aux> < 0
    # for aux = -mean(S), which is then not in co(pool) either
    S = _greedy_independent(pool)
    if not S:
        return pool, prov
    aux = -np.mean(S, axis=0)
    if row_norms(aux[None])[0] < 1e-12:
        return pool, prov
    if lp_membership(aux, pool) is not None:
        _extend_pool(pool, prov, [aux], [Provenance("aux_hull")])
    return pool, prov


def cadre_search(G, flavor="plain", complete=False, eps_det=1e-8):
    """(cadre or None, budget_exceeded) over G; run once per set and
    arguments, and kept.  The plain first cadre is read off the membership
    LP's basis (``_basis_cadre``) and never runs out of budget; every other
    search is ``find_cadre``'s, from p = d + 1 when ``complete``."""
    def search():
        if flavor == "plain" and not complete:
            return _basis_cadre(G, eps_det), False
        try:
            return find_cadre(G, flavor, p_min=G.d + 1 if complete else 1,
                              eps_det=eps_det), False
        except CombinatorialBudgetExceeded:
            return None, True
    return G.derived(("cadre", flavor, complete, eps_det), search)


def _basis_cadre(G: GeneratorSet, eps_det: float):
    """The plain cadre on the support of G's basic membership optimum
    (``GeneratorSet.membership``), or None when there is none.

    The columns of positive weight, gradients, then eta, then nA (the
    plain pool's order), stay independent with the convexity row
    appended, and their weights combine them to 0 with at least one
    gradient among them: a positive circuit, whose combination spans a
    one-dimensional null space, so every p - 1 of its vectors are
    independent; the alternance test re-checks that, so there is no prefix
    test.  A weight of at most EPS_POS times the largest gradient weight
    counts as 0: the simplex leaves a degenerate basic variable at
    rounding size, 1e-16 say, which would break the circuit."""
    res = G.membership
    if res.status != "optimal":
        return None
    m, n_eta = len(G.grads_F), len(G.eta)
    sub = np.flatnonzero(res.x > EPS_POS * res.x[:m].max())
    pool = np.concatenate([np.reshape(G.grads_F, (m, G.d)), G.cone])
    prov = SequenceChain([G.grads_prov, G.eta_prov, G.nA_prov])
    result = verify_alternance(
        list(pool[sub]), k0=int(np.sum(sub < m)),
        i0=int(np.sum(sub < m + n_eta)), eps_det=eps_det,
        provenance=[prov[i] for i in sub])
    return result if isinstance(result, Cadre) else None


def find_cadre(G: GeneratorSet, flavor: str = "plain", p_min: int = 1,
               eps_det: float = 1e-8, budget: int = DEFAULT_BUDGET):
    """Search for a cadre over the generator families, smallest p first.

    Subsets are enumerated deterministically: objective gradients first
    (as many as possible), then cone-constraint generators, then
    polyhedral-set generators, each segment in index order.  The
    generalised flavor extends the pools with verified interior points
    (sums of generators within one cone; a checked hull point); the weak
    flavor merges the two cone segments and adds their pairwise sums.
    Subsets come from a walk over the tree of their index prefixes
    (``_prefix_walk``): the walk checks the prefixes that head large
    subtrees and skips every subset below a linearly dependent one.  The
    rest are screened in chunks (``_rank_screen``): one stacked rank
    computation keeps those of rank p-1, which the positive-combination
    test demands, and ``positive_combinations``, over slices of these
    that double in size along the search, keeps those with a strictly
    positive combination.  They go on to the alternance test, in
    enumeration order.  A cadre must also pass the prefix test: the first
    k of its vectors have rank k for every k < p (the EPS_RANK test), so
    the walk's skips never decide which cadre comes first.  Every subset,
    skipped ones included, counts against the budget.  Returns the first
    cadre found or None.
    """
    if flavor not in ("plain", "generalised", "weak"):
        raise ValueError(f"unknown flavor {flavor!r}")
    # both relaxed flavors draw the leading segment from the whole
    # subdifferential, so both get the verified hull point: one LP per set
    generalised = flavor in ("generalised", "weak")
    grads, grads_prov = G.derived(("hull_pool", generalised), lambda: (
        _hull_pool(G.grads_F, G.grads_prov, generalised)))
    if not grads:
        return None

    def cone_pools():
        if flavor == "weak":
            cone = _cone_pool(G.cone, SequenceChain([G.eta_prov, G.nA_prov]),
                              True)
            return cone, ([], [])
        aux = flavor == "generalised"
        return (_cone_pool(G.eta, G.eta_prov, aux),
                _cone_pool(G.nA, G.nA_prov, aux))
    (eta_pool, eta_prov), (na_pool, na_prov) = G.derived(
        ("cone_pools", flavor), cone_pools)
    pool = grads + eta_pool + na_pool
    pool_prov = SequenceChain([grads_prov, eta_prov, na_prov])
    stacked = np.array(pool)
    ng, ne, n = len(grads), len(eta_pool), len(pool)
    groups = (((p, k0, e), ((0, ng, k0), (ng, ng + ne, e),
                            (ng + ne, n, p - k0 - e)))
              for p in range(p_min, G.d + 2)
              for k0 in range(min(p, ng), 0, -1)
              for e in range(min(p - k0, ne), -1, -1)
              if p - k0 - e <= n - ng - ne)
    # the positivity screen's slices double over the search, so a cadre
    # found early costs few null vectors and a long search few SVD calls
    widths = (4 << k for k in count())
    pads = np.eye(G.d)
    for (p, k0, e), block in _prefix_walk(stacked, groups, budget):
        for sub in _rank_screen(stacked, block, p, widths):
            vecs = [pool[i] for i in sub]
            result = _alternance(vecs, k0, k0 + e, pads, eps_det, flavor,
                                 [pool_prov[i] for i in sub])
            if isinstance(result, Cadre) and _independent_prefixes(vecs):
                return result
    return None


def _independent_prefixes(vecs) -> bool:
    """True when the first k vectors have rank k for every k below their
    number, by the EPS_RANK test: the prefix test of a cadre."""
    return len(_greedy_independent(vecs[:-1])) == len(vecs) - 1


def _rank_screen(stacked, chunk, p, widths):
    """Each subset of the chunk whose vectors (rows of ``stacked``) have a
    strictly positive combination, in order.

    One ``stacked_rank`` call keeps the subsets of rank p - 1: those of
    full rank p are mostly decided by their volume, the rest by their
    singular values, and each gets the rank of the scalar test.  A single
    vector is not rank-checked: its test is relative to its own norm.
    ``positive_combinations`` decides the survivors, one slice at a time,
    the slices' widths drawn from ``widths`` as they are reached."""
    if not len(chunk):
        return
    mats = stacked[np.array(chunk)].transpose(0, 2, 1)
    alive = np.arange(len(chunk))
    if p > 1:
        alive = np.flatnonzero(stacked_rank(mats) == p - 1)
    start = 0
    while start < len(alive):
        part = alive[start:start + next(widths)]
        start += len(part)
        kept = ~np.isnan(positive_combinations(mats[part])[:, 0])
        yield from (chunk[j] for j in part[kept])


# ---------------------------------------------------------------------------
# multiplier reconstruction
# ---------------------------------------------------------------------------


@dataclass
class MultiplierWitness(Record):
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

    def lagrangian(self, P: Problem, x, squared: bool = False):
        """Gradient and Hessian in x of the witness's Lagrangian,
        sum(alpha_i s_i f_i) + <lambda, G(x)> + <mu, x>: each scenario's
        term from ``scenario_derivatives`` (squared deviations when
        ``squared``), each block's pairing from its ``dual_derivatives``
        and each polyhedral normal from ``nA_vector``.  The scenario terms
        and the block pairings are summed apart, then added; the normals
        have no Hessian."""
        x = np.asarray(x, dtype=float)
        d = P.d
        grad, hess = np.zeros(d), np.zeros((d, d))
        for scen, sign, weight in self.alpha:
            g, H = scenario_derivatives(P, x, scen, sign, squared)
            grad = grad + weight * g
            hess = hess + weight * H
        cone_grad, cone_hess = np.zeros(d), np.zeros((d, d))
        for _, blk, dual in self.block_duals():
            g, H = blk.dual_derivatives(x, dual)
            cone_grad = cone_grad + g
            cone_hess = cone_hess + H
        grad = grad + cone_grad
        for pr, weight in self.nA:
            grad = grad + weight * nA_vector(P.set_A, d, pr)
        return grad, hess + cone_hess

    def json_fields(self):
        out = {"alpha": [{"scenario": s, "sign": sg, "weight": w}
                         for s, sg, w in self.alpha]}
        # one table per block kind, each keyed by block position
        for cls in BLOCK_CLASSES:
            out[cls.kind] = {str(b): blk.dual_to_json(dual)
                             for b, (blk, dual) in self.duals.items()
                             if blk.kind == cls.kind}
        out["nA"] = [{"prov": pr, "weight": w} for pr, w in self.nA]
        out["stationarity_residual"] = self.stationarity_residual
        return out


def _assemble_witness(ctx: PointContext, G: GeneratorSet,
                      lam, mu) -> MultiplierWitness:
    """The witness of the weights lam on G's gradients and mu on its cone
    generators, eta then nA: a block's dual sums, in row order, each
    positive weight on its family's rows times that row's dual, so a row
    of weight 0 is never read."""
    w = MultiplierWitness(alpha=[(pr.index, pr.sign, float(l))
                                 for pr, l in zip(G.grads_prov, lam) if l > 0])
    mu = np.asarray(mu, dtype=float)
    start = 0
    for pos, (blk, fam) in enumerate(zip(ctx.problem.blocks, G.families)):
        weights = mu[start:start + len(fam.vectors)]
        for j in np.flatnonzero(weights > 0).tolist():
            _, dual = w.duals.get(pos, (blk, None))
            w.duals[pos] = (blk, blk.add_dual(dual, fam, j,
                                              float(weights[j])))
        start += len(fam.vectors)
    w.nA = [(pr, float(weight)) for pr, weight in
            zip(G.nA_prov, mu[len(G.eta):]) if weight > 0]
    return w


def _witness_residual(P: Problem, x, w: MultiplierWitness,
                      squared: bool = False) -> float:
    """The stationarity residual: the norm of the witness's Lagrangian
    gradient (``MultiplierWitness.lagrangian``)."""
    return float(np.linalg.norm(w.lagrangian(P, x, squared)[0]))


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


def reverify_report(P: Problem, report: dict) -> dict:
    """Re-check the witnesses attached to a serialized report.

    Recomputes the cadre combination residual (``combination_residual``),
    the determinant sequence, on the report's power of ten, the padding
    axes (from schema 6) and the multiplier stationarity residual from
    scratch; used by the JSON round-trip tests and by consumers of stored
    reports."""
    x = np.asarray(report["candidate"], dtype=float)
    out = {"ok": True, "checks": []}

    def _cadre_check(what, data):
        vecs = data["vectors"]
        resid, small = combination_residual(vecs, data["multipliers"])
        again = verify_alternance(vecs, k0=data["k0"], i0=data["i0"],
                                  flavor=data["flavor"])
        # the two may round the largest minor to either side of a power
        # of ten; a report before schema 5 has no exponent and its
        # minors as they are
        shift = (again.determinants_exponent
                 - data.get("determinants_exponent", 0)
                 if isinstance(again, Cadre) else math.inf)
        dets_match = abs(shift) <= 1 and np.allclose(
            again.determinants * 10.0 ** shift, data["determinants"],
            atol=1e-7, rtol=1e-7)
        # before schema 6 the padding is vectors, not compared
        pads = data["padding"]
        ok = small and dets_match and (any(type(k) is not int for k in pads)
                                       or again.padding == pads)
        return {"what": what, "ok": ok, "residual": resid}

    nec = report.get("necessary") or {}
    if nec.get("cadre"):
        out["checks"].append(_cadre_check("necessary.cadre", nec["cadre"]))
    if nec.get("multipliers"):
        w = witness_from_json(P, nec["multipliers"])
        resid = _witness_residual(P, x, w)
        out["checks"].append({"what": "necessary.multipliers",
                              "ok": resid <= 1e-7, "residual": resid})
    fl = report.get("flavor_search") or {}
    for key in ("cadre", "complete"):
        if fl.get(key):
            out["checks"].append(_cadre_check(f"flavor_search.{key}",
                                              fl[key]))
    out["ok"] = all(c["ok"] for c in out["checks"])
    return out


# ---------------------------------------------------------------------------
# first-order checks
# ---------------------------------------------------------------------------


def directional_derivatives(grads, H) -> np.ndarray:
    """max over v in grads of <v, h>, for each row h of H."""
    return builtin_max(pair_dots(H, np.array(grads, dtype=float)).T)


@dataclass
class NecessaryReport(Record):
    feasible: bool
    zero_in_D: bool
    multipliers: MultiplierWitness | None
    cadre: Cadre | None
    agreement: bool
    sampling_limited: bool
    generators: GeneratorSet = field(metadata={"json": False})


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
    res = G.membership
    witness = None
    zero_in_D = res.status == "optimal"
    if zero_in_D:
        m = len(G.grads_F)
        witness = _assemble_witness(ctx, G, res.x[:m], res.x[m:])
        witness.stationarity_residual = _witness_residual(
            P, ctx.x, witness, squared=squared)
        if witness.stationarity_residual > 1e-8 * max(
                1.0, max(np.linalg.norm(v) for v in G.grads_F)):
            # never report an unverified witness
            zero_in_D = False
            witness = None
    # the plain first cadre is read off the membership basis: it never
    # runs out of budget
    cadre, _ = cadre_search(G, eps_det=P.tolerances.eps_det)
    agreement = (cadre is not None) == zero_in_D
    sampling_limited = G.sampled and (not zero_in_D or not agreement)
    return NecessaryReport(feasible=True, zero_in_D=zero_in_D,
                           multipliers=witness, cadre=cadre,
                           agreement=agreement,
                           sampling_limited=sampling_limited, generators=G)


@dataclass
class SufficientReport(Record):
    zero_in_int_D: bool
    margin: float
    radius: float
    sampling_limited: bool


def sufficient_check(ctx: PointContext,
                     squared: bool = False) -> SufficientReport:
    """Interior test 0 in int D(x) with a certified ball radius.

    The reported radius is margin/sqrt(d): the common margin over the 2d
    signed axis directions spans an l1 ball inside the generated set, and
    that ball contains the Euclidean ball of radius margin/sqrt(d).  The
    margin is the exact l-infinity growth constant, so the check samples
    nothing and enumerates no subset; the complete alternance, an
    equivalent certificate, is the flavor search's (``cadre_search``).
    """
    _feasible_context(ctx)
    P = ctx.problem
    G = ctx.squared if squared else ctx.generators
    interior = lp_chebyshev_center(G.tableau)
    margin = 0.0 if interior is None else interior
    verdict = interior is not None and margin > P.tolerances.eps_pos
    return SufficientReport(zero_in_int_D=verdict, margin=margin,
                            radius=margin / math.sqrt(P.d),
                            sampling_limited=G.sampled and not verdict)


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
    the normal-cone generators with unit-norm duals, as the rows of one
    array per group: one group per scalar constraint of a separable block
    (its rows are consecutive in the block's family) and one per other
    block.  The convex weights within a group may total at most 1."""
    groups = []
    for blk, fam in zip(P.blocks, G.families):
        if not fam.prov:
            continue
        # the norm of each flattened dual, as np.linalg.norm(dual) reads it
        unit = fam.vectors / row_norms(
            fam.duals.reshape(len(fam.prov), -1))[:, None]
        if not blk.separable:
            groups.append(unit)
            continue
        index = np.array([pr.index for pr in fam.prov])
        groups += np.split(unit, np.flatnonzero(index[1:] != index[:-1]) + 1)
    return groups


@dataclass
class PenaltyReport(Record):
    c: float
    value: float
    zero_in_subdiff: bool
    c_min: float | None


def _penalty_threshold(G: GeneratorSet, groups) -> float | None:
    """The least c with 0 in co(grads_F) + c*sum(capped groups) + cone(nA):
    None when no c suffices.  Weights mu = c * w turn each cap, a group's
    weights w totalling at most 1, into sum(mu_group) <= t, so the least c
    is one LP, min t over the combination system with each cap row read as
    sum(mu_group) - t + slack = 0.  Without a group it is 0 when G's
    membership system, whose kept optimum it reads, is feasible."""
    if not groups:
        return 0.0 if G.membership.status == "optimal" else None
    ends = np.cumsum([len(vecs) for vecs in groups])
    caps = list(zip([0, *ends[:-1].tolist()], ends.tolist()))
    A, b = combination_system(G.grads_F, np.concatenate([*groups, G.nA]),
                              caps, d=G.d)
    # the cap rows' right-hand sides, 1, become the column of t
    A = np.column_stack([A, np.r_[np.zeros(G.d + 1), -b[G.d + 1:]]])
    b[G.d + 1:] = 0.0
    res = simplex_solve(np.r_[np.zeros(A.shape[1] - 1), 1.0], A, b)
    # t >= 0 is a constraint: a rounded -1e-16 reads 0.0
    return max(0.0, float(res.x[-1])) if res.status == "optimal" else None


def penalty_subdiff_check(ctx: PointContext, c: float) -> PenaltyReport:
    """Inclusion 0 in subdiff(F + c dist)(x) + N_A(x) at a feasible x,
    decided as c >= c_min, the least penalty parameter for which it holds
    (``_penalty_threshold``).  With sampled cone families c_min is that of
    the sampled generators, an upper bound on the true threshold."""
    if c < 0:
        raise ValueError("penalty parameter must be nonnegative")
    _feasible_context(ctx)
    P = ctx.problem
    c_min = _penalty_threshold(ctx.generators,
                               _penalty_groups(P, ctx.generators))
    # penalty_value's arithmetic on the F(x) the point's activity holds
    value = ctx.act.F_value + c * float(sum(block_distances(P, ctx.x)))
    return PenaltyReport(c=c, value=value,
                         zero_in_subdiff=c_min is not None and c >= c_min,
                         c_min=c_min)


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
            norms = row_norms(blk.jets(x, chosen, derivatives=True)[1])
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
