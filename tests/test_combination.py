"""``linkernel.combination_system`` against frozen copies of the four
builders it replaced: the membership LP, the direction-margin LP, the
penalty inclusion with its per-group caps and the multiplier-vertex
system.  Each must hand its solver the same A and b as before, the
penalty threshold the capped system turned into its least-parameter LP,
and the interior margin must be the old per-probe minimum over the 2d
signed axes, None where the old report said infeasible.  The margins and
the second-order forms solve every objective on one system from one kept
phase 1 (``Tableau``); the frozen references solve each LP alone.  The 2d
margin probes share one stacked phase 2 (``Tableau.solve_stack``), which
must read every margin of a frozen copy of the per-probe loop that it
replaced, bit for bit; that loop's one-objective solve on the kept phase 1
(``_ref_kept_solve``) is also the reference for ``Tableau.solve``, now a
stack of one."""

import importlib.util
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conecert import firstorder as fo
from conecert import geometry
from conecert import linkernel as lk
from conecert import registry
from conecert import secondorder as so
from conecert.cones import axis_directions
from conecert.geometry import GeneratorSet, PointContext, Provenance
from conecert.problem import load_problem_text
from conftest import random_generator_family

CORPUS = Path(__file__).resolve().parents[1] / "tools" / "report_corpus.py"

# ---------------------------------------------------------------------------
# frozen copies of the hand-built systems
# ---------------------------------------------------------------------------


def _ref_stack(hull, cone, d):
    cols = [np.asarray(v, dtype=float) for v in hull] + \
           [np.asarray(v, dtype=float) for v in cone]
    if cols:
        return np.column_stack(cols)
    return np.zeros((d, 0))


def _ref_membership_system(target, hull, cone):
    target = np.asarray(target, dtype=float)
    d = target.shape[0]
    nh, nc = len(hull), len(cone)
    A = np.zeros((d + 1, nh + nc))
    A[:d] = _ref_stack(hull, cone, d)
    A[d, :nh] = 1.0
    b = np.concatenate([target, [1.0]])
    return np.zeros(nh + nc), A, b


def _ref_margin_system(direction, hull, cone):
    direction = np.asarray(direction, dtype=float)
    d = direction.shape[0]
    nh, nc = len(hull), len(cone)
    A = np.zeros((d + 1, nh + nc + 1))
    A[:d, :nh + nc] = _ref_stack(hull, cone, d)
    A[:d, -1] = -direction
    A[d, :nh] = 1.0
    b = np.concatenate([np.zeros(d), [1.0]])
    c = np.zeros(nh + nc + 1)
    c[-1] = -1.0
    return c, A, b


def _ref_direction_margin(direction, hull, cone):
    res = lk.simplex_solve(*_ref_margin_system(direction, hull, cone))
    if res.status == "unbounded":
        return math.inf
    if res.status != "optimal":
        return None
    return float(res.x[-1])


def _ref_probes(d):
    dirs = []
    for k in range(d):
        e = np.zeros(d)
        e[k] = 1.0
        dirs.append(e)
        dirs.append(-e)
    return dirs


def _ref_chebyshev_center(hull, cone, d):
    """(feasible, margin) as the old InteriorReport held them."""
    overall = math.inf
    for u in _ref_probes(d):
        r = _ref_direction_margin(u, hull, cone)
        if r is None:
            return False, 0.0
        overall = min(overall, r)
    return True, overall


# one solve on the kept phase 1, frozen as it ran before one stacked phase
# 2 served every objective: it copied the kept tableau with its column
# appended, drove phase 1's leftover artificials out again on any column,
# ran Bland's rule row by row in Python and verified x by its residual

_TOL = 1e-9


def _ref_pivot(T, row, col):
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[row]


def _ref_bland(T, basis, n_cols):
    m = T.shape[0] - 1
    for it in range(lk.MAX_ITER):
        entering = next((j for j in range(n_cols) if T[-1, j] < -_TOL), -1)
        if entering < 0:
            return "optimal", it
        col, leaving, best = T[:m, entering], -1, math.inf
        for i in range(m):
            if col[i] > _TOL:
                ratio = T[i, -1] / col[i]
                if ratio < best - _TOL or (
                        abs(ratio - best) <= _TOL
                        and (leaving < 0 or basis[i] < basis[leaving])):
                    best, leaving = ratio, i
        if leaving < 0:
            return "unbounded", it
        _ref_pivot(T, leaving, entering)
        basis[leaving] = entering
    return "iteration_limit", lk.MAX_ITER


def _ref_kept_solve(tableau, c, column=None):
    """min c@x over [A | column] x = b, x >= 0 from the kept phase 1
    (tableau.T, .basis, .flip, .iterations), as the one-objective solve
    read it: an LpResult whose x counts only when it reproduces [A |
    column] x = b within 1e-8 * max(1, max|[A | column]|)."""
    if not tableau.feasible:
        return lk.LpResult("infeasible", iterations=tableau.iterations)
    m, n = tableau.A.shape
    A = tableau.A if column is None else np.column_stack([tableau.A,
                                                          column])
    k = A.shape[1]
    c = np.broadcast_to(np.asarray(c, dtype=float), (k,))
    T = np.zeros((m, k + 1))
    T[:, :n] = tableau.T[:, :n]
    T[:, n:k] = tableau.T[:, n:n + m] @ (A[:, n:] * tableau.flip[:, None])
    T[:, -1] = tableau.T[:, -1]
    basis, keep = list(tableau.basis), []
    for i in range(m):
        if basis[i] >= n:
            nonzero = np.flatnonzero(np.abs(T[i, :k]) > _TOL)
            if not len(nonzero):
                continue
            _ref_pivot(T, i, nonzero[0])
            basis[i] = int(nonzero[0])
        keep.append(i)
    T2 = np.zeros((len(keep) + 1, k + 1))
    T2[:-1] = T[keep]
    T2[-1, :k] = c
    basis2 = [basis[i] for i in keep]
    for i, bi in enumerate(basis2):
        if T2[-1, bi] != 0.0:
            T2[-1] -= T2[-1, bi] * T2[i]
    status, pivots = _ref_bland(T2, basis2, k)
    iterations = tableau.iterations + pivots
    if status != "optimal":
        return lk.LpResult("unbounded" if status == "unbounded"
                           else "infeasible", iterations=iterations)
    x = np.zeros(k)
    for i, bi in enumerate(basis2):
        x[bi] = T2[i, -1]
    if np.linalg.norm(A @ x - tableau.b) > 1e-8 * max(1.0, np.abs(A).max()):
        return lk.LpResult("infeasible", iterations=iterations)
    return lk.LpResult("optimal", x=x, objective=float(c @ x),
                       iterations=iterations)


def _assert_same_solve(got, want):
    """got is want bit for bit: status, pivot count, x with the sign of
    each zero, and the objective."""
    assert (got.status, got.iterations) == (want.status, want.iterations)
    if want.status == "optimal":
        assert got.x.shape == want.x.shape and np.array_equal(got.x, want.x)
        assert np.array_equal(np.signbit(got.x), np.signbit(want.x))
        assert _same_bits(got.objective, want.objective)


def _ref_kept_margin(tableau, u):
    """max r >= 0 with r * u in the set, as the per-probe loop read it off
    the kept phase 1: inf when unbounded, None when infeasible or when x
    misses [A | -u] x = b."""
    n = tableau.A.shape[1]
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = _ref_kept_solve(tableau, c, np.append(-np.asarray(u, float), 0.0))
    if res.status == "unbounded":
        return math.inf
    return max(0.0, float(res.x[-1])) if res.status == "optimal" else None


def _ref_kept_center(tableau):
    """The interior margin as the per-probe loop took it: the least probe
    margin, None at the first None."""
    margin = math.inf
    for u in _ref_probes(len(tableau.b) - 1):
        r = _ref_kept_margin(tableau, u)
        if r is None:
            return None
        margin = min(margin, r)
    return margin


def _same_bits(got, want):
    """got and want are both None, or equal floats with the same sign."""
    if got is None or want is None:
        return got is want
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def _ref_penalty_system(d, c, G, groups):
    nh = len(G.grads_F)
    cols = []
    cols.extend(np.asarray(v, dtype=float) for v in G.grads_F)
    group_spans = []
    for vecs in groups:
        start = len(cols)
        cols.extend(c * np.asarray(v, dtype=float) for v in vecs)
        group_spans.append((start, len(cols)))
    cols.extend(np.asarray(v, dtype=float) for v in G.nA)
    n_core = len(cols)
    n = n_core + len(group_spans)
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
    return np.zeros(n), A, b


def _ref_vertex_system(d, G):
    cols = list(G.grads_F) + list(G.eta) + list(G.nA)
    n = len(cols)
    m = len(G.grads_F)
    Aeq = np.zeros((d + 1, n))
    for j, v in enumerate(cols):
        Aeq[:d, j] = v
    Aeq[d, :m] = 1.0
    beq = np.zeros(d + 1)
    beq[d] = 1.0
    return Aeq, beq, n


# ---------------------------------------------------------------------------
# the cases
# ---------------------------------------------------------------------------


# the registry holds no Chebyshev problem, so this fit of t^2 by a line on
# five points, at its solution, with an active inequality and an active
# bound, brings a squared generator set
CHEBYSHEV = """[problem] dim=2 kind=chebyshev
[scenario] f="x(1) - x(2)" psi=1
[scenario] f="x(1) - 0.5*x(2)" psi=0.25
[scenario] f="x(1)" psi=0
[scenario] f="x(1) + 0.5*x(2)" psi=0.25
[scenario] f="x(1) + x(2)" psi=1
[nlp_ineq] g="x(2)"
[set] ub=1,0
"""


def _registry_contexts():
    for name in registry.NAMES:
        for dim in ((2, 3, 5) if name == "linf" else (None,)):
            P, x, samp = registry.get(name, dim=dim)
            yield PointContext(P, x, samp)
    yield PointContext(load_problem_text(CHEBYSHEV), (0.5, 0.0))


def _generator_sets():
    """Every registry generator set, plain and, for Chebyshev problems,
    squared."""
    for ctx in _registry_contexts():
        yield ctx, ctx.generators
        if ctx.problem.kind == "chebyshev":
            yield ctx, ctx.squared


def _random_families():
    rng = np.random.default_rng(20240817)
    for _ in range(60):
        d = int(rng.integers(1, 4))
        hull, cone = random_generator_family(rng, d, int(rng.integers(1, 7)))
        yield d, hull, cone


def _recording(monkeypatch, module, name):
    """Patch module.name to record copies of its arguments, then run it."""
    real, calls = getattr(module, name), []

    def record(*args):
        calls.append(tuple(np.array(a, dtype=float, copy=True)
                           for a in args))
        return real(*args)

    monkeypatch.setattr(module, name, record)
    return calls


def _recording_tableaux(monkeypatch, *modules):
    """Patch Tableau in each module to record copies of the systems (A, b)
    it is built on (phase 1 runs once per build) and, per solve, copies of
    the cost, the system [A | column] (A without a column) and b, then
    solve; a stacked solve records one such triple per cost row and
    column, unless a recorded solve called it as its stack of one."""
    builds, calls, solving = [], [], []

    def record(tableau, c, column):
        A = tableau.A if column is None else np.column_stack(
            [tableau.A, column])
        calls.append(tuple(np.array(a, dtype=float, copy=True)
                           for a in (c, A, tableau.b)))

    class Recording(lk.Tableau):
        def __init__(self, A, b):
            builds.append((np.array(A, dtype=float, copy=True),
                           np.array(b, dtype=float, copy=True)))
            super().__init__(A, b)

        def solve(self, c, column=None):
            record(self, c, column)
            solving.append(True)
            try:
                return super().solve(c, column)
            finally:
                solving.pop()

        def solve_stack(self, costs, columns=None):
            if not solving:
                for p, c in enumerate(costs):
                    record(self, c,
                           None if columns is None else columns[:, p])
            return super().solve_stack(costs, columns)

    for module in modules:
        monkeypatch.setattr(module, "Tableau", Recording)
    return builds, calls


def _set_tableau(d, hull, cone):
    """The kept phase 1 of a generator set with these hull and cone
    vectors (``GeneratorSet.tableau``)."""
    return GeneratorSet(d=d, grads_F=list(hull), eta=list(cone)).tableau


def _assert_systems(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g) == len(w)
        for a, b in zip(g, w):
            assert a.shape == b.shape and np.array_equal(a, b)


def test_membership_and_margin_systems_match_the_frozen_builders(
        monkeypatch):
    _, calls = _recording_tableaux(monkeypatch, lk, geometry)
    for _, G in _generator_sets():
        target = np.zeros(G.d)
        calls.clear()
        lk.lp_membership(target, G.grads_F, G.cone)
        _assert_systems(calls, [_ref_membership_system(target, G.grads_F,
                                                       G.cone)])
        probes = _ref_probes(G.d)
        calls.clear()
        lk._margins(G.tableau, probes)
        _assert_systems(calls, [_ref_margin_system(u, G.grads_F, G.cone)
                                for u in probes])


def test_membership_targets_other_than_zero(monkeypatch):
    calls = _recording(monkeypatch, lk, "simplex_solve")
    for d, hull, cone in _random_families():
        target = np.arange(1.0, d + 1.0) / 3.0
        calls.clear()
        lk.lp_membership(target, hull, cone)
        _assert_systems(calls, [_ref_membership_system(target, hull, cone)])


def _chebyshev_cases():
    for _, G in _generator_sets():
        yield G.d, G.grads_F, G.cone
    yield from _random_families()


def test_interior_margin_is_the_old_probe_minimum(monkeypatch):
    """The reference solves each probe alone; the margin solves them all
    from one phase 1, as one stacked phase 2 over the same systems, and
    reads the frozen per-probe loop's margin bit for bit.  Where the
    origin lies outside the set, that phase 1 is infeasible and the margin
    None, while the reference may find r * u in the set for some r > 0."""
    builds, calls = _recording_tableaux(monkeypatch, lk, geometry)
    outcomes = set()
    for d, hull, cone in _chebyshev_cases():
        feasible, margin = _ref_chebyshev_center(hull, cone, d)
        calls[:], builds[:] = [], []
        tableau = _set_tableau(d, hull, cone)
        got = lk.lp_chebyshev_center(tableau)
        _assert_systems(calls, [_ref_margin_system(u, hull, cone)
                                for u in _ref_probes(d)])
        assert len(builds) == 1
        assert got == (margin if feasible else None)
        assert _same_bits(got, _ref_kept_center(tableau))
        outcomes.add("none" if got is None else
                     "inf" if math.isinf(got) else "finite")
    assert outcomes == {"none", "inf", "finite"}


def _random_wide_families(count, seed):
    """Seeded families with d <= 8, a third of them with a coordinate
    that is zero in every generator and a third with two equal
    coordinates, so the combination system has a zero or a duplicated
    row."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        d = int(rng.integers(1, 9))
        hull, cone = random_generator_family(rng, d, int(rng.integers(1, 13)))
        j = int(rng.integers(d))
        for v in hull + cone:
            if k % 3 == 1:
                v[j] = 0.0
            elif k % 3 == 2 and d > 1:
                v[j] = v[j - 1]
        yield d, hull, cone


def test_margins_match_the_per_probe_reference_on_random_families(
        monkeypatch):
    """On 1,000 seeded families, each probe's margin from the kept phase
    1 is the frozen per-probe loop's bit for bit, and matches the frozen
    one-shot LP: None and inf exactly, finite values within 1e-12 times
    max(1, |reference|).  Where the origin is outside the set every probe
    reads None.  The families with a zero or a duplicated coordinate leave
    phase 1 a redundant row, where some probes' own columns pivot in."""
    real, own = lk._drive_row, []

    def drive_row(T, basis, i, k):
        # a probe's tableau [original | column | rhs], driven out alone
        own.append(k == T.shape[1] - 1)
        return real(T, basis, i, k)

    monkeypatch.setattr(lk, "_drive_row", drive_row)
    outcomes = set()
    for d, hull, cone in _random_wide_families(1000, 20261018):
        probes = _ref_probes(d)
        tableau = _set_tableau(d, hull, cone)
        got = lk._margins(tableau, probes)
        kept = [_ref_kept_margin(tableau, u) for u in probes]
        assert all(map(_same_bits, got, kept))
        want = [_ref_direction_margin(u, hull, cone) for u in probes]
        if None in want:
            assert got == [None] * len(probes)
            outcomes.add("none")
            continue
        for g, w in zip(got, want):
            if math.isinf(w):
                assert g == w
                outcomes.add("inf")
            else:
                assert abs(g - w) <= 1e-12 * max(1.0, abs(w))
                outcomes.add("finite" if w > 1e-12 else "zero")
    assert outcomes == {"none", "inf", "finite", "zero"} and any(own)


@pytest.mark.parametrize("d", [9, 25, 50])
def test_linf_margins_run_phase_one_once(monkeypatch, d):
    """The 2d probes of linf share one phase 1 and one stacked solve, with
    no Tableau.solve, in slabs of at most SLAB_FLOATS entries, and read
    the frozen per-probe loop's margins bit for bit, in those slabs or in
    slabs of one probe each."""
    G = PointContext(*registry.get("linf", dim=d)).generators
    builds, calls = _recording_tableaux(monkeypatch, geometry)
    solves = _counting(monkeypatch, lk.Tableau, "solve")
    stacks = _counting(monkeypatch, lk.Tableau, "solve_stack")
    slabs = _recording(monkeypatch, lk, "_bland_stack")
    margin = lk.lp_chebyshev_center(G.tableau)
    assert len(builds) == 1 and len(calls) == 2 * d
    assert solves == [] and stacks == ["solve_stack"]
    # every slab holds at most SLAB_FLOATS entries, and all probes
    assert all(S.size <= lk.SLAB_FLOATS for S, *_ in slabs)
    assert sum(len(S) for S, *_ in slabs) == 2 * d
    want = [_ref_kept_margin(G.tableau, u) for u in _ref_probes(d)]
    assert _same_bits(margin, min([math.inf, *want]))
    assert margin == _ref_chebyshev_center(G.grads_F, G.cone, d)[1]
    monkeypatch.setattr(lk, "SLAB_FLOATS", 1)
    assert all(map(_same_bits, lk._margins(G.tableau, _ref_probes(d)), want))


def test_padded_dimension_margins_stay_within_a_few_slabs(monkeypatch):
    """A set whose hull ignores all but two of d = 60 coordinates leaves
    phase 1 a redundant row per padded coordinate, and each of the 116
    probes along those axes pivots its own column in there.  The margins
    are the frozen per-probe loop's bit for bit, and the traced peak
    memory stays within the shared drive-out tableau and a few slabs: the
    probes driven out alone are not all held at once."""
    d, n = 60, 60
    rng = np.random.default_rng(20261019)
    hull = np.zeros((n, d))
    hull[:, :2] = rng.normal(size=(n, 2))
    tableau = _set_tableau(d, hull, [])
    probes = _ref_probes(d)
    want = [_ref_kept_margin(tableau, u) for u in probes]
    monkeypatch.setattr(lk, "SLAB_FLOATS", 2 ** 14)
    tracemalloc.start()
    try:
        got = lk._margins(tableau, probes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(map(_same_bits, got, want)) and want[4:] == [0.0] * 116
    shared = (d + 1) * (n + 2 * d + 1) * 8
    assert peak <= 2 * shared + 6 * lk.SLAB_FLOATS * 8


def test_interior_margin_reads_none_and_inf():
    # the origin is outside co{(1, 1)}: no probe is attainable
    assert _ref_chebyshev_center([(1.0, 1.0)], (), 2) == (False, 0.0)
    assert lk.lp_chebyshev_center(_set_tableau(2, [(1.0, 1.0)], ())) is None
    # a cone spanning the plane leaves every probe unbounded
    cone = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    assert _ref_chebyshev_center([(0.0, 0.0)], cone, 2) == (True, math.inf)
    assert lk.lp_chebyshev_center(_set_tableau(2, [(0.0, 0.0)], cone)) \
        == math.inf
    assert lk.lp_chebyshev_center(_set_tableau(2, [], ())) is None


def _ref_threshold_system(d, G, groups):
    """The least penalty parameter's LP: the frozen capped system at
    c = 1 with each cap row's right-hand side 0 and a column t of -1 on
    the cap rows, t minimised."""
    _, A, b = _ref_penalty_system(d, 1.0, G, groups)
    b[d + 1:] = 0.0
    t = np.zeros(len(b))
    t[d + 1:] = -1.0
    cost = np.zeros(A.shape[1] + 1)
    cost[-1] = 1.0
    return cost, np.column_stack([A, t]), b


def _frozen_inclusion(c, G, groups):
    """The capped probe the penalty check once ran at each c: whether the
    frozen system at c is feasible (without a group, G's membership
    system)."""
    res = lk.simplex_solve(*_ref_penalty_system(G.d, c, G, groups))
    return res.status == "optimal"


def test_penalty_systems_match_the_frozen_builder(monkeypatch):
    """A set with cone groups solves one LP for its least penalty
    parameter, on the frozen capped system turned into the threshold
    system.  Without a group that system is the set's membership system:
    the check solves none and reads the kept optimum."""
    calls = _recording(monkeypatch, fo, "simplex_solve")
    seen = set()
    for ctx, G in _generator_sets():
        if G is not ctx.generators:
            continue   # the penalty check reads the plain set only
        groups = fo._penalty_groups(ctx.problem, G)
        seen.add(bool(groups))
        calls.clear()
        fo.penalty_subdiff_check(ctx, 0.5)
        _assert_systems(calls, [_ref_threshold_system(G.d, G, groups)]
                        if groups else [])
    assert seen == {False, True}


def _penalty_contexts():
    """Every registry problem at its default sampling and at the
    benchmark's 512 apex and 128 kernel directions, and the corpus's
    three files whose verdict flips with the penalty parameter."""
    for ctx in _registry_contexts():
        yield ctx
        if ctx.generators.sampled:
            yield PointContext(ctx.problem, ctx.x, replace(
                ctx.sampling, soc_dirs=512, sdp_dirs=128))
    spec = importlib.util.spec_from_file_location("report_corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    for name in ("semiinf.prob", "nlp_ineq.prob", "nlp_eq.prob"):
        yield PointContext(load_problem_text(corpus.FILES[name]), (0.0, 0.0))


def test_least_penalty_parameter_matches_the_capped_probe():
    """c >= c_min, the check's verdict, is the frozen capped probe's
    answer at every c of a grid that holds c_min and brackets it within
    1e-6."""
    c_mins = []
    for ctx in _penalty_contexts():
        G = ctx.generators
        groups = fo._penalty_groups(ctx.problem, G)
        c_min = fo.penalty_subdiff_check(ctx, 0.0).c_min
        c_mins.append(c_min)
        grid = [0.0, 1e-3, 0.1, 0.5, 0.75, 0.9, 1.0, 1.05, 1.1, 10.0, 1e3]
        if c_min:
            grid += [c_min * (1 - 1e-6), c_min, c_min * (1 + 1e-6)]
        for c in grid:
            rep = fo.penalty_subdiff_check(ctx, c)
            assert rep.c_min == c_min
            assert rep.zero_in_subdiff == (c_min is not None
                                           and c >= c_min)
            assert rep.zero_in_subdiff == _frozen_inclusion(c, G, groups), \
                (ctx.problem.source, c, c_min)
    assert len(c_mins) == 15 and c_mins.count(0.0) == 9
    assert sorted(c for c in c_mins if c) == pytest.approx(
        [0.5, 0.967946, 0.967946, 1.0, 1.0, 152.0], abs=1e-6)


def test_penalty_check_builds_one_tableau_for_its_threshold(monkeypatch,
                                                           capsys):
    """--penalty adds one phase 1 to a check when the point has cone
    groups (soc-example, with the benchmark's 512 apex directions), and
    none when it has none (dem)."""
    from conecert import cli
    builds, _ = _recording_tableaux(monkeypatch, lk, geometry)
    for argv, added in ((["--registry", "soc-example", "--soc-dirs", "512"],
                         1), (["--registry", "dem"], 0)):
        counts = []
        for penalty in ([], ["--penalty", "1"]):
            builds.clear()
            cli.main(["check", *argv, *penalty, "--json"])
            capsys.readouterr()
            counts.append(len(builds))
        assert counts[1] - counts[0] == added


def test_penalty_groups_reach_the_caps():
    """The registry problems with an equality or several inequalities give
    the builder more than one group, so the caps are exercised."""
    sizes = [len(fo._penalty_groups(ctx.problem, ctx.generators))
             for ctx in _registry_contexts()]
    assert max(sizes) >= 2


def test_vertex_systems_match_the_frozen_builder(monkeypatch):
    """The second-order LP of a polyhedral problem runs on the frozen
    vertex system, one solve per direction; curved blocks solve none."""
    tableaux, seen = _recording_tableaux(monkeypatch, geometry)
    built = 0
    for ctx, G in _generator_sets():
        report = fo.NecessaryReport(
            feasible=True, zero_in_D=True,
            multipliers=fo.MultiplierWitness(alpha=[], duals={}, nA=[]),
            cadre=None, agreement=True, sampling_limited=False,
            generators=G)
        seen.clear()
        tableaux.clear()
        so.multiplier_vertices(ctx, report, [np.eye(G.d)[0]])
        if not so._all_polyhedral(ctx.problem):
            assert seen == [] and tableaux == []
            continue
        Aeq, beq, n = _ref_vertex_system(G.d, G)
        assert len(seen) == 1 and len(tableaux) == 1
        assert seen[0][0].shape == (n,)
        _assert_systems([seen[0][1:]], [(Aeq, beq)])
        built += 1
    assert built == 9


def _ref_form_values(ctx, G, dirs):
    """The second-order forms as ``secondorder._form_maxima`` computed
    them with one ``simplex_solve`` per direction: inf when unbounded,
    None when the LP fails."""
    A, b = lk.combination_system(G.grads_F, G.cone)
    m = len(G.grads_F)
    H = np.array([so.hessian_bundle(ctx.jets,
                                    fo._assemble_witness(ctx, G, e[:m],
                                                         e[m:]))
                  for e in np.eye(A.shape[1])])
    D = np.array(dirs)
    values = []
    for q in np.einsum("jab,ka,kb->kj", H, D, D):
        res = lk.simplex_solve(-q, A, b)
        values.append(math.inf if res.status == "unbounded" else
                      float(q @ res.x) if res.status == "optimal" else None)
    return values


# problems whose second-order tests have critical directions at 0
_CRITICAL = (
    '[problem] dim=2\n[scenario] f="x(1)"\n'
    '[nlp_ineq] g="x(1) + 2*x(2)^2" g="-x(1) - x(2)^2"\n',
    '[problem] dim=2\n[scenario] f="x(1) + x(2)^2"\n'
    '[scenario] f="-x(1) - 2*x(2)^2"\n[scenario] f="x(1) + 3*x(2)^2"\n',
    '[problem] dim=3\n[scenario] f="x(1) + x(2)^2 - x(3)^2"\n'
    '[scenario] f="-x(2) + x(3)^2"\n'
    '[nlp_ineq] g="-x(1) + x(2) - x(3)^2" g="-x(1) - x(3)^2 + x(2)^2"\n',
)


def _second_order_systems():
    """(context, generator set, directions) of every polyhedral registry
    set along its signed axes, and of the three problems above along
    their sampled critical directions."""
    for ctx, G in _generator_sets():
        if so._all_polyhedral(ctx.problem):
            yield ctx, G, axis_directions(G.d)
    for text in _CRITICAL:
        P = load_problem_text(text)
        ctx = PointContext(P, (0.0,) * P.d)
        yield ctx, ctx.generators, so._critical_directions(ctx,
                                                            ctx.generators)


def test_form_maxima_are_the_per_direction_lps(monkeypatch):
    """Phase 1 does not read the cost, so the forms solved from one kept
    tableau equal the one-shot LP per direction bit for bit, and phase 1
    runs once per call however many directions there are; all the
    directions' LPs go to one stacked solve."""
    tableaux, solves = _recording_tableaux(monkeypatch, geometry)
    stacks = _counting(monkeypatch, lk.Tableau, "solve_stack")
    n_dirs, values = set(), []
    for ctx, G, dirs in _second_order_systems():
        want = _ref_form_values(ctx, G, dirs)
        tableaux.clear()
        solves.clear()
        stacks.clear()
        got = so._form_maxima(ctx, G, dirs)
        assert got is not None and got.values == want
        assert len(tableaux) == 1 and len(solves) == len(dirs)
        assert stacks == ["solve_stack"]
        n_dirs.add(len(dirs))
        values += want
    assert max(n_dirs) >= 6 and math.inf in values
    assert any(v < 0 for v in values) and any(0 < v < math.inf
                                              for v in values)


def test_cone_property_is_eta_then_nA():
    G = GeneratorSet(d=1, eta=[np.array([1.0])], nA=[np.array([-1.0])],
                     eta_prov=[Provenance("nlp_ineq", 0, 0)],
                     nA_prov=[Provenance("bound", index=0)])
    cone = G.cone
    assert cone.tolist() == [[1.0], [-1.0]]
    cone[:] = 2.0   # a new array: writing to it leaves eta and nA alone
    assert G.eta.tolist() == [[1.0]] and G.nA.tolist() == [[-1.0]]


def _builds_on(builds, G):
    """How many of the recorded builds ran phase 1 on G's system."""
    A, b = lk.combination_system(G.grads_F, G.cone)
    return sum(a.shape == A.shape and np.array_equal(a, A)
               and np.array_equal(c, b) for a, c in builds)


def test_one_phase_one_per_generator_set(monkeypatch, tmp_path, capsys):
    """A check with the second-order tests, on a polyhedral file with
    critical directions, runs phase 1 once on the generator set's system:
    membership, the margins and the forms all re-optimise from it.  The
    squared-deviation checks run it once more, on the squared set's own
    system, and never again on either."""
    from conecert import cli
    builds, solves = _recording_tableaux(monkeypatch, lk, geometry)
    path = tmp_path / "pinch.prob"
    path.write_text(_CRITICAL[0])
    cli.main(["check", "--file", str(path), "--at", "0,0", "--second-order",
              "--json"])
    tests = json.loads(capsys.readouterr().out)["second_order"]
    assert min(t["n_directions"] for t in tests) > 0
    ctx = PointContext(load_problem_text(_CRITICAL[0]), (0.0, 0.0))
    assert _builds_on(builds, ctx.generators) == 1
    # membership, 2d margin probes and one form per direction
    assert len(solves) >= 1 + 4 + tests[0]["n_directions"]

    ctx = PointContext(load_problem_text(CHEBYSHEV), (0.5, 0.0))
    builds.clear()
    for squared in (False, True):
        fo.necessary_check(ctx, squared=squared)
        fo.sufficient_check(ctx, squared=squared)
    assert _builds_on(builds, ctx.generators) == 1
    assert _builds_on(builds, ctx.squared) == 1


def _counting(monkeypatch, module, name):
    """Patch module.name to note each call, then run it; returns the list
    of notes."""
    real, calls = getattr(module, name), []

    def count(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, count)
    return calls


def test_relaxed_flavors_run_phase_one_once_per_set(monkeypatch, capsys):
    """On dem, a check with the generalised or weak flavor search and a
    penalty runs phase 1 twice: on the generator set's system, and for
    the hull point that both relaxed flavors' pools share.  The penalty
    check has no cone group there, so it reads the set's tableau: its
    least parameter is 0."""
    from conecert import cli
    builds, _ = _recording_tableaux(monkeypatch, lk, geometry)
    searches = _counting(monkeypatch, fo, "find_cadre")
    P, x, _ = registry.get("dem")
    for flavor in ("generalised", "weak"):
        builds.clear()
        searches.clear()
        assert cli.main(["check", "--registry", "dem", "--flavor", flavor,
                         "--penalty", "10", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["penalty"]["c_min"] == 0.0
        assert report["flavor_search"]["complete"]["p"] == 3
        # the flavor's first search, complete here; the plain cadre is
        # read off the membership basis
        assert len(searches) == 1 and len(builds) == 2
        assert _builds_on(builds, PointContext(P, x).generators) == 1


def test_penalty_reads_the_kept_membership_optimum(monkeypatch, capsys):
    """On dem the penalty check has no cone group, so it reads the
    membership optimum that the necessary check solved: a check with a
    penalty solves the membership system once per generator set."""
    from conecert import cli
    builds, solves = _recording_tableaux(monkeypatch, lk, geometry)
    assert cli.main(["check", "--registry", "dem", "--penalty", "10",
                     "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["penalty"]["c_min"] == 0.0
    P, x, _ = registry.get("dem")
    G = PointContext(P, x).generators
    A, b = lk.combination_system(G.grads_F, G.cone)
    assert _builds_on(builds, G) == 1
    assert sum(not c.any() and a.shape == A.shape and np.array_equal(a, A)
               and np.array_equal(rhs, b) for c, a, rhs in solves) == 1


def test_refuted_weak_search_decides_its_complete_search(monkeypatch,
                                                         capsys):
    """At a refuted point of dem the weak search finds no cadre.  It
    walked every p = d + 1 subset, so the complete weak search, which
    finds none either, does not run: the check enumerates for the first
    weak search alone, and runs two phase 1s."""
    from conecert import cli
    at = (1e-7, -3.0000001)
    builds, _ = _recording_tableaux(monkeypatch, lk, geometry)
    searches = _counting(monkeypatch, fo, "find_cadre")
    assert cli.main(["check", "--registry", "dem", "--at=1e-7,-3.0000001",
                     "--flavor", "weak", "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert not report["necessary"]["zero_in_D"]
    assert report["flavor_search"] == {"flavor": "weak", "cadre": None,
                                       "complete": None, "stopped": None}
    assert len(searches) == 1 and len(builds) == 2
    monkeypatch.undo()
    P, _, _ = registry.get("dem")
    assert fo.find_cadre(PointContext(P, at).generators, "weak",
                         p_min=3) is None


def test_searches_are_kept_per_set_and_arguments(monkeypatch):
    """A set keeps each search under all of its arguments, eps_det
    among them.  The plain first search enumerates no subset: it reads
    the set's kept membership optimum, which the necessary check solved.
    The squared set keeps its own searches and optimum apart from the
    plain set's, and a set made by dataclasses.replace starts with none."""
    ctx = PointContext(load_problem_text(CHEBYSHEV), (0.5, 0.0))
    eps_det = ctx.problem.tolerances.eps_det
    _, solves = _recording_tableaux(monkeypatch, lk, geometry)
    searches = _counting(monkeypatch, fo, "find_cadre")
    G = ctx.generators
    first = fo.cadre_search(G)
    assert fo.necessary_check(ctx).cadre is first[0]
    assert searches == [] and len(solves) == 1
    S = ctx.squared
    for fresh in (S, replace(G)):
        assert fresh.memo == {} and "membership" not in vars(fresh)
    squared = fo.necessary_check(ctx, squared=True).cadre
    assert searches == [] and len(solves) == 2
    monkeypatch.undo()
    assert np.array_equal(squared.vectors,
                          fo._basis_cadre(S, eps_det).vectors)
    assert not np.array_equal(squared.vectors, first[0].vectors)
    searches = _counting(monkeypatch, fo, "find_cadre")
    for kwargs in ({"eps_det": 1e-6}, {"complete": True},
                   {"flavor": "weak"}):
        fo.cadre_search(G, **kwargs)
    # the sets' tableaux still record: no search solved membership again
    assert len(searches) == 2 and len(solves) == 2
    assert ("cadre", "plain", False, 1e-6) in G.memo
    assert fo.cadre_search(G) is first and len(searches) == 2
