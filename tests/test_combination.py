"""``linkernel.combination_system`` against frozen copies of the four
builders it replaced: the membership LP, the direction-margin LP, the
penalty inclusion with its per-group caps and the multiplier-vertex
system.  Each must hand its solver the same A and b as before, and the
interior margin must be the old per-probe minimum, None where the old
report said infeasible."""

import math

import numpy as np

from conecert import firstorder as fo
from conecert import linkernel as lk
from conecert import registry
from conecert import secondorder as so
from conecert.geometry import GeneratorSet, PointContext, Provenance
from conecert.problem import load_problem_text
from conftest import random_generator_family

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
    res = lk.simplex_checked(*_ref_margin_system(direction, hull, cone))
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
    dirs.append(-np.ones(d) / math.sqrt(d))
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


def _assert_systems(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g) == len(w)
        for a, b in zip(g, w):
            assert a.shape == b.shape and np.array_equal(a, b)


def test_membership_and_margin_systems_match_the_frozen_builders(
        monkeypatch):
    calls = _recording(monkeypatch, lk, "simplex_checked")
    for _, G in _generator_sets():
        target = np.zeros(G.d)
        calls.clear()
        lk.lp_membership(target, G.grads_F, G.cone)
        _assert_systems(calls, [_ref_membership_system(target, G.grads_F,
                                                       G.cone)])
        for u in _ref_probes(G.d):
            calls.clear()
            lk.lp_direction_margin(u, G.grads_F, G.cone)
            _assert_systems(calls, [_ref_margin_system(u, G.grads_F,
                                                       G.cone)])


def test_membership_targets_other_than_zero(monkeypatch):
    calls = _recording(monkeypatch, lk, "simplex_checked")
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
    calls = _recording(monkeypatch, lk, "simplex_checked")
    outcomes = set()
    for d, hull, cone in _chebyshev_cases():
        calls.clear()
        feasible, margin = _ref_chebyshev_center(hull, cone, d)
        want, calls[:] = list(calls), []
        got = lk.lp_chebyshev_center(hull, cone)
        # the same LPs, in the same order, stopping at the same probe
        _assert_systems(calls, want)
        assert got == (margin if feasible else None)
        outcomes.add("none" if got is None else
                     "inf" if math.isinf(got) else "finite")
    assert outcomes == {"none", "inf", "finite"}


def test_interior_margin_reads_none_and_inf():
    # the origin is outside co{(1, 1)}: no probe is attainable
    assert _ref_chebyshev_center([(1.0, 1.0)], (), 2) == (False, 0.0)
    assert lk.lp_chebyshev_center([(1.0, 1.0)]) is None
    # a cone spanning the plane leaves every probe unbounded
    cone = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    assert _ref_chebyshev_center([(0.0, 0.0)], cone, 2) == (True, math.inf)
    assert lk.lp_chebyshev_center([(0.0, 0.0)], cone) == math.inf
    assert lk.lp_chebyshev_center([]) is None


def test_penalty_systems_match_the_frozen_builder(monkeypatch):
    calls = _recording(monkeypatch, fo, "simplex_checked")
    for ctx, G in _generator_sets():
        if G is not ctx.generators:
            continue   # the penalty check reads the plain set only
        groups = fo._penalty_groups(ctx.problem, G)
        for c in (0.0, 0.5, 10.0):
            calls.clear()
            fo._penalty_inclusion(c, G, groups)
            _assert_systems(calls, [_ref_penalty_system(G.d, c, G, groups)])


def test_penalty_groups_reach_the_caps():
    """The registry problems with an equality or several inequalities give
    the builder more than one group, so the caps are exercised."""
    sizes = [len(fo._penalty_groups(ctx.problem, ctx.generators))
             for ctx in _registry_contexts()]
    assert max(sizes) >= 2


def test_vertex_systems_match_the_frozen_builder(monkeypatch):
    """The second-order LP of a polyhedral problem runs on the frozen
    vertex system, one solve per direction; curved blocks solve none."""
    seen = _recording(monkeypatch, so, "simplex_checked")
    built = 0
    for ctx, G in _generator_sets():
        report = fo.NecessaryReport(
            feasible=True, zero_in_D=True,
            multipliers=fo.MultiplierWitness(alpha=[], duals={}, nA=[]),
            cadre=None, agreement=True, sampling_limited=False,
            budget_exceeded=False, generators=G)
        seen.clear()
        so.multiplier_vertices(ctx, report, [np.eye(G.d)[0]])
        if not so._all_polyhedral(ctx.problem):
            assert seen == []
            continue
        Aeq, beq, n = _ref_vertex_system(G.d, G)
        assert len(seen) == 1
        assert seen[0][0].shape == (n,)
        _assert_systems([seen[0][1:]], [(Aeq, beq)])
        built += 1
    assert built == 9


def test_cone_property_is_eta_then_nA():
    G = GeneratorSet(d=1, eta=[np.array([1.0])], nA=[np.array([-1.0])],
                     eta_prov=[Provenance("nlp_ineq", 0, 0)],
                     nA_prov=[Provenance("bound", index=0)])
    assert [float(v[0]) for v in G.cone] == [1.0, -1.0]
    G.cone.append(np.array([2.0]))
    assert len(G.eta) == 1 and len(G.nA) == 1
