"""``linkernel.combination_system`` against frozen copies of the four
builders it replaced: the membership LP, the direction-margin LP, the
penalty inclusion with its per-group caps and the multiplier-vertex
system.  Each must hand its solver the same A and b as before, and the
interior margin must be the old per-probe minimum, None where the old
report said infeasible.  The margins and the second-order forms solve
every objective on one system from one kept phase 1 (``Tableau``); the
frozen references solve each LP alone."""

import json
import math

import numpy as np

from conecert import firstorder as fo
from conecert import geometry
from conecert import linkernel as lk
from conecert import registry
from conecert import secondorder as so
from conecert.cones import axis_directions
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


def _recording_tableaux(monkeypatch, *modules):
    """Patch Tableau in each module to record copies of the systems (A, b)
    it is built on (phase 1 runs once per build) and, per solve, copies of
    the cost, the system [A | column] and b, then solve."""
    builds, calls = [], []

    class Recording(lk.Tableau):
        def __init__(self, A, b):
            builds.append((np.array(A, dtype=float, copy=True),
                           np.array(b, dtype=float, copy=True)))
            super().__init__(A, b)

        def solve(self, c, column=None):
            A = self.A if column is None else np.column_stack(
                [self.A, column])
            calls.append(tuple(np.array(a, dtype=float, copy=True)
                               for a in (c, A, self.b)))
            return super().solve(c, column)

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
        for u in _ref_probes(G.d):
            calls.clear()
            next(lk._margins(G.tableau, [u]))
            _assert_systems(calls, [_ref_margin_system(u, G.grads_F,
                                                       G.cone)])


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
    from one phase 1.  Where the origin lies outside the set, that phase
    1 is infeasible and the first probe already reads None, while the
    reference may find r * u in the set for some r > 0 and stop later."""
    builds, calls = _recording_tableaux(monkeypatch, lk, geometry)
    outcomes = set()
    for d, hull, cone in _chebyshev_cases():
        calls.clear()
        feasible, margin = _ref_chebyshev_center(hull, cone, d)
        want, calls[:], builds[:] = list(calls), [], []
        got = lk.lp_chebyshev_center(_set_tableau(d, hull, cone))
        # the same LPs, in the same order, stopping at the same probe, or
        # at the first one when the origin is outside the set
        _assert_systems(calls, want if feasible else want[:1])
        assert len(builds) == 1
        assert got == (margin if feasible else None)
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


def test_margins_match_the_per_probe_reference_on_random_families():
    """On 1,000 seeded families, each probe's margin from the kept phase
    1 matches the frozen per-probe LP: None and inf exactly, finite values
    within 1e-12 times max(1, |reference|).  Where the origin is outside
    the set every probe reads None."""
    outcomes = set()
    for d, hull, cone in _random_wide_families(1000, 20261018):
        probes = _ref_probes(d)
        got = list(lk._margins(_set_tableau(d, hull, cone), probes))
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
    assert outcomes == {"none", "inf", "finite", "zero"}


def test_linf9_margins_run_phase_one_once(monkeypatch):
    """The 19 probes of linf d = 9 share one phase 1."""
    G = PointContext(*registry.get("linf", dim=9)).generators
    builds, calls = _recording_tableaux(monkeypatch, geometry)
    margin = lk.lp_chebyshev_center(G.tableau)
    assert len(builds) == 1 and len(calls) == 19
    assert margin == _ref_chebyshev_center(G.grads_F, G.cone, 9)[1]


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


def test_penalty_systems_match_the_frozen_builder(monkeypatch):
    calls = _recording(monkeypatch, fo, "simplex_solve")
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
    tableaux, seen = _recording_tableaux(monkeypatch, geometry)
    built = 0
    for ctx, G in _generator_sets():
        report = fo.NecessaryReport(
            feasible=True, zero_in_D=True,
            multipliers=fo.MultiplierWitness(alpha=[], duals={}, nA=[]),
            cadre=None, agreement=True, sampling_limited=False,
            budget_exceeded=False, generators=G)
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
    H = np.array([so.hessian_bundle(ctx.problem, ctx.x,
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
    runs once per call however many directions there are."""
    tableaux, solves = _recording_tableaux(monkeypatch, geometry)
    n_dirs, values = set(), []
    for ctx, G, dirs in _second_order_systems():
        want = _ref_form_values(ctx, G, dirs)
        tableaux.clear()
        solves.clear()
        got = so._form_maxima(ctx, G, dirs)
        assert got is not None and got.values == want
        assert len(tableaux) == 1 and len(solves) == len(dirs)
        n_dirs.add(len(dirs))
        values += want
    assert max(n_dirs) >= 6 and math.inf in values
    assert any(v < 0 for v in values) and any(0 < v < math.inf
                                              for v in values)


def test_cone_property_is_eta_then_nA():
    G = GeneratorSet(d=1, eta=[np.array([1.0])], nA=[np.array([-1.0])],
                     eta_prov=[Provenance("nlp_ineq", 0, 0)],
                     nA_prov=[Provenance("bound", index=0)])
    assert [float(v[0]) for v in G.cone] == [1.0, -1.0]
    G.cone.append(np.array([2.0]))
    assert len(G.eta) == 1 and len(G.nA) == 1


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
    # membership, 2d + 1 margin probes and one form per direction
    assert len(solves) >= 1 + 5 + tests[0]["n_directions"]

    ctx = PointContext(load_problem_text(CHEBYSHEV), (0.5, 0.0))
    builds.clear()
    for squared in (False, True):
        fo.necessary_check(ctx, squared=squared)
        fo.sufficient_check(ctx, squared=squared)
    assert _builds_on(builds, ctx.generators) == 1
    assert _builds_on(builds, ctx.squared) == 1
