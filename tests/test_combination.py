"""``linkernel.combination_system`` against frozen copies of the four
builders it replaced: the membership LP, the direction-margin LP, the
penalty inclusion with its per-group caps and the multiplier-vertex
system.  Each must hand its solver the same A and b as before, the
penalty threshold the capped system turned into its least-parameter LP,
and the interior margin must be the old per-probe minimum over the 2d
signed axes, None where the old report said infeasible.  The margins and the second-order forms solve
every objective on one system from one kept phase 1 (``Tableau``); the
frozen references solve each LP alone."""

import importlib.util
import json
import math
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
    """The 18 probes of linf d = 9 share one phase 1."""
    G = PointContext(*registry.get("linf", dim=9)).generators
    builds, calls = _recording_tableaux(monkeypatch, geometry)
    margin = lk.lp_chebyshev_center(G.tableau)
    assert len(builds) == 1 and len(calls) == 18
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
                                       "complete": None}
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
