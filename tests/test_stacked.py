"""The stacked sample screens against frozen copies of the one-sample loops
they replaced.  The growth probe, the critical-direction screen, the
tangent tester's per-block screen and check_feasible must give the same
results bit for bit: the same samples, in the same order, with the same
floats."""

import math
import struct
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from conecert import expr as ex
from conecert import geometry as geo
from conecert import oracle, registry
from conecert import problem as pb
from conecert import secondorder as so
from conecert.cones import builtin_max
from conecert.problem import load_problem_text
from test_cli import _count_calls

# ---------------------------------------------------------------------------
# frozen copies of the one-sample code
# ---------------------------------------------------------------------------


def _ref_sdp_matrix(blk, x):
    n = blk.size
    M = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            M[i, j] = ex.eval_value(blk.G0[i][j], x)
    return 0.5 * (M + M.T)


def _ref_violations(blk, x, position):
    if blk.kind == "nlp_ineq":
        return [(f"block {position} inequality {i + 1}", ex.eval_value(g, x))
                for i, g in enumerate(blk.g)]
    if blk.kind == "nlp_eq":
        return [(f"block {position} equality {j + 1}",
                 abs(ex.eval_value(b, x))) for j, b in enumerate(blk.b)]
    if blk.kind == "soc":
        vals = np.array([ex.eval_value(g, x) for g in blk.g])
        return [(f"block {position} second-order cone",
                 float(np.linalg.norm(vals[1:])) - vals[0])]
    if blk.kind == "sdp":
        sigma = np.linalg.eigvalsh(_ref_sdp_matrix(blk, x))
        return [(f"block {position} matrix cone", float(sigma[-1]))]
    assert blk.kind == "semi_infinite"
    vals = [ex.eval_value(blk.g, np.concatenate([x, [t]])) for t in blk.grid]
    return [(f"block {position} semi-infinite", max(vals))]


def _ref_check_feasible(P, x):
    x = np.asarray(x, dtype=float)
    eps = P.tolerances.eps_feas
    bad = []

    def record(desc, amount):
        if amount > eps:
            bad.append((desc, float(amount)))

    for pos, blk in enumerate(P.blocks):
        for desc, amount in _ref_violations(blk, x, pos):
            record(desc, amount)
    A = P.set_A
    for i in range(P.d):
        if A.lb[i] != -math.inf:
            record(f"lower bound on x({i + 1})", A.lb[i] - x[i])
        if A.ub[i] != math.inf:
            record(f"upper bound on x({i + 1})", x[i] - A.ub[i])
    for r, (row, rhs) in enumerate(zip(A.E, A.e)):
        record(f"affine equality {r + 1}", abs(float(np.dot(row, x)) - rhs))
    worst = max((amt for _, amt in bad), default=0.0)
    return pb.FeasibilityReport(feasible=not bad, max_violation=worst,
                                violations=bad)


def _ref_tangent_test(blk, x, state, rows):
    if blk.kind != "soc":
        return lambda h, eps: all(float(r @ h) <= eps for r in rows)
    if state.soc_state == "inactive":
        return lambda h, eps: True
    J = np.array([ex.eval2(g, x).grad for g in blk.g])
    if state.soc_state == "boundary":
        ybar = state.soc_value[1:]
        row = J[1:].T @ (ybar / float(np.linalg.norm(ybar))) - J[0]
        return lambda h, eps: float(row @ h) <= eps

    def stays_in_cone(h, eps):
        Jh = J @ h
        return Jh[0] >= float(np.linalg.norm(Jh[1:])) - eps
    return stays_in_cone


class _RefTester:
    def __init__(self, P, x, act, G, eps=None):
        x = np.asarray(x, dtype=float)
        self.eps = P.tolerances.eps_feas if eps is None else eps
        rows = {ba.position: [] for ba in act.blocks}
        for v, pr in zip(G.eta, G.eta_prov):
            rows[pr.block].append(v)
        self._blocks = [(ba.position, blk.kind,
                         _ref_tangent_test(blk, x, ba, rows[ba.position]))
                        for ba, blk in zip(act.blocks, P.blocks)]
        self._A_rows = G.nA

    def report(self, h):
        """Per block, whether h passes the block's test, and whether h
        passes the polyhedral set's."""
        h = np.asarray(h, dtype=float)
        blocks = [test(h, self.eps) for _, _, test in self._blocks]
        in_A = all(float(r @ h) <= self.eps for r in self._A_rows)
        return blocks, in_A

    def accepts(self, h):
        blocks, in_A = self.report(h)
        return in_A and all(blocks)


def _ref_directional_derivative(grads, h):
    h = np.asarray(h, dtype=float)
    return max(float(np.dot(v, h)) for v in grads)


def _ref_critical_directions(tester, d, G, n_dirs, seed, eps_crit):
    rng = np.random.default_rng(seed + 307)
    candidates = []
    for k in range(d):
        e = np.zeros(d)
        e[k] = 1.0
        candidates.append(e)
        candidates.append(-e)
    rows = [np.asarray(v, dtype=float) for v in G.grads_F]
    rows += [np.asarray(v, dtype=float) for v in G.eta]
    rows += [np.asarray(v, dtype=float) for v in G.nA]
    if rows:
        M = np.vstack(rows)
        _, s, Vt = np.linalg.svd(M)
        null = Vt[int(np.sum(s > 1e-10)):]
        for row in null:
            candidates.append(row)
            candidates.append(-row)
    for _ in range(n_dirs):
        candidates.append(rng.standard_normal(d))
    out = []
    for h in candidates:
        norm = np.linalg.norm(h)
        if norm < 1e-12:
            continue
        h = h / norm
        if any(np.linalg.norm(k - h) < 1e-9 for k in out):
            continue
        if not tester.accepts(h):
            continue
        if abs(_ref_directional_derivative(G.grads_F, h)) > eps_crit:
            continue
        out.append(h)
    return out


def _ref_growth_probe(P, x, order=1, n_samples=2000, radius=0.1, seed=0,
                      eps=1e-9, min_feasible=50, skip_undefined=False):
    """The probe as a loop over one sample at a time, on the probe's
    stream: every normal first, then one uniform per non-null normal;
    ``skip_undefined`` passes over a sample whose evaluation raises
    instead of failing, as the stacked probe does."""
    x = np.asarray(x, dtype=float)
    F0, _ = pb.evaluate_objective(P, x)
    rng = np.random.default_rng(seed + 17)
    frame = oracle._equality_frame(P.set_A, P.d)
    k = frame.shape[1]
    if k == 0:
        raise oracle.TooFewFeasibleSamples(0, min_feasible)
    kept = 0
    best = math.inf
    worst_point = None
    refuted = False
    normals = [rng.standard_normal(k) for _ in range(n_samples)]
    for u in normals:
        norm = np.linalg.norm(u)
        if norm < 1e-12:
            continue
        step = radius * rng.random() ** (1.0 / k) * (u / norm)
        y = x + frame @ step
        try:
            if not _ref_check_feasible(P, y).feasible:
                continue
            dist = float(np.linalg.norm(y - x))
            if dist < 1e-12:
                continue
            Fy, _ = pb.evaluate_objective(P, y)
        except ex.DomainError:
            if not skip_undefined:
                raise
            continue
        kept += 1
        if Fy < F0 - eps:
            refuted = True
            worst_point = y.tolist()
            break
        quotient = (Fy - F0) / dist ** order
        if quotient < best:
            best = quotient
            worst_point = y.tolist()
    if refuted:
        return oracle.GrowthProbe(order=order, n_feasible=kept, refuted=True,
                                  constant=None, worst_point=worst_point)
    if kept < min_feasible:
        raise oracle.TooFewFeasibleSamples(kept, min_feasible)
    return oracle.GrowthProbe(order=order, n_feasible=kept, refuted=False,
                              constant=float(best), worst_point=worst_point)


# ---------------------------------------------------------------------------
# bitwise comparison
# ---------------------------------------------------------------------------


def _bits(v):
    v = float(v)
    return "nan" if v != v else struct.pack("<d", v)


def _assert_same(a, b, where=""):
    """Equal structure, equal types up to numpy scalars, floats equal bit
    for bit (any NaN equals any NaN)."""
    if isinstance(a, (bool, np.bool_)) or isinstance(b, (bool, np.bool_)):
        assert isinstance(a, (bool, np.bool_)) and bool(a) == bool(b), where
    elif isinstance(a, (float, np.floating)):
        assert isinstance(b, (float, np.floating)), where
        assert _bits(a) == _bits(b), (where, a, b)
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.shape == b.shape, where
        assert [_bits(v) for v in a.ravel()] == [_bits(v) for v in
                                                 b.ravel()], where
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), (where, a, b)
        for i, (u, v) in enumerate(zip(a, b)):
            _assert_same(u, v, f"{where}[{i}]")
    elif is_dataclass(a):
        assert type(a) is type(b), where
        for f in fields(a):
            _assert_same(getattr(a, f.name), getattr(b, f.name),
                         f"{where}.{f.name}")
    else:
        assert type(a) is type(b) and a == b, (where, a, b)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (oracle.TooFewFeasibleSamples, ex.DomainError) as err:
        return type(err), str(err)


# ---------------------------------------------------------------------------
# the problems: every registry problem, linf d = 2..9 and hand-written
# files covering each block kind and the polyhedral set
# ---------------------------------------------------------------------------

_FILES = {
    "nlp_eq": ('[problem] dim=2\n[scenario] f="x(1)^2 + x(2)^2"\n'
               '[scenario] f="x(1) + x(2)"\n[nlp_eq] b="x(1) - x(2)"\n',
               (0.0, 0.0)),
    "nlp_ineq": ('[problem] dim=2\n[scenario] f="x(1)^2 - x(2)"\n'
                 '[scenario] f="-x(1) + x(2)^2"\n'
                 '[nlp_ineq] g="x(1)^2 + x(2)^2 - 1" g="1/(x(1) + 2) - 1"\n',
                 (0.6, 0.8)),
    "semiinf": ('[problem] dim=2\n[scenario] f="x(1)^2 + x(2)^2"\n'
                '[scenario] f="-x(2)"\n'
                '[semiinf] g="x(2) - 1 - t*x(1)" grid=-1:1:21\n', (0.0, 1.0)),
    "semiinf-curved": ('[problem] dim=2\n'
                       '[scenario] f="x(1)^2 + (x(2) - 2)^2"\n'
                       '[semiinf] g="x(1)*cos(t) + x(2)*sin(t) - 1" '
                       'grid=0:1.5:31\n', (0.3, 0.9)),
    "soc-apex": ('[problem] dim=3\n[scenario] f="x(1)"\n'
                 '[scenario] f="x(2)^2 + x(3)^2 - x(1)"\n'
                 '[soc] g1="x(1)" g2="x(2)" g3="x(3)"\n', (0.0, 0.0, 0.0)),
    "soc-boundary": ('[problem] dim=2\n[scenario] f="x(1) + x(2)"\n'
                     '[soc] g1="1" g2="x(1)" g3="x(2)"\n',
                     (-0.6, -0.8)),
    "sdp": ('[problem] dim=2\n[scenario] f="x(1) + x(2)"\n'
            '[scenario] f="-x(1)"\n[sdp] size=2 entry(1,1)="-x(1)" '
            'entry(1,2)="x(2)" entry(2,2)="-1"\n', (0.0, 0.0)),
    "set-eq": ('[problem] dim=3\n'
               '[scenario] f="x(1)^2 + x(2)^2 + x(3)^2"\n'
               '[scenario] f="x(1) + x(2) + x(3)"\n'
               '[set] lb="-1,-1,-1" ub="1,1,1" '
               'eq="x(1) + x(2) + x(3) = 0"\n', (0.0, 0.0, 0.0)),
    "set-bound": ('[problem] dim=3\n[scenario] f="x(1)^2 + x(2)^2 - x(3)"\n'
                  '[scenario] f="x(3) - x(1)"\n'
                  '[set] lb="0,-1,-inf" eq="x(1) + 2*x(2) - x(3) = 0"\n',
                  (0.0, 0.0, 0.0)),
    "chebyshev": ('[problem] dim=2 kind=chebyshev\n'
                  '[scenario] f="x(1) - x(2)" psi=1\n'
                  '[scenario] f="x(1)" psi=0\n'
                  '[scenario] f="x(1) + x(2)" psi=1\n', (0.5, 0.5)),
    "quartic": ('[problem] dim=1\n[scenario] f="x(1)^4"\n', (0.0,)),
    "linear": ('[problem] dim=1\n[scenario] f="x(1)"\n', (0.0,)),
    "mixed": ('[problem] dim=3\n'
              '[scenario] f="exp(x(1)) - 2 + abs(x(2) - 1)"\n'
              '[scenario] f="sqrt(x(3)^2 + 1) - 1 - x(1)"\n'
              '[nlp_ineq] g="x(1)^3 - x(2)"\n'
              '[nlp_eq] b="x(1) + x(2) + x(3)"\n'
              '[soc] g1="1 - x(3)" g2="x(1)" g3="x(2)"\n', (0.0, 0.0, 0.0)),
}


def _cases():
    out = []
    for name in registry.NAMES:
        for d in (range(2, 10) if name == "linf" else (None,)):
            P, x, sampling = registry.get(name, dim=d)
            out.append((name + (f"-d{d}" if d else ""), P, x, sampling))
    for name, (text, x) in _FILES.items():
        out.append((name, load_problem_text(text), x, geo.SamplingSpec()))
    return out


CASES = _cases()
IDS = [c[0] for c in CASES]


def _ref_tester(ctx):
    return _RefTester(ctx.problem, ctx.x, ctx.act, ctx.generators)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order", [1, 2])
def test_growth_probe_matches_the_loop(order):
    outcomes = set()
    for name, P, x, _ in CASES:
        got = _outcome(oracle.growth_probe, P, x, order=order)
        ref = _outcome(_ref_growth_probe, P, x, order=order)
        _assert_same(got, ref, name)
        outcomes.add(type(got).__name__ if not isinstance(got, tuple)
                     else got[0].__name__)
        if isinstance(got, oracle.GrowthProbe):
            outcomes.add("refuted" if got.refuted else "fitted")
    assert outcomes == {"GrowthProbe", "refuted", "fitted",
                        "TooFewFeasibleSamples"}


def test_growth_probe_matches_the_loop_on_other_draws():
    for name, P, x, _ in CASES[::3]:
        for seed, radius in ((5, 0.1), (9, 1.5)):
            got = _outcome(oracle.growth_probe, P, x, seed=seed,
                           radius=radius, n_samples=300, min_feasible=10)
            ref = _outcome(_ref_growth_probe, P, x, seed=seed,
                           radius=radius, n_samples=300, min_feasible=10)
            _assert_same(got, ref, name)


# negative semidefinite for x(1) >= 0, undefined for x(1) < 0
_SDP_SQRT = ('[problem] dim=1\n[scenario] f="abs(x(1) - 0.01)"\n'
             '[sdp] size=2 entry(1,1)="-x(1)" entry(1,2)="sqrt(x(1))" '
             'entry(2,2)="-1"\n')


def test_growth_probe_skips_undefined_samples():
    """Samples where a constraint or scenario value is undefined are
    passed over, as the loop would pass over them if evaluation did not
    raise; before, the first such sample ended the probe."""
    texts = [
        '[problem] dim=1\n[scenario] f="x(1)"\n'
        '[nlp_ineq] g="0.05 - x(1)" g="sqrt(x(1)) - 2"\n',
        '[problem] dim=2\n[scenario] f="sqrt(x(1)) + x(2)^2"\n'
        '[scenario] f="-x(2)"\n',
        '[problem] dim=2\n[scenario] f="x(1)^2 + x(2)^2"\n'
        '[semiinf] g="sqrt(x(1)) - 1 - t" grid=0:1:5\n',
        _SDP_SQRT,
    ]
    points = [(0.05,), (0.01, 0.0), (0.01, 0.0), (0.01,)]
    for text, x in zip(texts, points):
        P = load_problem_text(text)
        with pytest.raises(ex.DomainError):
            _ref_growth_probe(P, x)
        got = oracle.growth_probe(P, x)
        _assert_same(got, _ref_growth_probe(P, x, skip_undefined=True), text)


def test_probe_evaluates_the_problem_in_stacks(monkeypatch):
    from conecert import problem
    counts = _count_calls(monkeypatch, (problem, "check_feasible"),
                          (problem, "evaluate_objective"))
    P, x, _ = registry.get("sdp-example")
    probe = oracle.growth_probe(P, x)
    assert probe.n_feasible > 100
    assert counts.get("check_feasible", 0) <= 1
    assert counts.get("evaluate_objective", 0) <= 1


def _critical_cases():
    yield from CASES
    for name, dirs in (("soc-example", 512), ("sdp-example", 128)):
        P, x, _ = registry.get(name)
        yield (f"{name}-{dirs}", P, x,
               geo.SamplingSpec(soc_dirs=dirs, sdp_dirs=dirs))


def test_critical_directions_match_the_loop(monkeypatch):
    kept = 0
    for name, P, x, sampling in _critical_cases():
        if not pb.check_feasible(P, x).feasible:
            continue
        for seed, eps_crit in ((0, 1e-8), (3, 0.5)):
            monkeypatch.setattr(so, "EPS_CRIT", eps_crit)
            ctx = geo.PointContext(P, x, replace(sampling, seed=seed))
            for G in (ctx.generators, ctx.squared) \
                    if P.kind == "chebyshev" else (ctx.generators,):
                got = so._critical_directions(ctx, G)
                ref = _ref_critical_directions(_ref_tester(ctx), P.d, G,
                                               so.N_CRITICAL_DIRS, seed,
                                               eps_crit)
                _assert_same(got, ref, name)
                kept += len(got)
    assert kept > 500


def test_tangent_report_matches_the_loop(rng):
    for name, P, x, sampling in _critical_cases():
        if not pb.check_feasible(P, x).feasible:
            continue
        ctx = geo.PointContext(P, x, sampling)
        ref = _ref_tester(ctx)
        H = np.vstack([np.eye(P.d), -np.eye(P.d),
                       rng.standard_normal((60, P.d)),
                       np.zeros((1, P.d))])
        H[3::4] /= np.linalg.norm(H[3::4], axis=1, keepdims=True) + 1.0
        expected = [ref.accepts(h) for h in H]
        assert ctx.tester.accepted(H).tolist() == expected, name
        blocks, in_A = ctx.tester.screen(H)
        for i, h in enumerate(H):
            ref_blocks, ref_in_A = ref.report(h)
            _assert_same([ok[i] for ok in blocks], ref_blocks, name)
            _assert_same(in_A[i], ref_in_A, name)
            assert ctx.tester.accepted(h[None])[0] == ref.accepts(h)


def test_check_feasible_matches_the_loop(rng):
    infeasible = 0
    for name, P, x, _ in CASES:
        x = np.asarray(x, dtype=float)
        points = [x, x + 1.0] + [x + rng.normal(scale=s, size=P.d)
                                 for s in (1e-3, 0.1, 0.1, 1.0, 1.0)]
        for y in points:
            got = _outcome(pb.check_feasible, P, y)
            ref = _outcome(_ref_check_feasible, P, y)
            _assert_same(got, ref, name)
            if isinstance(ref, pb.FeasibilityReport):
                infeasible += not ref.feasible
        feasible, undefined = pb.feasibility(P, np.array(points).T)
        ref = [_outcome(_ref_check_feasible, P, y) for y in points]
        assert undefined.tolist() == [isinstance(r, tuple) for r in ref]
        assert feasible.tolist() == [
            isinstance(r, pb.FeasibilityReport) and r.feasible for r in ref]
    assert infeasible > 20


def test_check_feasible_raises_the_first_undefined_value():
    P = load_problem_text(
        '[problem] dim=2\n[scenario] f="x(1)"\n'
        '[nlp_ineq] g="x(2)" g="sqrt(x(1)) - 1"\n'
        '[semiinf] g="-1/(x(1) - t)^2" grid=-1:1:3\n')
    # at x(1) = -1 the sqrt fails before the division by zero does
    for y in ((-1.0, 0.0), (0.0, 2.0), (1.0, 0.0)):
        ref = _outcome(_ref_check_feasible, P, y)
        assert isinstance(ref, tuple)
        assert _outcome(pb.check_feasible, P, y) == ref
    feasible, undefined = pb.feasibility(
        P, np.array([(-1.0, 0.0), (0.0, 0.0), (0.25, -1.0)]).T)
    assert undefined.tolist() == [True, True, False]
    assert feasible.tolist() == [False, False, True]


def test_undefined_matrix_entries_reach_no_eigensolver(monkeypatch):
    """The matrices of undefined points are not passed to eigvalsh: one NaN
    matrix could make it fail for the whole stack."""
    eigvalsh = np.linalg.eigvalsh

    def finite_only(M):
        assert np.isfinite(M).all()
        return eigvalsh(M)

    monkeypatch.setattr(np.linalg, "eigvalsh", finite_only)
    P = load_problem_text(_SDP_SQRT)
    feasible, undefined = pb.feasibility(P, np.array([[-1.0, 0.0, 0.25]]))
    assert undefined.tolist() == [True, False, False]
    assert feasible.tolist() == [False, True, True]
    for y in ((-1.0,), (-1e-3,)):
        ref = _outcome(_ref_check_feasible, P, y)
        assert ref == (ex.DomainError, "sqrt of a negative number")
        assert _outcome(pb.check_feasible, P, y) == ref
    assert pb.check_feasible(P, (0.25,)).feasible
    probe = oracle.growth_probe(P, (0.01,))
    assert 0 < probe.n_feasible < 2000 and not probe.refuted


def test_semi_infinite_chunks_keep_the_grid_order(monkeypatch):
    """A stack wider than one slab is split along the grid; the maximum
    still runs over the grid in order.  On a grid of 7 points, slabs of 1,
    2 and 3 points put a NaN (inf * 0 at t = 0) and tied maxima 0.0 and
    -0.0 on their boundaries: each point's amount is max() over the grid
    in order, or NaN where a value on the grid is NaN."""
    text, x = _FILES["semiinf-curved"]
    P = load_problem_text(text)
    pts = np.asarray(x) + np.random.default_rng(4).normal(
        scale=0.3, size=(40, 2))
    wide = pb.feasibility(P, pts.T)
    monkeypatch.setattr(pb, "SLAB_FLOATS", 3 * 40)
    assert all(np.array_equal(a, b)
               for a, b in zip(pb.feasibility(P, pts.T), wide))
    for y in pts[:5]:
        _assert_same(pb.check_feasible(P, y), _ref_check_feasible(P, y))
    blk = load_problem_text('[problem] dim=1\n[scenario] f="x(1)"\n'
                            '[semiinf] g="x(1)*t" grid=-1:1:7\n').blocks[0]
    X = np.array([[0.0, -0.0, math.inf, 1.0]])
    want = []
    for y in X[0].tolist():
        vals = [y * t for t in blk.grid]
        want.append(math.nan if any(map(math.isnan, vals)) else max(vals))
    assert [_bits(v) for v in want[:2]] == [_bits(-0.0), _bits(0.0)]
    for slab in (1, 2, 3, 7):
        monkeypatch.setattr(pb, "SLAB_FLOATS", slab * X.shape[1])
        pts = pb._Points(X)
        [(_, got)] = blk.violations(pts, 0)
        _assert_same(got.tolist(), want, slab)
        assert not pts.undefined.any()
    # a stack of no points has no amounts
    [(_, got)] = blk.violations(pb._Points(np.empty((1, 0))), 0)
    assert got.shape == (0,)


def test_objective_values_match_evaluate_objective(rng):
    for name, P, x, _ in CASES:
        X = np.asarray(x, dtype=float) + rng.normal(scale=0.5,
                                                    size=(30, P.d))
        F, undefined = pb.objective_values(P, X.T)
        assert not undefined.any()
        _assert_same(F.tolist(), [pb.evaluate_objective(P, y)[0] for y in X],
                     name)


def test_builtin_max_is_the_builtin(rng):
    """Column maxima keep the builtin's answer where NaN or both signed
    zeros occur; np.max and np.maximum give others."""
    pool = np.array([np.nan, 0.0, -0.0, 1.0, -1.0, np.inf])
    V = rng.choice(pool, size=(4, 400))
    got = builtin_max(V)
    for j in range(V.shape[1]):
        _assert_same(float(got[j]), max(V[:, j].tolist()))
    P = load_problem_text('[problem] dim=1\n[scenario] f="x(1)"\n'
                          '[scenario] f="-x(1)"\n[scenario] f="0*x(1)"\n')
    X = np.array([[0.0, -0.0, np.nan, np.inf]])
    _assert_same(pb.objective_values(P, X)[0].tolist(),
                 [pb.evaluate_objective(P, X[:, j])[0] for j in range(4)])
