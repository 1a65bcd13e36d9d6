import math

import numpy as np
import pytest

from conecert import firstorder as fo
from conecert import linkernel as lk
from conecert import registry
from conecert import secondorder as so
from conecert.cones import axis_directions
from conecert.geometry import PointContext
from test_combination import _assert_same_solve, _ref_kept_solve


def test_det_examples():
    assert lk.det([[-1, -2], [-1, 1]]) == pytest.approx(-3.0, abs=1e-12)
    assert lk.det(np.eye(4)) == pytest.approx(1.0)
    assert lk.det([[5, -5], [1, 1]]) == pytest.approx(10.0, abs=1e-12)


def test_det_column_permutation_parity(rng):
    for _ in range(100):
        n = int(rng.integers(2, 5))
        M = rng.standard_normal((n, n))
        perm = rng.permutation(n)
        parity = np.linalg.det(np.eye(n)[:, perm])  # +1 or -1
        assert lk.det(M[:, perm]) == pytest.approx(parity * lk.det(M),
                                                   rel=1e-9, abs=1e-12)


def test_rank_examples():
    assert lk.rank(np.column_stack([(5, 1), (-5, 1), (0, -2)])) == 2
    assert lk.rank(np.zeros((3, 3))) == 0
    assert lk.rank(np.column_stack([(1, 0, 0), (0, 1, 0), (1, 1, 0)])) == 2


def test_stacked_rank_matches_one_matrix_at_a_time(rng):
    """The stacked screen gives each matrix the rank that one SVD of that
    matrix, built the way the scalar tests build it (columns stacked),
    gives it, so its ranks agree with the scalar rank test."""
    pool = np.vstack([rng.integers(-1, 2, size=(12, 5)).astype(float),
                      rng.standard_normal((6, 5)),
                      np.zeros((1, 5))])
    pool[-2] = pool[0] + 1e-9 * pool[1]      # dependent at the threshold
    for p in (2, 3, 5, 6):
        idx = np.array([rng.choice(len(pool), p, replace=False)
                        for _ in range(300)])
        ranks = lk.stacked_rank(pool[idx].transpose(0, 2, 1))
        for sub, r in zip(idx, ranks):
            M = np.column_stack([pool[i] for i in sub])
            one = np.linalg.svd(M, compute_uv=False)
            expected = 0 if one[0] <= 0 else int(np.sum(one > 1e-9 * one[0]))
            assert r == expected == lk.rank(M)


def _volume_stacks(rng):
    """Stacks of 1 to 300 d x p matrices, tall (p <= d) and wide (p > d,
    decided by the volume of the transpose), that probe the volume
    pre-decision of stacked_rank at its edges, by name."""
    def normal(n, d, p):
        return rng.standard_normal((n, d, p))
    for n in (1, 31, 32, 300):
        for d, p in ((2, 2), (3, 3), (4, 2), (6, 4), (1, 2), (2, 3),
                     (3, 5), (5, 8)):
            S = normal(n, d, p)
            # a last column (of a wide matrix: row) a relative offset of
            # 10^-14 .. 10^-2 away from the first: on either side of
            # VOLUME_RATIO and EPS_RANK
            T = S if p <= d else S.transpose(0, 2, 1)
            offset = 10.0 ** rng.uniform(-14, -2, (n, 1))
            T[..., -1] = T[..., 0] + offset * normal(n, T.shape[1], 1)[..., 0]
            yield "near-threshold", S
            yield "whole scale 10^+-307", (
                rng.uniform(-1, 1, (n, d, p))
                * 10.0 ** rng.choice([-307, 307], (n, 1, 1)))
            yield "column scales 10^+-160", (
                normal(n, d, p) * 10.0 ** rng.uniform(-160, 160, (n, 1, p)))
            yield "integer", rng.integers(-2, 3, (n, d, p)).astype(float)
            yield "zero-heavy", normal(n, d, p) * (rng.random((n, d, p)) < .3)
            yield "1e250 and above", (rng.uniform(-1, 1, (n, d, p))
                                      * 10.0 ** rng.uniform(250, 308,
                                                            (n, 1, 1)))
    # subnormal scales: LAPACK's singular values of these can underflow
    # and give another rank than their volume proves
    for d in (2, 3, 4, 5):
        for p in range(1, d + 3):
            yield "subnormal", normal(300, d, p) * 10.0 ** rng.uniform(
                -324, -310, (300, 1, 1))


@pytest.mark.filterwarnings("error")
def test_stacked_rank_volume_decisions_match_the_svd():
    """Whether its volume decides a matrix or the SVD does, stacked_rank
    gives every matrix the rank of its own SVD: near the thresholds, at
    extreme and mixed column scales, on integer, zero-heavy and subnormal
    matrices and near the largest float, with no warning."""
    rng = np.random.default_rng(18)
    for name, S in _volume_stacks(rng):
        ranks = lk.stacked_rank(S)
        for M, r in zip(S, ranks):
            one = np.linalg.svd(M, compute_uv=False)
            expected = 0 if one[0] <= 0 else int(np.sum(one > 1e-9 * one[0]))
            assert r == expected, (name, M)


def test_stacked_rank_decides_wide_stacks_by_volume(monkeypatch, rng):
    """A wide matrix of full row rank is decided by the volume of its
    transpose, with no SVD; one with two equal rows still goes to its own
    SVD."""
    calls = []
    svd_ranks = lk._svd_ranks
    monkeypatch.setattr(lk, "_svd_ranks",
                        lambda stack: calls.append(len(stack))
                        or svd_ranks(stack))
    S = rng.standard_normal((50, 3, 5))
    S[:10, 2] = S[:10, 0]
    assert lk.stacked_rank(S).tolist() == [2] * 10 + [3] * 40
    assert calls == [10]


def test_positive_combination_dem():
    beta = lk.solve_positive_combination([(5, 1), (-5, 1), (0, -2)])
    assert beta is not None
    np.testing.assert_allclose(beta, [1.0, 1.0, 1.0], atol=1e-10)
    combo = sum(b * np.asarray(v, dtype=float)
                for b, v in zip(beta, [(5, 1), (-5, 1), (0, -2)]))
    np.testing.assert_allclose(combo, 0.0, atol=1e-10)


def test_positive_combination_antipodal():
    beta = lk.solve_positive_combination([(1, 0), (-1, 0)])
    np.testing.assert_allclose(beta, [1.0, 1.0], atol=1e-12)


def test_positive_combination_rejects_negative():
    assert lk.solve_positive_combination([(1, 0), (2, 0)]) is None


def test_positive_combination_single_vector():
    assert lk.solve_positive_combination([(0.0, 0.0)]) is not None
    assert lk.solve_positive_combination([(1.0, 0.0)]) is None


def test_positive_combination_with_ill_conditioned_tail():
    """For [w, u, -(u + w / r)], whose combination is (1, r, r), the
    normal equations square the tail's condition number and miss the
    residual test from about r = 10^5 on; the null vector's ratios then
    take their place and pass the same tests.  Where the normal
    equations pass, their multipliers are returned bit for bit."""
    rng = np.random.default_rng(3)
    w, u = rng.standard_normal((2, 3))
    fallbacks = 0
    for r in (1e3, 1e4, 1e5, 1e6):
        M = np.column_stack([w, u, -(u + w / r)])
        beta = lk.solve_positive_combination(M.T)
        assert beta is not None
        np.testing.assert_allclose(beta, [1.0, r, r], rtol=1e-8)
        B = M[:, 1:]
        normal = np.linalg.solve(B.T @ B, -B.T @ M[:, 0])
        tol = 1e-8 * max(1.0, np.linalg.norm(M, axis=0).max())
        if np.linalg.norm(B @ normal + M[:, 0]) <= tol:
            assert np.array_equal(beta[1:], normal)
        else:
            fallbacks += 1
            null = np.linalg.svd(M)[2][-1]
            assert np.array_equal(beta[1:], null[1:] / null[0])
    assert fallbacks


def test_positive_combinations_solves_a_singular_normal_matrix_alone():
    """Columns of size 1e-170 make the normal matrix B^T B underflow to
    0, and np.linalg.solve then fails for a whole stack.  That matrix is
    solved alone, shifted as the scalar shifts it, and the others in the
    stack keep their multipliers."""
    plain = np.array([[-1.0, 1.0, 0.0], [-2.0, 0.0, 1.0]])
    tiny = 1e-170 * plain
    B = tiny[:, 1:]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(B.T @ B, -B.T @ tiny[:, 0])
    out = lk.positive_combinations(np.array([plain, tiny, plain]))
    assert np.array_equal(out[0], [1.0, 1.0, 2.0])
    assert np.array_equal(out[2], out[0])
    assert np.isnan(out[1]).all()
    assert lk.solve_positive_combination(tiny.T) is None


def _brute_force_lp(c, A, b):
    """Optimal value by enumerating basic solutions; oracle for the simplex."""
    from itertools import combinations
    m, n = A.shape
    best = None
    for size in range(0, min(m, n) + 1):
        for support in combinations(range(n), size):
            B = A[:, support] if support else np.zeros((m, 0))
            if support and np.linalg.matrix_rank(B) < len(support):
                continue
            if support:
                sol, *_ = np.linalg.lstsq(B, b, rcond=None)
            else:
                sol = np.zeros(0)
            x = np.zeros(n)
            x[list(support)] = sol
            if np.any(x < -1e-9) or np.linalg.norm(A @ x - b) > 1e-8:
                continue
            val = float(c @ x)
            if best is None or val < best - 1e-12:
                best = val
    return best


def test_simplex_against_bruteforce(rng):
    solved = 0
    for _ in range(120):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, 7))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        x_feas = rng.random(n)
        b = A @ x_feas  # feasible by construction
        c = rng.integers(-3, 4, size=n).astype(float)
        res = lk.simplex_solve(c, A, b)
        ref = _brute_force_lp(c, A, b)
        if res.status == "unbounded":
            # brute force over basic points cannot see unboundedness; check
            # a certificate instead: some feasible ray improves the cost
            continue
        assert res.status == "optimal"
        assert ref is not None
        assert res.objective == pytest.approx(ref, rel=1e-8, abs=1e-8)
        solved += 1
    assert solved >= 60


def test_lp_problem_wrapper():
    res = lk.simplex_solve(np.array([1.0, 0.0]), np.array([[1.0, 1.0]]),
                           np.array([2.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.0)


def test_simplex_detects_infeasible():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    assert lk.simplex_solve(np.zeros(2), A, b).status == "infeasible"


def test_simplex_detects_unbounded():
    # min -x1 s.t. x1 - x2 = 0
    res = lk.simplex_solve(np.array([-1.0, 0.0]),
                           np.array([[1.0, -1.0]]), np.array([0.0]))
    assert res.status == "unbounded"


def test_membership_dem_weights():
    weights = lk.lp_membership(np.zeros(2), [(5, 1), (-5, 1), (0, -2)])
    assert weights is not None
    lam, mu = weights
    recon = sum(w * np.asarray(v, float)
                for w, v in zip(lam, [(5, 1), (-5, 1), (0, -2)]))
    np.testing.assert_allclose(recon, 0.0, atol=1e-9)
    assert lam.sum() == pytest.approx(1.0)


def test_membership_negative_case():
    assert lk.lp_membership(np.zeros(2), [(1, 1)]) is None


def test_membership_with_cone():
    weights = lk.lp_membership(np.array([0.0, 3.0]), [(1, 0), (-1, 0)],
                               [(0, 1), (0, -1)])
    assert weights is not None


def _tableau(hull, cone=()):
    """The kept phase 1 of the combination system of co(hull) +
    cone(cone)."""
    return lk.Tableau(*lk.combination_system(hull, cone))


def _margin(direction, hull, cone=()):
    """max r >= 0 with r * direction in co(hull) + cone(cone)."""
    return lk._margins(_tableau(hull, cone), [direction])[0]


def test_interior_dem_positive_margin():
    margin = lk.lp_chebyshev_center(_tableau([(5, 1), (-5, 1), (0, -2)]))
    assert margin is not None and margin > 0


def test_interior_single_point():
    margin = lk.lp_chebyshev_center(_tableau([(1, 0)]))
    assert margin is None or margin == 0.0


def test_interior_cross_with_cone():
    margin = lk.lp_chebyshev_center(_tableau([(1, 0), (-1, 0)],
                                             [(0, 1), (0, -1)]))
    assert margin is not None and margin > 0
    # positive margin implies membership of the scaled axis targets
    for k in range(2):
        for s in (1.0, -1.0):
            target = np.zeros(2)
            target[k] = s * 1e-8
            assert lk.lp_membership(target, [(1, 0), (-1, 0)],
                                    [(0, 1), (0, -1)]) is not None


def test_direction_margin_values():
    hull = [(1.0, 0.0)]
    cone = [(-1.0, 0.0), (0.0, -1.0)]
    assert _margin((1.0, 0.0), hull, cone) == pytest.approx(1.0)
    assert _margin((-1.0, 0.0), hull, cone) == math.inf
    # +e2 only reaches the origin
    assert _margin((0.0, 1.0), hull, cone) == pytest.approx(0.0)
    # a direction the set never touches reports infeasible
    assert _margin((0.0, 1.0), hull, ()) is None


def test_unverified_simplex_solutions_read_as_no_solution(monkeypatch):
    """Every objective solved from a kept phase 1 ends in one residual
    check, ``Tableau._verify_stack``.  An "optimal" x that misses its
    system reads as no solution in each single-objective caller:
    ``lp_membership``, a generator set's membership (so the necessary
    check finds 0 outside D), the penalty threshold and the LPs of the
    second-order forms."""
    hull, cone = [(5, 1), (-5, 1), (0, -2)], [(0.0, -1.0)]

    def contexts():
        # new contexts each time: a context keeps its LP results
        return (PointContext(*registry.get("dem")),
                PointContext(*registry.get("bazaraa45")))

    dem, baz = contexts()
    dirs = axis_directions(baz.generators.d)
    assert lk.lp_membership(np.zeros(2), hull, cone) is not None
    assert fo.necessary_check(dem).zero_in_D
    assert fo.penalty_subdiff_check(baz, 1.0).c_min == 152.0
    assert so._form_maxima(baz, baz.generators, dirs) is not None
    verify = lk.Tableau._verify_stack

    def tampered(self, status, iterations, x, *rest):
        # every x misses Ax = b: the convexity row sums to 1 + 1e-6 * nh
        return verify(self, status, iterations, x + 1e-6, *rest)

    monkeypatch.setattr(lk.Tableau, "_verify_stack", tampered)
    dem, baz = contexts()
    assert lk.lp_membership(np.zeros(2), hull, cone) is None
    assert dem.generators.membership.status == "infeasible"
    assert not fo.necessary_check(dem).zero_in_D
    assert fo.penalty_subdiff_check(baz, 1.0).c_min is None
    assert so._form_maxima(baz, baz.generators, dirs) is None


def test_a_stacked_probe_whose_weights_miss_the_system_reads_none(
        monkeypatch):
    """The stacked phase 2 hands every probe's weights to one residual
    check: a probe whose weights miss [A | column] x = b reads None, the
    others keep their margins, and the interior margin is None."""
    tableau = _tableau([(5, 1), (-5, 1), (0, -2)], [(0.0, -1.0)])
    probes = axis_directions(2)
    want = lk._margins(tableau, probes)
    assert None not in want
    verify = lk.Tableau._verify_stack

    def tampered(self, status, iterations, x, *rest):
        x = x.copy()
        x[1] += 1e-6   # probe 1's weights miss its system
        return verify(self, status, iterations, x, *rest)

    monkeypatch.setattr(lk.Tableau, "_verify_stack", tampered)
    got = lk._margins(tableau, probes)
    assert got[1] is None and got[:1] + got[2:] == want[:1] + want[2:]
    assert lk.lp_chebyshev_center(tableau) is None


def test_interior_margin_of_a_segment_is_positive_zero():
    """co{(1, 0), (-1, 0)} holds the origin on its boundary: the margin
    is 0.0, never the -0.0 that the LP's pivots can leave in r."""
    margin = lk.lp_chebyshev_center(_tableau([(1, 0), (-1, 0)]))
    assert margin == 0.0 and math.copysign(1.0, margin) == 1.0


def test_scalar_cost_costs_every_column_alike():
    """``solve(0)`` is the feasibility LP with the zero cost vector."""
    tableau = _tableau([(5, 1), (-5, 1), (0, -2)], [(0.0, -1.0)])
    got, want = tableau.solve(0), tableau.solve(np.zeros(4))
    assert got.status == want.status == "optimal"
    assert np.array_equal(got.x, want.x) and got.objective == 0.0


def test_tableau_keeps_phase_one_for_every_cost(rng):
    """One Tableau solves many costs: without an extra column each is the
    one-shot LP bit for bit, with one it is the one-shot LP on [A |
    column] to rounding, and either is the frozen one-objective solve bit
    for bit.  Feasibility is phase 1's, on A alone, so a system that only
    the extra column makes feasible reads infeasible."""
    seen = set()
    for _ in range(60):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, 7))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = A @ rng.random(n) * rng.choice([-1.0, 1.0])
        tableau = lk.Tableau(A, b)
        column = rng.integers(-3, 4, size=m).astype(float)
        for c in rng.integers(-3, 4, size=(4, n + 1)).astype(float):
            got, want = tableau.solve(c[:n]), lk.simplex_solve(c[:n], A, b)
            assert got.status == want.status
            assert got.status != "optimal" or np.array_equal(got.x, want.x)
            _assert_same_solve(got, _ref_kept_solve(tableau, c[:n]))
            got = tableau.solve(c, column)
            _assert_same_solve(got, _ref_kept_solve(tableau, c, column))
            want = lk.simplex_solve(c, np.column_stack([A, column]), b)
            if not tableau.feasible:
                assert got.status == "infeasible"
                continue
            assert got.status == want.status
            if want.status == "optimal":
                assert got.objective == pytest.approx(
                    want.objective, rel=1e-9, abs=1e-9)
            seen.add(got.status)
    assert seen == {"optimal", "unbounded"}
    infeasible = lk.Tableau(np.array([[1.0, 1.0], [1.0, 1.0]]),
                            np.array([1.0, 2.0]))
    assert not infeasible.feasible
    assert infeasible.solve(np.zeros(3), np.ones(2)).status == "infeasible"


def _assert_frozen_solves(tableau, costs, columns, monkeypatch):
    """``solve`` and ``solve_stack``, in slabs of SLAB_FLOATS entries and
    of one tableau, give each cost (and column, where columns is not None)
    the frozen one-objective solve's result bit for bit; returns those
    results."""
    want = [_ref_kept_solve(tableau, c, None if columns is None else
                            columns[:, p]) for p, c in enumerate(costs)]
    for p, (c, w) in enumerate(zip(costs, want)):
        _assert_same_solve(tableau.solve(c, None if columns is None else
                                         columns[:, p]), w)
    for slab in (lk.SLAB_FLOATS, 1):
        with monkeypatch.context() as patch:
            patch.setattr(lk, "SLAB_FLOATS", slab)
            got = tableau.solve_stack(costs, columns)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_solve(g, w)
    return want


def _random_tableau(rng, k):
    """A small integer system, every other one with a dependent row, so
    that phase 1 leaves a redundant row that some columns pivot into."""
    m = int(rng.integers(1, 5))
    n = int(rng.integers(m, 8))
    A = rng.integers(-2, 3, size=(m, n)).astype(float)
    if k % 2 and m > 1:
        A[-1] = A[0]
    return lk.Tableau(A, A @ rng.random(n) * rng.choice([-1.0, 1.0]))


def test_stacked_solves_are_the_single_solves(rng, monkeypatch):
    """``solve`` and ``solve_stack`` give each cost, with or without a
    column, the status, x (signed zeros included), objective and pivot
    count of the frozen one-objective solve, on systems with dependent
    rows, whose redundant rows some columns pivot into, and in slabs of
    any size."""
    seen = set()
    for k in range(80):
        tableau = _random_tableau(rng, k)
        m, n = tableau.A.shape
        q = int(rng.integers(1, 7))
        costs = rng.integers(-3, 4, size=(q, n + 1)).astype(float)
        columns = rng.integers(-2, 3, size=(m, q)).astype(float)
        want = _assert_frozen_solves(tableau, costs, columns, monkeypatch)
        want += _assert_frozen_solves(tableau, costs[:, :n], None,
                                      monkeypatch)
        seen.update(w.status for w in want)
    assert seen == {"optimal", "unbounded", "infeasible"}


def test_a_lone_live_tableau_goes_on_in_the_scalar_loop(rng, monkeypatch):
    """A stack whose tableaux all but one are optimal before their first
    pivot hands the last one to ``_bland_iterate`` in the middle of the
    stacked solve; so do stacks whose others finish after some pivots.
    Every result is the frozen one-objective solve's, bit for bit."""
    real, handed = lk._bland_iterate, []

    def handed_off(T, basis, n_cols, start=0):
        status, pivots = real(T, basis, n_cols, start)
        handed.append((start, pivots - start))
        return status, pivots

    lone, later = 0, 0
    for k in range(60):
        tableau = _random_tableau(rng, k)
        m, n = tableau.A.shape
        for q in (3, 6):
            costs = rng.integers(-3, 4, size=(q, n + 1)).astype(float)
            columns = rng.integers(-2, 3, size=(m, q)).astype(float)
            # every cost but the last is 0: optimal at round 0
            zero = costs.copy()
            zero[:-1] = 0.0
            for stack in (zero, costs):
                _assert_frozen_solves(tableau, stack, columns, monkeypatch)
                handed.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(lk, "_bland_iterate", handed_off)
                    tableau.solve_stack(stack, columns)
                # one slab: at most one tableau is left live alone
                assert len(handed) <= 1
                if handed and stack is zero:
                    start, pivots = handed[0]
                    lone += start == 0 and pivots > 0
                later += any(start > 0 for start, _ in handed)
    assert lone and later


def test_penalty_threshold_shaped_lps_are_the_frozen_solves(monkeypatch):
    """LPs of the penalty threshold's shape, whose phase 2 takes many
    pivots in the scalar loop, are the frozen one-objective solve's bit for
    bit: min t over a combination system with capped cone groups, the hull
    shifted off the origin so that the groups must carry it."""
    rng = np.random.default_rng(20261020)
    pivots = []
    for _ in range(40):
        d = int(rng.integers(3, 11))
        hull = rng.normal(size=(int(rng.integers(d + 1, 4 * d)), d)) + 2.0
        groups = [rng.normal(size=(int(rng.integers(2, 16)), d))
                  for _ in range(int(rng.integers(1, 4)))]
        nA = rng.normal(size=(int(rng.integers(0, 4)), d))
        ends = np.cumsum([len(g) for g in groups]).tolist()
        A, b = lk.combination_system(hull, np.concatenate([*groups, nA]),
                                     list(zip([0, *ends[:-1]], ends)), d=d)
        A = np.column_stack([A, np.r_[np.zeros(d + 1), -b[d + 1:]]])
        b[d + 1:] = 0.0
        tableau = lk.Tableau(A, b)
        c = np.r_[np.zeros(A.shape[1] - 1), 1.0]
        want, = _assert_frozen_solves(tableau, c[None], None, monkeypatch)
        pivots.append(want.iterations - tableau.iterations)
    assert max(pivots) >= 15
