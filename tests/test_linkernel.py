import math

import numpy as np
import pytest

from conecert import linkernel as lk


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
    """Stacks of 1 to 300 d x p matrices (p <= d) that probe the volume
    pre-decision of stacked_rank at its edges, by name."""
    def normal(n, d, p):
        return rng.standard_normal((n, d, p))
    for n in (1, 31, 32, 300):
        for d, p in ((2, 2), (3, 3), (4, 2), (6, 4)):
            S = normal(n, d, p)
            # a last column a relative offset of 10^-14 .. 10^-2 away
            # from the first: on either side of VOLUME_RATIO and EPS_RANK
            offset = 10.0 ** rng.uniform(-14, -2, (n, 1))
            S[..., -1] = S[..., 0] + offset * normal(n, d, 1)[..., 0]
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
        for p in range(1, d + 1):
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
    return next(lk._margins(_tableau(hull, cone), [direction]))


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
    hull, cone = [(5, 1), (-5, 1), (0, -2)], [(0.0, -1.0)]
    assert lk.lp_membership(np.zeros(2), hull, cone) is not None
    assert _margin((0.0, 1.0), hull, cone) > 0
    optimum = lk.Tableau._optimum

    def perturbed(self, c, A):
        res = optimum(self, c, A)
        if res.status == "optimal":
            res.x = res.x + 1e-6   # an "optimal" x that misses Ax = b
        return res

    # phase 2 of every LP, one-shot or from a kept tableau, ends here
    monkeypatch.setattr(lk.Tableau, "_optimum", perturbed)
    assert lk.lp_membership(np.zeros(2), hull, cone) is None
    assert _margin((0.0, 1.0), hull, cone) is None


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
    column] to rounding.  Feasibility is phase 1's, on A alone, so a
    system that only the extra column makes feasible reads infeasible."""
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
            got = tableau.solve(c, column)
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
