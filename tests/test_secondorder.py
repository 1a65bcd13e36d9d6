from itertools import combinations

import numpy as np
import pytest

import conecert as cc
from conecert import firstorder as fo
from conecert import registry
from conecert import secondorder as so
from conecert.geometry import PointContext, TangentTester
from conecert.linkernel import rank
from conecert.oracle import fd_hessian, growth_probe
from conecert.problem import load_problem_text
from conftest import random_expression


def _simple(text):
    return load_problem_text(text)


def _dense_alpha(w, nec):
    """The witness's scenario weights over every active scenario, zeros
    included, in the order of the necessary check's generators."""
    weights = {(s, sg): weight for s, sg, weight in w.alpha}
    return np.array([weights.get((pr.index, pr.sign), 0.0)
                     for pr in nec.generators.grads_prov])


def _alphas(P, x, samp=None):
    """The scenario weights of the multiplier vertices at x."""
    ctx = PointContext(P, x, samp)
    nec = fo.necessary_check(ctx)
    verts = so.multiplier_vertices(ctx, nec)
    assert verts.exhaustive
    return [_dense_alpha(w, nec) for w in verts.pairs]


def test_dd_single_scenario_unique():
    P = _simple('[problem] dim=2\n[scenario] f="x(1)^2 + x(2)^2"\n')
    alphas = _alphas(P, (0.0, 0.0))
    assert len(alphas) == 1
    np.testing.assert_allclose(alphas[0], [1.0])


def test_dd_dem_forced_weights():
    P, x, samp = registry.get("dem")
    alphas = _alphas(P, x, samp)
    for v in alphas:
        np.testing.assert_allclose(v, [1 / 3] * 3, atol=1e-8)
    np.testing.assert_allclose(np.mean(alphas, axis=0), [1 / 3] * 3,
                               atol=1e-8)


def test_dd_opposite_gradients_forced_half():
    P = _simple('[problem] dim=1\n[scenario] f="x(1)"\n[scenario] f="-x(1)"\n')
    alphas = _alphas(P, (0.0,))
    assert len(alphas) == 1
    np.testing.assert_allclose(alphas[0], [0.5, 0.5], atol=1e-9)


def test_dd_all_weights_convex_and_stationary():
    for name in ("dem", "madsen", "bazaraa45"):
        P, x, samp = registry.get(name)
        ctx = PointContext(P, x, samp)
        nec = fo.necessary_check(ctx)
        verts = so.multiplier_vertices(ctx, nec)
        assert verts.exhaustive and verts.pairs
        for w in verts.pairs:
            v = _dense_alpha(w, nec)
            assert v.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(v >= -1e-12)
            assert w.stationarity_residual <= 1e-7
        if name == "madsen":
            assert sorted(_dense_alpha(w, nec).tolist()
                          for w in verts.pairs) == [[0.0, 1.0], [1.0, 0.0]]


def test_hessian_linear_problem_is_zero():
    P = _simple('[problem] dim=2\n[scenario] f="x(1) + 2*x(2)"\n'
                '[nlp_ineq] g="-x(1)" g="-x(2)"\n')
    nec = fo.necessary_check(PointContext(P, (0.0, 0.0)))
    assert nec.zero_in_D
    B = so.hessian_bundle(P, (0.0, 0.0), nec.multipliers)
    np.testing.assert_allclose(B, np.zeros((2, 2)), atol=1e-12)


def test_hessian_bowl():
    P = _simple('[problem] dim=2\n[scenario] f="x(1)^2 + x(2)^2"\n')
    nec = fo.necessary_check(PointContext(P, (0.0, 0.0)))
    B = so.hessian_bundle(P, (0.0, 0.0), nec.multipliers)
    np.testing.assert_allclose(B, 2 * np.eye(2), atol=1e-12)


def test_hessian_bazaraa_matches_finite_differences():
    P, x, samp = registry.get("bazaraa45")
    nec = fo.necessary_check(PointContext(P, x, samp))
    B = so.hessian_bundle(P, x, nec.multipliers)
    # constraints are linear, so the bundle equals the objective Hessian
    H_fd = fd_hessian(P.scenarios[0], np.asarray(x))
    np.testing.assert_allclose(B, H_fd, rtol=1e-4, atol=1e-4)


def test_hessian_vs_fd_random_instances(rng):
    checked = 0
    while checked < 200:
        f = random_expression(rng, d=2)
        P = cc.Problem(d=2, kind="minimax", scenarios=(f,))
        x = rng.uniform(-1, 1, size=2)
        try:
            dual = cc.eval2(f, x)
        except cc.DomainError:
            continue
        if np.max(np.abs(dual.hess)) > 1e3:
            continue
        w = fo.MultiplierWitness(alpha=[(1, 1, 1.0)], duals={}, nA=[])
        B = so.hessian_bundle(P, x, w)
        H_fd = fd_hessian(f, x)
        scale = max(1.0, float(np.max(np.abs(H_fd))))
        assert np.max(np.abs(B - H_fd)) / scale < 1e-4
        assert np.max(np.abs(B - B.T)) == 0.0
        checked += 1


def test_second_order_saddle_refuted_along_axis():
    P = _simple('[problem] dim=2\n[scenario] f="x(1)^2 - x(2)^2"\n')
    ctx = PointContext(P, (0.0, 0.0))
    nec = fo.necessary_check(ctx)
    rep = so.second_order_necessary(ctx, nec)
    assert rep.refuted
    assert abs(rep.witness_direction[1]) == pytest.approx(1.0)
    srep = so.second_order_sufficient(ctx, nec)
    assert not srep.passed


def test_failed_sufficient_test_refutes_nothing():
    # 0 is the global minimum of x^4, yet its Hessian vanishes there
    P = _simple('[problem] dim=1\n[scenario] f="x(1)^4"\n')
    ctx = PointContext(P, (0.0,))
    nec = fo.necessary_check(ctx)
    rep = so.second_order_sufficient(ctx, nec)
    assert not rep.passed and not rep.refuted
    assert not so.second_order_necessary(ctx, nec).refuted
    assert not growth_probe(P, (0.0,), order=1).refuted


def test_second_order_bowl_passes():
    P = _simple('[problem] dim=3\n'
                '[scenario] f="x(1)^2 + x(2)^2 + x(3)^2"\n')
    ctx = PointContext(P, (0.0, 0.0, 0.0))
    nec = fo.necessary_check(ctx)
    rep = so.second_order_sufficient(ctx, nec)
    assert rep.passed and rep.n_directions > 0
    nrep = so.second_order_necessary(ctx, nec)
    assert nrep.passed and not nrep.refuted


def test_sufficient_form_must_clear_eps_pos():
    # the form of this flat bowl is positive, but not above eps_pos
    P = _simple('[problem] dim=2\n[scenario] f="1e-12*(x(1)^2 + x(2)^2)"\n')
    ctx = PointContext(P, (0.0, 0.0))
    rep = so.second_order_sufficient(ctx, fo.necessary_check(ctx))
    assert 0 < rep.worst_value <= P.tolerances.eps_pos
    assert not rep.passed


def test_second_order_bazaraa_trivial_cone():
    P, x, samp = registry.get("bazaraa45")
    ctx = PointContext(P, x, samp)
    rep = so.second_order_necessary(ctx, fo.necessary_check(ctx))
    assert rep.critical_cone_trivial and rep.passed


def test_second_order_skipped_on_boundary_of_A():
    P, x, samp = registry.get("madsen")
    ctx = PointContext(P, x, samp)
    rep = so.second_order_necessary(ctx, fo.necessary_check(ctx))
    assert not rep.applicable


def test_second_order_conservative_label_with_curved_cones():
    P, x, samp = registry.get("sdp-example")
    ctx = PointContext(P, x, samp)
    rep = so.second_order_necessary(ctx, fo.necessary_check(ctx))
    assert rep.conservative_refutation_only


def test_second_order_growth_cross_check():
    # strict minimum of a genuinely nonsmooth max with curvature
    P = _simple('[problem] dim=2\n'
                '[scenario] f="x(1)^2 + x(2)^2 + x(1)"\n'
                '[scenario] f="x(1)^2 + x(2)^2 - x(1)"\n')
    x = (0.0, 0.0)
    ctx = PointContext(P, x)
    rep = so.second_order_sufficient(ctx, fo.necessary_check(ctx))
    assert rep.passed
    probe = growth_probe(P, x, order=2, n_samples=3000, radius=0.05)
    assert not probe.refuted
    assert probe.constant > 0


def test_scaling_invariance_of_verdicts():
    base = ('[problem] dim=2\n'
            '[scenario] f="{s}*(x(1)^2 - x(2)^2)"\n')
    verdicts = []
    # 1e-6 keeps the saddle's form above the refutation bound EPS_CRIT
    for s in ("1e-6", "0.5", "1.0", "2.0"):
        P = _simple(base.format(s=s))
        ctx = PointContext(P, (0.0, 0.0))
        nec = fo.necessary_check(ctx)
        rep = so.second_order_necessary(ctx, nec)
        srep = so.second_order_sufficient(ctx, nec)
        verdicts.append((rep.refuted, rep.passed, srep.passed))
    assert len(set(verdicts)) == 1


def test_quadratic_growth_with_constraints():
    # ||x||^2 stays second-order grown no matter the feasible set
    P = _simple('[problem] dim=2\n'
                '[scenario] f="x(1)^2 + x(2)^2"\n'
                '[nlp_ineq] g="-x(1) - 1"\n')
    ctx = PointContext(P, (0.0, 0.0))
    rep = so.second_order_sufficient(ctx, fo.necessary_check(ctx))
    assert rep.passed


def test_critical_cone_sample_invariants():
    P = _simple('[problem] dim=2\n[scenario] f="x(1)^2 + x(2)^2"\n'
                '[nlp_ineq] g="-x(1) - 1"\n')
    ctx = PointContext(P, (0.0, 0.0))
    nec = fo.necessary_check(ctx)
    directions = so._critical_directions(ctx, nec.generators)
    assert directions
    gens = nec.generators.grads_F
    # a fresh tester, so the check does not rest on the one that screened
    tester = TangentTester(P, ctx.x, ctx.act, ctx.generators)
    assert tester.accepted(np.array(directions)).all()
    for h in directions:
        assert np.linalg.norm(h) == pytest.approx(1.0, abs=1e-9)
        slope = max(float(np.dot(g, h)) for g in gens)
        assert abs(slope) <= so.EPS_CRIT


def _reference_vertices(Aeq, beq, n):
    """Basic-solution enumeration without the stacked screen: every
    support goes through the rank, least-squares, sign, residual and
    duplicate tests."""
    m = Aeq.shape[0]
    verts = []
    scale = max(1.0, float(np.linalg.norm(beq)))
    for size in range(0, min(m, n) + 1):
        for support in combinations(range(n), size):
            B = Aeq[:, support] if support else np.zeros((m, 0))
            if support and rank(B) < len(support):
                continue
            sol = (np.linalg.lstsq(B, beq, rcond=None)[0] if support
                   else np.zeros(0))
            full = np.zeros(n)
            full[list(support)] = sol
            if np.any(full < -1e-9):
                continue
            if np.linalg.norm(Aeq @ full - beq) > 1e-8 * scale:
                continue
            full = np.maximum(full, 0.0)
            if not any(np.linalg.norm(full - v) < 1e-8 for v in verts):
                verts.append(full)
    return verts


def _linf_system(d):
    """The joint multiplier system of linf at the origin: the gradients
    +-e_i, whose weights sum to one; every support mixing pairs is
    degenerate."""
    P, x, sampling = registry.get("linf", d)
    grads = PointContext(P, x, sampling).generators.grads_F
    Aeq = np.vstack([np.column_stack(grads), np.ones(len(grads))])
    beq = np.zeros(d + 1)
    beq[d] = 1.0
    return Aeq, beq


def _dependent_rows_system(rng):
    """Small integer columns with a third row that is the sum of the first
    two, so the rank of Aeq is below its row count, and a right-hand side
    reached by a sparse nonnegative combination."""
    top = rng.integers(-1, 2, size=(3, 9)).astype(float)
    Aeq = np.vstack([top[:2], top[0] + top[1], top[2:], np.ones(9)])
    w0 = np.zeros(9)
    w0[rng.choice(9, 3, replace=False)] = [0.5, 0.25, 0.25]
    return Aeq, Aeq @ w0


@pytest.mark.parametrize("system", ["linf4", "dependent0", "dependent1",
                                    "dependent2", "dependent3"])
def test_polytope_vertices_match_unscreened_enumeration(system):
    if system == "linf4":
        Aeq, beq = _linf_system(4)
    else:
        Aeq, beq = _dependent_rows_system(
            np.random.default_rng(int(system[-1])))
    n = Aeq.shape[1]
    got = so._polytope_vertices(Aeq, beq, n)
    ref = _reference_vertices(Aeq, beq, n)
    assert ref
    assert len(got) == len(ref)
    assert all(np.array_equal(u, v) for u, v in zip(got, ref))


def test_polytope_vertices_budget_counts_every_support():
    """As in the cadre search, every support counts against the budget,
    across chunk boundaries, and the support after the budget's last is
    reported as the one that ran it out."""
    from math import comb
    Aeq, beq = _linf_system(5)
    n = Aeq.shape[1]
    total = sum(comb(n, k) for k in range(min(Aeq.shape) + 1))
    assert total > so.SCREEN_CHUNK
    full = so._polytope_vertices(Aeq, beq, n)
    within = so._polytope_vertices(Aeq, beq, n, budget=total)
    assert len(within) == len(full)
    assert all(np.array_equal(u, v) for u, v in zip(within, full))
    for budget in (0, 1, so.SCREEN_CHUNK, so.SCREEN_CHUNK + 1, total - 1):
        with pytest.raises(fo.CombinatorialBudgetExceeded) as err:
            so._polytope_vertices(Aeq, beq, n, budget=budget)
        assert err.value.subsets_tried == budget + 1
        assert str(err.value).startswith("multiplier-vertex enumeration "
                                         "budget exhausted")


def test_vertex_budget_out_draws_no_refutation(monkeypatch):
    from functools import partial
    P = _simple('[problem] dim=2\n[scenario] f="x(1)^2 - x(2)^2"\n')
    ctx = PointContext(P, (0.0, 0.0))
    assert so.second_order_necessary(ctx, fo.necessary_check(ctx)).refuted
    monkeypatch.setattr(so, "_polytope_vertices",
                        partial(so._polytope_vertices, budget=0))
    # a new context: the first one holds the full enumeration
    ctx = PointContext(P, (0.0, 0.0))
    nec = fo.necessary_check(ctx)
    verts = so.multiplier_vertices(ctx, nec)
    assert verts.budget_exceeded and not verts.exhaustive
    assert verts.pairs == [nec.multipliers]
    for test in (so.second_order_necessary, so.second_order_sufficient):
        rep = test(ctx, nec)
        assert not rep.refuted and not rep.multiplier_set_exhaustive
        assert sum("ran out of its budget" in note for note in rep.notes) == 1
