import math
from functools import partial
from itertools import combinations

import numpy as np
import pytest

import conecert as cc
from conecert import expr as ex
from conecert import firstorder as fo
from conecert import registry
from conecert import secondorder as so
from conecert.cones import axis_directions
from conecert.geometry import PointContext, TangentTester
from conecert.linkernel import (EPS_RANK, LpResult, Tableau,
                                combination_system, rank)
from conecert.oracle import fd_gradient, fd_hessian, growth_probe
from conecert.problem import Sdp, Soc, load_problem_text
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
    """The scenario weights of the LP witnesses at x along the axes."""
    ctx = PointContext(P, x, samp)
    nec = fo.necessary_check(ctx)
    verts = so.multiplier_vertices(ctx, nec, axis_directions(P.d))
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


def test_dd_all_weights_convex_and_stationary(monkeypatch):
    """Along e_1 and e_2 the columns' forms are the weight on the first
    active scenario and its negative, two opposite costs: on madsen they
    reach both vertices of its multiplier set."""
    for name in ("dem", "madsen", "bazaraa45"):
        P, x, samp = registry.get(name)
        ctx = PointContext(P, x, samp)
        nec = fo.necessary_check(ctx)
        lead = nec.generators.grads_prov[0].index

        def lead_weight(P, x, w):
            return np.diag([1.0, -1.0]) * sum(
                weight for idx, _, weight in w.alpha if idx == lead)
        monkeypatch.setattr(so, "hessian_bundle", lead_weight)
        verts = so.multiplier_vertices(ctx, nec, list(np.eye(2)))
        assert verts.exhaustive and verts.pairs
        for w in verts.pairs:
            v = _dense_alpha(w, nec)
            assert v.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(v >= -1e-12)
            assert w.stationarity_residual <= 1e-7
        if name == "madsen":
            assert [_dense_alpha(w, nec).tolist()
                    for w in verts.pairs] == [[1.0, 0.0], [0.0, 1.0]]
            assert verts.values == [1.0, 0.0]


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


# The Lagrangian walks before ``MultiplierWitness.lagrangian``: the
# gradient of ``_witness_residual`` with ``cone_gradient`` and the
# blocks' ``dual_gradient``, and ``hessian_bundle`` with their
# ``dual_hessian``, frozen as the reference of the one walk.

def _frozen_dual_gradient(blk, x, dual):
    if isinstance(blk, Soc):
        return np.array([ex.eval2(g, x).grad for g in blk.g]).T @ dual
    if isinstance(blk, Sdp):
        n = blk.size
        grads = np.zeros((n, n, len(x)))
        for i in range(n):
            for j in range(i, n):
                g = ex.eval2(blk.G0[i][j], x).grad
                grads[i, j] = g
                grads[j, i] = g
        return np.einsum("ij,ijk->k", dual, grads)
    total, comps = np.zeros(len(x)), _components(blk, len(x))
    for i, weight in dual.items():
        total = total + weight * ex.eval2(comps[i], x).grad
    return total


def _frozen_dual_hessian(blk, x, dual):
    d = len(x)
    total = np.zeros((d, d))
    if isinstance(blk, Soc):
        for g, lam in zip(blk.g, dual):
            if lam != 0.0:
                total = total + lam * ex.eval2(g, x).hess
    elif isinstance(blk, Sdp):
        for i in range(blk.size):
            for j in range(i, blk.size):
                w = dual[i, j] * (1.0 if i == j else 2.0)
                if w != 0.0:
                    total = total + w * ex.eval2(blk.G0[i][j], x).hess
    else:
        comps = _components(blk, d)
        for i, weight in dual.items():
            total = total + weight * ex.eval2(comps[i], x).hess
    return total


def _frozen_gradient(P, x, w, squared=False):
    x = np.asarray(x, dtype=float)
    total = np.zeros(P.d)
    for scen, sign, weight in w.alpha:
        dual = ex.eval2(P.scenarios[scen - 1], x)
        grad = dual.grad
        if P.kind == "chebyshev":
            grad = ((dual.value - P.psi[scen - 1]) * dual.grad
                    if squared else sign * dual.grad)
        total = total + weight * grad
    cone = np.zeros(P.d)
    for _, blk, dual in w.block_duals():
        cone = cone + _frozen_dual_gradient(blk, x, dual)
    total = total + cone
    for pr, weight in w.nA:
        vec = np.zeros(P.d)
        if pr.kind == "bound":
            vec[pr.index] = float(pr.sign)
        elif pr.kind == "set_eq":
            vec = pr.sign * np.asarray(P.set_A.E[pr.index], dtype=float)
        total = total + weight * vec
    return total


def _frozen_hessian(P, x, w):
    x = np.asarray(x, dtype=float)
    scen_part = np.zeros((P.d, P.d))
    for idx, sign, weight in w.alpha:
        hess = ex.eval2(P.scenarios[idx - 1], x).hess
        if P.kind == "chebyshev":
            hess = sign * hess
        scen_part = scen_part + weight * hess
    cons_part = np.zeros((P.d, P.d))
    for _, blk, dual in w.block_duals():
        cons_part = cons_part + _frozen_dual_hessian(blk, x, dual)
    return scen_part + cons_part


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype == float and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _assert_frozen_walks(P, x, w, squared=False):
    grad, hess = w.lagrangian(P, x, squared)
    frozen = _frozen_gradient(P, x, w, squared)
    _same_bits(grad, frozen)
    assert fo._witness_residual(P, x, w, squared) == float(
        np.linalg.norm(frozen))
    if not squared:
        _same_bits(hess, _frozen_hessian(P, x, w))
        _same_bits(so.hessian_bundle(P, x, w), hess)


def _weighted_sum(pairs):
    """The expression sum(w_k c_k) of (weight, expression) pairs."""
    terms = [ex.Mul(ex.Const(float(wk)), ck) for wk, ck in pairs]
    total = terms[0]
    for t in terms[1:]:
        total = ex.Add(total, t)
    return total


CHEB_FIT = ('[problem] dim=2 kind=chebyshev\n'
            '[scenario] f="exp(x(1)) + x(2)^2" psi=2\n'
            '[scenario] f="exp(x(1)) - x(2)^2 + x(1)*x(2)" psi=0\n')
FORM_FILES = (
    ('[problem] dim=2\n[scenario] f="x(1)"\n'
     '[nlp_ineq] g="x(1) + 2*x(2)^2" g="-x(1) - x(2)^2"\n', (0.0, 0.0)),
    ('[problem] dim=2\n[scenario] f="x(1) + x(2)^2"\n'
     '[scenario] f="-x(1) - 2*x(2)^2"\n[scenario] f="x(1) + 3*x(2)^2"\n',
     (0.0, 0.0)),
    ('[problem] dim=3\n[scenario] f="x(1) + x(2)^2 - x(3)^2"\n'
     '[scenario] f="-x(2) + x(3)^2"\n'
     '[nlp_ineq] g="-x(1) + x(2) - x(3)^2" g="-x(1) - x(3)^2 + x(2)^2"\n',
     (0.0, 0.0, 0.0)))
SCALAR_BLOCKS = ('[problem] dim=2\n'
                 '[scenario] f="x(1)^2*x(2) + exp(x(2))"\n'
                 '[nlp_ineq] g="x(1)^2 - x(2)" g="sin(x(1)*x(2))" g="x(2)"\n'
                 '[nlp_eq] b="x(1)*x(2)^2" b="cos(x(2))"\n'
                 '[semiinf] g="x(1)^2*t + x(2)^3 - t^2" grid=-1:1:5\n')


def _components(blk, d):
    """The block's scalar functions c_k of x, keyed as its dual is."""
    if isinstance(blk, Soc):
        return dict(enumerate(blk.g))
    if isinstance(blk, Sdp):
        return {(i, j): blk.G0[i][j]
                for i in range(blk.size) for j in range(blk.size)}
    if isinstance(blk, cc.SemiInfinite):
        return {j: ex.substitute(blk.g, d + 1, t)
                for j, t in enumerate(blk.grid)}
    return dict(enumerate(blk.components))


def _synthetic_duals(rng):
    """(problem, x, block, dual) with seeded duals: both second-order-cone
    blocks of soc-example (boundary and apex), the matrix block of
    sdp-example with symmetric duals, and nonlinear scalar blocks; some
    entries of each are zero."""
    for name in ("soc-example", "sdp-example"):
        P, x, _ = registry.get(name)
        for blk in P.blocks:
            for _ in range(3):
                if isinstance(blk, Soc):
                    dual = rng.standard_normal(blk.l + 1)
                    dual[rng.integers(blk.l + 1)] = 0.0
                else:
                    M = rng.standard_normal((blk.size, blk.size))
                    M[0, 1] = M[1, 2] = 0.0
                    dual = M + M.T
                yield P, x, blk, dual
    P = load_problem_text(SCALAR_BLOCKS)
    x = (0.3, -0.7)
    for blk in P.blocks:
        n = len(_components(blk, P.d))
        for _ in range(3):
            weights = rng.standard_normal(n)
            weights[rng.integers(n)] = 0.0
            yield P, x, blk, dict(enumerate(weights.tolist()))


def test_lagrangian_matches_the_frozen_walks(rng):
    """``MultiplierWitness.lagrangian`` gives the bits of the walks it
    replaced: on every registry witness, a Chebyshev witness (plain and
    squared), the form witnesses of three second-order files, and seeded
    duals on every block kind, whose pairings also match finite
    differences of sum(w_k c_k)."""
    for name in registry.NAMES:
        P, x, samp = registry.get(name, 3 if name == "linf" else None)
        nec = fo.necessary_check(PointContext(P, x, samp))
        assert nec.multipliers is not None, name
        _assert_frozen_walks(P, x, nec.multipliers)
    P = load_problem_text(CHEB_FIT)
    x = (0.0, 0.0)
    for squared in (False, True):
        w = fo.necessary_check(PointContext(P, x), squared=squared)
        w = w.multipliers
        assert {sign for _, sign, _ in w.alpha} == {-1, 1}
        _assert_frozen_walks(P, x, w, squared)
    # the squared Hessian is that of sum(alpha_i (f_i - psi_i)^2 / 2)
    half_squares = _weighted_sum(
        (0.5 * weight, ex.Pow(ex.Sub(P.scenarios[i - 1],
                                     ex.Const(P.psi[i - 1])), 2))
        for i, _, weight in w.alpha)
    _, hess = w.lagrangian(P, x, squared=True)
    np.testing.assert_allclose(hess, fd_hessian(half_squares, x),
                               atol=1e-6)
    # the form witnesses: one per unit weight of the combination system,
    # whose Hessians are the LP costs, and the maximisers kept
    for text, x in FORM_FILES:
        P = load_problem_text(text)
        ctx = PointContext(P, x)
        nec = fo.necessary_check(ctx)
        G, m = nec.generators, len(nec.generators.grads_F)
        verts, _ = so._second_order_inputs(ctx, nec)
        units = [fo._assemble_witness(ctx, G, e[:m], e[m:])
                 for e in np.eye(m + len(G.cone))]
        assert len(units) > 2
        for w in units + verts.pairs:
            _assert_frozen_walks(P, x, w)
    kinds = set()
    for P, x, blk, dual in _synthetic_duals(rng):
        kinds.add(blk.kind)
        x = np.asarray(x, dtype=float)
        grad, hess = blk.dual_derivatives(x, dual)
        _same_bits(grad, _frozen_dual_gradient(blk, x, dual))
        _same_bits(hess, _frozen_dual_hessian(blk, x, dual))
        comps = _components(blk, P.d)
        pairing = _weighted_sum((dual[k], c) for k, c in comps.items())
        np.testing.assert_allclose(grad, fd_gradient(pairing, x), atol=1e-7)
        np.testing.assert_allclose(hess, fd_hessian(pairing, x), atol=1e-5)
        pos = P.blocks.index(blk)
        w = fo.MultiplierWitness(alpha=[], duals={pos: (blk, dual)})
        _assert_frozen_walks(P, x, w)
    assert kinds == {"soc", "sdp", "nlp_ineq", "nlp_eq", "semi_infinite"}
    # seeded scenario weights with duals on every block at once
    duals = {}
    for P, x, blk, dual in _synthetic_duals(rng):
        duals.setdefault(id(P), (P, x, {}))[2][P.blocks.index(blk)] = (
            blk, dual)
    for P, x, blocks in duals.values():
        for _ in range(8):
            alpha = [(i + 1, 1, rng.random())
                     for i in range(len(P.scenarios))]
            _assert_frozen_walks(P, x, fo.MultiplierWitness(alpha, blocks))


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


def test_null_basis_matches_the_full_svd():
    """The thin SVD of the critical-direction null basis gives the rows
    of the full SVD, bit for bit, with fewer, as many and many more rows
    than columns: random, rank-deficient and integer matrices."""
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 6, 10):
        for m in (max(d - 2, 1), d, 4 * d, 600):
            random = rng.standard_normal((m, d))
            deficient = random[:, :max(d - 2, 1)] @ rng.standard_normal(
                (max(d - 2, 1), d))
            integer = rng.integers(-2, 3, (m, d)).astype(float)
            for M in (random, deficient, integer):
                _, s, Vt = np.linalg.svd(M)
                full = Vt[int(np.sum(s > 1e-10)):]
                assert np.array_equal(so._null_basis(M), full), (m, d)


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


def _integer_system(rng, zero=False, scale=1.0):
    """A combination system in R^3 over 4 gradients and 5 cone columns with
    small integer entries, the gradients scaled by ``scale`` (to unit norm
    first when it is not 1); with ``zero``, the second gradient is 0."""
    vecs = rng.integers(-2, 3, size=(9, 3)).astype(float)
    vecs[:4][~vecs[:4].any(axis=1)] = 1.0
    if scale != 1.0:
        vecs[:4] *= scale / np.linalg.norm(vecs[:4], axis=1)[:, None]
    if zero:
        vecs[1] = 0.0
    return combination_system(list(vecs[:4]), list(vecs[4:]))


def _scaled_linf_system(d, scale):
    """``_linf_system`` with the gradients scaled by ``scale``."""
    Aeq, beq = _linf_system(d)
    Aeq[:d] *= scale
    return Aeq, beq


def _near_pair_system(side):
    """linf's gradients +-e_i in R^3 and two cone columns, with eps e_2
    added to -e_1, eps of a few 10^-9: the pair (e_1, -e_1 + eps e_2)
    with beq is linearly independent by the EPS_RANK test a hair above
    the boundary (side 1.1) and dependent a hair below it (side 0.9)."""
    e = np.eye(3)

    def system(eps):
        hull = [e[0], -e[0] + eps * e[1], e[1], -e[1], e[2], -e[2]]
        return combination_system(hull, [e[0] + e[1], -e[1]])
    Aeq, beq = system(1e-9)
    sigma = np.linalg.svd(np.column_stack([Aeq[:, :2], beq]),
                          compute_uv=False)
    # sigma_min / sigma_max grows linearly with eps
    Aeq, beq = system(side * 1e-9 * EPS_RANK / (sigma[-1] / sigma[0]))
    assert rank(np.column_stack([Aeq[:, :2], beq])) == (3 if side > 1 else 2)
    return Aeq, beq


_LEVEL_SYSTEMS = {
    **{f"linf{d}": partial(_linf_system, d) for d in (4, 5, 6, 7)},
    **{f"cone{s}": partial(_integer_system, np.random.default_rng(s))
       for s in range(3)},
    **{f"zero{s}": partial(_integer_system, np.random.default_rng(s), True)
       for s in range(2)},
    "pair-above": partial(_near_pair_system, 1.1),
    "pair-below": partial(_near_pair_system, 0.9),
    # gradients of norm 0.9e-9: every residual passes the absolute 1e-8
    **{f"tiny{s}": partial(_integer_system, np.random.default_rng(s),
                           scale=0.9e-9) for s in range(2)},
    # gradients +-5e-9 e_i: each alone passes the residual test, but with
    # beq it is independent, so the supports that contain it are tried
    "linf2-tolerance": partial(_scaled_linf_system, 2, 5e-9),
    **{f"dependent{s}": partial(_dependent_rows_system,
                                np.random.default_rng(s)) for s in range(4)},
}


# near the EPS_RANK boundary and with gradients below the absolute
# residual tolerance 1e-8, the reference keeps near-solutions that are not
# vertices, so values are defined only to that tolerance there
_NEAR_TOLERANCE = {"pair-above", "pair-below", "tiny0", "tiny1",
                   "linf2-tolerance"}


@pytest.mark.parametrize("system", list(_LEVEL_SYSTEMS))
def test_lp_maximum_matches_reference_vertices(system):
    """A linear cost bounded over {w >= 0 : Aw = b} attains its maximum at
    a vertex, so the one LP per direction gives the largest value over the
    unscreened vertex enumeration, on seeded random costs: on linf, on
    systems with cone columns, with a zero gradient and with dependent
    rows.  Near the tolerances (a +- pair on either side of the EPS_RANK
    boundary, tiny gradients) it never exceeds that value by more than
    the residual tolerance.  A system whose weights are bounded never
    gives an unbounded LP."""
    Aeq, beq = _LEVEL_SYSTEMS[system]()
    n = Aeq.shape[1]
    verts = np.array(_reference_vertices(Aeq, beq, n))
    tableau = Tableau(Aeq, beq)
    bounded = tableau.solve(-np.ones(n)).status == "optimal"
    rng = np.random.default_rng(sum(map(ord, system)))
    solved = 0
    for q in rng.standard_normal((20, n)):
        res = tableau.solve(-q)
        if res.status == "unbounded" and not bounded:
            continue
        assert res.status == "optimal"
        best = float(np.max(verts @ q))
        if system in _NEAR_TOLERANCE:
            assert q @ res.x <= best + 1e-8
        else:
            assert abs(q @ res.x - best) <= 1e-12 * max(1.0, abs(best))
        solved += 1
    assert solved


@pytest.mark.parametrize("system", [f"dependent{s}" for s in range(4)])
def test_lp_witness_is_unscreened_vertex(system):
    """With a row of Aeq the sum of two others, the simplex drops the
    redundant row and still returns a basic solution: each LP witness is
    one of the vertices of the unscreened enumeration, and it is as good
    as the witness of the same LP with the dependent row removed."""
    Aeq, beq = _LEVEL_SYSTEMS[system]()
    n = Aeq.shape[1]
    verts = np.array(_reference_vertices(Aeq, beq, n))
    tableau = Tableau(Aeq, beq)
    reduced = Tableau(np.delete(Aeq, 2, axis=0), np.delete(beq, 2))
    rng = np.random.default_rng(sum(map(ord, system)))
    for q in rng.standard_normal((20, n)):
        res = tableau.solve(-q)
        assert res.status == "optimal"
        assert np.min(np.linalg.norm(verts - res.x, axis=1)) <= 1e-8
        ref = reduced.solve(-q)
        assert ref.status == "optimal"
        assert abs(q @ res.x - q @ ref.x) <= 1e-12 * max(1.0, abs(q @ ref.x))


class _FailingTableau(Tableau):
    def solve_stack(self, costs, columns=None):
        return [LpResult("infeasible") for _ in costs]


def test_lp_failure_draws_no_refutation(monkeypatch):
    """When an LP fails, or its witness fails the residual test, the single
    witness of the necessary check stands in for the multiplier set,
    which is then not exhaustive, and the saddle is no longer refuted."""
    P = _simple('[problem] dim=2\n[scenario] f="x(1)^2 - x(2)^2"\n')
    ctx = PointContext(P, (0.0, 0.0))
    assert so.second_order_necessary(ctx, fo.necessary_check(ctx)).refuted

    def failing_tableau(patch, G):
        # after the necessary check, which read the set's own tableau
        patch.setattr(G, "tableau", _FailingTableau(G.tableau.A,
                                                    G.tableau.b))

    def failing_residual(patch, G):
        patch.setattr(so, "_witness_residual", lambda P, x, w: 1.0)

    for plant in (failing_tableau, failing_residual):
        with monkeypatch.context() as patch:
            # a new context: the first one holds the LP results
            ctx = PointContext(P, (0.0, 0.0))
            nec = fo.necessary_check(ctx)
            plant(patch, nec.generators)
            verts = so.multiplier_vertices(ctx, nec, axis_directions(2))
            assert verts.pairs == [nec.multipliers] and not verts.exhaustive
            assert verts.values == [2.0, 2.0, -2.0, -2.0]
            for test in (so.second_order_necessary,
                         so.second_order_sufficient):
                rep = test(ctx, nec)
                assert not rep.refuted and not rep.multiplier_set_exhaustive


def test_second_order_needs_a_check_of_its_own_context():
    """The second-order inputs are kept on the generator set, so a
    necessary report of another context, whose sampling may differ, is
    refused rather than answered from that context's directions."""
    P = _simple('[problem] dim=2\n[scenario] f="x(1)^2 - x(2)^2"\n')
    ctx, other = PointContext(P, (0.0, 0.0)), PointContext(P, (0.0, 0.0))
    nec = fo.necessary_check(ctx)
    for test in (so.second_order_necessary, so.second_order_sufficient):
        with pytest.raises(ValueError, match="not of this context"):
            test(other, nec)
        assert test(ctx, nec).applicable
    P = _simple('[problem] dim=1 kind=chebyshev\n'
                '[scenario] f="x(1)" psi=1\n[scenario] f="x(1)" psi=-1\n')
    ctx = PointContext(P, (0.0,))
    assert so.second_order_necessary(
        ctx, fo.necessary_check(ctx, squared=True)).applicable


def _second_order(text, x):
    P = _simple(text)
    ctx = PointContext(P, x)
    nec = fo.necessary_check(ctx)
    return (so.second_order_necessary(ctx, nec),
            so.second_order_sufficient(ctx, nec))


def test_unbounded_multiplier_set_refutes_nothing():
    """The feasible set of pinch is {0}, since -x_2^2 <= x_1 <= -2 x_2^2,
    so 0 is a global minimiser.  Its multiplier set is unbounded along
    (lambda_1, lambda_2) = (t, 1 + t), where the form along (0, +-1) is
    2t - 2: its vertex (1, 0, 1) alone gives -2, which refuted 0."""
    nec, suf = _second_order(
        '[problem] dim=2\n[scenario] f="x(1)"\n'
        '[nlp_ineq] g="x(1) + 2*x(2)^2" g="-x(1) - x(2)^2"\n', (0.0, 0.0))
    assert nec.n_directions > 0 and nec.multiplier_set_exhaustive
    assert not nec.refuted and nec.passed
    assert nec.worst_value == suf.worst_value == math.inf


def test_form_is_the_largest_over_the_vertices():
    """Along +-e_2 the two multiplier vertices of these three scenarios
    give forms -1 and +1; the test takes the larger."""
    nec, suf = _second_order(
        '[problem] dim=2\n[scenario] f="x(1) + x(2)^2"\n'
        '[scenario] f="-x(1) - 2*x(2)^2"\n[scenario] f="x(1) + 3*x(2)^2"\n',
        (0.0, 0.0))
    assert nec.n_directions == 2 and not nec.refuted
    assert nec.worst_value == pytest.approx(1.0, rel=1e-12)
    assert suf.passed
