"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math

import numpy as np
import pytest

import conecert as cc
from conecert import firstorder as fo
from conecert import registry
from conecert import secondorder as so
from conecert.geometry import (PointContext, build_generator_set,
                               project_psd_neg, project_soc)
from conecert.linkernel import _margins, lp_membership
from conecert.oracle import (fd_hessian, growth_probe,
                             hull_membership_bruteforce)
from conecert.problem import activity, evaluate_objective, load_problem_text
from conftest import random_expression, random_generator_family

SQ2 = math.sqrt(2.0)


def _report(n, ok, detail=""):
    print(f"[acceptance] criterion {n:>2}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok


def test_criterion_01_bazaraa45():
    P, x, samp = registry.get("bazaraa45")
    res = fo.verify_alternance([(176, 140), (-1, -1), (-2, 1)], k0=1, i0=3)
    ok = isinstance(res, fo.Cadre)
    ok = ok and np.allclose(res.determinants, [-3, 456, -36], atol=1e-9)
    ok = ok and res.complete
    suf = fo.sufficient_check(PointContext(P, x, samp))
    ok = ok and suf.radius > 0
    _report(1, ok, "determinants -3, 456, -36; positive radius")


def test_criterion_02_dem():
    P, x, samp = registry.get("dem")
    _, act = evaluate_objective(P, x)
    ok = {s.index for s in act} == {1, 2, 3}
    ctx = PointContext(P, x, samp)
    nec = fo.necessary_check(ctx)
    suf = fo.sufficient_check(ctx)
    ok = ok and nec.zero_in_D and suf.zero_in_int_D
    ok = ok and nec.cadre is not None and np.allclose(
        nec.cadre.determinants, [10, -10, 10], atol=1e-9)
    probe = growth_probe(P, x, order=1)
    ok = ok and not probe.refuted and probe.constant > 0
    _report(2, ok, "determinants 10, -10, 10; growth constant "
            f"{probe.constant:.3f}")


def test_criterion_03_madsen():
    P, x, samp = registry.get("madsen")
    _, act = evaluate_objective(P, x)
    ok = {s.index for s in act} == {1, 2}
    G = build_generator_set(P, x, activity(P, x), samp)
    gen = fo.find_cadre(G, "generalised", p_min=P.d + 1)
    ok = ok and gen is not None and np.allclose(
        gen.determinants, [-1, 1, -2], atol=1e-9)
    # the plain search ends at the two-point cadre, so it produces no
    # complete plain alternance
    plain = fo.find_cadre(G, "plain")
    ok = ok and plain is not None and plain.p == 2 and not plain.complete
    _report(3, ok, "generalised determinants -1, 1, -2; plain search "
            "yields only the 2-point cadre")


def test_criterion_04_linf_family():
    ok = True
    details = []
    for d in (2, 3, 4):
        P, x, samp = registry.get("linf", dim=d)
        G = build_generator_set(P, x, activity(P, x), samp)
        plain = fo.find_cadre(G, "plain")
        ok = ok and plain is not None and plain.p == 2
        ok = ok and fo.find_cadre(G, "plain", p_min=d + 1) is None
        gen = fo.find_cadre(G, "generalised", p_min=d + 1)
        expected = [(-1) ** (d - i) * (-1.0 / d)
                    for i in range(1, d + 1)] + [1.0]
        ok = ok and gen is not None and np.allclose(
            gen.determinants, expected, atol=1e-9)
        suf = fo.sufficient_check(PointContext(P, x, samp))
        bound = 1.0 / (2.0 * math.sqrt(d)) - 1e-6
        ok = ok and suf.radius >= bound
        details.append(f"d={d} radius {suf.radius:.4f}")
    _report(4, ok, "; ".join(details))


def test_criterion_05_counterexample():
    P, x, samp = registry.get("counterexample-3-2")
    G = build_generator_set(P, x, activity(P, x), samp)
    cone = list(G.eta) + list(G.nA)
    eps = 1e-6
    ok = lp_membership(np.zeros(3), G.grads_F, cone) is not None
    for target in ([eps, 0, 0], [-eps, 0, 0], [0, eps, 0], [0, -eps, 0],
                   [0, 0, -eps]):
        ok = ok and lp_membership(np.array(target, dtype=float),
                                  G.grads_F, cone) is not None
    margin_up = _margins(G.tableau, [np.array([0.0, 0.0, 1.0])])[0]
    ok = ok and margin_up == pytest.approx(1.0, abs=1e-9)
    ok = ok and fo.find_cadre(G, "generalised", p_min=4) is None
    weak = fo.find_cadre(G, "weak", p_min=4)
    ok = ok and weak is not None and weak.flavor == "weak"
    ok = ok and weak.residual <= 1e-8
    _report(5, ok, f"upward margin {margin_up}; weak residual "
            f"{weak.residual if weak else 'n/a'}")


def test_criterion_06_soc_example():
    P, x, samp = registry.get("soc-example")
    act = activity(P, x)
    states = {blk.position: blk.soc_state for blk in act.blocks}
    ok = states == {0: "boundary", 1: "origin"}
    # the published direction is part of the sampling set
    G = build_generator_set(P, x, act, samp)
    apex = {tuple(np.round(v, 9)) for v, p in zip(G.eta, G.eta_prov)
            if p.kind == "soc_apex"}
    ok = ok and tuple(np.round([-1 / SQ2, -3 / SQ2], 9)) in apex
    res = fo.verify_alternance([(4, -1), (0, 1), (-1 / SQ2, -3 / SQ2)],
                               k0=1, i0=3)
    ok = ok and isinstance(res, fo.Cadre) and np.allclose(
        res.determinants, [1 / SQ2, -13 / SQ2, 4.0], atol=1e-9)
    _report(6, ok, "boundary/apex split and published determinants")


def test_criterion_07_sdp_example():
    P, x, samp = registry.get("sdp-example")
    blk = P.blocks[0]
    M = blk.matrices(blk.jets(x))
    ok = np.max(np.abs(M - np.diag([0.0, -1.0, 0.0]))) <= 1e-10
    G = build_generator_set(P, x, activity(P, x), samp)
    rows = [tuple(np.round(v, 9)) for v, p in zip(G.eta, G.eta_prov)
            if p.kind == "sdp_null"]
    ok = ok and rows[0] == (1.0, 2.0, 0.0) and rows[1] == (2.0, -2.0, -1.0)
    res = fo.verify_alternance([(-3, -3, -2), (0, 0, 2), (1, 2, 0),
                                (2, -2, -1)], k0=2, i0=4)
    ok = ok and isinstance(res, fo.Cadre) and np.allclose(
        res.determinants, [-12, 15, -24, 6], atol=1e-8)
    _report(7, ok, "kernel rows recovered; determinants -12, 15, -24, 6")


def test_criterion_08_random_triple_agreement():
    rng = np.random.default_rng(88)
    ortho = {}
    for dd in (1, 2, 3):
        Qd, _ = np.linalg.qr(rng.standard_normal((dd, dd)))
        ortho[dd] = Qd.T
    n_member = 0
    for trial in range(500):
        d = int(rng.integers(1, 4))
        hull, cone = random_generator_family(rng, d, int(rng.integers(1, 7)))
        k = len(cone) // 2
        from conecert.geometry import GeneratorSet, Provenance
        G = GeneratorSet(
            d=d, grads_F=[np.asarray(v, float) for v in hull],
            grads_prov=[Provenance("scenario", index=i + 1)
                        for i in range(len(hull))],
            eta=[np.asarray(v, float) for v in cone[:k]],
            eta_prov=[Provenance("nlp_ineq", 0, i) for i in range(k)],
            nA=[np.asarray(v, float) for v in cone[k:]],
            nA_prov=[Provenance("bound", index=i)
                     for i in range(len(cone) - k)])
        member = lp_membership(np.zeros(d), hull, cone) is not None
        cadre = fo.find_cadre(G, "plain")
        brute = hull_membership_bruteforce(np.zeros(d), hull, cone)
        assert (cadre is not None) == member == brute, f"trial {trial}"
        if cadre is not None:
            n_member += 1
            # Cramer consistency of the recovered multipliers
            dets = cadre.determinants
            beta_cramer = [(-1) ** s * dets[s] / dets[0]
                           for s in range(cadre.p)]
            np.testing.assert_allclose(cadre.multipliers, beta_cramer,
                                       rtol=1e-8, atol=1e-10)
            # Z-invariance of the verdict
            again = fo.verify_alternance(cadre.vectors, cadre.k0,
                                         cadre.i0, Z=ortho[d])
            assert isinstance(again, fo.Cadre)
    _report(8, True, f"500 instances; {n_member} with certificates")


def test_criterion_09_projection_suite():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        y = rng.uniform(-3, 3, size=dim)
        z = rng.uniform(-3, 3, size=dim)
        Py, Pz = project_soc(y), project_soc(z)
        assert np.linalg.norm(project_soc(Py) - Py) <= 1e-12
        assert np.linalg.norm(Py - Pz) <= np.linalg.norm(y - z)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        B = rng.standard_normal((n, n))
        M = 0.5 * (B + B.T)
        Pm = project_psd_neg(M)
        C = rng.standard_normal((n, n))
        Z = -C @ C.T
        assert float(np.trace((M - Pm) @ (Z - Pm))) <= 1e-8
        sigma = np.linalg.eigvalsh(M)
        ident = math.sqrt(float(np.sum(np.maximum(sigma, 0.0) ** 2)))
        assert abs(np.linalg.norm(M - Pm, "fro") - ident) <= 1e-10
    _report(9, True, "1000 cone projections, 100 matrix projections")


def _random_smooth_instance(rng, d, chebyshev):
    m = int(rng.integers(2, 5))
    scenarios = []
    for _ in range(m):
        while True:
            f = random_expression(rng, d)
            try:
                x0 = np.zeros(d)
                dual = cc.eval2(f, x0)
            except cc.DomainError:
                continue
            if np.max(np.abs(dual.hess)) < 50:
                break
        scenarios.append(f)
    if chebyshev:
        psi = tuple(float(rng.uniform(-1, 1)) for _ in range(m))
        return cc.Problem(d=d, kind="chebyshev", scenarios=tuple(scenarios),
                          psi=psi)
    return cc.Problem(d=d, kind="minimax", scenarios=tuple(scenarios))


def test_criterion_10_directional_derivative():
    rng = np.random.default_rng(1010)
    checked = 0
    while checked < 50:
        d = int(rng.integers(1, 4))
        chebyshev = rng.random() < 0.4
        P = _random_smooth_instance(rng, d, chebyshev)
        x = rng.uniform(-0.8, 0.8, size=d)
        h = rng.standard_normal(d)
        h /= np.linalg.norm(h)
        try:
            F0, act = evaluate_objective(P, x)
            gens = (cc.subdifferential_generators(P, x, act))
        except cc.DomainError:
            continue
        # keep finite-difference resolution meaningful: skip near-ties
        # outside the active set
        if P.kind == "minimax":
            vals = [cc.eval_value(f, x) for f in P.scenarios]
        else:
            vals = [abs(cc.eval_value(f, x) - t)
                    for f, t in zip(P.scenarios, P.psi)]
        gaps = [F0 - v for v in vals if F0 - v > P.tolerances.eps_active]
        if gaps and min(gaps) < 1e-3:
            continue
        predicted = max(float(g @ h) for g in gens)
        tau = 1e-5
        try:
            F1, _ = evaluate_objective(P, x + tau * h)
        except cc.DomainError:
            continue
        quotient = (F1 - F0) / tau
        assert quotient == pytest.approx(predicted, abs=1e-3)
        checked += 1
    _report(10, True, "50 sampled directional derivatives within 1e-3")


def test_criterion_11_penalty_suite():
    P, x, samp = registry.get("bazaraa45")
    ctx = PointContext(P, x, samp)
    c_min = fo.penalty_subdiff_check(ctx, 0.0).c_min
    grid = [0.0, 0.5 * c_min, c_min, 2.0 * c_min]
    verdicts = [fo.penalty_subdiff_check(ctx, c).zero_in_subdiff
                for c in grid]
    ok = verdicts == [False, False, True, True]
    ok = ok and fo.penalty_subdiff_check(ctx, c_min + 0.1).zero_in_subdiff
    F, _ = evaluate_objective(P, x)
    for c in (0.0, 1.0, c_min):
        ok = ok and fo.penalty_value(P, x, c) == F
    _report(11, ok, f"least penalty parameter {c_min}; verdicts {verdicts}")


def test_criterion_12_second_order_suite():
    ok = True
    # saddle refuted along the second axis
    P = load_problem_text('[problem] dim=2\n[scenario] f="x(1)^2 - x(2)^2"\n')
    ctx = PointContext(P, (0.0, 0.0))
    rep = so.second_order_necessary(ctx, fo.necessary_check(ctx))
    ok = ok and rep.refuted and abs(rep.witness_direction[1]) == \
        pytest.approx(1.0)
    # bowl passes every sample
    P = load_problem_text('[problem] dim=2\n[scenario] f="x(1)^2 + x(2)^2"\n')
    ctx = PointContext(P, (0.0, 0.0))
    srep = so.second_order_sufficient(ctx, fo.necessary_check(ctx))
    ok = ok and srep.passed
    # forward-mode Hessians against central differences
    rng = np.random.default_rng(1212)
    checked = 0
    while checked < 200:
        f = random_expression(rng, d=2)
        x = rng.uniform(-1, 1, size=2)
        try:
            dual = cc.eval2(f, x)
        except cc.DomainError:
            continue
        if np.max(np.abs(dual.hess)) > 1e3:
            continue
        H_fd = fd_hessian(f, x)
        scale = max(1.0, float(np.max(np.abs(H_fd))))
        assert np.max(np.abs(dual.hess - H_fd)) / scale < 1e-4
        checked += 1
    # squared-deviation formulation agreement at points of positive value
    agreements = 0
    while agreements < 50:
        d = 2
        m = int(rng.integers(2, 5))
        scenarios, psi = [], []
        x0 = rng.uniform(-1, 1, size=d)
        for _ in range(m):
            coeffs = rng.integers(-2, 3, size=d).astype(float)
            body = " + ".join(f"{c}*x({i + 1})"
                              for i, c in enumerate(coeffs))
            f = cc.parse(body, d)
            sign = 1 if rng.random() < 0.5 else -1
            psi.append(cc.eval_value(f, x0) - sign * 1.0)
            scenarios.append(f)
        C = cc.Problem(d=d, kind="chebyshev", scenarios=tuple(scenarios),
                       psi=tuple(psi))
        ctx = PointContext(C, x0)
        nec_p = fo.necessary_check(ctx)
        nec_s = fo.necessary_check(ctx, squared=True)
        suf_p = fo.sufficient_check(ctx)
        suf_s = fo.sufficient_check(ctx, squared=True)
        assert nec_p.zero_in_D == nec_s.zero_in_D
        assert suf_p.zero_in_int_D == suf_s.zero_in_int_D
        agreements += 1
    _report(12, ok, "refutation, growth, 200 Hessians, 50 squared-form "
            "agreements")
