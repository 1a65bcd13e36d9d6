import math
from itertools import combinations

import numpy as np
import pytest

import conecert as cc
from conecert import firstorder as fo
from conecert import registry
from conecert.geometry import (GeneratorSet, PointContext, Provenance,
                               build_generator_set)
from conecert.linkernel import (SCREEN_CHUNK, lp_membership,
                                solve_positive_combination)
from conecert.oracle import hull_membership_bruteforce
from conecert.problem import activity, load_problem_text
from conftest import random_generator_family

SQ2 = math.sqrt(2.0)


def _gen_set(d, hull, cone_eta=(), cone_na=()):
    return GeneratorSet(
        d=d,
        grads_F=[np.asarray(v, dtype=float) for v in hull],
        grads_prov=[Provenance("scenario", index=i + 1)
                    for i in range(len(hull))],
        eta=[np.asarray(v, dtype=float) for v in cone_eta],
        eta_prov=[Provenance("nlp_ineq", 0, i) for i in range(len(cone_eta))],
        nA=[np.asarray(v, dtype=float) for v in cone_na],
        nA_prov=[Provenance("bound", index=i) for i in range(len(cone_na))])


# ---------------------------------------------------------------------------
# verify_alternance fixtures
# ---------------------------------------------------------------------------


def test_verify_dem():
    res = fo.verify_alternance([(5, 1), (-5, 1), (0, -2)], k0=3, i0=3)
    assert isinstance(res, fo.Cadre)
    np.testing.assert_allclose(res.determinants, [10, -10, 10], atol=1e-9)
    assert res.complete


def test_verify_bazaraa():
    res = fo.verify_alternance([(176, 140), (-1, -1), (-2, 1)], k0=1, i0=3)
    assert isinstance(res, fo.Cadre)
    np.testing.assert_allclose(res.determinants, [-3, 456, -36], atol=1e-9)


def test_verify_soc():
    res = fo.verify_alternance(
        [(4, -1), (0, 1), (-1 / SQ2, -3 / SQ2)], k0=1, i0=3)
    assert isinstance(res, fo.Cadre)
    np.testing.assert_allclose(res.determinants,
                               [1 / SQ2, -13 / SQ2, 4.0], atol=1e-9)


def test_verify_sdp():
    res = fo.verify_alternance(
        [(-3, -3, -2), (0, 0, 2), (1, 2, 0), (2, -2, -1)], k0=2, i0=4)
    assert isinstance(res, fo.Cadre)
    np.testing.assert_allclose(res.determinants, [-12, 15, -24, 6], atol=1e-8)


def test_verify_madsen_generalised():
    res = fo.verify_alternance([(1, 2), (1, 0), (-1, -1)], k0=2, i0=2,
                               flavor="generalised")
    assert isinstance(res, fo.Cadre)
    np.testing.assert_allclose(res.determinants, [-1, 1, -2], atol=1e-9)


def test_verify_rejects_same_sign():
    res = fo.verify_alternance([(1, 0), (1, 0)], k0=2, i0=2)
    assert isinstance(res, fo.AlternanceFailure)


def test_verify_rejects_rank_deficient():
    # V_2, V_3 parallel: no padding can make the tail independent
    res = fo.verify_alternance([(1, 1), (1, 0), (2, 0)], k0=3, i0=3)
    assert isinstance(res, fo.AlternanceFailure)
    assert res.reason == "RankDeficient"


def test_verify_nonzero_tail():
    # a 2-point candidate whose vectors are independent: Delta_3 != 0
    res = fo.verify_alternance([(1, 0), (0, 1)], k0=2, i0=2)
    assert isinstance(res, fo.AlternanceFailure)


def test_verify_p1_zero_vector():
    res = fo.verify_alternance([(0.0, 0.0, 0.0)], k0=1, i0=1)
    assert isinstance(res, fo.Cadre)
    assert res.p == 1 and not res.complete


def test_verify_cramer_multipliers():
    res = fo.verify_alternance([(5, 1), (-5, 1), (0, -2)], k0=3, i0=3)
    beta_cramer = [(-1) ** s * res.determinants[s] / res.determinants[0]
                   for s in range(res.p)]
    np.testing.assert_allclose(res.multipliers, beta_cramer, rtol=1e-8)


def test_z_invariance(rng):
    rand = rng.standard_normal((3, 3))
    Q, _ = np.linalg.qr(rand)
    Zr = fo.Zbasis(tuple(tuple(row) for row in Q.T))
    fixtures = [
        ([(5, 1, 0), (-5, 1, 0), (0, -2, 0), (0, 0, 1)], False),
        ([(1, 0, 0), (-1, 0, 0)], True),
        ([(1, 0, 1), (-1, 0, 0), (0, 0, -1)], True),
    ]
    for vecs, _ in fixtures:
        a = fo.verify_alternance(vecs)
        b = fo.verify_alternance(vecs, Z=Zr)
        assert isinstance(a, fo.Cadre) == isinstance(b, fo.Cadre)
        if isinstance(a, fo.Cadre):
            np.testing.assert_allclose(a.multipliers, b.multipliers,
                                       rtol=1e-7, atol=1e-10)


# ---------------------------------------------------------------------------
# find_cadre
# ---------------------------------------------------------------------------


def test_find_cadre_linf_plain_two_point():
    for d in (2, 3, 4):
        P, x, samp = registry.get("linf", dim=d)
        G = build_generator_set(P, x, activity(P, x), samp)
        cadre = fo.find_cadre(G, "plain")
        assert cadre.p == 2
        assert fo.find_cadre(G, "plain", p_min=d + 1) is None
        gen = fo.find_cadre(G, "generalised", p_min=d + 1)
        expected = [(-1) ** (d - i) * (-1.0 / d)
                    for i in range(1, d + 1)] + [1.0]
        np.testing.assert_allclose(gen.determinants, expected, atol=1e-9)


def test_madsen_plain_search_stops_at_two_points():
    # The smallest-p search ends at the two-point cadre {grad f2, -e1}, so
    # it reports no complete plain alternance.  A forced three-point plain
    # enumeration does find one ({grad f1, -e1, -e2}); the search contract
    # is smallest p first, which the published analysis of this problem
    # relies on.  Both behaviors are pinned here.
    P, x, samp = registry.get("madsen")
    G = build_generator_set(P, x, activity(P, x), samp)
    plain = fo.find_cadre(G, "plain")
    assert plain.p == 2
    assert {tuple(v) for v in plain.vectors} == {(1.0, 0.0), (-1.0, 0.0)}
    forced = fo.find_cadre(G, "plain", p_min=3)
    assert forced is not None
    assert {tuple(v) for v in forced.vectors} == \
        {(1.0, 2.0), (-1.0, 0.0), (0.0, -1.0)}
    np.testing.assert_allclose(forced.determinants, [1, -1, 2], atol=1e-9)


def test_find_cadre_counterexample():
    P, x, samp = registry.get("counterexample-3-2")
    G = build_generator_set(P, x, activity(P, x), samp)
    plain = fo.find_cadre(G, "plain")
    assert plain.p == 3
    assert {tuple(np.round(v, 9)) for v in plain.vectors} == \
        {(1.0, 0.0, 1.0), (-1.0, -0.0, -0.0), (0.0, 0.0, -1.0)}
    assert fo.find_cadre(G, "generalised", p_min=4) is None
    weak = fo.find_cadre(G, "weak", p_min=4)
    assert weak is not None and weak.flavor == "weak"
    assert weak.residual <= 1e-8


def test_find_cadre_respects_budget():
    hull = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    G = _gen_set(2, hull, cone_eta=[(1, 1)] * 6, cone_na=[(1, -1)] * 6)
    with pytest.raises(fo.CombinatorialBudgetExceeded):
        fo.find_cadre(G, "plain", budget=3)


def _reference_search(G, flavor, p_min=1):
    """The cadre search without the rank screen: every subset in order,
    straight to the positive-combination and alternance tests.  Yields
    (subset number, cadre or None) for each subset."""
    relaxed = flavor in ("generalised", "weak")
    grads, gprov = fo._hull_pool(G.grads_F, G.grads_prov, relaxed)
    if flavor == "weak":
        eta, eprov = fo._cone_pool(list(G.eta) + list(G.nA),
                                   list(G.eta_prov) + list(G.nA_prov), True)
        na, nprov = [], []
    else:
        eta, eprov = fo._cone_pool(G.eta, G.eta_prov, flavor == "generalised")
        na, nprov = fo._cone_pool(G.nA, G.nA_prov, flavor == "generalised")
    tried = 0
    for p in range(p_min, G.d + 2):
        for k0 in range(min(p, len(grads)), 0, -1):
            for e in range(min(p - k0, len(eta)), -1, -1):
                a = p - k0 - e
                if a > len(na):
                    continue
                for gi in combinations(range(len(grads)), k0):
                    for ei in combinations(range(len(eta)), e):
                        for ai in combinations(range(len(na)), a):
                            tried += 1
                            vecs = ([grads[i] for i in gi]
                                    + [eta[i] for i in ei]
                                    + [na[i] for i in ai])
                            found = None
                            if solve_positive_combination(vecs) is not None:
                                prov = ([gprov[i] for i in gi]
                                        + [eprov[i] for i in ei]
                                        + [nprov[i] for i in ai])
                                found = fo.verify_alternance(
                                    vecs, k0=k0, i0=k0 + e, flavor=flavor,
                                    provenance=prov)
                            yield tried, (found if isinstance(found, fo.Cadre)
                                          else None)


def _reference_cadre(G, flavor, p_min=1):
    """(cadre, subset number) of the first cadre, or (None, subset count)."""
    tried = 0
    for tried, cadre in _reference_search(G, flavor, p_min):
        if cadre is not None:
            return cadre, tried
    return None, tried


def _same_cadre(a, b):
    if a is None or b is None:
        return a is b
    return (a.p == b.p and a.k0 == b.k0 and a.i0 == b.i0
            and a.flavor == b.flavor and a.provenance == b.provenance
            and all(np.array_equal(u, v) for u, v in zip(a.vectors, b.vectors))
            and np.array_equal(a.determinants, b.determinants)
            and np.array_equal(a.multipliers, b.multipliers)
            and a.residual == b.residual)


_SCREEN_CASES = ([(name, None) for name in registry.NAMES if name != "linf"]
                 + [("linf", d) for d in range(2, 7)])


@pytest.mark.parametrize("name,dim", _SCREEN_CASES)
def test_find_cadre_matches_unscreened_search(name, dim):
    P, x, sampling = registry.get(name, dim)
    G = PointContext(P, x, sampling).generators
    for flavor in ("plain", "generalised", "weak"):
        for p_min in (1, P.d + 1):
            ref, _ = _reference_cadre(G, flavor, p_min)
            got = fo.find_cadre(G, flavor, p_min=p_min)
            assert _same_cadre(got, ref), (flavor, p_min)


@pytest.mark.parametrize("name,dim,flavor,p_min", [
    ("sdp-example", None, "plain", 1),     # found at subset 4492
    ("linf", 6, "generalised", 7),         # found at subset 638
    ("linf", 6, "plain", 7),               # 792 subsets, no cadre
])
def test_find_cadre_budget_is_exact(name, dim, flavor, p_min):
    """A cadre found at subset number ``budget`` is returned; one subset
    less raises with subsets_tried == budget + 1, as the unscreened
    search does, across chunk boundaries."""
    P, x, sampling = registry.get(name, dim)
    G = PointContext(P, x, sampling).generators
    ref, n = _reference_cadre(G, flavor, p_min)
    assert n > SCREEN_CHUNK
    got = fo.find_cadre(G, flavor, p_min=p_min, budget=n)
    assert _same_cadre(got, ref)
    for budget in (n - 1, SCREEN_CHUNK, SCREEN_CHUNK - 1, 0):
        with pytest.raises(fo.CombinatorialBudgetExceeded) as err:
            fo.find_cadre(G, flavor, p_min=p_min, budget=budget)
        assert err.value.subsets_tried == budget + 1


def test_find_cadre_needs_objective_vector():
    # zero-sum combination of eta vectors alone is not a cadre
    G = _gen_set(2, [(1.0, 1.0)], cone_eta=[(1, 0), (-1, 0)])
    cadre = fo.find_cadre(G, "plain")
    assert cadre is None


def test_cadre_membership_oracle_agreement(rng):
    from conecert.linkernel import lp_chebyshev_center
    agree = 0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        hull, cone = random_generator_family(rng, d, int(rng.integers(1, 7)))
        k = len(cone) // 2
        G = _gen_set(d, hull, cone[:k], cone[k:])
        member = lp_membership(np.zeros(d), hull, cone) is not None
        cadre = fo.find_cadre(G, "plain")
        oracle = hull_membership_bruteforce(np.zeros(d), hull, cone)
        assert (cadre is not None) == member == oracle
        if cadre is not None:
            np.testing.assert_allclose(
                np.column_stack(cadre.vectors) @ cadre.multipliers, 0.0,
                atol=1e-8)
        interior = lp_chebyshev_center(hull, cone, d=d)
        if interior.feasible:
            # a finite margin in every probe direction implies membership
            assert member
        if cadre is not None and cadre.complete:
            # complete alternance certifies the interior condition
            assert interior.feasible and interior.margin > 1e-9
        agree += 1
    assert agree == 200


# ---------------------------------------------------------------------------
# necessary / sufficient
# ---------------------------------------------------------------------------


def test_necessary_dem():
    P, x, samp = registry.get("dem")
    rep = fo.necessary_check(PointContext(P, x, samp))
    assert rep.zero_in_D and rep.agreement
    weights = [w for _, _, w in rep.multipliers.alpha]
    np.testing.assert_allclose(sorted(weights), [1 / 3] * 3, atol=1e-9)
    assert rep.multipliers.stationarity_residual <= 1e-10


def test_necessary_dem_wrong_point():
    P, _, samp = registry.get("dem")
    rep = fo.necessary_check(PointContext(P, (0.0, 0.0), samp))
    assert not rep.zero_in_D
    assert rep.cadre is None and rep.agreement
    # independent confirmation by the brute-force oracle
    _, act = cc.evaluate_objective(P, (0.0, 0.0))
    gens = cc.subdifferential_generators(P, (0.0, 0.0), act)
    assert not hull_membership_bruteforce(np.zeros(2), gens)


def test_necessary_bazaraa_multipliers():
    P, x, samp = registry.get("bazaraa45")
    rep = fo.necessary_check(PointContext(P, x, samp))
    assert rep.zero_in_D
    blk, duals = rep.multipliers.duals[0]
    assert blk is P.blocks[0]
    assert duals[0] == pytest.approx(152.0, abs=1e-6)
    assert duals[1] == pytest.approx(12.0, abs=1e-6)


def test_necessary_rejects_infeasible_point():
    P, _, samp = registry.get("bazaraa45")
    with pytest.raises(fo.NotFeasible):
        fo.necessary_check(PointContext(P, (0.0, 0.0), samp))


def test_sufficient_dem():
    P, x, samp = registry.get("dem")
    rep = fo.sufficient_check(PointContext(P, x, samp))
    assert rep.zero_in_int_D and rep.radius > 0
    assert rep.complete_alternance is not None
    assert rep.growth_constant_estimate is not None
    assert rep.growth_constant_estimate > 0


def test_sufficient_linf_without_plain_complete():
    P, x, samp = registry.get("linf", dim=2)
    rep = fo.sufficient_check(PointContext(P, x, samp))
    assert rep.zero_in_int_D and rep.radius > 0
    G = build_generator_set(P, x, activity(P, x), samp)
    assert fo.find_cadre(G, "plain", p_min=3) is None


def test_sufficient_fails_on_halfspace():
    P = load_problem_text('[problem] dim=2\n[scenario] f="x(1) + x(2)"\n')
    rep = fo.sufficient_check(PointContext(P, (0.0, 0.0)))
    assert not rep.zero_in_int_D
    assert rep.radius == 0.0


def test_interior_implies_membership_consistency():
    for name in ("dem", "bazaraa45", "madsen"):
        P, x, samp = registry.get(name)
        ctx = PointContext(P, x, samp)
        nec = fo.necessary_check(ctx)
        suf = fo.sufficient_check(ctx)
        if suf.zero_in_int_D:
            assert nec.zero_in_D
        if suf.complete_alternance is not None:
            assert suf.zero_in_int_D  # complete alternance => interior


# ---------------------------------------------------------------------------
# penalty
# ---------------------------------------------------------------------------


def test_penalty_value_on_feasible_points(rng):
    P, x, samp = registry.get("dem")
    for c in (0.0, 1.0, 10.0):
        F, _ = cc.evaluate_objective(P, x)
        assert fo.penalty_value(P, x, c) == F


def test_penalty_value_monotone_in_c(rng):
    P, x, samp = registry.get("soc-example")
    for _ in range(25):
        pt = rng.uniform(-1, 1, size=2)
        vals = [fo.penalty_value(P, pt, c) for c in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_penalty_thresholds_bazaraa():
    P, x, samp = registry.get("bazaraa45")
    ctx = PointContext(P, x, samp)
    nec = fo.necessary_check(ctx)
    lam1 = nec.multipliers.lambda_l1()
    assert lam1 == pytest.approx(164.0, abs=1e-6)
    grid = [0.0, 0.5 * lam1, lam1, 2.0 * lam1]
    verdicts = [fo.penalty_subdiff_check(ctx, c).zero_in_subdiff
                for c in grid]
    assert verdicts == [False, False, True, True]
    rep = fo.penalty_subdiff_check(ctx, lam1 + 0.1)
    assert rep.zero_in_subdiff and rep.verified_at_2c


def test_penalty_zero_c_single_gradient():
    P, x, samp = registry.get("bazaraa45")
    rep = fo.penalty_subdiff_check(PointContext(P, x, samp), 0.0)
    assert not rep.zero_in_subdiff


# ---------------------------------------------------------------------------
# sampled growth estimate and discretization
# ---------------------------------------------------------------------------


def test_spot_check_dem_positive():
    P, x, samp = registry.get("dem")
    rep = fo.sufficient_check(PointContext(P, x, samp))
    assert rep.growth_constant_estimate == pytest.approx(1.3193, abs=1e-4)


def test_spot_check_refutes_linear():
    # F = x(1) falls at unit rate along -e1, a sound refutation
    P = load_problem_text('[problem] dim=1\n[scenario] f="x(1)"\n')
    rep = fo.sufficient_check(PointContext(P, (0.0,)))
    assert rep.growth_constant_estimate == -1.0


def test_spot_check_madsen():
    P, x, samp = registry.get("madsen")
    rep = fo.sufficient_check(PointContext(P, x, samp))
    assert rep.growth_constant_estimate == pytest.approx(1.0654, abs=1e-4)


def test_discretize_active_points():
    P = load_problem_text(
        '[problem] dim=2\n[scenario] f="x(1)^2 + x(2)^2"\n'
        '[semiinf] g="x(1)*(t - 0.3)*(t - 0.7)" grid=0:1:11\n')
    # at x1 = 0 the constraint vanishes identically: all grid points active
    Q, actions = fo.semiinfinite_discretize(P, (0.0, 0.0))
    assert actions[0][1] == "capped"
    assert len(Q.blocks[0].g) == 3


def test_discretize_two_point_block():
    P = load_problem_text(
        '[problem] dim=1\n[scenario] f="x(1)^2"\n'
        '[semiinf] g="x(1) - (t - 0.3)*(t - 0.7)*0 - (t - 0.3)^2*(t - 0.7)^2"'
        ' grid=0.3:0.7:2\n')
    # g(x, t) = x - (t-0.3)^2 (t-0.7)^2 vanishes at both grid ends for x = 0
    Q, actions = fo.semiinfinite_discretize(P, (0.0,))
    assert actions[0][1] == "kept"
    assert [round(t, 6) for t in actions[0][2]] == [0.3, 0.7]
    assert len(Q.blocks[0].g) == 2


def test_discretize_drops_inactive():
    P = load_problem_text(
        '[problem] dim=1\n[scenario] f="x(1)"\n'
        '[semiinf] g="x(1) + t - 10" grid=0:1:5\n')
    Q, actions = fo.semiinfinite_discretize(P, (0.0,))
    assert actions[0][1] == "dropped"
    assert Q.blocks == ()


def test_discretize_certificate_stable_under_cap(rng):
    # capping to d+1 active points must not change the certificate verdict
    P = load_problem_text(
        '[problem] dim=2\n[scenario] f="x(1)^2 + x(2)^2"\n'
        '[semiinf] g="x(1)*t + x(2)*(1 - t)" grid=0:1:9\n')
    x = (0.0, 0.0)
    Q, actions = fo.semiinfinite_discretize(P, x)
    assert actions[0][1] == "capped"
    nec_capped = fo.necessary_check(PointContext(Q, x))
    # the grid handled directly, uncapped
    nec_full = fo.necessary_check(PointContext(P, x))
    assert nec_capped.zero_in_D == nec_full.zero_in_D


def test_semiinfinite_direct_certification():
    # x >= -t(1-t) for all t on the grid binds at both interval ends, so the
    # certificate at x = 0 is carried by the two endpoint grid multipliers
    P = load_problem_text(
        '[problem] dim=1\n[scenario] f="x(1)"\n'
        '[semiinf] g="-x(1) - t*(1 - t)" grid=0:1:5\n')
    rep = fo.necessary_check(PointContext(P, (0.0,)))
    assert rep.zero_in_D and rep.agreement
    blk, support = rep.multipliers.duals[0]
    assert blk is P.blocks[0]
    assert set(support) <= {0, 4}
    assert sum(support.values()) == pytest.approx(1.0)
    assert rep.multipliers.stationarity_residual <= 1e-10
    # discretizing first and certifying the flat problem agrees
    Q, _ = fo.semiinfinite_discretize(P, (0.0,))
    rep2 = fo.necessary_check(PointContext(Q, (0.0,)))
    assert rep2.zero_in_D


def test_penalty_inclusion_monotone_on_fixtures():
    P, x, samp = registry.get("madsen")
    ctx = PointContext(P, x, samp)
    answers = [fo.penalty_subdiff_check(ctx, c).zero_in_subdiff
               for c in (0.0, 0.5, 1.0, 2.0)]
    # once true it must stay true as c grows
    seen_true = False
    for a in answers:
        if seen_true:
            assert a
        seen_true = seen_true or a


def test_reverify_roundtrip_bazaraa():
    import json
    P, x, samp = registry.get("bazaraa45")
    ctx = PointContext(P, x, samp)
    nec = fo.necessary_check(ctx)
    suf = fo.sufficient_check(ctx)
    report = {"candidate": list(x), "necessary": nec.to_json(),
              "sufficient": suf.to_json()}
    report = json.loads(json.dumps(report))
    res = fo.reverify_report(P, report)
    assert res["ok"] and len(res["checks"]) >= 2


def _witness_cases():
    for name in registry.NAMES:
        yield registry.get(name, dim=3 if name == "linf" else None)
    yield (load_problem_text(
        '[problem] dim=3\n[scenario] f="x(1)^2 + x(2)^2 + x(3)"\n'
        '[scenario] f="x(1) - x(3)^2"\n'
        '[nlp_eq] b="x(1) + x(2) + x(3)" b="x(1) - x(2)^2"\n'),
        (0.0, 0.0, 0.0), None)
    yield (load_problem_text(
        '[problem] dim=2\n[scenario] f="x(1) + x(2)"\n'
        '[scenario] f="x(1)^2 - x(2)"\n'
        '[semiinf] g="t*x(1) + (1-t)*x(2) - t^2" grid=-1:1:9\n'),
        (0.0, 0.0), None)
    yield (load_problem_text(
        '[problem] dim=2\n[scenario] f="x(2)"\n'
        '[soc] g1="1" g2="x(1)" g3="x(2)"\n'), (0.0, -1.0), None)
    # block order differs from the order of the kinds in the JSON form
    yield (load_problem_text(
        '[problem] dim=2\n[scenario] f="-x(1) + 2*x(2)"\n'
        '[soc] g1="1" g2="x(1)" g3="x(2)"\n'
        '[nlp_ineq] g="x(1) - x(2) - 1"\n'), (0.0, -1.0), None)


@pytest.mark.parametrize("P, x, samp", list(_witness_cases()))
def test_witness_json_rebuilds_the_witness(P, x, samp):
    import json
    w = fo.necessary_check(PointContext(P, x, samp)).multipliers
    assert w is not None
    again = fo.witness_from_json(P, json.loads(json.dumps(w.to_json())))
    assert again.to_json() == w.to_json()
    assert (again.alpha, again.nA) == (w.alpha, w.nA)
    assert again.stationarity_residual == w.stationarity_residual
    assert sorted(again.duals) == sorted(w.duals)
    for (pos, blk, dual), (pos2, blk2, dual2) in zip(w.block_duals(),
                                                     again.block_duals()):
        assert pos == pos2 and blk is blk2 is P.blocks[pos]
        if isinstance(dual, dict):
            assert dual2 == dual
        else:
            np.testing.assert_array_equal(dual2, dual)
    # every kind's table is written, even when empty
    assert list(w.to_json()) == ["alpha", "nlp_ineq", "nlp_eq", "soc", "sdp",
                                 "semi_infinite", "nA",
                                 "stationarity_residual"]


def test_witness_json_rejects_a_dual_under_another_kind():
    P, x, samp = registry.get("bazaraa45")
    data = fo.necessary_check(PointContext(P, x, samp)).multipliers.to_json()
    data["nlp_eq"], data["nlp_ineq"] = data["nlp_ineq"], {}
    with pytest.raises(ValueError, match="block 0 is nlp_ineq, not nlp_eq"):
        fo.witness_from_json(P, data)
