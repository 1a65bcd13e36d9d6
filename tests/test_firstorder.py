import contextlib
import io
import json
import math
from collections import Counter
from itertools import combinations, count, product

import numpy as np
import pytest

import conecert as cc
from conecert import cli
from conecert import firstorder as fo
from conecert import linkernel as lk
from conecert import registry
from conecert.geometry import (GeneratorSet, PointContext, Provenance,
                               SamplingSpec, build_generator_set)
from conecert.linkernel import (SCREEN_CHUNK, lp_membership,
                                solve_positive_combination)
from conecert.oracle import hull_membership_bruteforce
from conecert.problem import (ScenarioJets, ToleranceSet, activity,
                              load_problem_file, load_problem_text)
from conftest import random_generator_family

# the tolerances a default check states in its report
TOLERANCES = {"eps_active": 1e-8, "eps_rank": 1e-9, "eps_det": 1e-8,
              "eps_feas": 1e-8, "eps_pos": 1e-8}

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


def test_verify_tail_test_is_relative_to_the_largest_minor():
    """Minors -1e-3, 1e-3, -1e-10: the last is 1e-7 of the largest, so
    not 0 under eps_det = 1e-8, though below eps_det itself (the old
    absolute floor, which let it pass to the multiplier check)."""
    res = fo.verify_alternance([(1e-3, -1e-7), (-1e-3, 0)])
    assert (res.reason, res.index) == ("NonzeroTailDeterminant", 3)


def test_verify_p1_zero_vector():
    res = fo.verify_alternance([(0.0, 0.0, 0.0)], k0=1, i0=1)
    assert isinstance(res, fo.Cadre)
    assert res.p == 1 and not res.complete


def test_verify_rejects_vectors_and_z_of_other_shapes():
    """Every vector has length d and Z is 2-D with d columns, or a
    ValueError says so.  Before, Z of shorter rows raised numpy's hstack
    error from inside the padding."""
    with pytest.raises(ValueError, match="2-D with 3 columns"):
        fo.verify_alternance([(1, 0, 0), (-1, 0, 0)], Z=np.eye(2))
    with pytest.raises(ValueError, match="2-D with 3 columns"):
        fo.verify_alternance([(1, 0, 0), (-1, 0, 0)], Z=np.ones(3))
    with pytest.raises(ValueError, match="1-D and of one length"):
        fo.verify_alternance([(1, 0, 0), (-1, 0)])
    with pytest.raises(ValueError, match="1-D and of one length"):
        fo.verify_alternance([np.eye(2)])
    # Z of d columns and any number of rows is still read
    res = fo.verify_alternance([(1, 0, 0), (-1, 0, 0)], Z=np.eye(3)[::-1])
    assert isinstance(res, fo.Cadre)


def test_verify_cramer_multipliers():
    res = fo.verify_alternance([(5, 1), (-5, 1), (0, -2)], k0=3, i0=3)
    beta_cramer = [(-1) ** s * res.determinants[s] / res.determinants[0]
                   for s in range(res.p)]
    np.testing.assert_allclose(res.multipliers, beta_cramer, rtol=1e-8)


def test_z_invariance(rng):
    rand = rng.standard_normal((3, 3))
    Q, _ = np.linalg.qr(rand)
    Zr = Q.T
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


def _per_minor_alternance(vecs, combo, eps_det=1e-8):
    """The alternance test as it was when each minor had its own
    determinant, frozen: the canonical padding picked by one SVD rank per
    candidate, the d+1 determinants of V less one column each, and the
    sign tests against eps_det max(1, max|Delta|).  Returns ("Cadre",
    padding, determinants) or (reason, index)."""
    p, d = len(vecs), len(vecs[0])

    def rank(cols):
        sigma = np.linalg.svd(np.column_stack(cols), compute_uv=False)
        return int(np.sum(sigma > 1e-9 * sigma[0]))
    chosen, padding = list(vecs[1:]), []
    for v in np.eye(d):
        if len(chosen) == d:
            break
        if rank(chosen + [v]) == len(chosen) + 1:
            chosen.append(v)
            padding.append(v)
    if len(chosen) != d or rank(chosen) < d:
        return "RankDeficient", None
    cols = [vecs[0]] + chosen
    deltas = np.array([np.linalg.det(np.column_stack(cols[:s] + cols[s + 1:]))
                       for s in range(d + 1)])
    thresh = eps_det * max(1.0, float(np.max(np.abs(deltas))))
    for s in range(p):
        if abs(deltas[s]) <= thresh or (
                s > 0 and np.sign(deltas[s]) != -np.sign(deltas[s - 1])):
            return "SignPatternViolated", s + 1
    for s in range(p, d + 1):
        if abs(deltas[s]) > thresh:
            return "NonzeroTailDeterminant", s + 1
    beta = np.array([(-1) ** s * deltas[s] / deltas[0] for s in range(p)])
    beta[0] = 1.0
    if combo is None or np.max(np.abs(combo - beta)
                               / np.maximum(np.abs(beta), 1.0)) > 1e-8:
        return "MultiplierMismatch", None
    return "Cadre", padding, deltas


def _alternance_sets(rng):
    """(kind, vectors) of 1 to d+1 vectors in R^d, d <= 12, whose minors
    are of order 1: a positive combination of Gaussian vectors (a cadre),
    one with a negative weight (a sign violation), independent Gaussian
    vectors (a nonzero tail or a sign violation), a Gaussian set with a
    repeated vector (rank deficient), and integer vectors in {-1, 0, 1}
    summing to 0, mostly zeros, whose padding must skip the unit vectors
    they span."""
    for d in range(1, 13):
        for p in range(1, d + 2):
            for kind in ("positive", "negative weight", "independent",
                         "repeated", "integer"):
                tail = rng.standard_normal((p - 1, d))
                beta = rng.uniform(0.5, 2.0, p - 1)
                if kind == "negative weight":
                    if p < 3:
                        continue
                    beta[rng.integers(p - 1)] *= -1.0
                if kind == "independent":
                    if p > d:
                        continue
                    yield kind, list(rng.standard_normal((p, d)))
                    continue
                if kind == "repeated":
                    if p < 3:
                        continue
                    tail[-1] = tail[0]
                if kind == "integer":
                    tail = rng.choice([-1.0, 0.0, 0.0, 0.0, 1.0], (p - 1, d))
                    beta = np.ones(p - 1)
                yield kind, [-(beta @ tail)] + list(tail)


def test_alternance_matches_the_per_minor_test():
    """On sets whose minors are of order 1, the test from one solve takes
    every decision that the per-minor test took: the same result type,
    failure reason and index, the same padding, and determinants within
    1e-12 of the largest.  Its multipliers, z_1..z_p of its own solve,
    agree to 1e-8 with those of ``solve_positive_combination``, which the
    per-minor test cross-checked."""
    rng = np.random.default_rng(34)
    kinds = Counter()
    for kind, vecs in _alternance_sets(rng):
        d = len(vecs[0])
        combo = solve_positive_combination(vecs)
        old = _per_minor_alternance(vecs, combo)
        new = fo._alternance(vecs, len(vecs), len(vecs), np.eye(d), 1e-8,
                             "plain", None)
        if isinstance(new, fo.Cadre):
            assert old[0] == "Cadre", (kind, vecs, old)
            assert np.all(np.abs(new.multipliers - combo)
                          <= 1e-8 * np.maximum(combo, 1.0))
            assert new.determinants_exponent == 0
            assert np.array_equal(np.eye(d)[np.array(new.padding, dtype=int)
                                            - 1].reshape(-1, d),
                                  np.array(old[1]).reshape(-1, d))
            scale = np.max(np.abs(old[2]))
            assert np.max(np.abs(new.determinants - old[2])) <= 1e-12 * scale
            skipped = not np.array_equal(old[1], np.eye(d)[:len(old[1])])
            kinds[kind, "padding skips a unit vector"] += skipped
        else:
            assert (new.reason, new.index) == old, (kind, vecs)
        kinds[kind, old[0]] += 1
    for kind in ("positive", "integer"):
        assert kinds[kind, "Cadre"] > 50
    assert kinds["negative weight", "SignPatternViolated"] > 50
    assert kinds["independent", "NonzeroTailDeterminant"] > 20
    assert kinds["repeated", "RankDeficient"] > 50
    assert kinds["integer", "RankDeficient"] >= 5
    assert kinds["integer", "padding skips a unit vector"] > 20


def _simplex_text(d: int, scale: str) -> str:
    """The simplex family at 0: scenarios S*x(i) and -S*(x(1)+...+x(d)),
    whose d+1 gradients form a complete cadre with minors of size S^d."""
    rows = [f"[problem] dim={d}"]
    rows += [f'[scenario] f="{scale}*x({i})"' for i in range(1, d + 1)]
    total = " + ".join(f"x({i})" for i in range(1, d + 1))
    rows.append(f'[scenario] f="-{scale}*({total})"')
    return "\n".join(rows) + "\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", ["0.001", "0.1", "1", "10", "1000"])
def test_simplex_family_keeps_its_complete_cadre_at_any_scale(tmp_path,
                                                              scale):
    """At d = 110 the minors are about S^110, out of the float range at
    S = 10^-3 and 10^3 and below the old absolute threshold at 0.1; the
    sign test on the null vector keeps the complete cadre at every S,
    with no warning, and its determinants stay finite, divided by a
    power of ten outside the range."""
    d = 110
    path = tmp_path / "simplex.prob"
    path.write_text(_simplex_text(d, scale), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", "--file", str(path), "--at",
                         ",".join(["0"] * d), "--json"])
    assert code == cli.EXIT_OK
    report = json.loads(out.getvalue())
    assert fo.reverify_report(load_problem_file(str(path)), report)["ok"]
    cadre = report["necessary"]["cadre"]
    assert (cadre["p"], cadre["complete"]) == (d + 1, True)
    dets = np.array(cadre["determinants"])
    assert np.all(np.isfinite(dets))
    # Delta_s = (-1)^(s-1) S^d, up to rounding: all equal in size
    np.testing.assert_allclose(np.abs(dets), np.abs(dets[0]), rtol=1e-9)
    assert np.all(dets[::2] > 0) and np.all(dets[1::2] < 0)
    k = cadre["determinants_exponent"]
    size = d * math.log10(float(scale))
    assert math.log10(abs(dets[0])) + k == pytest.approx(size, abs=1e-9)
    # in range as they are; out of range with a lead digit in [1, 10)
    if abs(size) < 300:
        assert k == 0
    else:
        assert k != 0 and 1 <= abs(dets[0]) < 10
    # the basis cadre runs no prefix test; it holds all the same
    assert fo._independent_prefixes(cadre["vectors"])
    # the re-check reads the minors on the report's power of ten
    cadre["determinants_exponent"] += 2
    assert not fo.reverify_report(None, {"candidate": [0.0] * d,
                                         "tolerances": TOLERANCES,
                                         "necessary": {"cadre": cadre}})["ok"]


# ---------------------------------------------------------------------------
# find_cadre
# ---------------------------------------------------------------------------


def test_find_cadre_linf_plain_two_point():
    for d in (2, 3, 4):
        P, x, samp = registry.get("linf", dim=d)
        G = build_generator_set(ScenarioJets(P, x), activity(P, x), samp)
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
    G = build_generator_set(ScenarioJets(P, x), activity(P, x), samp)
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
    G = build_generator_set(ScenarioJets(P, x), activity(P, x), samp)
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


def _screen_pool(rng, d, kind):
    """A small pool of vectors in R^d rich in positive combinations, made
    degenerate by ``kind``."""
    base = [rng.integers(-2, 3, size=d).astype(float) for _ in range(d + 1)]
    pool = list(base)
    for _ in range(d + 2):
        pick = rng.choice(len(base), size=int(rng.integers(1, d + 1)),
                          replace=False)
        weights = np.exp(rng.uniform(-2, 2, size=len(pick)))
        if kind == "zero":
            # an exactly zero weight: a zero entry in the null vector
            weights[0] = 0.0
        pool.append(-sum(w * base[i] for w, i in zip(weights, pick)))
    if kind == "lead":
        # multiples of one vector: dependent tail columns, a zero lead
        pool += [3.0 * base[0], -0.5 * base[0], 2.0 * base[1]]
    elif kind == "parallel":
        pool += [v * (1 + 1e-7) + 1e-9 * rng.standard_normal(d)
                 for v in pool[:d]]
    elif kind == "scaled":
        pool = [v * 10.0 ** rng.choice([-3, 0, 3]) for v in pool]
    return np.array([v for v in pool if np.any(v)])


def _screen_matches_scalar(pool, p):
    """Number of p-subsets of ``pool`` that solve_positive_combination
    accepts, after asserting that the screen yields exactly those, in
    order and in slices of 1, 2, 3, ... survivors."""
    chunk = list(combinations(range(len(pool)), p))
    screened = list(fo._rank_screen(pool, chunk, p, count(1)))
    expected = [sub for sub in chunk
                if solve_positive_combination(pool[list(sub)]) is not None]
    assert screened == expected, p
    return len(expected)


def test_rank_screen_keeps_every_positive_combination():
    """The screen yields exactly the subsets that solve_positive_combination
    accepts, over random pools with exact zero
    null entries, zero leads, near-parallel columns and columns scaled to
    a condition number near 10^6; it drops most subsets of rank p - 1."""
    rng = np.random.default_rng(11)
    accepted = survivors = 0
    for trial in range(24):
        d = 2 + trial % 3
        kind = ("plain", "zero", "lead", "parallel", "scaled")[trial % 5]
        pool = _screen_pool(rng, d, kind)
        for p in range(1, d + 2):
            accepted += _screen_matches_scalar(pool, p)
            if p > 1:
                survivors += sum(
                    np.linalg.matrix_rank(pool[list(s)].T) == p - 1
                    for s in combinations(range(len(pool)), p))
    assert 100 < accepted < survivors / 2


def test_stacked_lead_test_matches_the_scalar_one():
    """positive_combinations decides each matrix of a stack as it decides
    that matrix alone, bit for bit, lead test included: a matrix whose
    unit null vector has |n_1| <= EPS_LEAD gets no multipliers, and one
    with weights up to 10^8 apart gets them and passes the screen.  Two
    opposite vectors whose weights are 10^10 apart pass the rank test
    but not the lead test."""
    rng = np.random.default_rng(5)
    u, v, w = rng.standard_normal((3, 3))
    mats = [np.column_stack([-(r * u + v), u, v])      # beta = (r, 1)
            for r in np.geomspace(1e6, 1e8, 9)]
    # near-dependent tail columns: null vector (1/r, 1, 1), lead ~ 1/r
    mats += [np.column_stack([w, u, -(u + w / r)])
             for r in np.geomspace(1e7, 1e11, 17)]
    mats.append(np.column_stack([w, u, 2.0 * u]))       # lead exactly 0
    stack = np.array(mats)
    assert all(lk.rank(M) == 2 for M in stack)
    lead_out = np.abs(np.linalg.svd(stack)[2][:, -1, 0]) <= lk.EPS_LEAD
    betas = lk.positive_combinations(stack)
    for M, out, beta in zip(stack, lead_out, betas):
        assert np.array_equal(lk.positive_combinations(M[None])[0], beta,
                              equal_nan=True)
        scalar = solve_positive_combination(M.T)
        assert np.isnan(beta).all() if scalar is None \
            else np.array_equal(scalar, beta)
        assert not (out and scalar is not None)
    assert 0 < lead_out.sum() < len(lead_out)
    assert np.isnan(betas[lead_out]).all()
    assert not np.isnan(betas[:9]).any()
    for M in stack[:9]:
        assert _screen_matches_scalar(M.T, 3) == 1
    pair = np.array([u, -1e-8 * u, -1e-10 * u])
    assert solve_positive_combination(pair[[0, 1]]) is not None
    assert solve_positive_combination(pair[[0, 2]]) is None
    assert list(fo._rank_screen(
        pair, [(0, 1), (0, 2)], 2, count(1))) == [(0, 1)]


def test_rank_screen_keeps_ill_conditioned_combinations():
    """[w, u, -(u + w / r)], whose null vector (1/r, 1, 1) the normal
    equations miss from about r = 10^5, is accepted through the null
    vector's ratios up to about r = 10^8 and rejected by the lead test
    from about r = 10^9; the screen yields what the scalar accepts,
    whichever of the vectors comes first."""
    rng = np.random.default_rng(3)
    w, u = rng.standard_normal((2, 3))
    accepted = tried = 0
    for r in np.geomspace(1e3, 1e11, 17):
        for order in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            pool = np.array([w, u, -(u + w / r)])[list(order)]
            accepted += _screen_matches_scalar(pool, 3)
            tried += 1
    assert 3 * 10 <= accepted < tried


def test_find_cadre_scalar_calls_on_linf(monkeypatch):
    """Pinned calls of solve_positive_combination on linf d=6: none, single
    vectors included.  The stacked positive_combinations screens every
    subset, and the alternance test of each candidate finds its
    multipliers in its own solve.  The plain complete search, 792 subsets
    of which 192 have rank 6, verifies none; every other search verifies
    its cadre alone.  A default check of every registry problem calls it
    neither."""
    P, x, sampling = registry.get("linf", 6)
    G = PointContext(P, x, sampling).generators
    calls = []

    def counted(vecs):
        calls.append(len(vecs))
        return solve_positive_combination(vecs)

    # firstorder holds no name of its own for it, so every call is counted
    assert not hasattr(fo, "solve_positive_combination")
    monkeypatch.setattr(lk, "solve_positive_combination", counted)
    for flavor, p_min in product(("plain", "generalised"), (1, 7)):
        fo.find_cadre(G, flavor, p_min=p_min)
    for name in registry.NAMES:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["check", "--registry", name]
                            + ["--dim", "6"] * (name == "linf"))
        assert code != cli.EXIT_ERROR, name
    assert calls == []


def _walk_pool(rng, d=6):
    """18 vectors in R^d in three segments (0..6, 7..12, 13..17), rich in
    linearly dependent prefixes: a pair a hair below the EPS_RANK
    boundary and one a hair above it, exact +- pairs within and across
    segments, and aux_sum-style triples (v_i, v_j, v_i + v_j)."""
    u, w, v, z = np.linalg.qr(rng.standard_normal((d, 4)))[0].T
    b = rng.integers(-2, 3, size=(6, d)).astype(float)
    # sigma_min / sigma_max of [u, u + eps w] is eps / 2, to first order
    return np.array([u, u + 1.5e-9 * w, v, v + 2.5e-9 * z, b[0], b[1], b[2],
                     b[1] + b[2], -b[0], b[3], -b[3], b[4], b[3] + b[4],
                     -b[1], b[5], -b[5], b[0] + b[5], b[2] + b[4]])


_WALK_GROUPS = ([(("one", p), ((0, 18, p),)) for p in (4, 6)]
                + [(("three", c), ((0, 7, c[0]), (7, 13, c[1]),
                                   (13, 18, c[2])))
                   for c in ((3, 2, 1), (2, 2, 2), (1, 3, 1), (2, 0, 2))])


def _walk_reference(columns, groups, chunk):
    """(key, subset, kept) for every subset of the groups, in order.  The
    subsets come from itertools.combinations, segment by segment; one is
    kept unless a proper prefix that heads at least ``chunk`` of them has
    less than full column rank by the scalar rank test."""
    ranks = {}
    for key, segments in groups:
        subsets = [sum(parts, ()) for parts in product(
            *(combinations(range(a, b), c) for a, b, c in segments))]
        heads = Counter(s[:k] for s in subsets for k in range(1, len(s)))
        for s in subsets:
            kept = True
            for k in range(1, len(s)):
                if heads[s[:k]] >= chunk:
                    if s[:k] not in ranks:
                        ranks[s[:k]] = lk.rank(columns[list(s[:k])].T)
                    kept = kept and ranks[s[:k]] == k
            yield key, s, kept


def _walked(columns, groups, budget):
    """The (key, subset) pairs the walk hands out, in order, and the
    subsets_tried of the budget overrun that ends it (None without one)."""
    out = []
    try:
        for key, block in fo._prefix_walk(columns, groups, budget):
            assert 0 < len(block) <= fo.SCREEN_CHUNK
            out += [(key, tuple(map(int, row))) for row in block]
    except fo.CombinatorialBudgetExceeded as err:
        return out, err.subsets_tried
    return out, None


@pytest.mark.parametrize("chunk", [SCREEN_CHUNK, 8])
@pytest.mark.parametrize("seed", [0, 1])
def test_prefix_walk_matches_brute_force(monkeypatch, chunk, seed):
    """The walk hands out the subsets that survive a per-prefix rank filter
    over the itertools enumeration, in order, and counts every dropped
    subset against the budget: budgets of 0, inside a dropped subtree,
    at a chunk's edge and at the full count give the same handed-out
    subsets and subsets_tried as the reference.  A chunk of 8 puts the
    prefix checks at every depth and in every segment."""
    monkeypatch.setattr(fo, "SCREEN_CHUNK", chunk)
    columns = _walk_pool(np.random.default_rng(seed))
    assert lk.rank(columns[[0, 1]].T) == 1 and lk.rank(columns[[2, 3]].T) == 2
    ref = list(_walk_reference(columns, _WALK_GROUPS, chunk))
    kept = [(pos, (key, s)) for pos, (key, s, k) in enumerate(ref, 1) if k]
    total = len(ref)
    dropped = {pos for pos, (*_, k) in enumerate(ref, 1) if not k}
    assert 0 < len(dropped) < total / 2
    # inside a dropped run, with kept subsets before it
    inside = min(pos for pos in dropped
                 if pos > kept[0][0] and pos + 1 in dropped
                 and pos - 1 in dropped)
    # the last subset of the first full chunk of the first group
    edge = kept[chunk - 1][0]
    assert all(key == ref[0][0] for _, (key, _) in kept[:chunk])
    for budget in (0, inside, edge - 1, edge, edge + 1, total - 1, total):
        got, tried = _walked(columns, _WALK_GROUPS, budget)
        assert got == [sub for pos, sub in kept if pos <= budget], budget
        assert tried == (budget + 1 if budget < total else None), budget


def test_prefix_walk_leaves_small_groups_unchecked(monkeypatch):
    """A group of fewer than SCREEN_CHUNK subsets is handed out whole,
    with no rank call, dependent prefixes and all."""
    calls = []
    monkeypatch.setattr(fo, "stacked_rank",
                        lambda stack: calls.append(stack) or lk.stacked_rank(
                            stack))
    columns = _walk_pool(np.random.default_rng(0))
    groups = [("small", ((0, 7, 2), (7, 13, 1), (13, 18, 1)))]
    got, tried = _walked(columns, groups, fo.DEFAULT_BUDGET)
    assert tried is None and not calls
    assert [s for _, s in got] == [s for _, s, _ in _walk_reference(
        columns, groups, SCREEN_CHUNK)]


def test_hull_point_has_no_negative_zero(tmp_path):
    """The relaxed pools' hull point -mean(S) is -0.0 where the mean of
    the independent gradients S is zero, and a report prints it as 0.0.
    Here S is (1, 1, 0), (-1, 1, 0), (0, 0, 1), and the hull point is the
    last vector of the complete generalised alternance."""
    path = tmp_path / "turned.prob"
    path.write_text('[problem] dim=3\n'
                    '[scenario] f="x(1) + x(2)"\n[scenario] f="-x(1) - x(2)"\n'
                    '[scenario] f="-x(1) + x(2)"\n[scenario] f="x(1) - x(2)"\n'
                    '[scenario] f="x(3)"\n[scenario] f="-x(3)"\n')
    ctx = PointContext(load_problem_file(str(path)), np.zeros(3))
    cadre, _ = fo.cadre_search(ctx.generators, "generalised", complete=True)
    assert cadre.provenance[-1].kind == "aux_hull"
    assert math.copysign(1.0, cadre.vectors[-1][0]) == -1.0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", "--file", str(path), "--at", "0,0,0",
                         "--flavor", "generalised", "--json"])
    printed = json.loads(out.getvalue())["flavor_search"]["complete"]
    assert code == 0 and printed["provenance"][-1]["kind"] == "aux_hull"
    assert printed["vectors"][-1] == [0.0, -2 / 3, -1 / 3]
    assert math.copysign(1.0, printed["vectors"][-1][0]) == 1.0


def test_find_cadre_applies_the_prefix_test(monkeypatch):
    """A verified cadre is returned only when its first k vectors have
    rank k for every k < p; one that fails sends the search on, so the
    first cadre does not depend on which prefixes the walk checked."""
    e1, e2, e3 = np.eye(3)
    assert fo._independent_prefixes([e1, e2, e3, -(e1 + e2 + e3)])
    assert not fo._independent_prefixes([e1, 2 * e1, -e1])
    P, x, sampling = registry.get("linf", 3)
    G = PointContext(P, x, sampling).generators
    first = fo.find_cadre(G, "plain")
    assert np.array_equal(first.vectors, [e1, -e1])
    test = fo._independent_prefixes
    monkeypatch.setattr(fo, "_independent_prefixes", lambda vecs: (
        test(vecs) and not np.array_equal(vecs[0], e1)))
    later = fo.find_cadre(G, "plain")
    assert np.array_equal(later.vectors, [e2, -e2])


def test_find_cadre_needs_objective_vector():
    # zero-sum combination of eta vectors alone is not a cadre
    G = _gen_set(2, [(1.0, 1.0)], cone_eta=[(1, 0), (-1, 0)])
    cadre = fo.find_cadre(G, "plain")
    assert cadre is None


def test_cadre_membership_oracle_agreement(rng):
    """The enumerated cadre and the one read off the membership basis
    exist exactly on members, as the oracle finds them; every basis
    cadre passes ``verify_alternance`` with its determinants and
    ``reverify_report``."""
    from conecert.linkernel import lp_chebyshev_center
    agree = 0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        hull, cone = random_generator_family(rng, d, int(rng.integers(1, 7)))
        k = len(cone) // 2
        G = _gen_set(d, hull, cone[:k], cone[k:])
        member = lp_membership(np.zeros(d), hull, cone) is not None
        cadre = fo.find_cadre(G, "plain")
        basis, out = fo.cadre_search(G)
        oracle = hull_membership_bruteforce(np.zeros(d), hull, cone)
        assert (cadre is not None) == (basis is not None) == member == oracle
        assert not out
        if cadre is not None:
            np.testing.assert_allclose(
                np.column_stack(cadre.vectors) @ cadre.multipliers, 0.0,
                atol=1e-8)
            again = fo.verify_alternance(basis.vectors, basis.k0, basis.i0)
            np.testing.assert_allclose(again.determinants,
                                       basis.determinants)
            report = {"candidate": [0.0] * d, "tolerances": TOLERANCES,
                      "necessary": {"cadre": basis.to_json()}}
            assert fo.reverify_report(None, report)["ok"]
        margin = lp_chebyshev_center(G.tableau)
        if margin is not None:
            # a finite margin in every probe direction implies membership
            assert member
        if cadre is not None and cadre.complete:
            # complete alternance certifies the interior condition
            assert margin is not None and margin > 1e-9
        agree += 1
    assert agree == 200


def test_basis_cadre_drops_a_rounding_size_weight():
    """The simplex leaves the first of these gradients basic at a weight
    of about 3e-16.  Taken for support it would break the circuit; it
    counts as 0, and the cadre is the other three."""
    G = _gen_set(3, [(-1, -2, 1), (1, 0, -2), (2, 2, -1), (-2, -1, 0),
                     (2, -1, 2)])
    assert 0 < G.membership.x[0] < 1e-15
    cadre, _ = fo.cadre_search(G)
    assert [pr.index for pr in cadre.provenance] == [3, 4, 5]


INEQ3 = ('[problem] dim=3\n[scenario] f="x(1) + x(2)^2 - x(3)^2"\n'
         '[scenario] f="-x(2) + x(3)^2"\n'
         '[nlp_ineq] g="-x(1) + x(2) - x(3)^2" '
         'g="-x(1) - x(3)^2 + x(2)^2"\n')


def test_basis_cadre_is_a_minimal_positive_circuit():
    """At 0, ineq3's basis cadre is {scenario 1, scenario 2, nlp_ineq 0},
    where the enumeration finds a p = 2 cadre first.  No proper subset of
    its vectors has a positive combination."""
    ctx = PointContext(load_problem_text(INEQ3), (0.0, 0.0, 0.0))
    cadre = fo.necessary_check(ctx).cadre
    assert [(pr.kind, pr.index) for pr in cadre.provenance] == [
        ("scenario", 1), ("scenario", 2), ("nlp_ineq", 0)]
    assert (cadre.p, cadre.k0, cadre.i0) == (3, 2, 3)
    np.testing.assert_allclose(cadre.determinants, [-1, 1, -1, 0],
                               atol=1e-12)
    assert fo.find_cadre(ctx.generators).p == 2
    for r in range(1, cadre.p):
        for sub in combinations(cadre.vectors, r):
            assert solve_positive_combination(sub) is None


def test_basis_cadres_pass_the_prefix_test():
    """The basis cadre runs no prefix test: its vectors form a positive
    circuit, so every p - 1 of them are independent, and the alternance
    test re-checks it.  Every basis cadre of each registry problem, of
    linf d = 2..11 and of each positive set of ``_alternance_sets`` taken
    as gradients passes the test all the same (the simplex family's is
    checked in test_simplex_family_keeps_its_complete_cadre_at_any_scale)."""
    problems = [registry.get(name) for name in registry.NAMES
                if name != "linf"]
    problems += [registry.get("linf", d) for d in range(2, 12)]
    cadres = [fo.necessary_check(PointContext(*entry)).cadre
              for entry in problems]
    cadres += [fo.cadre_search(_gen_set(len(vecs[0]), vecs))[0]
               for kind, vecs in _alternance_sets(np.random.default_rng(34))
               if kind == "positive"]
    cadres = [cadre for cadre in cadres if cadre is not None]
    assert len(cadres) > 80
    assert Counter(cadre.p for cadre in cadres)[2] < len(cadres) / 2
    for cadre in cadres:
        assert fo._independent_prefixes(cadre.vectors)


def test_a_wrong_null_vector_is_refused(monkeypatch):
    """With the alternance test's solve returning z_2, z_3, ... off by a
    factor 1 + 1e-6, which keeps every sign, the multipliers miss the
    residual test: verify_alternance, the basis cadre of necessary_check,
    find_cadre and ``verify-alternance --json`` refuse the dem cadre as
    ResidualTooLarge."""
    solve = fo._null_vector
    monkeypatch.setattr(fo, "_null_vector", lambda v1, T: [
        zs * (1 + 1e-6) if s else zs for s, zs in enumerate(solve(v1, T))])
    res = fo.verify_alternance([(5, 1), (-5, 1), (0, -2)])
    assert (res.reason, res.index) == ("ResidualTooLarge", None)
    ctx = PointContext(*registry.get("dem"))
    rep = fo.necessary_check(ctx)
    assert rep.zero_in_D and rep.cadre is None
    assert fo.find_cadre(ctx.generators) is None
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify-alternance", "--vectors", "5,1;-5,1;0,-2",
                         "--json"])
    assert code == cli.EXIT_REFUTED
    assert json.loads(out.getvalue())["reason"] == "ResidualTooLarge"


@pytest.mark.filterwarnings("error")
def test_reverify_refuses_tampered_multipliers_at_any_scale():
    """The re-check decides the residual on the vectors divided by a power
    of two.  Multipliers changed to [1, 5, 1] are refused at 1e160 and
    1e300, where every norm overflows unscaled, as at 1 and 1e150, with
    no warning; the reported ones pass; ok is a Python bool."""
    for one in (1.0, 1e150, 1e160, 1e300):
        cadre = fo.verify_alternance([(one, 0), (-one, one), (0, -one)])
        report = {"candidate": [0.0, 0.0], "tolerances": TOLERANCES,
                  "necessary": {"cadre": cadre.to_json()}}
        res = fo.reverify_report(None, report)
        assert res["ok"] is True and res["checks"][0]["ok"] is True
        report["necessary"]["cadre"]["multipliers"] = [1.0, 5.0, 1.0]
        res = fo.reverify_report(None, report)
        assert res["ok"] is False and res["checks"][0]["ok"] is False
        # 1 (1, 0) + 5 (-1, 1) + 1 (0, -1) = (-4, 4), times the scale
        assert res["checks"][0]["residual"] == pytest.approx(
            math.sqrt(32) * one, rel=1e-15)


def test_necessary_sdp_1024_reads_its_cadre_off_the_basis():
    """With 1,024 sampled matrix directions the subset enumeration spent
    its budget and reported no cadre; the membership basis gives it."""
    from dataclasses import replace
    P, x, samp = registry.get("sdp-example")
    rep = fo.necessary_check(PointContext(P, x, replace(samp, sdp_dirs=1024)))
    assert rep.zero_in_D and rep.agreement
    assert rep.cadre.p == 4
    np.testing.assert_allclose(rep.cadre.determinants, [-12, 15, -24, 6],
                               atol=1e-9)


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
    gens = cc.ScenarioJets(P, (0.0, 0.0)).gradients(act)
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


def test_sufficient_linf_without_plain_complete():
    P, x, samp = registry.get("linf", dim=2)
    rep = fo.sufficient_check(PointContext(P, x, samp))
    assert rep.zero_in_int_D and rep.radius > 0
    G = build_generator_set(ScenarioJets(P, x), activity(P, x), samp)
    assert fo.find_cadre(G, "plain", p_min=3) is None


def test_linf_margin_is_its_exact_inradius():
    """At 0, linf's subdifferential is the unit l1 ball co{+-e_i}: each
    signed axis reaches 1, so the margin is 1, and the Euclidean ball of
    radius 1/sqrt(d) is the largest inside it."""
    for d in range(2, 11):
        P, x, samp = registry.get("linf", dim=d)
        rep = fo.sufficient_check(PointContext(P, x, samp))
        assert rep.zero_in_int_D
        assert rep.margin == pytest.approx(1.0, abs=1e-12)
        assert rep.radius == pytest.approx(1.0 / math.sqrt(d), abs=1e-12)


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
        complete, _ = fo.cadre_search(ctx.generators, "generalised",
                                      complete=True)
        if suf.zero_in_int_D:
            assert nec.zero_in_D
        if complete is not None:
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
    c_min = fo.penalty_subdiff_check(ctx, 0.0).c_min
    assert c_min == pytest.approx(152.0, abs=1e-6)
    grid = [0.0, 0.5 * c_min, c_min, 2.0 * c_min]
    reports = [fo.penalty_subdiff_check(ctx, c) for c in grid]
    assert [rep.zero_in_subdiff for rep in reports] == [False, False, True,
                                                        True]
    assert all(rep.c_min == c_min for rep in reports)


def test_penalty_zero_c_single_gradient():
    P, x, samp = registry.get("bazaraa45")
    rep = fo.penalty_subdiff_check(PointContext(P, x, samp), 0.0)
    assert not rep.zero_in_subdiff


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


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


def _penalty_verdicts(constraints, objective, cs):
    P = load_problem_text(f'[problem] dim=2\n[scenario] f="{objective}"\n'
                          + constraints)
    ctx = PointContext(P, (0.0, 0.0))
    return [fo.penalty_subdiff_check(ctx, c).zero_in_subdiff for c in cs]


def test_penalty_caps_follow_the_block_norm():
    """The penalty term is c times the block norm of the violation, so the
    normal-cone weights of its subdifferential are capped per group: one
    cap for a semi-infinite block (a max over the grid), one per scalar
    constraint of a separable block (l1).  At the origin, -x(1) is
    stationary under x(1) + x(2)*t <= 0 on the grid {-1, 1} from c = 1
    with one group, and from c = 1/2 as two inequalities."""
    semi = '[semiinf] g="x(1) + x(2)*t" grid=-1:1:2\n'
    assert _penalty_verdicts(semi, "-x(1)", (0.75, 1.05)) == [False, True]
    ineq = '[nlp_ineq] g="x(1) - x(2)" g="x(1) + x(2)"\n'
    assert _penalty_verdicts(ineq, "-x(1)", (0.45, 0.75)) == [False, True]
    # both signs of an equality's gradient share its one cap
    eq = '[nlp_eq] b="x(1) - x(2)^2"\n'
    assert _penalty_verdicts(eq, "x(1) + x(2)^2", (0.9, 1.1)) == [False, True]


def test_reverify_roundtrip_bazaraa():
    import json
    P, x, samp = registry.get("bazaraa45")
    ctx = PointContext(P, x, samp)
    nec = fo.necessary_check(ctx)
    suf = fo.sufficient_check(ctx)
    report = {"candidate": list(x), "tolerances": TOLERANCES,
              "necessary": nec.to_json(), "sufficient": suf.to_json()}
    report = json.loads(json.dumps(report))
    res = fo.reverify_report(P, report)
    assert res["ok"] and len(res["checks"]) >= 2



_DISK = ('[problem] dim=2\n[scenario] f="x(1)"\n'
         '[soc] g1="1" g2="x(1)" g3="x(2)"\n')
# at (0, 0) its witness weighs the grid point t = 0
_GRID = ('[problem] dim=2\n[scenario] f="x(1) + x(2)"\n'
         '[scenario] f="x(1)^2 - x(2)"\n'
         '[semiinf] g="t*x(1) + (1-t)*x(2) - t^2" grid=-1:1:9\n')


def _stored_report(problem, x):
    """The necessary record of a check at x, through JSON text."""
    nec = fo.necessary_check(PointContext(problem, x, SamplingSpec()))
    return json.loads(json.dumps({"candidate": list(x),
                                  "tolerances": TOLERANCES,
                                  "necessary": nec.to_json()}))


def _tampered(name, edit):
    """A stored report of registry problem ``name`` (or of the unit disk
    at (-1, 0), or of ``_GRID`` at 0) with ``edit`` applied to its
    multipliers and cadre."""
    if name == "disk":
        problem, x = load_problem_text(_DISK), (-1.0, 0.0)
    elif name == "grid":
        problem, x = load_problem_text(_GRID), (0.0, 0.0)
    else:
        problem, x, _ = registry.get(name)
    report = _stored_report(problem, x)
    assert fo.reverify_report(problem, report)["ok"] is True
    nec = report["necessary"]
    edit(nec["multipliers"], nec["cadre"], report)
    return problem, report


def _rekey(table, old, new):
    table[new] = table.pop(old)


def _negated(m):
    """Every weight of the stored witness m with its sign flipped."""
    for rec in m["alpha"] + m["nA"]:
        rec["weight"] = -rec["weight"]
    for table in m["nlp_ineq"].values():
        table.update((i, -w) for i, w in table.items())


_TAMPERINGS = [
    # a scenario is numbered from 1; -1 wrapped to scenario 2 before
    ("madsen", lambda m, c, r: m["alpha"][0].update(scenario=-1),
     "necessary.multipliers", "scenario -1 is not one of 1..3"),
    ("madsen", lambda m, c, r: m["alpha"][0].update(scenario=4),
     "necessary.multipliers", "scenario 4 is not one of 1..3"),
    ("madsen", lambda m, c, r: m["alpha"][0].update(scenario="2"),
     "necessary.multipliers", "scenario '2' is not one of 1..3"),
    ("madsen", lambda m, c, r: m["alpha"][0].update(sign=2),
     "necessary.multipliers", "sign 2 is not 1 or -1"),
    ("madsen", lambda m, c, r: m["alpha"][0].update(weight="1"),
     "necessary.multipliers", "alpha weight '1' is not a finite number"),
    ("madsen", lambda m, c, r: m["nA"][0]["prov"].update(index=2),
     "necessary.multipliers", "bound index 2 is not one of 0..1"),
    ("madsen", lambda m, c, r: m["nA"][0]["prov"].update(kind="soc_apex"),
     "necessary.multipliers", "nA kind 'soc_apex' is not bound or set_eq"),
    ("madsen", lambda m, c, r: m.pop("alpha"),
     "necessary.multipliers", "no field 'alpha'"),
    ("madsen", lambda m, c, r: r.update(candidate=[0.0]),
     "necessary.multipliers",
     "candidate is not an array of numbers of shape (2,)"),
    # a candidate outside the box has no normal cone there
    ("madsen", lambda m, c, r: r.update(candidate=[0.0, 0.5]),
     "necessary.multipliers", "x(2) below its lower bound"),
    ("madsen", lambda m, c, r: c.update(k0=9),
     "necessary.cadre", "need 1 <= k0 <= i0 <= p"),
    ("madsen", lambda m, c, r: c.update(i0="2"),
     "necessary.cadre", "cadre i0 '2' is not an integer"),
    # a constraint key is an index in a key, of one of the block's
    # constraints; "-1" wrapped and "2" raised IndexError before
    ("bazaraa45", lambda m, c, r: _rekey(m["nlp_ineq"]["0"], "1", "-1"),
     "necessary.multipliers", "nlp_ineq constraint '-1' is not one of 0..1"),
    ("bazaraa45", lambda m, c, r: _rekey(m["nlp_ineq"]["0"], "1", "2"),
     "necessary.multipliers", "nlp_ineq constraint '2' is not one of 0..1"),
    ("bazaraa45", lambda m, c, r: _rekey(m["nlp_ineq"], "0", "1"),
     "necessary.multipliers", "block '1' is not one of 0..0"),
    ("bazaraa45", lambda m, c, r: m.update(soc=m.pop("nlp_ineq")),
     "necessary.multipliers", "no field 'nlp_ineq'"),
    ("disk", lambda m, c, r: m["soc"]["0"].pop(),
     "necessary.multipliers",
     "soc dual is not an array of numbers of shape (3,)"),
    ("sdp-example", lambda m, c, r: m["sdp"]["0"].pop(),
     "necessary.multipliers",
     "sdp dual is not an array of numbers of shape (3, 3)"),
    ("sdp-example", lambda m, c, r: m["sdp"]["0"][0].pop(),
     "necessary.multipliers",
     "sdp dual is not an array of numbers of shape (3, 3)"),
    # weights that mean no multiplier: a negative weight on a cone's
    # generator, scenario weights that are not convex, and the empty and
    # negated witnesses, which re-checked ok before (a zero residual)
    ("madsen", lambda m, c, r: m["alpha"][0].update(weight=-1.0),
     "necessary.multipliers", "alpha weight -1.0 is negative"),
    ("madsen", lambda m, c, r: m["alpha"][0].update(weight=0.5),
     "necessary.multipliers", "alpha weights sum to 0.5, not 1"),
    ("bazaraa45", lambda m, c, r: m["nlp_ineq"]["0"].update({"1": -1.0}),
     "necessary.multipliers", "nlp_ineq weight -1.0 is negative"),
    ("grid", lambda m, c, r: m["semi_infinite"]["0"].update({"4": -1.0}),
     "necessary.multipliers", "semi_infinite weight -1.0 is negative"),
    ("madsen", lambda m, c, r: m["nA"][0].update(weight=-1.0),
     "necessary.multipliers", "nA weight -1.0 is negative"),
    ("bazaraa45", lambda m, c, r: m.update(alpha=[], nlp_ineq={}),
     "necessary.multipliers", "alpha weights sum to 0.0, not 1"),
    ("bazaraa45", lambda m, c, r: _negated(m),
     "necessary.multipliers", "nlp_ineq weight -152.0 is negative"),
]


@pytest.mark.parametrize("name, edit, what, reason", _TAMPERINGS)
def test_reverify_refuses_each_malformed_field(name, edit, what, reason):
    """A stored witness is read against the problem: an index outside
    it, a sign, weight or dual of the wrong type or shape and a missing
    field each fail their check, with the reason, and the re-check never
    raises.  Before, some of these re-checked ok and the others raised
    IndexError, TypeError or KeyError."""
    problem, report = _tampered(name, edit)
    res = fo.reverify_report(problem, report)
    assert res["ok"] is False
    failed = [c for c in res["checks"] if not c["ok"]]
    assert failed == [{"what": what, "ok": False, "reason": reason}]


# at 0, F = 0 and scenario 2 (x(1) - 1 = -1) is not active, though its
# gradient is scenario 1's
_THREE = ('[problem] dim=1\n[scenario] f="x(1)"\n[scenario] f="x(1) - 1"\n'
          '[scenario] f="-x(1)"\n')


def _moved_alpha(m):
    for rec in m["alpha"]:
        if rec["scenario"] == 1:
            rec["scenario"] = 2


def _inactive_bound(m):
    """Weight 1 on the inactive upper bound, and 1 more on the active lower
    one: the same residual, 0."""
    m["nA"][0]["weight"] += 1.0
    m["nA"].append({"prov": {"kind": "bound", "sign": 1, "index": 0},
                    "weight": 1.0})


@pytest.mark.parametrize("text, edit, reason", [
    (_THREE, _moved_alpha,
     "alpha weight on scenario 2, sign 1, which is not active at the "
     "candidate"),
    # -x(1) - 1 <= 0 has the gradient of the active -x(1) <= 0
    ('[problem] dim=1\n[scenario] f="x(1)"\n'
     '[nlp_ineq] g="-x(1)" g="-x(1) - 1"\n',
     lambda m: _rekey(m["nlp_ineq"]["0"], "0", "1"),
     "nlp_ineq weight on constraint 1 of block 0, which is not active at "
     "the candidate"),
    ('[problem] dim=1\n[scenario] f="x(1)"\n[set] lb="0" ub="5"\n',
     _inactive_bound,
     "nA weight on bound 0, sign 1, which is not active at the candidate"),
], ids=["scenario", "nlp_ineq", "bound"])
def test_reverify_refuses_a_weight_on_what_is_not_active(text, edit, reason):
    """A multiplier weight moved onto a scenario, an inequality or a bound
    that is not active at the candidate leaves the stationarity residual
    at 0, and re-checked ok before; it fails by the check's own activity
    rules."""
    problem = load_problem_text(text)
    report = _stored_report(problem, (0.0,))
    assert fo.reverify_report(problem, report)["ok"] is True
    edit(report["necessary"]["multipliers"])
    assert fo._witness_residual(
        ScenarioJets(problem, np.zeros(1)), fo.witness_from_json(
            problem, report["necessary"]["multipliers"])) == 0.0
    res = fo.reverify_report(problem, report)
    assert [c for c in res["checks"] if not c["ok"]] == [
        {"what": "necessary.multipliers", "ok": False, "reason": reason}]
    # loosening the stated tolerances with the weight does not get it past
    report["tolerances"] = {**TOLERANCES, "eps_active": 1.0,
                            "eps_feas": 10.0, "eps_det": 1e-300}
    res = fo.reverify_report(problem, report)
    assert [c for c in res["checks"] if not c["ok"]] == [
        {"what": "necessary.cadre", "ok": False,
         "reason": "the report states eps_det 1e-300, which the "
                   "re-check's 1e-08 does not allow"},
        {"what": "necessary.multipliers", "ok": False,
         "reason": "the report states eps_active 1.0, which the "
                   "re-check's 1e-08 does not allow"}]


def test_reverify_holds_a_report_to_its_tolerances(tmp_path):
    """A check at --eps-active 1e-5 puts weight on a scenario 1e-6 below
    the maximum.  The re-check reads activity under the report's own
    tolerances where the problem's allow them: it passes against the
    problem at eps_active 1e-5 or looser, and against the defaults it
    fails, with a reason that names both tolerances.  A report that
    states a tighter tolerance is held to it.  A missing, malformed or
    out-of-range tolerance fails the checks that read it, with its
    reason, and nothing raises."""
    path = tmp_path / "near.prob"
    path.write_text('[problem] dim=1\n[scenario] f="x(1) - 1e-6"\n'
                    '[scenario] f="-x(1)"\n', encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", "--file", str(path), "--at", "0",
                         "--eps-active", "1e-5", "--json"])
    report = json.loads(out.getvalue())
    assert code == cli.EXIT_OK
    assert report["tolerances"] == {**TOLERANCES, "eps_active": 1e-5}
    defaults = load_problem_file(str(path))
    res = fo.reverify_report(defaults, report)
    assert [c for c in res["checks"] if not c["ok"]] == [
        {"what": "necessary.multipliers", "ok": False,
         "reason": "the report states eps_active 1e-05, which the "
                   "re-check's 1e-08 does not allow"}]
    for eps_active in (1e-5, 1e-4):
        res = fo.reverify_report(defaults.with_tolerances(
            ToleranceSet(eps_active=eps_active)), report)
        assert res["ok"] is True
        assert [c["what"] for c in res["checks"]] == [
            "necessary.cadre", "necessary.multipliers", "exit_code"]
    problem = defaults.with_tolerances(ToleranceSet(eps_active=1e-5))
    # stated tighter, scenario 1 is not active at 0
    res = fo.reverify_report(problem, {**report, "tolerances": TOLERANCES})
    assert [c for c in res["checks"] if not c["ok"]] == [
        {"what": "necessary.multipliers", "ok": False,
         "reason": "alpha weight on scenario 1, sign 1, which is not active "
                   "at the candidate"}]
    for tolerances, reason in (
            (None, "no field 'tolerances'"),
            ({k: v for k, v in TOLERANCES.items() if k != "eps_det"},
             "no field 'eps_det'"),
            ([1e-5], "tolerances [1e-05] is not a table"),
            ({**TOLERANCES, "eps_active": "1e-5"},
             "eps_active '1e-5' is not a finite number"),
            ({**TOLERANCES, "eps_active": True},
             "eps_active True is not a finite number"),
            ({**TOLERANCES, "eps_det": math.nan},
             "eps_det nan is not a finite number"),
            ({**TOLERANCES, "eps_feas": 0},
             "eps_feas must be a finite number > 0, got 0.0")):
        tampered = {k: v for k, v in report.items() if k != "tolerances"}
        if tolerances is not None:
            tampered["tolerances"] = tolerances
        res = fo.reverify_report(problem, tampered)
        assert res["ok"] is False
        assert [c for c in res["checks"] if not c["ok"]] == [
            {"what": what, "ok": False, "reason": reason}
            for what in ("necessary.cadre", "necessary.multipliers")]


def test_reverify_recomputes_the_exit_code(tmp_path):
    """A stored report's exit code and ``because`` must be those the
    exit-code rule gives its records: edited, either fails the
    ``exit_code`` check, whose reason names both."""
    path = tmp_path / "three.prob"
    path.write_text(_THREE, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", "--file", str(path), "--at", "0",
                         "--json"])
    report = json.loads(out.getvalue())
    problem = load_problem_file(str(path))
    assert code == cli.EXIT_OK
    res = fo.reverify_report(problem, report)
    assert res["ok"] is True and res["checks"][-1] == {"what": "exit_code",
                                                       "ok": True}
    for key, value, reason in (
            ("exit_code", 2, "exit_code 2 because [], but its records give "
                             "exit 0 because []"),
            ("because", ["infeasible"], "exit_code 0 because ['infeasible'],"
                                        " but its records give exit 0 "
                                        "because []")):
        res = fo.reverify_report(problem, {**report, key: value})
        assert [c for c in res["checks"] if not c["ok"]] == [
            {"what": "exit_code", "ok": False, "reason": reason}]


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
