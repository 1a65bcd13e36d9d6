import math

import numpy as np
import pytest

import conecert as cc
from conecert import geometry as geo
from conecert import registry
from conecert.cones import spectral_split
from conecert.problem import (PolyhedralSet, _sdp_matrix, activity,
                              load_problem_text)

SQ2 = math.sqrt(2.0)


def test_project_soc_interior_fixed():
    y = np.array([2.0, 1.0, 0.0])
    np.testing.assert_array_equal(geo.project_soc(y), y)


def test_project_soc_polar():
    y = np.array([-3.0, 1.0, 1.0])
    np.testing.assert_array_equal(geo.project_soc(y), np.zeros(3))


def test_project_soc_halfway():
    np.testing.assert_allclose(geo.project_soc([0.0, 2.0]), [1.0, 1.0])


def test_project_soc_halfway_bruteforce():
    # independent check: minimize |y - z| over the cone by a fine sweep
    y = np.array([0.0, 2.0])
    best, best_z = None, None
    for z0 in np.linspace(0, 3, 301):
        for z1 in np.linspace(-z0, z0, 201) if z0 > 0 else [0.0]:
            z = np.array([z0, z1])
            val = np.linalg.norm(y - z)
            if best is None or val < best:
                best, best_z = val, z
    np.testing.assert_allclose(geo.project_soc(y), best_z, atol=2e-2)


def test_project_soc_idempotent_nonexpansive(rng):
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        y = rng.uniform(-3, 3, size=dim)
        z = rng.uniform(-3, 3, size=dim)
        Py, Pz = geo.project_soc(y), geo.project_soc(z)
        assert np.linalg.norm(geo.project_soc(Py) - Py) <= 1e-12
        assert np.linalg.norm(Py - Pz) <= np.linalg.norm(y - z) + 1e-12


def test_project_psd_neg_fixed_point():
    M = np.diag([0.0, -1.0, 0.0])
    np.testing.assert_allclose(geo.project_psd_neg(M), M, atol=1e-12)


def test_project_psd_neg_clamp():
    np.testing.assert_allclose(geo.project_psd_neg(np.diag([2.0, -3.0])),
                               np.diag([0.0, -3.0]), atol=1e-12)


def test_project_psd_neg_distance_identity(rng):
    for _ in range(100):
        n = int(rng.integers(2, 5))
        B = rng.standard_normal((n, n))
        M = 0.5 * (B + B.T)
        P = geo.project_psd_neg(M)
        sigma = np.linalg.eigvalsh(M)
        expected = math.sqrt(float(np.sum(np.maximum(sigma, 0.0) ** 2)))
        assert np.linalg.norm(M - P, "fro") == pytest.approx(expected,
                                                             abs=1e-10)
        assert np.linalg.eigvalsh(P)[-1] <= 1e-10


def test_project_psd_neg_variational(rng):
    for _ in range(100):
        n = int(rng.integers(2, 4))
        B = rng.standard_normal((n, n))
        M = 0.5 * (B + B.T)
        P = geo.project_psd_neg(M)
        C = rng.standard_normal((n, n))
        Z = -C @ C.T  # arbitrary negative semidefinite
        assert float(np.trace((M - P) @ (Z - P))) <= 1e-8


def test_eta_soc_example_rows():
    P, x, samp = registry.get("soc-example")
    G = geo.build_generator_set(P, x, activity(P, x), samp)
    vecs, prov = G.eta, G.eta_prov
    assert G.sampled
    boundary_rows = [v for v, p in zip(vecs, prov) if p.kind == "soc_boundary"]
    np.testing.assert_allclose(boundary_rows[0], [0.0, 1.0], atol=1e-12)
    apex = {tuple(np.round(v, 9)) for v, p in zip(vecs, prov)
            if p.kind == "soc_apex"}
    assert tuple(np.round([-1 / SQ2, -3 / SQ2], 9)) in apex


def test_eta_sdp_example_rows():
    P, x, samp = registry.get("sdp-example")
    G = geo.build_generator_set(P, x, activity(P, x), samp)
    vecs, prov = G.eta, G.eta_prov
    rows = [tuple(np.round(v, 9)) for v, p in zip(vecs, prov)
            if p.kind == "sdp_null"]
    assert rows[0] == (1.0, 2.0, 0.0)
    assert rows[1] == (2.0, -2.0, -1.0)


def test_eta_empty_when_inactive():
    P = load_problem_text(
        '[problem] dim=2\n[scenario] f="x(1)"\n'
        '[nlp_ineq] g="x(1) - 5"\n')
    G = geo.build_generator_set(P, (0.0, 0.0), activity(P, (0.0, 0.0)),
                                geo.SamplingSpec())
    assert G.eta == [] and not G.sampled


def test_nA_generators_box_corner():
    A = PolyhedralSet(lb=(0.0, 1.0), ub=(math.inf, math.inf))
    vecs, prov = geo.nA_generators(A, (0.0, 1.0))
    got = {tuple(v) for v in vecs}
    assert got == {(-1.0, 0.0), (0.0, -1.0)}


def test_nA_generators_interior_empty():
    A = PolyhedralSet(lb=(0.0, 1.0), ub=(math.inf, math.inf))
    vecs, _ = geo.nA_generators(A, (0.5, 2.0))
    assert vecs == []


def test_nA_generators_equality_and_bound():
    A = PolyhedralSet(lb=(-math.inf, -math.inf, 0.0),
                      ub=(math.inf,) * 3,
                      E=((1.0, 0.0, 0.0),), e=(0.0,))
    vecs, _ = geo.nA_generators(A, (0.0, 0.0, 0.0))
    got = {tuple(v) for v in vecs}
    assert got == {(1.0, 0.0, 0.0), (-1.0, -0.0, -0.0), (0.0, 0.0, -1.0)}


def test_nA_generators_outside_raises():
    A = PolyhedralSet(lb=(0.0,), ub=(math.inf,))
    with pytest.raises(geo.PointNotInSet):
        geo.nA_generators(A, (-1.0,))


def _tangent(P, x, H, sampling=None):
    """Whether each row of H is linearized feasible at x."""
    return geo.PointContext(P, x, sampling).tester.accepted(
        np.array(H, dtype=float)).tolist()


def test_tangent_membership_no_active_constraints():
    P = load_problem_text(
        '[problem] dim=2\n[scenario] f="x(1)"\n'
        '[nlp_ineq] g="x(1) - 5"\n')
    assert _tangent(P, (0.0, 0.0), [(1.0, 1.0)]) == [True]


def test_tangent_membership_madsen_direction():
    P, x, _ = registry.get("madsen")
    assert _tangent(P, x, [(0.0, 1.0), (-1.0, 0.0)]) == [True, False]


def test_tangent_membership_sdp_direction():
    P, x, samp = registry.get("sdp-example")
    # the kernel vector e1 forces <(1,2,0), h> <= 0
    assert _tangent(P, x, [(-1.0, 0.0, 0.0), (1.0, 0.0, 0.0)],
                    samp) == [True, False]
    # finite-difference check on the top eigenvalue along the accepted ray
    blk = P.blocks[0]
    h = np.array([-1.0, 0.0, 0.0])
    tau = 1e-6
    lam0 = np.linalg.eigvalsh(_sdp_matrix(blk, np.asarray(x)))[-1]
    lam1 = np.linalg.eigvalsh(_sdp_matrix(blk, np.asarray(x) + tau * h))[-1]
    assert (lam1 - lam0) / tau <= 1e-3


def test_eta_vectors_oppose_tangent_directions(rng):
    for name in ("madsen", "bazaraa45", "soc-example", "sdp-example"):
        P, x, samp = registry.get(name)
        ctx = geo.PointContext(P, x, samp)
        normals = list(ctx.generators.eta) + list(ctx.generators.nA)
        if not normals:
            continue
        H = rng.standard_normal((500, P.d))
        norms = np.linalg.norm(H, axis=1)
        H = H[norms >= 1e-12] / norms[norms >= 1e-12, None]
        kept = H[ctx.tester.accepted(H)]
        assert np.all(kept @ np.array(normals).T <= 1e-6)
        # the soc example's linearized cone is {0}; elsewhere directions exist
        if name in ("madsen", "bazaraa45"):
            assert len(kept) > 0


def test_block_distances_shared_with_penalty():
    P, x, samp = registry.get("soc-example")
    from conecert.firstorder import penalty_value
    from conecert.problem import evaluate_objective
    pt = np.asarray(x) + np.array([0.3, -0.2])
    F, _ = evaluate_objective(P, pt)
    dist = sum(geo.block_distances(P, pt))
    assert penalty_value(P, pt, 2.5) == F + 2.5 * dist


def test_spectral_data_invariants():
    P, x, _ = registry.get("sdp-example")
    M = _sdp_matrix(P.blocks[0], np.asarray(x, dtype=float))
    spec = spectral_split(M, P.tolerances.eps_rank)
    Q = spec.Q
    assert np.max(np.abs(Q.T @ Q - np.eye(3))) <= 1e-10
    assert list(spec.eigenvalues) == sorted(spec.eigenvalues, reverse=True)
    for j in range(Q.shape[1]):
        q = Q[:, j]
        assert np.linalg.norm(M @ q - spec.eigenvalues[j] * q) <= 1e-8
    assert spec.null_basis.shape[1] == 2


def test_unit_directions_deterministic():
    a = geo.unit_directions(3, 16, seed=5)
    b = geo.unit_directions(3, 16, seed=5)
    c = geo.unit_directions(3, 16, seed=6)
    assert all(np.array_equal(u, v) for u, v in zip(a, b))
    assert any(not np.array_equal(u, v) for u, v in zip(a, c))
    for u in a:
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)


def _loop_dedup(vectors, tol, antipodal):
    kept = []
    for v in vectors:
        if any(min(np.linalg.norm(k - v),
                   np.linalg.norm(k + v) if antipodal else np.inf) < tol
               for k in kept):
            continue
        kept.append(v)
    return kept


@pytest.mark.parametrize("antipodal", [False, True])
def test_kept_rows_filter_matches_pairwise_loop(rng, antipodal):
    """The one-call comparison keeps the same vectors, in the same order,
    as comparing with each kept vector in turn."""
    from conecert.cones import KeptRows
    base = [v / np.linalg.norm(v) for v in rng.standard_normal((40, 4))]
    vectors = []
    for v in base:
        vectors.append(v)
        vectors.append(v + 1e-11 * rng.standard_normal(4))   # within tol
        vectors.append(v + 1e-7 * rng.standard_normal(4))    # beyond it
        vectors.append(-v)
    order = rng.permutation(len(vectors))
    vectors = [vectors[i] for i in order]
    kept, rows = [], KeptRows(4)
    for v in vectors:
        if not rows.near(v, 1e-9, antipodal=antipodal):
            rows.append(v)
            kept.append(v)
    ref = _loop_dedup(vectors, 1e-9, antipodal)
    assert len(kept) == len(ref) < len(vectors)
    assert all(k is r for k, r in zip(kept, ref))
