import math
import warnings

import numpy as np
import pytest

import conecert as cc
from conecert import geometry as geo
from conecert import cones, registry
from conecert.cones import spectral_split
from conecert.problem import PolyhedralSet, activity, load_problem_text

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
    assert G.eta.shape == (0, 2) and not G.sampled


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
    lam0 = np.linalg.eigvalsh(blk.matrices(blk.jets(x)))[-1]
    lam1 = np.linalg.eigvalsh(
        blk.matrices(blk.jets(np.asarray(x) + tau * h)))[-1]
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
    blk = P.blocks[0]
    M = blk.matrices(blk.jets(x))
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


def _loop_dedup(vectors, tol, antipodal, kept=()):
    kept, out = list(kept), []
    for v in vectors:
        if any(min(np.linalg.norm(k - v),
                   np.linalg.norm(k + v) if antipodal else np.inf) < tol
               for k in kept):
            continue
        kept.append(v)
        out.append(v)
    return out


def _blocked_dedup(U, tol, antipodal=False, kept=None, block=64):
    """distinct_rows as it was before the sweep: each block of candidates
    screened against every row kept so far."""
    U = np.asarray(U, dtype=float)
    ref = np.empty((0, U.shape[-1])) if kept is None else np.asarray(
        kept, dtype=float)
    out = []
    for start in range(0, len(U), block):
        part = U[start:start + block]
        rows = np.concatenate([ref, part])
        maybe = np.abs(rows[:, 0] - part[:, :1]) < 2 * tol
        if antipodal:
            maybe |= np.abs(rows[:, 0] + part[:, :1]) < 2 * tol
        i, j = np.nonzero(maybe)
        dist = np.linalg.norm(rows[j] - part[i], axis=-1)
        if antipodal:
            dist = np.minimum(
                dist, np.linalg.norm(rows[j] + part[i], axis=-1))
        near = np.zeros(maybe.shape, dtype=bool)
        near[i, j] = dist < tol
        near[:, len(ref):] &= np.tri(len(part), k=-1, dtype=bool)
        taken = np.ones(len(rows), dtype=bool)
        for k in np.flatnonzero(near.any(axis=1)):
            taken[len(ref) + k] = not np.any(near[k] & taken)
        new = np.flatnonzero(taken[len(ref):])
        ref = np.concatenate([ref, part[new]])
        out.extend(start + new)
    return np.array(out, dtype=int)


def _near_copies(rng, base):
    """Each row of base, a copy within 1e-9, one beyond it, its negation
    and a far row with its first coordinate, in a random order."""
    d = base.shape[1]
    vectors = []
    for v in base:
        vectors.append(v)
        vectors.append(v + 1e-11 * rng.standard_normal(d))   # within tol
        vectors.append(v + 1e-7 * rng.standard_normal(d))    # beyond it
        vectors.append(-v)
        vectors.append(np.r_[v[0], rng.standard_normal(d - 1)])  # same lead
    return np.array(vectors)[rng.permutation(len(vectors))]


@pytest.mark.parametrize("antipodal", [False, True])
def test_kept_rows_filter_matches_pairwise_loop(rng, antipodal):
    """distinct_rows keeps the same vectors, in the same order, as
    comparing each with every vector kept before it in turn, and as the
    blocked screen it replaced, with or without rows kept before them,
    and when far vectors share their first coordinate."""
    base = rng.standard_normal((40, 4))
    vectors = list(_near_copies(rng, base / np.linalg.norm(
        base, axis=1, keepdims=True)))
    for n_kept in (0, 30):
        before, cands = vectors[:n_kept], vectors[n_kept:]
        kept_rows = np.array(before).reshape(-1, 4)
        idx = cones.distinct_rows(np.array(cands), 1e-9, antipodal,
                                  kept=kept_rows)
        kept = [cands[i] for i in idx]
        ref = _loop_dedup(cands, 1e-9, antipodal, before)
        assert len(kept) == len(ref) < len(cands)
        assert all(k is r for k, r in zip(kept, ref))
        assert idx.tolist() == _blocked_dedup(
            np.array(cands), 1e-9, antipodal, kept_rows).tolist()


def _dedup_cases(rng):
    """(rows, kept) pairs: exact ties in the first coordinate, antipodal
    pairs around a first coordinate of 0, rows kept before, and 4,096
    rows."""
    axes = geo.axis_directions(300)
    extra = rng.standard_normal((100, 300))
    yield np.concatenate([axes, extra / np.linalg.norm(
        extra, axis=1, keepdims=True), axes[:7]]), None
    flat = rng.standard_normal((150, 3))
    flat[:, 0] = rng.choice([0.0, -0.0, 3e-10, -3e-10, 1e-9], 150)
    yield np.concatenate([flat, -flat, flat + 2e-10])[
        rng.permutation(450)], None
    many = rng.standard_normal((820, 3))
    rows = _near_copies(rng, many / np.linalg.norm(many, axis=1,
                                                   keepdims=True))
    yield rows[:3000], rows[3000:]
    yield rows[:4096], None


@pytest.mark.parametrize("antipodal", [False, True])
def test_sweep_matches_the_blocked_screen(rng, antipodal):
    """On ties, antipodal pairs, kept rows and 4,096 rows the sweep keeps
    the rows the blocked screen kept, and, on the antipodal pairs, the
    pairwise loop."""
    for rows, kept in _dedup_cases(rng):
        for tol in (1e-9, 1e-12):
            idx = cones.distinct_rows(rows, tol, antipodal, kept=kept)
            ref = _blocked_dedup(rows, tol, antipodal, kept)
            assert idx.tolist() == ref.tolist()
            assert 0 < len(idx) <= len(rows)
            if len(rows) < 1000 and rows.shape[1] < 10 and tol == 1e-9:
                loop = _loop_dedup(list(rows), tol, antipodal,
                                   [] if kept is None else list(kept))
                assert [rows[i].tobytes() for i in idx] == [
                    v.tobytes() for v in loop]


@pytest.mark.parametrize("antipodal", [False, True])
def test_sweep_computes_few_distances(rng, monkeypatch, antipodal):
    """On 4,096 well-separated unit rows the sweep computes fewer than
    10 n pair distances (the blocked screen computed one per pair of
    rows whose first coordinates were near, and built a screen of every
    row against every kept one)."""
    n, norm, counted = 4096, np.linalg.norm, [0]

    def counting(a, *args, **kwargs):
        counted[0] += len(a)
        return norm(a, *args, **kwargs)

    rows = rng.standard_normal((n, 5))
    rows /= norm(rows, axis=1, keepdims=True)
    monkeypatch.setattr(np.linalg, "norm", counting)
    assert len(cones.distinct_rows(rows, 1e-9, antipodal)) == n
    assert counted[0] < 10 * n


def test_unit_rows_match_the_row_loop(rng):
    """Each kept row is the row over its np.linalg.norm, bit for bit, under
    both floors the callers use: nonzero norm, and norm not below 1e-12."""
    V = rng.standard_normal((60, 3)) * 10.0 ** rng.integers(-14, 3, (60, 1))
    V[::7] = 0.0
    V[3] = [1e-12, 0.0, 0.0]           # exactly at the floor: kept
    V[5] = [0.0, -5e-13, 0.0]          # below it, yet nonzero
    tiny = np.finfo(float).smallest_subnormal
    for floor, keeps in ((1e-12, lambda n: not n < 1e-12),
                         (tiny, lambda n: n > 0)):
        units, idx = cones.unit_rows(V, floor)
        ref = [i for i, v in enumerate(V) if keeps(np.linalg.norm(v))]
        assert idx.tolist() == ref
        for u, i in zip(units, ref):
            assert np.array_equal(u, V[i] / np.linalg.norm(V[i]))
    assert 0 < len(cones.unit_rows(V, 1e-12)[1]) < len(
        cones.unit_rows(V, tiny)[1]) < len(V)


def test_row_norms_stay_finite_where_squares_overflow(rng):
    """A row whose squares overflow takes hypot's norm, finite when it is
    representable, and no warning is raised; every other row has
    np.linalg.norm's bits, rows whose squares underflow included.
    Before, rows of 1e160 had norm inf and matmul warned of the
    overflow."""
    V = rng.standard_normal((60, 3)) * 10.0 ** rng.integers(-200, 150,
                                                            (60, 1))
    big = np.array([[1e160, -1e160], [3e200, 4e200], [1e308, 1e308],
                    [1.5e308, 1.5e308], [math.inf, 1.0], [math.nan, 1e300],
                    [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms, got = cones.row_norms(V), cones.row_norms(big)
    for v, norm in zip(V, norms):
        assert norm.tobytes() == np.float64(np.linalg.norm(v)).tobytes()
    np.testing.assert_allclose(got[:3], [math.hypot(*r) for r in big[:3]],
                               rtol=1e-15)
    assert got[3] == got[4] == math.inf and math.isnan(got[5])
    assert got[6] == 0.0
