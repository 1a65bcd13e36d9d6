"""The direction sampler: scrambled Sobol points and the inverse normal
CDF, drawn with numpy alone.  The cross-checks against scipy skip where
scipy is not installed; the golden digests check the same bits without
it."""

import hashlib
import os

import numpy as np
import pytest

from conecert import cones


def _digest(U):
    return hashlib.sha256(np.ascontiguousarray(U, dtype="<f8").tobytes()
                          ).hexdigest()


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a, dtype="<f8").view(np.uint64),
        np.ascontiguousarray(b, dtype="<f8").view(np.uint64))


# unit_directions at the calls of the cone-sampling benchmark: soc-example
# (l = 2) with 512 and 64 directions at seed 8, sdp-example (a kernel of
# dimension 2) with 128 and 64 at seed 3; digests of the little-endian
# float64 rows, as scipy.stats.qmc.Sobol and scipy.special.ndtri drew them
GOLDEN = {
    (2, 512, 8):
        "a8f78882e0076e2f4a3bbeb7dbaa61b4ed04662c9a43cbb0581b52705c542476",
    (2, 128, 3):
        "7f3d150a6e3de1e5a984eb555a0de6292b7b6b848885a3fbd5bed168ae98815e",
    (2, 64, 8):
        "00b87f482ddbd4f76840fbfae8056a7e9f2748cbd3d7186c3bc01bea95213c7a",
    (2, 64, 3):
        "e72f58ed711f2caaa9fa30f5ba7196de5710f8ae9aa868092aac8f3fad82a677",
}


@pytest.mark.parametrize("call", sorted(GOLDEN))
def test_unit_directions_golden_digests(call):
    U = cones.unit_directions(*call)
    assert U.shape == (call[1], call[0])
    assert _digest(U) == GOLDEN[call]


def test_unit_directions_cover_the_table():
    """Every dimension of the vendored table samples unit rows; one past
    it is a ValueError of its own, not an index error."""
    U = cones.unit_directions(cones.MAX_SOBOL_DIM, 8, 0)
    assert U.shape == (8, cones.MAX_SOBOL_DIM)
    assert np.allclose(np.linalg.norm(U, axis=1), 1.0)
    with pytest.raises(ValueError, match="dim <= 1000"):
        cones.unit_directions(cones.MAX_SOBOL_DIM + 1, 8, 0)


def test_sobol_points_are_one_sequence():
    """A longer draw extends a shorter one, and each point lies in
    [0, 1) on the 2^-30 grid."""
    a = cones.sobol_points(5, 100, 2)
    b = cones.sobol_points(5, 37, 2)
    assert _same_bits(a[:37], b)
    assert ((a >= 0) & (a < 1)).all()
    assert (a * 2.0 ** 30 == np.floor(a * 2.0 ** 30)).all()
    # past 2^30 points the sequence repeats (scipy's limit too): refused
    # before anything of that size is allocated
    for n in (0, 2 ** 30 + 1):
        with pytest.raises(ValueError, match="1 to 2"):
            cones.sobol_points(5, n, 2)


def test_ndtri_ends():
    out = cones.ndtri([0.0, 1.0, -0.5, 1.5, np.nan, 0.5])
    assert out[0] == -np.inf and out[1] == np.inf
    assert np.isnan(out[2:5]).all()
    assert out[5] == 0.0


def test_sobol_points_match_scipy():
    """Bit for bit as qmc.Sobol(d, scramble=True, seed=seed).random(n)."""
    qmc = pytest.importorskip("scipy.stats.qmc")
    for d in [*range(2, 11), 50, 1000]:
        for seed in range(5):
            for n in (2, 4, 64, 1024, 4096):
                ref = qmc.Sobol(d, scramble=True, seed=seed).random(n)
                assert _same_bits(cones.sobol_points(d, n, seed), ref), \
                    (d, seed, n)


def test_unit_directions_match_scipy():
    """The sampler as it drew its directions with scipy: a power-of-two
    batch, the leading point dropped, clipped, ndtri, normalized."""
    qmc = pytest.importorskip("scipy.stats.qmc")
    ndtri = pytest.importorskip("scipy.special").ndtri
    for dim, count, seed in [*GOLDEN, (3, 4096, 1), (7, 100, 0),
                             (64, 300, 5)]:
        n_draw = 1 << max(1, (count + 1).bit_length())
        raw = qmc.Sobol(dim, scramble=True, seed=seed).random(
            n_draw)[1:count + 1]
        ref = cones.unit_rows(ndtri(np.clip(raw, 1e-12, 1 - 1e-12)),
                              1e-12)[0]
        assert _same_bits(cones.unit_directions(dim, count, seed), ref), \
            (dim, count, seed)


def test_ndtri_matches_scipy():
    """Bit for bit as scipy.special.ndtri on over a million values: both
    tails, the sampler's clip ends, the branch points exp(-2) and
    1 - exp(-2) and the x = 8 split (y = exp(-32)), down to the smallest
    subnormal; the same positions are nan."""
    ndtri = pytest.importorskip("scipy.special").ndtri
    rng = np.random.default_rng(0)
    e2, e32 = np.exp(-2.0), np.exp(-32.0)
    edges = np.array([1e-12, 1 - 1e-12, e2, 1 - e2, e32, 1 - e32,
                      0.13533528323661269189, 1 - 0.13533528323661269189,
                      0.5, 5e-324, 2.2250738585072014e-308, 0.0, 1.0,
                      -1.0, 2.0, np.nan, np.inf])
    near = np.concatenate([np.nextafter(v, [0.0, 1.0]) for v in edges[:8]])
    y = np.concatenate([
        rng.random(1_000_000),
        10.0 ** -rng.uniform(0, 320, 100_000),       # the lower tail
        1 - 10.0 ** -rng.uniform(0, 16, 100_000),    # the upper tail
        e32 * rng.uniform(0.5, 2.0, 10_000),         # around x = 8
        edges, near])
    mine, ref = cones.ndtri(y), ndtri(y)
    assert (np.isnan(mine) == np.isnan(ref)).all()
    keep = ~np.isnan(ref)
    assert _same_bits(mine[keep], ref[keep])


def test_vendored_table_matches_scipy():
    """The vendored Joe-Kuo rows are scipy's first 1000 rows, and the
    derived direction numbers are the ones qmc.Sobol draws unscrambled."""
    stats = pytest.importorskip("scipy.stats")
    qmc = pytest.importorskip("scipy.stats.qmc")
    npz = np.load(os.path.join(os.path.dirname(stats.__file__),
                               "_sobol_direction_numbers.npz"))
    poly, vinit = npz["poly"], npz["vinit"]
    rows = [line.split() for line in
            cones._SOBOL_TABLE.read_text(encoding="ascii").splitlines()
            if not line.startswith("#")]
    assert [int(r[0]) for r in rows] == list(range(2, 1001))
    for k, (_, s, a, *m) in enumerate(rows, start=1):
        s, a = int(s), int(a)
        assert poly[k] == (1 << s) | (a << 1) | 1
        assert list(vinit[k, :s]) == [int(x) for x in m]
        assert not vinit[k, s:].any()
    # unscrambled, the point of index 2^(j+1) - 1, whose Gray code is
    # 2^j, is column j of the direction numbers
    d = cones.MAX_SOBOL_DIM
    plain = qmc.Sobol(d, scramble=False).random(1 << 12)
    v = cones._direction_numbers(d)
    for j in range(12):
        assert (plain[(2 << j) - 1] * 2.0 ** 30 == v[:, j]).all(), j
