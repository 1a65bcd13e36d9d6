"""Each block's stacked normal-cone family against frozen copies of the
per-row loops it replaced: the generators of every block, the penalty
groups and the rows each block's tangent test reads must be the same
floats, bit for bit, in the same order, at default sampling on every
problem of the stacked-screen tests and at the sampled cone examples'
larger direction counts.  A sampled family builds the provenance record
of a row only when the row is read, so a check builds the records of
the rows its report names and no others."""

import contextlib
import io
import json
from dataclasses import replace

import numpy as np
import pytest

from conecert import cli, cones, registry
from conecert import expr as ex
from conecert import firstorder as fo
from conecert import geometry as geo
from conecert.cones import Provenance, unit_rows
from conecert.problem import activity
from test_geometry import _blocked_dedup
from test_stacked import CASES, IDS

# ---------------------------------------------------------------------------
# frozen copies of the per-row code
# ---------------------------------------------------------------------------


def _ref_axis_directions(dim):
    out = []
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = 1.0
        out.append(e)
        out.append(-e)
    return out


def _ref_sdp_null_directions(Q0, count, seed):
    l, r = Q0.shape
    if r == 0:
        return []
    proj = Q0 @ Q0.T
    dirs = [e for e in np.eye(l) if np.linalg.norm(proj @ e - e) <= 1e-9]
    dirs += list(Q0.T)
    if r > 1:
        dirs += [Q0 @ u for u in cones.unit_directions(r, count, seed)]
    U, _ = unit_rows(np.array(dirs), 1e-12)
    return list(U[_blocked_dedup(U, 1e-9, antipodal=True)])


def _ref_soc(blk, x, state, sampling):
    if state.soc_state == "inactive":
        return []
    J = state.jacobian
    pos = state.position
    if state.soc_state == "boundary":
        vals = state.soc_value
        dual = np.concatenate([[-vals[0]], vals[1:]])
        return [(J.T @ dual, Provenance("soc_boundary", pos), dual)]
    dirs = [np.asarray(v, dtype=float)
            for p, v in sampling.soc_extra if p == pos]
    dirs += _ref_axis_directions(blk.l)
    dirs += list(cones.unit_directions(blk.l, sampling.soc_dirs,
                                       sampling.seed + 7 * pos + 1))
    U, _ = unit_rows(np.array(dirs), 1e-12)
    out = []
    for v in U[_blocked_dedup(U, 1e-9)]:
        dual = np.concatenate([[-1.0], v])
        prov = Provenance("soc_apex", pos, detail=tuple(v.tolist()))
        out.append((J.T @ dual, prov, dual))
    return out


def _ref_sdp(blk, x, state, sampling):
    Q0 = state.null_basis
    if Q0.shape[1] == 0:
        return []
    pos = state.position
    n = blk.size
    grads = np.array([[ex.eval2(blk.G0[i][j], x).grad for j in range(n)]
                      for i in range(n)])
    qs = _ref_sdp_null_directions(Q0, sampling.sdp_dirs,
                                  sampling.seed + 7 * pos + 3)
    return [(np.einsum("i,ijk,j->k", q, grads, q),
             Provenance("sdp_null", pos, detail=tuple(q.tolist())),
             np.outer(q, q)) for q in qs]


def _ref_generators(blk, x, state, sampling):
    """The block's (vector, Provenance, dual) triples, one row at a time."""
    pos = state.position
    if blk.kind == "soc":
        return _ref_soc(blk, x, state, sampling)
    if blk.kind == "sdp":
        return _ref_sdp(blk, x, state, sampling)
    if blk.kind == "nlp_eq":
        out = []
        grads = [ex.eval2(b, x).grad for b in blk.b]
        for j, grad in enumerate(grads):
            out.append((grad, Provenance("nlp_eq", pos, j, sign=1), 1.0))
            out.append((-grad, Provenance("nlp_eq", pos, j, sign=-1), -1.0))
        return out
    grads = blk.jets(x, state.active, derivatives=True)[1]
    if blk.kind == "nlp_ineq":
        return [(g, Provenance("nlp_ineq", pos, i), 1.0)
                for i, g in zip(state.active, grads)]
    return [(g, Provenance("semi_infinite", pos, j,
                           detail=(float(blk.grid[j]),)), 1.0)
            for j, g in zip(state.active, grads)]


def _ref_penalty_groups(P, triples):
    groups = {}
    for v, pr, dual in triples:
        key = (pr.block, pr.index if P.blocks[pr.block].separable else None)
        groups.setdefault(key, []).append(v / np.linalg.norm(dual))
    return list(groups.values())


def _ref_tangent_rows(act, triples, d):
    """The rows each block's tangent test was given: the generators of its
    block, collected row by row, as one array."""
    rows = {ba.position: [] for ba in act.blocks}
    for v, pr, _ in triples:
        rows[pr.block].append(v)
    return [np.array(rows[ba.position], dtype=float).reshape(-1, d)
            for ba in act.blocks]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def _assert_families_match(P, x, sampling):
    """The stacked families at x, and what the checks read from them,
    equal the per-row code's, bit for bit; the kinds of generator met."""
    x = np.asarray(x, dtype=float)
    act = activity(P, x)
    G = geo.build_generator_set(P, x, act, sampling)
    triples = []
    assert len(G.families) == len(P.blocks)
    for ba, blk, fam in zip(act.blocks, P.blocks, G.families):
        ref = _ref_generators(blk, x, ba, sampling)
        triples += ref
        vectors = np.array([v for v, _, _ in ref]).reshape(-1, P.d)
        assert fam.vectors.shape == vectors.shape
        assert fam.vectors.tobytes() == vectors.tobytes()
        assert fam.duals.shape[:1] == (len(ref),)
        assert fam.duals.tobytes() == np.array(
            [dual for _, _, dual in ref]).tobytes()
        assert list(fam.prov) == [pr for _, pr, _ in ref]
    assert G.eta.tobytes() == np.array(
        [v for v, _, _ in triples]).reshape(-1, P.d).tobytes()
    assert list(G.eta_prov) == [pr for _, pr, _ in triples]
    groups = fo._penalty_groups(P, G)
    ref_groups = _ref_penalty_groups(P, triples)
    assert len(groups) == len(ref_groups)
    for got, want in zip(groups, ref_groups):
        assert got.tobytes() == np.array(want).tobytes()
    for fam, rows in zip(G.families, _ref_tangent_rows(act, triples, P.d)):
        assert fam.vectors.tobytes() == rows.tobytes()
    return {pr.kind for _, pr, _ in triples}


def test_families_match_the_row_loops_at_default_sampling():
    kinds = set()
    for name, P, x, sampling in CASES:
        kinds |= _assert_families_match(P, x, sampling)
    assert kinds == {"nlp_ineq", "nlp_eq", "soc_boundary", "soc_apex",
                     "sdp_null", "semi_infinite"}


@pytest.mark.parametrize("name,field,counts", [
    ("soc-example", "soc_dirs", (512, 4096)),
    ("sdp-example", "sdp_dirs", (128, 1024)),
])
def test_families_match_the_row_loops_at_many_directions(name, field,
                                                         counts):
    """The benchmark's and the report corpus's direction counts."""
    P, x, sampling = registry.get(name)
    for count in counts:
        for seed in (0, 1, 2):
            _assert_families_match(
                P, x, replace(sampling, seed=seed, **{field: count}))


def test_sampling_helpers_match_the_row_loops():
    for dim in (1, 2, 5):
        assert geo.axis_directions(dim).tobytes() == np.array(
            _ref_axis_directions(dim)).tobytes()
    assert geo.axis_directions(0).shape == (0, 0)
    assert geo.unit_directions(3, 0, 1).shape == (0, 3)
    assert geo.unit_directions(1, 5, 1).tolist() == [[1.0], [-1.0]]
    rng = np.random.default_rng(3)
    for l, r in ((3, 1), (3, 2), (4, 3), (6, 6)):
        Q0 = np.linalg.qr(rng.standard_normal((l, r)))[0]
        Q0[:, 0] = np.eye(l)[0]
        Q0 = np.linalg.qr(Q0)[0]
        got = geo.sdp_null_directions(Q0, 64, 5)
        assert got.tobytes() == np.array(
            _ref_sdp_null_directions(Q0, 64, 5)).tobytes()
    assert geo.sdp_null_directions(np.zeros((3, 0)), 8, 0).shape == (0, 3)


@pytest.mark.parametrize("name", IDS[::4])
def test_tangent_tester_reads_each_block_family(name, monkeypatch):
    """The tester hands each block its own family's rows, without
    collecting them from eta."""
    _, P, x, sampling = CASES[IDS.index(name)]
    ctx = geo.PointContext(P, x, sampling)
    given = []
    for cls in {type(blk) for blk in P.blocks}:
        test = cls.tangent_test
        monkeypatch.setattr(cls, "tangent_test",
                            lambda self, x, state, rows, test=test:
                            given.append(rows) or test(self, x, state, rows))
    ctx.tester
    assert [rows is fam.vectors for rows, fam in zip(
        given, ctx.generators.families)] == [True] * len(P.blocks)


# the sampled cone examples at the benchmark's direction counts and flags
SAMPLED = [("soc-example", "soc_dirs", 512), ("sdp-example", "sdp_dirs", 128)]


def _sampled_case(name, field, count):
    P, x, sampling = registry.get(name)
    return P, x, replace(sampling, seed=1, **{field: count})


@pytest.mark.parametrize("name,field,count", SAMPLED)
def test_sampled_records_read_as_the_eager_ones(name, field, count):
    """Each record a family or eta_prov gives by index, from either end,
    or in order, equals the per-row code's."""
    P, x, sampling = _sampled_case(name, field, count)
    act = activity(P, x)
    G = geo.build_generator_set(P, x, act, sampling)
    eager, lazy = [], 0
    for ba, blk, fam in zip(act.blocks, P.blocks, G.families):
        ref = [pr for _, pr, _ in _ref_generators(blk, x, ba, sampling)]
        n = len(ref)
        lazy += isinstance(fam.prov, cones.ProvenanceRows)
        assert len(fam.prov) == n
        assert [fam.prov[k] for k in range(n)] == ref
        assert [fam.prov[k - n] for k in range(n)] == ref
        assert [fam.prov[k] for k in np.arange(n)] == ref
        with pytest.raises(IndexError):
            fam.prov[n]
        eager += ref
    assert lazy == 1 and len(eager) > count
    n = len(eager)
    assert len(G.eta_prov) == n and list(G.eta_prov) == eager
    assert [G.eta_prov[k] for k in range(-n, n)] == eager + eager
    for k in (n, -n - 1):
        with pytest.raises(IndexError):
            G.eta_prov[k]


def _provenance_kinds(value):
    """The kinds of the provenance records in a JSON report, in order."""
    if isinstance(value, dict):
        own = [value["kind"]] if "kind" in value and "sign" in value else []
        return own + [k for v in value.values() for k in _provenance_kinds(v)]
    if isinstance(value, list):
        return [k for v in value for k in _provenance_kinds(v)]
    return []


@pytest.mark.parametrize("name,field,count", SAMPLED)
def test_a_check_builds_only_the_sampled_records_its_report_names(
        monkeypatch, name, field, count):
    """Counted by wrapping Provenance.__init__: no more records than the
    non-sampled families hold plus the sampled rows the report names."""
    P, x, sampling = _sampled_case(name, field, count)
    G = geo.PointContext(P, x, sampling).generators
    fixed = len(G.grads_prov) + len(G.nA_prov) + sum(
        len(fam.prov) for fam in G.families
        if not isinstance(fam.prov, cones.ProvenanceRows))
    built, init = [], Provenance.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(Provenance, "__init__", counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["check", "--registry", name, f"--{field.replace('_', '-')}",
                  str(count), "--seed", "1", "--second-order", "--penalty",
                  "10", "--json"])
    named = [k for k in _provenance_kinds(json.loads(out.getvalue()))
             if k in ("soc_apex", "sdp_null")]
    assert len(built) <= fixed + len(named)
    assert sum(pr.kind in ("soc_apex", "sdp_null") for pr in built) <= len(
        named) < count
