"""The one report encoder, ``cones.json_data``, and its one-pass writer
of JSON text, ``cones.json_text``.

Reports were once encoded by hand: each record's ``to_json`` copied out
its fields, ``cmd_check`` converted the candidate to floats, and seven
sites added 0.0 where values were produced so that no report printed
-0.0.  Frozen copies of those bodies and sites are kept here, put back
as each record's ``json_fields`` hook: under them every check must print
the text it prints through the encoder, byte for byte, zero signs and key
order included.  The frozen cadre body writes its padding as the axis
indices of schema 6, the one change of the encoding since.
"""

import contextlib
import importlib.util
import io
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import pytest

from conecert import cli
from conecert import cones
from conecert import firstorder as fo
from conecert import geometry as geo
from conecert import oracle
from conecert import problem as pb
from conecert import registry
from conecert import secondorder as so
from conecert.cones import Provenance, Record, json_data, json_text
from conftest import perfbench_workloads

CORPUS = Path(__file__).resolve().parents[1] / "tools" / "report_corpus.py"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# the encoding before json_data, frozen
# ---------------------------------------------------------------------------


def _provenance_to_json(self):
    out = {"kind": self.kind, "sign": self.sign}
    if self.block is not None:
        out["block"] = self.block
    if self.index is not None:
        out["index"] = self.index
    if self.detail:
        out["detail"] = list(self.detail)
    return out


def _cadre_to_json(self):
    return {
        "p": self.p, "k0": self.k0, "i0": self.i0, "flavor": self.flavor,
        "complete": self.complete,
        "vectors": [list(map(float, v)) for v in self.vectors],
        "provenance": [pr.to_json() if isinstance(pr, Provenance) else pr
                       for pr in self.provenance],
        "multipliers": [float(b) for b in self.multipliers],
        "padding": [int(k) for k in self.padding],
        "determinants": [float(x) for x in self.determinants],
        "determinants_exponent": self.determinants_exponent,
        "residual": self.residual,
    }


def _witness_to_json(self):
    out = {"alpha": [{"scenario": s, "sign": sg, "weight": w}
                     for s, sg, w in self.alpha]}
    for cls in pb.BLOCK_CLASSES:
        out[cls.kind] = {str(b): blk.dual_to_json(dual)
                         for b, (blk, dual) in self.duals.items()
                         if blk.kind == cls.kind}
    out["nA"] = [{"prov": pr.to_json(), "weight": w} for pr, w in self.nA]
    out["stationarity_residual"] = self.stationarity_residual
    return out


def _necessary_to_json(self):
    return {
        "feasible": self.feasible,
        "zero_in_D": self.zero_in_D,
        "multipliers": self.multipliers.to_json() if self.multipliers else None,
        "cadre": self.cadre.to_json() if self.cadre else None,
        "agreement": self.agreement,
        "sampling_limited": self.sampling_limited,
    }


def _sufficient_to_json(self):
    def _num(v):
        return None if v is None else float(v) + 0.0   # no -0.0
    return {
        "zero_in_int_D": self.zero_in_int_D,
        "margin": _num(self.margin),
        "radius": _num(self.radius),
        "sampling_limited": self.sampling_limited,
    }


def _as_dict(self):
    return asdict(self)


def _checked_json(value):
    """``cmd_check``'s conversions: each record by its ``to_json()``, the
    candidate array as a list of floats, everything else as it is."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, np.ndarray):
        return list(map(float, value))
    if isinstance(value, dict):
        return {k: _checked_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_checked_json(v) for v in value]
    return value


def _emit(args, report):
    report = _checked_json(report)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        cli._print_human(report)


def _freeze(m):
    """Put back, on the monkeypatch context m, the hand-written encoding
    and the seven sites that each added 0.0 to a value as it was produced:
    the gradients, cone and polyhedral generators of
    ``build_generator_set``, the squared generators, the scenario
    deviations and the hull point."""
    build, gradients = geo.build_generator_set, pb.ScenarioJets.gradients
    deviations, hull_pool = pb._deviations, fo._hull_pool

    def build_generator_set(*args):
        G = build(*args)
        G.grads_F = [v + 0.0 for v in G.grads_F]
        G.eta, G.nA = G.eta + 0.0, G.nA + 0.0
        G.families = [fam._replace(vectors=fam.vectors + 0.0)
                      for fam in G.families]
        return G

    def squared_generators(*args, **kwargs):
        return [v + 0.0 for v in gradients(*args, **kwargs)]

    def _deviations(P, X):
        devs, reasons = deviations(P, X)
        return devs + 0.0, reasons

    def _hull_pool(grads, grads_prov, generalised):
        pool, prov = hull_pool(grads, grads_prov, generalised)
        if prov and prov[-1].kind == "aux_hull":
            pool[-1] = 0.0 + pool[-1]
        return pool, prov

    m.setattr(geo, "build_generator_set", build_generator_set)
    m.setattr(pb.ScenarioJets, "gradients", squared_generators)
    m.setattr(pb, "_deviations", _deviations)
    m.setattr(fo, "_hull_pool", _hull_pool)
    for cls, body in ((Provenance, _provenance_to_json),
                      (fo.Cadre, _cadre_to_json),
                      (fo.MultiplierWitness, _witness_to_json),
                      (fo.NecessaryReport, _necessary_to_json),
                      (fo.SufficientReport, _sufficient_to_json),
                      (fo.PenaltyReport, _as_dict),
                      (so.SecondOrderReport, _as_dict),
                      (oracle.GrowthProbe, _as_dict)):
        m.setattr(cls, "json_fields", body)
    m.setattr(cli, "_emit", _emit)


def _same_as_frozen(monkeypatch, argv):
    """Run ``check`` with argv as JSON and as text, through the encoder
    and through the frozen encoding, and require the same output."""
    for form in (["--json"], []):
        now = _run(["check", *argv, *form])
        with monkeypatch.context() as m:
            _freeze(m)
            before = _run(["check", *argv, *form])
        assert now == before, (argv, form)
        assert now[0] != cli.EXIT_ERROR, (argv, now)


@pytest.mark.parametrize("name", registry.NAMES)
def test_registry_reports_match_the_frozen_encoding(monkeypatch, name):
    """Every registry problem, with each --flavor and with the
    second-order, penalty and oracle checks, prints what the hand-written
    encoding printed."""
    dim = ["--dim", "3"] if name == "linf" else []
    for flags in (["--flavor", "plain"], ["--flavor", "generalised"],
                  ["--flavor", "weak"],
                  ["--second-order", "--penalty", "10", "--oracle"]):
        _same_as_frozen(monkeypatch, ["--registry", name, *dim, *flags])


def _corpus():
    spec = importlib.util.spec_from_file_location("report_corpus", CORPUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_file_reports_match_the_frozen_encoding(monkeypatch,
                                                       tmp_path):
    """The corpus's problem files, under their corpus flags, print what
    the hand-written encoding printed."""
    corpus = _corpus()
    for path, text in corpus.FILES.items():
        (tmp_path / path).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argvs = [argv for argv in corpus.cases()
             if "--file" in argv and argv not in corpus.EXPECTED_ERRORS]
    assert len(argvs) == 16
    for argv in argvs:
        _same_as_frozen(monkeypatch, argv)


# ---------------------------------------------------------------------------
# the encoder itself
# ---------------------------------------------------------------------------


def _signs(value):
    """The sign bits of the float zeros in JSON data, in order."""
    if isinstance(value, dict):
        return [s for v in value.values() for s in _signs(v)]
    if isinstance(value, list):
        return [s for v in value for s in _signs(v)]
    if isinstance(value, float) and value == 0:
        return [math.copysign(1.0, value)]
    return []


@dataclass
class _Probe(Record):
    zero: float
    values: np.ndarray
    pairs: tuple
    inner: object = None
    hidden: list = field(default_factory=list, metadata={"json": False})


def test_json_data_writes_every_zero_unsigned():
    data = json_data({"a": -0.0, "b": [np.float64(-0.0), (-0.0, 1.5)],
                      "c": np.array([[-0.0, 2.0], [0.0, -1.0]]),
                      "d": np.float32(-0.0)})
    assert data == {"a": 0.0, "b": [0.0, [0.0, 1.5]],
                    "c": [[0.0, 2.0], [0.0, -1.0]], "d": 0.0}
    assert _signs(data) == [1.0] * 6


def test_json_data_gives_python_values():
    data = json_data([np.int64(3), np.bool_(True), np.float64(0.25),
                      np.array([1, 2]), True, None, "text", 7,
                      math.nan, -math.inf])
    assert [type(v) for v in data] == [int, bool, float, list, bool,
                                       type(None), str, int, float, float]
    assert data[:5] == [3, True, 0.25, [1, 2], True]
    assert math.isnan(data[8]) and data[9] == -math.inf
    # NaN and the infinities as the bare tokens of Python's json
    assert json.dumps(data[8:]) == "[NaN, -Infinity]"


def test_records_encode_their_fields_in_order():
    inner = _Probe(zero=-0.0, values=np.array([-0.0]), pairs=())
    probe = _Probe(zero=-0.0, values=np.array([1.0, -0.0]),
                   pairs=((1, -0.0),), inner=inner, hidden=[object()])
    data = probe.to_json()
    assert list(data) == ["zero", "values", "pairs", "inner"]
    assert data == {"zero": 0.0, "values": [1.0, 0.0], "pairs": [[1, 0.0]],
                    "inner": {"zero": 0.0, "values": [0.0], "pairs": [],
                              "inner": None}}
    assert json_data(probe) == data and _signs(data) == [1.0] * 5
    # a record's to_json is already JSON data: the encoder leaves it be
    assert json_data({"probe": probe}) == {"probe": data}
    # the writers' hook hands them the fields as they are
    raw = probe.json_fields()
    assert list(raw) == list(data) and raw["values"] is probe.values


def test_json_text_walks_each_record_once(monkeypatch):
    """``json_text`` writes a whole report, records included, without
    ``json_data``: no record encodes its fields before the writer walks
    them."""
    report = _captured_report(monkeypatch, [
        "--registry", "soc-example", "--flavor", "generalised",
        "--second-order", "--penalty", "10", "--oracle"])
    want = _dumps(report)

    def refused(value):
        raise AssertionError("json_data called while writing")
    for module in (cones, cli, fo, so, oracle, geo, pb):
        if hasattr(module, "json_data"):
            monkeypatch.setattr(module, "json_data", refused)
    assert json_text(report) == want


def test_necessary_report_leaves_out_its_generator_set():
    P, x, sampling = registry.get("dem")
    nec = fo.necessary_check(geo.PointContext(P, x, sampling))
    assert list(nec.to_json()) == ["feasible", "zero_in_D", "multipliers",
                                   "cadre", "agreement", "sampling_limited"]


def _dumps(value):
    return json.dumps(json_data(value), indent=2)


def _captured_report(monkeypatch, argv):
    """The report ``cmd_check`` hands to ``_emit`` for argv, unencoded."""
    reports, emit = [], cli._emit
    with monkeypatch.context() as m:
        m.setattr(cli, "_emit", lambda args, report: reports.append(report)
                  or emit(args, report))
        code, _, _ = _run(["check", *argv, "--json"])
    assert code != cli.EXIT_ERROR and len(reports) == 1, argv
    return reports[0]


@pytest.mark.parametrize("name", registry.NAMES)
def test_json_text_writes_the_bytes_of_dumps_on_every_registry_report(
        monkeypatch, name):
    """Under both flag sets of the benchmark's registry workload."""
    workloads = perfbench_workloads()
    dim = ["--dim", "3"] if name == "linf" else []
    for flags in (workloads.SO + ("--oracle",), workloads.GEN):
        report = _captured_report(monkeypatch,
                                  ["--registry", name, *dim, *flags])
        assert json_text(report) == _dumps(report), (name, flags)


@pytest.mark.parametrize("value", [
    -0.0, 0.0, 1.5, -2.5e-300, 1e308, math.nan, math.inf, -math.inf,
    [-0.0, (-0.0, [-0.0]), ()], (-0.0, 1), {"a": -0.0, "b": (-0.0,)},
    np.float64(-0.0), np.float32(-0.0), np.int64(-7), np.bool_(True),
    np.bool_(False), np.array([[-0.0, math.nan], [math.inf, 2.0]]),
    np.array([], dtype=float), np.zeros((2, 0)), np.array(3.5),
    [np.float64(math.nan), np.int64(2**40), np.bool_(False)],
    True, False, None, 0, -3, 2**70, "", "plain",
    "caf\u00e9 \u2207 \U0001d53c",
    "tab\tnew\nline \"quoted\" back\\slash \x00\x1f\x7f",
    {}, [], (), {"": {}, "e": [], "n": None},
    {"nested": [{"deep": [[[]], [{}], [-0.0]]}]},
    Provenance("soc_apex", 0, detail=(-0.0, 0.5)),
    Provenance("scenario", index=2, sign=-1),
], ids=repr)
def test_json_text_writes_the_bytes_of_dumps_on_edge_values(value):
    assert json_text(value) == _dumps(value)
    assert json_text([value, {"k": value}]) == _dumps([value, {"k": value}])


def test_json_text_writes_nested_records_as_dumps_does():
    cadre = fo.verify_alternance(
        [[1.0, -0.0], [-1.0, 1.0], [0.0, -1.0]],
        provenance=[Provenance("scenario", index=0, sign=-1),
                    Provenance("soc_apex", 1, detail=(-0.0, 1.0)),
                    Provenance("aux_sum", detail=(0, 2))])
    assert isinstance(cadre, fo.Cadre)
    inner = _Probe(zero=-0.0, values=np.array([-0.0, math.inf]),
                   pairs=((1, -0.0),), inner=cadre)
    value = {"cadre": cadre, "probe": _Probe(
        zero=math.nan, values=np.array([]), pairs=(), inner=inner,
        hidden=[object()])}
    assert json_text(value) == _dumps(value)
    assert '"detail": [\n' in json_text(value)


@pytest.mark.parametrize("vectors", [
    "1,0;-1,1;0,-1", "-0.0,1;0,-1", "1,0;1,0", "2,1e300;-1e300,1e-320"])
def test_verify_alternance_prints_the_dumps_of_its_payload(vectors):
    """Accepted and rejected: the bytes ``json.dumps(payload, indent=2)``
    printed."""
    code, out, _ = _run(["verify-alternance", "--vectors", vectors,
                         "--json"])
    result = fo.verify_alternance(cli._parse_vectors(vectors))
    if isinstance(result, fo.Cadre):
        payload = {"schema": cli.SCHEMA_VERSION, "accepted": True,
                   "cadre": result.to_json()}
    else:
        payload = {"schema": cli.SCHEMA_VERSION, "accepted": False,
                   "reason": str(result)}
    assert (code == cli.EXIT_OK) == payload["accepted"]
    assert out == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("key", [
    1, -0.0, 0.0, 2.5, math.nan, math.inf, -math.inf, np.float64(-1.5),
    True, False, None, 2**70, "\u00e9", (1, 2), np.int64(3),
    np.bool_(True), np.str_("s")])
def test_json_text_writes_a_dict_key_as_dumps_does_or_raises(key):
    """A key is not a report value: json_data leaves it as it is, and
    json writes a float key -0.0 as "-0.0"."""
    value = {key: -0.0, "after": [key] if isinstance(key, str) else 1}
    try:
        want = _dumps(value)
    except TypeError:
        with pytest.raises(TypeError):
            json_text(value)
    else:
        assert json_text(value) == want


def test_corpus_refuses_a_negative_zero():
    """tools/report_corpus.py fails a report that prints -0.0 as a number
    of its own, and no other number."""
    pattern = _corpus().NEGATIVE_ZERO
    for text in ('"x": -0.0,', '[\n  -0.0\n]', '"y": -0.0}', '[-0.0]'):
        assert pattern.search(text), text
    for text in ('"x": 0.0,', '"x": -0.05,', '-0.001', '1e-07', '-10.0',
                 '"source": "a-0.0b"'):
        assert not pattern.search(text), text


def _verdicts(member=True, cadre=True, interior=True, complete=True,
              c_min=0.0):
    """A report of first-order verdicts, consistent with the defaults."""
    return {"necessary": {"zero_in_D": member,
                          "cadre": {"p": 3} if cadre else None},
            "sufficient": {"zero_in_int_D": interior},
            "flavor_search": {"flavor": "generalised",
                              "complete": {"p": 3} if complete else None},
            "penalty": {"c_min": c_min}}


@pytest.mark.parametrize("planted, broken", [
    ({"cadre": False}, "necessary.cadre <=> zero_in_D"),
    ({"member": False, "cadre": False, "complete": False, "c_min": None},
     "zero_in_int_D => zero_in_D"),
    ({"interior": False}, "flavor_search.complete => zero_in_int_D"),
    ({"c_min": None}, "penalty.c_min <=> zero_in_D"),
])
def test_corpus_refuses_a_report_that_breaks_an_implication(
        monkeypatch, capsys, planted, broken):
    """tools/report_corpus.py names the implication a planted report
    breaks, and exits 1 on it."""
    corpus = _corpus()
    refuted = _verdicts(member=False, cadre=False, interior=False,
                        complete=False, c_min=None)
    for report in (_verdicts(), refuted, {"feasibility": {}}):
        assert corpus.broken_implications(report) == []
    report = _verdicts(**planted)
    assert corpus.broken_implications(report) == [broken]

    def check(argv):
        print(json.dumps(report))
        return cli.EXIT_OK
    monkeypatch.setattr(corpus, "cases", lambda: iter([["--registry", "dem"]]))
    monkeypatch.setattr(corpus.cli, "main", check)
    assert corpus.main() == 1
    assert f"breaks {broken}" in capsys.readouterr().err
