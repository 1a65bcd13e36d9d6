"""The exit-code rule, ``conecert.verdict``: the exit code of every check
is the rule applied to its JSON report alone."""

import contextlib
import importlib.util
import io
import json
import re
from pathlib import Path

import pytest

from conecert import cli
from conecert.verdict import RULE, verdict

ROOT = Path(__file__).resolve().parents[1]


def _check(argv):
    """(exit code, the report that ``check --json`` prints)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["check", *argv, "--json"])
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def _disk(c, cone):
    """f = x(1) - c x(2)^2 on the unit disk, as a second-order cone or
    as a 2 x 2 matrix block."""
    block = ('[soc] g1="1" g2="x(1)" g3="x(2)"' if cone == "soc" else
             '[sdp] size=2 entry(1,1)="-1 - x(1)" entry(1,2)="-x(2)" '
             'entry(2,2)="-1 + x(1)"')
    return f'[problem] dim=2\n[scenario] f="x(1) - {c}*x(2)^2"\n{block}\n'


def _defect_runs(tmp):
    """The argv of each defect run that ROADMAP.md gives a file for: their
    exit codes are wrong or unproved today, and only the agreement of the
    rule with the reported code is asserted."""
    files = {
        "lin2.prob": '[problem] dim=2\n[scenario] f="x(1) + x(2)"\n'
                     '[scenario] f="x(1) - x(2)"\n[nlp_ineq] g="x(1) - x(2)"\n',
        "small.prob": '[problem] dim=2\n[scenario] f="-x(1)"\n'
                      '[nlp_ineq] g="1e-12*(x(1) - x(2))" '
                      'g="1e-12*(x(1) + x(2))"\n',
        "ray.prob": '[problem] dim=2\n'
                    '[scenario] f="x(1) - x(2) - (x(1) + x(2))^2"\n'
                    '[scenario] f="-x(1) + x(2) - (x(1) + x(2))^2"\n'
                    '[nlp_ineq] g="x(1) + x(2)"\n',
        "apex.prob": '[problem] dim=2\n'
                     '[scenario] f="-1.7320508075688772*x(1) + x(2)"\n'
                     '[soc] g1="-2*x(1)" g2="x(1)" g3="x(2)"\n',
        "nocq.prob": '[problem] dim=2\n[scenario] f="x(1)"\n'
                     '[nlp_ineq] g="x(1)^2 + x(2)^2"\n',
        "nocq2.prob": '[problem] dim=2\n[scenario] f="x(1)"\n'
                      '[nlp_ineq] g="x(2) - x(1)^3" g="-x(2)"\n',
        "sin.prob": '[problem] dim=1\n[scenario] f="x(1)^2"\n'
                    '[semiinf] g="sin(10*t) - x(1)" grid=0:1:3\n',
    }
    runs = []
    for scale in ("1e-12", "1e-9", "1", "1e9", "1e12", "1e50", "1e100",
                  "1e160"):
        files[f"tri{scale}.prob"] = (
            f'[problem] dim=2\n[scenario] f="{scale}*x(1)"\n'
            f'[scenario] f="-{scale}*x(1) + {scale}*x(2)"\n'
            f'[scenario] f="-{scale}*x(2)"\n')
        for flags in ([], ["--flavor", "generalised"]):
            runs.append(["--file", f"tri{scale}.prob", "--at", "0,0", *flags])
    runs += [["--file", "small.prob", "--at", "0,0"],
             ["--file", "lin2.prob", "--at", "0,0"],
             ["--file", "ray.prob", "--at", "0,0", "--second-order"],
             ["--file", "ray.prob", "--at", "0,0", "--second-order",
              "--oracle"],
             ["--file", "apex.prob", "--at", "0,0", "--soc-dirs", "64"],
             ["--file", "apex.prob", "--at", "0,0", "--soc-dirs", "1024"],
             ["--file", "nocq.prob", "--at", "0,0"],
             ["--file", "nocq2.prob", "--at", "0,0"],
             ["--file", "sin.prob", "--at", "0"],
             ["--registry", "dem", "--at=1e-7,-3.0000001"]]
    for c in ("0", "0.25", "2"):
        for cone in ("soc", "sdp"):
            files[f"disk-{cone}-{c}.prob"] = _disk(c, cone)
            runs.append(["--file", f"disk-{cone}-{c}.prob", "--at=-1,0",
                         "--second-order"])
    for name, text in files.items():
        (tmp / name).write_text(text, encoding="utf-8")
    return runs


def _corpus():
    path = ROOT / "tools" / "report_corpus.py"
    spec = importlib.util.spec_from_file_location("report_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_exit_code_follows_from_the_json_report_alone(tmp_path,
                                                          monkeypatch):
    """Every corpus case that prints a report, and the 32 defect runs of
    ROADMAP.md, exit with the code the rule gives their JSON report, and
    the report's ``because`` names the rows that hold."""
    corpus = _corpus()
    for name, text in corpus.FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    defects = _defect_runs(tmp_path)
    assert len(defects) == 32
    monkeypatch.chdir(tmp_path)
    checked = 0
    for argv in [*corpus.cases(), *defects]:
        code, report = _check(argv)
        if code == cli.EXIT_ERROR:
            assert argv in corpus.EXPECTED_ERRORS, argv
            continue
        assert verdict(report) == (code, report["because"]), argv
        checked += 1
    assert checked == 85 + 32


# one planted report per row, each holding that row alone
PASSING = {"feasibility": {"feasible": True},
           "necessary": {"zero_in_D": True, "sampling_limited": False},
           "sufficient": {"zero_in_int_D": True},
           "flavor_search": None, "second_order": None, "penalty": None,
           "oracle": None}


def _second_order(nec_refuted=False, suf_passed=True):
    return [{"mode": "necessary", "refuted": nec_refuted, "passed": True},
            {"mode": "sufficient", "refuted": False, "passed": suf_passed}]


PLANTED = {
    "infeasible": {"feasibility": {"feasible": False}},
    "membership-refuted": {"necessary": {"zero_in_D": False,
                                         "sampling_limited": False}},
    "second-order-refuted": {"second_order": _second_order(True)},
    "growth-probe-refuted": {"oracle": {"refuted": True}},
    "membership-sampling-limited": {"necessary": {"zero_in_D": False,
                                                  "sampling_limited": True}},
    "interior-not-certified": {"sufficient": {"zero_in_int_D": False}},
    "no-complete-alternance": {"flavor_search": {"complete": None}},
    "second-order-not-run": {"second_order": []},
    "second-order-sufficient-failed": {
        "second_order": _second_order(suf_passed=False)},
    "penalty-not-stationary": {"penalty": {"zero_in_subdiff": False}},
}


def test_every_row_has_a_planted_report():
    assert list(PLANTED) == [row[0] for row in RULE]


@pytest.mark.parametrize("name", list(PLANTED))
def test_a_planted_report_holds_its_row_alone(name):
    code = {row[0]: row[3] for row in RULE}[name]
    assert verdict({**PASSING, **PLANTED[name]}) == (code, [name])


def test_a_report_with_no_row_holding_exits_0():
    """A report whose requested records all pass, and one whose oracle
    drew too few feasible samples, which refutes nothing."""
    passing = {**PASSING, "second_order": _second_order(),
               "flavor_search": {"complete": {"p": 3}},
               "penalty": {"zero_in_subdiff": True},
               "oracle": {"refuted": False}}
    for report in (PASSING, passing,
                   {**PASSING, "oracle": {"error": "too few samples"}}):
        assert verdict(report) == (cli.EXIT_OK, [])


def _condition_text(condition):
    """A row's condition as the schema document writes it."""
    if condition == []:
        return "`[]`"
    return ", ".join(f"`{key}` {json.dumps(value)}"
                     for key, value in condition.items())


def test_the_schema_document_states_the_rule_of_the_code():
    """The "Exit codes" table of docs/report-schema.md has the rows of
    ``verdict.RULE``, in order: name, record, condition and exit."""
    text = (ROOT / "docs" / "report-schema.md").read_text(encoding="utf-8")
    section = text.split("## Exit codes", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines()
            if re.match(r"\| `[a-z-]+` \|", line)]
    assert rows == [[f"`{name}`", f"`{record}`", _condition_text(condition),
                     str(code)] for name, record, condition, code in RULE]


def test_the_text_report_prints_because():
    """Under its last line, ``verdict: exit N``, the text report prints
    the name of each row that holds."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", "--registry", "bazaraa45", "--penalty",
                         "10"])
    assert code == cli.EXIT_INCONCLUSIVE
    assert out.getvalue().splitlines()[-2:] == [
        "verdict: exit 3", "  because: penalty-not-stationary"]


def test_the_corpus_refuses_an_exit_code_the_rule_does_not_give(
        monkeypatch, capsys):
    """tools/report_corpus.py exits 1 on a case whose exit code is not the
    one its printed report gives, and names the case."""
    corpus = _corpus()

    def check(argv):
        print(json.dumps({"feasibility": {"feasible": True},
                          "exit_code": 2, "because": []}))
        return cli.EXIT_REFUTED
    monkeypatch.setattr(corpus, "cases", lambda: iter([["--registry", "dem"]]))
    monkeypatch.setattr(corpus.cli, "main", check)
    assert corpus.main() == 1
    assert ("--registry dem: exit 2, but its report gives exit 0"
            in capsys.readouterr().err)
