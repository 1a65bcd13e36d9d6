import contextlib
import io
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

from conecert import firstorder as fo
from conecert import problem as pb
from conecert import registry
from conecert.cli import main


def run_cli(*args):
    """Drive the CLI in-process; one subprocess test covers the real
    entry point."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def test_console_entry_point_subprocess():
    proc = subprocess.run([sys.executable, "-m", "conecert.cli", "check",
                           "--registry", "dem", "--at", "0,-3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "[10, -10, 10]" in proc.stdout


def test_check_dem_exit_zero():
    code, out, _ = run_cli("check", "--registry", "dem", "--at", "0,-3")
    assert code == 0
    assert "[10, -10, 10]" in out


def test_check_linf_plain_inconclusive():
    code, out, _ = run_cli("check", "--registry", "linf", "--dim", "3",
                           "--at", "0,0,0", "--flavor", "plain")
    assert code == 3
    assert "no complete plain alternance; 2-point cadre found" in out


def test_check_linf_generalised_complete_fallback():
    # the smallest-p generalised cadre is two-point, but the complete one
    # exists and satisfies the request
    code, out, _ = run_cli("check", "--registry", "linf", "--dim", "2",
                           "--at", "0,0", "--flavor", "generalised")
    assert code == 0
    assert "complete generalised alternance found separately" in out


def test_check_linf_11_walks_few_prefixes(monkeypatch):
    """The complete generalised search of linf d=11 skips every subset
    below a dependent prefix such as (e_1, -e_1): the whole check with
    --flavor generalised passes fewer than 1,000 matrices through
    stacked_rank, against 478,477 when every subset was rank-screened."""
    from conecert import linkernel as lk
    matrices = []
    stacked_rank = lk.stacked_rank

    def counted(stack):
        matrices.append(math.prod(np.shape(stack)[:-2]))
        return stacked_rank(stack)
    for module in (lk, fo):
        monkeypatch.setattr(module, "stacked_rank", counted)
    code, out, _ = run_cli("check", "--registry", "linf", "--dim", "11",
                           "--flavor", "generalised", "--json")
    complete = json.loads(out)["flavor_search"]["complete"]
    assert code == 0
    assert complete["p"] == 12 and complete["flavor"] == "generalised"
    assert 0 < sum(matrices) < 1000


def test_check_sdp_128_decides_full_rank_subsets_by_volume(monkeypatch):
    """The sampled sdp-example search rank-screens thousands of subsets,
    nearly all of full rank; their volume decides them, so fewer than
    1,000 matrices reach the SVD of stacked_rank, against 17,687 when
    every matrix did, and the cadre and its determinants stay the same.
    The complete generalised search's alternance has those determinants
    too."""
    from conecert import linkernel as lk
    matrices = []
    svd_ranks = lk._svd_ranks

    def counted(stack):
        matrices.append(math.prod(np.shape(stack)[:-2]))
        return svd_ranks(stack)
    monkeypatch.setattr(lk, "_svd_ranks", counted)
    code, out, _ = run_cli("check", "--registry", "sdp-example",
                           "--sdp-dirs", "128", "--second-order",
                           "--penalty", "10", "--flavor", "generalised",
                           "--json")
    report = json.loads(out)
    cadre = report["necessary"]["cadre"]
    assert code == 0
    assert (cadre["p"], cadre["k0"], cadre["complete"]) == (4, 2, True)
    assert cadre["vectors"] == [[-3.0, -3.0, -2.0], [0.0, 0.0, 2.0],
                                [1.0, 2.0, 0.0], [2.0, -2.0, -1.0]]
    assert cadre["determinants"] == [-12.0, 15.0, -24.0, 6.0]
    assert cadre["determinants_exponent"] == 0
    assert report["flavor_search"]["complete"]["determinants"] == \
        cadre["determinants"]
    assert 0 < sum(matrices) < 1000


def test_check_missing_file_exit_one():
    code, _, err = run_cli("check", "--file", "missing.toml", "--at", "0")
    assert code == 1
    assert "missing.toml" in err


def test_check_non_ascii_digit_exit_one(tmp_path):
    path = tmp_path / "sup.prob"
    path.write_text('[problem] dim=1\n[scenario] f="x(1)^\u00b2"\n',
                    encoding="utf-8")
    code, out, err = run_cli("check", "--file", str(path), "--at", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "syntax error at offset 6" in err


def test_check_reads_a_file_with_a_byte_order_mark(tmp_path):
    text = '[problem] dim=1\n[scenario] f="x(1)"\n[scenario] f="-x(1)"\n'
    plain, bom = tmp_path / "plain.prob", tmp_path / "bom.prob"
    plain.write_bytes(text.encode())
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
    got = run_cli("check", "--file", str(bom), "--at", "0", "--json")
    want = run_cli("check", "--file", str(plain), "--at", "0", "--json")
    assert got[0] == 0 and got[2] == ""
    assert got == (want[0], want[1].replace("plain.prob", "bom.prob"), "")


@pytest.mark.parametrize("command", [["check"], ["discretize"]])
@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, command, bom):
    path = tmp_path / "latin1.prob"
    path.write_bytes(bom + b'[problem] dim=1\n[scenario] f="x(1)"\n'
                     b'[scenario] f="-x(1)" # caf\xe9\n')
    code, out, err = run_cli(*command, "--file", str(path), "--at", "0")
    assert (code, out) == (1, "")
    assert err == "error: not UTF-8: byte 0xe9 (line 3)\n"


def test_check_infeasible_point_refuted():
    code, out, _ = run_cli("check", "--registry", "bazaraa45", "--at", "0,0")
    assert code == 2
    assert "feasible: False" in out


def test_check_unconstrained_linear_refuted():
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lin.prob")
        with open(path, "w") as fh:
            fh.write('[problem] dim=1\n[scenario] f="x(1)"\n')
        code, out, _ = run_cli("check", "--file", path, "--at", "0")
        assert code == 2


def test_check_second_order_and_penalty_flags():
    code, out, _ = run_cli("check", "--registry", "bazaraa45", "--at", "3,3",
                           "--second-order", "--penalty", "200", "--oracle")
    assert code == 0
    assert "second-order" in out and "penalty c=200" in out


def test_json_report_roundtrip_and_reverify(tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli("check", "--registry", "dem", "--at", "0,-3",
                           "--json", "--out", str(out_path))
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 7
    assert report["exit_code"] == 0 and report["because"] == []
    assert list(report)[-2:] == ["exit_code", "because"]
    assert json.loads(out_path.read_text()) == report
    # one encoding, printed with a newline and written without one
    assert out == out_path.read_text() + "\n"
    P, x, samp = registry.get("dem")
    res = fo.reverify_report(P, report)
    assert res["ok"]
    names = {c["what"] for c in res["checks"]}
    assert "necessary.cadre" in names


def test_penalty_check_evaluates_the_objective_once(monkeypatch):
    """The penalty value reads F(x) from the point's activity, so a check
    with --penalty and no --oracle evaluates the scenarios once."""
    from conecert import oracle
    calls = []
    real = pb.evaluate_objective

    def counted(*args):
        calls.append(args)
        return real(*args)
    for module in (pb, fo, oracle):
        monkeypatch.setattr(module, "evaluate_objective", counted)
    code, out, _ = run_cli("check", "--registry", "bazaraa45", "--penalty",
                           "200", "--json")
    assert json.loads(out)["penalty"]["value"] == pytest.approx(
        real(*registry.get("bazaraa45")[:2])[0])
    assert code == 0 and len(calls) == 1


def test_reverify_checks_the_complete_alternance():
    """The flavor search's complete alternance is the report's only one,
    so a tampered determinant of it fails the re-check."""
    code, out, _ = run_cli("check", "--registry", "dem", "--flavor",
                           "generalised", "--json")
    report = json.loads(out)
    assert code == 0 and "complete_alternance" not in report["sufficient"]
    P, _, _ = registry.get("dem")
    res = fo.reverify_report(P, report)
    assert res["ok"] and {c["what"] for c in res["checks"]} >= {
        "flavor_search.cadre", "flavor_search.complete"}
    report["flavor_search"]["complete"]["determinants"][1] *= 1.01
    res = fo.reverify_report(P, report)
    assert not res["ok"]
    assert [c["what"] for c in res["checks"] if not c["ok"]] == [
        "flavor_search.complete"]


def test_reverify_checks_the_padding_axes():
    """A report names its padding by axis index, and the re-check
    requires the axes it picks itself: the determinants are recomputed
    with its own padding, so only this comparison sees a changed index."""
    code, out, _ = run_cli("check", "--registry", "linf", "--dim", "3",
                           "--json")
    report = json.loads(out)
    assert code == 0 and report["necessary"]["cadre"]["padding"] == [2, 3]
    P, _, _ = registry.get("linf", dim=3)
    assert fo.reverify_report(P, report)["ok"]
    report["necessary"]["cadre"]["padding"][0] = 1
    res = fo.reverify_report(P, report)
    assert not res["ok"]
    assert [c["what"] for c in res["checks"] if not c["ok"]] == [
        "necessary.cadre"]


def test_the_first_determinant_follows_from_the_report_alone():
    """In the default report of each fixed registry problem and of linf at
    d = 2..11, Delta_1 is det T for the padded tail T = [v_2 .. v_p, e_i
    for i in padding], rebuilt here from the report's vectors and padding
    with numpy alone: the padding is d - p + 1 increasing axis indices in
    1..d, and slogdet(T) gives determinants[0] 10^determinants_exponent
    to 1e-9 relative."""
    seen = 0
    for name, dim in [(n, None) for n in registry.NAMES if n != "linf"] + [
            ("linf", d) for d in range(2, 12)]:
        size = [] if dim is None else ["--dim", str(dim)]
        code, out, _ = run_cli("check", "--registry", name, *size, "--json")
        assert code == 0, (name, dim)
        cadre = json.loads(out)["necessary"]["cadre"]
        V = np.array(cadre["vectors"], dtype=float)
        p, d = V.shape
        pads = cadre["padding"]
        assert all(type(k) is int for k in pads), (name, dim)
        assert len(pads) == d - p + 1 and pads == sorted(set(pads))
        assert all(1 <= k <= d for k in pads), (name, dim)
        T = np.column_stack([*V[1:], *np.eye(d)[np.array(pads, int) - 1]])
        sign, logdet = np.linalg.slogdet(T)
        first = cadre["determinants"][0]
        assert sign == np.sign(first), (name, dim)
        want = math.log(abs(first)) + cadre["determinants_exponent"] * \
            math.log(10)
        assert abs(logdet - want) <= 1e-9, (name, dim, logdet, want)
        seen += 1
    assert seen == len(registry.NAMES) - 1 + 10


def test_linf_200_report_is_linear_in_d():
    """The padding of 199 axes takes 199 ints, not 199 vectors of 200
    floats: the report is under 100 KB (646 KB with the vectors)."""
    code, out, _ = run_cli("check", "--registry", "linf", "--dim", "200",
                           "--json")
    assert code == 0 and len(out.encode()) < 100_000


def test_check_enumerates_no_subsets(monkeypatch):
    """A check without --flavor runs no subset search: linf d=12, whose
    complete generalised search runs out of its budget, is certified by
    the margin alone, with no budget in the report."""
    calls = []
    monkeypatch.setattr(fo, "find_cadre",
                        lambda *args, **kwargs: calls.append(args))
    code, out, _ = run_cli("check", "--registry", "linf", "--dim", "12",
                           "--json")
    suf = json.loads(out)["sufficient"]
    assert code == 0 and calls == []
    assert list(suf) == ["zero_in_int_D", "margin", "radius",
                         "sampling_limited"]
    assert suf["margin"] == 1.0


def test_exit_codes_stable_across_runs():
    a = run_cli("check", "--registry", "sdp-example", "--at", "1,-1,0",
                "--json", "--seed", "11")
    b = run_cli("check", "--registry", "sdp-example", "--at", "1,-1,0",
                "--json", "--seed", "11")
    assert a[0] == b[0]
    assert a[1] == b[1]  # byte-identical reports under one seed


def test_verify_alternance_fixtures():
    code, out, _ = run_cli("verify-alternance",
                           "--vectors", "5,1;-5,1;0,-2")
    assert code == 0
    assert "[10, -10, 10]" in out
    code, out, _ = run_cli("verify-alternance",
                           "--vectors", "176,140;-1,-1;-2,1",
                           "--k0", "1", "--i0", "3", "--json")
    assert code == 0
    data = json.loads(out)
    np.testing.assert_allclose(data["cadre"]["determinants"],
                               [-3, 456, -36], atol=1e-9)
    code, out, _ = run_cli("verify-alternance", "--vectors", "1,0;1,0")
    assert code == 2
    assert "rejected" in out


def test_verify_alternance_reports_minors_out_of_range_by_power_of_ten():
    """Minors of about 10^450 and 10^-330 are printed divided by a power
    of ten, which the text names and the JSON holds; minors in range,
    up to the largest float, are printed as they are, with exponent 0.
    Vectors whose squares overflow (1e160) or underflow (1e-170) are
    tested as at scale 1, with no warning: a tail of two vectors
    dependent up to rounding is RankDeficient."""
    code, out, _ = run_cli("verify-alternance", "--vectors",
                           "-1e150,-1e150,-1e150;1e150,0,0;0,1e150,0;"
                           "0,0,1e150", "--json")
    assert code == 0
    cadre = json.loads(out)["cadre"]
    k = cadre["determinants_exponent"]
    assert k in (449, 450)
    np.testing.assert_allclose(np.array(cadre["determinants"]) * 10.0 ** (
        k - 450), [1, -1, 1, -1], rtol=1e-12)
    code, out, _ = run_cli("verify-alternance", "--vectors",
                           "-1e-110,-1e-110,-1e-110;1e-110,0,0;0,1e-110,0;"
                           "0,0,1e-110")
    assert code == 0
    assert "determinants: [1, -1, 1, -1] x 1e-330" in out
    code, out, _ = run_cli("verify-alternance", "--vectors",
                           "5,1;-5,1;0,-2", "--json")
    assert json.loads(out)["cadre"]["determinants_exponent"] == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for vectors, minors in [("1.5e308;-1.5e308", [-1.5e308, 1.5e308]),
                                ("1.2e154,0;0,1.2e154;-1.2e154,-1.2e154",
                                 [1.44e308, -1.44e308, 1.44e308])]:
            code, out, _ = run_cli("verify-alternance", "--vectors",
                                   vectors, "--json")
            cadre = json.loads(out)["cadre"]
            assert code == 0 and cadre["determinants_exponent"] == 0
            # exp(log det), as numpy's det takes it, is off by ~700 ulps
            np.testing.assert_allclose(cadre["determinants"], minors,
                                       rtol=1e-12)
        for one, exact in [(1e160, 480), (1e-170, -510)]:
            code, out, _ = run_cli("verify-alternance", "--vectors", ";".join(
                ",".join(repr(c * one) for c in v) for v in
                [(-1, -1, -1), (1, 0, 0), (0, 1, 0), (0, 0, 1)]), "--json")
            assert code == 0
            cadre = json.loads(out)["cadre"]
            k = cadre["determinants_exponent"]
            assert k in (exact - 1, exact)
            np.testing.assert_allclose(np.array(cadre["determinants"])
                                       * 10.0 ** (k - exact),
                                       [1, -1, 1, -1], rtol=1e-12)
            assert run_cli("verify-alternance", "--vectors", ";".join(
                ",".join(repr(c * one) for c in v) for v in
                [(-1, -1, -1), (1, 3, 0), (0.3, 0.9, 0)])) == (
                2, "rejected: RankDeficient\n", "")


def test_verify_alternance_malformed_input():
    code, _, err = run_cli("verify-alternance", "--vectors", "1,oops;2,3")
    assert code == 1


def _input_error(*argv):
    """The CLI's exit code and error line, after checking that it printed
    nothing else."""
    code, out, err = run_cli(*argv)
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    return code, err.strip()


def test_verify_alternance_k0_past_p_is_an_input_error():
    assert _input_error("verify-alternance", "--vectors", "1,0;-1,0",
                        "--k0", "5") == (1, "error: need 1 <= k0 <= i0 <= p")


def test_verify_alternance_too_many_vectors_is_an_input_error():
    assert _input_error("verify-alternance", "--vectors",
                        "1,0;-1,0;0,1;0,-1") == (
        1, "error: p must lie in 1..3")


def test_verify_alternance_non_finite_entry_is_an_input_error():
    for vectors in ("1,nan;-1,0", "1,0;-inf,0"):
        assert _input_error("verify-alternance", "--vectors", vectors) == (
            1, "error: malformed vector input; expected finite numbers")


def test_non_finite_candidate_is_an_input_error(tmp_path):
    """No scenario is active at a non-finite point, which the checks
    cannot take: check and discretize reject it before they start."""
    src = tmp_path / "si.prob"
    src.write_text('[problem] dim=2\n[scenario] f="x(1)"\n'
                   '[semiinf] g="x(1) + x(2)*t" grid=-1:1:2\n')
    for at in ("nan,0", "inf,-3", "0,-inf"):
        for argv in (["check", "--registry", "dem"],
                     ["discretize", "--file", str(src)]):
            assert _input_error(*argv, f"--at={at}") == (
                1, f"error: bad point '{at}'; expected comma-separated "
                   f"finite numbers")


_TOLERANCE_FLAGS = [(command, "--" + f.name.replace("_", "-"))
                    for command in ("check", "discretize")
                    for f in fields(pb.ToleranceSet)]
_TOLERANCE_FLAGS.append(("verify-alternance", "--eps-det"))


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("command, flag", _TOLERANCE_FLAGS)
def test_tolerance_outside_the_positive_numbers_is_an_input_error(
        tmp_path, command, flag, value):
    """A tolerance must be a finite number > 0: NaN would fail every
    comparison, so the checks would read it as a refutation or crash."""
    src = tmp_path / "si.prob"
    src.write_text('[problem] dim=1\n[scenario] f="x(1)^2"\n')
    argv = {"check": ["--registry", "dem"],
            "discretize": ["--file", str(src), "--at=0"],
            "verify-alternance": ["--vectors", "1,0;-1,0"]}[command]
    assert _input_error(command, *argv, f"{flag}={value}") == (
        1, f"error: {flag} must be a finite number > 0, got {float(value)}")
    with pytest.raises(ValueError):
        pb.ToleranceSet(**{flag[2:].replace("-", "_"): float(value)})


def test_discretize_roundtrip(tmp_path):
    src = tmp_path / "si.prob"
    src.write_text('[problem] dim=2\n[scenario] f="x(1)^2 + x(2)^2"\n'
                   '[semiinf] g="x(1)*t + x(2)*(1 - t)" grid=0:1:9\n')
    out_file = tmp_path / "out.prob"
    code, _, err = run_cli("discretize", "--file", str(src),
                           "--at", "0,0", "--out", str(out_file))
    assert code == 0
    assert "cap" in err
    text = out_file.read_text()
    assert "[nlp_ineq]" in text and "semiinf" not in text
    # idempotent on the already-discretized file
    final = tmp_path / "out2.prob"
    code, _, _ = run_cli("discretize", "--file", str(out_file),
                         "--at", "0,0", "--out", str(final))
    assert code == 0
    assert final.read_text() == out_file.read_text()


def test_discretize_warns_on_dropped(tmp_path):
    src = tmp_path / "si.prob"
    src.write_text('[problem] dim=1\n[scenario] f="x(1)"\n'
                   '[semiinf] g="x(1) + t - 10" grid=0:1:5\n')
    code, out, err = run_cli("discretize", "--file", str(src), "--at", "0")
    assert code == 0
    assert "dropped" in err


def test_main_entry_in_process(capsys):
    """The complete alternance is printed once, by the flavor search."""
    code = main(["check", "--registry", "madsen", "--at", "0,1",
                 "--flavor", "generalised"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("[-1, 1, -2]") == 1
    assert "complete generalised alternance found separately: " \
        "determinants [-1, 1, -2]" in out


def test_convexity_flag_recorded_not_verified():
    code, out, _ = run_cli("check", "--registry", "dem", "--at", "0,-3",
                           "--assume-convex", "--json")
    report = json.loads(out)
    assert report["flags"]["convexity_declared_by_user"] is True
    assert report["flags"]["rcq"] == "not checked"
    code, out, _ = run_cli("check", "--registry", "dem", "--at", "0,-3",
                           "--assume-convex")
    assert "user-declared convexity" in out
    code, out, _ = run_cli("check", "--registry", "dem", "--at", "0,-3",
                           "--json")
    assert json.loads(out)["flags"]["convexity_declared_by_user"] is False


def test_registry_unknown_name():
    """Each registry lookup failure is an input error printed like the
    others, without the quotes of a KeyError."""
    code, out, err = run_cli("check", "--registry", "nope", "--at", "0")
    assert (code, out) == (1, "")
    assert err == ("error: unknown registry problem 'nope'; known: dem, "
                   "madsen, bazaraa45, linf, counterexample-3-2, "
                   "soc-example, sdp-example\n")
    assert run_cli("check", "--registry", "dem", "--dim", "3") == (
        1, "", "error: dem does not take a dimension\n")
    assert run_cli("check", "--registry", "linf") == (
        1, "", "error: linf needs an explicit dimension\n")


def test_a_key_error_from_a_bug_is_not_an_input_error(monkeypatch):
    from conecert import cli

    def broken(args):
        raise KeyError("bug")
    monkeypatch.setattr(cli, "cmd_check", broken)
    with pytest.raises(KeyError):
        run_cli("check", "--registry", "dem")


def test_usage_error_maps_to_one():
    code, _, _ = run_cli("check", "--bogus-flag")
    assert code == 1


def test_one_parser_serves_every_call(monkeypatch):
    """main builds its parser once per process; each call still parses
    into its own namespace, so no flag of one call reaches the next, a
    command wrapped after the parser was built still runs, and usage
    errors still exit 1."""
    from conecert import cli
    assert cli._parser() is cli._parser()
    code, out, _ = run_cli("check", "--registry", "dem", "--at", "0,-3",
                           "--seed", "7", "--second-order", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == 7 and report["second_order"] is not None
    code, out, _ = run_cli("check", "--registry", "dem", "--at", "0,-3")
    assert code == 0 and not out.startswith("{")
    code, out, _ = run_cli("check", "--registry", "dem", "--at", "0,-3",
                           "--json")
    report = json.loads(out)
    assert report["seed"] == 0 and report["second_order"] is None
    wrapped, check = [], cli.cmd_check
    monkeypatch.setattr(cli, "cmd_check",
                        lambda args: wrapped.append(args) or check(args))
    assert run_cli("check", "--registry", "dem", "--at", "0,-3")[0] == 0
    assert len(wrapped) == 1
    for argv in (["check", "--bogus-flag"], ["check", "--dim", "0"], []):
        code, _, err = run_cli(*argv)
        assert code == 1 and "usage: conecert" in err


def test_values_with_leading_minus_in_both_spellings(tmp_path):
    spaced = run_cli("check", "--registry", "dem", "--at", "-0.0,-3")
    glued = run_cli("check", "--registry", "dem", "--at=-0.0,-3")
    assert spaced[0] == glued[0] == 0
    assert spaced[1] == glued[1]
    src = tmp_path / "si.prob"
    src.write_text('[problem] dim=1\n[scenario] f="x(1)"\n'
                   '[semiinf] g="x(1) - t" grid=0:1:5\n')
    spaced = run_cli("discretize", "--file", str(src), "--at", "-0.0")
    glued = run_cli("discretize", "--file", str(src), "--at=-0.0")
    assert spaced[0] == glued[0] == 0
    assert spaced[1] == glued[1] and "[nlp_ineq]" in spaced[1]
    spaced = run_cli("verify-alternance", "--vectors", "-1,1;1,1;0,-1")
    glued = run_cli("verify-alternance", "--vectors=-1,1;1,1;0,-1")
    assert spaced[0] == glued[0] == 0
    assert spaced[1] == glued[1]


def _count_calls(monkeypatch, *targets):
    """Count the calls of each (owner, attribute) target, under the
    attribute's name, wherever a conecert module binds it."""
    counts = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for name, m in sys.modules.items()
               if name == "conecert" or name.startswith("conecert.")]
    for owner, attr in targets:
        original = getattr(owner, attr)
        wrapper = counting(attr, original)
        if isinstance(owner, type):
            monkeypatch.setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapper)
    return counts


def test_check_builds_point_data_once(monkeypatch):
    """One check computes the active sets, the generator set, the kernel
    sample and the tangent tester once, however many tests read them."""
    from conecert import geometry, problem
    counts = _count_calls(monkeypatch, (geometry, "build_generator_set"),
                          (geometry, "sdp_null_directions"),
                          (problem, "activity"),
                          (geometry.TangentTester, "__init__"))
    code, out, _ = run_cli("check", "--registry", "sdp-example",
                           "--second-order", "--penalty", "10",
                           "--flavor", "generalised", "--json")
    assert code == 0 and json.loads(out)["penalty"]["zero_in_subdiff"]
    assert counts == {"build_generator_set": 1, "sdp_null_directions": 1,
                      "__init__": 1, "activity": 1}


def test_check_evaluates_each_soc_jacobian_once(monkeypatch):
    """The normal-cone generators and the tangent test of a second-order
    cone block read the Jacobian kept with the block's activity: one
    evaluation per block at the point (soc-example has two blocks), as
    counted by the calls of ``jets`` with derivatives."""
    calls, jets = [], pb.Soc.jets

    def counted(self, x, rows=None, derivatives=False):
        calls.append(derivatives)
        return jets(self, x, rows, derivatives)
    monkeypatch.setattr(pb.Soc, "jets", counted)
    code, out, _ = run_cli("check", "--registry", "soc-example", "--json")
    assert code == 0 and json.loads(out)["necessary"]["zero_in_D"]
    assert calls.count(True) == 2


def test_check_enumerates_second_order_data_once(monkeypatch, tmp_path):
    """Both second-order tests read one enumeration of the multiplier
    vertices and one sample of critical directions."""
    from conecert import secondorder
    bowl = tmp_path / "bowl.prob"
    bowl.write_text('[problem] dim=2\n[scenario] f="x(1)^2 + x(2)^2"\n')
    counts = _count_calls(monkeypatch,
                          (secondorder, "multiplier_vertices"),
                          (secondorder, "_critical_directions"))
    code, out, _ = run_cli("check", "--file", str(bowl), "--at", "0,0",
                           "--second-order", "--json")
    tests = json.loads(out)["second_order"]
    assert [t["mode"] for t in tests] == ["necessary", "sufficient"]
    assert tests[0]["n_directions"] == tests[1]["n_directions"] > 0
    assert counts == {"multiplier_vertices": 1, "_critical_directions": 1}


def test_check_linf_second_order_does_no_multiplier_work(monkeypatch):
    """linf d=11 has no critical direction at 0, so the second-order tests
    solve no LP and look at no multiplier, and the multiplier set of its
    polyhedral blocks counts as exhaustive."""
    from conecert import geometry, secondorder
    counts = _count_calls(monkeypatch,
                          (secondorder, "multiplier_vertices"))
    lps, solves, stacked = [], [], []

    class Counting(geometry.Tableau):
        def __init__(self, *args):
            lps.append(1)
            super().__init__(*args)

        def solve(self, *args):
            solves.append(1)
            return super().solve(*args)

        def solve_stack(self, costs, columns=None):
            stacked.append(len(costs))
            return super().solve_stack(costs, columns)

    monkeypatch.setattr(geometry, "Tableau", Counting)
    code, out, _ = run_cli("check", "--registry", "linf", "--dim", "11",
                           "--second-order", "--json")
    tests = json.loads(out)["second_order"]
    assert code == 0
    assert [t["n_directions"] for t in tests] == [0, 0]
    assert [t["multiplier_set_exhaustive"] for t in tests] == [True, True]
    # the generator set's one phase 1, the membership solve, a stack of
    # one, and one stacked solve of the 2 * 11 margin probes: the
    # second-order tests add none
    assert counts == {} and lps == [1] and solves == [1]
    assert stacked == [1, 22]


def test_flavor_search_reuses_the_checks_searches(monkeypatch):
    """The plain search of the necessary check is not run again: the
    plain first cadre is read off the membership basis, so it enumerates
    nothing.  The default checks enumerate nothing either."""
    for flavor in ("plain", "generalised"):
        counts = _count_calls(monkeypatch, (fo, "find_cadre"))
        code, out, _ = run_cli("check", "--registry", "linf", "--dim", "3",
                               "--at=0,0,0", "--flavor", flavor, "--json")
        found = json.loads(out)["flavor_search"]
        assert found["cadre"]["p"] == 2
        # the flavor's own: the complete plain one, or the first and the
        # complete generalised ones
        assert counts == {"find_cadre": 1 if flavor == "plain" else 2}
        monkeypatch.undo()


def test_plain_flavor_search_survives_a_failed_basis_read(monkeypatch):
    """A plain first cadre missing where membership holds does not stand
    for an exhausted search: the complete plain search still runs."""
    monkeypatch.setattr(fo, "_basis_cadre", lambda G, eps_det: None)
    code, out, _ = run_cli("check", "--registry", "dem", "--flavor", "plain",
                           "--json")
    report = json.loads(out)
    assert report["necessary"]["zero_in_D"]
    assert report["necessary"]["cadre"] is None
    assert not report["necessary"]["agreement"]
    found = report["flavor_search"]
    assert found["cadre"] is None and found["complete"]["p"] == 3


def test_flavor_search_budget_out_is_inconclusive(monkeypatch):
    """When the first search runs out of budget, both flavor results are
    null; when only the complete one does, after an incomplete first
    cadre, that cadre stays.  Either way the stop reads "budget", for every
    flavor.  The plain first cadre is read off the membership basis and
    has no budget, so for plain only the complete search runs out."""
    from conecert.cli import _flavor_search
    from conecert.geometry import PointContext
    P, x, sampling = registry.get("linf", 3)
    eps_det = P.tolerances.eps_det
    real = fo.find_cadre

    def generators():
        return PointContext(P, x, sampling).generators

    def capped(only_complete):
        def search(G, flavor, p_min=1, **kw):
            if p_min > 1 or not only_complete:
                kw["budget"] = 3
            return real(G, flavor, p_min=p_min, **kw)
        monkeypatch.setattr(fo, "find_cadre", search)

    for flavor in ("plain", "generalised", "weak"):
        first, complete, stopped = _flavor_search(flavor, generators(),
                                                  eps_det)
        # no complete plain cadre: the plain search finds (first, None)
        assert first.p == 2 and (complete is None) == (flavor == "plain")
        assert stopped is None
        for only_complete in (False, True):
            capped(only_complete)
            got = _flavor_search(flavor, generators(), eps_det)
            kept = only_complete or flavor == "plain"
            assert got[1:] == (None, "budget")
            assert (got[0] is not None and got[0].p == 2) if kept \
                else got[0] is None
            monkeypatch.undo()


def test_check_linf_12_reports_the_budget_stop():
    """linf d=12 under --flavor generalised: the first search finds p = 2
    and the complete one runs out of budget.  The report keeps the first
    cadre and says that the budget stopped the search, and the text reads
    "budget exhausted", not "none found"."""
    argv = ("check", "--registry", "linf", "--dim", "12", "--flavor",
            "generalised")
    code, out, _ = run_cli(*argv, "--json")
    found = json.loads(out)["flavor_search"]
    assert code == 3
    assert found["cadre"]["p"] == 2 and found["complete"] is None
    assert found["stopped"] == "budget"
    code, out, _ = run_cli(*argv)
    assert code == 3 and "none found" not in out
    assert "complete generalised alternance search: budget exhausted" in out


def _negative_zeros(value, path=""):
    """The paths of the -0.0 numbers in a decoded JSON report."""
    if isinstance(value, dict):
        return [p for k, v in value.items()
                for p in _negative_zeros(v, f"{path}.{k}")]
    if isinstance(value, list):
        return [p for v in value for p in _negative_zeros(v, path + "[]")]
    if isinstance(value, float) and value == 0 and math.copysign(1, value) < 0:
        return [path]
    return []


def test_reports_print_no_negative_zero(tmp_path):
    """A zero that arithmetic signs prints as 0.0: the gradient entries and
    values of -x(i) at 0, and -1 times a zero entry of an equality row."""
    path = tmp_path / "neg.prob"
    path.write_text('[problem] dim=1\n[scenario] f="-x(1)"\n'
                    '[scenario] f="x(1)"\n')
    for argv in (["--file", str(path), "--at", "0"],
                 ["--registry", "linf", "--dim", "2"],
                 ["--registry", "counterexample-3-2", "--flavor", "weak"],
                 ["--registry", "counterexample-3-2", "--flavor",
                  "generalised"]):
        code, out, _ = run_cli("check", *argv, "--json")
        assert code != 1 and _negative_zeros(json.loads(out)) == []


def test_check_oracle_skips_undefined_samples(tmp_path):
    """The growth probe draws points left of 0, where sqrt(x(1)) is
    undefined; it skips them instead of ending the check with exit 1."""
    path = tmp_path / "sqrt.prob"
    path.write_text('[problem] dim=1\n[scenario] f="x(1)"\n'
                    '[nlp_ineq] g="0.05 - x(1)" g="sqrt(x(1)) - 2"\n')
    assert run_cli("check", "--file", str(path), "--at", "0.05")[0] == 0
    code, out, err = run_cli("check", "--file", str(path), "--at", "0.05",
                             "--oracle", "--json")
    assert (code, err) == (0, "")
    probe = json.loads(out)["oracle"]
    assert not probe["refuted"] and 50 <= probe["n_feasible"] < 2000


def test_check_power_overflow_exit_one(tmp_path):
    path = tmp_path / "pow.prob"
    path.write_text('[problem] dim=1\n[scenario] f="x(1)^400"\n')
    code, _, err = run_cli("check", "--file", str(path), "--at", "10")
    assert code == 1
    assert err == "error: power outside the floating-point range\n"


def test_check_exponent_past_the_integer_limit_exit_one(tmp_path):
    if not hasattr(sys, "get_int_max_str_digits"):
        import pytest
        pytest.skip("the interpreter converts integers of any length")
    path = tmp_path / "long.prob"
    path.write_text('[problem] dim=1\n[scenario] f="x(1)^' + "7" * 5000
                    + '"\n')
    code, _, err = run_cli("check", "--file", str(path), "--at", "1")
    assert code == 1
    assert err.startswith("error: bad expression")
    assert err.endswith("syntax error at offset 6: expected an integer "
                        "exponent of fewer digits in [scenario] (line 2)\n")


def _feasibility(tmp_path, text, at):
    path = tmp_path / "nan.prob"
    path.write_text(text)
    code, out, err = run_cli("check", "--file", str(path), f"--at={at}",
                             "--json")
    return code, json.loads(out)["feasibility"]


def test_check_nan_matrix_entry_is_infeasible(tmp_path):
    """exp(1000) - exp(1000) is inf - inf: the matrix has no eigenvalues,
    and entry (2,2) = 1 alone makes it infeasible.  The parent reported
    feasible: true with max_violation 0."""
    code, feas = _feasibility(
        tmp_path, '[problem] dim=1\n[scenario] f="x(1)"\n[sdp] size=2 '
        'entry(1,1)="exp(x(1)) - exp(x(1))" entry(1,2)="0" entry(2,2)="1"\n',
        "1000")
    assert code == 2 and feas["feasible"] is False
    assert [v["where"] for v in feas["violations"]] == ["block 0 matrix cone"]
    assert math.isnan(feas["violations"][0]["amount"])
    assert math.isnan(feas["max_violation"])


def test_check_huge_matrix_entry_is_feasible(tmp_path):
    """An entry of -1e308 is finite, and the matrix's largest eigenvalue
    is -1.  Symmetrising the symmetric matrix once more, as
    0.5 (M + M^T), overflowed to -inf with a RuntimeWarning, and the
    point read infeasible with a NaN violation."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, feas = _feasibility(
            tmp_path, '[problem] dim=1\n[scenario] f="x(1)"\n[sdp] size=2 '
            'entry(1,1)="-1e308" entry(1,2)="0" entry(2,2)="-1"\n', "0")
    assert code == 2   # f = x(1) has no stationary point
    assert feas == {"feasible": True, "max_violation": 0.0, "violations": []}


def test_penalty_of_huge_negative_definite_matrix_is_zero(tmp_path):
    """Both matrices are negative definite, so x = 0 is feasible and the
    penalty term is 0.0.  The distance to the cone was the Frobenius norm
    of the matrix minus its reconstructed projection: with -1e308 on the
    diagonal it overflowed to a NaN penalty with a RuntimeWarning, and
    with -1e200 and 1e199 to an infinite one."""
    path = tmp_path / "big.prob"
    for entries in ('entry(1,1)="-1e308" entry(1,2)="0" entry(2,2)="-1"',
                    'entry(1,1)="-1e200" entry(1,2)="1e199" '
                    'entry(2,2)="-1e200"'):
        path.write_text('[problem] dim=1\n[scenario] f="x(1)^2"\n'
                        f'[sdp] size=2 {entries}\n')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, out, _ = run_cli("check", "--file", str(path), "--at=0",
                                "--penalty", "1", "--json")
        assert json.loads(out)["penalty"]["value"] == 0.0, entries


def test_check_nan_inequality_is_infeasible(tmp_path):
    code, feas = _feasibility(
        tmp_path, '[problem] dim=1\n[scenario] f="x(1)"\n'
        '[nlp_ineq] g="x(1) - 2000" g="x(1) - 500" '
        'g="exp(x(1)) - exp(x(1))"\n', "1000")
    assert code == 2 and feas["feasible"] is False
    assert [v["where"] for v in feas["violations"]] == [
        "block 0 inequality 2", "block 0 inequality 3"]
    # the largest violation is undefined, not 500
    assert math.isnan(feas["max_violation"])


def test_report_writes_non_finite_numbers_as_bare_tokens(tmp_path):
    """An equality constraint in one dimension makes its normal cone the
    whole line, so the interior margin is unbounded; the report writes it
    as the token Infinity, as it writes a NaN amount as NaN."""
    path = tmp_path / "eq.prob"
    path.write_text('[problem] dim=1\n[scenario] f="x(1)"\n'
                    '[nlp_eq] b="x(1)"\n')
    code, out, _ = run_cli("check", "--file", str(path), "--at=0", "--json")
    assert code == 0
    assert '"margin": Infinity,' in out and '"radius": Infinity,' in out
    assert json.loads(out)["sufficient"]["radius"] == math.inf
    path.write_text('[problem] dim=1\n[scenario] f="x(1)"\n'
                    '[nlp_ineq] g="exp(x(1)) - exp(x(1))"\n')
    _, out, _ = run_cli("check", "--file", str(path), "--at=1000", "--json")
    assert '"max_violation": NaN,' in out


def test_check_kink_in_t_alone_is_differentiable_in_x(tmp_path):
    """abs(t) has no derivative at the active grid point t = 0, but only
    x-derivatives are needed; the parent ended with exit 1."""
    path = tmp_path / "kink.prob"
    path.write_text('[problem] dim=2\n[scenario] f="x(1)"\n'
                    '[scenario] f="-x(1)"\n'
                    '[semiinf] g="x(2) - 1 - abs(t)" grid=-1:1:21\n')
    code, out, err = run_cli("check", "--file", str(path), "--at", "0,1",
                             "--json")
    assert (code, err) == (3, "")
    report = json.loads(out)
    assert report["feasibility"]["feasible"] is True
    assert report["necessary"]["zero_in_D"] is True


def test_check_differentiates_past_constant_kinks(tmp_path):
    """abs(0.0) and sqrt(0.0) are constants without derivatives, so no
    derivative rule runs on them: differentiating them ended the check
    with exit 1 and "error: abs has no derivative at 0"."""
    path = tmp_path / "kinks.prob"
    path.write_text('[problem] dim=1\n[scenario] f="x(1) + abs(0.0)"\n'
                    '[scenario] f="-x(1)*sqrt(0.0) - x(1)"\n')
    code, out, err = run_cli("check", "--file", str(path), "--at", "0",
                             "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["necessary"]["zero_in_D"] is True


def test_discretize_caps_past_a_kink_in_t(tmp_path):
    """All five grid points are active, so the cap ranks them by gradient
    norm in x, which abs(t) at t = 0 does not enter; the parent ended with
    exit 1."""
    src = tmp_path / "kink.prob"
    src.write_text('[problem] dim=2\n[scenario] f="x(1)"\n'
                   '[scenario] f="-x(1)"\n'
                   '[semiinf] g="x(2) - 1 + abs(t) - abs(t)" grid=-1:1:5\n')
    code, out, err = run_cli("discretize", "--file", str(src), "--at", "0,1")
    assert code == 0
    assert err == "warning: block 0 kept 3 of its active points (cap d+1)\n"
    assert out.count("abs(") == 6


def test_check_rejects_a_penalty_that_is_not_finite_and_nonnegative():
    for value in ("-1", "nan", "inf"):
        code, out, err = run_cli("check", "--registry", "bazaraa45",
                                 "--penalty", value, "--json")
        assert code == 1 and out == ""
        assert err.startswith("error: --penalty must be a finite number")
    assert run_cli("check", "--registry", "bazaraa45", "--penalty", "0")[0] \
        == 3


def test_import_leaves_scipy_stats_unloaded():
    """No scipy module is loaded by importing conecert or by a sampled
    cone check: the direction sampler draws with numpy alone."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, sys\n"
         "import conecert\n"
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
         "from conecert.cli import main\n"
         "with contextlib.redirect_stdout(io.StringIO()):\n"
         "    codes = [main(['check', '--registry', 'soc-example',\n"
         "                   '--soc-dirs', '512']),\n"
         "             main(['check', '--registry', 'sdp-example',\n"
         "                   '--sdp-dirs', '128'])]\n"
         "print(codes)\n"
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["[]", "[0, 0]", "[]"]


def test_check_counts_must_be_positive_integers(tmp_path):
    """dim, an sdp size and a grid's point count are counts: a value that
    is not a decimal integer of at least 1 is an input error naming its
    section and line.  inf and nan ended in a traceback before, and 2.7
    and 2.5 were truncated silently."""
    head = '[problem] dim=1\n[scenario] f="x(1)"\n'
    cases = [
        ("[problem] dim=inf\n", "dim", "'inf' in [problem] (line 1)"),
        ("[problem] dim=nan\n", "dim", "'nan' in [problem] (line 1)"),
        ('[problem] dim=2.7\n[scenario] f="x(1)"\n', "dim",
         "'2.7' in [problem] (line 1)"),
        ("[problem] dim=0\n", "dim", "'0' in [problem] (line 1)"),
        # past 18 digits: no list of that length could be made
        ("[problem] dim=" + "1" * 19 + "\n", "dim",
         f"'{'1' * 19}' in [problem] (line 1)"),
        (head + '[sdp] size=inf entry(1,1)="x(1)"\n', "size",
         "'inf' in [sdp] (line 3)"),
        (head + '[sdp] size=nan entry(1,1)="x(1)"\n', "size",
         "'nan' in [sdp] (line 3)"),
        (head + '[semiinf] g="x(1) - t" grid=0:1:inf\n',
         "the grid's point count", "'inf' in [semiinf] (line 3)"),
        (head + '[semiinf] g="x(1) - t" grid=0:1:nan\n',
         "the grid's point count", "'nan' in [semiinf] (line 3)"),
        (head + '[semiinf] g="x(1) - t" grid=0:1:2.5\n',
         "the grid's point count", "'2.5' in [semiinf] (line 3)"),
    ]
    path = tmp_path / "count.prob"
    for text, key, where in cases:
        path.write_text(text)
        code, out, err = run_cli("check", "--file", str(path), "--at", "0")
        assert (code, out) == (1, "")
        assert err == (f"error: {key} must be a positive integer, "
                       f"got {where}\n")
    # a count written as a decimal integer still loads
    path.write_text(head + '[semiinf] g="x(1) - t" grid=0:1:2\n')
    assert run_cli("check", "--file", str(path), "--at", "0")[0] != 1


def test_check_counts_past_their_limits_are_input_errors(tmp_path):
    """dim, an sdp size and a grid's point count each have a limit, and a
    larger count is an input error raised before anything of that size
    is allocated: each one-line file loads within a small tracemalloc
    peak.  Before, dim=1000000000 asked for gigabytes of bound lists."""
    head = '[problem] dim=1\n[scenario] f="x(1)"\n'
    cases = [
        ("[problem] dim={}\n", "dim", pb.MAX_DIM, "[problem] (line 1)"),
        (head + '[sdp] size={} entry(1,1)="x(1)"\n', "size",
         pb.MAX_SDP_SIZE, "[sdp] (line 3)"),
        (head + '[semiinf] g="x(1) - t" grid=0:1:{}\n',
         "the grid's point count", pb.MAX_GRID_POINTS, "[semiinf] (line 3)"),
    ]
    path = tmp_path / "count.prob"
    for text, key, limit, where in cases:
        for count in (limit + 1, 10 ** 9, 10 ** 18 - 1):
            path.write_text(text.format(count))
            tracemalloc.start()
            try:
                code, out, err = run_cli("check", "--file", str(path),
                                         "--at", "0")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (code, out) == (1, ""), count
            assert err == (f"error: {key} must be at most {limit}, "
                           f"got '{count}' in {where}\n")
            assert peak < 2 ** 20, (key, count, peak)
    # the limit itself still loads
    path.write_text(head + '[semiinf] g="x(1) - t" grid=0:1:{}\n'.format(
        pb.MAX_GRID_POINTS))
    assert len(pb.load_problem_file(str(path)).blocks[0].grid) \
        == pb.MAX_GRID_POINTS


def test_check_soc_components_past_their_limit_are_input_errors(tmp_path):
    """A [soc] has at most MAX_SOC_SIZE = 1001 components (l = 1000, the
    dimensions the vendored Sobol direction numbers cover); a component
    past it is an input error naming the key, section and line, raised
    before anything of its size is allocated.  A component index in
    non-ASCII digits is an unknown key; before, g\u00b2 ended in a
    traceback from int()."""
    head = '[problem] dim=1\n[scenario] f="x(1)"\n[soc] g1="x(1)"\n'
    path = tmp_path / "soc.prob"
    for key in (f"g{pb.MAX_SOC_SIZE + 1}", "g1000000000", "g" + "9" * 5000):
        path.write_text(head + f'  {key}="x(1)"\n')
        code, out, err = run_cli("check", "--file", str(path), "--at", "0")
        assert (code, out) == (1, ""), key
        assert err == (f"error: soc has at most {pb.MAX_SOC_SIZE} "
                       f"components, got {key!r} in [soc] (line 4)\n")
    path.write_text(head + '  g\u00b2="x(1)"\n', encoding="utf-8")
    code, out, err = run_cli("check", "--file", str(path), "--at", "0")
    assert (code, out, err) == (
        1, "", "error: unknown key 'g\u00b2' in [soc] (line 4)\n")
    # the limit itself loads, with leading zeros in a key as before
    comps = " ".join(f'g{i}="x(1)"' for i in range(2, pb.MAX_SOC_SIZE + 1))
    problem = pb.load_problem_text(head.replace('g1=', 'g001=') + comps)
    assert problem.blocks[0].l == pb.MAX_SOC_SIZE - 1 == 1000


def test_check_sdp_entry_indices_are_ascii_digits(tmp_path):
    """An [sdp] entry key takes its indices in ASCII digits, leading zeros
    allowed, as a [soc] key does; any other index is a bad entry key.
    Before, int() read entry(\u0661,\u0661) as entry(1,1) and
    entry(1_0,1_0) as entry(10,10), and both files were checked."""
    head = '[problem] dim=1\n[scenario] f="x(1)"\n[sdp] size={}\n'
    path = tmp_path / "sdp.prob"
    for size, key in ((1, "entry(\u0661,\u0661)"), (10, "entry(1_0,1_0)")):
        entries = [f'entry({i},{j})="{-1 if i == j else 0}"'
                   for i in range(1, size + 1) for j in range(i, size + 1)]
        entries[-1] = f'{key}="-1"'
        path.write_text(head.format(size) + "\n".join(entries) + "\n",
                        encoding="utf-8")
        code, out, err = run_cli("check", "--file", str(path), "--at", "0")
        assert (code, out) == (1, ""), key
        assert err == (f"error: bad entry key {key!r} in [sdp] "
                       f"(line {len(entries) + 3})\n")
    # an index past int()'s 4,300 digits is outside the matrix, as is
    # any other index past the size; leading zeros do not count
    for key, at in (("entry(" + "9" * 5000 + ",1)", "9" * 5000 + ",1"),
                    ("entry(" + "0" * 5000 + "2,1)", "2,1")):
        path.write_text(head.format(1) + f'{key}="-1"\n')
        code, out, err = run_cli("check", "--file", str(path), "--at", "0")
        assert (code, out) == (1, ""), key[:12]
        assert err == f"error: entry({at}) outside matrix in [sdp] (line 4)\n"
    problem = pb.load_problem_text(head.format(2) + 'entry(01,001)="x(1)" '
                                   'entry(1,02)="0" entry(002,2)="-1"\n'
                                   f'entry({"0" * 5000}1,1)="x(1) - 1"\n')
    assert pb.problem_to_text(problem).endswith(
        '[sdp] size=2 entry(1,1)="x(1) - 1.0" entry(1,2)="0.0" '
        'entry(2,2)="-1.0"\n')


def test_check_huge_gradients_raise_no_overflow_warning(tmp_path):
    """Scenario gradients with entries of 1e160 have squares past the
    largest float; their norms (the hull pool's auxiliary vector, the unit
    rows of the pool) come from ``row_norms``, which takes hypot's norm of
    such a row, so no flavor warns of an overflow, and each exits 2.
    Before, numpy warned of an overflow in dot and in matmul under
    --flavor weak and generalised."""
    path = tmp_path / "tri.prob"
    path.write_text('[problem] dim=2\n[scenario] f="1e160*x(1)"\n'
                    '[scenario] f="-1e160*x(1) + 1e160*x(2)"\n'
                    '[scenario] f="-1e160*x(2)"\n')
    for flavor in ("plain", "weak", "generalised"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli("check", "--file", str(path),
                                   "--at", "0,0", "--flavor", flavor)
        assert (code, err) == (2, ""), flavor


def test_check_semiinf_grid_ends_must_be_finite(tmp_path):
    """A grid end of inf or nan is an input error, reported alone.  Before,
    grid=0:inf:3 and nan:1:3 printed numpy's RuntimeWarning and a message
    about the grid's order, and inf:inf:1 loaded a grid point t = inf."""
    path = tmp_path / "grid.prob"
    for grid in ("0:inf:3", "nan:1:3", "inf:inf:1", "-inf:0:2", "0:nan:1"):
        path.write_text('[problem] dim=1\n[scenario] f="x(1)"\n'
                        f'[semiinf] g="x(1) - t" grid={grid}\n')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli("check", "--file", str(path), "--at",
                                     "0")
        assert (code, out, caught) == (1, "", []), grid
        assert err == ("error: grid ends must be finite numbers in "
                       "[semiinf] (line 3)\n"), grid


def test_check_rejects_negative_direction_counts_and_dimension_zero():
    for flag, value, minimum in (("--soc-dirs", "-3", 0),
                                 ("--sdp-dirs", "-1", 0), ("--dim", "0", 1),
                                 ("--seed", "-1", 0)):
        code, out, err = run_cli("check", "--registry", "linf", "--dim", "2",
                                 flag, value)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: argument {flag}: must be at least "
                            f"{minimum}, got {value}\n")
    assert run_cli("check", "--registry", "dem", "--soc-dirs", "0")[0] == 0


def test_check_flat_gradients_have_no_interior(tmp_path):
    """The gradients +-e_1 span one axis of the plane, so the combination
    system's x(2) row is redundant: phase 1 drops it, and the +-e_2 probes
    must still pin the margin at 0 rather than read it unbounded."""
    path = tmp_path / "flat.prob"
    path.write_text('[problem] dim=2\n[scenario] f="x(1)"\n'
                    '[scenario] f="-x(1)"\n')
    code, out, _ = run_cli("check", "--file", str(path), "--at", "0,0",
                           "--json")
    report = json.loads(out)
    assert code == 3 and report["necessary"]["zero_in_D"]
    suf = report["sufficient"]
    assert not suf["zero_in_int_D"]
    assert suf["margin"] == suf["radius"] == 0.0
    assert math.copysign(1.0, suf["margin"]) == 1.0
