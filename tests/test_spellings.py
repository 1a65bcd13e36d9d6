"""Numbers, counts and indices given as text follow one rule wherever they
are read: a problem file, a command-line flag and the keys of a stored
report accept exactly the spellings the file grammar accepts for that kind
of value, within the surface's own range, and refuse every other spelling
as an input error (exit 1), never with a traceback.

``malformed_inputs`` lists each malformed command line these tests send,
with the exit codes allowed, so that the CI workflow also runs each one
as ``python -m conecert.cli`` in a subprocess and fails on a traceback.
"""

import contextlib
import copy
import io
import itertools
import json

from conecert import firstorder as fo
from conecert import problem as pb
from conecert.cli import main
from conecert.geometry import PointContext, SamplingSpec

# a count or an index: decimal ASCII digits, leading zeros allowed; a count
# on its own may have spaces around it and a '+' before it
COUNT_SPELLINGS = ["3", "03", "+3", " 3 ", "٣", "3_0", "1e3", "-3",
                   "nan", "9" * 5000]
COUNTS = {"3", "03", "+3", " 3 "}
KEY_INDICES = {"3", "03"}
# a number: what float() reads, in ASCII and without '_' separators
NUMBER_SPELLINGS = ["1", "1.5e-3", " 2 ", "1_0", "١", "inf", "nan"]
NUMBERS = {"1", "1.5e-3", " 2 ", "inf", "nan"}
FINITE = {"1", "1.5e-3", " 2 "}
# a bound may be infinite; a NaN bound made every point infeasible
BOUNDS = NUMBERS - {"nan"}

_SDP = ('[problem] dim=1\n[scenario] f="x(1)^2"\n[sdp] size={size} '
        'entry(1,1)="-1" entry(1,2)="0" entry(1,{index})="0" '
        'entry(2,2)="-1" entry(2,3)="0" entry(3,3)="x(1) - 1"\n')
_TRIANGLE = "1,0;-1,1;0,-1"

# surface -> (the spellings it accepts, the command line that sends it a
# spelling, given a function that writes a problem file and returns its
# path); each accepted command line exits 0, 2 or 3
SURFACES = {
    "dim=": (COUNTS, lambda write, s: [
        "check", "--file", write(f'[problem] dim="{s}"\n[scenario] '
                                 f'f="x(1)^2 + x(2)^2 + x(3)^2"\n'),
        "--at", "0,0,0"]),
    "size=": (COUNTS, lambda write, s: [
        "check", "--file", write(_SDP.format(size=f'"{s}"', index=3)),
        "--at", "0"]),
    "the grid count": (COUNTS, lambda write, s: [
        "check", "--file", write('[problem] dim=1\n[scenario] f="x(1)"\n'
                                 f'[semiinf] g="t - x(1)" grid="0:1:{s}"\n'),
        "--at", "1"]),
    "[soc] key": (KEY_INDICES, lambda write, s: [
        "check", "--file", write('[problem] dim=1\n[scenario] f="x(1)^2"\n'
                                 f'[soc] g1="1" g2="x(1)" g{s}="0"\n'),
        "--at", "0"]),
    "[sdp] key": (KEY_INDICES, lambda write, s: [
        "check", "--file", write(_SDP.format(size=3, index=s)),
        "--at", "0"]),
    "--dim": (COUNTS, lambda write, s: [
        "check", "--registry", "linf", "--dim", s]),
    "--soc-dirs": (COUNTS, lambda write, s: [
        "check", "--registry", "soc-example", "--soc-dirs", s]),
    "--sdp-dirs": (COUNTS, lambda write, s: [
        "check", "--registry", "sdp-example", "--sdp-dirs", s]),
    "--seed": (COUNTS, lambda write, s: [
        "check", "--registry", "dem", "--seed", s]),
    "--k0": (COUNTS, lambda write, s: [
        "verify-alternance", "--vectors", _TRIANGLE, "--k0", s]),
    "psi": (FINITE, lambda write, s: [
        "check", "--file", write('[problem] dim=1 kind=chebyshev\n'
                                 f'[scenario] f="x(1)" psi="{s}"\n'
                                 '[scenario] f="-x(1)" psi=0\n'),
        "--at", "0"]),
    "lb": (BOUNDS, lambda write, s: [
        "check", "--file", write('[problem] dim=1\n[scenario] f="x(1)"\n'
                                 f'[set] lb="{s}"\n'), "--at", "0"]),
    "--at": (FINITE, lambda write, s: [
        "check", "--registry", "dem", f"--at={s},-3"]),
    "--vectors": (FINITE, lambda write, s: [
        "verify-alternance", f"--vectors={s},0;0,1;-1,-1"]),
    "--penalty": (FINITE, lambda write, s: [
        "check", "--registry", "bazaraa45", "--penalty", s]),
    "--eps-active": (FINITE, lambda write, s: [
        "check", "--registry", "dem", "--eps-active", s]),
    "--eps-det": (FINITE, lambda write, s: [
        "verify-alternance", "--vectors", _TRIANGLE, "--eps-det", s]),
}
_NUMBER_SURFACES = ("psi", "lb", "--at", "--vectors", "--penalty",
                    "--eps-active", "--eps-det")


def spelled_inputs(directory):
    """(surface, spelling, argv, accepted) for each spelling of its kind
    sent to each command-line surface; problem files go in directory."""
    files = itertools.count()

    def write(text):
        path = directory / f"spelled-{next(files)}.prob"
        path.write_text(text, encoding="utf-8")
        return str(path)
    for surface, (accepts, argv) in SURFACES.items():
        spellings = (NUMBER_SPELLINGS if surface in _NUMBER_SURFACES
                     else COUNT_SPELLINGS)
        for s in spellings:
            yield surface, s, argv(write, s), s in accepts


def deep_inputs(directory):
    """(argv, the exit codes allowed) for a 5,000-term sum and a chain of
    2,000 powers ^1, checks that run, for 960 minus signs in a row, which
    discretize prints, and for 3,000 nested parentheses and 5,000 minus
    signs in a row, input errors."""
    head = '[problem] dim=1\n[scenario] f="-x(1)"\n'
    cases = (("sum", " + ".join(["x(1)"] * 5000), "check", {0, 2, 3}),
             ("powers", "x(1)" + "^1" * 2000, "check", {0, 2, 3}),
             ("signs-960", "-" * 960 + "x(1)", "discretize", {0}),
             ("parens", "(" * 3000 + "x(1)" + ")" * 3000, "check", {1}),
             ("signs", "-" * 5000 + "x(1)", "check", {1}))
    for name, text, command, codes in cases:
        path = directory / f"deep-{name}.prob"
        path.write_text(head + f'[scenario] f="{text}"\n')
        yield [command, "--file", str(path), "--at", "0"], codes


def malformed_inputs(directory):
    """(argv, the exit codes allowed) of each malformed command line of
    these tests: every refused spelling (exit 1), the deep nestings (exit
    1), the long sum and the chain of powers (0, 2 or 3) and the printed
    chain of minus signs (0)."""
    for _, _, argv, accepted in spelled_inputs(directory):
        if not accepted:
            yield argv, {1}
    yield from deep_inputs(directory)


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def test_every_surface_reads_spellings_as_the_file_grammar_does(tmp_path):
    """Each surface accepts exactly its kind's spellings within its range:
    a count may be padded and signed '+', an index in a key may not, and
    a number is ASCII without '_'.  Before, the command line read
    --at=٠,-٣, --dim ٣, --penalty 1_0 and
    --vectors "١,0;0,1;-1,-1" with int() and float(), and
    --soc-dirs past the sampler's limit ended in a traceback."""
    refused = []
    for surface, s, argv, accepted in spelled_inputs(tmp_path):
        code, out, err = run_cli(*argv)
        if accepted:
            assert code in (0, 2, 3), (surface, s, err)
        else:
            assert (code, out) == (1, ""), (surface, s)
            assert "error: " in err and err.endswith("\n"), (surface, s)
            refused.append((surface, s))
    # every surface refuses some spelling, and "3" and "1" nowhere
    assert {surface for surface, _ in refused} == set(SURFACES)
    assert not {s for _, s in refused} & {"3", "03", "1"}


def test_direction_counts_stop_at_the_samplers_limit():
    """unit_directions draws one point more than it returns, and a draw
    holds at most 2^30 points; a count past it is refused before any
    draw, whatever the problem.  Before, --soc-dirs 1073741824 on a
    problem with a [soc] block ended in the sampler's ValueError."""
    from conecert.cones import MAX_DIRECTIONS, SOBOL_BITS
    assert MAX_DIRECTIONS == (1 << SOBOL_BITS) - 1
    for flag in ("--soc-dirs", "--sdp-dirs"):
        code, out, err = run_cli("check", "--registry", "dem", flag,
                                 str(MAX_DIRECTIONS + 1))
        assert (code, out) == (1, "")
        assert err.endswith(f"error: argument {flag}: must be an integer "
                            f"of at most {MAX_DIRECTIONS}, got "
                            f"'{MAX_DIRECTIONS + 1}'\n")


def _witness_report():
    """A check's JSON report whose one multiplier is on constraint 3 of
    block 3, so that both of its keys are "3"."""
    inactive = " ".join(['g="-x(1) - 5"'] * 4)
    text = ('[problem] dim=1\n[scenario] f="x(1)"\n'
            + f"[nlp_ineq] {inactive}\n" * 3
            + '[nlp_ineq] g="-x(1) - 5" g="-x(1) - 5" g="-x(1) - 5" '
              'g="-x(1)"\n')
    problem = pb.load_problem_text(text)
    ctx = PointContext(problem, [0.0], SamplingSpec())
    report = {"candidate": [0.0], "tolerances": {
                  "eps_active": 1e-8, "eps_rank": 1e-9, "eps_det": 1e-8,
                  "eps_feas": 1e-8, "eps_pos": 1e-8},
              "necessary": json.loads(json.dumps(
                  fo.necessary_check(ctx).to_json()))}
    return problem, report


def test_stored_dual_keys_are_indices_in_keys():
    """A stored witness names each block and constraint by an index in
    a key: ASCII digits, leading zeros allowed, no sign or space.  Any
    other key fails the re-check with its reason; before, int() read
    "٣" and " 3 " as 3, and "-3" wrapped around to block 1."""
    problem, report = _witness_report()
    duals = report["necessary"]["multipliers"]["nlp_ineq"]
    assert duals == {"3": {"3": 1.0}}
    assert fo.reverify_report(problem, report)["ok"] is True
    for s in COUNT_SPELLINGS:
        for where in ("block", "constraint"):
            tampered = copy.deepcopy(report)
            keys = {"block": (s, "3"), "constraint": ("3", s)}[where]
            tampered["necessary"]["multipliers"]["nlp_ineq"] = {
                keys[0]: {keys[1]: 1.0}}
            res = fo.reverify_report(problem, tampered)
            assert res["ok"] is (s in KEY_INDICES), (where, s)
            if s not in KEY_INDICES:
                check, = [c for c in res["checks"]
                          if c["what"] == "necessary.multipliers"]
                name = "block" if where == "block" else "nlp_ineq constraint"
                assert check == {"what": "necessary.multipliers", "ok": False,
                                 "reason": f"{name} {s!r} is not one of "
                                           f"0..3"}, (where, s)


def test_long_sums_check_and_deep_nesting_is_an_input_error(tmp_path):
    """A sum of 5,000 terms parses into a left spine 5,000 nodes deep,
    which evaluation, printing and rebuilding walk by loops: it checks,
    and prints and reads back to the same text, as does an [set] equality
    row of 5,000 terms.  So do a chain of 2,000 powers ^1 and one of 960
    minus signs, unary nodes walked by loops too; before, checking the
    first and printing the second ended in a RecursionError; the chain
    of powers prints without parentheses, as it parses.  3,000
    nested parentheses and 5,000 minus signs in a row pass the parser's
    depth limit and are input errors.  Before, each ended in a
    RecursionError."""
    for argv, codes in deep_inputs(tmp_path):
        code, out, err = run_cli(*argv)
        assert code in codes, argv[2]
        if argv[0] == "discretize":
            assert out.count("-") == 961 and err == ""
        if codes == {1}:
            assert out == "" and err.endswith(
                ": expression nested too deeply in [scenario] (line 3)\n")
    problem = pb.load_problem_file(tmp_path / "deep-sum.prob")
    text = pb.problem_to_text(problem)
    assert text.count("x(1)") == 5001
    assert pb.problem_to_text(pb.load_problem_text(text)) == text
    # a chain of powers prints as it parses, left to right, with no
    # parentheses, and reads back through the loader and discretize;
    # before, it printed 1,999 nested parentheses, which the loader
    # refused
    text = pb.problem_to_text(pb.load_problem_file(
        tmp_path / "deep-powers.prob"))
    assert text.endswith('f="x(1)' + "^1" * 2000 + '"\n')
    assert pb.problem_to_text(pb.load_problem_text(text)) == text
    code, out, err = run_cli("discretize", "--file",
                             str(tmp_path / "deep-powers.prob"), "--at", "0")
    assert (code, out, err) == (0, text, "")
    text = pb.problem_to_text(pb.load_problem_file(
        tmp_path / "deep-signs-960.prob"))
    assert text.endswith('f="' + "-" * 960 + 'x(1)"\n')
    assert pb.problem_to_text(pb.load_problem_text(text)) == text
    long_sum = " + ".join(["x(1)"] * 5000)
    problem = pb.load_problem_text('[problem] dim=1\n[scenario] f="x(1)"\n'
                                   f'[set] eq="{long_sum} = 0"\n')
    assert problem.set_A.E == ((5000.0,),)
    assert pb.problem_to_text(problem).endswith(
        '[set] eq="5000.0*x(1) = 0.0"\n')
