"""Print the `conecert check --json` report of every case in a fixed corpus.

    python3 tools/report_corpus.py > reports.txt

The corpus is the six fixed registry problems under each flag set, `linf`
for d = 2..8 with the second-order and penalty checks and for d = 9, 10
with the default flags, the sampled cone examples with more directions
and other seeds, a few small problem files whose penalty verdict flips
with the penalty parameter, small files with values undefined at
the point, two negative-definite matrix blocks with entries near the
largest float, three small files whose second-order tests have
critical directions, a file whose gradients span one axis of the
plane, so the interior margin meets a redundant row, the two largest
sampled searches: `sdp-example` with 1,024 directions, whose plain
cadre the membership basis gives where a smallest-p subset search
exhausts its budget, and `soc-example` with 4,096 directions and the
second-order tests, the least-deviation fit of t^4 on 401 grid points,
one scenario per point, and, last, a Chebyshev file with a NaN target,
an input error.  Each case prints one header line,
`== <argv> -> exit <code>`, then its report or error.

Run it at two commits and compare the outputs with `cmp`: a change that
claims to leave reports alone must print the same bytes.  The cases of
`EXPECTED_ERRORS` must exit 1 (an undefined value is an input error);
the process exits 1 when one of them does not, or when any other case
exits 1 (a usage or input error), so a corpus case that stops loading
does not pass unnoticed.  It also exits 1 when a case prints a Python
warning to stderr (a `<file>:<line>: <Category>Warning: ` line, such as
numpy's overflow `RuntimeWarning`), which two runs of one commit print
alike, when a report prints a number `-0.0`: reports write every
zero unsigned, and when a report breaks one of the paper's implications
between its verdicts (`broken_implications`), named on stderr.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from conecert import cli  # noqa: E402

FIXED = ("dem", "madsen", "bazaraa45", "counterexample-3-2", "soc-example",
         "sdp-example")
FLAG_SETS = ([], ["--second-order"], ["--penalty", "10"],
             ["--penalty", "0.5"], ["--oracle"], ["--flavor", "plain"],
             ["--flavor", "generalised"], ["--flavor", "weak"],
             ["--second-order", "--penalty", "1", "--oracle",
              "--flavor", "weak"])

ONE = '[problem] dim=1\n[scenario] f="x(1)"\n'
SQUARE = '[problem] dim=1\n[scenario] f="x(1)^2"\n'
FILES = {
    # small problems whose penalty verdict depends on the cap of each
    # group of cone weights: one group for a semi-infinite block, one per
    # constraint for separable blocks
    "semiinf.prob": '[problem] dim=2\n[scenario] f="-x(1)"\n'
                    '[semiinf] g="x(1) + x(2)*t" grid=-1:1:2\n',
    "nlp_ineq.prob": '[problem] dim=2\n[scenario] f="-x(1)"\n'
                     '[nlp_ineq] g="x(1) - x(2)" g="x(1) + x(2)"\n',
    "nlp_eq.prob": '[problem] dim=2\n[scenario] f="x(1) + x(2)^2"\n'
                   '[nlp_eq] b="x(1) - x(2)^2"\n',
    # values undefined at the point, each an error naming the reason met
    # first: in a scenario, a matrix entry, a power, a semi-infinite grid
    # point and an expression with two undefined parts
    "div.prob": '[problem] dim=1\n[scenario] f="1/x(1)"\n',
    "sdp_sqrt.prob": ONE + '[sdp] size=1 entry(1,1)="sqrt(x(1))"\n',
    "pow.prob": '[problem] dim=1\n[scenario] f="x(1)^400"\n',
    "semiinf_div.prob": ONE + '[semiinf] g="x(1) - 1/t" grid=-1:1:3\n',
    "two_reasons.prob": '[problem] dim=2\n'
                        '[scenario] f="sqrt(x(1))/x(2) + (x(2) - 1)^-1"\n',
    # undefined where the oracle samples (skipped there), and a matrix
    # entry undefined at the point (infeasible)
    "probe.prob": ONE + '[nlp_ineq] g="0.05 - x(1)" g="sqrt(x(1)) - 2"\n',
    "sdp_nan.prob": ONE + '[sdp] size=2 entry(1,1)="exp(x(1)) - exp(x(1))" '
                          'entry(1,2)="0" entry(2,2)="1"\n',
    # negative-definite matrices with entries near the largest float,
    # feasible at 0: a penalty term of 0.0, printed without an overflow
    # warning
    "sdp_huge.prob": SQUARE + '[sdp] size=2 entry(1,1)="-1e308" '
                              'entry(1,2)="0" entry(2,2)="-1"\n',
    "sdp_large.prob": SQUARE + '[sdp] size=2 entry(1,1)="-1e200" '
                               'entry(1,2)="1e199" entry(2,2)="-1e200"\n',
    # second-order tests with critical directions: a multiplier set
    # unbounded along them (the only feasible point is 0), two multiplier
    # vertices with forms -1 and +1 along +-e_2, and a point refuted by a
    # negative form
    "pinch.prob": '[problem] dim=2\n[scenario] f="x(1)"\n'
                  '[nlp_ineq] g="x(1) + 2*x(2)^2" g="-x(1) - x(2)^2"\n',
    "two_vertices.prob": '[problem] dim=2\n[scenario] f="x(1) + x(2)^2"\n'
                         '[scenario] f="-x(1) - 2*x(2)^2"\n'
                         '[scenario] f="x(1) + 3*x(2)^2"\n',
    "ineq3.prob": '[problem] dim=3\n[scenario] f="x(1) + x(2)^2 - x(3)^2"\n'
                  '[scenario] f="-x(2) + x(3)^2"\n'
                  '[nlp_ineq] g="-x(1) + x(2) - x(3)^2" '
                  'g="-x(1) - x(3)^2 + x(2)^2"\n',
    # gradients +-e_1 only: phase 1 drops the x(2) row of the combination
    # system, and the +-e_2 probes must still read margin 0
    "flat.prob": '[problem] dim=2\n[scenario] f="x(1)"\n'
                 '[scenario] f="-x(1)"\n',
    # a NaN target: an input error, not an objective value of nan
    "nan_psi.prob": '[problem] dim=1 kind=chebyshev\n'
                    '[scenario] f="x(1)" psi=nan\n'
                    '[scenario] f="x(1)" psi=0.5\n',
}


def chebyshev_fit(n=4, points=401):
    """The best approximation of t^n by polynomials of degree < n on a
    cosine grid of ``points`` points, written as a discretised Chebyshev
    fit is written: one [scenario] line per grid point, signed ``repr``
    coefficients, the target t^n as psi.  The grid holds the n+1 extrema
    of T_n when n divides points - 1."""
    lines = [f"[problem] dim={n} kind=chebyshev"]
    for k in range(points):
        t = math.cos(math.pi * k / (points - 1))
        terms = ["x(1)"]
        for j in range(1, n):
            a = t ** j
            terms.append(f"{'-' if a < 0 else '+'} {abs(a)!r}*x({j + 1})")
        lines.append(f'[scenario] f="{" ".join(terms)}" psi={t ** n!r}')
    return "\n".join(lines) + "\n"


# t^4 - T_4(t)/8 = t^2 - 1/8 attains the least deviation 1/8 at the five
# extrema of T_4: a scenario-heavy file, read line by line by the loader
FILES["cheb4.prob"] = chebyshev_fit()
FILE_CASES = (("semiinf.prob", "0.75"), ("semiinf.prob", "1.05"),
              ("nlp_ineq.prob", "0.75"), ("nlp_eq.prob", "0.9"),
              ("nlp_eq.prob", "1.1"))
# a line that the warnings module prints: "<file>:<line>: <Category>: ..."
WARNING_LINE = re.compile(r"^.*:\d+: \w*Warning: ", re.MULTILINE)
# a -0.0 that stands as a number of its own, not a part of -0.05 or a name
NEGATIVE_ZERO = re.compile(r"(?<![\w.])-0\.0(?![\w.])")
# the cases that must exit 1: an undefined value at the point, then a
# target that is not finite, run last so that the cases before it print
# the bytes they printed before it was added
UNDEFINED = [["--file", "div.prob", "--at=0"],
             ["--file", "sdp_sqrt.prob", "--at=-1"],
             ["--file", "pow.prob", "--at=10"],
             ["--file", "semiinf_div.prob", "--at=0"],
             ["--file", "two_reasons.prob", "--at=-1,1"]]
NAN_PSI = ["--file", "nan_psi.prob", "--at=0"]
EXPECTED_ERRORS = UNDEFINED + [NAN_PSI]


def cases():
    for name in FIXED:
        for flags in FLAG_SETS:
            yield ["--registry", name, *flags]
    for d in range(2, 9):
        yield ["--registry", "linf", "--dim", str(d), "--second-order",
               "--penalty", "1"]
    # default flags: the margin LP alone, with no subset search
    for d in (9, 10):
        yield ["--registry", "linf", "--dim", str(d)]
    yield ["--registry", "soc-example", "--soc-dirs", "512"]
    yield ["--registry", "sdp-example", "--sdp-dirs", "128"]
    for seed in (1, 2):
        yield ["--registry", "sdp-example", "--sdp-dirs", "128",
               "--seed", str(seed)]
    for path, c in FILE_CASES:
        yield ["--file", path, "--at", "0,0", "--penalty", c]
    yield ["--file", "probe.prob", "--at=0.05", "--oracle"]
    yield ["--file", "sdp_nan.prob", "--at=1000"]
    yield from UNDEFINED
    for path in ("sdp_huge.prob", "sdp_large.prob"):
        yield ["--file", path, "--at=0", "--penalty", "1"]
    for path, at in (("pinch.prob", "0,0"), ("two_vertices.prob", "0,0"),
                     ("ineq3.prob", "0,0,0")):
        yield ["--file", path, "--at", at, "--second-order"]
    yield ["--file", "flat.prob", "--at", "0,0"]
    # the plain cadre over 1,024 sampled matrix directions, and the null
    # basis of 4,100 gradient and cone rows
    yield ["--registry", "sdp-example", "--sdp-dirs", "1024"]
    yield ["--registry", "soc-example", "--soc-dirs", "4096",
           "--second-order"]
    yield ["--file", "cheb4.prob", "--at=-0.125,0,1,0", "--second-order",
           "--penalty", "10"]
    yield NAN_PSI


def broken_implications(report) -> list:
    """The implications between the report's verdicts that it breaks, by
    name: a plain cadre exactly when 0 is in D, 0 in int D only when 0 is
    in D, a complete alternance only when 0 is in int D, and a least
    penalty parameter exactly when 0 is in D.  A report without the
    first-order checks (an infeasible point) breaks none."""
    nec, suf = report.get("necessary"), report.get("sufficient")
    if not nec or not suf:
        return []
    member, interior = nec["zero_in_D"], suf["zero_in_int_D"]
    complete = (report.get("flavor_search") or {}).get("complete")
    pen = report.get("penalty")
    holds = {
        "necessary.cadre <=> zero_in_D": (nec["cadre"] is not None) == member,
        "zero_in_int_D => zero_in_D": member or not interior,
        "flavor_search.complete => zero_in_int_D":
            complete is None or interior,
        "penalty.c_min <=> zero_in_D":
            pen is None or (pen["c_min"] is not None) == member,
    }
    return [name for name, ok in holds.items() if not ok]


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for path, text in FILES.items():
            with open(os.path.join(tmp, path), "w", encoding="utf-8") as fh:
                fh.write(text)
        # relative paths keep the reports' source field the same on each run
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for argv in cases():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(["check", *argv, "--json"])
                broken = broken_implications(
                    json.loads(out.getvalue()) if out.getvalue() else {})
                for name in broken:
                    print(f"{' '.join(argv)}: breaks {name}", file=sys.stderr)
                failed += ((code == cli.EXIT_ERROR) != (
                    argv in EXPECTED_ERRORS)
                    or bool(WARNING_LINE.search(err.getvalue()))
                    or bool(NEGATIVE_ZERO.search(out.getvalue()))
                    or bool(broken))
                print(f"== {' '.join(argv)} -> exit {code}")
                print(out.getvalue() + err.getvalue(), end="")
        finally:
            os.chdir(cwd)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
