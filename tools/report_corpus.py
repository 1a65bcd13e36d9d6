"""Print the `conecert check --json` report of every case in a fixed corpus.

    python3 tools/report_corpus.py > reports.txt

The corpus is the six fixed registry problems under each flag set, `linf`
for d = 2..8 with the second-order and penalty checks, the sampled cone
examples with more directions and other seeds, and a few small problem
files whose penalty verdict flips with the penalty parameter.  Each case
prints one header line, `== <argv> -> exit <code>`, then its report.

Run it at two commits and compare the outputs with `cmp`: a change that
claims to leave reports alone must print the same bytes.  The process
exits 1 when any case exits 1 (a usage or input error), so a corpus case
that stops loading does not pass unnoticed.
"""

from __future__ import annotations

import contextlib
import io
import os
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

# small problems whose penalty verdict depends on the cap of each group of
# cone weights: one group for a semi-infinite block, one per constraint
# for separable blocks
FILES = {
    "semiinf.prob": '[problem] dim=2\n[scenario] f="-x(1)"\n'
                    '[semiinf] g="x(1) + x(2)*t" grid=-1:1:2\n',
    "nlp_ineq.prob": '[problem] dim=2\n[scenario] f="-x(1)"\n'
                     '[nlp_ineq] g="x(1) - x(2)" g="x(1) + x(2)"\n',
    "nlp_eq.prob": '[problem] dim=2\n[scenario] f="x(1) + x(2)^2"\n'
                   '[nlp_eq] b="x(1) - x(2)^2"\n',
}
FILE_CASES = (("semiinf.prob", "0.75"), ("semiinf.prob", "1.05"),
              ("nlp_ineq.prob", "0.75"), ("nlp_eq.prob", "0.9"),
              ("nlp_eq.prob", "1.1"))


def cases():
    for name in FIXED:
        for flags in FLAG_SETS:
            yield ["--registry", name, *flags]
    for d in range(2, 9):
        yield ["--registry", "linf", "--dim", str(d), "--second-order",
               "--penalty", "1"]
    yield ["--registry", "soc-example", "--soc-dirs", "512"]
    yield ["--registry", "sdp-example", "--sdp-dirs", "128"]
    for seed in (1, 2):
        yield ["--registry", "sdp-example", "--sdp-dirs", "128",
               "--seed", str(seed)]
    for path, c in FILE_CASES:
        yield ["--file", path, "--at", "0,0", "--penalty", c]


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
                failed += code == cli.EXIT_ERROR
                print(f"== {' '.join(argv)} -> exit {code}")
                print(out.getvalue() + err.getvalue(), end="")
        finally:
            os.chdir(cwd)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
