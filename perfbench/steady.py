#!/usr/bin/env python3
"""Steadiness check for the benchmark.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--sets 1]

Runs run.py ``--runs`` times per workload, with seeds 1, 2, ..., one run
after another and each for BENCHMARK.json's ``run_seconds``, and prints
for every end-to-end metric its median, quartiles
(``statistics.quantiles(values, n=4)``) and spread, the interquartile
distance as a share of the median, next to the metric's bound from
BENCHMARK.json.  The target is a spread below a third of the
bound; setup_s is exempt from the spread rule.  With ``--sets 2`` the
same seeds run twice and the second median is compared with the first:
it may not be worse by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {out.returncode}:"
                         f"\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"error: incorrect output for {workload} seed "
                         f"{seed}:\n{out.stdout}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
    values["slowness"] = env["host_slowness_median"]
    return values


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def worse_by(first, second, better):
    """How much worse the second median is, as a share of the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = p.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(1, args.runs + 1)
    seconds = spec["run_seconds"]
    steady = True
    for workload in names:
        sets = []
        for _ in range(args.sets):
            runs = [one_run(workload, s, seconds) for s in seeds]
            sets.append(runs)
        print(f"== {workload}: {args.runs} runs x {args.sets}, seeds "
              f"1..{args.runs}, {seconds} s each")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first = None
            for k, runs in enumerate(sets, 1):
                q1, med, q3, sp = spread([r[name] for r in runs])
                verdict = "ok" if sp <= bound / 3 else (
                    "within bound" if sp <= bound else "TOO WIDE")
                if name == "setup_s":
                    verdict = "exempt"
                elif verdict != "ok":
                    steady = False
                line = (f"  {name:15s} set {k}: median {med:.6g} {m['unit']}"
                        f"  quartiles {q1:.6g}..{q3:.6g}  spread {sp:.2%} "
                        f"(bound {bound:.0%}) {verdict}")
                if first is None:
                    first = med
                else:
                    drift = worse_by(first, med, m["better"])
                    if drift > bound:
                        steady = False
                    line += f"; worse than set 1 by {drift:.2%}"
                print(line, flush=True)
        for runs in sets:
            q1, med, q3, sp = spread([r["slowness"] for r in runs])
            print(f"  (host slowness   median {med:.4g}  quartiles "
                  f"{q1:.4g}..{q3:.4g}  spread {sp:.2%}: how much other "
                  f"tenants slowed the host)", flush=True)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
