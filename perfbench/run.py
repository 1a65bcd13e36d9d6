#!/usr/bin/env python3
"""Benchmark of `conecert check`, driven in process through
`conecert.cli.main` from one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads (see workloads.py) are `registry`, `alternance`,
`combinatorial` and `cone-sampling`.  Each run imports conecert from
`src/` next to this directory, builds the workload's inputs from the seed,
sets up three times (input generation plus one warm-up check per case;
once when traced) and then runs whole passes over the cases until S
seconds have passed and at least three passes are done.  Every report
is compared with the workload's reference table and re-verified with
`firstorder.reverify_report`.

With `--trace 0` the last line of output is one JSON object holding the
end-to-end metrics named in BENCHMARK.json:

- checks_per_s: cases per pass over the sum of the cases' times;
- check_s_p50: the median over the workload's cases of their times;
- slowest_case_s: the time of the workload's largest case;
- setup_s: imports after interpreter start-up, plus the median of the
  three set-ups;
- peak_rss_mb: the process's peak resident set size;
- ok_share: the share of attempted checks, warm-ups included, that ran,
  agreed with the reference and passed `reverify_report` (1 - failed
  share).

A case's time is the median of its timed runs.  Every time above is in
reference seconds: wall seconds corrected for how much other tenants slowed
the host, as measured beside each step (see hostclock.py).  The cases'
wall-clock medians are printed above the JSON line.

With `--trace 1` the first half of the time runs untraced and the second
half with spans patched around conecert's functions (tracer.py); at least
two passes are traced.  The per-layer metrics are per pass over the cases:
counts from the traced passes, which must agree, and median wall times.
The spans are written to `perfbench/out/spans-<workload>-seed<seed>.csv.gz`.
"""

import os

# one thread for every BLAS/OpenMP pool, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import time

_T_START = time.perf_counter()

import argparse
import contextlib
import hashlib
import io
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from hostclock import HostClock, bracket
from tracer import SpanTracer, Target

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# timed passes of an untraced run, even where a pass is long, so that the
# time of the largest case rests on three samples at least
MIN_PASSES = 3
# conecert's own sampling seed (sampled cone directions, growth probe) is
# fixed: the work of the sampled searches varies by up to 40 % between
# seeds, which would swamp a change's effect.  The workload seed varies the
# generated alternance grids and the order of the cases in each pass.
PROGRAM_SEED = 0


class Program:
    """The conecert modules under test, imported from ``src/``."""

    def __init__(self):
        if not (SRC / "conecert" / "__init__.py").is_file():
            raise SystemExit(f"error: no conecert sources under {SRC}")
        sys.path.insert(0, str(SRC))
        import conecert
        from conecert import (cli, expr, firstorder, geometry, linkernel,
                              oracle, problem, secondorder)
        if Path(conecert.__file__).resolve().parent != SRC / "conecert":
            raise SystemExit(f"error: imported conecert from "
                             f"{conecert.__file__}, not from {SRC}")
        self.cli, self.expr, self.firstorder = cli, expr, firstorder
        self.geometry, self.linkernel = geometry, linkernel
        self.oracle, self.problem, self.secondorder = (oracle, problem,
                                                       secondorder)
        self.modules = [m for name, m in sorted(sys.modules.items())
                        if name == "conecert" or name.startswith("conecert.")]


# ---------------------------------------------------------------------------
# running and checking one case
# ---------------------------------------------------------------------------


def prepare(workload, seed, workdir, prog):
    """Build the workload's cases: write generated problem files, point
    their arguments at them and load each Problem for re-verification."""
    cases = workloads.WORKLOADS[workload](seed)
    random.Random(seed).shuffle(cases)
    workdir.mkdir(parents=True, exist_ok=True)
    for case in cases:
        for name, text in case.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        case.argv = tuple(str(workdir / a) if a in case.files else a
                          for a in case.argv)
        if case.load_problem is None:
            path = case.argv[case.argv.index("--file") + 1]
            case.problem = prog.problem.load_problem_file(path)
        else:
            case.problem = case.load_problem()
    return cases


def run_case(prog, case, clock):
    """Run one check under ``clock``.  Returns its wall and reference
    seconds, both None if it raised, and the problems found with its
    output."""
    argv = ["check", *case.argv, "--json", "--seed", str(PROGRAM_SEED)]
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code, wall, ref = clock.time(lambda: prog.cli.main(argv))
    except Exception as err:  # a crash is a failed check, not a stop
        return None, None, [f"raised {err!r}"]
    return wall, ref, verify(prog, case, code, buf.getvalue())


def verify(prog, case, code, output):
    if code == prog.cli.EXIT_ERROR:
        return ["exit 1"]
    try:
        report = json.loads(output)
    except ValueError as err:
        return [f"unreadable report: {err}"]
    bad = workloads.mismatches(case.ref, workloads.observe(report, code))
    again = prog.firstorder.reverify_report(case.problem, report)
    if not again["ok"]:
        bad.append(f"reverify_report failed: {again['checks']}")
    return bad


class Ledger:
    """Check times per case in wall and reference seconds, and every
    failure."""

    def __init__(self):
        self.wall = {}
        self.ref = {}
        self.attempted = 0
        self.failures = []

    def record(self, case, problems, wall=None, ref=None):
        """Count one check; given its times, time it too."""
        self.attempted += 1
        if problems:
            self.failures.append((case.label, problems))
        if ref is not None:
            self.wall.setdefault(case.label, []).append(wall)
            self.ref.setdefault(case.label, []).append(ref)

    def case_s(self):
        """Each case's median time over the run, in reference seconds."""
        return {label: statistics.median(ts)
                for label, ts in self.ref.items()}

    def checks_per_s(self):
        """One pass over the cases at each case's median time."""
        times = self.case_s()
        return len(times) / sum(times.values())


def run_passes(prog, cases, seconds, ledger, clock, tracer=None,
               min_passes=1):
    """Whole passes over the cases until ``seconds`` have passed and at
    least ``min_passes`` are done.  Returns the check ids of each pass."""
    passes = []
    check = 0
    start = time.perf_counter()
    while True:
        ids = []
        for case in cases:
            check += 1
            if tracer is not None:
                tracer.check_id = check
            wall, ref, problems = run_case(prog, case, clock)
            if tracer is not None:
                tracer.check_id = -1
            ledger.record(case, problems, wall, ref)
            ids.append(check)
        passes.append(ids)
        if (time.perf_counter() - start >= seconds
                and len(passes) >= min_passes):
            return passes


# ---------------------------------------------------------------------------
# tracing targets
# ---------------------------------------------------------------------------


def trace_targets(prog, tracer):
    fo, geo, lk, so = (prog.firstorder, prog.geometry, prog.linkernel,
                       prog.secondorder)

    def generators(G):
        for prov in list(G.grads_prov) + list(G.eta_prov) + list(G.nA_prov):
            yield f"geometry.generators.{prov.kind}", 1

    def positive_combination(beta):
        yield "linkernel.solve_positive_combination.ok", beta is not None
        if tracer.is_open("firstorder.find_cadre"):
            yield "firstorder.find_cadre.subsets", 1

    def kept(rep):
        yield "secondorder.critical.kept", rep.n_directions

    return [
        Target(prog.expr, "eval_value", "expr.eval_value"),
        Target(prog.expr, "eval2", "expr.eval2"),
        Target(prog.problem, "load_problem_text", "problem.load"),
        Target(prog.problem, "load_problem_file", "problem.load"),
        Target(prog.problem, "evaluate_objective",
               "problem.evaluate_objective"),
        Target(prog.problem, "activity", "problem.activity"),
        Target(prog.problem, "check_feasible", "problem.check_feasible"),
        Target(geo, "build_generator_set", "geometry.build_generator_set",
               generators),
        Target(geo, "sdp_null_directions", "geometry.sdp_null_directions"),
        Target(geo.TangentTester, "__init__", "geometry.TangentTester",
               lambda _: [("geometry.TangentTester.builds", 1)]),
        Target(fo, "find_cadre", "firstorder.find_cadre"),
        Target(fo, "necessary_check", "firstorder.necessary_check"),
        Target(fo, "sufficient_check", "firstorder.sufficient_check"),
        Target(fo, "penalty_subdiff_check",
               "firstorder.penalty_subdiff_check"),
        Target(lk, "solve_positive_combination",
               "linkernel.solve_positive_combination", positive_combination),
        Target(lk, "simplex_solve", "linkernel.simplex_solve",
               lambda res: [("linkernel.simplex_solve.pivots",
                             res.iterations)]),
        Target(lk, "lp_membership", "linkernel.lp_membership"),
        Target(lk, "lp_chebyshev_center", "linkernel.lp_chebyshev_center"),
        Target(so, "multiplier_vertices", "secondorder.multiplier_vertices",
               lambda mv: [("secondorder.multiplier_vertices.pairs",
                            len(mv.pairs))]),
        Target(so, "second_order_necessary",
               "secondorder.second_order_necessary", kept),
        Target(so, "second_order_sufficient",
               "secondorder.second_order_sufficient", kept),
        Target(prog.oracle, "growth_probe", "oracle.growth_probe",
               lambda probe: [("oracle.growth_probe.n_feasible",
                               probe.n_feasible)]),
        Target(prog.cli, "cmd_check", "cli.cmd_check"),
    ]


TIME_STATS = ("s", "self_s")


def layer_metrics(tracer, passes, spec, overhead):
    """Per-pass layer values: counts must repeat exactly across passes,
    times are the median over passes.  Returns (metrics, problems)."""
    sums = [tracer.summary(ids) for ids in passes]
    for s in sums:
        calls = s["linkernel.solve_positive_combination.calls"]
        s["linkernel.solve_positive_combination.ok_ratio"] = (
            s["linkernel.solve_positive_combination.ok"] / calls
            if calls else 0.0)
        s["trace.checks_per_s.ratio"] = overhead
    metrics, problems = {}, []
    for m in spec:
        name = m["name"]
        values = [float(s[name]) for s in sums]
        if name.rsplit(".", 1)[1] not in TIME_STATS + ("ok_ratio", "ratio") \
                and len(set(values)) > 1:
            problems.append(f"{name} differs between traced passes: {values}")
        metrics[name] = {"value": statistics.median(values),
                         "unit": m["unit"]}
    return metrics, problems


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def environment(args, slowness):
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    rev = None
    # without its own .git, git would report a parent directory's revision
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                  "HEAD"], capture_output=True, text=True,
                                 timeout=10)
            if out.returncode == 0:
                rev = out.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "conecert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "host_slowness_median": statistics.median(slowness),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    prog = Program()
    # interpreter start-up is not counted; every import after it is
    import_s = time.perf_counter() - _T_START
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workdir = HERE / f".work-{os.getpid()}"
    try:
        result, lines, slowness = run(args, prog, import_s, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print("env " + json.dumps(environment(args, slowness)))
    print(json.dumps(result))
    return 0


def set_up(args, prog, workdir, ledger, clock):
    """Generate the inputs and run one warm-up check per case.  Returns the
    cases and the time taken in reference seconds."""
    cases, _, spent = clock.time(
        lambda: prepare(args.workload, args.seed, workdir, prog))
    for case in cases:
        _, ref, problems = run_case(prog, case, clock)
        ledger.record(case, problems)
        spent += ref or 0.0
    return cases, spent


def run(args, prog, import_s, spec, workdir):
    # a traced run samples no slowness inside checks, where it would add
    # to the spans; its timings are only the tracing overhead's base
    clock = HostClock(inside=not args.trace)
    import_ref_s = import_s / statistics.geometric_mean(bracket())
    ledger = Ledger()
    setups = []
    # setup_s is reported by untraced runs only; a traced one just warms up
    for _ in range(1 if args.trace else SETUP_REPEATS):
        cases, spent = set_up(args, prog, workdir, ledger, clock)
        setups.append(spent)
    largest = next(c.label for c in cases if c.largest)

    lines = []
    problems = []
    if args.trace:
        run_passes(prog, cases, args.seconds / 2, ledger, clock)
        # counts are compared across traced passes, so there are two
        # however long a pass takes
        tracer = SpanTracer()
        tracer.check_id = -1
        tracer.install(trace_targets(prog, tracer), prog.modules)
        traced_ledger = Ledger()
        try:
            passes = run_passes(prog, cases, args.seconds / 2,
                                traced_ledger, clock, tracer, min_passes=2)
        finally:
            tracer.uninstall()
        ledger.attempted += traced_ledger.attempted
        ledger.failures += traced_ledger.failures
        overhead = traced_ledger.checks_per_s() / ledger.checks_per_s()
        metrics, problems = layer_metrics(tracer, passes, spec["per_layer"],
                                          overhead)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        lines.append(f"traced {len(passes)} passes, {len(tracer.t0)} spans; "
                     f"values are per pass")
    else:
        run_passes(prog, cases, args.seconds, ledger, clock,
                   min_passes=MIN_PASSES)
        case_s = ledger.case_s()
        values = {
            "checks_per_s": ledger.checks_per_s(),
            "check_s_p50": statistics.median(case_s.values()),
            "slowest_case_s": case_s[largest],
            "setup_s": import_ref_s + statistics.median(setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_share": 1 - len(ledger.failures) / ledger.attempted,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        timed = sum(len(ts) for ts in ledger.ref.values())
        lines.append(f"{timed} timed checks; times are medians in reference "
                     f"seconds; check_s_p50 is the median over n="
                     f"{len(case_s)} cases, slowest_case_s the median of n="
                     f"{len(ledger.ref[largest])} runs of {largest!r}")
        for label, ts in ledger.ref.items():
            wall = ledger.wall[label]
            lines.append(f"  case {label}: {statistics.median(ts):.4f} ref s "
                         f"(quartiles {_quartiles(ts)}), wall "
                         f"{statistics.median(wall):.4f} s (quartiles "
                         f"{_quartiles(wall)}) over {len(ts)}")

    lines.append(f"workload {args.workload} seed {args.seed}: "
                 f"{ledger.attempted} checks attempted, "
                 f"{len(ledger.failures)} failed")
    for label, bad in ledger.failures[:20]:
        lines.append(f"  FAILED {label}: {'; '.join(bad)}")
    for bad in problems:
        lines.append(f"  INCONSISTENT {bad}")
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']!r} {m['unit']}")
    q = statistics.quantiles(clock.slowness, n=4)
    lines.append(f"host slowness: median {q[1]:.3f}, quartiles "
                 f"{q[0]:.3f}..{q[2]:.3f}")
    result = {"correct": not ledger.failures and not problems,
              "attempted": ledger.attempted,
              "failed": len(ledger.failures),
              "metrics": metrics}
    return result, lines, clock.slowness


def _quartiles(values):
    if len(values) < 2:
        return "-"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f}..{q3:.4f}"


if __name__ == "__main__":
    sys.exit(main())
