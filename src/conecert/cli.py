"""Command-line front end.

Exit codes: 0 every requested certificate was obtained, 2 the candidate
was refuted (infeasible, membership excluded with exact generators, or a
sound sampled refutation), 3 inconclusive (certificate absent but nothing
refuted, or the search was sampling-limited), 1 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, fields

import numpy as np

from . import firstorder as fo
from . import registry
from . import secondorder as so
from .cones import json_data
from .expr import ExprError
from .geometry import PointContext, SamplingSpec
from .oracle import TooFewFeasibleSamples, growth_probe
from .problem import (ProblemFormatError, ToleranceSet, load_problem_file,
                      problem_to_text)

SCHEMA_VERSION = 5

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REFUTED = 2
EXIT_INCONCLUSIVE = 3


def _tolerances_from(args) -> ToleranceSet:
    """The tolerances of the flags that args holds, the defaults for the
    others; a value that is not a finite number > 0 is an input error,
    reported with ToleranceSet's message, whose first word is the field
    name, spelled as its flag."""
    try:
        return ToleranceSet(**{f.name: getattr(args, f.name)
                               for f in fields(ToleranceSet)
                               if hasattr(args, f.name)})
    except ValueError as err:
        name, rest = str(err).split(" ", 1)
        raise SystemExit(f"error: --{name.replace('_', '-')} {rest}")


def _add_tolerance_flags(p):
    for f in fields(ToleranceSet):
        p.add_argument("--" + f.name.replace("_", "-"), type=float,
                       default=f.default)


def _int_at_least(minimum: int):
    """An argparse type: a decimal integer of at least ``minimum``."""
    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    parse.__name__ = "int"   # argparse names the type in its errors
    return parse


def _finite_numbers(text: str) -> list:
    """The comma-separated numbers of text; ValueError unless each one is
    a finite number."""
    values = [float(v) for v in text.split(",")]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"non-finite number in {text!r}")
    return values


def _parse_point(text: str) -> tuple:
    try:
        return tuple(_finite_numbers(text))
    except ValueError:
        raise SystemExit(f"error: bad point {text!r}; expected "
                         f"comma-separated finite numbers")


def _load(args):
    tol = _tolerances_from(args)
    if args.registry:
        try:
            problem, candidate, sampling = registry.get(
                args.registry, dim=args.dim, tolerances=tol)
        except KeyError as err:   # an unknown name or a misplaced --dim
            raise SystemExit(f"error: {err.args[0]}") from None
    elif args.file:
        problem = load_problem_file(args.file, tolerances=tol)
        candidate = None
        sampling = SamplingSpec()
    else:
        raise SystemExit("error: give --file PATH or --registry NAME")
    sampling = SamplingSpec(
        soc_dirs=args.soc_dirs, sdp_dirs=args.sdp_dirs, seed=args.seed,
        soc_extra=sampling.soc_extra)
    if args.at is not None:
        candidate = _parse_point(args.at)
    if candidate is None:
        raise SystemExit("error: no candidate point; give --at \"v1,v2,...\"")
    if len(candidate) != problem.d:
        raise SystemExit(f"error: candidate has {len(candidate)} components, "
                         f"problem dimension is {problem.d}")
    return problem, np.asarray(candidate, dtype=float), sampling


def _determinants(cadre) -> str:
    """A cadre record's determinants as text, followed by the power of ten
    they are divided by when it is not 0."""
    dets = ", ".join(f"{v:.9g}" for v in cadre["determinants"])
    k = cadre["determinants_exponent"]
    return f"[{dets}]" + (f" x 1e{k}" if k else "")


def _print_human(report):
    out = []
    out.append(f"problem: {report['problem']['source']}  "
               f"(d={report['problem']['dim']}, {report['problem']['kind']})")
    out.append(f"candidate: {report['candidate']}  seed: {report['seed']}")
    feas = report["feasibility"]
    out.append(f"feasible: {feas['feasible']}"
               + ("" if feas["feasible"]
                  else f"  (max violation {feas['max_violation']:.3g})"))
    if "objective" in report:
        obj = report["objective"]
        act = ",".join(str(s["scenario"]) +
                       ("" if s["sign"] == 1 else "-") for s in obj["active"])
        out.append(f"objective value: {obj['value']:.12g}  active: {{{act}}}")
    if "necessary" in report and report["necessary"]:
        nec = report["necessary"]
        out.append(f"necessary (0 in D): {nec['zero_in_D']}")
        if nec.get("cadre"):
            c = nec["cadre"]
            out.append(f"  cadre: p={c['p']} flavor={c['flavor']} "
                       f"complete={c['complete']}  determinants: "
                       f"{_determinants(c)}")
        if nec.get("sampling_limited"):
            out.append("  note: sampling-limited search")
    if "sufficient" in report and report["sufficient"]:
        suf = report["sufficient"]
        out.append(f"sufficient (0 in int D): {suf['zero_in_int_D']}  "
                   f"radius: {suf['radius']}")
    if "flavor_search" in report and report["flavor_search"]:
        fl = report["flavor_search"]
        budget = fl["stopped"] == "budget"
        if fl["cadre"] is None:
            out.append(f"{fl['flavor']} cadre search: "
                       + ("budget exhausted" if budget else "none found"))
        else:
            c = fl["cadre"]
            word = "complete" if c["complete"] else f"{c['p']}-point"
            out.append(f"{fl['flavor']} cadre search: {word} cadre found")
            comp = fl.get("complete")
            if comp is not None:
                where = "" if c["complete"] else " found separately"
                out.append(f"  complete {fl['flavor']} alternance{where}: "
                           f"determinants {_determinants(comp)}")
            elif budget:
                out.append(f"  complete {fl['flavor']} alternance search: "
                           "budget exhausted")
            else:
                out.append(f"  no complete {fl['flavor']} alternance; "
                           f"{c['p']}-point cadre found")
    if "second_order" in report and report["second_order"]:
        for rec in report["second_order"]:
            out.append(f"second-order {rec['mode']}: passed={rec['passed']} "
                       f"refuted={rec['refuted']}"
                       + (" (trivial critical cone)"
                          if rec["critical_cone_trivial"] else ""))
    if "penalty" in report and report["penalty"]:
        pen = report["penalty"]
        out.append(f"penalty c={pen['c']}: value {pen['value']:.12g}, "
                   f"stationary inclusion: {pen['zero_in_subdiff']}")
    if "oracle" in report and report["oracle"]:
        orc = report["oracle"]
        if "error" in orc:
            out.append(f"oracle probe: {orc['error']}")
        else:
            out.append(f"oracle growth probe (order {orc['order']}): "
                       f"refuted={orc['refuted']} constant={orc['constant']}")
    flags = report.get("flags", {})
    if flags.get("convexity_declared_by_user") and \
            (report.get("necessary") or {}).get("zero_in_D"):
        out.append("note: with the user-declared convexity, the stationarity "
                   "certificate implies global optimality (declaration is "
                   "not verified)")
    out.append(f"verdict: exit {report['exit_code']}")
    print("\n".join(out))


def cmd_check(args) -> int:
    if args.penalty is not None and not 0.0 <= args.penalty < math.inf:
        raise SystemExit(f"error: --penalty must be a finite number >= 0, "
                         f"got {args.penalty}")
    problem, x, sampling = _load(args)
    report = {
        "schema": SCHEMA_VERSION,
        "problem": {"source": problem.source, "dim": problem.d,
                    "kind": problem.kind},
        "candidate": x,
        "seed": args.seed,
        "sampling": {"soc_dirs": sampling.soc_dirs,
                     "sdp_dirs": sampling.sdp_dirs, "seed": sampling.seed},
        "tolerances": asdict(problem.tolerances),
        # regularity of the constraint system is never verified here, so
        # every converse direction that needs it stays conditional
        "flags": {
            "convexity_declared_by_user": bool(args.assume_convex),
            "rcq": "not checked",
        },
    }
    ctx = PointContext(problem, x, sampling)
    feas = ctx.feasibility
    report["feasibility"] = {
        "feasible": feas.feasible, "max_violation": feas.max_violation,
        "violations": [{"where": w, "amount": a} for w, a in feas.violations]}
    if not feas.feasible:
        report["exit_code"] = EXIT_REFUTED
        _emit(args, report)
        return EXIT_REFUTED

    report["objective"] = {
        "value": ctx.act.F_value,
        "active": [{"scenario": s.index, "sign": s.sign, "value": s.value}
                   for s in ctx.act.scenarios]}

    nec = report["necessary"] = fo.necessary_check(ctx)
    suf = report["sufficient"] = fo.sufficient_check(ctx)

    refuted = False
    inconclusive = False
    if not nec.zero_in_D:
        if nec.sampling_limited:
            inconclusive = True
        else:
            refuted = True
    if not suf.zero_in_int_D and not refuted:
        inconclusive = True

    report["flavor_search"] = None
    if args.flavor:
        cadre, complete, stopped = _flavor_search(
            args.flavor, ctx.generators, problem.tolerances.eps_det)
        report["flavor_search"] = {"flavor": args.flavor, "cadre": cadre,
                                   "complete": complete, "stopped": stopped}
        if complete is None:
            inconclusive = True

    report["second_order"] = None
    if args.second_order:
        report["second_order"] = []
        if nec.zero_in_D and nec.multipliers is not None:
            nec2 = so.second_order_necessary(ctx, nec)
            suf2 = so.second_order_sufficient(ctx, nec)
            report["second_order"] = [nec2, suf2]
            if nec2.refuted:
                refuted = True
            if not suf2.passed and not refuted:
                inconclusive = True
        else:
            inconclusive = True

    report["penalty"] = None
    if args.penalty is not None:
        pen = report["penalty"] = fo.penalty_subdiff_check(ctx, args.penalty)
        if not pen.zero_in_subdiff and not refuted:
            inconclusive = True

    report["oracle"] = None
    if args.oracle:
        try:
            probe = report["oracle"] = growth_probe(problem, x, order=1,
                                                   seed=args.seed)
            if probe.refuted:
                refuted = True
        except TooFewFeasibleSamples as err:
            report["oracle"] = {"error": str(err)}

    if refuted:
        code = EXIT_REFUTED
    elif inconclusive:
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_OK
    report["exit_code"] = code
    _emit(args, report)
    return code


def _flavor_search(flavor, G, eps_det):
    """The flavor's first cadre over G, its complete cadre, and "budget"
    when a subset search's budget ran out (else None).  These are the
    check's only subset enumerations, and the complete cadre is the
    report's one complete alternance.  A complete first cadre decides
    both.  So does a first enumeration that found none, as it walked every
    p = d + 1 subset.  The plain first cadre is read off the membership
    LP's basis instead, and as every cadre is a membership witness, its
    absence decides the complete search only when that LP is infeasible.
    A first cadre found stays when the complete search runs out."""
    first, out = fo.cadre_search(G, flavor, eps_det=eps_det)
    if out:
        return None, None, "budget"
    if first is not None and first.complete:
        return first, first, None
    if first is None and (flavor != "plain"
                          or G.membership.status != "optimal"):
        return None, None, None
    complete, out = fo.cadre_search(G, flavor, complete=True, eps_det=eps_det)
    return (first, None, "budget") if out else (first, complete, None)


def _emit(args, report):
    """Print the report, as JSON or as text, and write its JSON to
    ``args.out`` when given; every value goes through ``json_data``."""
    report = json_data(report)
    out = getattr(args, "out", None)
    encoded = json.dumps(report, indent=2) if args.json or out else None
    if args.json:
        print(encoded)
    else:
        _print_human(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(encoded)


def _parse_vectors(text: str):
    vectors = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        vectors.append(_finite_numbers(chunk))
    return vectors


def cmd_verify_alternance(args) -> int:
    if args.vectors_file:
        with open(args.vectors_file, "r", encoding="utf-8") as fh:
            text = ";".join(line.strip() for line in fh
                            if line.strip() and not line.startswith("#"))
    else:
        text = args.vectors
    if not text:
        raise SystemExit("error: give --vectors \"a,b;c,d;...\" or "
                         "--vectors-file")
    try:
        vectors = _parse_vectors(text)
    except ValueError:
        raise SystemExit("error: malformed vector input; expected finite "
                         "numbers")
    if not vectors or len({len(v) for v in vectors}) != 1:
        raise SystemExit("error: vectors must be non-empty and of equal "
                         "length")
    eps_det = _tolerances_from(args).eps_det
    try:
        result = fo.verify_alternance(vectors, k0=args.k0, i0=args.i0,
                                      eps_det=eps_det, flavor=args.flavor)
    except ValueError as err:   # p or k0, i0 out of range
        raise SystemExit(f"error: {err}")
    if isinstance(result, fo.Cadre):
        payload = {"schema": SCHEMA_VERSION, "accepted": True,
                   "cadre": result.to_json()}
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(f"determinants: {_determinants(payload['cadre'])}")
            mults = ", ".join(f"{v:.9g}" for v in result.multipliers)
            print(f"multipliers: [{mults}]")
            print(f"accepted: p={result.p} complete={result.complete}")
        return EXIT_OK
    payload = {"schema": SCHEMA_VERSION, "accepted": False,
               "reason": str(result)}
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"rejected: {result}")
    return EXIT_REFUTED


def cmd_discretize(args) -> int:
    tol = _tolerances_from(args)
    try:
        problem = load_problem_file(args.file, tolerances=tol)
    except (OSError, ProblemFormatError, ExprError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    x = _parse_point(args.at)
    if len(x) != problem.d:
        print(f"error: candidate has {len(x)} components, problem "
              f"dimension is {problem.d}", file=sys.stderr)
        return EXIT_ERROR
    discretized, actions = fo.semiinfinite_discretize(problem, x)
    for position, what, points in actions:
        if what == "dropped":
            print(f"warning: block {position} inactive at the point; dropped",
                  file=sys.stderr)
        elif what == "capped":
            print(f"warning: block {position} kept {len(points)} of its "
                  f"active points (cap d+1)", file=sys.stderr)
    text = problem_to_text(discretized)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conecert",
        description="first- and second-order optimality certificates for "
                    "cone-constrained minimax and Chebyshev problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="certify a candidate point")
    p_check.add_argument("--file", help="problem file")
    p_check.add_argument("--registry", help="built-in problem name; one of: "
                         + ", ".join(registry.NAMES))
    p_check.add_argument("--dim", type=_int_at_least(1),
                         help="dimension for linf")
    p_check.add_argument("--at", help='candidate point "v1,v2,..."')
    p_check.add_argument("--flavor", choices=["plain", "generalised", "weak"],
                         help="also search a cadre of this flavor and "
                              "require completeness")
    p_check.add_argument("--second-order", action="store_true")
    p_check.add_argument("--penalty", type=float, metavar="C",
                         help="run the penalty stationarity check at C")
    p_check.add_argument("--oracle", action="store_true",
                         help="cross-check with the sampling growth probe")
    p_check.add_argument("--assume-convex", action="store_true",
                         help="record that the user declares the problem "
                              "convex; stationarity then implies global "
                              "optimality (the declaration is not verified)")
    p_check.add_argument("--json", action="store_true",
                         help="print the JSON report instead of text")
    p_check.add_argument("--out", help="also write the JSON report here")
    p_check.add_argument("--soc-dirs", type=_int_at_least(0), default=64)
    p_check.add_argument("--sdp-dirs", type=_int_at_least(0), default=64)
    p_check.add_argument("--seed", type=_int_at_least(0), default=0)
    _add_tolerance_flags(p_check)

    p_ver = sub.add_parser("verify-alternance",
                           help="check the determinant conditions for "
                                "explicit vectors")
    p_ver.add_argument("--vectors", help='inline "a,b;c,d;..."')
    p_ver.add_argument("--vectors-file", help="one comma-separated vector "
                                              "per line")
    p_ver.add_argument("--k0", type=int, default=None)
    p_ver.add_argument("--i0", type=int, default=None)
    p_ver.add_argument("--flavor", default="plain",
                       choices=["plain", "generalised", "weak"])
    p_ver.add_argument("--eps-det", type=float, default=ToleranceSet().eps_det)
    p_ver.add_argument("--json", action="store_true")

    p_disc = sub.add_parser("discretize",
                            help="replace semi-infinite blocks by their "
                                 "active grid points")
    p_disc.add_argument("--file", required=True)
    p_disc.add_argument("--at", required=True)
    p_disc.add_argument("--out", help="output problem file (default stdout)")
    _add_tolerance_flags(p_disc)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves a parser
    unchanged and returns a new namespace on every call.  The parser holds
    no command function; ``main`` looks each up by name when it runs, so
    a wrapped command (a tracer's, say) still runs."""
    return build_parser()


def _glue_values(argv):
    """argparse takes a value that starts with '-' and holds a comma, such
    as the point "-0.5,1", for an option; glue such values to their flag."""
    out, args = [], iter(argv)
    for arg in args:
        value = next(args, None) if arg in ("--at", "--vectors") else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(
            _glue_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as err:
        # argparse exits 2 on usage errors; map that onto the error code
        return EXIT_OK if err.code in (0, None) else EXIT_ERROR
    command = {"check": cmd_check, "verify-alternance": cmd_verify_alternance,
               "discretize": cmd_discretize}[args.command]
    try:
        return command(args)
    except SystemExit as err:
        if isinstance(err.code, str):
            print(err.code, file=sys.stderr)
            return EXIT_ERROR
        raise
    except (OSError, ProblemFormatError, ExprError, fo.NotFeasible) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
