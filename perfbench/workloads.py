"""Benchmark workloads: the `conecert check` cases each one runs, and the
hand-written reference every report is compared with.

A reference row lists what a correct report must say.  Each row names the
basis of its values; fields listed in ``pins`` are regression pins, taken
from the output of the code the benchmark was defined on because no
published or closed-form value exists for them (mostly exit codes that
depend on sampled second-order tests).

The ``alternance`` workload is generated here from the workload seed.  Its
reference comes from Chebyshev's equioscillation theorem and never from
conecert: the best approximation of t^n on [-1, 1] by polynomials of
degree < n leaves the error -T_n(t) / 2^(n-1), which attains its maximum
2^(1-n) exactly at the n+1 points cos(j*pi/n), with alternating signs
(Rivlin, *Chebyshev Polynomials*).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev

SO = ("--second-order", "--penalty", "10")
GEN = ("--flavor", "generalised")


@dataclass(frozen=True)
class Ref:
    """Expected fields of one check's JSON report.

    ``None`` means "not compared".  Determinants are compared to 1e-7
    absolute and objective values to 1e-12 absolute, both to 1e-9
    relative; everything else exactly.
    """

    basis: str
    exit_code: int = 0
    zero_in_D: bool = True
    zero_in_int_D: bool = True
    cadre_p: int | None = None
    cadre_dets: tuple | None = None
    cadre_complete: bool | None = None
    flavor_p: int | None = None
    flavor_complete_p: int | None = None   # 0: no complete certificate
    flavor_complete_dets: tuple | None = None
    objective: float | None = None
    active: tuple | None = None            # ((scenario, sign), ...)
    pins: tuple = ()                       # regression-pinned field names


@dataclass
class Case:
    """One `conecert check` invocation.  ``argv`` omits --json and --seed,
    which the runner appends.  ``load_problem`` builds the Problem object
    that ``firstorder.reverify_report`` needs; cases without one read the
    problem file they were given."""

    label: str
    argv: tuple
    ref: Ref
    load_problem: object = None
    largest: bool = False
    files: dict = field(default_factory=dict)   # file name -> text to write
    problem: object = None                      # set by the runner


# ---------------------------------------------------------------------------
# registry and linf references
# ---------------------------------------------------------------------------

_PUB = "published certificate pinned by tests/test_acceptance.py"


def _linf_generalised_dets(d):
    """Complete generalised alternance of linf at the origin, the closed
    form pinned for d = 2, 3, 4 by tests/test_acceptance.py."""
    return tuple((-1) ** (d - i) * (-1.0 / d)
                 for i in range(1, d + 1)) + (1.0,)


_REGISTRY_REFS = {
    "dem": (
        Ref(_PUB + ": dem determinants [10, -10, 10]", cadre_p=3,
            cadre_dets=(10, -10, 10), pins=("exit_code",)),
        Ref(_PUB + ": dem complete generalised alternance", cadre_p=3,
            cadre_dets=(10, -10, 10), flavor_p=3, flavor_complete_p=3),
    ),
    "madsen": (
        Ref(_PUB + ": madsen plain search ends at the 2-point cadre",
            cadre_p=2, cadre_complete=False, pins=("exit_code",)),
        Ref(_PUB + ": madsen generalised determinants [-1, 1, -2]",
            cadre_p=2, flavor_p=2, flavor_complete_p=3,
            flavor_complete_dets=(-1, 1, -2)),
    ),
    "bazaraa45": (
        # |lambda|_1 = 164 > c = 10, so the exact-penalty inclusion fails
        # and the run is inconclusive (exit 3); acceptance criterion 11
        Ref(_PUB + ": bazaraa45 determinants [-3, 456, -36]; penalty "
            "c=10 is below |lambda|_1", exit_code=3, cadre_p=3,
            cadre_dets=(-3, 456, -36)),
        Ref(_PUB + ": bazaraa45 complete alternance", cadre_p=3,
            cadre_dets=(-3, 456, -36), flavor_p=3, flavor_complete_p=3,
            flavor_complete_dets=(-3, 456, -36)),
    ),
    "counterexample-3-2": (
        Ref("paper counterexample: first-order growth holds", cadre_p=3,
            pins=("exit_code", "cadre_p")),
        # no generalised complete certificate exists (acceptance
        # criterion 5), so the requested flavor is missing: exit 3
        Ref(_PUB + ": counterexample has no complete generalised "
            "certificate", exit_code=3, cadre_p=3, flavor_p=2,
            flavor_complete_p=0, pins=("cadre_p", "flavor_p")),
    ),
    "soc-example": (
        # scenario 3, cos(x(2)) - 1, has a zero gradient at the origin,
        # which is a one-point cadre by itself
        Ref("analytic: zero gradient of scenario 3 gives p=1", cadre_p=1,
            pins=("exit_code",)),
        Ref("analytic: zero gradient of scenario 3 gives p=1", cadre_p=1,
            flavor_p=1, flavor_complete_p=3, pins=("flavor_complete_p",)),
    ),
    "sdp-example": (
        Ref(_PUB + ": sdp-example determinants [-12, 15, -24, 6]",
            cadre_p=4, cadre_dets=(-12, 15, -24, 6), pins=("exit_code",)),
        Ref(_PUB + ": sdp-example complete alternance", cadre_p=4,
            cadre_dets=(-12, 15, -24, 6), flavor_p=4, flavor_complete_p=4),
    ),
}


def _linf_ref(d, flags):
    basis = (_PUB + ": linf plain cadre p=2 and interior radius "
             ">= 1/(2 sqrt d)")
    if flags == GEN:
        return Ref(basis + "; closed-form generalised determinants",
                   cadre_p=2, cadre_complete=False, flavor_p=2,
                   flavor_complete_p=d + 1,
                   flavor_complete_dets=_linf_generalised_dets(d))
    pins = ("exit_code",) if "--second-order" in flags else ()
    return Ref(basis, cadre_p=2, cadre_complete=False, pins=pins)


def _registry_problem(name, dim=None):
    def build():
        from conecert import registry
        return registry.get(name, dim=dim)[0]
    return build


def _registry_case(name, flags, ref, dim=None, largest=False):
    argv = ("--registry", name) + (("--dim", str(dim)) if dim else ()) + flags
    label = name + (f"-d{dim}" if dim else "") + " " + " ".join(flags)
    return Case(label=label.strip(), argv=argv, ref=ref,
                load_problem=_registry_problem(name, dim), largest=largest)


def registry_cases(seed):
    """Each fixed registry problem and linf d=3..6, once with the second
    order, penalty and oracle checks and once with the generalised flavor
    search: 20 short checks."""
    cases = []
    for name, (ref_so, ref_gen) in _REGISTRY_REFS.items():
        cases.append(_registry_case(name, SO + ("--oracle",), ref_so,
                                    largest=name == "sdp-example"))
        cases.append(_registry_case(name, GEN, ref_gen))
    for d in range(3, 7):
        cases.append(_registry_case("linf", SO + ("--oracle",),
                                    _linf_ref(d, SO), dim=d))
        cases.append(_registry_case("linf", GEN, _linf_ref(d, GEN), dim=d))
    return cases


def combinatorial_cases(seed):
    """linf where the cadre search (d=8, 9) and the multiplier-vertex
    enumeration (d=7 with second order) grow combinatorially."""
    return [
        _registry_case("linf", (), _linf_ref(8, ()), dim=8),
        _registry_case("linf", (), _linf_ref(9, ()), dim=9, largest=True),
        _registry_case("linf", ("--second-order",),
                       _linf_ref(7, ("--second-order",)), dim=7),
    ]


def cone_sampling_cases(seed):
    """The two curved-cone problems with many sampled directions."""
    return [
        _registry_case("sdp-example", ("--sdp-dirs", "128") + SO,
                       _REGISTRY_REFS["sdp-example"][0]),
        _registry_case("soc-example", ("--soc-dirs", "512") + SO,
                       _REGISTRY_REFS["soc-example"][0], largest=True),
    ]


# ---------------------------------------------------------------------------
# alternance: generated Chebyshev best-approximation problems
# ---------------------------------------------------------------------------


@dataclass
class AlternanceInstance:
    """Best approximation of t^n on a grid by polynomials of degree < n.

    ``grid`` is sorted ascending; scenario k+1 is the point grid[k], with
    f = sum_j x(j+1) t^j and target psi = t^n.  ``candidate`` holds the
    monomial coefficients of t^n - T_n(t) / 2^(n-1)."""

    n: int
    grid: np.ndarray
    candidate: np.ndarray
    active: tuple          # ((scenario, sign), ...), from the closed form
    objective: float


def chebyshev_instance(n, lobatto_per_gap, n_jitter, seed):
    """Nested Chebyshev-Lobatto grid with n*lobatto_per_gap intervals,
    plus ``n_jitter`` seeded points whose |T_n| stays below that of the
    Lobatto neighbours of the extrema.

    The nested grid contains the n+1 extrema cos(j*pi/n) exactly, and its
    other points are no closer to |T_n| = 1 than cos(pi/lobatto_per_gap),
    so exactly n+1 scenarios are active.  (A uniform grid joined with the
    extrema would leave near-duplicates of the active points.)"""
    m = lobatto_per_gap
    N = n * m
    base = np.cos(np.pi * np.arange(N + 1) / N)
    Tn = chebyshev.Chebyshev.basis(n)
    limit = math.cos(math.pi / m)
    rng = np.random.default_rng(seed)
    jitter = []
    while len(jitter) < n_jitter:
        t = float(rng.uniform(-1.0, 1.0))
        if abs(Tn(t)) <= limit:
            jitter.append(t)
    grid = np.unique(np.concatenate([base, jitter]))
    mono = chebyshev.cheb2poly([0] * n + [1])      # T_n, leading 2^(n-1)
    candidate = -mono[:n] / 2.0 ** (n - 1)
    extrema = set(base[::m].tolist())
    active = []
    for k, t in enumerate(grid.tolist()):
        if t in extrema:
            # error p(t) - t^n = -T_n(t) / 2^(n-1) and T_n(t) = +-1 here
            active.append((k + 1, -1 if Tn(t) > 0 else 1))
    return AlternanceInstance(n=n, grid=grid, candidate=candidate,
                              active=tuple(active),
                              objective=2.0 ** (1 - n))


def problem_text(inst: AlternanceInstance) -> str:
    lines = [f"[problem] dim={inst.n} kind=chebyshev"]
    for t in inst.grid.tolist():
        terms = ["x(1)"]
        for j in range(1, inst.n):
            a = t ** j
            terms.append(f"{'-' if a < 0 else '+'} {abs(a)!r}*x({j + 1})")
        lines.append(f'[scenario] f="{" ".join(terms)}" psi={t ** inst.n!r}')
    return "\n".join(lines) + "\n"


# (n, Lobatto points per extremum gap, jitter points): 1201 and 2001
# scenarios, as in a discretised semi-infinite Chebyshev fit
ALTERNANCE_SIZES = ((6, 160, 240), (8, 200, 400))


def alternance_cases(seed):
    """One generated instance per size, each checked at its analytic
    optimum."""
    cases = []
    for i, (n, m, n_jitter) in enumerate(ALTERNANCE_SIZES):
        inst = chebyshev_instance(n, m, n_jitter, (seed, i))
        fname = f"cheb-n{n}.prob"
        at = ",".join(repr(float(c)) for c in inst.candidate)
        ref = Ref("analytic: Chebyshev equioscillation of t^n - T_n/2^(n-1)",
                  cadre_p=n + 1, cadre_complete=True,
                  objective=inst.objective, active=inst.active)
        cases.append(Case(
            label=f"chebyshev-n{n} grid={len(inst.grid)}",
            # "--at=" keeps a leading minus sign from reading as an option
            argv=("--file", fname, f"--at={at}") + SO,
            ref=ref, largest=i == len(ALTERNANCE_SIZES) - 1,
            files={fname: problem_text(inst)}))
    return cases


WORKLOADS = {
    "registry": registry_cases,
    "alternance": alternance_cases,
    "combinatorial": combinatorial_cases,
    "cone-sampling": cone_sampling_cases,
}


# ---------------------------------------------------------------------------
# comparing a report with its reference
# ---------------------------------------------------------------------------


_ATOL = {"cadre_dets": 1e-7, "flavor_complete_dets": 1e-7, "objective": 1e-12}


def observe(report: dict, exit_code: int) -> dict:
    """The fields of a report that references speak about."""
    nec = report.get("necessary") or {}
    suf = report.get("sufficient") or {}
    cadre = nec.get("cadre") or {}
    fl = report.get("flavor_search") or {}
    obj = report.get("objective") or {}
    complete = fl.get("complete")
    return {
        "exit_code": exit_code,
        "zero_in_D": nec.get("zero_in_D"),
        "zero_in_int_D": suf.get("zero_in_int_D"),
        "cadre_p": cadre.get("p"),
        "cadre_dets": tuple(cadre.get("determinants", ())),
        "cadre_complete": cadre.get("complete"),
        "flavor_p": (fl.get("cadre") or {}).get("p"),
        "flavor_complete_p": complete["p"] if complete else 0,
        "flavor_complete_dets": tuple((complete or {}).get("determinants",
                                                           ())),
        "objective": obj.get("value"),
        "active": tuple((a["scenario"], a["sign"])
                        for a in obj.get("active", ())),
    }


def mismatches(ref: Ref, seen: dict) -> list:
    """One line per reference field that the observed report contradicts."""
    bad = []
    for name, got in seen.items():
        want = getattr(ref, name)
        if want is None:
            continue
        if name in _ATOL:
            ok = got is not None and np.shape(got) == np.shape(want) and \
                np.allclose(got, want, atol=_ATOL[name], rtol=1e-9)
        else:
            ok = got == want
        if not ok:
            bad.append(f"{name}: expected {want!r}, got {got!r}")
    return bad
