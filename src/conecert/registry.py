"""Built-in benchmark problems with their candidate points.

Each entry is stored in the problem file format, so loading a registry
entry exercises the same loader as user files.  The counterexample entry
writes its kinked constraints in the polynomial form they take on the
polyhedral set (where x(3) >= 0 makes |x(3)|*x(3) equal x(3)^2), keeping
every expression smooth at the candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import SamplingSpec
from .problem import ToleranceSet, load_problem_text



_SQ2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class RegistryEntry:
    name: str
    text: str
    candidate: tuple
    soc_extra: tuple = ()
    note: str = ""


_DEM = RegistryEntry(
    name="dem",
    text="""
[problem] dim=2
[scenario] f="5*x(1) + x(2)"
[scenario] f="-5*x(1) + x(2)"
[scenario] f="x(1)^2 + x(2)^2 + 4*x(2)"
""",
    candidate=(0.0, -3.0),
    note="unconstrained three-scenario minimax; all scenarios tie at the "
         "candidate",
)

_MADSEN = RegistryEntry(
    name="madsen",
    text="""
[problem] dim=2
[scenario] f="x(1)^2 + x(2)^2 + x(1)*x(2) - 1"
[scenario] f="sin(x(1))"
[scenario] f="-cos(x(2))"
[set] lb="0,1"
""",
    candidate=(0.0, 1.0),
    note="bound-constrained minimax; the candidate sits at the corner of "
         "the box",
)

_BAZARAA = RegistryEntry(
    name="bazaraa45",
    text="""
[problem] dim=2
[scenario] f="x(1)^4 + x(2)^4 + 12*x(1)^2 + 6*x(2)^2 - x(1)*x(2) - x(1) - x(2)"
[nlp_ineq] g="-x(1) - x(2) + 6" g="-2*x(1) + x(2) + 3"
[set] lb="0,0"
""",
    candidate=(3.0, 3.0),
    note="smooth program with two active inequalities; bounds inactive at "
         "the candidate",
)

_COUNTER = RegistryEntry(
    name="counterexample-3-2",
    text="""
[problem] dim=3
[scenario] f="x(1) + x(2)^2 + x(3)"
[nlp_ineq] g="x(2) - x(3)^2" g="-x(2) - x(3)^2"
[set] lb="-inf,-inf,0" eq="x(1) = 0"
""",
    candidate=(0.0, 0.0, 0.0),
    note="first-order growth holds, yet no generalised complete certificate "
         "exists; a weak one does",
)

_SOC = RegistryEntry(
    name="soc-example",
    text="""
[problem] dim=2
[scenario] f="x(1)^2 + x(2)^2 + 4*x(1) - x(2)"
[scenario] f="sin(x(1)) - x(2)"
[scenario] f="cos(x(2)) - 1"
[soc] g1="-x(1) + sin(x(2)) + 1" g2="sin(x(1)) - 2*x(2) - 1"
[soc] g1="2*x(1)^2 + 2*x(2)^2" g2="x(1) + x(2)" g3="2*x(2)"
""",
    candidate=(0.0, 0.0),
    soc_extra=((1, (-_SQ2, -_SQ2)),),
    note="one boundary and one apex second-order-cone block; the extra "
         "apex direction reproduces the published certificate",
)

_SDP = RegistryEntry(
    name="sdp-example",
    text="""
[problem] dim=3
[scenario] f="-3*x(1) - 3*x(2) - 2*sin(x(3))"
[scenario] f="-x(1) + x(2)^2 + x(3)^2 - 1"
[scenario] f="(x(1) - 1)^2 + 2*x(3)"
[sdp] size=3
  entry(1,1)="x(1) - x(2)^2"
  entry(1,2)="sin(x(3))"
  entry(1,3)="x(1) + x(2) + x(3)"
  entry(2,2)="x(2)"
  entry(2,3)="x(1)*x(2) + (x(3) + 1)^2"
  entry(3,3)="x(1)^2 + x(2)^2 - x(3) - 2"
""",
    candidate=(1.0, -1.0, 0.0),
    note="matrix-cone block with a two-dimensional kernel at the candidate",
)


def _linf_entry(d: int) -> RegistryEntry:
    lines = [f"[problem] dim={d}"]
    for i in range(1, d + 1):
        lines.append(f'[scenario] f="x({i})"')
        lines.append(f'[scenario] f="-x({i})"')
    return RegistryEntry(
        name=f"linf(d={d})",
        text="\n".join(lines) + "\n",
        candidate=(0.0,) * d,
        note="max-norm objective; only a two-point plain certificate exists "
             "at the origin",
    )


_FIXED = {e.name: e for e in (_DEM, _MADSEN, _BAZARAA, _COUNTER, _SOC, _SDP)}

NAMES = ("dem", "madsen", "bazaraa45", "linf", "counterexample-3-2",
         "soc-example", "sdp-example")

__all__ = ["RegistryEntry", "NAMES", "get"]


def get(name: str, dim: int | None = None,
        tolerances: ToleranceSet | None = None):
    """Load a registry entry.  Returns (problem, candidate, sampling)."""
    if name == "linf":
        if dim is None:
            raise KeyError("linf needs an explicit dimension")
        entry = _linf_entry(dim)
    elif name in _FIXED:
        if dim is not None:
            raise KeyError(f"{name} does not take a dimension")
        entry = _FIXED[name]
    else:
        raise KeyError(f"unknown registry problem {name!r}; known: "
                       + ", ".join(NAMES))
    problem = load_problem_text(entry.text, source=f"registry:{entry.name}",
                                tolerances=tolerances)
    sampling = SamplingSpec(soc_extra=entry.soc_extra)
    return problem, entry.candidate, sampling

