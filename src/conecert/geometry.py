"""Cone geometry at a point: normal-cone generator sets, tangent tests, and
the per-point context the checks share.

The generator families are exact for the polyhedral parts (nonlinear
inequalities/equalities, bounds, affine equalities, semi-infinite grid
points).  For second-order-cone blocks at the apex and for semidefinite
blocks the extreme directions form a continuum; those are inner-approximated
by a deterministic, seeded sample of unit directions and flagged as sampled.
Every sampled generator genuinely belongs to its cone, so certificates built
from them remain valid; only completeness of a failed search degrades.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .cones import (EigenFailure, Provenance, SequenceChain, SpectralData,
                    axis_directions, pair_dots, project_psd_neg, project_soc,
                    sdp_null_directions, unit_directions)
from .linkernel import LpResult, Tableau, combination_system
from .problem import (ActiveSets, FeasibilityReport, PolyhedralSet, Problem,
                      ScenarioJets, activity, check_feasible)

__all__ = [
    "SamplingSpec", "Provenance", "GeneratorSet", "SpectralData",
    "PointNotInSet", "EigenFailure", "PointContext",
    "project_soc", "project_psd_neg", "unit_directions",
    "nA_vector", "nA_generators", "build_generator_set", "TangentTester",
    "block_distances", "axis_directions", "sdp_null_directions",
]


class PointNotInSet(Exception):
    pass


@dataclass(frozen=True)
class SamplingSpec:
    """Deterministic direction sampling for the non-polyhedral cone parts."""

    soc_dirs: int = 64
    sdp_dirs: int = 64
    seed: int = 0
    soc_extra: tuple = ()   # (block_position, direction) pairs


@dataclass
class GeneratorSet:
    """Finite generator families for the first-order machinery.

    grads_F spans the objective subdifferential, eta the cone-constraint
    normal cone, nA the normal cone of the polyhedral set; eta and nA are
    (n, d) arrays, one generator a row (a list of rows given is stacked).
    ``families`` holds each block's ``problem.NormalFamily``, in block
    order: eta and eta_prov are their rows, in that order, and their
    duals the block-space multipliers the eta rows are the images of.
    The set built at a point reads eta_prov through to the families'
    records (a ``SequenceChain``), so a sampled family builds the record
    of a row only when it is read.  ``sampled`` is set when eta contains
    sampled (inner-approximation) directions.
    ``tableau`` holds the set's one phase 1, ``membership`` the optimum of
    its membership system, and ``derived`` the rest the checks compute
    from the set, each once: its cadre searches and their pools, and its
    second-order inputs.
    """

    d: int
    grads_F: list = field(default_factory=list)
    grads_prov: list = field(default_factory=list)
    eta: np.ndarray = field(default_factory=list)
    eta_prov: Sequence = field(default_factory=list)
    families: list = field(default_factory=list)
    nA: np.ndarray = field(default_factory=list)
    nA_prov: list = field(default_factory=list)
    sampled: bool = False
    # not an init field, so dataclasses.replace gives a new set an empty one
    memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.eta = np.asarray(self.eta, dtype=float).reshape(-1, self.d)
        self.nA = np.asarray(self.nA, dtype=float).reshape(-1, self.d)

    @property
    def cone(self) -> np.ndarray:
        """The generators of the two normal cones, eta then nA: the cone
        weights' columns in ``linkernel.combination_system``."""
        return np.concatenate([self.eta, self.nA])

    @cached_property
    def tableau(self) -> Tableau:
        """Phase 1 of the system of 0 in co(grads_F) + cone(cone), run on
        first use; infeasible when grads_F is empty."""
        return Tableau(*combination_system(self.grads_F, self.cone, d=self.d))

    @cached_property
    def membership(self) -> LpResult:
        """The weights of 0 in co(grads_F) + cone(cone), a basic optimum
        solved from ``tableau`` on first use: the multipliers of the
        necessary check and the support of its plain cadre."""
        return self.tableau.solve(0)

    def derived(self, key, compute):
        """``compute()`` on the first ask for ``key``, then kept; the key
        names all the result depends on that the set does not fix."""
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]


def nA_vector(A: PolyhedralSet, d: int, prov: Provenance) -> np.ndarray:
    """The normal vector ``prov`` names: sign * e_i for a bound on x(i + 1),
    sign times row i of E for an affine equality."""
    if prov.kind == "bound":
        vec = np.zeros(d)
        vec[prov.index] = float(prov.sign)
        return vec
    return prov.sign * np.asarray(A.E[prov.index], dtype=float)


def nA_generators(A: PolyhedralSet, x, eps_feas: float = 1e-8):
    """Extreme rays of the normal cone of the box/affine set at x, each
    built by ``nA_vector`` from its provenance: -e_i and e_i for an active
    lower and upper bound, both signs of each equality row."""
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    for i in range(d):
        if A.lb[i] != -math.inf and x[i] - A.lb[i] < -eps_feas:
            raise PointNotInSet(f"x({i + 1}) below its lower bound")
        if A.ub[i] != math.inf and A.ub[i] - x[i] < -eps_feas:
            raise PointNotInSet(f"x({i + 1}) above its upper bound")
    for row, rhs in zip(A.E, A.e):
        if abs(float(np.dot(row, x)) - rhs) > eps_feas:
            raise PointNotInSet("affine equality violated")
    prov = []
    for i in range(d):
        if A.lb[i] != -math.inf and abs(x[i] - A.lb[i]) <= eps_feas:
            prov.append(Provenance("bound", index=i, sign=-1))
        if A.ub[i] != math.inf and abs(A.ub[i] - x[i]) <= eps_feas:
            prov.append(Provenance("bound", index=i, sign=1))
    for r in range(len(A.E)):
        prov.append(Provenance("set_eq", index=r, sign=1))
        prov.append(Provenance("set_eq", index=r, sign=-1))
    return [nA_vector(A, d, pr) for pr in prov], prov


def build_generator_set(jets: ScenarioJets, act: ActiveSets,
                        sampling: SamplingSpec) -> GeneratorSet:
    """The generator families at the point of ``jets``: the objective's
    (sub)gradients, read from that table, each block's normal-cone
    generators and the polyhedral set's."""
    P, x = jets.problem, jets.x
    grads = jets.gradients(act.scenarios)
    gprov = [Provenance("scenario", index=s.index, sign=s.sign)
             for s in act.scenarios]
    families = [blk.normal_generators(x, ba, sampling)
                for ba, blk in zip(act.blocks, P.blocks)]
    na, nprov = nA_generators(P.set_A, x, P.tolerances.eps_feas)
    return GeneratorSet(d=P.d, grads_F=grads, grads_prov=gprov,
                        eta=np.concatenate([np.empty((0, P.d))] + [
                            fam.vectors for fam in families]),
                        eta_prov=SequenceChain(fam.prov for fam in families),
                        families=families, nA=na, nA_prov=nprov,
                        sampled=any(ba.sampled for ba in act.blocks))


class TangentTester:
    """Precomputed linearized-feasibility test at one point.

    Each block tests directions against its family of normal-cone
    generators in ``generators`` (or its own rows, see the blocks'
    ``tangent_test``), the polyhedral set against its normal-cone
    generators.  ``screen`` and ``accepted`` test a stack of directions
    (the rows of H) at once."""

    def __init__(self, P: Problem, x, act: ActiveSets,
                 generators: GeneratorSet):
        x = np.asarray(x, dtype=float)
        self.eps = P.tolerances.eps_feas
        self._tests = [blk.tangent_test(x, ba, fam.vectors)
                       for ba, blk, fam in zip(act.blocks, P.blocks,
                                               generators.families)]
        # bound rows and both signs of every affine equality row
        self._A_rows = generators.nA

    def screen(self, H) -> tuple[list, np.ndarray]:
        """For the directions in the rows of H: per block, whether each
        passes the block's test, and whether each passes the polyhedral
        set's."""
        H = np.ascontiguousarray(H, dtype=float)
        blocks = [test(H, self.eps) for test in self._tests]
        in_A = np.all(pair_dots(H, self._A_rows) <= self.eps, axis=1)
        return blocks, in_A

    def accepted(self, H) -> np.ndarray:
        """Whether each row of H is linearized feasible."""
        blocks, in_A = self.screen(H)
        for ok in blocks:
            in_A = in_A & ok
        return in_A


def block_distances(P: Problem, x) -> list[float]:
    """Distance of each block's value to its cone, in the block norms
    (Euclidean residual for second-order cones, Frobenius for matrix cones,
    max over the grid for semi-infinite, l1 pieces for the nonlinear parts);
    their sum is the exact penalty term."""
    x = np.asarray(x, dtype=float)
    return [blk.distance(x) for blk in P.blocks]


class PointContext:
    """The data every check needs at one point, each part computed on first
    use and then shared: feasibility, the objective with its active sets
    and block states (the matrix spectral data among them), the scenario
    jets (each active scenario differentiated once per derivative order),
    the plain and squared generator sets (holding the one sample of apex
    and kernel directions) and the tangent tester.  Each generator set
    keeps what the checks derive from it: its phase 1 and membership
    optimum, its cadre searches and its second-order inputs
    (``GeneratorSet.tableau``, ``membership`` and ``derived``).
    Build one per problem, point and sampling, and pass it to each
    check."""

    def __init__(self, problem: Problem, x,
                 sampling: SamplingSpec | None = None):
        self.problem = problem
        self.x = np.asarray(x, dtype=float)
        self.sampling = sampling or SamplingSpec()

    @cached_property
    def feasibility(self) -> FeasibilityReport:
        return check_feasible(self.problem, self.x)

    @cached_property
    def act(self) -> ActiveSets:
        return activity(self.problem, self.x)

    @cached_property
    def jets(self) -> ScenarioJets:
        return ScenarioJets(self.problem, self.x)

    @cached_property
    def generators(self) -> GeneratorSet:
        return build_generator_set(self.jets, self.act, self.sampling)

    @cached_property
    def squared(self) -> GeneratorSet:
        """The generator set of the squared-deviation formulation."""
        return replace(self.generators, grads_F=self.jets.gradients(
            self.act.scenarios, squared=True))

    @cached_property
    def tester(self) -> TangentTester:
        return TangentTester(self.problem, self.x, self.act, self.generators)
