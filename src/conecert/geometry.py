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
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .cones import (EigenFailure, Provenance, SpectralData, axis_directions,
                    pair_dots, project_psd_neg, project_soc,
                    sdp_null_directions, unit_directions)
from .linkernel import Tableau, combination_system
from .problem import (ActiveSets, FeasibilityReport, PolyhedralSet, Problem,
                      activity, check_feasible, squared_generators,
                      subdifferential_generators)

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
    sdp_extra: tuple = ()   # (block_position, null_vector) pairs

    def extras_for(self, table, position):
        return [np.asarray(v, dtype=float) for p, v in table if p == position]


@dataclass
class GeneratorSet:
    """Finite generator families for the first-order machinery.

    grads_F spans the objective subdifferential, eta the cone-constraint
    normal cone, nA the normal cone of the polyhedral set.  eta_dual holds
    the block-space dual each eta vector is the image of.  ``sampled`` is
    set when eta contains sampled (inner-approximation) directions.
    ``tableau`` holds the set's one phase 1: membership, the interior
    margins and the second-order forms all re-optimise from it.
    """

    d: int
    grads_F: list = field(default_factory=list)
    grads_prov: list = field(default_factory=list)
    eta: list = field(default_factory=list)
    eta_prov: list = field(default_factory=list)
    eta_dual: list = field(default_factory=list)
    nA: list = field(default_factory=list)
    nA_prov: list = field(default_factory=list)
    sampled: bool = False

    @property
    def cone(self) -> list:
        """The generators of the two normal cones, eta then nA: the cone
        weights' columns in ``linkernel.combination_system``."""
        return list(self.eta) + list(self.nA)

    @cached_property
    def tableau(self) -> Tableau:
        """Phase 1 of the system of 0 in co(grads_F) + cone(cone), run on
        first use; infeasible when grads_F is empty."""
        return Tableau(*combination_system(self.grads_F, self.cone, d=self.d))


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


def build_generator_set(P: Problem, x, act: ActiveSets,
                        sampling: SamplingSpec) -> GeneratorSet:
    """The generator families at x: the objective's (sub)gradients, each
    block's normal-cone generators and the polyhedral set's."""
    x = np.asarray(x, dtype=float)
    grads = subdifferential_generators(P, x, act.scenarios)
    gprov = [Provenance("scenario", index=s.index, sign=s.sign)
             for s in act.scenarios]
    eta = [gen for ba, blk in zip(act.blocks, P.blocks)
           for gen in blk.normal_generators(x, ba, sampling)]
    na, nprov = nA_generators(P.set_A, x, P.tolerances.eps_feas)
    return GeneratorSet(d=P.d, grads_F=grads, grads_prov=gprov,
                        eta=[v for v, _, _ in eta],
                        eta_prov=[pr for _, pr, _ in eta],
                        eta_dual=[dual for _, _, dual in eta],
                        nA=na, nA_prov=nprov,
                        sampled=any(ba.sampled for ba in act.blocks))


class TangentTester:
    """Precomputed linearized-feasibility test at one point.

    Each block tests directions against its normal-cone generators in
    ``generators`` (or its own rows, see the blocks' ``tangent_test``),
    the polyhedral set against its normal-cone generators.  ``screen`` and ``accepted``
    test a stack of directions (the rows of H) at once."""

    def __init__(self, P: Problem, x, act: ActiveSets,
                 generators: GeneratorSet):
        x = np.asarray(x, dtype=float)
        self.eps = P.tolerances.eps_feas
        rows = {ba.position: [] for ba in act.blocks}
        for v, pr in zip(generators.eta, generators.eta_prov):
            rows[pr.block].append(v)
        self._tests = [blk.tangent_test(x, ba, rows[ba.position])
                       for ba, blk in zip(act.blocks, P.blocks)]
        # bound rows and both signs of every affine equality row
        nA = generators.nA
        self._A_rows = np.array(nA, dtype=float).reshape(len(nA), P.d)

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
    and block states (the matrix spectral data among them), the plain and
    squared generator sets (holding the one sample of apex and kernel
    directions, and each its own phase 1, ``GeneratorSet.tableau``) and
    the tangent tester.  Build one per problem, point and sampling, and
    pass it to each check.  ``memo`` holds what the checks derive from
    these and share (the second-order tests keep their multiplier vertices
    and critical directions there)."""

    def __init__(self, problem: Problem, x,
                 sampling: SamplingSpec | None = None):
        self.problem = problem
        self.x = np.asarray(x, dtype=float)
        self.sampling = sampling or SamplingSpec()
        self.memo = {}

    @cached_property
    def feasibility(self) -> FeasibilityReport:
        return check_feasible(self.problem, self.x)

    @cached_property
    def act(self) -> ActiveSets:
        return activity(self.problem, self.x)

    @cached_property
    def generators(self) -> GeneratorSet:
        return build_generator_set(self.problem, self.x, self.act,
                                   self.sampling)

    @cached_property
    def squared(self) -> GeneratorSet:
        """The generator set of the squared-deviation formulation."""
        return replace(self.generators, grads_F=squared_generators(
            self.problem, self.x, self.act.scenarios))

    @cached_property
    def tester(self) -> TangentTester:
        return TangentTester(self.problem, self.x, self.act, self.generators)
