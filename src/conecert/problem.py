"""Minimax/Chebyshev problem instances over heterogeneous constraint blocks.

A Problem bundles the scenario functions, the constraint blocks (nonlinear
inequalities/equalities, second-order cone, semidefinite, discretized
semi-infinite), a polyhedral set given by bounds and affine equalities, and
the tolerance set used for all activity and feasibility decisions.  All
pointwise queries (objective, active scenarios, subdifferential generators,
feasibility) live here.  Feasibility and the objective value are also
computed over a stack of points at once (``feasibility``,
``objective_values``); ``check_feasible`` is the one-point case.

Each block kind is one class (NlpIneq, NlpEq, Soc, Sdp, SemiInfinite) that
carries every operation the rest of the package needs from a block, so no
other module branches on the kind:

- ``table`` and ``jets(x, rows=None, order=0)``: the block's functions
  of x (``components``: a matrix cone's entries on and above the
  diagonal, row by row; or g at the grid points) and the one way the
  operations below read them, to the derivative order each one needs;
- ``activity(x, tol, position)``: the block's BlockActivity at x (active
  indices, second-order-cone state, matrix spectral data);
- ``violations(pts, position)``: (description, amounts) pairs, one amount
  per point of the stack ``pts``, for check_feasible and feasibility,
  from the block's ``table`` read at every point at once;
- ``distance(x)``: distance of the block value to its cone in the block
  norm, the exact-penalty term;
- ``normal_generators(x, state, sampling)``: the NormalFamily of
  generators of the normal cone, one stack (n scalar multipliers for the
  scalar blocks, an (n, l+1) array for a second-order cone, an (n, l, l)
  array for a matrix cone); apex and kernel directions are sampled here
  and nowhere else, and built as one stacked product;
- ``tangent_test(x, state, rows)``: given the block's generator vectors,
  the rows of an (n, d) array, a test ``(H, eps) -> bool array`` of
  linearized feasibility of each direction in the rows of H;
- ``add_dual(dual, family, row, weight)``: adds an LP weight times the
  dual of row ``row`` of the block's NormalFamily to the block's
  multiplier;
- ``dual_derivatives(x, dual, order)``: the gradient and, at order 2,
  the Hessian in x of the pairing <dual, G_block(x)>, from one ``jets``;
- ``dual_to_json(dual)`` and ``dual_from_json(data)``: a multiplier's
  JSON form, read back against the block (ValueError for a key, weight
  or array that does not fit it);
- ``from_section(pairs, d, line)`` and ``to_text(d)``: the block read
  from and printed as its section of the problem file format (d is the
  problem dimension).

Class attributes complete the protocol: ``kind`` (the block's name in
reports), ``section`` (its section name in problem files), ``polyhedral``
(the normal cone is finitely generated, so no curvature term arises) and
``separable`` (the block distance sums over scalar constraints, so each is
its own penalty group).

Scenarios, like a block's functions, are held in a ``_FunctionTable``:
a scenario of an expression shape of its own as its tree, the scenarios
of a shared shape as one family (``expr.Family``).  A discretised
Chebyshev fit has thousands of scenarios that differ only in their
decimal literals; loading such a file parses each distinct shape once
and keeps the literals as arrays.  ``evaluate_objective`` and
``objective_values`` read the table in one walk, each tree alone and
each family stacked over its members (``_FunctionTable.stack``, in
slabs over a wide stack of points), and so does ``ScenarioJets`` for
the derivatives of the active scenarios, a family stacked over those
members alone.  ``P.scenarios[i]`` builds a family member's tree on
first access.  A Problem built from trees keeps them as they are.  The
loader reads most lines of a large shape by one match of a line
template each.
"""

from __future__ import annotations

import codecs
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .cones import (MAX_SOBOL_DIM, EigenFailure, Provenance, ProvenanceRows,
                    axis_directions, builtin_max, distinct_rows, pair_dots,
                    project_soc, row_norms, sdp_null_directions,
                    spectral_split, unit_directions, unit_rows)
from .linkernel import SLAB_FLOATS, rank

__all__ = [
    "ToleranceSet", "PolyhedralSet", "NormalFamily", "NlpIneq", "NlpEq",
    "Soc", "Sdp",
    "SemiInfinite", "BLOCK_CLASSES", "Problem", "ActiveScenario",
    "BlockActivity", "ActiveSets",
    "FeasibilityReport", "ProblemFormatError",
    "evaluate_objective", "objective_values", "activity", "check_feasible",
    "feasibility",
    "ScenarioJets",
    "load_problem_text", "load_problem_file", "problem_to_text",
]


@dataclass(frozen=True)
class ToleranceSet:
    eps_active: float = 1e-8
    eps_rank: float = 1e-9
    eps_det: float = 1e-8
    eps_feas: float = 1e-8
    eps_pos: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # written so that NaN fails too
            if not 0 < value < math.inf:
                raise ValueError(f"{f.name} must be a finite number > 0, "
                                 f"got {value}")


@dataclass(frozen=True)
class PolyhedralSet:
    """Box bounds plus optional affine equalities E x = e."""

    lb: tuple = ()
    ub: tuple = ()
    E: tuple = ()   # rows of the equality matrix
    e: tuple = ()

    @staticmethod
    def free(d: int) -> "PolyhedralSet":
        return PolyhedralSet(lb=(-math.inf,) * d, ub=(math.inf,) * d)

    def validate(self, d: int):
        if len(self.lb) != d or len(self.ub) != d:
            raise ValueError("bound vectors must have length d")
        if any(map(math.isnan, (*self.lb, *self.ub, *self.e))):
            raise ValueError("bounds and equality right-hand sides must not "
                             "be NaN")
        for lo, hi in zip(self.lb, self.ub):
            if lo > hi:
                raise ValueError("lb must not exceed ub")
        if self.E:
            E = np.asarray(self.E, dtype=float)
            if E.shape != (len(self.e), d):
                raise ValueError("equality matrix shape mismatch")
            if rank(E) != len(self.E):
                raise ValueError("equality rows must be linearly independent")


@dataclass
class BlockActivity:
    position: int
    kind: str
    active: list = field(default_factory=list)   # constraint / grid indices
    soc_state: str = ""                          # 'inactive'|'boundary'|'origin'
    soc_value: np.ndarray | None = None
    jacobian: np.ndarray | None = None           # soc only, unless inactive
    eigenvalues: np.ndarray | None = None        # descending, sdp only
    null_basis: np.ndarray | None = None         # columns span ker G0(x)
    sampled: bool = False    # the normal cone's generators are a sample


class NormalFamily(NamedTuple):
    """A block's normal-cone generators at a point: row k of ``vectors``
    is the image under the block's derivative of the multiplier
    ``duals[k]``, and ``prov[k]`` names it.  A sampled family's ``prov``
    is a ``ProvenanceRows`` of its directions, which builds a record only
    when it is read; the others' is a list."""

    vectors: np.ndarray   # (n, d)
    duals: np.ndarray     # (n,), (n, l+1) or (n, l, l)
    prov: Sequence


class _Points:
    """Points stacked as the columns of ``X`` (one row per variable).

    ``values`` evaluates a function table at every point and collects in
    ``undefined`` the points where a value is undefined, and in ``reason``
    the reason code of the first undefined value met (``note``)."""

    def __init__(self, X):
        self.X = np.ascontiguousarray(X, dtype=float)
        self.n = self.X.shape[1]
        self.undefined = np.zeros(self.n, dtype=bool)
        self.reason = 0

    def values(self, table) -> np.ndarray:
        """The table's values at the points, one row per function."""
        vals, reasons, _, _ = table.stack(self.X)
        self.note(reasons)
        return vals

    def note(self, reasons):
        """Record reason codes, one per point on the last axis."""
        if np.count_nonzero(reasons):
            if not self.reason:
                self.reason = reasons.flat[np.argmax(reasons != 0)]
            self.undefined |= reasons.reshape(-1, self.n).any(axis=0)


class _Block:
    """Defaults shared by every block kind (the protocol is listed in the
    module docstring)."""

    separable = False

    @cached_property
    def table(self):
        """The components as a function table, each a tree."""
        return _FunctionTable.of_trees(self.components)

    def jets(self, x, rows=None, order=0):
        """(values, gradients (n, d), Hessians (n, d, d)) at x of the
        table's functions (all, or those of the indices ``rows``), in
        order (``_FunctionTable.stack``); the first undefined function
        raises its DomainError."""
        vals, reasons, grads, hess = self.table.stack(x, rows, order)
        ex.raise_undefined(reasons)
        return vals, grads, hess

    def tangent_test(self, x, state, rows):
        """Linearized feasibility: <r, h> <= eps for every generator r of
        the block's normal cone at x."""
        return lambda H, eps: np.all(pair_dots(H, rows) <= eps, axis=1)


class _ScalarBlock(_Block):
    """Blocks of scalar constraints; a dual is an {index: weight} table,
    its weights nonnegative unless ``signed_duals`` (an equality's).  A
    constraint g <= 0 is active where g is within eps_active of 0 or above
    it; its generator is its gradient, named by ``_provenance``."""

    polyhedral = True
    signed_duals = False

    def activity(self, x, tol, position):
        v = self.jets(x)[0]   # a NaN value is never active
        return BlockActivity(position, self.kind, active=np.flatnonzero(
            (np.abs(v) <= tol.eps_active) | (v > 0)).tolist())

    def normal_generators(self, x, state, sampling):
        grads = self.jets(x, state.active, 1)[1]
        return NormalFamily(
            grads, np.ones(len(state.active)),
            [self._provenance(state.position, i) for i in state.active])

    def add_dual(self, dual, family, row, weight):
        index = family.prov[row].index
        dual = {} if dual is None else dual
        dual[index] = dual.get(index, 0.0) + weight * family.duals[row]
        return dual

    def dual_derivatives(self, x, dual, order):
        _, grads, hessians = self.jets(x, list(dual), order)
        weights = list(dual.values())
        return (sum((w * g for w, g in zip(weights, grads)), np.zeros(len(x))),
                _weighted_hessian(weights, hessians, len(x)))

    def dual_to_json(self, dual):
        return {str(i): w for i, w in dual.items()}

    def dual_from_json(self, data):
        weight = _stored_number if self.signed_duals else _stored_weight
        return {_stored_index(i, len(self.table), f"{self.kind} constraint",
                              key=True):
                weight(w, f"{self.kind} weight")
                for i, w in data.items()}


def _weighted_hessian(weights, hessians, d):
    """sum(w_k H_k) over the weights that are not 0, in order, or None."""
    if hessians is None:
        return None
    hess = np.zeros((d, d))
    for w, H in zip(weights, hessians):
        if w != 0.0:
            hess = hess + w * H
    return hess


class _ConeBlock(_Block):
    """Blocks whose value must lie in a curved cone; a dual is an array."""

    polyhedral = False

    def add_dual(self, dual, family, row, weight):
        return (0.0 if dual is None else dual) + weight * family.duals[row]

    def dual_to_json(self, dual):
        return dual.tolist()

    def dual_from_json(self, data):
        return _stored_array(data, f"{self.kind} dual", self.dual_shape)


class _NlpBlock(_ScalarBlock):
    """Expressions in x, one per constraint, each given as ``key="..."`` in
    the block's section: NlpIneq (g_i(x) <= 0) and NlpEq (b_j(x) = 0)."""

    separable = True

    @property
    def components(self) -> tuple:
        return getattr(self, self.key)

    @classmethod
    def from_section(cls, pairs, d, line):
        texts = [v for k, v, _ in pairs if k == cls.key]
        if not texts or len(texts) != len(pairs):
            raise ProblemFormatError(
                f"{cls.section} takes only {cls.key}=... entries",
                cls.section, line)
        return cls(tuple(_parse_expr(t, d, cls.section, line)
                         for t in texts))

    def to_text(self, d):
        return f"[{self.section}] " + " ".join(
            f'{self.key}="{ex.to_string(e)}"' for e in self.components)


@dataclass(frozen=True)
class NlpIneq(_NlpBlock):
    g: tuple  # expressions g_i(x) <= 0
    kind = section = "nlp_ineq"
    key = "g"

    def violations(self, pts, position):
        return [(f"block {position} inequality {i + 1}", v)
                for i, v in enumerate(pts.values(self.table))]

    def distance(self, x):
        return sum(max(0.0, v) for v in self.jets(x)[0].tolist())

    def _provenance(self, position, i):
        return Provenance("nlp_ineq", position, i)


@dataclass(frozen=True)
class NlpEq(_NlpBlock):
    b: tuple  # expressions b_j(x) = 0
    kind = section = "nlp_eq"
    key = "b"
    signed_duals = True

    def activity(self, x, tol, position):
        return BlockActivity(position, self.kind,
                             active=list(range(len(self.b))))

    def violations(self, pts, position):
        return [(f"block {position} equality {j + 1}", v)
                for j, v in enumerate(np.abs(pts.values(self.table)))]

    def distance(self, x):
        return sum(abs(v) for v in self.jets(x)[0].tolist())

    def normal_generators(self, x, state, sampling):
        # both signs of each constraint's gradient, in turn
        grads = self.jets(x, order=1)[1]
        return NormalFamily(
            np.stack([grads, -grads], axis=1).reshape(-1, len(x)),
            np.tile([1.0, -1.0], len(self.b)),
            [Provenance("nlp_eq", state.position, j, sign=sign)
             for j in range(len(self.b)) for sign in (1, -1)])


@dataclass(frozen=True)
class Soc(_ConeBlock):
    g: tuple  # l+1 expressions; (g[0], g[1:]) must lie in the second-order cone
    kind = section = "soc"

    @property
    def l(self) -> int:
        return len(self.g) - 1

    @property
    def components(self) -> tuple:
        return self.g

    @property
    def dual_shape(self) -> tuple:
        return (len(self.g),)

    def dual_derivatives(self, x, dual, order):
        _, J, hessians = self.jets(x, order=order)
        return J.T @ dual, _weighted_hessian(dual, hessians, len(x))

    def activity(self, x, tol, position):
        vals = self.jets(x)[0]
        if np.linalg.norm(vals) <= tol.eps_active:
            state = "origin"
        elif abs(vals[0] - float(np.linalg.norm(vals[1:]))) <= tol.eps_active:
            state = "boundary"
        else:
            state = "inactive"
        # the normal cone's generators and the tangent test both read J
        J = self.jets(x, order=1)[1] if state != "inactive" else None
        return BlockActivity(position, self.kind, soc_state=state,
                             soc_value=vals, jacobian=J,
                             sampled=state == "origin" and self.l >= 2)

    def violations(self, pts, position):
        vals = pts.values(self.table)
        return [(f"block {position} second-order cone",
                 row_norms(vals[1:].T) - vals[0])]

    def distance(self, x):
        vals = self.jets(x)[0]
        return float(np.linalg.norm(vals - project_soc(vals)))

    def normal_generators(self, x, state, sampling):
        if state.soc_state == "inactive":
            return NormalFamily(np.empty((0, len(x))),
                                np.empty((0, self.l + 1)), [])
        J = state.jacobian
        pos = state.position
        if state.soc_state == "boundary":
            vals = state.soc_value
            dual = np.concatenate([[-vals[0]], vals[1:]])
            return NormalFamily((J.T @ dual)[None], dual[None],
                                [Provenance("soc_boundary", pos)])
        # apex: extreme dual rays (-1, v) over unit v, sampled
        dirs = [np.asarray(v, dtype=float)[None]
                for p, v in sampling.soc_extra if p == pos]
        dirs += [axis_directions(self.l),
                 unit_directions(self.l, sampling.soc_dirs,
                                 sampling.seed + 7 * pos + 1)]
        U, _ = unit_rows(np.concatenate(dirs), 1e-12)
        V = U[distinct_rows(U, 1e-9)]
        duals = np.column_stack([np.full(len(V), -1.0), V])
        # one matrix-vector product per dual, as J.T @ dual computes it
        return NormalFamily(
            np.matmul(J.T, duals[:, :, None])[:, :, 0], duals,
            ProvenanceRows("soc_apex", pos, V))

    def tangent_test(self, x, state, rows):
        if state.soc_state == "inactive":
            return lambda H, eps: np.ones(len(H), dtype=bool)
        J = state.jacobian
        if state.soc_state == "boundary":
            ybar = state.soc_value[1:]
            # gradient of |ybar| - y0 composed with the Jacobian
            row = J[1:].T @ (ybar / float(np.linalg.norm(ybar))) - J[0]
            return lambda H, eps: pair_dots(H, row[None])[:, 0] <= eps

        def stays_in_cone(H, eps):   # at the apex J h itself must lie in K
            # one matrix-vector product per direction, as J @ h computes it
            JH = np.matmul(J, np.ascontiguousarray(H)[:, :, None])[:, :, 0]
            return JH[:, 0] >= row_norms(JH[:, 1:]) - eps
        return stays_in_cone

    @classmethod
    def from_section(cls, pairs, d, line):
        name, comps = cls.section, {}
        for k, v, ln in pairs:
            index = _read_count(k[1:], MAX_SOC_SIZE, key=True) \
                if k.startswith("g") else None
            if index is None:
                raise ProblemFormatError(f"unknown key {k!r}", name, ln)
            if index > MAX_SOC_SIZE:
                raise ProblemFormatError(
                    f"soc has at most {MAX_SOC_SIZE} components, got {k!r}",
                    name, ln)
            comps[index] = (v, ln)
        if not comps or sorted(comps) != list(range(1, len(comps) + 1)):
            raise ProblemFormatError("soc needs g1..gk consecutively",
                                     name, line)
        if len(comps) < 2:
            raise ProblemFormatError("soc needs at least g1 and g2",
                                     name, line)
        return cls(tuple(_parse_expr(comps[i][0], d, name, comps[i][1])
                         for i in range(1, len(comps) + 1)))

    def to_text(self, d):
        return "[soc] " + " ".join(
            f'g{i + 1}="{ex.to_string(g)}"' for i, g in enumerate(self.g))


@dataclass(frozen=True)
class Sdp(_ConeBlock):
    G0: tuple  # l rows of l expressions, symmetric; G0(x) must be neg. semidefinite
    kind = section = "sdp"

    @property
    def size(self) -> int:
        return len(self.G0)

    @property
    def dual_shape(self) -> tuple:
        return (self.size, self.size)

    @cached_property
    def components(self) -> tuple:
        return tuple(e for i, row in enumerate(self.G0) for e in row[i:])

    @cached_property
    def _component_table(self):
        """The (l, l) table of the component of each entry: entry (i, j),
        i <= j, is component offset[i] + j."""
        r = np.arange(self.size)
        offset = r * (2 * self.size - 1 - r) // 2
        return offset[np.minimum.outer(r, r)] + np.maximum.outer(r, r)

    def matrices(self, rows):
        """The symmetric matrices of ``rows``, one row per component: axes
        0 and 1 of the result run over the matrix, the rest are a row's."""
        return np.asarray(rows)[self._component_table]

    def activity(self, x, tol, position):
        spec = spectral_split(self.matrices(self.jets(x)[0]), tol.eps_rank)
        return BlockActivity(position, self.kind, eigenvalues=spec.eigenvalues,
                             null_basis=spec.null_basis,
                             sampled=spec.null_basis.shape[1] > 1)

    def violations(self, pts, position):
        M = self.matrices(pts.values(self.table)).transpose(2, 0, 1)
        # a matrix with an undefined or non-finite entry has no
        # eigenvalues: its amount is NaN, a violation; a NaN matrix in the
        # stack could make eigvalsh fail for every point
        nonfinite = ~np.isfinite(M).all(axis=(1, 2))
        M[pts.undefined | nonfinite] = 0.0
        sigma = np.linalg.eigvalsh(M)[:, -1]
        sigma[nonfinite] = math.nan
        return [(f"block {position} matrix cone", sigma)]

    def distance(self, x):
        """Frobenius distance to the negative-semidefinite cone: the norm
        of the positive eigenvalues, 0.0 at a feasible point.  hypot
        scales before squaring, so entries near the largest float do not
        overflow."""
        try:
            sigma = np.linalg.eigvalsh(self.matrices(self.jets(x)[0]))
        except np.linalg.LinAlgError as err:
            raise EigenFailure(str(err)) from err
        return math.hypot(*np.maximum(sigma, 0.0).tolist())

    def normal_generators(self, x, state, sampling):
        Q0 = state.null_basis
        if Q0.shape[1] == 0:
            return NormalFamily(np.empty((0, len(x))),
                                np.empty((0, self.size, self.size)), [])
        pos = state.position
        grads = self.matrices(self.jets(x, order=1)[1])
        Q = sdp_null_directions(Q0, sampling.sdp_dirs,
                                sampling.seed + 7 * pos + 3)
        # the generator of q is q' dG q, its dual the outer product q q'
        return NormalFamily(
            np.einsum("ni,ijk,nj->nk", Q, grads, Q),
            Q[:, :, None] * Q[:, None, :], ProvenanceRows("sdp_null", pos, Q))

    def dual_derivatives(self, x, dual, order):
        _, grads, hessians = self.jets(x, order=order)
        # the entries on and above the diagonal, row by row; each above
        # the diagonal pairs with its mirror too
        r = np.arange(self.size)
        weights = (dual * np.where(r[:, None] == r, 1.0, 2.0))[r[:, None] <= r]
        return (np.einsum("ij,ijk->k", dual, self.matrices(grads)),
                _weighted_hessian(weights, hessians, len(x)))

    @classmethod
    def from_section(cls, pairs, d, line):
        name, size, entries = cls.section, None, {}
        for k, v, ln in pairs:
            if k == "size":
                size = _parse_count("size", v, MAX_SDP_SIZE, name, ln)
            elif k.startswith("entry(") and k.endswith(")"):
                index = re.fullmatch(r"entry\(0*([0-9]+),0*([0-9]+)\)", k)
                if index is None:
                    raise ProblemFormatError(f"bad entry key {k!r}", name, ln)
                entries[index[1], index[2]] = (v, ln)
            else:
                raise ProblemFormatError(f"unknown key {k!r}", name, ln)
        if size is None:
            raise ProblemFormatError("sdp needs size=l", name, line)
        rows = [[None] * size for _ in range(size)]
        for key, (v, ln) in entries.items():
            i, j = (_read_count(k, size, key=True) for k in key)
            if not (1 <= i <= size and 1 <= j <= size):
                raise ProblemFormatError(f"entry({','.join(key)}) outside "
                                         f"matrix", name, ln)
            rows[i - 1][j - 1] = rows[j - 1][i - 1] = _parse_expr(
                v, d, name, ln)
        for i in range(size):
            for j in range(i, size):
                if rows[i][j] is None:
                    raise ProblemFormatError(
                        f"missing entry({i + 1},{j + 1})", name, line)
        return cls(tuple(tuple(r) for r in rows))

    def to_text(self, d):
        parts = [f"size={self.size}"] + [
            f'entry({i + 1},{j + 1})="{ex.to_string(row[j])}"'
            for i, row in enumerate(self.G0) for j in range(i, self.size)]
        return "[sdp] " + " ".join(parts)


@dataclass(frozen=True)
class SemiInfinite(_ScalarBlock):
    g: ex.Expression  # in x(1..d) and the parameter t = x(d+1)
    grid: tuple       # sorted, duplicate-free points of the compact index set
    d: int            # the dimension of x
    kind = "semi_infinite"
    section = "semiinf"

    def __post_init__(self):
        if not self.grid:
            raise ValueError("semi-infinite grid must be non-empty")
        if list(self.grid) != sorted(set(self.grid)):
            raise ValueError("semi-infinite grid must be sorted and "
                             "duplicate-free")

    @cached_property
    def _points(self):
        """The grid as one read-only array, built once per block."""
        t = np.array(self.grid)
        t.flags.writeable = False
        return t

    @cached_property
    def table(self):
        """g at the grid points: one family, t a ``Column`` of the grid."""
        t, var = ex.Column(self._points), ex.Var(self.d + 1)
        return _FunctionTable([None] * len(self.grid), [ex.Family(
            self.g.map_nodes(lambda node: t if node == var else node),
            np.arange(len(self.grid)))])

    def violations(self, pts, position):
        # the maximum over the grid in order is each slab's maximum, then
        # the maximum of those: a later value replaces the running one
        # only where it is strictly greater; NaN anywhere on the grid is a
        # violation, though the maximum skips it after the first value
        nan, tops = np.zeros(pts.n, dtype=bool), []
        for _, (v, r, _, _) in self.table.passes(pts.X):
            v, r = np.broadcast_arrays(np.atleast_2d(v), r)
            pts.note(r)
            nan |= np.isnan(v).any(axis=0)
            tops.append(builtin_max(v))
        return [(f"block {position} semi-infinite",
                 np.where(nan, math.nan, builtin_max(np.array(tops))))]

    def distance(self, x):
        return max(0.0, float(builtin_max(self.jets(x)[0])))

    def _provenance(self, position, j):
        return Provenance("semi_infinite", position, j,
                          detail=(float(self._points[j]),))

    @classmethod
    def from_section(cls, pairs, d, line):
        name, g_txt, grid_txt = cls.section, None, None
        for k, v, ln in pairs:
            if k == "g":
                g_txt = (v, ln)
            elif k == "grid":
                grid_txt = (v, ln)
            else:
                raise ProblemFormatError(f"unknown key {k!r}", name, ln)
        if g_txt is None or grid_txt is None:
            raise ProblemFormatError("semiinf needs g=... and grid=a:b:n",
                                     name, line)
        parts, ln = grid_txt[0].split(":"), grid_txt[1]
        if len(parts) != 3:
            raise ProblemFormatError("grid must be a:b:n", name, ln)
        a = _parse_number(parts[0], name, ln)
        b = _parse_number(parts[1], name, ln)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ProblemFormatError("grid ends must be finite numbers",
                                     name, ln)
        n = _parse_count("the grid's point count", parts[2],
                         MAX_GRID_POINTS, name, ln)
        if (n == 1 and a != b) or b < a:
            raise ProblemFormatError("grid must satisfy a <= b, n >= 1",
                                     name, ln)
        grid = tuple(np.linspace(a, b, n).tolist())
        g = _parse_expr(g_txt[0], d, name, g_txt[1], params=("t",))
        try:
            return cls(g, grid, d)
        except ValueError as err:
            raise ProblemFormatError(str(err), name, ln)

    def to_text(self, d):
        a, b = self.grid[0], self.grid[-1]
        # the parameter x(d+1) prints as the t it is read as
        g = ex.to_string(self.g).replace(f"x({d + 1})", "t")
        return (f'[semiinf] g="{g}" '
                f'grid={_fmt_num(a)}:{_fmt_num(b)}:{len(self.grid)}')


# the block classes, in the order of their multiplier tables in a report
BLOCK_CLASSES = (NlpIneq, NlpEq, Soc, Sdp, SemiInfinite)
_SECTION_BLOCKS = {cls.section: cls for cls in BLOCK_CLASSES}


def _rows(a, n, axes):
    """The n members' rows of a stacked jet whose rows have ``axes`` axes:
    numbers, or views; a jet that no ``Column`` reaches, or None (a
    derivative that is 0), is every member's."""
    if a is None or a.ndim == axes:
        return [a if axes or a is None else a.item()] * n
    return list(a) if axes else a.tolist()


def _run(at):
    """Increasing rows (a list or an array) as a slice where they run in
    order, else as they are."""
    if at[-1] - at[0] == len(at) - 1:
        return slice(at[0], at[-1] + 1)
    return at


class _FunctionTable(Sequence):
    """Scenarios or a block's components: each function a tree, or a
    member of a family (``expr.Family``), the functions of one shape of two
    or more.  A member's tree is built from its family on first access and
    kept for the table's life (of two threads' equal trees, either).

    Every read is one walk over the table's units: a tree, whose jets fill
    its own row, or a family's template, whose jets fill its members'
    rows (``_units``)."""

    def __init__(self, trees, families=()):
        self._trees = list(trees)   # a tree at its row, None at a member's
        self._built = {}   # the members' trees built so far, by row
        self._families = tuple(families)   # members increasing
        # the units of a walk over every function, with no family cut
        self._whole = [(i, tree) for i, tree in enumerate(self._trees)
                       if tree is not None]
        self._whole += [(_run(fam.members), fam.template)
                        for fam in self._families]
        self._widest = max((len(fam.members) for fam in self._families),
                           default=0)
        if self._families:
            # row i of a family is member _member[i] of family _family[i]
            self._family = np.zeros(len(self._trees), dtype=np.intp)
            self._member = np.zeros(len(self._trees), dtype=np.intp)
            for f, fam in enumerate(self._families):
                self._family[fam.members] = f
                self._member[fam.members] = np.arange(len(fam.members))
        self._skeletons = {}

    @classmethod
    def of_trees(cls, trees):
        return cls(trees)

    @classmethod
    def of_shapes(cls, shapes, d, params=()):
        """The table of texts grouped by skeleton (``expr.parse_families``);
        a skeleton of one member keeps its pieces and literals for
        ``families``."""
        table = cls(*ex.parse_families(shapes, d, params))
        table._skeletons = {
            members[0]: (pieces, members, literals, d, params)
            for pieces, (members, literals) in shapes.items()
            if len(members) == 1 and literals}
        return table

    def __len__(self):
        return len(self._trees)

    def __getitem__(self, i):
        i = range(len(self._trees))[i]
        tree = self._trees[i]
        if tree is None:
            tree = self._built.get(i)
        if tree is None:
            fam = self._families[self._family[i]]
            tree = self._built[i] = fam.tree(int(self._member[i]))
        return tree

    @cached_property
    def families(self):
        """The functions by shape, each group an ``expr.Family``, in the
        order of their first members: the table's families, and a family
        of one member for each tree, parsed here from its skeleton where
        the table was read from texts (``of_shapes``; its free literals
        ``Column`` leaves), else the tree as its template.  No read goes
        through it."""
        out = dict(zip([int(fam.members[0]) for fam in self._families],
                       self._families))
        for i, tree in enumerate(self._trees):
            if tree is not None:
                out[i] = (i in self._skeletons and ex.family(
                    *self._skeletons[i])) or ex.Family(tree, np.array([i]))
        return [out[i] for i in sorted(out)]

    def _units(self, rows, per):
        """The walk over the functions (all, or those of the indices
        ``rows``, in order): (at, expression) pairs, a tree and its row, or
        a family's template and its rows, a slice where they run in order.
        A family's template is cut to its members among ``rows``
        (``Family.stacked``), and to slabs: no pass holds more than
        ``SLAB_FLOATS`` numbers per function, ``per`` each (a value per
        point at order 0, a Hessian's d^2 at order 2); a pass of one
        number per function is not cut."""
        step = max(1, SLAB_FLOATS // per) if per > 1 else len(self)
        if rows is None:
            if step >= self._widest:
                return self._whole
            units = [unit for unit in self._whole if type(unit[0]) is int]
            for fam in self._families:
                for lo in range(0, len(fam.members), step):
                    units.append((_run(fam.members[lo:lo + step]),
                                  fam.stacked(slice(lo, lo + step))))
            return units
        trees, units, held = self._trees, [], []
        for pos, i in enumerate(rows):
            tree = trees[i]
            if tree is None:
                held.append(pos)
            else:
                units.append((pos, tree))
        if held:   # family members, a family at a time
            held = np.array(held)
            picked = np.asarray(rows)[held]
            fams, members = self._family[picked], self._member[picked]
            for f in set(fams.tolist()):
                mine = fams == f
                at, ks = held[mine], members[mine]
                for lo in range(0, len(at), step):
                    units.append((_run(at[lo:lo + step]),
                                  self._families[f].stacked(ks[lo:lo + step])))
        return units

    def passes(self, X):
        """(rows, ``expr.jets`` at X) of the functions at the stack of
        points X, one unit of ``stack``'s walk at a time: for a reduction
        over a table whose values at X are too many to hold at once."""
        X = np.ascontiguousarray(X, dtype=float)
        for at, e in self._units(None, np.size(X[0])):
            yield at, ex.jets(e, X, 0, 0)

    def stack(self, X, rows=None, order=0):
        """(values, reasons, gradients, Hessians) of the functions (all,
        or those of the indices ``rows``, in order) at X in one walk, one
        row per function: X is one point or, at order 0, a stack of points
        (its columns), a value per point; at one point the derivatives,
        None below their order and zero-filled where 0 by form
        (``expr.eval_jets``)."""
        X = np.ascontiguousarray(X, dtype=float)
        n, d = len(self) if rows is None else len(rows), len(X)
        shape = (n,) + X.shape[1:]
        vals, reasons = np.empty(shape), np.zeros(shape, dtype=np.int8)
        grads = np.zeros((n, d)) if order else None
        hess = np.zeros((n, d, d)) if order == 2 else None
        per = d * d if order == 2 else 1 if order else np.size(X[0])
        with np.errstate(all="ignore"):   # an undefined value is a reason
            for at, e in self._units(rows, per):
                v, r, g, H = e.jets_at(X, d if order else 0, order)
                vals[at] = v
                if r is not None:
                    reasons[at] = r
                if g is not None:
                    grads[at] = g
                if H is not None:
                    hess[at] = H
        return vals, reasons, grads, hess

    def jets(self, x, numbers, order):
        """{s: (value, reason, grad, hess)} at x of the functions numbered
        ``numbers`` (from 1, distinct, a list) in one walk: hess None at
        order 1 and where the function is affine in x, as ``expr.jets``
        gives."""
        x = np.ascontiguousarray(x, dtype=float)
        d, out = len(x), {}
        zero = np.zeros(d)   # the gradient of a constant
        with np.errstate(all="ignore"):   # an undefined value is a reason
            for at, e in self._units([s - 1 for s in numbers],
                                     d * d if order == 2 else 1):
                v, r, g, H = e.jets_at(x, d if order else 0, order)
                if type(at) is int:   # a tree's row
                    out[numbers[at]] = (float(v), 0 if r is None else int(r),
                                        zero if g is None else g, H)
                    continue
                keys = numbers[at] if type(at) is slice else [
                    numbers[p] for p in at]
                n = len(keys)
                out.update(zip(keys, zip(
                    _rows(v, n, 0), [0] * n if r is None else _rows(r, n, 0),
                    _rows(zero if g is None else g, n, 1), _rows(H, n, 2))))
        return out


@dataclass(frozen=True)
class Problem:
    d: int
    kind: str  # 'minimax' | 'chebyshev'
    scenarios: Sequence     # expressions f_omega (a tuple, or a parsed table)
    psi: tuple = ()         # chebyshev targets, one per scenario
    blocks: tuple = ()
    set_A: PolyhedralSet | None = None
    tolerances: ToleranceSet = field(default_factory=ToleranceSet)
    source: str = "<memory>"

    def __post_init__(self):
        if not isinstance(self.scenarios, _FunctionTable):
            object.__setattr__(self, "scenarios",
                               _FunctionTable.of_trees(self.scenarios))
        if self.d < 1:
            raise ValueError("dimension must be at least 1")
        if not self.scenarios:
            raise ValueError("at least one scenario is required")
        if self.kind not in ("minimax", "chebyshev"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.kind == "chebyshev" and len(self.psi) != len(self.scenarios):
            raise ValueError("chebyshev problems need a target per scenario")
        # a semi-infinite block's t is x(d+1) of its own d
        if any(getattr(b, "d", self.d) != self.d for b in self.blocks):
            raise ValueError("a semi-infinite block's d must be the problem's")
        if self.set_A is None:
            object.__setattr__(self, "set_A", PolyhedralSet.free(self.d))
        self.set_A.validate(self.d)

    def with_tolerances(self, tol: ToleranceSet) -> "Problem":
        return replace(self, tolerances=tol)


@dataclass(frozen=True, slots=True)
class ActiveScenario:
    index: int   # 1-based scenario number
    sign: int    # +1 for minimax; +1/-1 deviation sign for chebyshev
    value: float  # f(x) (minimax) or f(x) - psi (chebyshev)


@dataclass
class ActiveSets:
    F_value: float
    scenarios: list
    blocks: list


def _deviations(P: Problem, X):
    """Every scenario's value at every column of X, less its target in a
    Chebyshev problem, one row per scenario, and the reason codes of the
    undefined values (``_FunctionTable.stack``)."""
    devs, reasons, _, _ = P.scenarios.stack(X)
    if P.kind == "chebyshev":
        with np.errstate(all="ignore"):
            devs -= np.array(P.psi)[:, None]
    return devs, reasons


def objective_values(P: Problem, X) -> tuple[np.ndarray, np.ndarray]:
    """F at each column of X, as ``evaluate_objective`` computes it, and the
    columns where a scenario value is undefined (F is meaningless there)."""
    devs, reasons = _deviations(P, np.ascontiguousarray(X, dtype=float))
    if P.kind == "chebyshev":
        devs = np.abs(devs)
    return builtin_max(devs), reasons.any(axis=0)


def evaluate_objective(P: Problem, x) -> tuple[float, list]:
    """F(x) and the active scenario list.

    F is Python's ``max`` over the deviations (``cones.builtin_max``), and
    a scenario is active where F - v <= eps_active, v its deviation, or
    its absolute value in a Chebyshev problem, where a NaN deviation is
    active too (F - |v| > eps_active fails).  For Chebyshev problems each
    active scenario carries the sign of its deviation; a deviation within
    eps_active of zero is expanded into both signs, since either signed
    copy attains the maximum there.  An undefined scenario value raises
    the DomainError of the first such scenario.
    """
    x = np.asarray(x, dtype=float)
    eps = P.tolerances.eps_active
    devs, reasons = _deviations(P, x[:, None])
    ex.raise_undefined(reasons)
    devs = devs[:, 0]
    size = devs if P.kind == "minimax" else np.abs(devs)
    F = float(builtin_max(size))
    with np.errstate(invalid="ignore"):   # inf - inf is NaN, as in floats
        gaps = F - size
    if P.kind == "minimax":
        kept = np.flatnonzero(gaps <= eps)
        return F, [ActiveScenario(i + 1, 1, v) for i, v in
                   zip(kept.tolist(), devs[kept].tolist())]
    kept = np.flatnonzero(~(gaps > eps))
    return F, [ActiveScenario(i + 1, sign, v)
               for i, v in zip(kept.tolist(), devs[kept].tolist())
               for sign in ((1, -1) if abs(v) <= eps else
                            (1 if v > 0 else -1,))]


def activity(P: Problem, x) -> ActiveSets:
    """Everything cone-specific machinery needs at the point x."""
    x = np.asarray(x, dtype=float)
    F, scen = evaluate_objective(P, x)
    blocks = [blk.activity(x, P.tolerances, pos)
              for pos, blk in enumerate(P.blocks)]
    return ActiveSets(F_value=F, scenarios=scen, blocks=blocks)


@dataclass
class FeasibilityReport:
    feasible: bool
    max_violation: float
    violations: list  # (description, amount)


def _violations(P: Problem, pts: _Points):
    """(description, amounts) for every constraint, one amount per point;
    a constraint is violated where its amount exceeds eps_feas."""
    out = [pair for pos, blk in enumerate(P.blocks)
           for pair in blk.violations(pts, pos)]
    A, X = P.set_A, pts.X
    for i in range(P.d):
        if A.lb[i] != -math.inf:
            out.append((f"lower bound on x({i + 1})", A.lb[i] - X[i]))
        if A.ub[i] != math.inf:
            out.append((f"upper bound on x({i + 1})", X[i] - A.ub[i]))
    if A.E:
        dots = pair_dots(X.T, A.E)
        out += [(f"affine equality {r + 1}", np.abs(dots[:, r] - rhs))
                for r, rhs in enumerate(A.e)]
    return out


def feasibility(P: Problem, X) -> tuple[np.ndarray, np.ndarray]:
    """Whether each column of X is feasible, and whether a constraint value
    is undefined there (such a point counts as infeasible)."""
    pts = _Points(X)
    feasible = np.ones(pts.n, dtype=bool)
    for _, amounts in _violations(P, pts):
        # an amount that is not within eps_feas, NaN included, is violated
        feasible &= amounts <= P.tolerances.eps_feas
    return feasible & ~pts.undefined, pts.undefined


def check_feasible(P: Problem, x) -> FeasibilityReport:
    """The one-point case of ``feasibility``, with the description and
    amount of each violated constraint; an undefined constraint value
    raises its DomainError."""
    x = np.asarray(x, dtype=float)
    pts = _Points(x[:, None])
    amounts = _violations(P, pts)
    ex.raise_undefined(pts.reason)
    bad = [(desc, float(a[0])) for desc, a in amounts
           if not a[0] <= P.tolerances.eps_feas]
    worst = [amt for _, amt in bad]
    worst = (math.nan if any(map(math.isnan, worst))
             else max(worst, default=0.0))
    return FeasibilityReport(feasible=not bad, max_violation=worst, violations=bad)


class ScenarioJets:
    """The scenarios' jets at one point x, the data that the first-order
    forms (generators, multipliers, cadres) and the second-order forms
    share: each scenario's value, gradient and, at order 2, Hessian,
    computed at most once per derivative order, for the scenarios asked
    for, by one walk of the table (``_FunctionTable.jets``).  A
    ``geometry.PointContext`` holds one per point; its generator set asks
    for the active scenarios first."""

    def __init__(self, P: Problem, x):
        self.problem = P
        self.x = np.asarray(x, dtype=float)
        self._rows = {1: {}, 2: {}}   # order -> {index: row}

    def rows(self, indices, order: int = 1) -> list:
        """(value, reason, grad, hess) of each scenario of ``indices``
        (1-based), in order, hess None at order 1 and where the scenario
        is affine; the first of them whose value or derivative is
        undefined raises its DomainError.  The first ask at order 2 takes
        every scenario the table holds at order 1 too, in the same pass:
        the second-order forms read the Hessians of the active scenarios
        one multiplier at a time."""
        rows = self._rows[order]
        held = self._rows[1] if order == 2 else ()
        todo = [i for i in dict.fromkeys([*indices, *held]) if i not in rows]
        if todo:
            rows.update(self.problem.scenarios.jets(self.x, todo, order))
        out = [rows[i] for i in indices]
        for row in out:
            if row[1]:
                ex.raise_undefined(row[1])
        return out

    def terms(self, scenarios, squared: bool = False,
              order: int = 1) -> list:
        """The gradient and, at order 2, the Hessian in x of each
        (index, sign) scenario term of the Lagrangian, as pairs: f in a
        minimax problem; in a Chebyshev problem sign * (f - psi), or
        (f - psi)^2 / 2 in the squared-deviation formulation, whose
        gradient (f - psi) grad f generates its subdifferential and whose
        Hessian is (f - psi) * hess f + grad f grad f'.  A Hessian that is
        0 by the scenario's form, and every Hessian at order 1, is None."""
        P = self.problem
        if squared and P.kind != "chebyshev":
            raise ValueError("squared generators are defined for chebyshev "
                             "problems")
        scenarios = list(scenarios)
        rows = self.rows([index for index, _ in scenarios], order)
        if P.kind != "chebyshev":
            return [(g, H) for _, _, g, H in rows]
        out = []
        for (index, sign), (value, _, g, H) in zip(scenarios, rows):
            if not squared:
                out.append((sign * g, None if H is None else sign * H))
                continue
            dev = value - P.psi[index - 1]
            outer = None if order < 2 else np.outer(g, g)
            out.append((dev * g, outer if H is None else dev * H + outer))
        return out

    def gradients(self, active, squared: bool = False) -> list:
        """The term gradients of the active scenarios (``ActiveScenario``),
        in their order: the objective's subdifferential generators, signed
        in a Chebyshev problem, or those of the squared deviations."""
        return [g for g, _ in self.terms(
            [(s.index, s.sign) for s in active], squared)]


# ---------------------------------------------------------------------------
# problem file format (docs/problem-format.md)
# ---------------------------------------------------------------------------


class ProblemFormatError(Exception):
    def __init__(self, message, section=None, line=None):
        self.section = section
        self.line = line
        where = "" if section is None else f" in [{section}]"
        if line is not None:
            where += f" (line {line})"
        super().__init__(f"{message}{where}")


# one key=value pair after optional whitespace: a key of alphanumerics and
# "_(),", then an opening quote, a quoted value and its closing quote
# (empty when the quote never closes), or a bare value; the last group is
# the rest of the text when no pair starts there
_KV = re.compile(r'\s*(?:([\w(),]+)=(?:(")([^"]*)(")?|(\S*))|(\S.*))', re.S)


def _split_kv(text: str, section: str, line: int):
    """Split 'key=value key2="quoted value"' pairs."""
    found = _KV.findall(text)
    # both errors run to the end of the text, so only the last match can
    # hold one
    if found:
        _, opened, _, closed, _, rest = found[-1]
        if rest:
            raise ProblemFormatError(f"expected key=value, got {rest!r}",
                                     section, line)
        if opened != closed:
            raise ProblemFormatError("unterminated quoted value",
                                     section, line)
    # a pair has a quoted or a bare value, and the other group is empty
    return [(key, quoted or bare, line)
            for key, _, quoted, _, bare, _ in found]


def _parse_sections(text: str, shapes=None, psi=None):
    """The sections of a problem file as (name, line, pairs) tuples, where
    pairs holds the (key, value, line) triples of the section's lines.

    Given a dict ``shapes`` and a list ``psi``, each [scenario] section
    must be one line and goes there instead: its f skeleton maps to its
    members and their literals, and ``psi`` gets its psi.  A line that
    matches the template of the line before it (``_line_template``: its
    family's line, a group for each free literal of f and for psi) is
    read by that match alone, as its pairs and split would read it."""
    sections, templates = [], {}
    pairs = match = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        hit = match and match(raw)
        if hit:
            members.append(len(psi))
            literals += hit.groups()
            psi.append(literals.pop() or None)
            continue
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line[0] == "[":
            name, closed, rest = line[1:].partition("]")
            if not closed:
                raise ProblemFormatError("unterminated section header",
                                         line=lineno)
            name = name.strip()
            pairs = _split_kv(rest, name, lineno)
            match = None
            if shapes is None or name != "scenario":
                sections.append((name, lineno, pairs))
                continue
            f_txt, _, target = _scenario_entry(pairs, lineno)
            parts = ex._FREE_LITERAL.split(f_txt)
            key = tuple(parts[::2])
            members, literals = shapes.setdefault(key, ([], []))
            members.append(len(psi))
            literals += parts[1::2]
            psi.append(target)
            if len(members) == _TEMPLATE_AT and pairs[-1][0] == (
                    "f" if target is None else "psi"):
                templates[key] = _line_template(
                    raw, parts[1::2], None if target is None else pairs[-1][1])
            match = templates.get(key)
            # a line that continues the section fails, for the plain reader
            pairs = None
        elif pairs is None:
            raise ProblemFormatError("content before first section",
                                     line=lineno)
        else:
            pairs += _split_kv(line, name, lineno)
    return sections


# A family's line template is compiled at its member of this count.  On a
# 2-vCPU host (Python 3.11), compiling the template of a 9-slot line of a
# Chebyshev fit (about 1 ms) takes as long as reading 75 such lines by
# their pairs (13 us each), and a hit takes 3-4.5 us, so a template pays
# for itself after about 110 hits.  The families of a grid run to
# thousands of lines; a file of many shapes of 100 lines compiles nothing.
_TEMPLATE_AT = 128


# A line template is made from a [scenario] line whose free literals are
# those of its f value, then, when it has psi, psi's value (its last pair)
# less its sign: the line escaped, with a group for each f literal and one
# for psi's value, sign included, or an empty one without psi.  A line it
# matches differs in its groups alone, which hold no quote, '#', '=',
# bracket or whitespace, so it splits into the same pairs, with the groups
# in f's value and psi's.  A quote or a bare value's edge bounds a literal
# as a text's ends do, so its f text splits into f's pieces around its f
# groups (``ex._template``).  Psi's group holds the characters of a number
# and a sign, which ``_parse_number`` reads as ``float`` does, or fails.
def _line_template(raw, f_literals, psi):
    """The ``fullmatch`` of the template of [scenario] line ``raw``, or
    None; its last pair is psi's, of value ``psi``, or it has no psi."""
    parts = ex._FREE_LITERAL.split(raw)
    pieces = parts[::2]
    if psi is None:
        return ex._template(pieces + [""], "()") if (
            parts[1::2] == f_literals) else None
    if parts[1::2] != f_literals + [psi.lstrip("+-")]:
        return None
    pieces[-2] = pieces[-2].rstrip("+-")
    return ex._template(pieces, r"([-+.0-9eE]+)")


def _parse_number(value: str, section, line) -> float:
    """A number as ``float`` reads it, in ASCII and without the '_' digit
    separators ``float`` also takes (the expression grammar has neither)."""
    if value.isascii() and "_" not in value:
        try:
            return float(value)
        except ValueError:
            # float() reads these spellings of inf too, unless they are
            # padded by a character that str.strip() removes and float()
            # does not (U+001C to U+001F)
            v = value.strip().lower()
            if v in ("inf", "+inf"):
                return math.inf
            if v == "-inf":
                return -math.inf
    raise ProblemFormatError(f"not a number: {value!r}", section, line)


# The largest count of each kind a problem file may ask for, checked
# before anything of that size is allocated.
# dim: the second-order tests and the oracle build d x d Hessians (8 MB
# each at 1000) and the finite-difference Hessian makes 4 d^2 evaluations
MAX_DIM = 1000
# an [sdp] size: the loader lays out a size x size table before it checks
# the entries, and every point's matrix takes an O(size^3) eigensolve; its
# sampled kernel directions lie in at most size <= MAX_SOBOL_DIM dimensions
MAX_SDP_SIZE = 1000
# a [soc]'s components g1 .. gk: the apex samples directions in R^(k-1),
# which the vendored Sobol direction numbers cover up to MAX_SOBOL_DIM
MAX_SOC_SIZE = MAX_SOBOL_DIM + 1
# a [semiinf] grid is held as Python floats (about 32 bytes a point), and
# each point is one scalar constraint evaluated at every point checked
MAX_GRID_POINTS = 100_000


# a count: ASCII digits, leading zeros allowed, with spaces around them and
# a sign before them
_COUNT = re.compile(r"\s*([-+]?)0*([0-9]+)\s*")


def _read_count(text: str, limit: int, key: bool = False):
    """The integer ``text`` writes as a count (as an index in a key when
    ``key``: digits alone), or None; past ``limit``, +-(limit + 1), so
    that int() never reads more digits than it takes (4,300)."""
    m = _COUNT.fullmatch(text)
    if m is None or key and not text.isdigit():
        return None
    n = int(m[2]) if len(m[2]) <= len(str(limit)) else limit + 1
    return min(n, limit + 1) * (-1 if m[1] == "-" else 1)


def _stored_index(value, count: int, what: str, first: int = 0,
                  key: bool = False) -> int:
    """Index ``value`` of one of ``count`` items numbered from ``first`` in
    a stored report: a JSON integer, or a table key read as an index in a
    key (``_read_count``) when ``key``; ValueError naming ``what`` for any
    other value."""
    last = first + count - 1
    index = _read_count(value, last, True) if key else value
    if type(index) is not int or not first <= index <= last:
        raise ValueError(f"{what} {value!r} is not one of {first}..{last}")
    return index


def _stored_array(value, what: str, shape=None) -> np.ndarray:
    """A JSON array of numbers of a stored report, of ``shape`` when given;
    ValueError naming ``what`` for any other value."""
    try:
        array = np.asarray(value)
    except ValueError:   # a ragged list
        array = np.asarray(None)
    if array.dtype.kind not in "iuf" or shape not in (None, array.shape):
        raise ValueError(f"{what} is not an array of numbers"
                         + ("" if shape is None else f" of shape {shape}"))
    return array.astype(float)


def _stored_number(value, what: str) -> float:
    """A finite JSON number of a stored report; ValueError naming ``what``
    for any other value."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{what} {value!r} is not a finite number")
    return float(value)


def _stored_tolerances(value) -> ToleranceSet:
    """The tolerance set a stored report states: a table of the
    ``ToleranceSet`` fields, each a finite JSON number in its range;
    KeyError for a missing field, ValueError naming any other value."""
    if not isinstance(value, dict):
        raise ValueError(f"tolerances {value!r} is not a table")
    return ToleranceSet(**{f.name: _stored_number(value[f.name], f.name)
                           for f in fields(ToleranceSet)})


def _stored_weight(value, what: str) -> float:
    """A finite JSON number of a stored report that is not negative: the
    weight of a generator of a cone; ValueError naming ``what`` for any
    other value."""
    weight = _stored_number(value, what)
    if weight < 0:
        raise ValueError(f"{what} {value!r} is negative")
    return weight


def _parse_count(key: str, value: str, limit: int, section, line) -> int:
    """A count (dim, a matrix size, a grid's point count) of at most 18
    digits, read by ``_read_count``: an integer from 1 to ``limit``."""
    count = _read_count(value, 10 ** 18 - 1)
    if count is None or not 1 <= count < 10 ** 18:
        raise ProblemFormatError(
            f"{key} must be a positive integer, got {value!r}", section, line)
    if count > limit:
        raise ProblemFormatError(
            f"{key} must be at most {limit}, got {value!r}", section, line)
    return count


def _parse_expr(text_value, d, section, line, params=()):
    try:
        return ex.parse(text_value, d, params)
    except ex.ExprError as err:
        raise ProblemFormatError(f"bad expression {text_value!r}: {err}",
                                 section, line)


def _scenario_entry(pairs, line):
    """(f text, its line, psi or None) of a [scenario] section."""
    f_txt = f_line = target = None
    for k, v, ln in pairs:
        if k == "f":
            f_txt, f_line = v, ln
        elif k == "psi":
            target = _parse_number(v, "scenario", ln)
            if not math.isfinite(target):
                raise ProblemFormatError(f"psi must be finite, got {v!r}",
                                         "scenario", ln)
        else:
            raise ProblemFormatError(f"unknown key {k!r}", "scenario", ln)
    if f_txt is None:
        raise ProblemFormatError("scenario needs f=...", "scenario", line)
    return f_txt, f_line, target


def _read_set(pairs, d, bounds, eq_rows, eq_rhs):
    """Read a [set] section into the bound vectors and equality rows."""
    name = "set"
    for k, v, ln in pairs:
        if k in bounds:
            vals = [_parse_number(s, name, ln) for s in v.split(",")]
            if len(vals) != d:
                raise ProblemFormatError(
                    f"{k} needs {d} comma-separated values", name, ln)
            if any(map(math.isnan, vals)):
                raise ProblemFormatError(f"{k} values must not be NaN",
                                         name, ln)
            bounds[k] = vals
        elif k == "eq":
            if "=" not in v:
                raise ProblemFormatError("eq must look like "
                                         "\"<expr> = <number>\"", name, ln)
            lhs_txt, rhs_txt = v.rsplit("=", 1)
            rhs = _parse_number(rhs_txt, name, ln)
            if math.isnan(rhs):
                raise ProblemFormatError("eq right-hand side must not be NaN",
                                         name, ln)
            node = _parse_expr(lhs_txt, d, name, ln)
            eq_rows.append(tuple(_linear_row(node, d, name, ln)))
            eq_rhs.append(rhs)
        else:
            raise ProblemFormatError(f"unknown key {k!r}", name, ln)


def load_problem_text(text: str, source: str = "<memory>",
                      tolerances: ToleranceSet | None = None) -> Problem:
    # [scenario] lines are read one by one, by line templates; a file with
    # a [scenario] section over two lines, or with an error, is read again
    # by the sections' pairs, which give its first error in file order
    try:
        return _load(text, source, tolerances, {})
    except Exception:
        return _load(text, source, tolerances, None)


def _load(text, source, tolerances, shapes):
    texts, f_lines, psi = [], [], []   # per scenario: text, its line, target
    sections = _parse_sections(text, shapes, psi)
    if not sections or sections[0][0] != "problem":
        raise ProblemFormatError("file must start with a [problem] section",
                                 line=1)
    head = {k: (v, ln) for k, v, ln in sections[0][2]}
    if "dim" not in head:
        raise ProblemFormatError("missing dim", "problem", sections[0][1])
    dim_value, dim_line = head["dim"]
    d = _parse_count("dim", dim_value, MAX_DIM, "problem", dim_line)
    kind = head.get("kind", ("minimax", 0))[0]

    blocks = []
    bounds = {"lb": [-math.inf] * d, "ub": [math.inf] * d}
    eq_rows, eq_rhs = [], []
    try:
        for name, line, pairs in sections[1:]:
            if name == "scenario":
                f_txt, f_line, target = _scenario_entry(pairs, line)
                texts.append(f_txt)
                f_lines.append(f_line)
                psi.append(target)
            elif name == "set":
                _read_set(pairs, d, bounds, eq_rows, eq_rhs)
            elif name in _SECTION_BLOCKS:
                blocks.append(
                    _SECTION_BLOCKS[name].from_section(pairs, d, line))
            else:
                raise ProblemFormatError(f"unknown section [{name}]",
                                         name, line)
        scenarios = _FunctionTable.of_shapes(shapes or ex.skeletons(texts), d)
    except Exception:
        # errors keep file order: a bad scenario text read before the
        # failure raises its own error first
        for f_txt, f_line in zip(texts, f_lines):
            _parse_expr(f_txt, d, "scenario", f_line)
        raise

    if not psi:
        raise ProblemFormatError("no [scenario] sections", "problem", 1)
    if kind == "chebyshev":
        if None in psi:
            raise ProblemFormatError("chebyshev scenarios all need psi=...",
                                     "scenario", 1)
        # a template's psi is read here, as _parse_number reads a number
        # of its characters, or fails for the plain reader
        psi_t = tuple(map(float, psi))
        if not all(map(math.isfinite, psi_t)):
            raise ProblemFormatError("psi must be finite", "scenario")
    else:
        if psi.count(None) != len(psi):
            raise ProblemFormatError("psi given but kind is not chebyshev",
                                     "scenario", 1)
        psi_t = ()
    try:
        return Problem(
            d=d, kind=kind, scenarios=scenarios, psi=psi_t,
            blocks=tuple(blocks),
            set_A=PolyhedralSet(tuple(bounds["lb"]), tuple(bounds["ub"]),
                                tuple(eq_rows), tuple(eq_rhs)),
            tolerances=tolerances or ToleranceSet(), source=source)
    except ValueError as err:
        raise ProblemFormatError(str(err), "problem", 1)


def _linear_row(node: ex.Expression, d: int, section, line):
    """Coefficients of an affine expression, its gradient at 0: one whose
    Hessian is 0 by its form (``expr.Expression``); rejects nonlinear eq=
    rows and rows undefined at 0."""
    val, reason, grad, hess = ex.jets(node, np.zeros(d), d, 2)
    if hess is not None or reason:
        raise ProblemFormatError("eq rows must be affine", section, line)
    if abs(val) > 0:   # constant offsets fold into the right-hand side
        raise ProblemFormatError(
            "write constants on the right-hand side of eq", section, line)
    if grad is None or np.all(grad == 0):
        raise ProblemFormatError("eq row has no variables", section, line)
    return grad.tolist()


def load_problem_file(path, tolerances: ToleranceSet | None = None) -> Problem:
    """Load a problem file: UTF-8 text, with or without a byte order
    mark."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ProblemFormatError(f"not UTF-8: byte {data[err.start]:#04x}",
                                 line=data.count(b"\n", 0, err.start) + 1)
    return load_problem_text(text, source=str(path), tolerances=tolerances)


def _fmt_num(v: float) -> str:
    return repr(float(v))   # "inf" and "-inf" for the infinities


def problem_to_text(P: Problem) -> str:
    """Serialize back to the sectioned text format (used by discretize)."""
    lines = [f"[problem] dim={P.d} kind={P.kind}"]
    for i, f in enumerate(P.scenarios):
        entry = f'[scenario] f="{ex.to_string(f)}"'
        if P.kind == "chebyshev":
            entry += f" psi={_fmt_num(P.psi[i])}"
        lines.append(entry)
    lines.extend(blk.to_text(P.d) for blk in P.blocks)
    A = P.set_A
    set_parts = []
    if any(lo != -math.inf for lo in A.lb):
        set_parts.append('lb="' + ",".join(_fmt_num(v) for v in A.lb) + '"')
    if any(hi != math.inf for hi in A.ub):
        set_parts.append('ub="' + ",".join(_fmt_num(v) for v in A.ub) + '"')
    for row, rhs in zip(A.E, A.e):
        terms = []
        for j, c in enumerate(row):
            if c != 0:
                coef = "" if c == 1 else f"{_fmt_num(c)}*"
                terms.append(f"{coef}x({j + 1})")
        set_parts.append(f'eq="{" + ".join(terms)} = {_fmt_num(rhs)}"')
    if set_parts:
        lines.append("[set] " + " ".join(set_parts))
    return "\n".join(lines) + "\n"
