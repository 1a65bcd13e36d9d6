"""Cone primitives shared by the constraint blocks and the generator sets:
projections, deterministic direction sampling, the spectral split of a
symmetric matrix, the provenance record every generator carries, the one
encoder of report values into JSON data (``json_data``), and the
row-wise products, norms and maxima that screen a stack of points or
directions bit for bit as a loop over them would, and the one decision of
what a unit direction is (``unit_rows``) and which directions are distinct
(``distinct_rows``).

Nothing here knows about problems; ``problem`` builds its blocks on these
and ``geometry`` re-exports them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "json_data", "Record", "EigenFailure", "Provenance", "SpectralData",
    "spectral_split", "project_soc", "project_psd_neg", "unit_directions",
    "axis_directions", "sdp_null_directions", "unit_rows", "distinct_rows",
    "pair_dots", "row_norms", "builtin_max",
]


def json_data(value):
    """The JSON data of a report value: every float zero as 0.0, never
    -0.0 (adding 0.0 changes no other float), a numpy scalar as the
    Python number it holds, an array, list or tuple as a list, a dict
    with its values encoded, a string, int, bool or None as it is, and
    any other value, a record, by its ``to_json()``."""
    if isinstance(value, float):
        return float(value) + 0.0
    if isinstance(value, (str, int)) or value is None:
        return value
    if isinstance(value, dict):
        return {k: json_data(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_data(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return json_data(value.tolist())
    return value.to_json()


class Record:
    """A report dataclass whose JSON form is its fields in order, each
    through ``json_data``, less those whose metadata sets json=False."""

    def to_json(self):
        return {f.name: json_data(getattr(self, f.name))
                for f in fields(self) if f.metadata.get("json", True)}


class EigenFailure(Exception):
    pass


@dataclass(frozen=True)
class Provenance:
    kind: str            # 'scenario'|'nlp_ineq'|'nlp_eq'|'soc_boundary'|
                         # 'soc_apex'|'sdp_null'|'semi_infinite'|'bound'|
                         # 'set_eq'|'aux_sum'|'aux_hull'
    block: int | None = None
    index: int | None = None   # constraint / scenario / grid index
    sign: int = 1
    detail: tuple = ()         # sampled direction, when applicable

    def to_json(self):
        out = {"kind": self.kind, "sign": self.sign}
        if self.block is not None:
            out["block"] = self.block
        if self.index is not None:
            out["index"] = self.index
        if self.detail:
            out["detail"] = self.detail
        return json_data(out)


@dataclass
class SpectralData:
    eigenvalues: np.ndarray      # descending
    Q: np.ndarray                # orthonormal eigenvectors, matching order
    null_basis: np.ndarray       # columns spanning the kernel


def spectral_split(M: np.ndarray, eps_rank: float) -> SpectralData:
    """Eigen-decomposition of the symmetric M in descending order, with the
    kernel cut at eps_rank relative to max(1, |M|_2)."""
    try:
        sigma, Q = np.linalg.eigh(M)
    except np.linalg.LinAlgError as err:
        raise EigenFailure(str(err)) from err
    order = np.argsort(sigma)[::-1]
    sigma = sigma[order]
    Q = Q[:, order]
    scale = max(1.0, float(np.max(np.abs(sigma))))
    null_cols = [j for j in range(len(sigma))
                 if abs(sigma[j]) <= eps_rank * scale]
    Q0 = Q[:, null_cols] if null_cols else np.zeros((M.shape[0], 0))
    return SpectralData(eigenvalues=sigma, Q=Q, null_basis=Q0)


def project_soc(y) -> np.ndarray:
    """Euclidean projection onto {(y0, ybar) : y0 >= |ybar|}."""
    y = np.asarray(y, dtype=float)
    y0, ybar = y[0], y[1:]
    nbar = float(np.linalg.norm(ybar))
    if y0 > nbar:
        return y.copy()
    if y0 <= -nbar:
        return np.zeros_like(y)
    coef = 0.5 * (y0 + nbar)
    out = np.empty_like(y)
    out[0] = coef
    out[1:] = coef * ybar / nbar
    return out


def project_psd_neg(M) -> np.ndarray:
    """Projection onto negative-semidefinite matrices: clamp eigenvalues at 0."""
    M = np.asarray(M, dtype=float)
    if np.max(np.abs(M - M.T)) > 1e-10:
        raise ValueError("matrix must be symmetric")
    try:
        sigma, Q = np.linalg.eigh(M)
    except np.linalg.LinAlgError as err:
        raise EigenFailure(str(err)) from err
    clamped = np.minimum(sigma, 0.0)
    P = (Q * clamped) @ Q.T
    # halving first: P + P.T overflows for entries near the largest float
    return 0.5 * P + 0.5 * P.T


def unit_directions(dim: int, count: int, seed: int) -> list[np.ndarray]:
    """Deterministic low-discrepancy unit vectors (Sobol points pushed
    through the normal inverse CDF, then normalized)."""
    if dim < 1 or count < 1:
        return []
    if dim == 1:
        return [np.array([1.0]), np.array([-1.0])][:max(count, 2)]
    # imported here: scipy.stats and scipy.special take longer to import
    # than the rest of the package, and only the sampled cone blocks draw
    # directions
    from scipy.special import ndtri
    from scipy.stats import qmc
    sampler = qmc.Sobol(d=dim, scramble=True, seed=seed)
    # draw a power-of-two batch (Sobol balance), drop the leading point,
    # truncate to the requested count
    n_draw = 1 << max(1, (count + 1).bit_length())
    raw = sampler.random(n_draw)[1:count + 1]
    return list(unit_rows(ndtri(np.clip(raw, 1e-12, 1 - 1e-12)), 1e-12)[0])


# A stacked matrix product may sum in another order than one dot product
# of two vectors, and ``np.linalg.norm(H, axis=1)`` than the norm of one
# row.  A stack of (1 x k) @ (k x 1) products makes numpy call the same BLAS
# dot, row by row, as ``np.dot(u, v)`` and ``np.linalg.norm(u)`` do, so
# these match the loops bit for bit.  For k = 1 numpy's product adds the
# one term to 0.0 instead, which turns a -0.0 into 0.0, so that case is the
# plain product.


def pair_dots(H, R) -> np.ndarray:
    """out[i, j] = np.dot(H[i], R[j]), each computed as for one pair."""
    H = np.ascontiguousarray(H, dtype=float)
    R = np.ascontiguousarray(R, dtype=float)
    if H.shape[1] == 1:
        return H * R.T
    return np.matmul(H[:, None, None, :], R[:, :, None])[:, :, 0, 0]


def row_norms(H) -> np.ndarray:
    """np.linalg.norm of each row of H, computed as for one row."""
    H = np.ascontiguousarray(H, dtype=float)
    return np.sqrt(np.matmul(H[:, None, :], H[:, :, None])[:, 0, 0])


def builtin_max(rows) -> np.ndarray:
    """Column by column, Python's ``max`` over the rows in order: a row
    replaces the running value only where it is strictly greater, so NaN
    and signed zeros come out as the builtin's do."""
    rows = iter(rows)
    out = next(rows)
    for row in rows:
        out = np.where(row > out, row, out)
    return out


def unit_rows(V, floor: float):
    """The rows of V whose norm (``row_norms``) is not below floor, each
    divided by its norm, and their indices."""
    V = np.asarray(V, dtype=float)
    norms = row_norms(V)
    idx = np.flatnonzero(~(norms < floor))
    return V[idx] / norms[idx, None], idx


# candidates compared with the kept rows at once; a block's (block x kept)
# screen bounds the memory a comparison takes
_DISTINCT_BLOCK = 64


def distinct_rows(U, tol: float, antipodal: bool = False,
                  kept=None) -> np.ndarray:
    """Indices of the rows of U that are kept, in order: a row is dropped
    when it lies within tol of one kept before it, a row of ``kept`` or
    an earlier kept row of U (or within tol of its negation too, when
    antipodal).  The distances are those of ``np.linalg.norm(kept - u,
    axis=1)``, bit for bit.  Only the pairs whose first coordinates differ
    by less than 2 tol get one: the computed norm of a difference is at
    least its first coordinate's size times 1 - 2^-53 (for tol above
    1e-150, where 4 tol^2 does not underflow)."""
    U = np.asarray(U, dtype=float)
    ref = np.empty((0, U.shape[-1])) if kept is None else np.asarray(
        kept, dtype=float)
    out = []
    for start in range(0, len(U), _DISTINCT_BLOCK):
        block = U[start:start + _DISTINCT_BLOCK]
        rows = np.concatenate([ref, block])
        maybe = np.abs(rows[:, 0] - block[:, :1]) < 2 * tol
        if antipodal:
            maybe |= np.abs(rows[:, 0] + block[:, :1]) < 2 * tol
        i, j = np.nonzero(maybe)
        dist = np.linalg.norm(rows[j] - block[i], axis=-1)
        if antipodal:
            dist = np.minimum(
                dist, np.linalg.norm(rows[j] + block[i], axis=-1))
        near = np.zeros(maybe.shape, dtype=bool)
        near[i, j] = dist < tol
        # a row is compared with the rows before it; those near none are
        # kept, the others decided in order against the rows kept
        near[:, len(ref):] &= np.tri(len(block), k=-1, dtype=bool)
        taken = np.ones(len(rows), dtype=bool)
        for k in np.flatnonzero(near.any(axis=1)):
            taken[len(ref) + k] = not np.any(near[k] & taken)
        new = np.flatnonzero(taken[len(ref):])
        ref = np.concatenate([ref, block[new]])
        out.extend(start + new)
    return np.array(out, dtype=int)


def axis_directions(dim: int) -> list[np.ndarray]:
    out = []
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = 1.0
        out.append(e)
        out.append(-e)
    return out


def sdp_null_directions(Q0: np.ndarray, count: int,
                        seed: int) -> list[np.ndarray]:
    """Unit kernel vectors q: axis-aligned ones first, then the basis
    columns, then sampled combinations.  q and -q give the same
    generator, so antipodal duplicates are removed."""
    l, r = Q0.shape
    if r == 0:
        return []
    proj = Q0 @ Q0.T
    dirs = [e for e in np.eye(l) if np.linalg.norm(proj @ e - e) <= 1e-9]
    dirs += list(Q0.T)
    if r > 1:
        dirs += [Q0 @ u for u in unit_directions(r, count, seed)]
    U, _ = unit_rows(np.array(dirs), 1e-12)
    return list(U[distinct_rows(U, 1e-9, antipodal=True)])
