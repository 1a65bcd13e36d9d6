"""Cone primitives shared by the constraint blocks and the generator sets:
projections, deterministic direction sampling, the spectral split of a
symmetric matrix, the provenance record every generator carries, and the
row-wise products, norms and maxima that screen a stack of points or
directions bit for bit as a loop over them would.

Nothing here knows about problems; ``problem`` builds its blocks on these
and ``geometry`` re-exports them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

__all__ = [
    "EigenFailure", "Provenance", "SpectralData", "spectral_split",
    "project_soc", "project_psd_neg", "unit_directions", "axis_directions",
    "sdp_null_directions", "KeptRows", "pair_dots", "row_norms",
    "builtin_max",
]


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
            out["detail"] = list(self.detail)
        return out


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
        sigma, Q = np.linalg.eigh(0.5 * (M + M.T))
    except np.linalg.LinAlgError as err:
        raise EigenFailure(str(err)) from err
    clamped = np.minimum(sigma, 0.0)
    P = (Q * clamped) @ Q.T
    return 0.5 * (P + P.T)


def unit_directions(dim: int, count: int, seed: int) -> list[np.ndarray]:
    """Deterministic low-discrepancy unit vectors (Sobol points pushed
    through the normal inverse CDF, then normalized)."""
    if dim < 1 or count < 1:
        return []
    if dim == 1:
        return [np.array([1.0]), np.array([-1.0])][:max(count, 2)]
    sampler = qmc.Sobol(d=dim, scramble=True, seed=seed)
    # draw a power-of-two batch (Sobol balance), drop the leading point,
    # truncate to the requested count
    n_draw = 1 << max(1, (count + 1).bit_length())
    raw = sampler.random(n_draw)[1:count + 1]
    out = []
    for row in raw:
        z = ndtri(np.clip(row, 1e-12, 1 - 1e-12))
        norm = np.linalg.norm(z)
        if norm > 1e-12:
            out.append(z / norm)
    return out


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


class KeptRows:
    """Vectors kept in insertion order as the rows of one growing array, so
    that a candidate is compared with every kept row in one call."""

    def __init__(self, dim: int):
        self._rows = np.empty((8, dim))
        self._n = 0

    def near(self, v, tol: float, antipodal: bool = False) -> bool:
        """Whether some kept row lies within tol of v (or of -v, when
        antipodal)."""
        kept = self._rows[:self._n]
        dist = np.linalg.norm(kept - v, axis=1)
        if antipodal:
            dist = np.minimum(dist, np.linalg.norm(kept + v, axis=1))
        return bool(np.any(dist < tol))

    def append(self, v):
        if self._n == len(self._rows):
            self._rows = np.vstack([self._rows, np.empty_like(self._rows)])
        self._rows[self._n] = v
        self._n += 1


def axis_directions(dim: int) -> list[np.ndarray]:
    out = []
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = 1.0
        out.append(e)
        out.append(-e)
    return out


def sdp_null_directions(Q0: np.ndarray, count: int, seed: int,
                        extras) -> list[np.ndarray]:
    """Unit kernel vectors q: axis-aligned ones first, then the basis
    columns, user extras, then sampled combinations.  q and -q give the
    same generator, so antipodal duplicates are removed."""
    l, r = Q0.shape
    if r == 0:
        return []
    dirs: list[np.ndarray] = []
    kept = KeptRows(l)

    def push(q):
        norm = np.linalg.norm(q)
        if norm < 1e-12:
            return
        q = q / norm
        if kept.near(q, 1e-9, antipodal=True):
            return
        kept.append(q)
        dirs.append(q)

    proj = Q0 @ Q0.T
    for i in range(l):
        e = np.zeros(l)
        e[i] = 1.0
        if np.linalg.norm(proj @ e - e) <= 1e-9:
            push(e)
    for j in range(r):
        push(Q0[:, j])
    for q in extras:
        push(np.asarray(q, dtype=float))
    if r == 1:
        return dirs
    for u in unit_directions(r, count, seed):
        push(Q0 @ u)
    return dirs
