"""Cone primitives shared by the constraint blocks and the generator sets:
projections, deterministic direction sampling (scrambled Sobol points
through the inverse normal CDF, ``sobol_points`` and ``ndtri``, drawn
with numpy alone as scipy draws them), the spectral split of a
symmetric matrix, report records (``Record``) and the provenance record
every generator carries, the sequences that build the records of a
sampled family only for the rows read (``ProvenanceRows``) and read
several families as one (``SequenceChain``), the one encoder of report
values into JSON data (``json_data``) and its one-pass writer of JSON
text (``json_text``), both reading a record's ``json_fields()``, and the
row-wise products, norms and maxima that screen a stack of points or
directions bit for bit as a loop over them would, and the one decision of
what a unit direction is (``unit_rows``) and which directions are distinct
(``distinct_rows``).  The direction samplers return their directions as
the rows of one array.  ``distinct_rows`` is a sorted sweep: it computes
the distances of only the pairs whose first coordinates lie within 2 tol
(a sort and about one distance per row for well-separated directions),
never a screen of every row against every row kept.

Nothing here knows about problems; ``problem`` builds its blocks on these
and ``geometry`` re-exports them.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

__all__ = [
    "json_data", "json_text", "Record", "EigenFailure", "Provenance",
    "ProvenanceRows", "SequenceChain", "SpectralData", "spectral_split",
    "project_soc", "project_psd_neg", "sobol_points", "ndtri",
    "unit_directions", "axis_directions",
    "sdp_null_directions", "unit_rows", "distinct_rows", "pair_dots",
    "row_norms", "builtin_max",
]

_NOT_SCALAR = object()


def _scalar(value):
    """The JSON data of a scalar report value, the rules both walks apply:
    every float zero as 0.0, never -0.0 (adding 0.0 changes no other
    float), a numpy scalar as the Python value it holds, a string, int,
    bool or None as it is; ``_NOT_SCALAR`` for any other value."""
    if isinstance(value, float):
        return float(value) + 0.0
    if isinstance(value, (str, int)) or value is None:
        return value
    if isinstance(value, np.generic):
        return _scalar(value.tolist())
    return _NOT_SCALAR


# Python's json writes these floats as bare tokens
_FLOAT_TOKENS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _token(value) -> str:
    """The JSON text ``json.dumps`` writes for a str, None, bool, int or
    float (ASCII only, NaN and the infinities as bare tokens); a
    TypeError, with json's message for a dict key, for any other value."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_TOKENS.get(text, text)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {value.__class__.__name__}")


def json_data(value):
    """The JSON data of a report value: a scalar by ``_scalar``, an array,
    list or tuple as a list, a dict with its values encoded, and any other
    value, a record, as the encoding of its ``json_fields()``."""
    data = _scalar(value)
    if data is not _NOT_SCALAR:
        return data
    if isinstance(value, dict):
        return {k: json_data(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_data(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return json_data(value.tolist())
    return json_data(value.json_fields())


def json_text(value) -> str:
    """``json.dumps(json_data(value), indent=2)``, written in one walk
    that applies ``json_data``'s rules as it goes."""
    parts = []
    _write(value, parts, "\n")
    return "".join(parts)


def _write(value, parts, newline):
    """Append to parts the text of value, whose lines inside it start
    with newline and two spaces a level."""
    data = _scalar(value)
    if data is not _NOT_SCALAR:
        parts.append(_token(data))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        head = "{" + inner
        for k, v in value.items():
            # a key is written as json writes it, without json_data's rules
            key = k if isinstance(k, str) else _token(k)
            parts.append(head + encode_basestring_ascii(key) + ": ")
            _write(v, parts, inner)
            head = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        head = "[" + inner
        for v in value:
            parts.append(head)
            _write(v, parts, inner)
            head = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, (np.ndarray, np.generic)):
        _write(value.tolist(), parts, newline)
    else:
        _write(value.json_fields(), parts, newline)


class Record:
    """A report dataclass.  ``json_fields()``, which both writers read
    and walk once, gives its raw fields in order, less those whose
    metadata sets json=False; ``to_json()`` is its JSON data."""

    def json_fields(self) -> dict:
        return {f.name: getattr(self, f.name)
                for f in fields(self) if f.metadata.get("json", True)}

    def to_json(self):
        return json_data(self)


class EigenFailure(Exception):
    pass


@dataclass(frozen=True)
class Provenance(Record):
    kind: str            # 'scenario'|'nlp_ineq'|'nlp_eq'|'soc_boundary'|
                         # 'soc_apex'|'sdp_null'|'semi_infinite'|'bound'|
                         # 'set_eq'|'aux_sum'|'aux_hull'
    block: int | None = None
    index: int | None = None   # constraint / scenario / grid index
    sign: int = 1
    detail: tuple = ()         # sampled direction, when applicable

    def json_fields(self):
        out = {"kind": self.kind, "sign": self.sign}
        if self.block is not None:
            out["block"] = self.block
        if self.index is not None:
            out["index"] = self.index
        if self.detail:
            out["detail"] = self.detail
        return out


class ProvenanceRows(Sequence):
    """The records ``Provenance(kind, block, detail=tuple(row))`` of the
    rows of an array of sampled directions, record k built each time row
    k is read: a sampled family has hundreds of rows, and a report names
    the few of positive weight."""

    __slots__ = ("kind", "block", "rows")

    def __init__(self, kind: str, block: int, rows: np.ndarray):
        self.kind, self.block, self.rows = kind, block, rows

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, k):
        return Provenance(self.kind, self.block,
                          detail=tuple(self.rows[operator.index(k)].tolist()))

    def __iter__(self):
        for row in self.rows.tolist():
            yield Provenance(self.kind, self.block, detail=tuple(row))


class SequenceChain(Sequence):
    """The items of several sequences, one after another, each read from
    its sequence when asked for: ``SequenceChain([a, b])[k]`` is
    ``[*a, *b][k]``, without the list."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = list(parts)

    def __len__(self):
        return sum(map(len, self.parts))

    def __getitem__(self, k):
        k = operator.index(k)
        if k < 0:
            k += len(self)
        for part in self.parts:
            if 0 <= k < len(part):
                return part[k]
            k -= len(part)
        raise IndexError("SequenceChain index out of range")

    def __iter__(self):
        for part in self.parts:
            yield from part


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


# The sampled directions are scrambled Sobol points (Joe and Kuo's
# direction numbers, Matousek's linear matrix scrambling plus a digital
# shift) pushed through the inverse normal CDF, drawn as
# scipy.stats.qmc.Sobol(dim, scramble=True, seed=seed) and
# scipy.special.ndtri draw them, bit for bit, with numpy alone.
SOBOL_BITS = 30
# the largest dimension the vendored direction numbers cover
MAX_SOBOL_DIM = 1000
_SOBOL_TABLE = Path(__file__).with_name("sobol_directions.txt")
# for each bit column j: the shifts j and SOBOL_BITS - 1 - j, and the
# integer 2^(SOBOL_BITS - 1 - j)
_BIT_LOW = np.arange(SOBOL_BITS, dtype=np.uint32)
_BIT_HIGH = _BIT_LOW[::-1].copy()
_COLUMN_BIT = np.ones(SOBOL_BITS, dtype=np.uint32) << _BIT_HIGH
# entry (p, i): 2^(SOBOL_BITS - 1 - p) below the diagonal, 0 on and above
_STRICT_LOWER = np.tril(np.ones((SOBOL_BITS, SOBOL_BITS), dtype=np.uint32),
                        -1) << _BIT_HIGH[:, None]


def _sobol_row(s: int, a: int, m: list) -> list:
    """One dimension's direction numbers from its Joe-Kuo row: the initial
    m_1 .. m_s, then the recurrence of Bratley and Fox (ACM TOMS 14,
    1988) on the primitive polynomial x^s + a_1 x^(s-1) + ... + 1, each
    number j scaled by 2^(SOBOL_BITS - 1 - j)."""
    poly = (1 << s) | (a << 1) | 1
    v = list(m)
    for j in range(s, SOBOL_BITS):
        new = v[j - s]
        for k in range(s):
            if (poly >> (s - 1 - k)) & 1:
                new ^= v[j - k - 1] << (k + 1)
        v.append(new)
    return [x << (SOBOL_BITS - 1 - j) for j, x in enumerate(v)]


def _direction_numbers(dim: int) -> np.ndarray:
    """The unscrambled direction numbers of the first ``dim`` dimensions,
    a (dim, SOBOL_BITS) uint32 array: the first dimension's are all 1,
    the others follow from the rows of the vendored table."""
    if not 1 <= dim <= MAX_SOBOL_DIM:
        raise ValueError(f"sampled directions need 1 <= dim <= "
                         f"{MAX_SOBOL_DIM}, got {dim}")
    rows = [_COLUMN_BIT.tolist()]
    with _SOBOL_TABLE.open(encoding="ascii") as fh:
        for line in fh:
            if len(rows) == dim:
                break
            if not line.startswith("#"):
                _, s, a, *m = map(int, line.split())
                rows.append(_sobol_row(s, a, m))
    return np.array(rows, dtype=np.uint32)


# this table and the next are constants of the direction numbers and of
# the point count, not of the seed: each is built once for a dimension or
# a count and kept, read-only, for the few a process asks for
@functools.lru_cache(maxsize=8)
def _direction_bits(dim: int) -> np.ndarray:
    """Entry [k, i, j]: bit SOBOL_BITS - 1 - i of direction number j of
    dimension k (uint8)."""
    bits = ((_direction_numbers(dim)[:, None, :] >> _BIT_HIGH[:, None]) & 1
            ).astype(np.uint8)
    bits.flags.writeable = False
    return bits


@functools.lru_cache(maxsize=8)
def _gray_columns(n: int) -> np.ndarray:
    """The column each step 1 .. n - 1 of a Gray-code draw XORs in: the
    lowest set bit of the step's index."""
    low = np.zeros(n - 1, dtype=np.intp)
    for b in range(1, (n - 1).bit_length()):
        low[(1 << b) - 1::1 << b] = b
    low.flags.writeable = False
    return low


def sobol_points(dim: int, n: int, seed: int) -> np.ndarray:
    """The first n points of the scrambled Sobol sequence in [0, 1)^dim,
    the rows of the result: what
    ``scipy.stats.qmc.Sobol(dim, scramble=True, seed=seed).random(n)``
    returns."""
    if not 1 <= n <= 1 << SOBOL_BITS:
        raise ValueError(f"a Sobol draw holds 1 to 2^{SOBOL_BITS} points, "
                         f"got {n}")
    rng = np.random.default_rng(seed)
    # scipy's draws, in its order and dtype: the shift's bits, then the
    # scrambling matrices, of which only the strict lower triangle is read
    # (the diagonal is 1)
    shift = rng.integers(0, 2, size=(dim, SOBOL_BITS), dtype=np.uint32)
    shift = np.bitwise_or.reduce(shift << _BIT_LOW, axis=1)
    ltm = rng.integers(0, 2, size=(dim, SOBOL_BITS, SOBOL_BITS),
                       dtype=np.uint32)
    # column i of each matrix as an integer, row p its bit
    # SOBOL_BITS - 1 - p: a sum of distinct powers of two
    cols = np.einsum("kpi,pi->ki", ltm, _STRICT_LOWER) + _COLUMN_BIT
    # scrambling is a product over GF(2): each direction number becomes
    # the XOR of the columns of the bits it has set, most significant
    # first
    v = np.bitwise_xor.reduce(cols[:, :, None] * _direction_bits(dim),
                              axis=1)
    # Gray-code order: point i is the shift XOR the columns of the lowest
    # set bit of 1 .. i, one cumulative XOR
    quasi = np.empty((n, dim), dtype=np.uint32)
    quasi[0] = shift
    quasi[1:] = v.T[_gray_columns(n)]
    np.bitwise_xor.accumulate(quasi, axis=0, out=quasi)
    return quasi * (1.0 / (1 << SOBOL_BITS))


# cephes' ndtri (S. L. Moshier), the inverse normal CDF scipy.special.ndtri
# computes: a rational function in y - 1/2 on [exp(-2), 1 - exp(-2)], and
# one in 1/x, x = sqrt(-2 log y), on each tail, another past x = 8
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
             3.93881025292474443415E0, 1.33303460815807542389E0,
             2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6,
             6.23974539184983293730E-9)
_NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1,
             1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _ratio(x, p, q):
    """x P(x) / Q(x), P and Q by Horner's rule as cephes' polevl and p1evl
    (Q's leading 1 not stored), one rounding per multiply and per add."""
    num = p[0] * x + p[1]
    for c in p[2:]:
        num *= x
        num += c
    den = x + q[0]
    for c in q[1:]:
        den *= x
        den += c
    num *= x
    num /= den
    return num


def _logs(values: np.ndarray) -> np.ndarray:
    """math.log of each value: the platform's libm log that cephes calls;
    numpy's own log can differ from it in the last bit."""
    return np.fromiter(map(math.log, values.tolist()), float, len(values))


def ndtri(p) -> np.ndarray:
    """The inverse standard normal CDF of each p, bit for bit as
    scipy.special.ndtri: -inf at 0, inf at 1, nan outside [0, 1] and at
    nan."""
    y = np.asarray(p, dtype=float)
    out = np.empty(y.shape)
    upper = y > 1.0 - _EXP_M2
    z = np.where(upper, 1.0 - y, y)
    centre = z > _EXP_M2
    w = z[centre] - 0.5
    w += w * _ratio(w * w, _NDTRI_P0, _NDTRI_Q0)
    w *= _S2PI
    out[centre] = w
    tail = ~centre
    t = z[tail]
    if t.size and not t.min() > 0.0:
        # 0 and 1, and the values outside [0, 1] or nan: no log
        ends = tail & ~(z > 0.0)
        out[ends] = np.where(y[ends] == 0.0, -np.inf,
                             np.where(y[ends] == 1.0, np.inf, np.nan))
        tail &= ~ends
        t = z[tail]
    x = np.sqrt(-2.0 * _logs(t))
    r = 1.0 / x
    x1 = _ratio(r, _NDTRI_P1, _NDTRI_Q1)
    far = x >= 8.0
    if far.any():
        x1[far] = _ratio(r[far], _NDTRI_P2, _NDTRI_Q2)
    x = x - _logs(x) / x - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


def unit_directions(dim: int, count: int, seed: int) -> np.ndarray:
    """Deterministic low-discrepancy unit vectors, the rows of the result
    (scrambled Sobol points pushed through the normal inverse CDF, then
    normalized)."""
    if dim < 1 or count < 1:
        return np.empty((0, max(dim, 0)))
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    # the leading point is dropped
    raw = sobol_points(dim, count + 1, seed)[1:]
    return unit_rows(ndtri(np.clip(raw, 1e-12, 1 - 1e-12)), 1e-12)[0]


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


@np.errstate(over="raise")
def row_norms(H) -> np.ndarray:
    """np.linalg.norm of each row of H, computed as for one row, or hypot's
    norm where the squares overflow (inf only past the largest float)."""
    H = np.ascontiguousarray(H, dtype=float)
    try:
        return np.sqrt(np.matmul(H[:, None, :], H[:, :, None])[:, 0, 0])
    except FloatingPointError:   # a square past the largest float
        with np.errstate(over="ignore"):
            norms = np.sqrt(np.matmul(H[:, None, :], H[:, :, None])[:, 0, 0])
            big = norms == math.inf
            norms[big] = np.hypot.reduce(H[big], axis=1)
        return norms


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


# the coordinates of the row pairs whose distances one step computes:
# bounds the memory of a sweep over many rows that share a first coordinate
_PAIR_CHUNK = 1 << 18


def _window_pairs(lo, hi, limit):
    """Chunks of (p, q) position pairs, q in [lo[p], hi[p]) for each p,
    in order of p; no chunk holds more than ``limit`` pairs, or the pairs
    of one p.  No chunk when there is no pair."""
    counts = np.maximum(hi - lo, 0)
    ends = np.cumsum(counts)
    start, done = 0, 0
    while done < ends[-1]:
        stop = max(start + 1, int(np.searchsorted(ends, done + limit,
                                                  "right")))
        c = counts[start:stop]
        p = np.repeat(np.arange(start, stop), c)
        yield p, lo[p] + np.arange(len(p)) - np.repeat(np.cumsum(c) - c, c)
        start, done = stop, ends[stop - 1]


def distinct_rows(U, tol: float, antipodal: bool = False,
                  kept=None) -> np.ndarray:
    """Indices of the rows of U that are kept, in order: a row is dropped
    when it lies within tol of one kept before it, a row of ``kept`` or
    an earlier kept row of U (or within tol of its negation too, when
    antipodal).  The distances are those of ``np.linalg.norm(kept - u,
    axis=1)``, bit for bit.

    Only the pairs whose first coordinates differ by less than 2 tol (or,
    antipodal, sum to less) can be that near: the computed norm of a
    difference is at least its first coordinate's size times 1 - 2^-53
    (for tol above 1e-150, where 4 tol^2 does not underflow).  A sweep
    finds them: the rows sorted by their first coordinate, each row's
    window of later sorted rows is two ``searchsorted`` bounds, and the
    distances of the windows' pairs are computed in chunks.  A finite row
    equal to an earlier one is dropped before the sweep, as the loop
    drops it: it lies at distance 0 from that row, and as near as that
    row to every other.  Rows that lie within tol of no earlier row are
    kept; the others are decided in order against the rows kept.  The cost is a sort and one distance per
    pair in a window: about n log n for well-separated rows, and the
    square of a group's size for distinct rows that tie in their first
    coordinate."""
    U = np.asarray(U, dtype=float)
    if not len(U):
        return np.empty(0, dtype=int)
    ref = np.empty((0, U.shape[-1])) if kept is None else np.asarray(
        kept, dtype=float).reshape(-1, U.shape[-1])
    rows = np.concatenate([ref, U])
    # by the first coordinate, then the others, in order among equal rows
    order = np.lexsort(rows.T[::-1])
    lead = rows[order, 0]
    taken = np.ones(len(rows), dtype=bool)
    tie = np.flatnonzero(lead[1:] == lead[:-1]) + 1
    if len(tie):
        later = rows[order[tie]]
        taken[order[tie[np.all(later == rows[order[tie - 1]], axis=1)
                        & np.isfinite(later).all(axis=1)]]] = False
        order = order[taken[order]]
        lead = rows[order, 0]
    after = np.arange(1, len(order) + 1)
    # each window holds the later sorted rows whose first coordinate lies
    # within 2 tol of the row's, bounds included (so rounding the bounds
    # never leaves a near row out) ...
    close = np.searchsorted(lead, lead + 2 * tol, "right")
    windows = [(after, close)]
    if antipodal:
        # ... or within 2 tol of its negation, less the first window
        windows.append((np.maximum.reduce([
            np.searchsorted(lead, -lead - 2 * tol, "left"), close, after]),
            np.searchsorted(lead, -lead + 2 * tol, "right")))
    near = []
    for lo, hi in windows:
        for p, q in _window_pairs(lo, hi, _PAIR_CHUNK // rows.shape[1] + 1):
            i, j = order[p], order[q]
            early, late = np.minimum(i, j), np.maximum(i, j)
            live = late >= len(ref)    # two rows of kept decide nothing
            early, late = early[live], late[live]
            dist = np.linalg.norm(rows[early] - rows[late], axis=-1)
            if antipodal:
                dist = np.minimum(
                    dist, np.linalg.norm(rows[early] + rows[late], axis=-1))
            near.append(np.stack([late, early])[:, dist < tol])
    if near:
        late, early = np.concatenate(near, axis=1)
        by_row = np.argsort(late, kind="stable")
        late, early = late[by_row], early[by_row]
        # the rows near an earlier row, in order: each is kept when no row
        # near it is
        heads = np.flatnonzero(np.diff(late, prepend=-1))
        for a, b in zip(heads, [*heads[1:], len(late)]):
            taken[late[a]] = not taken[early[a:b]].any()
    return np.flatnonzero(taken[len(ref):])


def axis_directions(dim: int) -> np.ndarray:
    """The rows e_1, -e_1, e_2, -e_2, ..., e_dim, -e_dim."""
    E = np.eye(dim)
    return np.stack([E, -E], axis=1).reshape(2 * dim, dim)


def sdp_null_directions(Q0: np.ndarray, count: int,
                        seed: int) -> np.ndarray:
    """Unit kernel vectors q, the rows of the result: axis-aligned ones
    first, then the basis columns, then sampled combinations.  q and -q
    give the same generator, so antipodal duplicates are removed."""
    l, r = Q0.shape
    if r == 0:
        return np.empty((0, l))
    # e_i lies in the kernel when its projection, column i, is e_i
    E = np.eye(l)
    dirs = [E[row_norms((Q0 @ Q0.T - E).T) <= 1e-9], Q0.T]
    if r > 1:
        # one matrix-vector product per sampled u, as Q0 @ u computes it
        U = unit_directions(r, count, seed)
        dirs.append(np.matmul(Q0, U[:, :, None])[:, :, 0])
    U, _ = unit_rows(np.concatenate(dirs), 1e-12)
    return U[distinct_rows(U, 1e-9, antipodal=True)]
