"""Shared primitives: ambient spaces, discrete sequences, exhaustion
functions, the discreteness/properness checks every other module builds
on, the postconditions several moves share, and the canonical JSON
serializer.

Conventions fixed here for the whole package:

* points in flat ambients are complex numpy vectors, matrix-group points
  are complex numpy square matrices;
* the exhaustion on the matrix group is the maximum Euclidean column
  norm, on flat space the Euclidean norm;
* checks on finite prefixes never claim more than the prefix supports:
  they return a three-valued `Verdict`, and the certified state is
  reserved for criteria with an actual proof behind them.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AmbientMismatch,
    BadParams,
    DeterminantError,
    DimensionMismatch,
    DuplicatePoints,
    InconclusivePrefix,
    MalformedDocument,
    NonFiniteEntries,
    PointOutsideAmbient,
    UnsupportedPair,
)

DET_TOL = 1e-9
MIN_GAP = 1e-6
DISTINCT_TOL = 1e-6
MAX_FIBER = 8
_FLOAT_MAX = float(np.finfo(float).max)

AMBIENT_KINDS = ("cn", "punctured-cn", "disc-plane", "sln")

EUCLIDEAN_NORM = "euclidean-norm"
MAX_COLUMN_NORM = "max-column-norm"
PUNCTURED_TAU = "punctured-tau"
DISC_PLANE_TAU = "disc-plane-tau"

EXHAUSTION_KINDS = (EUCLIDEAN_NORM, MAX_COLUMN_NORM, PUNCTURED_TAU, DISC_PLANE_TAU)


@dataclass(frozen=True)
class AmbientSpace:
    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in AMBIENT_KINDS:
            raise AmbientMismatch(f"unknown ambient kind {self.kind!r}")
        if self.kind == "cn" and self.n < 1:
            raise DimensionMismatch("flat ambient needs n >= 1")
        if self.kind in ("punctured-cn", "sln") and self.n < 2:
            raise DimensionMismatch(f"{self.kind} needs n >= 2")
        if self.kind == "disc-plane" and self.n != 2:
            raise DimensionMismatch("disc-plane points are (z, w) pairs; n must be 2")

    @property
    def is_matrix(self) -> bool:
        return self.kind == "sln"


def cn(n: int) -> AmbientSpace:
    return AmbientSpace("cn", n)


def punctured_cn(n: int) -> AmbientSpace:
    return AmbientSpace("punctured-cn", n)


def disc_plane() -> AmbientSpace:
    return AmbientSpace("disc-plane", 2)


def sln(n: int) -> AmbientSpace:
    return AmbientSpace("sln", n)


def _at(first: int | None, k, message: str) -> str:
    """`message` about the point at index k of a stack whose first point
    is point `first` of its sequence, named by that index; a lone value
    (`first` None) is not named."""
    return message if first is None else f"point {first + int(k)}: {message}"


def _require_finite(a: np.ndarray, what: str, first: int | None = None) -> None:
    """Raises `NonFiniteEntries` if an entry of `a` is nan or infinite.
    With `first`, `a` is a stack, and the message names its first bad
    point (see `_at`)."""
    finite = np.isfinite(a)
    if not finite.all():
        k = 0 if first is None else np.argmin(finite.reshape(len(a), -1).all(axis=1))
        raise NonFiniteEntries(_at(first, k, f"{what} contains non-finite entries"))


def det_tolerance(a: np.ndarray, det_tol: float = DET_TOL):
    """Allowed |det - 1| for a square matrix, or per matrix of a stack.

    The tolerance is scaled by the product of column norms (the natural
    magnitude of a determinant of that size), floored at 1.
    """
    return det_tol * np.maximum(1.0, np.prod(np.linalg.norm(a, axis=-2), axis=-1))


def sl_matrix(entries, det_tol: float = DET_TOL) -> np.ndarray:
    """Validate a square complex matrix as unimodular and return it,
    within `det_tolerance`."""
    a = np.array(entries, dtype=np.complex128)
    _require_square(a, None)
    _check_rows("sln", a[None], det_tol, None)
    return a


def _require_square(a: np.ndarray, first: int | None) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(_at(first, 0, f"expected a square matrix, got shape {a.shape}"))


def _require_unit_det(det: complex, allowed: float, first: int | None = None, k=0) -> None:
    if abs(det - 1.0) > allowed:
        raise DeterminantError(_at(
            first, k,
            f"determinant {det:.6g} differs from 1 by {abs(det - 1.0):.3g} "
            f"(allowed {allowed:.3g})",
        ))


def det_drift(mats: np.ndarray, det_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The determinant rule of SL(n) on a stack of finite matrices: each
    drift |det - 1|, and the indices and `det_tolerance`s of the matrices
    past theirs, with column norms only past `det_tol`. A nan drift passes."""
    dev = np.linalg.det(mats) - 1.0
    # hypot rounds as Python's abs(complex); numpy's complex abs may not
    drifts = np.hypot(dev.real, dev.imag)
    if drifts.max(initial=0.0) <= det_tol:  # a nan drift fails this and takes the scan
        return drifts, np.zeros(0, dtype=np.intp), drifts[:0]
    near = np.flatnonzero(drifts > det_tol)
    allowed = det_tolerance(mats[near], det_tol)
    off = drifts[near] > allowed
    return drifts, near[off], allowed[off]


def _check_rows(kind: str, arr: np.ndarray, det_tol: float, first: int | None = 0) -> None:
    """The value checks of a point of an ambient of the given kind, over a
    stack of points of one shape. The first failing point in index order
    raises the error of its own first failing check: non-finite entries
    (`NonFiniteEntries`), then the determinant (`det_drift`), the puncture
    or the disc. The message names the point as `_at` does: by its index,
    counted from `first`.
    """
    m = len(arr)
    if m == 0:
        return
    finite = np.isfinite(arr)
    stop = m if finite.all() else int(np.argmin(finite.reshape(m, -1).all(axis=1)))
    ok = arr[:stop]
    if kind == "sln":
        _, off, allowed = det_drift(ok, det_tol)
        if off.size:
            det = complex(np.linalg.det(ok[off[0]]))
            _require_unit_det(det, float(allowed[0]), first, off[0])
    elif kind == "punctured-cn":
        origins = np.flatnonzero(~np.any(ok != 0, axis=1))
        if origins.size:
            raise PointOutsideAmbient(_at(
                first, origins[0], "the puncture (origin) is not a point of this space"
            ))
    elif kind == "disc-plane":
        radii = np.abs(ok[:, 0])
        outside = np.flatnonzero(radii >= 1.0)
        if outside.size:
            raise PointOutsideAmbient(_at(
                first, outside[0], f"|z| = {radii[outside[0]]:.6g} is not inside the unit disc"
            ))
    if stop < m:
        what = "matrix" if kind == "sln" else "point"
        raise NonFiniteEntries(_at(first, stop, f"{what} contains non-finite entries"))


def validate_points(ambient: AmbientSpace, points, det_tol: float = DET_TOL,
                    first: int | None = 0) -> np.ndarray:
    """Coerce and validate a prefix into one complex array of shape
    (m, n) or (m, n, n).

    When the points do not stack to the ambient's point shape, they are
    coerced in order up to the first one that does not coerce or lacks
    that shape; the points before it are checked, then it raises its own
    error, a square matrix of the wrong size after its finiteness and
    determinant. Either way the first bad point in index order decides,
    and the message names it as `_at` does, counting from `first`.
    """
    shape = (ambient.n, ambient.n) if ambient.is_matrix else (ambient.n,)
    if not isinstance(points, (tuple, list, np.ndarray)):
        points = tuple(points)
    try:
        arr = np.array(points, dtype=np.complex128)
    except (ValueError, TypeError):
        arr = None
    if arr is None or arr.shape[1:] != shape:
        rows = []
        for p in points:
            try:
                row = np.array(p, dtype=np.complex128)
            except (ValueError, TypeError):
                break
            if row.shape != shape:
                break
            rows.append(row)
        arr = np.stack(rows) if rows else np.zeros((0, *shape), dtype=np.complex128)
        _check_rows(ambient.kind, arr, det_tol, first)
        if len(rows) < len(points):
            at = None if first is None else first + len(rows)  # the bad point's index
            bad = np.array(points[len(rows)], dtype=np.complex128)
            if not ambient.is_matrix:
                raise DimensionMismatch(_at(at, 0, f"expected a vector of length {ambient.n}"))
            _require_square(bad, at)
            _check_rows("sln", bad[None], det_tol, at)
            raise DimensionMismatch(_at(
                at, 0, f"expected {ambient.n}x{ambient.n}, got {bad.shape[0]}x{bad.shape[1]}"
            ))
        return arr
    _check_rows(ambient.kind, arr, det_tol, first)
    return arr


def as_point(ambient: AmbientSpace, value, det_tol: float = DET_TOL) -> np.ndarray:
    """Coerce and validate one point of the given ambient space; an error
    does not name it by an index."""
    return validate_points(ambient, (value,), det_tol, None)[0]


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of the points of an (m, ...) complex array, each
    rounded as np.linalg.norm rounds a single point: real and imaginary
    dot products over the flattened entries."""
    v = v.reshape(len(v), int(np.prod(v.shape[1:])))
    re, im = v.real[:, None, :], v.imag[:, None, :]
    return np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0])


# Complex arithmetic written once for one point and for a stack. One
# point runs it on Python complex scalars; a stack runs it on `_Parts`,
# whose float64 parts take +, -, * and abs() as CPython's complex scalars
# do (the textbook product, and hypot). numpy's complex array product may
# round differently at a wider SIMD level, so a stack never uses it.
# Operands are complex, never a float beside a complex, so that Python's
# mixed real-complex rules do not enter.
_ONE = complex(1.0, 0.0)


class _Parts:
    """A stack of complex numbers as float64 real and imaginary parts."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag):
        self.real, self.imag = real, imag

    @classmethod
    def of(cls, z: np.ndarray) -> "_Parts":
        return cls(z.real, z.imag)

    def array(self) -> np.ndarray:
        """The complex array, with the bits of both parts."""
        out = np.empty(np.broadcast(self.real, self.imag).shape, dtype=np.complex128)
        out.real, out.imag = self.real, self.imag
        return out

    def __add__(self, other):
        return _Parts(self.real + other.real, self.imag + other.imag)

    def __sub__(self, other):
        return _Parts(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other):
        return _Parts(other.real - self.real, other.imag - self.imag)

    def __mul__(self, other):
        return _Parts(self.real * other.real - self.imag * other.imag,
                      self.real * other.imag + self.imag * other.real)

    # the sum and the textbook product round the same either way round
    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return _Parts(-self.real, -self.imag)

    def __abs__(self):
        return np.hypot(self.real, self.imag)


def _choose(cond, branch, *args):
    """branch(cond, *args) at one point; over a stack, both branches are
    formed and each row takes the one its `cond` picks."""
    if not isinstance(cond, np.ndarray):
        return branch(cond, *args)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x, y = branch(True, *args), branch(False, *args)
    return _Parts(np.where(cond, x.real, y.real), np.where(cond, x.imag, y.imag))


def _divide(x, y, reciprocal: bool):
    """x / y by Smith's method (see `_smith`)."""
    return _choose(abs(y.real) >= abs(y.imag), _smith, x, y, reciprocal)


def _smith(by_real: bool, x, y, reciprocal: bool):
    """x / y scaled by y's real part (`by_real`, for |re y| >= |im y|) or
    imaginary part, then times 1 / denominator with `reciprocal`, as
    numpy's complex scalars divide, else over it, as CPython's
    `_Py_c_quot` does."""
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    if by_real:
        r = yi / yr
        re, im, den = xr + xi * r, xi - xr * r, yr + yi * r
    else:
        r = yr / yi
        re, im, den = xr * r + xi, xi * r - xr, yi + yr * r
    if reciprocal:
        den = 1.0 / den
        re, im = re * den, im * den
    else:
        re, im = re / den, im / den
    return _Parts(re, im) if isinstance(re, np.ndarray) else complex(re, im)


def _horner(coeffs, z):
    """sum coeffs[k] * z**k, lowest degree first, by Horner's rule from 0j."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


@dataclass(frozen=True)
class GeneratorInfo:
    """Symbolic family descriptor attached to a generated sequence."""

    family: str
    params: tuple[tuple[str, object], ...] = ()

    @classmethod
    def of(cls, family: str, **params) -> "GeneratorInfo":
        return cls(family, tuple(sorted(params.items())))

    def get(self, key: str, default=None):
        return dict(self.params).get(key, default)

    def declared(self, key: str, kind: type = bool):
        """Parameter `key` as a check may trust it: a flag (`kind` bool) is
        True only for JSON true and False for false, null or a missing key;
        a number (`kind` float) is a finite int or float, or None if null or
        missing. Any other value raises `MalformedDocument` naming it."""
        v = self.get(key)
        if v is None or kind is bool and isinstance(v, bool):
            return v is True if kind is bool else None
        # abs(v) <= max also turns away nan, inf and ints past the float range
        number = isinstance(v, (int, float)) and not isinstance(v, bool)
        if kind is float and number and abs(v) <= _FLOAT_MAX:
            return float(v)
        what = "true or false" if kind is bool else "a finite number"
        raise MalformedDocument(f"generator parameter {key!r} must be {what}")

    def to_json(self) -> dict:
        return {"family": self.family, "params": dict(self.params)}

    @classmethod
    def from_json(cls, obj: dict) -> "GeneratorInfo":
        params = obj.get("params", {}) if isinstance(obj, dict) else None
        if not isinstance(params, dict) or not isinstance(obj.get("family"), str):
            raise MalformedDocument("field 'generator' of the sequence document is malformed")
        return cls(obj["family"], tuple(sorted(params.items())))


def max_norm_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Largest entrywise modulus of the difference; the prefix metric."""
    return float(np.max(np.abs(np.ravel(p) - np.ravel(q))))


_PAIR_TABLE_ENTRIES = 1 << 16
_DICT_ROWS = 16  # `_first_duplicate`'s bound, in points


def _window_pairs(x: np.ndarray, half, width: int = 1):
    """Blocks (rows, cols) of the pairs i < j with x[j] in [x[i] - half[i],
    x[i] + half[i]] (the ends as rounded), in lexicographic order; `half` is
    a scalar or one value per row. If an x is not finite, every pair is.

    A stable sort of x bounds each row's window (a plane sweep). For callers
    comparing `width` entries per pair, a block holds `_PAIR_TABLE_ENTRIES /
    (4 * width)` candidates, both orders counted: at that size the scans'
    peak memory stayed near that of the pair tables they replaced."""
    m = len(x)
    if not np.isfinite(x).all():
        x, half = np.zeros(m), 0.0
    order = np.argsort(x, kind="stable")
    lo = np.searchsorted(x[order], x - half, side="left")
    hi = np.searchsorted(x[order], x + half, side="right")
    counts = hi - lo
    ends = np.cumsum(counts)
    budget = _PAIR_TABLE_ENTRIES // (4 * width)
    start = 0
    while start < m:
        base = ends[start] - counts[start]
        stop = max(start + 1, int(np.searchsorted(ends, base + budget, "right")))
        c = counts[start:stop]
        rows = np.repeat(np.arange(start, stop), c)
        # candidate k of row r sits at sorted position lo[r] + k - (ends[r] - c[r])
        cols = np.arange(base, ends[stop - 1])
        cols += np.repeat(lo[start:stop] - ends[start:stop] + c, c)
        cols = order[cols]
        keep = cols > rows
        rows, cols = rows[keep], cols[keep]
        ranked = np.lexsort((cols, rows))
        yield rows[ranked], cols[ranked]
        start = stop


def first_close_pair(rows: np.ndarray, tol: float) -> tuple[int, int] | None:
    """The first pair i < j, in lexicographic order, whose rows lie within
    tol of each other in the max-norm; None if there is none.

    A small input is compared in one table of every pair. The table is
    symmetric, so with its diagonal cleared the first hit in row-major
    order is the first pair i < j. A larger one
    takes its candidates from `_window_pairs` on the real coordinate of
    widest spread and compares them an entry at a time. The table holds
    at most `_PAIR_TABLE_ENTRIES >> 5` = 2048 entries (m * m * width):
    timed on random complex rows, the two broke even at about 1.5k
    entries for widths 2 and 4, and at about 4k for widths 1 and 8.
    """
    m = len(rows)
    if m < 2:
        return None
    flats = np.asarray(rows).reshape(m, -1)
    if m * flats.size <= _PAIR_TABLE_ENTRIES >> 5:
        near = np.max(np.abs(flats[:, None, :] - flats[None, :, :]), axis=2) <= tol
        np.fill_diagonal(near, False)
        k = int(near.argmax())
        return divmod(k, m) if near.flat[k] else None
    reals = np.ascontiguousarray(flats, dtype=np.complex128).view(np.float64)
    x = reals[:, np.argmax(np.ptp(reals, axis=0))]  # non-finite if any entry is
    # close rows are within tol on every real coordinate; slack for rounding
    half = tol + 4.0 * np.finfo(float).eps * (np.abs(x) + tol)
    for i, j in _window_pairs(x, half, flats.shape[1]):
        gap = np.zeros(len(i))
        for e in range(flats.shape[1]):
            diff = flats[j, e]
            diff -= flats[i, e]
            np.maximum(gap, np.abs(diff), out=gap)
        hits = np.flatnonzero(gap <= tol)
        if hits.size:
            return int(i[hits[0]]), int(j[hits[0]])
    return None


def _equal_runs(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable sort of the rows of an (m, ...) array that puts equal rows,
    those whose bits of `arr + 0.0` agree (-0 equal to 0), next to each
    other in index order; and a mask, True where a run of them starts."""
    if len(arr) < 2:
        return np.arange(len(arr)), np.ones(len(arr), dtype=bool)
    keys = (np.asarray(arr, dtype=np.complex128).reshape(len(arr), -1) + 0.0).view(np.uint64)
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    starts = np.ones(len(arr), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=starts[1:])
    return order, starts


def _first_duplicate(arr: np.ndarray) -> tuple[int, int] | None:
    """The first point of a stack (in index order) equal to an earlier
    one, as (earlier, later); None if the points are pairwise distinct.
    Equality is that of `_equal_runs`. Up to `_DICT_ROWS` points go through
    a dict of row bytes: timed on rows of widths 1 to 9, it took 2.5 µs plus
    0.5 µs a point, the sort 11-20 µs, and they broke even at 24-28 points."""
    m, first = len(arr), {}
    if 0 < m <= _DICT_ROWS:
        keys = np.asarray(arr, dtype=np.complex128).reshape(m, -1) + 0.0
        for j, key in enumerate(map(bytes, keys)):
            if first.setdefault(key, j) != j:
                return first[key], j
        return None
    order, starts = _equal_runs(arr)
    dups = np.flatnonzero(~starts)
    if not dups.size:
        return None
    heads = np.maximum.accumulate(np.where(starts, np.arange(len(arr)), 0))
    k = int(np.argmin(order[dups]))
    return int(order[heads[dups[k]]]), int(order[dups[k]])


def _require_distinct(arr: np.ndarray) -> None:
    hit = _first_duplicate(arr)
    if hit is not None:
        raise DuplicatePoints(
            f"points {hit[0]} and {hit[1]} coincide; prefixes must be pairwise distinct"
        )


@dataclass(frozen=True, eq=False)
class DiscreteSequence:
    """A finite prefix of points in a tagged ambient space.

    The points are validated once, on construction, into `array`: one
    read-only complex array of shape (m, n), or (m, n, n) for matrix
    points, and the only point container. `points` builds the tuple of
    its rows on request. Sequences compare and hash by identity.
    """

    ambient: AmbientSpace
    array: np.ndarray
    generator: GeneratorInfo | None = None

    def __post_init__(self):
        arr = validate_points(self.ambient, self.array)
        _require_distinct(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def points(self) -> tuple[np.ndarray, ...]:
        """The rows of `array`, as a new tuple on each read."""
        return tuple(self.array)

    def __len__(self) -> int:
        return len(self.array)

    def replace_points(self, points: Iterable) -> "DiscreteSequence":
        return DiscreteSequence(self.ambient, points)

    def to_document(self) -> dict:
        return sequence_document(self.ambient, self.array, self.generator)

    def to_json(self) -> dict:
        """The sequence document with `points` as nested lists of floats."""
        obj = self.to_document()
        obj["points"] = obj["points"].tolist()
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "DiscreteSequence":
        """A sequence document, or a command output holding one as `sequence`."""
        if not isinstance(obj, dict):
            raise MalformedDocument("a sequence document is a JSON object")
        if "ambient" not in obj and isinstance(obj.get("sequence"), dict):
            obj = obj["sequence"]
        field = {key: obj.get(key) for key in ("ambient", "n", "points")}
        if isinstance(field["n"], float) and field["n"].is_integer():
            field["n"] = int(field["n"])
        for key, kind in (("ambient", str), ("n", int), ("points", (list, np.ndarray))):
            if not isinstance(field[key], kind) or isinstance(field[key], bool):
                state = "missing" if key not in obj else "malformed"
                raise MalformedDocument(f"field {key!r} of the sequence document is {state}")
        # numpy must be able to shape one point: n (or n^2) complex entries in an array
        entries = max(field["n"], 0) ** (2 if field["ambient"] == "sln" else 1)
        if entries * np.dtype(np.complex128).itemsize > np.iinfo(np.intp).max:
            raise MalformedDocument("field 'n' of the sequence document is too large")
        gen = obj.get("generator")
        return cls(
            AmbientSpace(field["ambient"], field["n"]),
            _unpair_points(field["points"]),
            GeneratorInfo.from_json(gen) if gen is not None else None,
        )


def sequence_document(ambient: AmbientSpace, array: np.ndarray, generator=None) -> dict:
    """The document of a checked complex array: `points` is its float64 view,
    [re, im] on a last axis, which `canonical_json` writes without lists."""
    obj = {
        "ambient": ambient.kind,
        "n": ambient.n,
        "points": array.view(np.float64).reshape(*array.shape, 2),
    }
    if generator is not None:
        obj["generator"] = generator.to_json()
    return obj


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _float_array(raw) -> np.ndarray | None:
    """A number, or lists of one length at every level down to numbers, as
    one float64 array flattened level by level. None for a string, a bool
    or null among the leaves, an int past the float range, or a ragged list."""
    regular = _regular_leaves(raw) if isinstance(raw, (list, tuple)) else ((), [raw], {type(raw)})
    try:
        if regular is None:  # numpy stacks these only when they hold no leaf
            return np.asarray(raw, dtype=np.float64)
        dims, leaves, kinds = regular
        if kinds <= {float, int}:
            return np.array(leaves, dtype=np.float64).reshape(dims)
    except (ValueError, TypeError, OverflowError):
        pass
    return None


def _unpair_array(pairs: np.ndarray | None, i: int = 0) -> np.ndarray:
    """Complex entries from a `_float_array` of [re, im] pairs: point i of a
    sequence document, or a stack of points from point i."""
    if pairs is not None and pairs.ndim and pairs.shape[-1] == 2:
        return np.ascontiguousarray(pairs).view(np.complex128)[..., 0]
    why = "a complex entry is written as a pair [re, im]"
    if pairs is None:
        why = "its entries do not convert to [re, im] pairs of floats"
    raise MalformedDocument(f"point {i} of the sequence document is malformed: {why}")


def _unpair_points(raw):
    """The points of a sequence document as one complex array if they stack;
    otherwise one at a time, in index order, so that the first point not
    made of [re, im] pairs of numbers, or validation later, names it. A
    points block that `_read_json` read as an array stacks by construction;
    one of scalars fails at point 0, as its first number would."""
    if isinstance(raw, np.ndarray):
        return _unpair_array(raw if raw.ndim > 1 else raw[0])
    pairs = _float_array(raw)
    if pairs is not None and pairs.ndim > 1:
        return _unpair_array(pairs)
    return tuple(_unpair_array(_float_array(p), i) for i, p in enumerate(raw))


@dataclass(frozen=True)
class HeightAssignment:
    """Positive target heights, one per point index."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if any(not math.isfinite(v) or v <= 0 for v in vals):
            raise BadParams("heights must be finite and positive")
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, value: float, count: int) -> "HeightAssignment":
        return cls((float(value),) * count)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]


VIOLATED = "violated"
CONSISTENT = "consistent-up-to-prefix"
CERTIFIED = "certified"


@dataclass(frozen=True)
class Verdict:
    """Three-valued outcome of a finite-prefix criterion."""

    state: str
    witness: tuple[int, ...] = ()
    reason: str = ""
    detail: str = ""

    def __post_init__(self):
        if self.state not in (VIOLATED, CONSISTENT, CERTIFIED):
            raise ValueError(f"unknown verdict state {self.state!r}")
        if self.state == VIOLATED and not self.witness:
            raise ValueError("a violation needs at least one witness index")
        if self.state == CERTIFIED and not self.reason:
            raise ValueError("a certificate needs a criterion tag")

    @classmethod
    def violated(cls, witness: Sequence[int], detail: str = "") -> "Verdict":
        return cls(VIOLATED, tuple(int(i) for i in witness), "", detail)

    @classmethod
    def consistent(cls, detail: str = "") -> "Verdict":
        return cls(CONSISTENT, (), "", detail)

    @classmethod
    def certified(cls, reason: str, detail: str = "") -> "Verdict":
        return cls(CERTIFIED, (), reason, detail)

    @property
    def is_violated(self) -> bool:
        return self.state == VIOLATED

    @property
    def is_certified(self) -> bool:
        return self.state == CERTIFIED

    def to_json(self) -> dict:
        return {
            "state": self.state,
            "witness": list(self.witness),
            "reason": self.reason,
            "detail": self.detail,
        }


def falls_short(achieved, targets) -> np.ndarray:
    """Where an achieved height misses its target by more than the
    rounding slack 1e-9 * (1 + target) that every height push allows.
    A non-finite height is never short."""
    targets = np.asarray(targets, dtype=float)
    return np.asarray(achieved, dtype=float) < targets - 1e-9 * (1.0 + targets)


def check_moved(
    ambient: AmbientSpace, arr: np.ndarray, det_tol: float
) -> tuple[float, Verdict | None]:
    """The one check of a moved prefix, at the run's `det_tol`: a non-finite
    row, a point off the ambient or a repeated point raises as on load. A
    matrix stack gives its largest drift and a verdict violated at every
    matrix that `det_drift` finds off SL(n), or None; others 0.0 and None."""
    worst, violation = 0.0, None
    if ambient.is_matrix:
        _require_finite(arr, "matrix", 0)
        drifts, off, allowed = det_drift(arr, det_tol)
        worst = float(drifts.max(initial=0.0))
        if off.size:
            k = int(np.argmax(drifts[off] / allowed))
            violation = Verdict.violated(
                off,
                f"determinant drift {drifts[off[k]]:.3g} at point {off[k]} exceeds "
                f"{allowed[k]:.3g}, det_tol {det_tol:g} scaled by its column norms",
            )
    else:
        _check_rows(ambient.kind, arr, det_tol)
    _require_distinct(arr)
    return worst, violation


def exhaust_eval(kind: str, p, ambient: AmbientSpace) -> float:
    """Evaluate one of the shipped exhaustion functions at a point."""
    p = as_point(ambient, p)
    if kind == EUCLIDEAN_NORM:
        if ambient.is_matrix:
            raise UnsupportedPair("euclidean-norm applies to vector ambients")
        return float(np.linalg.norm(p))
    if kind == MAX_COLUMN_NORM:
        if not ambient.is_matrix:
            raise UnsupportedPair("max-column-norm applies to the matrix ambient")
        return float(np.max(np.linalg.norm(p, axis=0)))
    if kind == PUNCTURED_TAU:
        r = float(np.linalg.norm(p))
        if r == 0.0:
            raise PointOutsideAmbient("punctured exhaustion undefined at the origin")
        return max(r, 1.0 / r)
    if kind == DISC_PLANE_TAU:
        if ambient.kind != "disc-plane":
            raise UnsupportedPair("disc-plane-tau applies to the disc-plane ambient")
        z, w = p[0], p[1]
        return float(abs(w) + 1.0 / (1.0 - abs(z)))
    raise UnsupportedPair(f"unknown exhaustion kind {kind!r}")


def discreteness_check(d: DiscreteSequence, min_gap: float = MIN_GAP) -> Verdict:
    """Violated if two prefix points sit within min_gap of each other."""
    if len(d) == 0:
        raise InconclusivePrefix("discreteness needs a nonempty prefix")
    if min_gap <= 0:
        raise ValueError("min_gap must be positive")
    hit = first_close_pair(d.array, float(min_gap))
    if hit is not None:
        i, j = hit
        gap = max_norm_distance(d.array[i], d.array[j])
        return Verdict.violated((i, j), f"points {i} and {j} are {gap:.3g} apart")
    return Verdict.consistent(f"all pairwise gaps exceed {min_gap:g}")


def group_fibers(images: np.ndarray) -> dict[int, list[int]]:
    """Indices grouped by exact image equality (that of `_equal_runs`),
    keyed and ordered by each group's first index."""
    order, starts = _equal_runs(images)
    bounds = np.flatnonzero(starts).tolist() + [len(order)]
    indices = order.tolist()
    runs = [indices[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    return {run[0]: run for run in sorted(runs)}


def properness_check(
    images: Sequence[np.ndarray],
    min_gap: float = MIN_GAP,
    max_fiber: int = MAX_FIBER,
    fiber_keys: dict | None = None,
) -> Verdict:
    """Discrete image and bounded fibers, at prefix scale.

    `fiber_keys` may supply the grouping (original indices per image,
    under any keys); when omitted, images are grouped by exact equality.
    """
    if len(images) == 0:
        raise InconclusivePrefix("properness needs a nonempty image list")
    arrays = np.asarray(images, dtype=np.complex128)
    fibers = fiber_keys if fiber_keys is not None else group_fibers(arrays)
    for members in fibers.values():
        if len(members) > max_fiber:
            return Verdict.violated(
                members,
                f"fiber of size {len(members)} exceeds the bound {max_fiber}",
            )
    reps = [members[0] for members in fibers.values()]
    if len(reps) >= 2:
        hit = first_close_pair(arrays[reps], float(min_gap))
        if hit is not None:
            i, j = reps[hit[0]], reps[hit[1]]
            return Verdict.violated(
                (i, j), f"distinct images {i} and {j} are within {min_gap:g}"
            )
    return Verdict.consistent(
        f"{len(reps)} distinct images, largest fiber "
        f"{max(len(v) for v in fibers.values())}"
    )


_EXHAUSTION_FLOOR = {
    EUCLIDEAN_NORM: 0.0,
    PUNCTURED_TAU: 1.0,
    DISC_PLANE_TAU: 1.0,
    MAX_COLUMN_NORM: 1.0,
}


def zeta0_reduce(
    zeta: HeightAssignment, rho: str, tau: str, ambient: AmbientSpace
) -> HeightAssignment:
    """Convert a height demand against tau into one against rho.

    Per value c the output exceeds sup{rho(p) : tau(p) < c} by 1. Only
    pairs with a closed-form sublevel supremum are supported; anything
    else raises rather than estimating a supremum numerically.
    """
    if rho not in EXHAUSTION_KINDS or tau not in EXHAUSTION_KINDS:
        raise UnsupportedPair(f"unknown exhaustion kinds ({rho!r}, {tau!r})")

    def reduce_one(c: float) -> float:
        if rho == tau:
            floor = _EXHAUSTION_FLOOR[tau]
            return c + 1.0 if c > floor else 1.0
        if rho == EUCLIDEAN_NORM and tau == PUNCTURED_TAU:
            return c + 1.0 if c > 1.0 else 1.0
        raise UnsupportedPair(
            f"no closed-form sublevel supremum for rho={rho!r}, tau={tau!r}"
        )

    return HeightAssignment(tuple(reduce_one(c) for c in zeta.values))


class Automorphism:
    """Ambient-space maps. `apply_batch` moves an (m, n) or (m, n, n) stack
    of points and `apply` is its one-row view; a subclass sets `kind` and
    `to_json` and defines `apply_batch`."""

    kind = "abstract"

    def apply(self, p: np.ndarray) -> np.ndarray:
        return self.apply_batch(np.asarray(p, dtype=np.complex128)[None])[0]

    def __call__(self, p) -> np.ndarray:
        return self.apply(np.asarray(p, dtype=np.complex128))

    def to_json(self) -> dict:
        return {"kind": self.kind}


@dataclass(frozen=True)
class IdentityAut(Automorphism):
    kind = "identity"

    def apply_batch(self, ps: np.ndarray) -> np.ndarray:
        return np.array(ps, dtype=np.complex128)


@dataclass(frozen=True)
class LinearAut(Automorphism):
    """Invertible linear map on vectors, or on matrices from the left."""

    matrix: np.ndarray
    kind = "linear"

    def apply_batch(self, ps: np.ndarray) -> np.ndarray:
        if ps.ndim == 2:
            # a column per point rounds as matrix @ p does; ps @ matrix.T may not
            return (self.matrix @ ps[:, :, None])[:, :, 0]
        return self.matrix @ ps

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "matrix": [[_pair(z) for z in row] for row in self.matrix],
        }


@dataclass(frozen=True)
class ScalarAut(Automorphism):
    """Multiplication by a nonzero scalar."""

    factor: complex
    kind = "scalar"

    def apply_batch(self, ps: np.ndarray) -> np.ndarray:
        return self.factor * ps

    def to_json(self) -> dict:
        return {"kind": self.kind, "factor": _pair(self.factor)}


@dataclass(frozen=True)
class Composite(Automorphism):
    """Left-to-right composition: stages[0] runs first."""

    stages: tuple[Automorphism, ...]
    kind = "composite"

    def apply_batch(self, ps: np.ndarray) -> np.ndarray:
        for s in self.stages:
            ps = s.apply_batch(ps)
        return ps

    def to_json(self) -> dict:
        return {"kind": self.kind, "stages": [s.to_json() for s in self.stages]}


def _float_text(value: float) -> str:
    if not np.isfinite(value):
        raise ValueError(f"non-finite value {value!r} in a report")
    return format(value, ".17g")


def _scalar_text(value) -> bytes:
    if value is None:
        return b"null"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return b"true" if value else b"false"
    if isinstance(value, (int, np.integer)):
        return str(int(value)).encode()
    if isinstance(value, (float, np.floating)):
        return _float_text(float(value)).encode()
    if isinstance(value, str):
        return json.dumps(value).encode()  # ASCII: json escapes the rest
    raise TypeError(f"cannot serialize {type(value).__name__} deterministically")


_CONTAINERS = (list, tuple, dict, np.ndarray)
_BATCH = 1 << 10  # list items formatted together
_FLUSH = 1 << 12  # pending chunks per write into the buffer
_FLOAT = b"%.17g"  # bytes '%' formats a float as str '%' and `format` do
# Lists of at most this many leaves skip the array path of `_block_text`:
# timed on random floats, value by value took 3.3-8.4 us at 1-2 leaves
# against 7.8-15.6 us, and the two broke even at 4-5 leaves (ints later).
_FEW_LEAVES = 4


# ints below this size convert to float64 exactly, and '%.17g' prints
# them (and 2**53 itself) exactly as str() prints the int
_EXACT_INT = 1 << 53


@lru_cache(maxsize=64)
def _item_template(shape: tuple[int, ...], indent: int, slot: bytes) -> bytes:
    """One list item of the given nested shape at `indent`, as the emitter
    lays it out, with `slot` in place of each scalar leaf."""
    if not shape:
        return slot
    pad = b"\n" + b"  " * (indent + 1)
    inner = _item_template(shape[1:], indent + 1, slot)
    return b"[" + pad + (b"," + pad).join([inner] * shape[0]) + b"\n" + b"  " * indent + b"]"


def _rows_text(flat: np.ndarray, shape: tuple[int, ...], indent: int) -> bytes:
    """List items of the given nested shape, each at `indent`, joined as
    the emitter joins them, from a finite float64 array of their leaves in
    row-major order. One '%' call formats the leaves; a leaf position that
    holds the same bits in every item (the same value, with the same sign
    of zero) is formatted once, into the item template."""
    rows = np.ascontiguousarray(flat).reshape(-1, math.prod(shape))
    bits = rows.view(np.int64)
    same = (bits == bits[0]).all(axis=0)
    item = _item_template(shape, indent, _FLOAT)
    flags = same.tolist()
    if any(flags):
        slots = [_FLOAT % v if s else _FLOAT for v, s in zip(rows[0].tolist(), flags)]
        parts = item.split(_FLOAT)
        item = parts[0] + b"".join(map(bytes.__add__, slots, parts[1:]))
        rows = rows[:, ~same]
    frame = (b",\n" + b"  " * indent).join([item] * len(bits))
    return frame % tuple(rows.ravel().tolist())


def _regular_leaves(items) -> tuple[tuple[int, ...], list, set] | None:
    """The shape, the leaves and the leaf types of a non-empty list of
    scalars, or of lists and tuples of one length down to scalar leaves,
    flattened level by level. None for an empty, ragged or mixed-depth
    list, or one with a dict or an array among its leaves."""
    dims = [len(items)]
    level = items
    while True:
        kinds = set(map(type, level))
        if kinds <= {list, tuple}:
            sizes = set(map(len, level))
            if len(sizes) != 1 or 0 in sizes:
                return None
            dims.append(sizes.pop())
            level = list(chain.from_iterable(level))
        elif any(issubclass(k, _CONTAINERS) for k in kinds):
            return None
        else:
            return tuple(dims), level, kinds


def _float_leaves(level: list, ints: bool) -> np.ndarray | None:
    """Plain float and int leaves as a float64 array, when it is finite and
    '%.17g' prints each int from it as str() does; None otherwise."""
    try:
        flat = np.array(level, dtype=np.float64)
    except OverflowError:  # an int past the float range
        return None
    if np.abs(flat).max() < _EXACT_INT:  # finite, and every int converted exactly
        return flat
    if not np.isfinite(flat).all():
        return None
    # 2**53 + 1 converts to 2**53, so ints this large are tested as ints
    if ints and not all(-_EXACT_INT <= v <= _EXACT_INT for v in level if type(v) is int):
        return None
    return flat


def _block_text(items, indent: int) -> bytes | None:
    """The items of a list, each at `indent`, joined as the emitter joins
    them, when they form a regular block: a chunk of a float64 array,
    scalars, or lists of one length down to scalar leaves. None otherwise.

    A finite array chunk, and more than `_FEW_LEAVES` plain floats and
    ints that `_float_leaves` takes, go through `_rows_text`. Fewer leaves,
    or any other leaf, send the block through `_scalar_text` value by
    value, which prints the same bytes, and a non-finite array chunk goes
    item by item, so the first bad value raises."""
    if isinstance(items, np.ndarray):
        return _rows_text(items, items.shape[1:], indent) if np.isfinite(items).all() else None
    regular = _regular_leaves(items)
    if regular is None:
        return None
    dims, level, kinds = regular
    shape = dims[1:]
    if kinds <= {float, int} and len(level) > _FEW_LEAVES:
        flat = _float_leaves(level, int in kinds)
        if flat is not None:
            return _rows_text(flat, shape, indent)
    texts = tuple(_scalar_text(v) for v in level)
    frame = (b",\n" + b"  " * indent).join
    return frame([_item_template(shape, indent, b"%s")] * dims[0]) % texts


class _Emitter:
    """Writes a document as canonical JSON bytes, joining its chunks in
    batches into parts that one join ends. A BytesIO grown by its writes
    peaked 100 MB higher on a 1M-point document."""

    def __init__(self):
        self.parts: list[bytes] = []
        self.chunks: list[bytes] = []

    def put(self, text: bytes) -> None:
        self.chunks.append(text)
        if len(self.chunks) >= _FLUSH:
            self.flush()

    def flush(self) -> None:
        self.parts.append(b"".join(self.chunks))
        self.chunks.clear()

    def emit(self, value, indent: int) -> None:
        if isinstance(value, np.ndarray) and value.ndim and value.dtype == np.float64:
            # written as value.tolist() is; an empty one through those lists
            self.emit_list(value if value.size else value.tolist(), indent)
        elif isinstance(value, (list, tuple)):
            self.emit_list(value, indent)
        elif isinstance(value, dict):
            self.emit_dict(value, indent)
        else:
            self.put(_scalar_text(value))

    def emit_list(self, value, indent: int) -> None:
        if not len(value):
            self.put(b"[]")
            return
        pad = b"\n" + b"  " * (indent + 1)
        self.put(b"[")
        for lo in range(0, len(value), _BATCH):
            chunk = value[lo : lo + _BATCH]
            if lo:
                self.put(b",")
            block = _block_text(chunk, indent + 1)
            if block is not None:
                self.put(pad + block)
                continue
            for i, item in enumerate(chunk):
                self.put(b"," + pad if i else pad)
                self.emit(item, indent + 1)
        self.put(b"\n" + b"  " * indent + b"]")

    def emit_dict(self, value, indent: int) -> None:
        if not value:
            self.put(b"{}")
            return
        pad = b"\n" + b"  " * (indent + 1)
        self.put(b"{")
        for i, (key, item) in enumerate(value.items()):
            self.put((b"," if i else b"") + pad + json.dumps(str(key)).encode() + b": ")
            self.emit(item, indent + 1)
        self.put(b"\n" + b"  " * indent + b"}")


def canonical_bytes(doc) -> bytes:
    """Deterministic JSON, as ASCII bytes: keys in insertion order,
    two-space indentation, floats at 17 significant digits so they
    round-trip exactly, and a trailing newline. A float64 array of one or
    more dimensions is written as its `tolist()`. A non-finite float
    raises `ValueError`."""
    out = _Emitter()
    out.emit(doc, 0)
    out.put(b"\n")
    out.flush()
    return b"".join(out.parts)


def canonical_json(doc) -> str:
    """The text of `canonical_bytes`."""
    return canonical_bytes(doc).decode()


def save_sequence(d: DiscreteSequence, path) -> None:
    with open(path, "wb") as fh:
        fh.write(canonical_bytes(d.to_document()))


TOO_DEEP = "the document nests too deeply to parse"

# Where "-0" may stand as an integer token; a false hit only costs time.
_NEG_ZERO = re.compile(r"-0(?![\d.eE])")


def _parse_int(text: str):
    """Integers as json parses them, except "-0", which stays the float -0.0."""
    return -0.0 if text == "-0" else int(text)


_POINTS_KEY = b'"points": [\n'
_NOT_LEAVES = b" \n[]"  # what a block holds besides its numbers and commas
_CHUNK = 1 << 16  # bytes of a block converted to floats at once


def _item_shape(item: bytes) -> tuple[int, ...] | None:
    """The nested shape of one list item laid out one token a line, as
    the emitter lays it out, taken from the first list at each depth; the
    byte check in `_block_array` holds the other lists to it. None if the
    brackets do not nest or a list is empty."""
    sizes: dict[int, int] = {}
    counts: list[int] = []
    for token in item.split():
        if token == b"[":
            counts.append(0)
            continue
        if token.rstrip(b",") == b"]":
            if not counts or not counts[-1]:
                return None
            sizes.setdefault(len(counts) - 1, counts.pop())
        if counts:  # a leaf, or a list just closed, counts in its parent
            counts[-1] += 1
    return None if counts else tuple(sizes[d] for d in range(len(sizes)))


def _block_leaves(data: bytes, start: int, end: int) -> np.ndarray | None:
    """The numbers of data[start:end] in order, read `_CHUNK` bytes at a
    time with brackets and white space dropped, each chunk as one ASCII
    row of numpy's C text reader; None where a chunk holds no token, is
    not ASCII, or does not read to its end."""
    parts = []
    lo = start
    while lo < end:
        hi = data.find(b",", min(lo + _CHUNK, end), end)
        hi = end if hi < 0 else hi
        try:
            row = data[lo:hi].translate(None, _NOT_LEAVES).decode("ascii")
            # loadtxt warns on a row of no data: "" or a lone "\r"
            if not row or row.isspace():
                return None
            parts.append(np.loadtxt([row], delimiter=",", comments=None, ndmin=1))
        except ValueError:  # a UnicodeDecodeError too
            return None
        lo = hi + 1
    return np.concatenate(parts)


def _block_array(data: bytes, start: int, end: int, indent: int) -> np.ndarray | None:
    """The read-only float64 array of the list from data[start], its "[",
    to data[end], the newline before its "]", written at `indent`, when
    the emitter writes that array as exactly these bytes: rendered in the
    emitter's batches of rows, each compared with its slice of the input.
    The comparison, not the float parser, decides; None otherwise."""
    pad = b"\n" + b"  " * (indent + 1)
    first = start + 1 + len(pad)
    if data.startswith(b"[", first):  # items are lists: the first ends at its "]"
        stop = data.find(pad + b"]", first, end) + len(pad) + 1
    else:
        stop = data.find(b"\n", first, end)
    shape = _item_shape(data[first:stop])
    if shape is None:
        return None
    flat = _block_leaves(data, start, end)
    if flat is None or not len(flat) or len(flat) % math.prod(shape) or not np.isfinite(flat).all():
        return None
    arr = flat.reshape(-1, *shape)
    at = start + 1
    for lo in range(0, len(arr), _BATCH):
        sep = (b"," if lo else b"") + pad
        rows = _rows_text(arr[lo : lo + _BATCH], shape, indent + 1)
        if not (data.startswith(sep, at) and data.startswith(rows, at + len(sep))):
            return None
        at += len(sep) + len(rows)
    if at != end:
        return None
    arr.flags.writeable = False
    return arr


def _points_blocks(data: bytes) -> list[tuple[int, int, np.ndarray]]:
    """The points blocks of `data` that the emitter writes back byte for
    byte, each as (start, end, array): data[start:end] runs from the
    block's "[" to its "]".

    A block follows a line `<indent>"points": [` whose indent is an even
    number of spaces, as the emitter indents keys. It ends at the last
    line `<indent>]` before the first '"' or '}' after it, which in the
    emitter's layout is where the document goes on, so a later list at the
    same indent is not taken for its end. Any other block is left to json.
    Every byte the search looks for is ASCII, which UTF-8 never uses
    inside a longer character."""
    blocks = []
    key = data.find(_POINTS_KEY)
    while key >= 0:
        line = data.rfind(b"\n", 0, key) + 1
        start = key + len(_POINTS_KEY) - 2
        width = key - line
        if width % 2 == 0 and data.count(b" ", line, key) == width:
            close = b"\n" + b" " * width + b"]"
            ahead = [i for i in (data.find(b'"', start), data.find(b"}", start)) if i >= 0]
            end = data.rfind(close, start, min(ahead, default=len(data)))
            arr = _block_array(data, start, end, width // 2) if end > start else None
            if arr is not None:
                blocks.append((start, end + len(close), arr))
                key = data.find(_POINTS_KEY, end)
                continue
        key = data.find(_POINTS_KEY, start)
    return blocks


def _read_json(data: bytes, object_hook=None, emit=None):
    """The one JSON parse of the package, of a document's UTF-8 bytes: a
    "-0" token reads back as -0.0, and a document nested too deeply to
    parse raises `MalformedDocument`.

    Each points block that `_points_blocks` reads comes back as its
    read-only float64 array. Only the rest of the bytes, with a
    placeholder string standing for each block, is decoded, strictly as
    UTF-8, and parsed by json. A block is ASCII, so the rest decodes
    exactly when the whole does. Should the decode or the parse fail, the
    whole is decoded and parsed again as if no block had been read, so a
    failure raises the codec's or json's own error at its own position.
    json never sees bytes, which it would decode by its own rules.

    Given `emit`, the canonical serializer to bytes, returns the document
    and whether `emit` writes it as `data` itself. That is known without
    rendering any block again once some block was read and `emit` writes
    the rest, placeholders and all, as its own bytes; False otherwise."""

    def parse(source: str, hook):
        parse_int = _parse_int if _NEG_ZERO.search(source) else None
        return json.loads(source, parse_int=parse_int, object_hook=hook)

    blocks = _points_blocks(data)
    held: list[dict] = []

    def hold(obj):
        obj = obj if object_hook is None else object_hook(obj)
        ref = obj.get("points") if type(obj) is dict else None
        if type(ref) is str and ref[:1] == "\0":
            held.append(obj)
        return obj

    doc = rest = None
    if blocks:
        pieces, at = [], 0
        for i, (start, end, _) in enumerate(blocks):
            pieces += [data[at:start], b'"\\u0000%d"' % i]
            at = end
        rest = b"".join(pieces) + data[at:]
        # a "\u0000" of the document's own could read as a placeholder
        if rest.count(b"\\u0000") == len(blocks):
            try:
                doc = parse(rest.decode("utf-8"), hold)
            except (ValueError, RecursionError):  # decode and JSON errors are ValueErrors
                held.clear()
    if doc is None:
        rest = None
        try:
            doc = parse(data.decode("utf-8"), object_hook)
        except RecursionError:
            raise MalformedDocument(TOO_DEEP) from None
    same = False
    if emit is not None and rest is not None:
        try:
            same = emit(doc) == rest
        except (ValueError, RecursionError):  # the whole document fails as it would
            pass
    for obj in held:
        obj["points"] = blocks[int(obj["points"][1:])][2]
    return doc if emit is None else (doc, same)


def _document_bytes(path) -> bytes:
    """The bytes of a document file, opened in binary, as text mode reads
    its text: strict UTF-8 with universal newlines, so that CR LF and a
    lone CR read as LF. A file holding a CR is decoded first, so that
    invalid UTF-8 in it raises as text mode raises it, at its offset in
    the file; `_read_json` decodes any other file as it is."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data.decode("utf-8")
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def load_sequence(path) -> DiscreteSequence:
    return DiscreteSequence.from_json(_read_json(_document_bytes(path)))
