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

import io
import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AmbientMismatch,
    DeterminantError,
    DimensionMismatch,
    DuplicatePoints,
    MalformedDocument,
    PointOutsideAmbient,
    UnsupportedPair,
)

DET_TOL = 1e-9
MIN_GAP = 1e-6
DISTINCT_TOL = 1e-6
MAX_FIBER = 8

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


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValueError(f"{what} contains non-finite entries")


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
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    _check_rows("sln", a[None], det_tol)
    return a


def _require_unit_det(det: complex, allowed: float) -> None:
    if abs(det - 1.0) > allowed:
        raise DeterminantError(
            f"determinant {det:.6g} differs from 1 by {abs(det - 1.0):.3g} "
            f"(allowed {allowed:.3g})"
        )


def _check_rows(kind: str, arr: np.ndarray, det_tol: float) -> None:
    """The value checks of a point of an ambient of the given kind, over a
    stack of points of one shape. The first failing point in index order
    raises the error of its own first failing check: non-finite entries,
    then the determinant, the puncture or the disc.

    A stack that passes costs one finiteness pass and, for matrices, one
    comparison of the largest determinant deviation with `det_tol`, the
    floor of every allowed deviation. Only a stack that fails one of them
    is scanned for its first non-finite row or its first row past its own
    `det_tolerance`. A nan deviation (a finite matrix whose determinant
    overflows) passes, but it sends the stack to that scan, since the
    largest deviation is then nan and may hide a failing row.
    """
    m = len(arr)
    if m == 0:
        return
    finite = np.isfinite(arr)
    stop = m if finite.all() else int(np.argmin(finite.reshape(m, -1).all(axis=1)))
    ok = arr[:stop]
    if kind == "sln":
        dets = np.linalg.det(ok)
        dev = np.abs(dets - 1.0)
        if stop and not dev.max() <= det_tol:
            near = np.flatnonzero(dev > det_tol)
            allowed = det_tolerance(ok[near], det_tol)
            off = np.flatnonzero(dev[near] > allowed)
            if off.size:
                _require_unit_det(complex(dets[near[off[0]]]), float(allowed[off[0]]))
    elif kind == "punctured-cn":
        if not np.all(np.any(ok != 0, axis=1)):
            raise PointOutsideAmbient("the puncture (origin) is not a point of this space")
    elif kind == "disc-plane":
        radii = np.abs(ok[:, 0])
        outside = np.flatnonzero(radii >= 1.0)
        if outside.size:
            raise PointOutsideAmbient(
                f"|z| = {radii[outside[0]]:.6g} is not inside the unit disc"
            )
    if stop < m:
        what = "matrix" if kind == "sln" else "point"
        raise ValueError(f"{what} contains non-finite entries")


def validate_points(ambient: AmbientSpace, points, det_tol: float = DET_TOL) -> np.ndarray:
    """Coerce and validate a prefix into one complex array of shape
    (m, n) or (m, n, n).

    When the points do not stack to the ambient's point shape, they are
    coerced in order up to the first one that does not coerce or lacks
    that shape; the points before it are checked, then it raises its own
    error, a square matrix of the wrong size after its finiteness and
    determinant. Either way the first bad point in index order decides.
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
        _check_rows(ambient.kind, arr, det_tol)
        if len(rows) < len(points):
            bad = np.array(points[len(rows)], dtype=np.complex128)
            if not ambient.is_matrix:
                raise DimensionMismatch(f"expected a vector of length {ambient.n}")
            sl_matrix(bad, det_tol)
            raise DimensionMismatch(
                f"expected {ambient.n}x{ambient.n}, got {bad.shape[0]}x{bad.shape[1]}"
            )
        return arr
    _check_rows(ambient.kind, arr, det_tol)
    return arr


def as_point(ambient: AmbientSpace, value, det_tol: float = DET_TOL) -> np.ndarray:
    """Coerce and validate one point of the given ambient space."""
    return validate_points(ambient, (value,), det_tol)[0]


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of the points of an (m, ...) complex array, each
    rounded as np.linalg.norm rounds a single point: real and imaginary
    dot products over the flattened entries."""
    v = v.reshape(len(v), int(np.prod(v.shape[1:])))
    re, im = v.real[:, None, :], v.imag[:, None, :]
    return np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0])


@dataclass(frozen=True)
class GeneratorInfo:
    """Symbolic family descriptor attached to a generated sequence."""

    family: str
    params: tuple[tuple[str, object], ...] = ()

    @classmethod
    def of(cls, family: str, **params) -> "GeneratorInfo":
        return cls(family, tuple(sorted(params.items())))

    def get(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def to_json(self) -> dict:
        return {"family": self.family, "params": dict(self.params)}

    @classmethod
    def from_json(cls, obj: dict) -> "GeneratorInfo":
        params = obj.get("params", {}) if isinstance(obj, dict) else None
        if not isinstance(params, dict) or not isinstance(obj.get("family"), str):
            raise MalformedDocument("field 'generator' of the sequence document is malformed")
        return cls.of(obj["family"], **params)


def max_norm_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Largest entrywise modulus of the difference; the prefix metric."""
    return float(np.max(np.abs(np.ravel(p) - np.ravel(q))))


_PAIR_TABLE_ENTRIES = 1 << 16


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

    A small input is compared in one table of every pair. A larger one
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
        near &= np.arange(m)[None, :] > np.arange(m)[:, None]
        hits = np.argwhere(near)
        return (int(hits[0, 0]), int(hits[0, 1])) if hits.size else None
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
    Equality is that of `_equal_runs`."""
    order, starts = _equal_runs(arr)
    dups = np.flatnonzero(~starts)
    if not dups.size:
        return None
    heads = np.maximum.accumulate(np.where(starts, np.arange(len(arr)), 0))
    k = int(np.argmin(order[dups]))
    return int(order[heads[dups[k]]]), int(order[dups[k]])


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
        hit = _first_duplicate(arr)
        if hit is not None:
            raise DuplicatePoints(
                f"points {hit[0]} and {hit[1]} coincide; prefixes must be "
                "pairwise distinct"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def points(self) -> tuple[np.ndarray, ...]:
        """The rows of `array`, as a new tuple on each read."""
        return tuple(self.array)

    def __len__(self) -> int:
        return len(self.array)

    def replace_points(self, points: Iterable, generator=None) -> "DiscreteSequence":
        return DiscreteSequence(self.ambient, points, generator)

    def to_json(self) -> dict:
        pairs = self.array.view(np.float64).reshape(*self.array.shape, 2)
        obj = {
            "ambient": self.ambient.kind,
            "n": self.ambient.n,
            "points": pairs.tolist(),
        }
        if self.generator is not None:
            obj["generator"] = self.generator.to_json()
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
        for key, kind in (("ambient", str), ("n", int), ("points", list)):
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


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _unpair_array(raw, i: int = 0) -> np.ndarray:
    """Complex entries from [re, im] pairs: point i of a sequence document,
    or a stack of points from point i."""
    try:
        pairs = np.asarray(raw, dtype=np.float64)
    except (ValueError, TypeError, OverflowError):
        why = "its entries do not convert to [re, im] pairs of floats"
    else:
        if pairs.ndim and pairs.shape[-1] == 2:
            return np.ascontiguousarray(pairs).view(np.complex128)[..., 0]
        why = "a complex entry is written as a pair [re, im]"
    raise MalformedDocument(f"point {i} of the sequence document is malformed: {why}")


def _unpair_points(raw):
    """The points of a sequence document as one complex array. Points that
    do not stack are read one at a time, in index order, so that the first
    point not made of [re, im] pairs, or validation later, names it."""
    try:
        pairs = np.asarray(raw, dtype=np.float64)
    except (ValueError, TypeError, OverflowError):
        pairs = None
    if pairs is not None and pairs.ndim > 1:
        return _unpair_array(pairs)
    return tuple(_unpair_array(p, i) for i, p in enumerate(raw))


@dataclass(frozen=True)
class HeightAssignment:
    """Positive target heights, one per point index."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if any(not np.isfinite(v) or v <= 0 for v in vals):
            raise ValueError("heights must be finite and positive")
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


def heights_verdict(achieved, targets: HeightAssignment) -> Verdict:
    """The postcondition of a height push: violated at every point, in
    index order, whose achieved height falls short of its target."""
    low = np.flatnonzero(falls_short(achieved, targets.values))
    if low.size:
        return Verdict.violated(low, f"{low.size} image(s) fall short of their height")
    return Verdict.consistent("every image clears its demanded height")


def drift_verdict(
    mats: np.ndarray, det_tol: float, passed: Verdict | None = None
) -> tuple[float, Verdict]:
    """The largest determinant drift |det - 1| over a stack of matrices,
    and a verdict violated at every matrix, in index order, whose drift
    exceeds its `det_tolerance`: the rule by which a matrix is a point of
    SL(n) when it is loaded. Otherwise the verdict is `passed`, or by
    default one that states the drift."""
    dev = np.linalg.det(mats) - 1.0
    # hypot rounds as Python's abs(complex); numpy's complex abs may not
    drifts = np.hypot(dev.real, dev.imag)
    worst = float(drifts.max(initial=0.0))
    allowed = det_tolerance(mats, det_tol)
    over = np.flatnonzero(drifts > allowed)
    if over.size:
        k = over[np.argmax(drifts[over] / allowed[over])]
        return worst, Verdict.violated(
            over,
            f"determinant drift {drifts[k]:.3g} at point {k} exceeds {allowed[k]:.3g}, "
            f"det_tol {det_tol:g} scaled by its column norms",
        )
    return worst, passed or Verdict.consistent(f"determinant drift {worst:.3g}")


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
        raise ValueError("discreteness needs a nonempty prefix")
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
        raise ValueError("properness needs a nonempty image list")
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
    `to_json` and defines one of the two, the other following from it."""

    kind = "abstract"

    def apply(self, p: np.ndarray) -> np.ndarray:
        return self.apply_batch(np.asarray(p, dtype=np.complex128)[None])[0]

    def apply_batch(self, ps: np.ndarray) -> np.ndarray:
        rows = [self.apply(p) for p in ps]
        return np.array(rows if rows else ps, dtype=np.complex128)

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


def apply_all(aut: Automorphism, d: DiscreteSequence, label: str) -> DiscreteSequence:
    """The prefix moved by `aut`, tagged with the move's label and the
    family it came from."""
    return d.replace_points(
        aut.apply_batch(d.array),
        GeneratorInfo.of(label, source=d.generator.family if d.generator else "input"),
    )


def _float_text(value: float) -> str:
    if not np.isfinite(value):
        raise ValueError(f"non-finite value {value!r} in a report")
    return format(value, ".17g")


def _scalar_text(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _float_text(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__} deterministically")


_CONTAINERS = (list, tuple, dict)
_BATCH = 1 << 10  # list items formatted together
_FLUSH = 1 << 12  # pending chunks per write into the buffer


# ints up to this size print through '%.17g' exactly as str() prints them
_EXACT_INT = 1 << 53


@lru_cache(maxsize=64)
def _item_template(shape: tuple[int, ...], indent: int, slot: str) -> str:
    """One list item of the given nested shape at `indent`, as the emitter
    lays it out, with `slot` in place of each scalar leaf."""
    if not shape:
        return slot
    pad = "\n" + "  " * (indent + 1)
    inner = _item_template(shape[1:], indent + 1, slot)
    return "[" + pad + ("," + pad).join([inner] * shape[0]) + "\n" + "  " * indent + "]"


def _block_text(items, indent: int) -> str | None:
    """The items of a list, each at `indent`, joined as the emitter joins
    them, when they form a regular block: scalars, or lists of one length
    down to scalar leaves. None otherwise.

    Plain floats and ints that '%.17g' prints exactly fill the block's
    template in one '%' call; a nan or inf among them, and any other
    leaf, sends the block leaf by leaf, so the first bad value raises."""
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
            break
    shape = tuple(dims[1:])
    frame = (",\n" + "  " * indent).join
    if kinds == {float} or (
        kinds <= {float, int}
        and all(-_EXACT_INT <= v <= _EXACT_INT for v in level if type(v) is int)
    ):
        text = frame([_item_template(shape, indent, "%.17g")] * dims[0]) % tuple(level)
        if "n" not in text:  # no nan, inf or -inf
            return text
    texts = tuple(_scalar_text(v) for v in level)
    return frame([_item_template(shape, indent, "%s")] * dims[0]) % texts


class _Emitter:
    """Writes a document as canonical JSON into a StringIO, flushing its
    chunks in batches."""

    def __init__(self):
        self.buf = io.StringIO()
        self.chunks: list[str] = []

    def put(self, text: str) -> None:
        self.chunks.append(text)
        if len(self.chunks) >= _FLUSH:
            self.flush()

    def flush(self) -> None:
        self.buf.write("".join(self.chunks))
        self.chunks.clear()

    def emit(self, value, indent: int) -> None:
        if isinstance(value, (list, tuple)):
            self.emit_list(value, indent)
        elif isinstance(value, dict):
            self.emit_dict(value, indent)
        else:
            self.put(_scalar_text(value))

    def emit_list(self, value, indent: int) -> None:
        if not value:
            self.put("[]")
            return
        pad = "\n" + "  " * (indent + 1)
        self.put("[")
        for lo in range(0, len(value), _BATCH):
            chunk = value[lo : lo + _BATCH]
            if lo:
                self.put(",")
            block = _block_text(chunk, indent + 1)
            if block is not None:
                self.put(pad + block)
                continue
            for i, item in enumerate(chunk):
                self.put("," + pad if i else pad)
                self.emit(item, indent + 1)
        self.put("\n" + "  " * indent + "]")

    def emit_dict(self, value, indent: int) -> None:
        if not value:
            self.put("{}")
            return
        pad = "\n" + "  " * (indent + 1)
        self.put("{")
        for i, (key, item) in enumerate(value.items()):
            self.put(("," if i else "") + pad + json.dumps(str(key)) + ": ")
            self.emit(item, indent + 1)
        self.put("\n" + "  " * indent + "}")


def canonical_json(doc) -> str:
    """Deterministic JSON: keys in insertion order, two-space indentation,
    floats at 17 significant digits so they round-trip exactly, and a
    trailing newline. A non-finite float raises `ValueError`."""
    out = _Emitter()
    out.emit(doc, 0)
    out.put("\n")
    out.flush()
    return out.buf.getvalue()


def save_sequence(d: DiscreteSequence, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(d.to_json()))


TOO_DEEP = "the document nests too deeply to parse"


def load_sequence(path) -> DiscreteSequence:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise MalformedDocument(TOO_DEEP) from None
    return DiscreteSequence.from_json(doc)
