"""Constructions special to 2x2 unimodular matrices.

Three groups of tools live here.  Overshears rescale the second column
of a matrix by a factor that depends only on the first column, with the
factor pinned to one whenever the corner entry vanishes; they preserve
the determinant and fix the first column entry for entry.  Right
translations slide a matrix along its first-column fiber and carry a
natural distance.  On top of both sits a three-stage pipeline that turns
any prefix with discrete first-column images into one whose second-column
images escape nested balls, and an exact-arithmetic enumerator for
matrices over the integers of an imaginary quadratic field.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cn_tame import Polynomial, interpolate_nodes
from .core import (
    DET_TOL,
    MAX_FIBER,
    MIN_GAP,
    Automorphism,
    Composite,
    DiscreteSequence,
    GeneratorInfo,
    LinearAut,
    Verdict,
    _ONE,
    _Parts,
    _check_rows,
    _choose,
    _divide,
    _horner,
    _pair,
    _row_norms,
    group_fibers,
    properness_check,
    sl_matrix,
    sln,
)
from .errors import (
    AmbientMismatch,
    DimensionMismatch,
    EmptyResult,
    InconsistentFiber,
    LambdaVanishes,
    NotSameFiber,
    StageFailed,
    UnsupportedField,
    ZeroVector,
)
from .pi_tame import BundlePushAut, QPolyMap, first_column, pi_tame_check
from .pi_tame import _separate
from .rng import stream

SMALL_CORNER_TOL = 1e-10
LAMBDA_FLOOR = 1e-12
SAME_COLUMN_TOL = 1e-10
CROSS_CHECK_TOL = 1e-8
AXIS_CLEARANCE = 1e-8
OVERSHOOT_FACTOR = 2.0
_TRY_CAP = 64


@dataclass(frozen=True)
class BivariatePoly:
    """Polynomial in two variables; ``coeffs[i][j]`` multiplies a**i * b**j."""

    coeffs: tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        rows = []
        width = max((len(r) for r in self.coeffs), default=0)
        for row in self.coeffs:
            padded = tuple(complex(z) for z in row) + (0j,) * (width - len(row))
            if not all(map(cmath.isfinite, padded)):
                raise ValueError("coefficients must be finite")
            rows.append(padded)
        object.__setattr__(self, "coeffs", tuple(rows))

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls(())

    @classmethod
    def constant(cls, value) -> "BivariatePoly":
        return cls(((complex(value),),))

    @property
    def is_zero(self) -> bool:
        return all(z == 0 for row in self.coeffs for z in row)

    def __call__(self, a, b) -> complex:
        return self.at(complex(a), complex(b))

    def at(self, a, b):
        """The polynomial at (a, b), complex scalars or `_Parts`, by
        Horner's rule in b within a row and in a across the rows."""
        return _horner([_horner(row, b) for row in self.coeffs], a)

    def to_json(self) -> dict:
        return {"coeffs": [[_pair(z) for z in row] for row in self.coeffs]}


@dataclass(frozen=True)
class SeparatedShift:
    """Shift that reads (a, b) only through the separator u[0]*a + u[1]*b,
    kept as a one-variable fit rather than expanded into a grid. The
    separator rounds as `pi_tame._separate` forms it, so a fitted first
    column evaluates at its node exactly."""

    u: np.ndarray
    fn: object

    def at(self, a, b):
        """The shift at (a, b), complex scalars or `_Parts`."""
        if isinstance(a, _Parts):
            return self.at_columns(np.stack([a.array(), b.array()], axis=1))
        return complex(self.at_columns(np.array([[a, b]])).array()[0])

    def at_columns(self, cols: np.ndarray) -> _Parts:
        """The shift at each row (a, b) of an (m, 2) array, with one
        evaluation of the fit over the whole stack."""
        return _Parts.of(self.fn(np.sum(self.u * cols, axis=1)))

    def to_json(self) -> dict:
        return {"separator_u": [_pair(z) for z in self.u], "inner": self.fn.to_json()}


@dataclass(frozen=True)
class OvershearSpec:
    """Second-column rescaling factor in structural unit-at-the-wall form.

    The factor is lambda(a, b) = 1 + a * shift(a, b), so lambda(0, w) = 1
    holds identically and the corner limit of the rescaled matrix needs no
    division.  ``inverted`` swaps in 1 / lambda, which keeps the same
    structural form with shift' = -shift / lambda.
    """

    shift: BivariatePoly | SeparatedShift
    inverted: bool = False

    @classmethod
    def identity(cls) -> "OvershearSpec":
        return cls(BivariatePoly.zero())

    def lambda_at(self, a, b) -> complex:
        _, lam, size = self.factors(complex(a), complex(b))
        _require_factor(size)
        return lam

    def factors(self, a, b):
        """(shift, lambda, modulus) at first columns (a, b), complex scalars
        or `_Parts` over a stack. The modulus is that of a point's first
        vanishing factor, else of lambda, for `_require_factor`; one point
        raises before it would divide by a vanishing factor. The inverted
        shift divides by CPython's rule."""
        base = self.shift.at(a, b)
        lam = _ONE + a * base
        size = abs(lam)
        if not self.inverted:
            return base, lam, size
        if not isinstance(size, np.ndarray):
            _require_factor(size)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            shift = _divide(-base, lam, reciprocal=False)
            lam = _ONE + a * shift
            then = abs(lam)
        if isinstance(size, np.ndarray):
            then = np.where(size < LAMBDA_FLOOR, size, then)
        return shift, lam, then

    def to_json(self) -> dict:
        return {"shift": self.shift.to_json(), "inverted": self.inverted}


def _require_factor(size) -> None:
    """Raise at the first point whose factor modulus `size` (a float, or
    an array over a stack) falls below `LAMBDA_FLOOR`."""
    if not isinstance(size, np.ndarray):
        if size < LAMBDA_FLOOR:
            raise LambdaVanishes(f"factor has modulus {size:.3g} at the requested point")
        return
    low = np.flatnonzero(size < LAMBDA_FLOOR)
    if low.size:
        k = int(low[0])
        raise LambdaVanishes(f"factor has modulus {size[k]:.3g} at point {k}")


def _second_column(a, b, c, d, shift, lam):
    """The overshear's second column (c * lambda, d') for a matrix
    [[a, c], [b, d]] whose first column gives `shift` and `lam`."""
    return c * lam, _choose(abs(a) >= SMALL_CORNER_TOL, _corner, a, b, c, d, shift, lam)


def _corner(off_wall: bool, a, b, c, d, shift, lam):
    """d' = (1 + b*c*lambda) / a in numpy's scalar division away from the
    a = 0 wall; at it the equivalent lambda*d - shift, the removable-
    singularity value (1 - lambda)/a = -shift taken literally."""
    if off_wall:
        return _divide(_ONE + b * c * lam, a, reciprocal=True)
    return lam * d - shift


def overshear_apply(s: OvershearSpec, m) -> np.ndarray:
    """Rescale the second column by lambda(first column), keeping det = 1."""
    m = sl_matrix(m)
    _require_sl2(m[None])
    (a, c), (b, d) = m.tolist()
    shift, lam, size = s.factors(a, b)
    _require_factor(size)
    m[0, 1], m[1, 1] = _second_column(a, b, c, d, shift, lam)
    return m


def _require_sl2(ps: np.ndarray) -> None:
    """The shape check of a stack of overshear inputs."""
    shape = ps.shape[1:]
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {shape}")
    if shape != (2, 2):
        raise AmbientMismatch(f"overshears act on SL(2), not on {shape[0]}x{shape[1]} matrices")


def _overshear(ps: np.ndarray, spec: OvershearSpec) -> tuple[np.ndarray, np.ndarray]:
    """`overshear_apply` over a validated (m, 2, 2) stack, with the factor
    modulus of each row for `_require_factor`."""
    (a, c), (b, d) = ([_Parts.of(ps[:, i, j]) for j in (0, 1)] for i in (0, 1))
    shift, lam, size = spec.factors(a, b)
    out = ps.copy()
    out[:, :, 1] = np.stack([x.array() for x in _second_column(a, b, c, d, shift, lam)], 1)
    return out, size


_ROUNDTRIP_SAMPLES = (
    np.array([[1.0, 0.3], [-0.2, 0.94]]),
    np.array([[0.1, -1.0], [1.0, 0.0]]),
    np.array([[1e-12, -1.0], [1.0, 0.5]]),
    np.array([[0.25 + 0.1j, 0.4], [0.3j, (1.0 + 0.4 * 0.3j) / (0.25 + 0.1j)]]),
)


def overshear_inverse(s: OvershearSpec) -> OvershearSpec:
    """The overshear undoing `s`, checked by round trips on fixed samples.

    Samples where the factor vanishes are outside the domain of the
    inverse and are skipped rather than reported.
    """
    inv = OvershearSpec(s.shift, not s.inverted)
    for sample in _ROUNDTRIP_SAMPLES:
        try:
            back = overshear_apply(inv, overshear_apply(s, sample))
        except LambdaVanishes:
            continue
        drift = float(np.max(np.abs(back - sample)))
        if drift > 1e-9:
            raise StageFailed(
                "inverse-roundtrip", f"sample returns with error {drift:.3g}"
            )
    return inv


def right_translate(m, t) -> np.ndarray:
    """Slide `m` along its first-column fiber by `t`."""
    m = sl_matrix(m)
    t = complex(t)
    a, c = m[0, 0], m[0, 1]
    b, d = m[1, 0], m[1, 1]
    return np.array([[a, c + a * t], [b, d + b * t]], dtype=np.complex128)


def _translation_moduli(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """`fiber_distance` over matched stacks of validated matrices, pair
    by pair; the first failing pair in order raises its error."""
    diff = second - first
    col_gap = np.max(np.abs(diff[:, :, 0]), axis=1)
    a, b = first[:, 0, 0], first[:, 1, 0]
    top = abs(_Parts.of(a)) >= abs(_Parts.of(b))
    t = np.where(top, diff[:, 0, 1], diff[:, 1, 1]) / np.where(top, a, b)
    rest = np.where(top, diff[:, 1, 1], diff[:, 0, 1])
    slack = np.abs(rest - np.where(top, b, a) * t)
    bad = np.flatnonzero((col_gap > SAME_COLUMN_TOL) | (slack > CROSS_CHECK_TOL))
    if bad.size:
        k = bad[0]
        if col_gap[k] > SAME_COLUMN_TOL:
            raise NotSameFiber(f"first columns differ by {col_gap[k]:.3g}")
        raise InconsistentFiber(
            f"second columns disagree with a single translation by {slack[k]:.3g}"
        )
    return abs(_Parts.of(t))


def fiber_distance(a_mat, b_mat) -> float:
    """|t| for the translation carrying one matrix to the other.

    Both matrices must share a first column; the translation parameter is
    read off the better-conditioned second-column entry and cross-checked
    on the other one.
    """
    first = sl_matrix(a_mat)
    second = sl_matrix(b_mat)
    return float(_translation_moduli(first[None], second[None])[0])


def fiber_affine_probe(s: OvershearSpec, v, samples):
    """Fit the map induced on the fiber coordinate; returns
    (slope, intercept, max residual).

    The fiber over `v` is swept by translations of a base matrix at the
    given parameter values, the overshear is applied, and the image
    parameters are fit affinely.  The slope recovers lambda(v).
    """
    v = np.asarray(v, dtype=np.complex128).reshape(2)
    if float(np.max(np.abs(v))) == 0.0:
        raise ZeroVector("the fiber base point must be nonzero")
    ts = [complex(t) for t in samples]
    if len(ts) < 2:
        raise ValueError("need at least two sample parameters")
    a, b = v
    # read the coordinate off the top entry whenever a is nonzero: the
    # base below makes that entry exactly a*t*lambda, so dividing by a
    # loses nothing; the bottom entry would carry the division branch's
    # eps/|a| cancellation noise near the wall
    top_route = abs(a) >= SMALL_CORNER_TOL or (a != 0 and b == 0)
    if top_route:
        base = np.array([[a, 0.0], [b, 1.0 / a]], dtype=np.complex128)
    else:
        base = np.array([[a, -1.0 / b], [b, 0.0]], dtype=np.complex128)
    origin = overshear_apply(s, base)
    coords = []
    for t in ts:
        img = overshear_apply(s, right_translate(base, t))
        if top_route:
            coords.append((img[0, 1] - origin[0, 1]) / a)
        else:
            coords.append((img[1, 1] - origin[1, 1]) / b)
    design = np.stack([np.array(ts), np.ones(len(ts), dtype=np.complex128)], axis=1)
    sol, *_ = np.linalg.lstsq(design, np.array(coords), rcond=None)
    slope, intercept = complex(sol[0]), complex(sol[1])
    residual = float(np.max(np.abs(design @ sol - np.array(coords))))
    return slope, intercept, residual


@dataclass(frozen=True)
class OvershearAut(Automorphism):
    """Overshear as a composable ambient map."""

    spec: OvershearSpec
    kind = "overshear"

    def apply_batch(self, ps: np.ndarray) -> np.ndarray:
        """`overshear_apply` at each matrix of a stack, the stack checked
        once."""
        ps = np.asarray(ps, dtype=np.complex128)
        _require_sl2(ps)
        _check_rows("sln", ps, DET_TOL)
        out, size = _overshear(ps, self.spec)
        _require_factor(size)
        return out

    def to_json(self) -> dict:
        return {"kind": self.kind, "factor": self.spec.to_json()}


def _left_move(columns, rng):
    """A determinant-one matrix whose action clears both axes for every
    first column, found by seeded rejection."""
    for _ in range(_TRY_CAP):
        raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        det = raw[0, 0] * raw[1, 1] - raw[0, 1] * raw[1, 0]
        if abs(det) < 1e-6:
            continue
        cand = raw / np.sqrt(det)
        clearance = float(np.min(np.abs(LinearAut(cand).apply_batch(columns))))
        if clearance >= AXIS_CLEARANCE:
            return cand
    raise StageFailed(
        "axis-move", f"no draw cleared the axes after {_TRY_CAP} tries"
    )


def _fiber_radii(points, fibers: dict) -> np.ndarray:
    """Half the closest same-fiber gap per point, over the grouping
    `fibers` of the first columns; singletons get 1. The gaps of every
    ordered pair of fiber members are taken at once, in the order fiber
    by fiber (by first member), then by member and partner."""
    pairs = [
        (i, j)
        for members in fibers.values()
        for i in members
        for j in members
        if j != i
    ]
    radii = np.ones(len(points))
    if pairs:
        i, j = np.array(pairs).T
        gaps = np.full(len(points), np.inf)
        np.minimum.at(gaps, i, _translation_moduli(points[i], points[j]))
        radii[i] = 0.5 * gaps[i]
    return radii


def _clearance_shear(points, radii, fibers: dict, seed: int):
    """Overshear whose factor meets the per-point clearance target
    |lambda| * radius * column_norm > index; returns it with each point's
    target factor.

    The shift is fitted at one separator per fiber of `fibers`, the
    grouping of the first columns, which the overshear keeps exactly: the
    bundle push fits its top row at the same nodes, with the same weights.
    """
    need = (np.arange(len(points)) + 1.0) / (
        np.asarray(radii) * np.linalg.norm(points[:, :, 0], axis=1)
    )
    targets = np.empty(len(points))
    reps = []
    for members in fibers.values():
        targets[members] = 2.0 * max(1.0, float(np.max(need[members])))
        reps.append(members[0])
    u, ss = _separate(points[reps, :, 0], seed)
    shifts = (targets[reps] - 1.0) / points[reps, 0, 0]
    fn = interpolate_nodes(np.column_stack((ss, shifts)), 0.0)
    return OvershearSpec(SeparatedShift(u, fn)), targets


def sl2_column_pipeline(d: DiscreteSequence, seed: int = 0, max_fiber: int = MAX_FIBER):
    """Move a prefix with discrete first-column images until the second
    column is proper; returns (composite map, verdict).

    Stage one left-multiplies by a seeded generic determinant-one matrix
    so no first column touches a coordinate axis.  Stage two overshears
    so each point's fiber radius, scaled by its column norm, clears its
    index.  Stage three right-translates each fiber until every
    second-column image leaves the ball whose radius is the point's
    index, with translations drawn seeded-generic until the images are
    also pairwise separated.  `max_fiber` is the input gate's cap on
    first-column fiber sizes; exact enumerations need it raised.
    """
    if d.ambient.kind != "sln" or d.ambient.n != 2:
        raise AmbientMismatch("the pipeline runs over 2x2 matrices")
    if len(d) == 0:
        return Composite(()), Verdict.consistent("empty prefix; nothing to move")
    gate = pi_tame_check(d, first_column(2), max_fiber=max_fiber)
    if gate.is_violated:
        raise StageFailed("input-gate", f"first-column projection fails: {gate.detail}")
    rng = stream(seed, "sl2-pipeline")

    left = _left_move(d.array[:, :, 0], rng)
    moved = LinearAut(left).apply_batch(d.array)

    fibers = group_fibers(moved[:, :, 0])  # the overshear keeps first columns
    radii = _fiber_radii(moved, fibers)
    spec, targets = _clearance_shear(moved, radii, fibers, seed)
    norms = _row_norms(moved[:, :, 0])
    col_norms = norms.tolist()
    sheared, size = _overshear(moved, spec)
    have = size * radii * norms
    balls = np.arange(1.0, len(moved) + 1.0)
    # a row fails on its factor first, then on the stage's own bounds
    failed = (size < LAMBDA_FLOOR) | ~((have > balls) & (size <= OVERSHOOT_FACTOR * targets))
    if failed.any():
        k = int(np.argmax(failed))
        _require_factor(size[: k + 1])
        raise StageFailed(
            "fiber-rescale",
            f"point {k} clears {have[k]:.3g} (needs more than {k + 1}) with factor "
            f"{size[k]:.3g} (at most {OVERSHOOT_FACTOR:g} times its target {targets[k]:.3g})",
        )
    _check_rows("sln", moved, DET_TOL)

    second_norms = _row_norms(sheared[:, :, 1]).tolist()
    verdict = None
    translations: list[complex] = []
    for _ in range(_TRY_CAP):
        translations = []
        ts = np.empty(len(sheared), dtype=np.complex128)
        for members in fibers.values():
            need = max(members) + 2 + max(second_norms[k] for k in members)
            t = (need / col_norms[members[0]]) * (1.0 + 0.25 * abs(rng.standard_normal()))
            t = complex(t * np.exp(2j * np.pi * rng.random()))
            translations.append(t)
            ts[members] = t
        # the second columns `right_translate` gives every point
        images = sheared[:, :, 1] + sheared[:, :, 0] * ts[:, None]
        escaped = bool(np.all(_row_norms(images) > balls))
        verdict = properness_check(images, min_gap=MIN_GAP, max_fiber=MAX_FIBER)
        if escaped and not verdict.is_violated:
            break
    else:
        raise StageFailed(
            "ball-escape",
            f"translations kept colliding after {_TRY_CAP} rounds: {verdict.detail}",
        )

    # the translations are the top row at the shift's nodes; every lower
    # block is the identity, whose principal logarithm is 0
    top = (spec.shift.fn.with_values(translations),)
    push = BundlePushAut(QPolyMap(2, spec.shift.u, top, (Polynomial(),)))
    composite = Composite((LinearAut(left), OvershearAut(spec), push))
    final_verdict = Verdict.consistent(f"{verdict.detail}; translation seed {seed}")
    return composite, final_verdict


@dataclass(frozen=True)
class _Ring:
    """A ring of integers: its tag, its `--field` alias, the largest height
    `gen` enumerates over it, and (s, c) with w * w = s * w - c for the
    generator w over Z. Q has no w and keeps s = c = 0: its entries are
    the integers x, with y = 0."""

    tag: str
    alias: str
    cap: int
    s: int = 0
    c: int = 0

    @property
    def omega(self) -> complex:
        """w embedded in C as (s + i sqrt(4c - s^2)) / 2; 0 for Q."""
        return complex(self.s / 2, math.sqrt(4 * self.c - self.s * self.s) / 2)


# Z and the integers of the five norm-Euclidean imaginary quadratic fields.
# The height caps are set by the size of the output; the entry products
# stay far inside int64 at any height that fits in memory. At the cap,
# Q(sqrt-3) gives 137,844 matrices (47 MB of JSON, 0.29 GB peak for `gen`)
# and Q gives 140,340 (39 MB, 0.25 GB); Q(sqrt-3) at height 7 gives
# 254,628 (87 MB, 0.54 GB).
_RINGS = (
    _Ring("Q", "q", 120),
    _Ring("Q(i)", "qi", 6, 0, 1),
    _Ring("Q(sqrt-2)", "q2", 6, 0, 2),
    _Ring("Q(sqrt-3)", "q3", 6, 1, 1),
    _Ring("Q(sqrt-7)", "q7", 6, 1, 2),
    _Ring("Q(sqrt-11)", "q11", 6, 1, 3),
)


def _ring(field: str, aliases: bool = False) -> _Ring:
    """The row of `_RINGS` whose tag is `field`, or with `aliases` also
    the row whose alias is `field` in any case."""
    for row in _RINGS:
        if field == row.tag or aliases and field.lower() == row.alias:
            return row
    raise UnsupportedField(f"field {field!r} is not in the supported list")


@dataclass(frozen=True)
class GaussianIntegerParams:
    """Which quadratic integer ring, by its tag, and how far out to
    enumerate."""

    field: str
    height_bound: int

    def __post_init__(self):
        _ring(self.field)
        if self.height_bound < 1:
            raise EmptyResult(
                f"height bound {self.height_bound} admits no matrices"
            )


def _ring_mul(p, q, s: int, c: int):
    """Multiply x + y*w coordinates exactly, with w * w = s * w - c."""
    x, y = p
    u, v = q
    return (x * u - c * y * v, x * v + y * u + s * y * v)


def _exact_quadruples(p: GaussianIntegerParams):
    """The entry table (xs, ys) and the index arrays (a, b, c, d) into it
    of every determinant-one matrix [[a, c], [b, d]] within the height
    bound, in lexicographic entry order, computed exactly. Entry i is the
    ring element xs[i] + ys[i] * w, which embeds in C as xs[i] + ys[i] *
    omega, with omega = `_Ring.omega` of the field.

    The (2h+1)^4 products of two entries are formed once and joined on
    ad - bc = 1: the products, keyed so that adding one to the real part
    adds one to the key, are sorted, and each product bc finds its
    partners ad = bc + 1 by binary search.
    """
    ring = _ring(p.field)
    h = p.height_bound
    span = np.arange(-h, h + 1, dtype=np.int64)
    if ring.c:
        xs, ys = np.repeat(span, len(span)), np.tile(span, len(span))
    else:
        xs, ys = span, np.zeros_like(span)
    n = len(xs)
    # product of entries i and j at i * n + j
    px, py = _ring_mul((xs[:, None], ys[:, None]), (xs[None, :], ys[None, :]), ring.s, ring.c)
    reach = int(max(np.abs(px).max(), np.abs(py).max())) + 1
    keys = (py * (2 * reach + 1) + px).ravel()
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    lo = np.searchsorted(ranked, keys + 1, side="left")
    counts = np.searchsorted(ranked, keys + 1, side="right") - lo
    cb = np.repeat(np.arange(n * n), counts)
    ad = order[np.arange(len(cb)) + np.repeat(lo - np.cumsum(counts) + counts, counts)]
    a, d = np.divmod(ad, n)
    c, b = np.divmod(cb, n)
    rank = np.lexsort((d, c, b, a))
    return xs, ys, a[rank], b[rank], c[rank], d[rank]


def gaussian_sl2_generate(p: GaussianIntegerParams) -> DiscreteSequence:
    """The exact enumeration embedded as a matrix prefix. First-column
    images stay on the ring's lattice, which has unit minimum gap: a
    nonzero x + y * w has integer norm x^2 + sxy + cy^2, at least one."""
    xs, ys, a, b, c, d = _exact_quadruples(p)
    if not len(a):
        raise EmptyResult("no matrices at this height")
    # the embedding x + y * omega of each entry
    embedded = xs + ys * _ring(p.field).omega
    points = embedded[np.stack([a, c, b, d], axis=1).reshape(-1, 2, 2)]
    gen = GeneratorInfo.of("sl2-gauss", field=p.field, height_bound=p.height_bound)
    return DiscreteSequence(sln(2), points, gen)
