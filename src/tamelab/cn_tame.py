"""Tameness machinery for flat complex space: the summability criterion
with its tail certificate, volume-preserving shears, and the finite-node
interpolation used to push a prefix to prescribed heights."""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    DISTINCT_TOL,
    Automorphism,
    Composite,
    DiscreteSequence,
    HeightAssignment,
    IdentityAut,
    LinearAut,
    Verdict,
    _PAIR_TABLE_ENTRIES,
    _Parts,
    _horner,
    _pair,
    _row_norms,
    falls_short,
    first_close_pair,
)
from .errors import (
    BadParams,
    DegenerateConfiguration,
    DimensionMismatch,
    DuplicateNodes,
    InterpolationIllConditioned,
    ZeroPoint,
)
from .rng import haar_unitary, stream

PARTIAL_ONLY = "partial-only"
MONOTONE_TAIL_BOUND = "monotone-tail-bound"
UNITARY_TRIES = 64  # unitaries `push_prefix_cn` samples before it gives up


@dataclass(frozen=True)
class Polynomial:
    """One-variable polynomial with complex coefficients, low degree first.

    Trailing zero coefficients are stripped on construction, so the zero
    polynomial is the empty tuple.
    """

    coeffs: tuple[complex, ...] = ()

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, z):
        """Horner's rule at a scalar, in Python complex arithmetic, or at
        each entry of an array in `_Parts`, which rounds as the scalar does.
        The zero polynomial is 0j everywhere, as Horner's empty loop gives."""
        zs = np.asarray(z, dtype=np.complex128)
        if zs.ndim == 0:
            return _horner(self.coeffs, complex(zs))
        if not self.coeffs:
            return np.zeros(zs.shape, dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):  # as Python's arithmetic is silent
            return _horner(self.coeffs, _Parts.of(zs)).array()

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def to_json(self) -> dict:
        return {"kind": "poly", "coeffs": [_pair(c) for c in self.coeffs]}


_FIT_BLOCK = _PAIR_TABLE_ENTRIES >> 2


def _log_weights(xs: np.ndarray) -> tuple[complex, ...]:
    """Barycentric log-weights -sum_{j != i} log(x_i - x_j) of the nodes xs.

    The difference matrix is taken in blocks of rows, about `_FIT_BLOCK`
    entries each. A row holds its off-diagonal entries in node order, so
    it sums exactly as the 1-D array of one node's differences.
    """
    m = len(xs)
    logs = np.empty(m, dtype=np.complex128)
    step = max(1, _FIT_BLOCK // max(m, 1))
    cols = np.arange(m - 1)
    for start in range(0, m, step):
        rows = np.arange(start, min(start + step, m))
        others = cols + (cols >= rows[:, None])
        logs[rows] = -np.sum(np.log(xs[rows, None] - xs[others]), axis=1)
    return tuple(logs.tolist())


class _Weights:
    """The barycentric log-weights of one node set, computed on first
    read: only a point off the nodes needs them."""

    def __init__(self, xs: np.ndarray):
        self.xs = xs

    @cached_property
    def logs(self) -> tuple[complex, ...]:
        return _log_weights(self.xs)


@dataclass(frozen=True)
class LagrangePoly:
    """Barycentric Lagrange form of the unique interpolating polynomial
    of degree < #nodes, the form of every fit in the package (Berrut &
    Trefethen, SIAM Review 46, 2004).

    Weights are kept as complex logarithms and renormalized per
    evaluation, so thousands of nodes are fine. They depend on the nodes
    alone and are computed when a point off the nodes first needs them,
    once for all fits at one node set, which share them through
    `with_values`. A point equal to a node takes that node's value exactly.
    """

    nodes: tuple[complex, ...]
    values: tuple[complex, ...]
    weights: _Weights = field(compare=False, repr=False)

    @classmethod
    def fit(cls, nodes, values) -> "LagrangePoly":
        xs = np.asarray(nodes, dtype=np.complex128)
        return cls(tuple(xs.tolist()), (), _Weights(xs)).with_values(values)

    def with_values(self, values) -> "LagrangePoly":
        """The fit taking `values` at the same nodes, with the same weights."""
        values = tuple(np.asarray(values, dtype=np.complex128).tolist())
        return LagrangePoly(self.nodes, values, self.weights)

    @property
    def log_weights(self) -> tuple[complex, ...]:
        return self.weights.logs

    @cached_property
    def _values(self) -> np.ndarray:
        return np.asarray(self.values)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodes, values and log-weights as arrays, built when a point off
        the nodes first needs them."""
        return np.asarray(self.nodes), self._values, np.asarray(self.log_weights)

    @cached_property
    def _first_index(self) -> dict:
        """Each finite node's first index. Its keys compare as the node
        differences do: 0.0 and -0.0 parts are equal, and a point matches
        no non-finite node."""
        index: dict[complex, int] = {}
        for j, x in enumerate(self.nodes):
            if cmath.isfinite(x):
                index.setdefault(x, j)
        return index

    def __call__(self, z):
        """The interpolant at a scalar or at each entry of an array. Points
        equal to nodes take their values (at once if all do); the others are
        evaluated in blocks of rows, each as the barycentric sum alone."""
        zs = np.asarray(z, dtype=np.complex128)
        flat = zs.reshape(-1)
        vals = self._values
        index = self._first_index
        hit = [index.get(p, -1) for p in flat.tolist()]
        if -1 not in hit:
            out = vals[hit]
            return complex(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)
        hit = np.array(hit, dtype=np.intp)
        out = np.empty(flat.shape, dtype=np.complex128)
        at = hit >= 0
        out[at] = vals[hit[at]]
        rest = np.flatnonzero(~at)
        xs, _, logw = self._arrays
        step = max(1, _FIT_BLOCK // max(len(xs), 1))
        for start in range(0, len(rest), step):
            rows = rest[start : start + step]
            terms = logw - np.log(flat[rows, None] - xs)
            shift = np.max(terms.real, axis=1)
            w = np.exp(terms - shift[:, None])
            out[rows] = np.sum(w * vals, axis=1) / np.sum(w, axis=1)
        if zs.ndim == 0:
            return complex(out[0])
        return out.reshape(zs.shape)

    def __neg__(self) -> "LagrangePoly":
        return self.with_values([-v for v in self.values])

    def to_json(self) -> dict:
        return {
            "kind": "barycentric",
            "nodes": [_pair(x) for x in self.nodes],
            "values": [_pair(v) for v in self.values],
        }


@dataclass(frozen=True)
class ShearAut(Automorphism):
    """Adds f(coordinate `driver`) to coordinate `axis`; all other
    coordinates pass through, so the complex Jacobian determinant is 1."""

    axis: int
    driver: int
    f: Polynomial | LagrangePoly
    kind = "shear"

    def __post_init__(self):
        if self.axis == self.driver:
            raise DimensionMismatch("shear axis must differ from its driver")
        if self.axis < 0 or self.driver < 0:
            raise DimensionMismatch("coordinate indices must be nonnegative")

    def apply_batch(self, ps: np.ndarray) -> np.ndarray:
        out = np.array(ps, dtype=np.complex128)
        out[:, self.axis] += self.f(out[:, self.driver])
        return out

    def inverse(self) -> "ShearAut":
        return ShearAut(self.axis, self.driver, -self.f)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "axis": self.axis,
            "driver": self.driver,
            "f": self.f.to_json(),
        }


@dataclass(frozen=True)
class SeriesReport:
    verdict: Verdict
    partial_sum: float
    exponent: int
    tail_bound: float | None
    small_points: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "partial_sum": self.partial_sum,
            "exponent": self.exponent,
            "verdict": self.verdict.state,
            "tail_bound": self.tail_bound,
        }


def _declared_growth(d: DiscreteSequence) -> tuple[float, float] | None:
    """The declared norm growth (c, alpha), or None if either is absent.
    A declared value that is not a finite int or float is malformed."""
    keys = ("norm_growth_c", "norm_growth_alpha")
    if d.generator is None or any(d.generator.get(key) is None for key in keys):
        return None
    return tuple(d.generator.declared(key, float) for key in keys)


def rr_series_test(d: DiscreteSequence, tail_policy: str = PARTIAL_ONLY) -> SeriesReport:
    """Summability of inverse norms to the power 2n-1 over the prefix.

    The certificate path needs a declared norm growth c*k^alpha with
    alpha*(2n-1) > 1; the declaration is also spot-checked against the
    prefix itself before being trusted. Without a usable declaration the
    result stays at prefix strength, partial sum attached.
    """
    if tail_policy not in (PARTIAL_ONLY, MONOTONE_TAIL_BOUND):
        raise ValueError(f"unknown tail policy {tail_policy!r}")
    n = d.ambient.n
    exponent = 2 * n - 1
    norms = _row_norms(d.array)
    if np.any(norms == 0.0):
        raise ZeroPoint("series criterion needs nonzero points")
    partial = float(np.sum(norms ** (-float(exponent))))
    small = tuple(int(i) for i in np.nonzero(norms <= 1.0)[0])

    growth = _declared_growth(d)
    # an empty prefix checks no declaration, so it certifies nothing
    if tail_policy == MONOTONE_TAIL_BOUND and growth is not None and len(norms):
        c, alpha = growth
        k = np.arange(1, len(norms) + 1, dtype=float)
        declared_ok = c > 0 and np.all(norms >= c * k**alpha - 1e-9 * (1 + norms))
        rate = alpha * exponent
        if declared_ok and rate > 1.0:
            kcut = float(len(norms))
            tail = c ** (-float(exponent)) * kcut ** (1.0 - rate) / (rate - 1.0)
            verdict = Verdict.certified(
                "series-tail-bound",
                f"partial sum {partial:.9g} plus integral tail {tail:.3g}",
            )
            return SeriesReport(verdict, partial, exponent, tail, small)
        detail = (
            "declared growth fails on the prefix"
            if not declared_ok
            else f"declared decay rate {rate:.3g} does not beat 1"
        )
        return SeriesReport(
            Verdict.consistent(detail), partial, exponent, None, small
        )
    return SeriesReport(
        Verdict.consistent(f"partial sum {partial:.9g} over {len(norms)} points"),
        partial,
        exponent,
        None,
        small,
    )


def interpolate_nodes(nodes, distinct_tol: float = DISTINCT_TOL) -> Polynomial | LagrangePoly:
    """The unique polynomial of degree < #nodes through the given (x, y)
    pairs, a sequence of pairs or an (m, 2) array: the zero polynomial
    when every y is zero, else its barycentric form. Abscissae within
    `distinct_tol` of each other raise `DuplicateNodes`."""
    if len(nodes) == 0:
        raise DuplicateNodes("at least one node is required")
    xs, ys = np.asarray(nodes, dtype=np.complex128).T
    hit = first_close_pair(xs, distinct_tol)
    if hit is not None:
        raise DuplicateNodes(
            f"abscissae {hit[0]} and {hit[1]} are within {distinct_tol:g}"
        )
    if not ys.any():
        return Polynomial()
    return LagrangePoly.fit(xs, ys)


def push_prefix_cn(
    d: DiscreteSequence,
    zeta: HeightAssignment,
    seed: int = 0,
    distinct_tol: float = DISTINCT_TOL,
) -> tuple[Automorphism, dict]:
    """Automorphism pushing every prefix point to at least its target height.

    A sampled unitary first makes the leading coordinates pairwise
    distinct, then a single shear on the second coordinate interpolates
    whatever values raise each point's norm past its target. Returns the
    map together with proof data listing the achieved heights.
    """
    n = d.ambient.n
    if n < 2:
        raise DimensionMismatch("height pushing needs dimension at least 2")
    if len(zeta) != len(d):
        raise BadParams("one height per point is required")
    pts = d.array
    heights = np.linalg.norm(pts, axis=1)
    targets = np.array(zeta.values)
    if not np.any(falls_short(heights, targets)):
        proof = {
            "achieved": [float(h) for h in heights],
            "targets": list(targets),
            "stages": "identity",
        }
        return IdentityAut(), proof

    for attempt in range(UNITARY_TRIES):
        rotation = LinearAut(haar_unitary(stream(seed, "push-unitary", attempt), n))
        rotated = rotation.apply_batch(pts)
        if first_close_pair(rotated[:, 0], distinct_tol) is None:
            break
    else:
        raise DegenerateConfiguration(
            f"no sampled unitary separated first coordinates in {UNITARY_TRIES} tries"
        )

    # fitted at the rotated coordinates the map itself computes, so each
    # point's first coordinate is a node and its shear value is exact
    node_ys = (targets + 1.0) - rotated[:, 1]
    f = interpolate_nodes(np.column_stack((rotated[:, 0], node_ys)), distinct_tol)
    shear = ShearAut(axis=1, driver=0, f=f)
    phi = Composite((rotation, shear))

    with np.errstate(over="ignore"):  # an overflowing height is reported below
        achieved = _row_norms(shear.apply_batch(rotated))
    overflow = np.flatnonzero(~np.isfinite(achieved))
    if overflow.size:
        raise InterpolationIllConditioned(
            f"the height of point {overflow[0]} is not finite after interpolation"
        )
    if np.any(falls_short(achieved, targets)):
        worst = int(np.argmin(achieved - targets))
        raise InterpolationIllConditioned(
            f"point {worst} reached height {achieved[worst]:.6g} "
            f"short of target {targets[worst]:.6g}"
        )
    proof = {
        "achieved": [float(a) for a in achieved],
        "targets": [float(t) for t in targets],
        "unitary_tries": attempt + 1,
        "stages": "unitary+shear",
        "interpolation_nodes": len(d),
    }
    return phi, proof
