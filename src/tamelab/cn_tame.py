"""Tameness machinery for flat complex space: the summability criterion
with its tail certificate, volume-preserving shears, and the finite-node
interpolation used to push a prefix to prescribed heights."""

from __future__ import annotations

from dataclasses import dataclass
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
    _pair,
    _row_norms,
    falls_short,
    first_close_pair,
)
from .errors import (
    DegenerateConfiguration,
    DimensionMismatch,
    DuplicateNodes,
    InterpolationIllConditioned,
    MalformedDocument,
    ZeroPoint,
)
from .rng import haar_unitary, stream

PARTIAL_ONLY = "partial-only"
MONOTONE_TAIL_BOUND = "monotone-tail-bound"
_FLOAT_MAX = float(np.finfo(float).max)


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

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __call__(self, z):
        """Horner's rule in Python complex arithmetic, at a scalar or at each
        entry of an array, so that array entries round as scalar calls do."""
        zs = np.asarray(z, dtype=np.complex128)
        out = []
        for s in zs.ravel().tolist():
            acc = 0j
            for c in reversed(self.coeffs):
                acc = acc * s + c
            out.append(acc)
        if zs.ndim == 0:
            return out[0]
        return np.array(out, dtype=np.complex128).reshape(zs.shape)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def to_json(self) -> dict:
        return {"kind": "poly", "coeffs": [_pair(c) for c in self.coeffs]}


@dataclass(frozen=True)
class LagrangePoly:
    """Barycentric Lagrange form for node counts where expanding to
    monomials would overflow.

    Weights are kept as complex logarithms and renormalized per
    evaluation, so hundreds of nodes are fine. Agrees with the unique
    interpolating polynomial of degree < #nodes.
    """

    nodes: tuple[complex, ...]
    values: tuple[complex, ...]
    log_weights: tuple[complex, ...]

    @classmethod
    def fit(cls, nodes, values) -> "LagrangePoly":
        xs = np.asarray(nodes, dtype=np.complex128)
        logs = []
        for i in range(len(xs)):
            diffs = xs[i] - np.delete(xs, i)
            logs.append(-np.sum(np.log(diffs)))
        return cls(
            tuple(complex(x) for x in xs),
            tuple(complex(v) for v in values),
            tuple(complex(w) for w in logs),
        )

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodes, values and log-weights as arrays, built on first use."""
        return np.asarray(self.nodes), np.asarray(self.values), np.asarray(self.log_weights)

    def __call__(self, z):
        zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
        xs, vals, logw = self._arrays
        out = np.empty_like(zs)
        for idx, point in enumerate(zs):
            diffs = point - xs
            exact = np.nonzero(diffs == 0)[0]
            if exact.size:
                out[idx] = vals[exact[0]]
                continue
            terms = logw - np.log(diffs)
            shift = np.max(terms.real)
            w = np.exp(terms - shift)
            out[idx] = np.sum(w * vals) / np.sum(w)
        if np.ndim(z) == 0:
            return complex(out[0])
        return out

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
    f: Polynomial
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
    values = [None if d.generator is None else d.generator.get(key) for key in keys]
    if any(v is None for v in values):
        return None
    for key, v in zip(keys, values):
        # abs(v) <= max also turns away nan, inf and ints past the float range
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= _FLOAT_MAX:
            raise MalformedDocument(f"generator parameter {key!r} must be a finite number")
    return float(values[0]), float(values[1])


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


def _leja_order(xs: np.ndarray) -> np.ndarray:
    """Node ordering that keeps divided differences well scaled."""
    m = len(xs)
    order = np.empty(m, dtype=int)
    order[0] = int(np.argmax(np.abs(xs)))
    chosen = np.zeros(m, dtype=bool)
    chosen[order[0]] = True
    score = np.abs(xs - xs[order[0]])
    score[order[0]] = -1.0
    for i in range(1, m):
        nxt = int(np.argmax(score))
        order[i] = nxt
        chosen[nxt] = True
        score = np.minimum(score, np.abs(xs - xs[nxt]))
        score[chosen] = -1.0
    return order


def interpolate_nodes(nodes, distinct_tol: float = DISTINCT_TOL) -> Polynomial:
    """Unique polynomial of degree < #nodes through the given (x, y) pairs.

    Newton divided differences after rescaling the abscissae to unit mean
    modulus; the result is checked against every node before it is
    returned.
    """
    xs = np.array([complex(x) for x, _ in nodes])
    ys = np.array([complex(y) for _, y in nodes])
    m = len(xs)
    if m == 0:
        raise DuplicateNodes("at least one node is required")
    hit = first_close_pair(xs, distinct_tol)
    if hit is not None:
        raise DuplicateNodes(
            f"abscissae {hit[0]} and {hit[1]} are within {distinct_tol:g}"
        )
    scale = float(np.mean(np.abs(xs)))
    if scale == 0.0:
        scale = 1.0
    order = _leja_order(xs)
    # divided differences and the Newton-to-monomial expansion run in
    # extended precision; rounding back to double happens only at the end
    xr = (xs[order] / scale).astype(np.clongdouble)
    diffs = ys[order].astype(np.clongdouble)
    for level in range(1, m):
        diffs[level:m] = (diffs[level:m] - diffs[level - 1 : m - 1]) / (
            xr[level:m] - xr[: m - level]
        )
    coeffs = np.zeros(m, dtype=np.clongdouble)
    coeffs[0] = diffs[m - 1]
    top = 0
    for level in range(m - 2, -1, -1):
        top += 1
        coeffs[1 : top + 1] = coeffs[0:top]
        coeffs[0] = 0.0
        coeffs[0:top] -= xr[level] * coeffs[1 : top + 1]
        coeffs[0] += diffs[level]
    inv = np.clongdouble(1.0) / np.clongdouble(scale)
    coeffs *= inv ** np.arange(m)
    result = Polynomial(tuple(complex(c) for c in coeffs))

    fitted = result(xs)
    err = np.abs(np.atleast_1d(fitted) - ys)
    # tolerance widens by the forward error bound of evaluating the
    # monomial form in double precision; tighter is not representable
    mags = np.abs(np.array(result.coeffs)) if not result.is_zero else np.zeros(1)
    eval_cond = np.sum(mags * np.abs(xs)[:, None] ** np.arange(len(mags)), axis=1)
    bound = 1e-9 * (1.0 + np.abs(ys)) + 16 * np.finfo(float).eps * eval_cond
    if np.any(err > bound):
        worst = int(np.argmax(err - bound))
        raise InterpolationIllConditioned(
            f"node {worst} reproduces with error {err[worst]:.3g}"
        )
    return result


def push_prefix_cn(
    d: DiscreteSequence,
    zeta: HeightAssignment,
    seed: int = 0,
    distinct_tol: float = DISTINCT_TOL,
    tries: int = 64,
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
        raise ValueError("one height per point is required")
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

    rotated = None
    used_tries = 0
    u_mat = None
    for attempt in range(tries):
        rng = stream(seed, "push-unitary", attempt)
        cand = haar_unitary(rng, n)
        moved = pts @ cand.T
        if first_close_pair(moved[:, 0], distinct_tol) is None:
            rotated, u_mat, used_tries = moved, cand, attempt + 1
            break
    if rotated is None:
        raise DegenerateConfiguration(
            f"no sampled unitary separated first coordinates in {tries} tries"
        )

    node_xs = rotated[:, 0]
    node_ys = (targets + 1.0) - rotated[:, 1]
    f = interpolate_nodes(list(zip(node_xs, node_ys)), distinct_tol)
    shear = ShearAut(axis=1, driver=0, f=f)
    phi = Composite((LinearAut(u_mat), shear))

    with np.errstate(over="ignore"):  # an overflowing height is reported below
        achieved = _row_norms(phi.apply_batch(pts))
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
        "unitary_tries": used_tries,
        "stages": "unitary+shear",
        "interpolation_nodes": len(d),
    }
    return phi, proof
