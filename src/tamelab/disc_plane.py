"""The product of the unit disc with the complex plane.

Every automorphism of this product fibers over the disc: a Moebius map
downstairs, an affine map w -> f(z) w + g(z) upstairs with f
nonvanishing.  The module carries that explicit group, the prefix-scale
tameness classifier for its discrete subsets, the quantitative failure
of any would-be tameness transport for base-accumulating sequences, and
the Poincare-distance obstruction that separates base configurations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cn_tame import Polynomial
from .core import (
    MAX_FIBER,
    MIN_GAP,
    Automorphism,
    DiscreteSequence,
    Verdict,
    _ONE,
    _Parts,
    _divide,
    _pair,
    disc_plane as disc_plane_space,
    first_close_pair,
    group_fibers,
    validate_points,
)
from .errors import AmbientMismatch, InconclusivePrefix, PointOutsideAmbient, ZeroPoint

ALPHA_MARGIN = 1e-12


@dataclass(frozen=True)
class MoebiusDisc:
    """Disc automorphism z -> e^{i theta} (z - alpha) / (1 - conj(alpha) z)."""

    theta: float = 0.0
    alpha: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "alpha", complex(self.alpha))
        if abs(self.alpha) >= 1.0 - ALPHA_MARGIN:
            raise PointOutsideAmbient(
                f"|alpha| = {abs(self.alpha):.6g} is not inside the unit disc"
            )

    def apply(self, z):
        """The image of z, a complex scalar or a `_Parts` stack; the
        quotient rounds as numpy's complex scalars divide."""
        ph = cmath.exp(1j * self.theta)
        return _divide(ph * (z - self.alpha), _ONE - self.alpha.conjugate() * z, reciprocal=True)

    def inverse(self) -> "MoebiusDisc":
        return MoebiusDisc(-self.theta, -cmath.exp(1j * self.theta) * self.alpha)

    def to_json(self) -> dict:
        return {"theta": self.theta, "alpha": _pair(self.alpha)}


@dataclass(frozen=True)
class DiscPlaneAut(Automorphism):
    """(z, w) -> (phi(z), exp(logf(z)) w + g(z)).

    The multiplier is stored through its logarithm, so nonvanishing on
    the disc is structural instead of a numerical check.
    """

    phi: MoebiusDisc
    logf: Polynomial
    g: Polynomial
    kind = "disc-plane"

    @classmethod
    def identity(cls) -> "DiscPlaneAut":
        return cls(MoebiusDisc(), Polynomial(), Polynomial())

    def apply_batch(self, ps: np.ndarray) -> np.ndarray:
        """Each row moved as one point in Python complex scalars would be,
        with numpy's exp, which rounds an array entry as it rounds a scalar."""
        ps = validate_points(disc_plane_space(), ps)
        z, w = ps[:, 0], ps[:, 1]
        fiber = _Parts.of(np.exp(self.logf(z))) * _Parts.of(w) + _Parts.of(self.g(z))
        return np.stack([self.phi.apply(_Parts.of(z)).array(), fiber.array()], axis=1)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "phi": self.phi.to_json(),
            "logf": self.logf.to_json(),
            "g": self.g.to_json(),
        }


def dp_classify(
    d: DiscreteSequence,
    min_gap_disc: float = MIN_GAP,
    max_fiber: int = MAX_FIBER,
) -> Verdict:
    """Prefix-scale tameness classification over the disc factor.

    An oversized fiber or an interior accumulation pattern of the base
    points violates outright; a generator-declared monotone escape of the
    base to the unit circle with singleton fibers certifies; anything
    else stays consistent-up-to-prefix.
    """
    if d.ambient.kind != "disc-plane":
        raise AmbientMismatch(f"expected a disc-plane sequence, got {d.ambient.kind}")
    zs = d.array[:, 0]
    fibers = group_fibers(zs)
    for members in fibers.values():
        if len(members) > max_fiber:
            return Verdict.violated(
                tuple(members),
                f"fiber over z = {zs[members[0]]:.6g} has {len(members)} points "
                f"(cap {max_fiber})",
            )
    first_at = sorted(members[0] for members in fibers.values())
    interior = [i for i in first_at if 1.0 - abs(zs[i]) > 10.0 * min_gap_disc]
    if len(interior) >= 2:
        hit = first_close_pair(zs[interior], float(min_gap_disc))
        if hit is not None:
            i, j = interior[hit[0]], interior[hit[1]]
            return Verdict.violated(
                (i, j),
                f"base points {i} and {j} are {abs(zs[i] - zs[j]):.3g} apart "
                f"well inside the disc",
            )
    escapes = d.generator is not None and d.generator.declared("boundary_escape")
    radii = np.abs(zs)
    monotone = bool(np.all(np.diff(radii) >= 0.0))
    singletons = all(len(m) == 1 for m in fibers.values())
    if escapes and monotone and singletons:
        return Verdict.certified(
            "boundary-escape",
            "declared monotone escape of the base verified on the prefix; "
            "all fibers are singletons",
        )
    return Verdict.consistent("no oversized fiber or interior base collapse found")


@dataclass(frozen=True)
class DpNontameReport:
    """First index where a candidate automorphism undershoots the doubling
    height demand along a base-accumulating sequence."""

    first_failure_index: int
    proximity_cap: float
    lhs: tuple[float, ...]
    rhs: tuple[float, ...]


def dp_nontame_bound(seq: DiscreteSequence, a: DiscPlaneAut) -> DpNontameReport:
    """Quantitative failure witness for a candidate automorphism against
    heights R_k = 2^k |q_k| along points (p_k, q_k) with p_k convergent.

    The achieved height of the image is bounded by the fiber magnitude
    plus the boundary-proximity term 1/(1 - |phi(p_k)|); the first index
    where that bound drops below R_k (with a small safety margin on R_k)
    is the witness.
    """
    if seq.ambient.kind != "disc-plane":
        raise AmbientMismatch(f"expected a disc-plane sequence, got {seq.ambient.kind}")
    ps, qs = seq.array[:, 0], seq.array[:, 1]
    if np.any(qs == 0):
        raise ZeroPoint("fiber coordinates q_k must be nonzero")
    count = len(ps)
    if count >= 4:
        def diam(arr):
            return float(np.max(np.abs(arr[:, None] - arr[None, :])))

        whole, tail = diam(ps), diam(ps[count // 2 :])
        if tail > 0.5 * whole + 1e-12:
            raise ValueError("base points p_k do not look convergent on this prefix")
    images = a.apply_batch(seq.array)
    proximity = 1.0 / (1.0 - abs(_Parts.of(images[:, 0])))
    lhs = abs(_Parts.of(images[:, 1])) + proximity
    rhs = np.ldexp(1.0, np.arange(1, count + 1)) * abs(_Parts.of(qs)) * (1.0 + 1e-6)
    below = np.flatnonzero(lhs < rhs)
    if below.size:
        cap = float(np.max(proximity))
        return DpNontameReport(int(below[0]) + 1, cap, tuple(lhs.tolist()), tuple(rhs.tolist()))
    raise InconclusivePrefix(
        f"no index up to {count} undershoots the doubling heights; extend the prefix"
    )


def poincare_distance(a: complex, b: complex) -> float:
    m = abs((a - b) / (1.0 - np.conj(b) * a))
    return float(math.log((1.0 + m) / (1.0 - m)))


def poincare_signature(points) -> np.ndarray:
    """Sorted multiset of pairwise Poincare distances; a Moebius-invariant
    fingerprint of a finite base configuration."""
    zs = [complex(z) for z in points]
    for z in zs:
        if abs(z) >= 1.0:
            raise PointOutsideAmbient(f"|z| = {abs(z):.6g} is not inside the unit disc")
    out = [
        poincare_distance(zs[i], zs[j])
        for i in range(len(zs))
        for j in range(i + 1, len(zs))
    ]
    return np.array(sorted(out))


def inequivalent_base_pair() -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """Two three-point base configurations with different signatures, so no
    automorphism of the product can match one discrete set onto the other."""
    return ((0j, 0.5 + 0j, 0.5j), (0j, 0.6 + 0j, 0.5j))
