"""Discreteness and tameness for subsets of the punctured space.

Removing the origin changes which height functions are reachable: the
exhaustion blows up both at infinity and at the puncture.  Control near
the puncture is two-sided Lipschitz, and that control is exactly what
lets tameness transfer to the flat ambient and what defeats any single
threshold height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cn_tame import MONOTONE_TAIL_BOUND, rr_series_test
from .core import (
    MIN_GAP,
    PUNCTURED_TAU,
    Automorphism,
    DiscreteSequence,
    Verdict,
    _row_norms,
    discreteness_check,
    exhaust_eval,
)
from .errors import AmbientMismatch, InconclusivePrefix, NotOriginFixing
from .rng import stream

ORIGIN_TOL = 1e-10

# Absolute floor (as a power of two) for the radial sampling grid.  The
# grid being absolute rather than radius-relative is what makes runs at
# two radii with the same seed evaluate nested point sets.
_MAG_FLOOR_EXP = -120


@dataclass(frozen=True)
class BiLipschitzReport:
    """Sampled bound C1 * |v| <= |phi(v)| <= C2 * |v| near the puncture."""

    c1: float
    c2: float
    radius: float
    samples: int

    def __post_init__(self):
        if not 0.0 < self.c1 <= self.c2:
            raise ValueError(f"need 0 < C1 <= C2, got ({self.c1}, {self.c2})")
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")


def bilipschitz_estimate(
    phi: Automorphism,
    radius: float,
    samples: int,
    seed: int,
    n: int = 2,
) -> BiLipschitzReport:
    """Distortion bounds for an origin-fixing map, sampled near the puncture.

    Each seeded ray is evaluated along the absolute dyadic magnitudes at or
    below its cutoff, so a rerun at a smaller radius sees a subset of the
    same points.  Per seed this makes C1 nondecreasing and C2 nonincreasing
    as the radius shrinks.
    """
    radius = float(radius)
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if radius < 2.0 ** (_MAG_FLOOR_EXP + 1):
        raise ValueError(f"radius {radius:g} sits below the sampling grid")
    if samples < 1:
        raise ValueError("need at least one sample ray")
    origin = np.zeros(n, dtype=np.complex128)
    drift = float(np.linalg.norm(np.asarray(phi.apply(origin))))
    if drift > ORIGIN_TOL:
        raise NotOriginFixing(f"phi moves the origin by {drift:.3g}")

    rng = stream(seed, "bilipschitz")
    lo, hi = math.inf, 0.0
    seen = 0
    for _ in range(int(samples)):
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        direction = g / np.linalg.norm(g)
        cutoff = radius * (1.0 - float(rng.uniform()))
        top = math.floor(math.log2(cutoff))
        if top < _MAG_FLOOR_EXP:
            continue
        vs = np.array([2.0**k * direction for k in range(_MAG_FLOOR_EXP, top + 1)])
        ratios = _row_norms(phi.apply_batch(vs)) / _row_norms(vs)
        lo = min(lo, float(ratios.min()))
        hi = max(hi, float(ratios.max()))
        seen += len(vs)
    if seen == 0:
        raise ValueError("no sample magnitudes fit under the requested radius")
    return BiLipschitzReport(lo, hi, radius, int(samples))


def punctured_tame_check(
    d: DiscreteSequence,
    min_gap: float = MIN_GAP,
    tail_policy: str = MONOTONE_TAIL_BOUND,
) -> Verdict:
    """Tameness of a punctured-space prefix, viewed through the flat ambient.

    Approach to the puncture or a flat-discreteness failure is a violation
    outright; otherwise the summability criterion decides, since a prefix
    staying away from the origin is tame there iff it is tame in the plain
    ambient.
    """
    if d.ambient.kind != "punctured-cn":
        raise AmbientMismatch(f"expected a punctured-cn sequence, got {d.ambient.kind}")
    norms = _row_norms(d.array)
    near = np.nonzero(norms < float(min_gap))[0]
    if near.size:
        return Verdict.violated(
            tuple(int(i) for i in near),
            f"{near.size} point(s) within {min_gap:g} of the puncture",
        )
    flat = discreteness_check(d, min_gap)
    if flat.is_violated:
        return flat
    return rr_series_test(d, tail_policy=tail_policy).verdict


@dataclass(frozen=True)
class NoThresholdReport:
    """First prefix index where a candidate automorphism loses the race
    against heights growing like (k+1)/|gamma_k|."""

    first_failure_index: int
    c1: float
    zeta: tuple[float, ...]
    tau_values: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "first_failure_index": self.first_failure_index,
            "C1": self.c1,
            "zeta": list(self.zeta),
            "tau_values": list(self.tau_values),
        }


def no_threshold_witness(
    gamma_prefix: DiscreteSequence,
    candidate_phi: Automorphism,
    samples: int = 64,
    seed: int = 0,
) -> NoThresholdReport:
    """Shows the candidate fails the height demand zeta(gamma_k) = (k+1)/|gamma_k|.

    The two-sided control constant C1 bounds how much the candidate can
    stretch near the puncture, so indices up to 1/C1 are skipped; past that
    the first k with tau(phi(gamma_k)) < zeta(gamma_k) is the witness.
    """
    if gamma_prefix.ambient.kind != "punctured-cn":
        raise AmbientMismatch(
            f"expected a punctured-cn sequence, got {gamma_prefix.ambient.kind}"
        )
    norms = _row_norms(gamma_prefix.array)
    if np.any(np.diff(norms) >= 0.0):
        raise ValueError("prefix norms must strictly decrease toward the puncture")
    n = gamma_prefix.ambient.n
    est = bilipschitz_estimate(
        candidate_phi, radius=float(norms[-1]), samples=samples, seed=seed, n=n
    )
    start = max(1, math.ceil(1.0 / est.c1 - 1e-12))
    count = len(gamma_prefix)
    zeta = tuple(float((k + 1) / norms[k - 1]) for k in range(1, count + 1))
    tau = tuple(
        exhaust_eval(PUNCTURED_TAU, img, gamma_prefix.ambient)
        for img in candidate_phi.apply_batch(gamma_prefix.array)
    )
    if count < start:
        raise InconclusivePrefix(
            f"prefix of length {count} never reaches index {start} = ceil(1/C1)"
        )
    for k in range(start, count + 1):
        if tau[k - 1] < zeta[k - 1]:
            return NoThresholdReport(k, est.c1, zeta, tau)
    raise InconclusivePrefix(
        f"no failure up to index {count}; extend the prefix past {start}"
    )
