"""Shipped example families.

Each generator returns a DiscreteSequence whose metadata carries exactly
the declarations the checks know how to read: ratio divergence for the
well-placed family, norm growth for the power family, boundary escape
for the disc-base family.  Parameters are validated here so the command
line can map failures to BadParams uniformly.
"""

from __future__ import annotations

import inspect

import numpy as np

from .core import (
    DiscreteSequence,
    GeneratorInfo,
    cn,
    disc_plane,
    punctured_cn,
    sln,
)
from .errors import BadParams, UnknownFamily
from .sl2_special import GaussianIntegerParams, _ring, gaussian_sl2_generate

# Largest index before the computed corner entry (1 + k^(2p)) / k^4 drifts
# the determinant past the ambient tolerance of 1e-9.
_WELLPLACED_CAP = {1: 40, 2: 40, 3: 12}

_DISC_MODES = ("boundary", "constant", "interior")

# Largest k with 1 - 2^-k < 1.0 in double precision (53-bit significand).
_BOUNDARY_CAP = 53


def _count(value, low: int, high: int, what: str) -> int:
    k = int(value)
    if k != value or not low <= k <= high:
        raise BadParams(f"{what} must be an integer in [{low}, {high}], got {value!r}")
    return k


def wellplaced2(count: int = 30, exponent: int = 2) -> DiscreteSequence:
    """The symmetric quartic family [[k^4, k^p], [k^p, (1+k^(2p))/k^4]].

    Determinants are one by construction and every ratio family grows
    like a positive power of k, so the prefix is well-placed with
    genuinely divergent ratios; the metadata declares that divergence.
    """
    if exponent not in _WELLPLACED_CAP:
        raise BadParams(f"exponent must be one of {sorted(_WELLPLACED_CAP)}")
    k = _count(count, 2, _WELLPLACED_CAP[exponent], "count")
    points = []
    for j in range(1, k + 1):
        a = float(j) ** 4
        b = float(j) ** exponent
        points.append(np.array([[a, b], [b, (1.0 + b * b) / a]], dtype=np.complex128))
    info = GeneratorInfo.of(
        "wellplaced2", count=k, exponent=exponent, ratio_divergence=True
    )
    return DiscreteSequence(sln(2), tuple(points), info)


def diagtorus(count: int = 8, ratio: float = 2.0) -> DiscreteSequence:
    """Diagonal matrices diag(ratio^k, ratio^-k) for k = 1..count."""
    r = float(ratio)
    if not np.isfinite(r) or r <= 1.0:
        raise BadParams(f"ratio must exceed 1, got {ratio!r}")
    k = _count(count, 1, 1000, "count")
    if k * np.log10(r) > 100.0:
        raise BadParams("ratio^count overflows the ambient range")
    points = tuple(
        np.diag([r**j, r**-j]).astype(np.complex128) for j in range(1, k + 1)
    )
    return DiscreteSequence(
        sln(2), points, GeneratorInfo.of("diagtorus", count=k, ratio=r)
    )


def sl2_gauss(field: str = "qi", height: int = 1) -> DiscreteSequence:
    """Exact enumeration of small-height matrices over a quadratic ring,
    named by its tag or its alias (`sl2_special._RINGS`)."""
    ring = _ring(str(field), aliases=True)
    params = GaussianIntegerParams(ring.tag, int(height))  # a height of at least 1
    _count(height, 1, ring.cap, "height")
    return gaussian_sl2_generate(params)


def cn_powers(n: int = 2, alpha: float = 1.0, count: int = 100) -> DiscreteSequence:
    """Points (k^alpha, 0, ..., 0) with their norm growth declared."""
    dim = _count(n, 1, 64, "n")
    a = float(alpha)
    if not np.isfinite(a) or a <= 0:
        raise BadParams(f"alpha must be positive, got {alpha!r}")
    k = _count(count, 1, 10**7, "count")
    try:
        float(k) ** a  # the largest coordinate; the float power raises past the range
    except OverflowError:
        raise BadParams(f"alpha {a!r} takes k^alpha past the float range at k = {k}") from None
    points = np.zeros((k, dim), dtype=np.complex128)
    # Python's float power, so every coordinate rounds as it always has
    points[:, 0] = [float(j) ** a for j in range(1, k + 1)]
    info = GeneratorInfo.of(
        "cn-powers",
        alpha=a,
        count=k,
        norm_growth_alpha=a,
        norm_growth_c=1.0,
    )
    return DiscreteSequence(cn(dim), points, info)


def punctured_accumulate(n: int = 2, count: int = 40) -> DiscreteSequence:
    """Points (2^-k, 0, ..., 0) marching into the puncture."""
    dim = _count(n, 1, 64, "n")
    k = _count(count, 1, 1000, "count")
    points = []
    for j in range(1, k + 1):
        v = np.zeros(dim, dtype=np.complex128)
        v[0] = 2.0 ** float(-j)
        points.append(v)
    info = GeneratorInfo.of("punctured-accumulate", count=k)
    return DiscreteSequence(punctured_cn(dim), tuple(points), info)


def discplane_base(mode: str = "boundary", count: int = 40) -> DiscreteSequence:
    """Disc-plane families distinguished by where the base points head.

    boundary: |z_k| = 1 - 2^-k climbs monotonically to the circle and the
    metadata declares the escape; k stops at 53, past which the base
    rounds onto the circle.  constant: every point shares one base.
    interior: the bases pile up at an interior point.
    """
    if mode not in _DISC_MODES:
        raise BadParams(f"mode must be one of {_DISC_MODES}, got {mode!r}")
    k = _count(count, 1, 1000, "count")
    if mode == "boundary" and k > _BOUNDARY_CAP:
        raise BadParams(
            f"boundary mode supports at most {_BOUNDARY_CAP} points: from k = "
            f"{_BOUNDARY_CAP + 1} on, 1 - 2^-k rounds to 1.0, which is not inside "
            f"the unit disc; got {k}"
        )
    points = []
    for j in range(1, k + 1):
        if mode == "boundary":
            z = 1.0 - 2.0 ** float(-j)
        elif mode == "constant":
            z = 0.5
        else:
            z = 0.3 + 2.0 ** float(-j)
        points.append(np.array([z, float(j)], dtype=np.complex128))
    params = {"count": k, "mode": mode}
    if mode == "boundary":
        params["boundary_escape"] = True
    info = GeneratorInfo.of("discplane-base", **params)
    return DiscreteSequence(disc_plane(), tuple(points), info)


FAMILIES = {
    "wellplaced2": wellplaced2,
    "diagtorus": diagtorus,
    "sl2-gauss": sl2_gauss,
    "cn-powers": cn_powers,
    "punctured-accumulate": punctured_accumulate,
    "discplane-base": discplane_base,
}


def generate(family: str, **params) -> DiscreteSequence:
    """Dispatch by family name; unknown names and parameters are errors."""
    fn = FAMILIES.get(family)
    if fn is None:
        known = ", ".join(sorted(FAMILIES))
        raise UnknownFamily(f"unknown family {family!r}; known: {known}")
    allowed = set(inspect.signature(fn).parameters)
    extra = set(params) - allowed
    if extra:
        raise BadParams(
            f"family {family!r} does not take {sorted(extra)}; "
            f"allowed: {sorted(allowed)}"
        )
    return fn(**params)
