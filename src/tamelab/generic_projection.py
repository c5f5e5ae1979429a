"""Seeded Monte-Carlo estimates for torus projections of 2x2 matrices.

The compact group SU(n) is sampled through a counter-addressed Haar
sampler: every draw is a pure function of (n, seed, draw index), so a
batch partitioned across workers reproduces the single-worker stream
bit for bit. The estimators read the stream in blocks of at most
`_DRAW_BLOCK` draws, so their memory does not grow with the sample
count and their results are those of one whole window. On top of the
sampler sit estimators for how often a
twisted torus projection of a matrix stays inside a small ball:

  * `InvariantEmbedding` maps g = [[a, c], [b, d]] to the right-torus
    invariant tuple (ac, ad, bc, bd), the coordinate chart of the
    quotient by diag(t, 1/t).
  * `measure_estimate` samples the tail event "the embedded image of
    the moved matrix has norm below r". The shipped way of moving a
    matrix is conjugation, which twists the torus being quotiented by;
    left translation is kept as a configuration value but its tuple
    norm is unitarily invariant, so translation estimates are exact
    indicator functions of the input alone.
  * `g_estimate` takes the upper envelope over seeded unit-sphere
    probes, `threshold_estimate` binary-searches the radii at which
    the tail mass drops below the budget 2^-(n+1), and `omega_check`
    measures how often a sampled twist keeps a finite prefix proper
    and collision-free away from the center.

A norm floor worth knowing about: for any matrix the tuple norm equals
the product of the two column norms, which dominates |det|. Moving a
determinant-one matrix by unitaries on either side cannot push the
embedded image below norm one, so tail radii at or under one have
exactly zero mass on the group itself. Decay is visible above the
floor, and for off-group points of large entry norm.

The same identity makes the conjugation tail cheap. k^H is unitary, so
the norm of k^H v k is |v k e1| |v k e2|, and the closed-form draw has
k e1 = s g and k e2 = conj(s) J conj(g), where g = (g00, g10) is the
first column of its Ginibre matrix, J conj(g) = (-conj(g10), conj(g00))
and |s| = 1/|g|. The norm is |v g| |v J conj(g)| / |g|^2: a function of
|g00|, |g10| and their relative phase alone, so the estimators that
conjugate a 2 by 2 probe read those three numbers per draw
(`_column_blocks`) and never build k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    MAX_FIBER,
    MIN_GAP,
    DiscreteSequence,
    _window_pairs,
    properness_check,
    sln,
)
from .errors import (
    AmbientMismatch,
    BadParams,
    DimensionMismatch,
    InconclusivePrefix,
    SearchExhausted,
    ZeroVector,
)
from .rng import stream

UNITARY_TOL = 1e-10
CENTRAL_RATIO_TOL = 1e-8
RADIUS_CAP = 1e12
MAX_PROBES = 1 << 20
SEARCH_REL_TOL = 1e-2

ACTIONS = ("conjugation", "translation")

_MASK64 = (1 << 64) - 1
_INV53 = float(2.0**-53)
# Most draws an estimator holds at once; bounds its memory at any --samples.
_DRAW_BLOCK = 4096


@dataclass(frozen=True)
class HaarSampler:
    """Addressable source of Haar-distributed SU(n) matrices.

    The draw at index `counter` depends only on (n, seed, counter):
    the raw Philox stream for key (seed, n) is cut into fixed-size
    blocks, one block window per draw, so any batch decomposition
    yields the identical matrices.
    """

    n: int
    seed: int
    counter: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        if self.counter < 0:
            raise ValueError("draw index must be nonnegative")

    @property
    def _blocks_per_draw(self) -> int:
        # 2 n^2 uniforms feed n^2 complex gaussians; Philox emits 4
        # raw words per 128-bit counter step.
        return (2 * self.n * self.n + 3) // 4

    def advanced(self, draws: int) -> "HaarSampler":
        return replace(self, counter=self.counter + int(draws))

    def raw_uniforms(self, count: int) -> np.ndarray:
        """Rows of 2 n^2 uniforms in [0, 1), one row per draw."""
        bpd = self._blocks_per_draw
        key = np.array([self.seed & _MASK64, self.n], dtype=np.uint64)
        start = self.counter * bpd
        bits = np.random.Philox(
            key=key, counter=[start & _MASK64, start >> 64, 0, 0]
        ).random_raw(count * bpd * 4)
        words = bits.reshape(count, bpd * 4)[:, : 2 * self.n * self.n]
        return (words >> np.uint64(11)).astype(np.float64) * _INV53


def haar_su_batch(sampler: HaarSampler, count: int) -> np.ndarray:
    """Stack of `count` consecutive draws starting at sampler.counter.

    Each draw is the unitary QR factor of a complex Ginibre matrix,
    with the phases of R's diagonal moved into Q and the determinant
    scaled to one (Mezzadri, Notices AMS 54, 2007). For n = 2 that
    factor has a closed form, evaluated entrywise without LAPACK.
    """
    if count < 1:
        raise ValueError("batch needs at least one draw")
    n = sampler.n
    u = sampler.raw_uniforms(count)
    ginibre = np.sqrt(-np.log1p(-u[:, : n * n])) * np.exp(2j * math.pi * u[:, n * n :])
    if n == 2:
        return _su2_closed_form(ginibre)
    q, r = np.linalg.qr(ginibre.reshape(count, n, n))
    diag = np.diagonal(r, axis1=1, axis2=2)
    mags = np.abs(diag)
    phases = np.where(mags > 0.0, diag / np.where(mags > 0.0, mags, 1.0), 1.0)
    q = q * phases[:, None, :]
    det = np.linalg.det(q)
    fix = np.exp(-1j * np.angle(det) / n) / np.abs(det) ** (1.0 / n)
    return q * fix[:, None, None]


def _su2_closed_form(ginibre: np.ndarray) -> np.ndarray:
    """The n = 2 draws from rows (g00, g01, g10, g11) of Ginibre entries.

    The phase-fixed QR factor of G has first column (g00, g10) / norm and
    second column det(G)/|det(G)| times (-conj(g10), conj(g00)) / norm.
    Dividing by a square root of that phase gives [[a, -conj(b)], [b,
    conj(a)]]. A root on the other side of the branch cut gives -U, which
    is the same twist: every conjugation by it is bit for bit the same.
    """
    g00, g01, g10, g11 = ginibre.T
    norm = np.sqrt(g00.real**2 + g00.imag**2 + g10.real**2 + g10.imag**2)
    scale = np.exp(-0.5j * np.angle(g00 * g11 - g01 * g10)) / norm
    a, b = g00 * scale, g10 * scale
    out = np.empty((len(ginibre), 2, 2), dtype=np.complex128)
    out[:, 0, 0], out[:, 0, 1] = a, -b.conj()
    out[:, 1, 0], out[:, 1, 1] = b, a.conj()
    return out


def haar_su(sampler: HaarSampler) -> np.ndarray:
    """The single SU(n) draw at the sampler's current index."""
    return haar_su_batch(sampler, 1)[0]


def _draw_blocks(sampler: HaarSampler, count: int, block: int | None = None):
    """The draws of `haar_su_batch(sampler, count)`, as the stacks of its
    consecutive windows of at most `block` draws (`_DRAW_BLOCK` by default).

    Every draw is addressed by its counter, so the stacks joined are the
    whole window bit for bit.
    """
    block = block or _DRAW_BLOCK
    for start in range(0, count, block):
        yield haar_su_batch(sampler.advanced(start), min(block, count - start))


def _column_blocks(sampler: HaarSampler, count: int):
    """(k, 2) stacks g, one per window of `_draw_blocks(sampler, count)`,
    each row the first Ginibre column (g00, g10) of that draw times
    exp(-i arg g00): g00 real, g10 carrying the relative phase.

    The moduli and phases come from the same counter-addressed uniforms
    as `haar_su_batch`'s g00 and g10, and a common phase leaves
    `_conjugation_norms` unchanged.
    """
    for start in range(0, count, _DRAW_BLOCK):
        u = sampler.advanced(start).raw_uniforms(min(_DRAW_BLOCK, count - start))
        moduli = np.sqrt(-np.log1p(-u[:, 0:4:2]))
        g = moduli.astype(np.complex128)
        g[:, 1] *= np.exp(2j * math.pi * (u[:, 6] - u[:, 4]))
        yield g


@dataclass(frozen=True)
class InvariantEmbedding:
    """Chart g = [[a, c], [b, d]] -> (ac, ad, bc, bd) of the torus quotient.

    Rescaling the columns by (t, 1/t) leaves every product unchanged,
    and ad - bc recovers the determinant, so the tuple separates right
    cosets of the diagonal torus.
    """

    n: int = 2

    def __post_init__(self):
        if self.n != 2:
            raise AmbientMismatch(
                "the invariant tuple chart exists for 2 by 2 matrices only"
            )

    def embed_batch(self, ms: np.ndarray) -> np.ndarray:
        ms = np.asarray(ms, dtype=np.complex128)
        a, c = ms[..., 0, 0], ms[..., 0, 1]
        b, d = ms[..., 1, 0], ms[..., 1, 1]
        return np.stack([a * c, a * d, b * c, b * d], axis=-1)


@dataclass(frozen=True)
class MCEstimate:
    """A proportion estimate with its binomial standard error."""

    estimate: float
    stderr: float
    samples: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.estimate <= 1.0:
            raise ValueError("a proportion lives in [0, 1]")
        if self.samples < 1:
            raise ValueError("an estimate needs at least one sample")
        if self.stderr < 0.0:
            raise ValueError("standard error cannot be negative")

    @classmethod
    def from_hits(cls, hits: int, samples: int, seed: int) -> "MCEstimate":
        p = hits / samples
        return cls(p, math.sqrt(p * (1.0 - p) / samples), samples, seed)

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "samples": self.samples,
            "seed": self.seed,
        }


def _conjugate(ks: np.ndarray, v: np.ndarray) -> np.ndarray:
    """k^H v k as explicit 2 by 2 products, broadcast over the leading
    axes of the stacks ks and v."""
    k00, k01, k10, k11 = ks[..., 0, 0], ks[..., 0, 1], ks[..., 1, 0], ks[..., 1, 1]
    v00, v01, v10, v11 = v[..., 0, 0], v[..., 0, 1], v[..., 1, 0], v[..., 1, 1]
    w00, w01 = v00 * k00 + v01 * k10, v00 * k01 + v01 * k11
    w10, w11 = v10 * k00 + v11 * k10, v10 * k01 + v11 * k11
    h00, h01, h10, h11 = k00.conj(), k01.conj(), k10.conj(), k11.conj()
    out = np.empty((*w00.shape, 2, 2), dtype=np.complex128)
    out[..., 0, 0], out[..., 0, 1] = h00 * w00 + h10 * w10, h00 * w01 + h10 * w11
    out[..., 1, 0], out[..., 1, 1] = h01 * w00 + h11 * w10, h01 * w01 + h11 * w11
    return out


def _probe(v) -> np.ndarray:
    """A nonzero 2 by 2 matrix or length-4 tuple, as a complex array."""
    v = np.asarray(v, dtype=np.complex128)
    if not np.any(v):
        raise ZeroVector("the probe must be nonzero")
    if v.shape not in ((2, 2), (4,)):
        raise DimensionMismatch(
            f"expected a 2 by 2 matrix or a length-4 tuple, got shape {v.shape}"
        )
    return v


def _conjugation_norms(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Norms of embed(k^H v k) for the 2 by 2 probe v, one per row g of a
    (k, 2) stack, k the SU(2) draw whose first column is g/|g| up to a
    phase: |v g| |v J conj(g)| / |g|^2 (see the module docstring)."""
    g0, g1 = g[:, 0], g[:, 1]
    c0, c1 = g0.conj(), g1.conj()
    with np.errstate(under="ignore"):  # see `_scaled_probe`
        a0, a1 = v[0, 0] * g0 + v[0, 1] * g1, v[1, 0] * g0 + v[1, 1] * g1
        b0, b1 = v[0, 1] * c0 - v[0, 0] * c1, v[1, 1] * c0 - v[1, 0] * c1
        n1 = a0.real**2 + a0.imag**2 + a1.real**2 + a1.imag**2
        n2 = b0.real**2 + b0.imag**2 + b1.real**2 + b1.imag**2
    # two roots, not one of the product: n1 * n2 overflows first
    return np.sqrt(n1) * np.sqrt(n2) / (g0.real**2 + g0.imag**2 + g1.real**2 + g1.imag**2)


def _tail_norms(v: np.ndarray, ks: np.ndarray, action: str) -> np.ndarray:
    """Embedded-image norms of the moved probe, one per twist in ks, for a
    2 by 2 probe under translation or a tuple under either action (a 2 by
    2 probe under conjugation goes through `_conjugation_norms`)."""
    if v.shape == (2, 2):
        return np.linalg.norm(InvariantEmbedding().embed_batch(ks @ v), axis=-1)
    # A tuple-space point carries no matrix to conjugate, so the twist
    # acts linearly on the tuple arranged as a 2 by 2 array. Both
    # arrangements are isometries; the estimate degenerates to an
    # indicator of the input norm, which is exactly what makes the
    # event-inclusion inequality sharp here.
    w = v.reshape(2, 2)
    if action == "conjugation":
        moved = _conjugate(ks, w)
    else:
        moved = np.einsum("kij,jl,kml->kim", ks, w, ks)
    return np.linalg.norm(moved.reshape(len(ks), 4), axis=-1)


def measure_estimates(
    vs,
    r: float,
    samples: int,
    sampler: HaarSampler,
    action: str = "conjugation",
) -> list[MCEstimate]:
    """`measure_estimate` for each input, all against one draw window.

    The window streams in blocks of at most `_DRAW_BLOCK` draws, and
    every input is counted against each block before the next is drawn:
    memory stays flat in `samples`, and each estimate equals its
    single-input call and the count over the whole window at once. A 2
    by 2 input under conjugation is counted on the first columns of the
    draws (`_column_blocks`), any other on the twists themselves.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if action not in ACTIONS:
        raise ValueError(f"unknown action {action!r}; choose from {ACTIONS}")
    if sampler.n != 2:
        raise AmbientMismatch("tail estimates run over SU(2) twists")
    probes = [_probe(v) for v in vs]
    r = float(r)
    hits = [0] * len(probes)
    # a 2 by 2 probe under conjugation reads first columns, the rest twists
    columns = [i for i, v in enumerate(probes) if v.shape == (2, 2) and action == "conjugation"]
    twisted = [i for i in range(len(probes)) if i not in columns]
    scaled = {i: _scaled_probe(probes[i], r) for i in columns}
    column_blocks = _column_blocks(sampler, samples)
    twist_blocks = _draw_blocks(sampler, samples)
    for _ in range(0, samples, _DRAW_BLOCK):
        if columns:
            g = next(column_blocks)
            for i in columns:
                w, radius = scaled[i]
                hits[i] += int(np.count_nonzero(_conjugation_norms(w, g) < radius))
        if twisted:
            ks = next(twist_blocks)
            for i in twisted:
                hits[i] += int(np.count_nonzero(_tail_norms(probes[i], ks, action) < r))
    return [MCEstimate.from_hits(h, samples, sampler.seed) for h in hits]


def _scaled_probe(v: np.ndarray, r: float) -> tuple[np.ndarray, float]:
    """(w, radius): the 2 by 2 probe v and the radius r scaled by 2^-e and
    4^-e, with e >= 0 the least that leaves every entry of w below one in
    modulus.

    The conjugation norm has degree two in the probe, and scaling by a
    power of two rounds nothing until a value turns subnormal, so the
    norm of w is below radius exactly when that of v is below r wherever
    the latter is finite; the norms of w stay finite for every probe of
    finite norm. Entries of w far below its largest may round to
    subnormals or zero; in the norms their squares are below the
    rounding of the sum either way.
    """
    shift = max(0, math.frexp(float(np.max(np.abs(v))))[1])
    with np.errstate(under="ignore"):
        return v * 2.0**-shift, math.ldexp(r, -2 * shift)


def measure_estimate(
    v,
    r: float,
    samples: int,
    sampler: HaarSampler,
    action: str = "conjugation",
) -> MCEstimate:
    """Proportion of sampled twists with embedded-image norm below r.

    The input is either a 2 by 2 matrix (entry space) or a length-4
    embedded tuple. With the conjugation action the event reads "the
    projection of v to the quotient by the k-twisted torus lands in
    the r-ball"; its probability decays as the input norm grows. The
    events for growing r nest on a shared sampler, so estimates are
    exactly nondecreasing in r.
    """
    return measure_estimates([v], r, samples, sampler, action)[0]


MC_CSV_COLUMNS = ("action", "v_norm", "r", "samples", "seed", "estimate", "stderr")


def mc_report_row(action: str, v, r: float, est: MCEstimate) -> dict:
    """One report row per estimate, keyed exactly by MC_CSV_COLUMNS."""
    if action not in ACTIONS:
        raise ValueError(f"unknown action {action!r}; choose from {ACTIONS}")
    flat = np.asarray(v, dtype=np.complex128).reshape(-1)
    with np.errstate(under="ignore"):  # the square of 1/R for R near 1e154
        v_norm = float(np.linalg.norm(flat))
    return {
        "action": action,
        "v_norm": v_norm,
        "r": float(r),
        "samples": est.samples,
        "seed": est.seed,
        "estimate": est.estimate,
        "stderr": est.stderr,
    }


def _unit_probes(seed: int, count: int) -> np.ndarray:
    """Seeded unit-norm probe matrices, stacked (count, 2, 2). They are
    drawn at once, so a count above `MAX_PROBES` (64 MiB of probes) is
    refused before any draw."""
    if count < 1:
        raise BadParams("need at least one probe")
    if count > MAX_PROBES:
        raise BadParams(f"{count} probes exceed the cap of {MAX_PROBES}")
    rng = stream(seed, "unit-probes")
    flat = rng.standard_normal((count, 4)) + 1j * rng.standard_normal((count, 4))
    flat /= np.linalg.norm(flat, axis=1, keepdims=True)
    return flat.reshape(count, 2, 2)


def g_estimate(
    r: float,
    sphere_probes: int,
    samples_per_probe: int,
    sampler: HaarSampler,
    action: str = "conjugation",
) -> MCEstimate:
    """Upper envelope of the tail estimate over seeded unit probes.

    Every probe owns a disjoint draw window of the sampler, so repeat
    calls with the same seed share both the probes and the twists;
    the envelope is therefore exactly nondecreasing in r.
    """
    if r <= 0.0:
        raise BadParams("the ball radius must be positive")
    probes = _unit_probes(sampler.seed, sphere_probes)
    best: MCEstimate | None = None
    for j in range(sphere_probes):
        window = sampler.advanced(j * samples_per_probe)
        est = measure_estimate(probes[j], r, samples_per_probe, window, action)
        if best is None or est.estimate > best.estimate:
            best = est
    return best


@dataclass(frozen=True)
class ThresholdEstimate:
    """Estimated escape radii, one per tail-budget level 2^-(n+1)."""

    rhat: tuple[float, ...]
    delta: tuple[float, ...]
    samples_per_level: int
    sphere_probes: int
    seed: int = 0

    def __post_init__(self):
        if len(self.rhat) != len(self.delta):
            raise ValueError("one budget per radius")
        if len(self.rhat) == 0:
            raise ValueError("at least one level")
        if any(r <= 0.0 for r in self.rhat):
            raise ValueError("radii are positive")
        if list(self.rhat) != sorted(self.rhat):
            raise ValueError("radii are nondecreasing")

    def __len__(self) -> int:
        return len(self.rhat)

    def to_json(self) -> dict:
        return {
            "R": list(self.rhat),
            "delta": list(self.delta),
            "config": {
                "samples_per_level": self.samples_per_level,
                "sphere_probes": self.sphere_probes,
                "seed": self.seed,
            },
        }


def threshold_estimate(
    levels: int,
    *,
    samples_per_level: int = 2000,
    sphere_probes: int = 8,
    seed: int = 0,
) -> ThresholdEstimate:
    """Smallest radii whose guarded tail mass clears each level budget.

    Level n targets the budget 2^-(n+1) for the event "the embedded
    image of the conjugated sphere-R probe has norm below n". Scaling
    the probe only rescales precomputed unit-probe norms by R^2, so
    the per-probe estimate is exactly nonincreasing in R on the fixed
    draw window and the accepted region is an up-set; bisection to 1%
    relative width returns its accepting endpoint. The guard adds
    three standard errors before comparing against the budget, and
    the returned radii are cumulative maxima.
    """
    if levels < 1:
        raise BadParams("need at least one level")
    if samples_per_level < 1:
        raise BadParams("need at least one sample per level")
    probes = _unit_probes(seed, sphere_probes)
    base = HaarSampler(2, seed)
    radii: list[float] = []
    deltas: list[float] = []
    m = samples_per_level
    for level in range(1, levels + 1):
        unit_norms = []
        for j in range(sphere_probes):
            offset = ((level - 1) * sphere_probes + j) * m
            unit_norms.append(np.concatenate([
                _conjugation_norms(probes[j], g)
                for g in _column_blocks(base.advanced(offset), m)
            ]))
        budget = 2.0 ** -(level + 1)

        def clears(radius: float) -> bool:
            worst = 0.0
            for norms in unit_norms:
                p = np.count_nonzero(radius * radius * norms < level) / m
                worst = max(worst, p + 3.0 * math.sqrt(p * (1.0 - p) / m))
            return worst < budget

        lo, hi = 0.0, 1.0
        while not clears(hi):
            lo = hi
            hi *= 2.0
            if hi > RADIUS_CAP:
                raise SearchExhausted(
                    f"no radius below {RADIUS_CAP:g} meets the level-{level} "
                    "tail budget"
                )
        while hi - lo > SEARCH_REL_TOL * hi:
            mid = 0.5 * (lo + hi)
            if clears(mid):
                hi = mid
            else:
                lo = mid
        radii.append(hi if not radii else max(hi, radii[-1]))
        deltas.append(budget)
    return ThresholdEstimate(
        tuple(radii), tuple(deltas), samples_per_level, sphere_probes, seed
    )


@dataclass(frozen=True)
class OmegaReport:
    """Pass fraction of sampled twists, with per-failure diagnostics."""

    fraction: float
    samples: int
    seed: int
    failures: tuple[tuple[int, str], ...] = ()

    def to_json(self) -> dict:
        return {
            "fraction": self.fraction,
            "samples": self.samples,
            "seed": self.seed,
            "failures": [[i, reason] for i, reason in self.failures],
        }


def _central_ratios(points: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Whether x_i^(-1) x_j lies in the center {I, -I}, for each pair (i, j)."""
    p = points[rows]
    adj = np.empty_like(p)
    adj[:, 0, 0], adj[:, 0, 1] = p[:, 1, 1], -p[:, 0, 1]
    adj[:, 1, 0], adj[:, 1, 1] = -p[:, 1, 0], p[:, 0, 0]
    ratios = adj @ points[cols]
    eye = np.eye(2)
    plus = np.max(np.abs(ratios - eye), axis=(1, 2))
    minus = np.max(np.abs(ratios + eye), axis=(1, 2))
    return np.minimum(plus, minus) <= CENTRAL_RATIO_TOL


def _find(parent: list[int], x: int) -> int:
    """Root of x in a union-find forest, halving its path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _gap_window(min_gap: float) -> float:
    """A bound on every real-coordinate difference of two images whose
    gap, as `np.linalg.norm` computes it, is below min_gap.

    The gap is the rounded root of a sum of eight squares of those
    differences, each square at most the sum, so the relative slack
    covers a few roundings; the absolute one covers squares that
    underflow to zero.
    """
    return min_gap * (1.0 + 1e-9) + 1e-150


def _maybe_close_samples(images: np.ndarray, min_gap: float) -> np.ndarray:
    """A superset of the samples of a (k, m, 4) image stack holding two
    images closer than min_gap.

    Two images that close are within `_gap_window` in every real
    coordinate, so some neighbours of the sorted coordinate of widest
    spread are too. Samples with a non-finite image are always kept.
    """
    flat = images.view(np.float64)
    finite = np.isfinite(flat).all(axis=(1, 2))
    spread = np.where(finite[:, None], np.ptp(flat, axis=1), 0.0)
    coord = np.argmax(spread, axis=1)
    x = np.sort(np.take_along_axis(flat, coord[:, None, None], axis=2)[:, :, 0], axis=1)
    near = np.diff(x, axis=1) <= _gap_window(min_gap)
    return np.flatnonzero(near.any(axis=1) | ~finite)


def _close_pairs(img: np.ndarray, min_gap: float):
    """Blocks (rows, cols, gaps) of the pairs i < j of one sample's (m, 4)
    images whose gap is not at least min_gap, in lexicographic order.

    Candidates come from `_window_pairs` on the real coordinate of widest
    spread, within `_gap_window`; the gap of each candidate, taken as
    `np.linalg.norm(img[i] - img[j])`, decides, a NaN gap counting as close.
    """
    flat = img.view(np.float64)
    x = flat[:, np.argmax(np.ptp(flat, axis=0))]  # non-finite if any entry is
    # the slack on |x| covers the rounding of x -/+ half
    half = _gap_window(min_gap) + 4.0 * np.finfo(float).eps * np.abs(x)
    for rows, cols in _window_pairs(x, half):
        gaps = np.linalg.norm(img[rows] - img[cols], axis=-1)
        close = ~(gaps >= min_gap)
        if close.any():
            yield rows[close], cols[close], gaps[close]


def omega_check(
    d: DiscreteSequence,
    k_samples: int,
    sampler: HaarSampler,
    *,
    min_gap: float = MIN_GAP,
    max_fiber: int = MAX_FIBER,
) -> OmegaReport:
    """Fraction of sampled twists that keep the prefix proper.

    For each sampled k the prefix is conjugated by k and pushed through
    the invariant chart, realizing the projection along the k-twisted
    torus. A twist passes when the images are proper at prefix scale
    and any image collision comes from a central ratio; a pair whose
    ratio is central always collides, since negating a matrix leaves
    every entry product unchanged.

    Twists stream in blocks of `_DRAW_BLOCK // m` (at least one), so the
    image table holds about `_DRAW_BLOCK` images whatever `k_samples` is,
    and the report is the one of the whole window at once.
    """
    if d.ambient != sln(2):
        raise AmbientMismatch("the omega fraction runs over SL2 prefixes")
    if len(d) == 0:
        raise InconclusivePrefix("the omega fraction needs a nonempty prefix")
    if k_samples < 1:
        raise ValueError("need at least one sampled twist")
    points = d.array
    m = len(points)
    chart = InvariantEmbedding()
    block = max(1, _DRAW_BLOCK // m)
    failures: list[tuple[int, str]] = []
    start = 0
    for ks in _draw_blocks(sampler, k_samples, block):
        images = chart.embed_batch(_conjugate(ks[:, None], points[None]))
        for t, reason in _twist_failures(images, points, min_gap, max_fiber):
            failures.append((start + t, reason))
        start += len(ks)
    fraction = 1.0 - len(failures) / k_samples
    return OmegaReport(fraction, k_samples, sampler.seed, tuple(failures))


def _twist_failures(images: np.ndarray, points: np.ndarray, min_gap: float, max_fiber: int):
    """(t, reason) for each sample t of a (k, m, 4) image stack whose
    twist breaks properness or collides two points of non-central ratio."""
    m = len(points)
    for t in _maybe_close_samples(images, min_gap):
        if not any((gaps < min_gap).any() for _, _, gaps in _close_pairs(images[t], min_gap)):
            continue
        reason = None
        # union-find: each merge files j's class under the root of i's
        parent = list(range(m))
        for rows, cols, _ in _close_pairs(images[t], min_gap):
            central = _central_ratios(points, rows, cols)
            if not central.all():
                bad = np.argmin(central)
                i, j = rows[bad], cols[bad]
                reason = f"images {i} and {j} collide but the point ratio is not central"
                break
            for i, j in zip(rows.tolist(), cols.tolist()):
                parent[_find(parent, j)] = _find(parent, i)
        if reason is None:
            classes: dict[int, list[int]] = {}
            for i in range(m):
                classes.setdefault(_find(parent, i), []).append(i)
            verdict = properness_check(
                images[t],
                min_gap=min_gap,
                max_fiber=max_fiber,
                fiber_keys=classes,
            )
            if verdict.is_violated:
                reason = verdict.detail
        if reason is not None:
            yield int(t), reason
