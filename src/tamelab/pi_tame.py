"""Properness through a projection, and the fiberwise push automorphism.

A discrete set upstairs may look wild, yet project to something discrete
with bounded fibers.  When that happens, moving each point along its
fiber by a group element chosen from the projected position yields an
automorphism x -> x * F(project(x)) that raises heights at will.  This
module builds exactly that map for the first-column fibration of the
unimodular group, where the fiber group Q is block triangular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cn_tame import LagrangePoly, Polynomial, interpolate_nodes
from .core import (
    DET_TOL,
    DISTINCT_TOL,
    MAX_FIBER,
    MIN_GAP,
    AmbientSpace,
    Automorphism,
    DiscreteSequence,
    HeightAssignment,
    Verdict,
    _check_rows,
    _pair,
    _row_norms,
    falls_short,
    first_close_pair,
    properness_check,
    sl_matrix,
    sln,
)
from .errors import (
    AmbientMismatch,
    DegenerateConfiguration,
    FiberCollision,
    InterpolationIllConditioned,
    NotSameFiber,
    SearchExhausted,
)
from .rng import stream

FIRST_COLUMN = "first-column"

Q_COLUMN_TOL = 1e-10
FIBER_MATCH_TOL = 1e-9
_SEARCH_CAP = 2**60
_NEWTON_NODE_LIMIT = 40


@dataclass(frozen=True)
class BundleSpec:
    """The first-column projection out of the matrix ambient."""

    total: AmbientSpace

    def __post_init__(self):
        if self.total.kind != "sln":
            raise AmbientMismatch("bundle projections live over the matrix ambient")

    @property
    def n(self) -> int:
        return self.total.n


def first_column(n: int) -> BundleSpec:
    return BundleSpec(sln(n))


@dataclass(frozen=True)
class QElement:
    """Unimodular matrix stabilizing e1: first column exactly e1, top row
    free, lower-right block in the smaller unimodular group."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        a = sl_matrix(self.entries)
        if a.shape[0] != self.n:
            raise AmbientMismatch(f"expected {self.n}x{self.n} entries")
        e1 = np.zeros(self.n, dtype=np.complex128)
        e1[0] = 1.0
        if float(np.max(np.abs(a[:, 0] - e1))) > Q_COLUMN_TOL:
            raise NotSameFiber("first column must be e1")
        object.__setattr__(self, "entries", a)

    @classmethod
    def from_blocks(cls, r: np.ndarray, lower: np.ndarray) -> "QElement":
        """[[1, r], [0, lower]].  Its first column is e1 by construction,
        so only its finiteness and determinant are checked."""
        r = np.atleast_1d(np.asarray(r, dtype=np.complex128))
        lower = np.asarray(lower, dtype=np.complex128)
        n = r.shape[0] + 1
        m = np.eye(n, dtype=np.complex128)
        m[0, 1:] = r
        m[1:, 1:] = lower
        _check_rows("sln", m[None], DET_TOL)
        q = object.__new__(cls)
        object.__setattr__(q, "n", n)
        object.__setattr__(q, "entries", m)
        return q

    @property
    def r_block(self) -> np.ndarray:
        return np.array(self.entries[0, 1:])

    @property
    def l_block(self) -> np.ndarray:
        return np.array(self.entries[1:, 1:])


def pi_tame_check(
    d: DiscreteSequence,
    b: BundleSpec,
    min_gap: float = MIN_GAP,
    max_fiber: int = MAX_FIBER,
) -> Verdict:
    """Discrete projected image with bounded fibers, at prefix scale."""
    if d.ambient.kind != "sln" or d.ambient.n != b.n:
        raise AmbientMismatch("sequence and bundle ambients disagree")
    return properness_check(d.array[:, :, 0], min_gap=min_gap, max_fiber=max_fiber)


def q_factor(a, b) -> QElement:
    """The fiber-group element carrying b to a when both sit over the same
    projected point: g = b^{-1} a, with the structural zeros of Q restored."""
    am = sl_matrix(a)
    bm = sl_matrix(b)
    if am.shape != bm.shape:
        raise AmbientMismatch("q_factor needs matrices of equal size")
    drift = float(np.max(np.abs(am[:, 0] - bm[:, 0])))
    if drift > FIBER_MATCH_TOL:
        raise NotSameFiber(f"first columns differ by {drift:.3g}")
    g = np.linalg.solve(bm, am)
    return QElement.from_blocks(g[0, 1:], g[1:, 1:])


def _principal_log(lower: np.ndarray) -> np.ndarray:
    """Principal matrix logarithm of a diagonalizable unimodular block;
    rejects defective inputs and branch mismatches (nonzero trace)."""
    if lower.shape == (1, 1):
        val = complex(np.log(lower[0, 0]))
        out = np.array([[val]])
    else:
        w, v = np.linalg.eig(lower)
        if np.any(w == 0) or np.linalg.cond(v) > 1e10:
            raise DegenerateConfiguration(
                "lower block is defective; no principal logarithm"
            )
        out = v @ np.diag(np.log(w)) @ np.linalg.inv(v)
    trace = complex(np.trace(out))
    if abs(trace) > 1e-8:
        raise DegenerateConfiguration(
            f"principal logarithm has trace {trace:.3g}; the block sits on "
            "a nonprincipal branch"
        )
    return out - np.eye(lower.shape[0]) * (trace / lower.shape[0])


def _matrix_exp(m: np.ndarray) -> np.ndarray:
    """Exponential of a square matrix, or of each matrix of a stack."""
    if m.shape[-2:] == (1, 1):
        return np.exp(m)
    w, v = np.linalg.eig(m)
    if np.any(np.linalg.cond(v) > 1e10):
        raise DegenerateConfiguration("exponent matrix is defective")
    k = m.shape[-1]
    diag = np.zeros(m.shape, dtype=np.complex128)
    diag[..., np.arange(k), np.arange(k)] = np.exp(w)
    return v @ diag @ np.linalg.inv(v)


def _fit_scalar(ss: np.ndarray, values: np.ndarray):
    if len(ss) <= _NEWTON_NODE_LIMIT:
        if not values.any():
            # what interpolating zeros returns, without the divided differences
            return Polynomial()
        return interpolate_nodes(list(zip(ss, values)), distinct_tol=0.0)
    return LagrangePoly.fit(ss, values)


@dataclass(frozen=True)
class QPolyMap:
    """F: projected point -> Q, polynomial in a separating scalar <u, y>.

    Coordinates are the top-row block r and the principal logarithm of the
    lower block, each interpolated separately; the log coordinates are kept
    traceless so the exponential stays unimodular.
    """

    n: int
    u: np.ndarray
    r_fns: tuple
    logl_fns: tuple

    def blocks(self, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Top-row blocks (m, n-1) and lower blocks (m, n-1, n-1) of F at
        the rows of an (m, n) array of projected points, unchecked.

        The separator is an elementwise product and a row sum, not a
        matmul, so each row rounds as a single-point evaluation does.

        For n = 2 the general steps act on one scalar per row (the trace
        of a 1x1 block is its entry, the identity block is 1.0, and the
        exponential is the scalar one), so they run on the evaluated
        vectors, as the same operations in the same order, with the same
        bits. The traceless log is 0 where the fit value is finite, with a
        -0.0 imaginary part where the fit's is -0.0 (which `lo - lo` would
        lose), and nan where it is not.
        """
        ss = np.sum(self.u * ys, axis=1)
        k = self.n - 1
        if k == 1:
            lo = self.logl_fns[0](ss)
            return self.r_fns[0](ss)[:, None], np.exp(lo - 1.0 * (lo / k))[:, None, None]
        r = np.stack([fn(ss) for fn in self.r_fns], axis=1)
        logl = np.stack([fn(ss) for fn in self.logl_fns], axis=1)
        logl = logl.reshape(len(ss), k, k)
        logl -= np.eye(k) * (np.trace(logl, axis1=1, axis2=2) / k)[:, None, None]
        return r, _matrix_exp(logl)

    def to_json(self) -> dict:
        fns = list(self.r_fns) + list(self.logl_fns)
        return {
            "kind": "bundle-push",
            "bundle": FIRST_COLUMN,
            "separator_u": [_pair(z) for z in self.u],
            "coeffs": [fn.to_json() for fn in fns],
        }


def _zero_fit(count: int):
    return tuple(Polynomial() for _ in range(count))


def fit_q_map(images, elements, seed: int = 0) -> QPolyMap:
    """Interpolates fiber-group elements over their projected positions.

    A seeded random functional separates the images; up to 64 draws are
    tried before giving up on the configuration.
    """
    ys = [np.asarray(y, dtype=np.complex128) for y in images]
    if not ys:
        raise ValueError("need at least one node")
    u, ss = _separate(np.stack(ys), seed)
    rs = np.stack([np.atleast_1d(el.r_block) for el in elements])
    logs = np.stack([_principal_log(el.l_block).reshape(-1) for el in elements])
    return _interpolate_blocks(u, ss, rs, logs)


def _separate(
    ys: np.ndarray, seed: int, why: str = ""
) -> tuple[np.ndarray, np.ndarray]:
    """A seeded functional u that keeps the rows of ys (m, n) apart, and
    the separators <u, y> of the rows. `why` is appended to the
    `FiberCollision` raised when two rows coincide."""
    hit = first_close_pair(ys, Q_COLUMN_TOL)
    if hit is not None:
        raise FiberCollision(f"images {hit[0]} and {hit[1]} coincide{why}")
    rng = stream(seed, "q-map-separator")
    for _ in range(64):
        u = rng.standard_normal(ys.shape[1]) + 1j * rng.standard_normal(ys.shape[1])
        ss = np.sum(u * ys, axis=1)
        scale = max(1.0, float(np.max(np.abs(ss))))
        if np.isfinite(ss).all() and first_close_pair(ss, DISTINCT_TOL * scale) is None:
            return u, ss
    raise DegenerateConfiguration(
        "no separating functional found for the projected images"
    )


def _interpolate_blocks(u, ss, rs: np.ndarray, logs: np.ndarray) -> QPolyMap:
    """The map whose top rows (m, n-1) and flattened traceless lower-block
    logarithms (m, (n-1)^2) take the given values at the separators ss."""
    r_fns = tuple(_fit_scalar(ss, rs[:, j]) for j in range(rs.shape[1]))
    logl_fns = tuple(_fit_scalar(ss, logs[:, j]) for j in range(logs.shape[1]))
    return QPolyMap(len(u), u, r_fns, logl_fns)


@dataclass(frozen=True)
class BundlePushAut(Automorphism):
    """x -> x * F(first column of x); moves points along fibers only."""

    fmap: QPolyMap
    kind = "bundle-push"

    def apply_batch(self, ps: np.ndarray) -> np.ndarray:
        """The push over an (m, n, n) stack. The first fiber factor, in
        row order, that `QElement.from_blocks` would reject raises.

        For n = 2 a finite factor is [[1, r], [0, 1 + 0j]] (the imaginary
        zero may be -0.0), and its LU determinant is exactly 1: the pivot
        is 1, the multiplier 0 and the last pivot 1 - 0 * r. So a stack of
        finite n = 2 factors skips the determinant check it would pass,
        and any other stack takes the full check, which names the same
        first bad factor with the same error.
        """
        r, lower = self.fmap.blocks(ps[:, :, 0])
        q = np.zeros(ps.shape, dtype=np.complex128)
        q[:, 0, 0] = 1.0
        q[:, 0, 1:] = r
        q[:, 1:, 1:] = lower
        if self.fmap.n > 2 or not np.isfinite(q).all():
            _check_rows("sln", q, DET_TOL)
        return ps @ q

    def to_json(self) -> dict:
        return self.fmap.to_json()


def _shear_parameters(xs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per matrix of an (m, n, n) stack, the smallest doubling parameter t
    with max column norm of x * (I + t E_{12}) at least its target; 0 where
    x already reaches it."""
    base = np.max(np.linalg.norm(xs, axis=1), axis=1)
    ts = np.zeros(len(xs))
    todo = np.flatnonzero(base < targets)
    t = 1.0
    while todo.size and t <= _SEARCH_CAP:
        sheared = _row_norms(xs[todo, :, 1] + t * xs[todo, :, 0])
        hit = np.maximum(base[todo], sheared) >= targets[todo]
        ts[todo[hit]] = t
        todo = todo[~hit]
        t *= 2.0
    if todo.size:
        raise SearchExhausted(
            f"no shear parameter up to 2^60 reaches height {targets[todo[0]]:g}"
        )
    return ts


def _pushed_heights(images: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Max column norms of pushed points (m, n, n), each checked in index
    order as `sl_matrix` and then the height demand would check it: a
    point with a non-finite entry raises `ValueError`, one off the
    unimodular group `DeterminantError`, one that falls short
    `InterpolationIllConditioned`."""
    with np.errstate(invalid="ignore"):
        # a non-finite point has a non-finite height, which is never short
        heights = np.max(np.linalg.norm(images, axis=1), axis=1)
    low = np.flatnonzero(falls_short(heights, targets))
    _check_rows("sln", images[: low[0] + 1] if low.size else images, DET_TOL)
    if low.size:
        i = int(low[0])
        raise InterpolationIllConditioned(
            f"achieved height {heights[i]:.6g} at point {i} fell below the demand "
            f"{targets[i]:.6g} after interpolation"
        )
    return heights


def bundle_push(
    d: DiscreteSequence,
    zeta: HeightAssignment,
    bundle: BundleSpec | None = None,
    seed: int = 0,
) -> tuple[BundlePushAut, tuple[float, ...]]:
    """Raises every prefix point at least to its demanded height by a push
    along the first-column fibers, leaving projections untouched.

    The first columns must be pairwise distinct: points over one projected
    point would need one common fiber element, which is not chosen here,
    so such a prefix raises `FiberCollision` once a push is needed.

    The prefix points were validated when `d` was built, so the search,
    the push and its postcondition run over the whole prefix at once.
    """
    if d.ambient.kind != "sln":
        raise AmbientMismatch("bundle push needs the matrix ambient")
    b = bundle if bundle is not None else first_column(d.ambient.n)
    if b.n != d.ambient.n:
        raise AmbientMismatch("sequence and bundle ambients disagree")
    if len(zeta) != len(d):
        raise ValueError("need one height per prefix point")
    n = d.ambient.n
    xs = d.array
    targets = np.array(zeta.values)
    ts = _shear_parameters(xs, targets)
    if not ts.any():
        fmap = QPolyMap(
            n, np.zeros(n, dtype=np.complex128), _zero_fit(n - 1), _zero_fit((n - 1) ** 2)
        )
    else:
        u, ss = _separate(
            xs[:, :, 0],
            seed,
            ": the two points share a first column, and the push needs "
            "pairwise distinct first columns",
        )
        rs = np.zeros((len(d), n - 1), dtype=np.complex128)
        rs[:, 0] = ts
        # every lower block is the identity, whose principal logarithm is 0
        logs = np.zeros((len(d), (n - 1) ** 2), dtype=np.complex128)
        fmap = _interpolate_blocks(u, ss, rs, logs)
    phi = BundlePushAut(fmap)
    achieved = _pushed_heights(phi.apply_batch(xs), targets)
    return phi, tuple(float(h) for h in achieved)
