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

from .cn_tame import LagrangePoly, Polynomial
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
    _divide,
    _pair,
    _Parts,
    _row_norms,
    falls_short,
    first_close_pair,
    properness_check,
    sln,
)
from .errors import (
    AmbientMismatch,
    BadParams,
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
_CAP_LOG2 = 60  # the largest shear parameter tried is 2^60


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


def _q_stack(r: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """The fiber-group elements [[1, r_k], [0, lower_k]] of top rows (m, n-1)
    and lower blocks (m, n-1, n-1), checked by `_check_rows`, which names a
    bad one by its index. Their first columns are e1 by construction. For
    n = 2 a finite element with lower entry exactly 1 has LU determinant
    exactly 1 (pivot 1, multiplier 0, last pivot 1 - 0 * r), so a stack of
    such elements skips the check."""
    m, k = r.shape
    q = np.zeros((m, k + 1, k + 1), dtype=np.complex128)
    q[:, 0, 0] = 1.0
    q[:, 0, 1:] = r
    q[:, 1:, 1:] = lower
    if k > 1 or not ((lower == 1).all() and np.isfinite(r).all()):
        _check_rows("sln", q, DET_TOL)
    return q


def fiber_factors(cs: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """The fiber-group elements g_k = d_k^{-1} c_k carrying d_k to c_k, with
    Q's structural zeros restored, over two unimodular (m, n, n) stacks. The
    first failing pair raises: first columns apart by more than
    `FIBER_MATCH_TOL` (`NotSameFiber`), or a factor `_q_stack` rejects."""
    drift = np.max(np.abs(cs[:, :, 0] - ds[:, :, 0]), axis=1)
    far = np.flatnonzero(drift > FIBER_MATCH_TOL)
    stop = far[0] if far.size else len(cs)
    g = np.linalg.solve(ds[:stop], cs[:stop])
    factors = _q_stack(g[:, 0, 1:], g[:, 1:, 1:])
    if far.size:
        raise NotSameFiber(f"first columns differ by {drift[stop]:.3g} at point {stop}")
    return factors


def _principal_log(lower: np.ndarray) -> np.ndarray:
    """Traceless principal logarithms of a stack (m, k, k) of
    diagonalizable unimodular blocks. The first block in index order that
    is defective, or whose logarithm has nonzero trace (a nonprincipal
    branch), raises `DegenerateConfiguration` naming its node."""
    m, k = lower.shape[:2]
    if k == 1:
        out, stop = np.log(lower), m
    else:
        w, v = np.linalg.eig(lower)
        bad = np.flatnonzero(np.any(w == 0, axis=1) | (np.linalg.cond(v) > 1e10))
        stop = bad[0] if bad.size else m
        diag = np.zeros((stop, k, k), dtype=np.complex128)
        diag[:, range(k), range(k)] = np.log(w[:stop])
        out = v[:stop] @ diag @ np.linalg.inv(v[:stop])
    trace = np.trace(out, axis1=1, axis2=2)
    off = np.flatnonzero(np.hypot(trace.real, trace.imag) > 1e-8)
    if off.size:
        raise DegenerateConfiguration(f"the principal logarithm at node {off[0]} has trace "
                                      f"{complex(trace[off[0]]):.3g}; the block sits on a "
                                      "nonprincipal branch")
    if stop < m:
        raise DegenerateConfiguration(f"the lower block at node {stop} is defective")
    # trace / k as CPython divides a complex by an int; numpy's complex
    # division multiplies by 1 / k, which rounds differently for k = 3
    shift = _divide(_Parts.of(trace), _Parts(float(k), 0.0), reciprocal=False).array()
    return out - np.eye(k) * shift[:, None, None]


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


@dataclass(frozen=True)
class QPolyMap:
    """F: projected point -> Q, polynomial in a separating scalar <u, y>.

    Coordinates are the top-row block r and the principal logarithm of the
    lower block, fitted at one node set with one set of weights; the log
    coordinates are kept traceless so the exponential stays unimodular.
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
        ss = np.add.reduce(self.u * ys, axis=1)
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


# the name the benchmark traces; it goes once the benchmark traces `fit_factors`
def fit_q_map(images, factors, seed: int = 0) -> QPolyMap:
    """`fit_factors` over lists of projected points and (n, n) factors."""
    if not len(images):
        raise ValueError("need at least one node")
    ys, qs = (np.asarray(xs, dtype=np.complex128) for xs in (images, factors))
    return fit_factors(ys, qs, seed)


def fit_factors(images: np.ndarray, factors: np.ndarray, seed: int = 0) -> QPolyMap:
    """Interpolates a stack of fiber-group elements (m, n, n) over their
    projected positions (m, n): their top rows and the principal
    logarithms of their lower blocks, at the separators of a seeded random
    functional (`_separate`, up to 64 draws). One factor per image."""
    if len(factors) != len(images):
        raise BadParams(f"{len(factors)} fiber factors for {len(images)} images; one per image")
    u, ss = _separate(images, seed)
    logs = _principal_log(factors[:, 1:, 1:]).reshape(len(factors), -1)
    return _interpolate_blocks(u, ss, factors[:, 0, 1:], logs)


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
    logarithms (m, (n-1)^2) take the given values at the separators ss:
    every nonzero column takes the nodes and weights of one fit, and an
    all-zero column is the zero polynomial. The caller's `_separate` is the
    check that the nodes ss are pairwise apart."""
    cols = [*rs.T, *logs.T]
    fit = next((LagrangePoly.fit(ss, c) for c in cols if c.any()), None)
    fns = tuple(fit.with_values(c) if c.any() else Polynomial() for c in cols)
    return QPolyMap(len(u), u, fns[: rs.shape[1]], fns[rs.shape[1] :])


@dataclass(frozen=True)
class BundlePushAut(Automorphism):
    """x -> x * F(first column of x); moves points along fibers only."""

    fmap: QPolyMap
    kind = "bundle-push"

    def apply_batch(self, ps: np.ndarray) -> np.ndarray:
        """The push over an (m, n, n) stack. The first fiber factor, in
        row order, that `_q_stack` rejects raises."""
        return ps @ _q_stack(*self.fmap.blocks(ps[:, :, 0]))

    def to_json(self) -> dict:
        return self.fmap.to_json()


def _shear_parameters(xs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per matrix of an (m, n, n) stack, the smallest doubling parameter t
    with max column norm of x * (I + t E_{12}) at least its target; 0 where
    x already reaches it. Rungs of 8 doublings, t = 2^lo ... 2^(lo+7), shear
    the pending matrices as one stack, each column rounded as alone."""
    base = np.max(np.linalg.norm(xs, axis=1), axis=1)
    ts = np.zeros(len(xs))
    todo = np.flatnonzero(base < targets)
    for lo in range(0, _CAP_LOG2 + 1, 8):
        if not todo.size:
            break
        rung = np.ldexp(1.0, np.arange(lo, min(lo + 8, _CAP_LOG2 + 1)))
        with np.errstate(over="ignore", invalid="ignore"):  # t past a row's hit
            sheared = xs[todo, None, :, 1] + rung[:, None] * xs[todo, None, :, 0]
            sheared = _row_norms(sheared.reshape(-1, xs.shape[1])).reshape(len(todo), -1)
        hit = np.maximum(base[todo, None], sheared) >= targets[todo, None]
        done = hit.any(axis=1)
        ts[todo[done]] = rung[np.argmax(hit[done], axis=1)]
        todo = todo[~done]
    if todo.size:
        raise SearchExhausted(
            f"no shear parameter up to 2^{_CAP_LOG2} reaches height {targets[todo[0]]:g}"
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
    d: DiscreteSequence, zeta: HeightAssignment, seed: int = 0
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
