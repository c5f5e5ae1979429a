"""Well-placed prefixes in the unimodular group and their constructions.

A prefix is well-placed when every matrix entry is nonzero and the row
and column ratio families against the first row and column grow
strictly.  Such prefixes project injectively to discrete quotient
images, survive balanced row rescaling, and can be scaled so that two
of them share first columns exactly, at which point a single fiberwise
push carries one onto the other.  This module implements those
constructions at prefix scale, together with union splitting, the
diagonal torus embedding, center separation, and the diagonal
one-parameter subgroup check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cn_tame import Polynomial
from .core import (
    MIN_GAP,
    DiscreteSequence,
    IdentityAut,
    Verdict,
    _row_norms,
    _window_pairs,
    first_close_pair,
    sln,
    validate_points,
)
from .errors import (
    AlignmentInfeasible,
    AmbientMismatch,
    BadParams,
    ConditionViolated,
    InconclusivePrefix,
    InterpolationIllConditioned,
    LambdaVanishes,
    NotDiagonal,
    NotOnSubgroup,
    ProductNotOne,
)
from .pi_tame import BundlePushAut, QPolyMap, fiber_factors, fit_factors
from .rng import stream

ZERO_ENTRY_TOL = 1e-12
CENTER_TOL = 1e-8
ALIGN_TOL = 1e-10
EQUIV_TOL = 1e-8
SUBGROUP_TOL = 1e-8
_VERIFY_SLACK = 1e-9


@dataclass(frozen=True)
class RescaleTable:
    """Per-step row multipliers, step-major: values[k, i] scales row i at
    step k.  Every step multiplies to one so the rescaled matrices stay
    unimodular."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=np.complex128))
        if vals.size == 0:
            raise LambdaVanishes("a rescale table needs at least one step")
        if np.any(vals == 0):
            raise LambdaVanishes("row multipliers must be nonzero")
        prods = np.prod(vals, axis=1)
        bad = np.abs(prods - 1.0) > 1e-9
        if np.any(bad):
            k = int(np.argmax(bad))
            raise ProductNotOne(
                f"step {k} multiplies to {complex(prods[k]):.6g}, not 1"
            )
        object.__setattr__(self, "values", vals)

    @property
    def steps(self) -> int:
        return int(self.values.shape[0])

    @property
    def n(self) -> int:
        return int(self.values.shape[1])

    def condition_failure(self) -> tuple[int, int, int] | None:
        """First failure of the rescaling conditions, as (condition, step,
        row), or None.  Condition 1: the first row multiplier dominates at
        every step.  Condition 2: no ratio against the first multiplier
        grows from one step to the next."""
        mags = np.abs(self.values)
        fails = (mags[:, :1] < mags[:, 1:],
                 mags[1:, :1] * mags[:-1, 1:] < mags[:-1, :1] * mags[1:, 1:])
        for cond, fail in enumerate(fails, 1):
            if fail.any():
                k, j = np.argwhere(fail)[0]
                return (cond, int(k), int(j) + 1)
        return None


@dataclass(frozen=True)
class WellPlacedReport:
    """Ratio families keyed by 1-based (j, h): alpha compares rows 1 and j
    inside column h, beta compares columns 1 and j inside row h."""

    nonzero_ok: bool
    alpha: dict
    beta: dict
    monotone_ok: bool
    growth_declared: bool


def well_placed_check(d: DiscreteSequence) -> tuple[Verdict, WellPlacedReport]:
    """Nonzero entries plus strictly growing ratio families on the prefix."""
    if d.ambient.kind != "sln":
        raise AmbientMismatch("well-placedness applies to the matrix ambient")
    m = len(d)
    if m < 2:
        raise InconclusivePrefix("ratio monotonicity needs at least two steps")
    n = d.ambient.n
    stack = d.array
    zero_mask = np.abs(stack) < ZERO_ENTRY_TOL
    nonzero_ok = not bool(np.any(zero_mask))

    alpha: dict = {}
    beta: dict = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(2, n + 1):
            for h in range(1, n + 1):
                a = np.abs(stack[:, 0, h - 1]) / np.abs(stack[:, j - 1, h - 1])
                b = np.abs(stack[:, h - 1, 0]) / np.abs(stack[:, h - 1, j - 1])
                alpha[(j, h)] = tuple(float(v) for v in a)
                beta[(j, h)] = tuple(float(v) for v in b)

    failure = None
    if nonzero_ok:
        for name, table in (("alpha", alpha), ("beta", beta)):
            for key in sorted(table):
                vals = np.asarray(table[key], dtype=float)
                bad = np.nonzero(np.diff(vals) <= 0)[0]
                if bad.size and failure is None:
                    failure = (name, key, int(bad[0]))
    monotone_ok = nonzero_ok and failure is None
    growth_declared = d.generator is not None and d.generator.declared("ratio_divergence")
    report = WellPlacedReport(nonzero_ok, alpha, beta, monotone_ok, growth_declared)

    if not nonzero_ok:
        hit = sorted({int(k) for k in np.nonzero(np.any(zero_mask, (1, 2)))[0]})
        return (
            Verdict.violated(hit, "a matrix entry vanishes on the prefix"),
            report,
        )
    if failure is not None:
        name, key, k = failure
        return (
            Verdict.violated(
                (k, k + 1),
                f"{name}[{key}] fails strict increase between prefix "
                f"indices {k} and {k + 1}",
            ),
            report,
        )
    if growth_declared:
        return (
            Verdict.certified(
                "declared-divergence",
                "generator declares unbounded ratio growth; prefix is monotone",
            ),
            report,
        )
    return Verdict.consistent("all ratio families strictly increase"), report


def lambda_rescale(
    d: DiscreteSequence,
    table: RescaleTable,
    check_conditions: bool = False,
) -> DiscreteSequence:
    """Scales row i of the k-th matrix by values[k, i]; balanced steps keep
    every determinant at one."""
    if d.ambient.kind != "sln":
        raise AmbientMismatch("row rescaling applies to the matrix ambient")
    if table.n != d.ambient.n:
        raise AmbientMismatch(
            f"table has {table.n} rows per step, ambient needs {d.ambient.n}"
        )
    if table.steps < len(d):
        raise ValueError("the table must cover the whole prefix")
    if check_conditions:
        failure = table.condition_failure()
        if failure is not None:
            cond, k, j = failure
            raise ConditionViolated(
                f"condition ({cond}) fails at step {k}, row {j + 1}"
            )
    return d.replace_points(table.values[: len(d), :, None] * d.array)


@dataclass(frozen=True)
class ScalingRecord:
    """The four per-step scaling tables produced by first-column alignment:
    rows then columns for each input."""

    lam: np.ndarray
    mu: np.ndarray
    lam_tilde: np.ndarray
    mu_tilde: np.ndarray

    def to_json(self) -> dict:
        def encode(arr: np.ndarray) -> list:
            return [[[float(z.real), float(z.imag)] for z in row] for row in arr]

        return {
            "lambda": encode(self.lam),
            "mu": encode(self.mu),
            "lambda_tilde": encode(self.lam_tilde),
            "mu_tilde": encode(self.mu_tilde),
        }


@dataclass(frozen=True)
class AlignmentReport:
    """Post-hoc verification of the alignment constraints."""

    first_column_mismatch: float
    unit_caps_ok: bool
    ratio_caps_ok: bool
    matching_ok: bool
    products_ok: bool
    dominance_ok: bool


def _ratio_caps_hold(table: np.ndarray) -> np.ndarray:
    """Per step, whether no ratio to the first multiplier grew since the last."""
    mags = np.abs(table)
    ratios = mags[:, 1:] / mags[:, :1]
    return np.r_[True, np.all(ratios[1:] <= ratios[:-1] * (1.0 + _VERIFY_SLACK), axis=1)]


def align_first_columns(
    a_seq: DiscreteSequence, b_seq: DiscreteSequence
) -> tuple[DiscreteSequence, DiscreteSequence, ScalingRecord, AlignmentReport]:
    """Rescales two well-placed prefixes by rows and columns so their first
    columns agree entrywise.

    Rows j >= 2 are matched through a mediating n-th root of the ratio of
    first-column products; the literal per-row matching without that
    factor is infeasible once the products differ, since the product-one
    normalizations would otherwise overdetermine the first entries.  All
    modulus caps are enforced in the ratio form that the rescaling lemma
    needs (ratios against the first multiplier never grow), which keeps
    the recursion stationary instead of compounding step over step.
    """
    if a_seq.ambient != b_seq.ambient or a_seq.ambient.kind != "sln":
        raise AmbientMismatch("alignment needs two prefixes in one matrix ambient")
    if len(a_seq) != len(b_seq):
        raise BadParams(f"alignment needs equal prefix lengths, got {len(a_seq)} and {len(b_seq)}")
    for label, seq in (("first", a_seq), ("second", b_seq)):
        verdict, _ = well_placed_check(seq)
        if verdict.is_violated:
            raise AlignmentInfeasible(
                f"{label} input is not well-placed: {verdict.detail}"
            )
    m = len(a_seq)
    n = a_seq.ambient.n
    lam = np.ones((m, n), dtype=np.complex128)
    mu = np.ones((m, n), dtype=np.complex128)
    lam_t = np.ones((m, n), dtype=np.complex128)
    mu_t = np.ones((m, n), dtype=np.complex128)
    # the caps at step k: each table's ratios to its first multiplier at k - 1
    cap_l = cap_m = cap_lt = cap_mt = np.full(n - 1, np.inf)
    for k in range(m):
        col_a = a_seq.array[k, :, 0]
        col_b = b_seq.array[k, :, 0]
        rho = complex((np.prod(col_b) / np.prod(col_a)) ** (1.0 / n))
        growth = np.abs(rho) * np.abs(col_a[1:]) / np.abs(col_b[1:])
        base = np.minimum(1.0, 1.0 / growth)
        prod_base = float(np.prod(base))
        prod_growth = float(np.prod(growth * base))
        # one common shrink keeps every ratio below its previous value
        t = min(
            1.0,
            *((min(1.0, c) / (b * prod_base)) ** (1.0 / n) for c, b in zip(cap_l, base)),
            *((min(1.0, c) / (g * b * prod_growth)) ** (1.0 / n)
              for c, g, b in zip(cap_m, growth, base)),
        )
        if t <= 0.0:
            raise AlignmentInfeasible(f"scale underflow at step {k}")
        lam[k, 1:] = base * t
        mu[k, 1:] = rho * lam[k, 1:] * col_a[1:] / col_b[1:]
        lam[k, 0] = 1.0 / np.prod(lam[k, 1:])
        mu[k, 0] = 1.0 / np.prod(mu[k, 1:])

        r_mag = abs(rho)
        s = min(
            1.0,
            min(1.0, float(np.min(cap_lt))) ** (1.0 / n),
            r_mag ** (-1.0 / (n - 1)),
            min(1.0, float(np.min(cap_mt))) ** (1.0 / n) * r_mag ** (-1.0 / (n - 1)),
        )
        if s <= 0.0:
            raise AlignmentInfeasible(f"column scale underflow at step {k}")
        lam_t[k, 1:] = s
        lam_t[k, 0] = 1.0 / np.prod(lam_t[k, 1:])
        w = r_mag ** (1.0 / (n - 1)) * s
        phase = complex((rho / r_mag) ** (1.0 / (n - 1)))
        mu_t[k, 1:] = w * phase
        mu_t[k, 0] = 1.0 / np.prod(mu_t[k, 1:])
        cap_l, cap_m, cap_lt, cap_mt = (
            np.abs(tab[k, 1:]) / np.abs(tab[k, 0]) for tab in (lam, mu, lam_t, mu_t)
        )

    c_points = lam[:, :, None] * a_seq.array * lam_t[:, None, :]
    d_points = mu[:, :, None] * b_seq.array * mu_t[:, None, :]
    gaps = np.abs(c_points[:, :, 0] - d_points[:, :, 0]).max(axis=1)

    slack = 1.0 + _VERIFY_SLACK
    tables = (lam, mu, lam_t, mu_t)
    # per group, the steps at which it fails in any of the four tables
    fails = {
        name: ~np.all([rule(tab) for tab in tables], axis=0)
        for name, rule in (
            ("unit caps", lambda tab: np.all(np.abs(tab[:, 1:]) <= slack, axis=1)),
            ("ratio caps", _ratio_caps_hold),
            ("product-one", lambda tab: np.abs(np.prod(tab, axis=1) - 1.0) <= 1e-9),
            ("first-multiplier dominance",
             lambda tab: np.all(np.abs(tab[:, 1:]) <= np.abs(tab[:, :1]) * slack, axis=1)),
        )
    }
    far = np.flatnonzero(~(gaps <= ALIGN_TOL))
    ok = [not fail.any() for fail in fails.values()]
    report = AlignmentReport(float(gaps.max()), ok[0], ok[1], not far.size, ok[2], ok[3])
    for name, fail in fails.items():
        if fail.any():
            raise AlignmentInfeasible(
                f"{name} constraint failed re-verification at step {np.argmax(fail)}"
            )
    if far.size:
        raise AlignmentInfeasible(
            f"first columns disagree by {gaps[far[0]]:.3g} at point {far[0]} after alignment"
        )
    record = ScalingRecord(lam, mu, lam_t, mu_t)
    return (
        a_seq.replace_points(c_points),
        b_seq.replace_points(d_points),
        record,
        report,
    )


def equivalence_automorphism(
    c_seq: DiscreteSequence, d_seq: DiscreteSequence, seed: int = 0
) -> BundlePushAut:
    """The fiberwise push of `equivalence_move`."""
    return equivalence_move(c_seq, d_seq, seed)[0]


def equivalence_move(
    c_seq: DiscreteSequence, d_seq: DiscreteSequence, seed: int = 0
) -> tuple[BundlePushAut, np.ndarray]:
    """The fiberwise push carrying the second aligned prefix onto the
    first, and the second prefix's points moved by it.

    Each step's fiber factor is interpolated over the shared first
    columns, so the resulting map sends d_seq's k-th point to c_seq's
    k-th point while fixing every projection.
    """
    if c_seq.ambient != d_seq.ambient or c_seq.ambient.kind != "sln":
        raise AmbientMismatch("equivalence needs two prefixes in one matrix ambient")
    if len(c_seq) != len(d_seq):
        raise BadParams("equivalence needs equal prefix lengths, "
                        f"got {len(c_seq)} and {len(d_seq)}")
    if not len(c_seq):
        raise InconclusivePrefix("equivalence needs at least one point")
    factors = fiber_factors(c_seq.array, d_seq.array)
    phi = BundlePushAut(fit_factors(c_seq.array[:, :, 0], factors, seed))
    moved = phi.apply_batch(d_seq.array)
    errors = np.abs(moved - c_seq.array).reshape(len(c_seq), -1).max(axis=1)
    if np.any(errors > EQUIV_TOL):
        i = int(np.argmax(errors > EQUIV_TOL))
        raise InterpolationIllConditioned(
            f"node {i} maps with error {errors[i]:.3g}, beyond {EQUIV_TOL:g}"
        )
    return phi, moved


def union_owners(d: DiscreteSequence) -> np.ndarray:
    """Per point, the column with the largest norm, ties to the smallest
    index.  That norm is the exhaustion value itself, so each member
    trivially clears the 1/n bound."""
    if d.ambient.kind != "sln":
        raise AmbientMismatch("union decomposition applies to the matrix ambient")
    return np.argmax(np.linalg.norm(d.array, axis=1), axis=1)


def union_decompose(d: DiscreteSequence) -> list[DiscreteSequence]:
    """Splits a prefix into one part per column, by `union_owners`."""
    owner = union_owners(d)
    return [d.replace_points(d.array[owner == k]) for k in range(d.ambient.n)]


def union_split_verdict(d: DiscreteSequence, owner: np.ndarray) -> Verdict:
    """The postcondition of the split by `owner`, the column each point goes
    to: each owner column norm is at least 1/n of its point's norm.  A
    violation names the points that miss it; the labels cannot miss a point."""
    n, arr = d.ambient.n, d.array
    weak = np.flatnonzero(_row_norms(arr[np.arange(len(arr)), :, owner]) < _row_norms(arr) / n)
    if weak.size:
        return Verdict.violated(weak, "a member misses its column bound")
    return Verdict.consistent(
        f"{n} parts partition {len(arr)} points; column dominance holds on every member"
    )


def _off_diagonal(stack: np.ndarray) -> np.ndarray:
    """Per matrix of a stack, the largest modulus of an off-diagonal entry."""
    off = stack.copy()
    diag = range(stack.shape[-1])
    off[:, diag, diag] = 0
    return np.max(np.abs(off), axis=(1, 2))


def _torus_verdict(images: np.ndarray, min_gap: float) -> Verdict:
    """The gap verdict on the diagonals of a prefix, as points of C^n."""
    if not len(images):
        raise InconclusivePrefix("need at least one diagonal matrix")
    hit = first_close_pair(images, min_gap)
    if hit is not None:
        return Verdict.violated(hit, f"images {hit[0]} and {hit[1]} sit within {min_gap:g}")
    return Verdict.consistent("torus images are separated at prefix scale")


def torus_embed(mats, min_gap: float = MIN_GAP) -> tuple[np.ndarray, Verdict]:
    """Sends diagonal matrices to their diagonals, which land on the
    product-one hypersurface: an (m, n) array of images.  The matrices are
    validated once, as one SL(n) stack of the first one's size, so the
    first bad matrix raises; then the first off-diagonal one does."""
    mats = mats if isinstance(mats, np.ndarray) else tuple(mats)
    shape = np.shape(mats[0]) if len(mats) else ()
    stack = validate_points(sln(shape[0] if shape else 2), mats)
    worst = _off_diagonal(stack)
    bad = np.flatnonzero(worst > 1e-10)
    if bad.size:
        raise NotDiagonal(
            f"matrix {bad[0]} has an off-diagonal entry of modulus {worst[bad[0]]:.3g}"
        )
    images = np.ascontiguousarray(np.diagonal(stack, 0, 1, 2))
    return images, _torus_verdict(images, min_gap)


def one_param_check(d: DiscreteSequence, min_gap: float = MIN_GAP) -> Verdict:
    """Discreteness of a prefix inside the diagonal subgroup, checked
    through the torus embedding of its diagonals."""
    if d.ambient.kind != "sln":
        raise AmbientMismatch("subgroup checks apply to the matrix ambient")
    off = _off_diagonal(d.array)
    bad = np.flatnonzero(off > SUBGROUP_TOL)
    if bad.size:
        raise NotOnSubgroup(
            f"point {bad[0]} has off-diagonal modulus {off[bad[0]]:.3g}"
        )
    return _torus_verdict(np.diagonal(d.array, 0, 1, 2), min_gap)


def _central_pairs(points: np.ndarray, n: int) -> list[tuple[int, int]]:
    """The pairs i < j, in lexicographic order, with max|Q - wI| at most
    CENTER_TOL for Q = np.linalg.solve(p_i, p_j) and some w^n = 1.
    Candidates from `_window_pairs` pass a prefilter; one batched solve
    per block decides, rounding as single solves do."""
    m = len(points)
    if m < 2:
        return []
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    # p_j - w p_i = p_i (Q - wI) + p_i (Q_exact - Q): each entry is at most
    # n max|p_i| (CENTER_TOL + max|Q_exact - Q|) at a hit.  The solve errs
    # by a modest multiple of n eps cond(p_i), and det p_i = 1 gives
    # cond(p_i) <= |p_i|_F^n; 64 n^2 eps |p_i|_F^n covers that multiple
    # and the rounding of p_j - w p_i.
    slack = 64 * n**2 * np.finfo(float).eps * _row_norms(points) ** n
    entries = np.ascontiguousarray(points.reshape(m, n * n).T)
    mods = np.abs(entries)
    bound = n * np.max(mods, axis=0) * (CENTER_TOL + slack)
    # for |w| = 1, ||p_j,e| - |p_i,e|| <= |p_j,e - w p_i,e|: a window on the
    # modulus of the widest entry (non-finite if any is), slack for rounding
    x = mods[np.argmax(np.ptp(mods, axis=1))]
    half = bound + 16 * np.finfo(float).eps * (x + bound)
    hits: list[tuple[int, int]] = []
    for i, j in _window_pairs(x, half, n * n):
        keep = np.zeros(len(i), dtype=bool)
        for w in roots:
            # the largest entry gap, an entry at a time so tables stay small
            gap = np.abs(entries[0, j] - w * entries[0, i])
            for e in range(1, n * n):
                np.maximum(gap, np.abs(entries[e, j] - w * entries[e, i]), out=gap)
            keep |= ~(gap > bound[i])
        i, j = i[keep], j[keep]
        quotient = np.linalg.solve(points[i], points[j])
        devs = [np.max(np.abs(quotient - w * np.eye(n)), axis=(1, 2)) for w in roots]
        ok = np.min(devs, axis=0) <= CENTER_TOL
        hits.extend(zip(i[ok].tolist(), j[ok].tolist()))
    return hits


def center_separate(
    d: DiscreteSequence, tries: int = 8, seed: int = 0
) -> tuple[object, Verdict]:
    """Separates prefix pairs that differ by a unimodular scalar, using
    seeded random fiberwise shears of polynomial degree at most two."""
    if d.ambient.kind != "sln":
        raise AmbientMismatch("center separation applies to the matrix ambient")
    n = d.ambient.n
    pairs = _central_pairs(d.array, n)
    if not pairs:
        return IdentityAut(), Verdict.certified(
            "no-central-pairs",
            "no prefix pair differs by a unimodular scalar",
        )
    rng = stream(seed, "center-separate")
    zero_logs = tuple(Polynomial() for _ in range((n - 1) ** 2))
    stuck = pairs
    for attempt in range(1, int(tries) + 1):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        r_fns = tuple(
            Polynomial(tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
            for _ in range(n - 1)
        )
        phi = BundlePushAut(QPolyMap(n, u, r_fns, zero_logs))
        stuck = _central_pairs(phi.apply_batch(d.array), n)
        if not stuck:
            return phi, Verdict.consistent(
                f"central pairs separated after {attempt} attempt(s)"
            )
    return IdentityAut(), Verdict.violated(
        stuck[0], f"pair still central after {tries} shear attempts"
    )
