"""An exact oracle for `mc measure`: the Haar mass of the conjugation tail
of the diagonal probe diag(R, 1/R), against the seeded estimator.

Under Haar measure on SU(2) the first column u of a twist is uniform on
the three-sphere, so t = |u0|^2 is uniform on [0, 1]. The conjugated
probe's embedded norm N depends on u alone (see `generic_projection`),
and for diag(R, 1/R), with A = R^2 and B = R^-2,

    N^2 = (A t + B (1 - t)) (A (1 - t) + B t) = 1 + (A - B)^2 t (1 - t).

So P(N < r) is 0 for r <= 1, 1 for r >= (A + B) / 2, and in between
1 - sqrt(1 - 4 q) with q = (r^2 - 1) / (A - B)^2.

A general probe has no such closed form, so `mc threshold` is checked
against a quadrature of the same law: N computed by explicit
conjugation and the chart on a grid of (t, phase), with the crossings
in t placed by linear interpolation.
"""

from __future__ import annotations

import functools
import math

import mpmath
import numpy as np
import pytest

from tamelab import generic_projection as gp


def tail_mass(R: float, r: float) -> float:
    """P(N < r) in float64. The forms keep their precision at both ends:
    (r - 1)(r + 1) for r^2 - 1 near r = 1, 4 (top - r)(top + r) / span^2
    for 1 - 4q near the top, and 4q / (1 + sqrt(1 - 4q)) for the mass."""
    a, b = R * R, 1.0 / (R * R)
    top, span = (a + b) / 2.0, a - b
    if r <= 1.0:
        return 0.0
    if r >= top:
        return 1.0
    q = (r - 1.0) * (r + 1.0) / (span * span)
    root = 2.0 * math.sqrt((top - r) * (top + r)) / span
    return 4.0 * q / (1.0 + root)


def _mp_tail_mass(R: float, r: float) -> mpmath.mpf:
    """P(N < r) at 50 digits, from the product form of N^2(t): N^2 rises
    on [0, 1/2] and is symmetric about 1/2, so the mass is 2 t0 for the
    root t0 of N^2(t) = r^2 there, found by bisection."""
    with mpmath.workdps(50):
        a, b, r2 = mpmath.mpf(R) ** 2, mpmath.mpf(R) ** -2, mpmath.mpf(r) ** 2
        lo, hi = mpmath.mpf(0), mpmath.mpf(1) / 2
        for _ in range(200):
            mid = (lo + hi) / 2
            if (a * mid + b * (1 - mid)) * (a * (1 - mid) + b * mid) < r2:
                lo = mid
            else:
                hi = mid
        return 2 * lo


def _top(R: float) -> float:
    return (R * R + 1.0 / (R * R)) / 2.0


class TestClosedForm:
    # r sits a fraction `gap` of the way in from the floor or the top

    @pytest.mark.parametrize("R", [1.1, 2.0, 10.0, 1000.0])
    @pytest.mark.parametrize("gap", [1e-12, 1e-8, 1e-4, 0.5])
    def test_near_the_floor(self, R, gap):
        r = 1.0 + gap * (_top(R) - 1.0)
        exact = _mp_tail_mass(R, r)
        assert abs(tail_mass(R, r) - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("R", [1.1, 2.0, 10.0, 1000.0])
    @pytest.mark.parametrize("gap", [1e-9, 1e-6, 1e-3, 0.5])
    def test_near_the_top(self, R, gap):
        # the top is a float: its rounding, relative to top - r, costs the
        # float form about sqrt(1 - 4q) * eps * top / (top - r), which
        # grows like 1 / sqrt(gap)
        r = _top(R) - gap * (_top(R) - 1.0)
        exact = _mp_tail_mass(R, r)
        assert abs(tail_mass(R, r) - exact) <= 1e-14 / math.sqrt(gap) * exact

    @pytest.mark.parametrize("R", [1.1, 10.0])
    def test_the_mass_is_zero_at_the_floor_and_one_at_the_top(self, R):
        assert tail_mass(R, 1.0) == 0.0 and tail_mass(R, 0.5) == 0.0
        assert tail_mass(R, _top(R)) == 1.0 and tail_mass(R, 2.0 * _top(R)) == 1.0
        assert _mp_tail_mass(R, 1.0) < 1e-40
        # the float top rounds by about eps; the mass falls off like a root
        assert _mp_tail_mass(R, _top(R)) > 1.0 - 1e-6


def _radius_at(R: float, p: float) -> float:
    """The r at which the mass is p, inverting 1 - sqrt(1 - 4q) = p."""
    span = R * R - 1.0 / (R * R)
    return math.sqrt(1.0 + (1.0 - (1.0 - p) ** 2) / 4.0 * span * span)


def _probe(R: float) -> np.ndarray:
    return np.diag([R, 1.0 / R]).astype(np.complex128)


SAMPLES = 100_000


def test_measure_estimate_matches_the_exact_mass():
    # R in e^[0.1, 4] and the mass in [0.05, 0.95], one sampler seed each
    rng = np.random.default_rng(22)
    zs = []
    for seed in range(40):
        R = math.exp(rng.uniform(0.1, 4.0))
        r = _radius_at(R, rng.uniform(0.05, 0.95))
        exact = tail_mass(R, r)
        est = gp.measure_estimate(_probe(R), r, SAMPLES, gp.HaarSampler(2, seed))
        zs.append((est.estimate - exact) / math.sqrt(exact * (1.0 - exact) / SAMPLES))
    assert max(abs(z) for z in zs) <= 5.0
    assert abs(sum(zs) / len(zs)) <= 3.0 / math.sqrt(len(zs))


@pytest.mark.parametrize("R", [math.exp(0.1), 10.0])
def test_below_the_floor_and_past_the_top_the_estimate_is_exact(R):
    sampler = gp.HaarSampler(2, 5)
    assert gp.measure_estimate(_probe(R), 0.999, SAMPLES, sampler).estimate == 0.0
    assert gp.measure_estimate(_probe(R), 1.001 * _top(R), SAMPLES, sampler).estimate == 1.0


# the quadrature grid: intervals in the polar angle, phases
_THETAS, _PHASES = 256, 512


def _chart_norms(v: np.ndarray, theta: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """N on the grid: the chart norm of k^H v k, by explicit products, for
    the twist k = [[u0, -conj(u1)], [u1, conj(u0)]] whose first column is
    u = (cos(theta / 2), sin(theta / 2) e^{i phase}), so t = |u0|^2 =
    (1 + cos theta) / 2. Rows follow theta and columns the phase."""
    u0 = np.cos(theta / 2.0)[:, None] + 0j
    u1 = np.sin(theta / 2.0)[:, None] * np.exp(1j * phase)[None, :]
    k = ((u0, -u1.conj()), (u1, u0.conj()))
    vk = [[v[i, 0] * k[0][j] + v[i, 1] * k[1][j] for j in range(2)] for i in range(2)]
    m = [[k[0][i].conj() * vk[0][j] + k[1][i].conj() * vk[1][j] for j in range(2)]
         for i in range(2)]
    a, c, b, d = m[0][0], m[0][1], m[1][0], m[1][1]
    return np.sqrt(sum(z.real**2 + z.imag**2 for z in (a * c, a * d, b * c, b * d)))


def _grid():
    theta = np.linspace(0.0, math.pi, _THETAS + 1)
    return theta, (np.arange(_PHASES) + 0.5) * (2.0 * math.pi / _PHASES)


def _grid_mass(norms: np.ndarray, theta: np.ndarray, radius: float, level: float) -> float:
    """P(radius^2 N < level) from N on the grid. On each theta interval the
    event is cut where the linear interpolant of radius^2 N - level
    changes sign, and the kept part [lo, hi] has t-measure
    (cos lo - cos hi) / 2, as t = (1 + cos theta) / 2 is uniform. The
    phase, uniform too, is averaged by the midpoint rule."""
    f = radius * radius * norms - level
    f0, f1 = f[:-1], f[1:]
    a, b = theta[:-1, None], theta[1:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = a + (b - a) * (f0 / (f0 - f1))
    lo = np.where(f0 < 0.0, a, np.where(f1 < 0.0, cut, b))
    hi = np.where(f0 < 0.0, np.where(f1 < 0.0, b, cut), b)
    return float(((np.cos(lo) - np.cos(hi)) / 2.0).sum(axis=0).mean())


def test_the_grid_oracle_reproduces_the_closed_form():
    # a diagonal probe conjugated by a fixed twist has the diagonal's
    # masses by Haar invariance, but a norm that varies with the phase
    theta, phase = _grid()
    q = gp.haar_su(gp.HaarSampler(2, 99))
    for R in (1.2, 2.0, 5.0):
        norms = _chart_norms(q.conj().T @ _probe(R) @ q, theta, phase)
        for r in (1.05, 1.5, 3.0):
            assert abs(_grid_mass(norms, theta, 1.0, r) - tail_mass(R, r)) <= 1e-4


THRESHOLD_SAMPLES = 10_000


@functools.lru_cache(maxsize=None)
def _threshold_masses(seed: int) -> tuple[tuple[float, ...], np.ndarray]:
    """The radii of `mc threshold` at 5 levels and 10k draws, and the
    exact mass P(R_L^2 N < L) of each (level, probe). A grid of 4000
    angles by 2048 phases moved no mass by more than 1e-4."""
    th = gp.threshold_estimate(5, samples_per_level=THRESHOLD_SAMPLES, seed=seed)
    theta, phase = _grid()
    norms = [_chart_norms(v, theta, phase) for v in gp._unit_probes(seed, th.sphere_probes)]
    masses = np.array([
        [_grid_mass(n, theta, radius, level) for n in norms]
        for level, radius in enumerate(th.rhat, start=1)
    ])
    return th.delta, masses


@pytest.mark.parametrize("seed", [0, 7])
def test_every_threshold_probe_clears_its_budget(seed):
    budgets, masses = _threshold_masses(seed)
    for budget, row in zip(budgets, masses):
        assert row.max() < budget, (budget, row)


@pytest.mark.parametrize("seed", [0, 7])
def test_each_threshold_level_is_tight(seed):
    # the least clearing radius leaves the worst probe's mass within a
    # few standard errors of the budget
    budgets, masses = _threshold_masses(seed)
    for budget, row in zip(budgets, masses):
        assert row.max() >= budget - 6.0 * math.sqrt(budget / THRESHOLD_SAMPLES), (budget, row)
