"""Haar sampling, tail-measure estimates, thresholds, and the omega fraction."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamelab import core
from tamelab import generic_projection as gp
from tamelab.core import DiscreteSequence, GeneratorInfo, cn, properness_check, sln
from tamelab.errors import (
    AmbientMismatch,
    BadParams,
    DimensionMismatch,
    InconclusivePrefix,
    SearchExhausted,
    ZeroVector,
)
from tamelab.rng import stream


def _sampler(seed: int, counter: int = 0) -> gp.HaarSampler:
    return gp.HaarSampler(2, seed, counter)


def _diag(value: float) -> np.ndarray:
    return np.diag([value, 1.0 / value]).astype(np.complex128)


class TestHaarSampler:
    def test_single_draw_is_special_unitary(self):
        u = gp.haar_su(_sampler(7))
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= gp.UNITARY_TOL
        assert abs(np.linalg.det(u) - 1.0) <= gp.UNITARY_TOL

    def test_batch_draws_are_special_unitary(self):
        us = gp.haar_su_batch(_sampler(11), 500)
        gram = np.einsum("kij,kil->kjl", us.conj(), us)
        assert np.max(np.abs(gram - np.eye(2))) <= gp.UNITARY_TOL
        assert np.max(np.abs(np.linalg.det(us) - 1.0)) <= gp.UNITARY_TOL

    def test_counter_addresses_each_draw(self):
        # A draw depends only on (n, seed, index): slicing a batch,
        # advancing the sampler, and drawing singly all agree bitwise.
        batch = gp.haar_su_batch(_sampler(7), 10)
        assert np.array_equal(batch[5], gp.haar_su(_sampler(7, counter=5)))
        head = gp.haar_su_batch(_sampler(7), 4)
        tail = gp.haar_su_batch(_sampler(7).advanced(4), 6)
        assert np.array_equal(np.concatenate([head, tail]), batch)
        # odd splits put draws in every remainder lane of a vector loop
        for n in (2, 3):
            whole = gp.haar_su_batch(gp.HaarSampler(n, 7), 88)
            parts, start = [], 0
            for size in (1, 7, 13, 67):
                parts.append(gp.haar_su_batch(gp.HaarSampler(n, 7, start), size))
                start += size
            assert np.array_equal(np.concatenate(parts), whole)

    def test_fixed_seed_replays_identical_matrices(self):
        a = gp.haar_su_batch(_sampler(3), 32)
        b = gp.haar_su_batch(_sampler(3), 32)
        assert np.array_equal(a, b)

    def test_first_entry_moment_matches_sphere_oracle(self):
        # The first column is uniform on the unit sphere of C^2, so
        # |u11|^2 is uniform on [0, 1] with mean one half.
        us = gp.haar_su_batch(_sampler(11), 100_000)
        assert abs(np.mean(np.abs(us[:, 0, 0]) ** 2) - 0.5) <= 0.005
        assert abs(np.mean(np.abs(us[:, 1, 0]) ** 2) - 0.5) <= 0.005

    def test_trace_distribution_invariant_under_translation(self):
        # Two-sample Kolmogorov-Smirnov on tr(V U') against tr(U) over
        # disjoint draw windows, below the 1 percent critical value.
        m = 100_000
        us = gp.haar_su_batch(_sampler(13), m)
        vs = gp.haar_su_batch(_sampler(13).advanced(m), m)
        fixed = gp.haar_su(_sampler(99))
        a = np.sort(np.real(np.trace(us, axis1=1, axis2=2)))
        b = np.sort(np.real(np.trace(fixed @ vs, axis1=1, axis2=2)))
        grid = np.concatenate([a, b])
        cdf_a = np.searchsorted(a, grid, side="right") / m
        cdf_b = np.searchsorted(b, grid, side="right") / m
        statistic = np.max(np.abs(cdf_a - cdf_b))
        assert statistic < 1.628 * math.sqrt(2.0 * m / (m * m))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_su3_first_entry_follows_beta_1_2(self, seed):
        # The first column is uniform on the unit sphere of C^3, so
        # |u11|^2 has the Beta(1, 2) law, with CDF 1 - (1 - x)^2. One-sample
        # Kolmogorov-Smirnov, below the 1 percent critical value.
        m = 50_000
        x = np.sort(np.abs(gp.haar_su_batch(gp.HaarSampler(3, seed), m)[:, 0, 0]) ** 2)
        cdf = 1.0 - (1.0 - x) ** 2
        steps = np.arange(1, m + 1) / m
        statistic = max(np.max(steps - cdf), np.max(cdf - (steps - 1.0 / m)))
        assert statistic < 1.628 / math.sqrt(m)

    def test_dimension_three_is_supported(self):
        us = gp.haar_su_batch(gp.HaarSampler(3, 5), 200)
        gram = np.einsum("kij,kil->kjl", us.conj(), us)
        assert np.max(np.abs(gram - np.eye(3))) <= gp.UNITARY_TOL
        assert np.max(np.abs(np.linalg.det(us) - 1.0)) <= gp.UNITARY_TOL

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gp.HaarSampler(0, 1)
        with pytest.raises(ValueError):
            gp.HaarSampler(2, 1, -1)
        with pytest.raises(ValueError):
            gp.haar_su_batch(_sampler(1), 0)


_UNKNOWN_SPIN = "^unknown action 'spin'; choose from \\('conjugation', 'translation'\\)$"
_NOT_POSITIVE = "^the ball radius must be positive$"
_ONE_POINT = DiscreteSequence(sln(2), (np.array([[2.0, 1.0], [1.0, 1.0]], dtype=np.complex128),))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: gp.HaarSampler(0, 1), "^dimension must be at least 1$"),
        (lambda: gp.HaarSampler(2, 1, -1), "^draw index must be nonnegative$"),
        (lambda: gp.haar_su_batch(_sampler(1), 0), "^batch needs at least one draw$"),
        (lambda: gp.measure_estimates([_diag(2.0)], 1.0, 0, _sampler(1)),
         "^need at least one sample$"),
        (lambda: gp.measure_estimates([_diag(2.0)], 1.0, 10, _sampler(1), "spin"),
         _UNKNOWN_SPIN),
        (lambda: gp.measure_estimates([_diag(2.0)], 0.0, 10, _sampler(1)), _NOT_POSITIVE),
        (lambda: gp.measure_estimates([_diag(2.0)], -1.0, 10, _sampler(1)), _NOT_POSITIVE),
        (lambda: gp.measure_estimates([_diag(2.0)], math.nan, 10, _sampler(1)), _NOT_POSITIVE),
        (lambda: gp.g_estimate(-1.0, 4, 10, _sampler(1)), _NOT_POSITIVE),
        (lambda: gp.mc_report_row("spin", _diag(2.0), 1.0, gp.MCEstimate(0.5, 0.1, 10, 0)),
         _UNKNOWN_SPIN),
        (lambda: gp.omega_check(_ONE_POINT, 0, _sampler(1)),
         "^need at least one sampled twist$"),
    ],
    ids=[
        "dimension", "counter", "batch", "samples", "action",
        "radius-zero", "radius-negative", "radius-nan", "g-radius",
        "row-action", "omega-samples",
    ],
)
def test_parameter_errors_are_typed(call, message):
    with pytest.raises(BadParams, match=message):
        call()


def _haar_su_qr(sampler: gp.HaarSampler, count: int) -> np.ndarray:
    """Reference: the QR factor of the Ginibre matrix with R's diagonal
    phases moved into Q and the determinant scaled to one, for every n."""
    n = sampler.n
    u = sampler.raw_uniforms(count)
    radial = u[:, : n * n]
    angular = u[:, n * n :]
    ginibre = np.sqrt(-np.log1p(-radial)) * np.exp(2j * math.pi * angular)
    q, r = np.linalg.qr(ginibre.reshape(count, n, n))
    diag = np.diagonal(r, axis1=1, axis2=2)
    mags = np.abs(diag)
    phases = np.where(mags > 0.0, diag / np.where(mags > 0.0, mags, 1.0), 1.0)
    q = q * phases[:, None, :]
    det = np.linalg.det(q)
    fix = np.exp(-1j * np.angle(det) / n) / np.abs(det) ** (1.0 / n)
    return q * fix[:, None, None]


class TestClosedFormDraws:
    def test_su2_matches_qr_up_to_one_sign_per_draw(self):
        for seed in (0, 7, 21, 101):
            got = gp.haar_su_batch(_sampler(seed, 1000), 30_000)
            want = _haar_su_qr(_sampler(seed, 1000), 30_000)
            same = np.max(np.abs(got - want), axis=(1, 2))
            flipped = np.max(np.abs(got + want), axis=(1, 2))
            assert np.max(np.minimum(same, flipped)) <= 1e-13

    def test_dimension_three_is_the_qr_construction(self):
        sampler = gp.HaarSampler(3, 5, 17)
        assert np.array_equal(gp.haar_su_batch(sampler, 300), _haar_su_qr(sampler, 300))

    def test_twist_matches_the_matrix_product(self):
        ks = gp.haar_su_batch(_sampler(4), 1000)
        v = np.array([[3.0 + 1j, -2.0], [0.5j, 7.0 - 2j]])
        want = np.einsum("kji,jl,klm->kim", ks.conj(), v, ks)
        assert np.max(np.abs(gp._conjugate(ks, v) - want)) <= 1e-13 * np.linalg.norm(v)

    def test_estimates_agree_with_qr_draws(self, monkeypatch):
        def estimates():
            measure = [
                gp.measure_estimate(v, r, 20_000, _sampler(3))
                for v in (_diag(10.0), _diag(100.0), np.array([1.0, 2j, -1.0, 0.5]))
                for r in (4.0, 150.0)
            ]
            g = gp.g_estimate(0.25, 8, 2000, _sampler(0))
            return measure, g, gp.threshold_estimate(3, samples_per_level=2000, seed=1)

        closed_form = estimates()
        monkeypatch.setattr(gp, "haar_su_batch", _haar_su_qr)
        assert estimates() == closed_form


def _chart_norms(ks: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Reference: the norms of embed(k^H v k), conjugating every draw."""
    return np.linalg.norm(gp.InvariantEmbedding().embed_batch(gp._conjugate(ks, v)), axis=-1)


class TestColumnStream:
    """Conjugation tail norms from the first column of each draw."""

    @pytest.mark.parametrize("draws", [gp.haar_su_batch, _haar_su_qr], ids=["closed-form", "qr"])
    def test_norms_match_the_conjugated_chart(self, draws):
        rng = stream(31, "column-norms")
        probes = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4)]
        probes += [_diag(scale) for scale in (1.5, 10.0, 1e3, 1e6)]
        ks = draws(_sampler(31, 500), 20_000)
        for v in probes:
            got = gp._conjugation_norms(v, ks[:, :, 0])
            assert np.max(np.abs(got / _chart_norms(ks, v) - 1.0)) <= 1e-14

    def test_the_column_stream_holds_the_draws_first_columns(self):
        # equal up to one phase per row, which leaves every norm unchanged
        ks = gp.haar_su_batch(_sampler(32, 70), 20_000)
        columns = np.concatenate(list(gp._column_blocks(_sampler(32, 70), 20_000)))
        units = columns / np.linalg.norm(columns, axis=1, keepdims=True)
        phases = ks[:, 0, 0] / units[:, 0]
        assert np.max(np.abs(np.abs(phases) - 1.0)) <= 1e-14
        assert np.max(np.abs(units * phases[:, None] - ks[:, :, 0])) <= 1e-14
        for v in (_diag(10.0), _diag(1e6), np.array([[3.0 + 1j, -2.0], [0.5j, 7.0 - 2j]])):
            got = gp._conjugation_norms(v, columns)
            assert np.max(np.abs(got / _chart_norms(ks, v) - 1.0)) <= 1e-14

    def test_estimates_are_hit_counts_over_qr_draws(self):
        vs = [_diag(1.5), _diag(3.0), _diag(10.0), 4.0 * gp._unit_probes(5, 1)[0]]
        for seed, r in ((4, 2.5), (9, 6.0)):
            ks = _haar_su_qr(_sampler(seed), 20_000)
            hits = [int(np.count_nonzero(_chart_norms(ks, v) < r)) for v in vs]
            assert any(0 < h < 20_000 for h in hits)
            assert gp.measure_estimates(vs, r, 20_000, _sampler(seed)) == [
                gp.MCEstimate.from_hits(h, 20_000, seed) for h in hits
            ]
        # every probe of the envelope owns the window after the previous one's
        probes = gp._unit_probes(2, 8)
        hits = [
            int(np.count_nonzero(_chart_norms(_haar_su_qr(_sampler(2, j * 2000), 2000), v) < 0.25))
            for j, v in enumerate(probes)
        ]
        assert 0 < max(hits) < 2000
        assert gp.g_estimate(0.25, 8, 2000, _sampler(2)).estimate == max(hits) / 2000

    def test_conjugation_estimates_build_no_twist(self, monkeypatch):
        vs = [_diag(3.0), 4.0 * gp._unit_probes(5, 1)[0]]

        def estimates():
            return (
                gp.measure_estimates(vs, 2.5, 3000, _sampler(4)),
                gp.g_estimate(0.25, 4, 1000, _sampler(2)),
                gp.threshold_estimate(2, samples_per_level=1000, sphere_probes=3, seed=1),
            )

        want = estimates()

        def refuse(sampler, count):
            raise AssertionError("a conjugation tail drew a twist matrix")

        monkeypatch.setattr(gp, "haar_su_batch", refuse)
        assert estimates() == want
        # the patch bites where twists are still built
        with pytest.raises(AssertionError, match="twist matrix"):
            next(gp._draw_blocks(_sampler(4), 10, 4))

    def test_the_column_stream_follows_the_haar_law(self):
        # t = g00^2 / |g|^2 is uniform on [0, 1], and the relative phase
        # arg g10 is uniform and independent of t: the law of the first
        # column of a Haar SU(2) draw, which the conjugation norms read
        m = 200_000
        g = np.concatenate(list(gp._column_blocks(_sampler(34), m)))
        assert np.all(g[:, 0].imag == 0.0) and np.all(g[:, 0].real >= 0.0)
        t = g[:, 0].real ** 2 / (g[:, 0].real ** 2 + np.abs(g[:, 1]) ** 2)
        phi = np.angle(g[:, 1])
        for x in (t, (phi + math.pi) / (2.0 * math.pi)):
            assert _ks_uniform(x) < 1.628 / math.sqrt(m)
        low, high = phi[t < 0.5], phi[t >= 0.5]
        bound = 1.628 * math.sqrt((len(low) + len(high)) / (len(low) * len(high)))
        assert _ks_two_sample(low, high) < bound

    def test_a_scaled_probe_counts_as_the_unscaled_one(self):
        # norms of 2^p v are 4^p times those of v; at p = 500 the chart's
        # squares would overflow without the power-of-two scaling
        rng = stream(33, "scaled-probes")
        estimates = []
        for _ in range(3):
            v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for r in (1.0, 3.0):
                want = gp.measure_estimate(v, r, 4000, _sampler(6))
                estimates.append(want.estimate)
                for power in (3, 200, 500):
                    with np.errstate(all="raise"):
                        got = gp.measure_estimate(v * 2.0**power, r * 4.0**power, 4000, _sampler(6))
                    assert got == want
        assert any(0.0 < e < 1.0 for e in estimates)


def _ks_uniform(x: np.ndarray) -> float:
    """The one-sample Kolmogorov-Smirnov distance of x from U[0, 1]."""
    x = np.sort(x)
    ranks = np.arange(1, len(x) + 1) / len(x)
    return float(max(np.max(ranks - x), np.max(x - (ranks - 1.0 / len(x)))))


def _ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """The two-sample Kolmogorov-Smirnov distance of a and b."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def _per_draw_norms(v: np.ndarray, ks: np.ndarray, action: str) -> np.ndarray:
    """Reference: the tail norms of a probe that no twist moves, taken as
    the estimators once did, moving the probe by each twist in ks. A 2 by
    2 probe is left-translated; a tuple acts as a 2 by 2 array."""
    if v.shape == (2, 2):
        return np.linalg.norm(gp.InvariantEmbedding().embed_batch(ks @ v), axis=-1)
    w = v.reshape(2, 2)
    if action == "conjugation":
        moved = gp._conjugate(ks, w)
    else:
        moved = np.einsum("kij,jl,kml->kim", ks, w, ks)
    return np.linalg.norm(moved.reshape(len(ks), 4), axis=-1)


def _fixed_norm(v: np.ndarray) -> float:
    """The norm no twist moves: of the embedded 2 by 2 probe, or of the tuple."""
    return float(np.linalg.norm(gp.InvariantEmbedding().embed_batch(v) if v.shape == (2, 2) else v))


def _refuse_draws(monkeypatch) -> None:
    def refuse(self, count):
        raise AssertionError("a tail of fixed norm drew")

    monkeypatch.setattr(gp.HaarSampler, "raw_uniforms", refuse)


# (probe shape, action) of the tail events whose norm no twist moves
_FIXED_CASES = [((2, 2), "translation"), ((4,), "conjugation"), ((4,), "translation")]


def _fixed_probes(seed: int, count: int):
    """(probe, action) pairs cycling through `_FIXED_CASES`, at entry
    scales from 1e-3 to 1e3."""
    rng = stream(seed, "fixed-norm-probes")
    for j in range(count):
        shape, action = _FIXED_CASES[j % len(_FIXED_CASES)]
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        yield scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)), action


class TestFixedNormTails:
    """A 2 by 2 probe under translation, and a tuple under either action,
    answered from the probe without a draw."""

    @pytest.mark.parametrize("shape, action", _FIXED_CASES)
    def test_estimates_draw_nothing(self, monkeypatch, shape, action):
        v = np.arange(1, 5).reshape(shape) * (1.0 + 0.5j)
        _refuse_draws(monkeypatch)
        r = 2.0 * _fixed_norm(v)
        ests = gp.measure_estimates([v, 3.0 * v], r, 200_000, _sampler(3), action)
        assert ests == [gp.MCEstimate(1.0, 0.0, 200_000, 3), gp.MCEstimate(0.0, 0.0, 200_000, 3)]
        if shape == (2, 2):
            hit = any(_fixed_norm(u) < 0.3 for u in gp._unit_probes(0, 16))
            est = gp.g_estimate(0.3, 16, 50_000, _sampler(0), action)
            assert est == gp.MCEstimate(float(hit), 0.0, 50_000, 0)

    def test_the_fixed_norm_is_the_boundary(self, monkeypatch):
        # the ball is open: the estimate is 1 just above the norm and 0 at it
        _refuse_draws(monkeypatch)
        for v, action in _fixed_probes(35, 30):
            norm = _fixed_norm(v)
            above = gp.measure_estimate(v, math.nextafter(norm, math.inf), 500, _sampler(5), action)
            assert above == gp.MCEstimate(1.0, 0.0, 500, 5)
            at = gp.measure_estimate(v, norm, 500, _sampler(5), action)
            assert at == gp.MCEstimate(0.0, 0.0, 500, 5)

    def test_estimates_off_the_boundary_are_the_per_draw_counts(self, monkeypatch):
        rng = stream(36, "fixed-norm-radii")
        cases = []
        for j, (v, action) in enumerate(_fixed_probes(36, 50)):
            norm = _fixed_norm(v)
            r = norm * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-11.5, -0.3))
            assert abs(r / norm - 1.0) > 1e-12
            sampler = _sampler(37, 300 * j)
            hits = np.count_nonzero(_per_draw_norms(v, gp.haar_su_batch(sampler, 300), action) < r)
            cases.append((v, action, r, sampler, gp.MCEstimate.from_hits(int(hits), 300, 37)))
        assert {est.estimate for *_, est in cases} == {0.0, 1.0}
        _refuse_draws(monkeypatch)
        for v, action, r, sampler, want in cases:
            assert gp.measure_estimate(v, r, 300, sampler, action) == want


class TestInvariantEmbedding:
    def test_products_of_entries(self):
        g = np.array([[1.0, 2.0], [0.5, 3.0]], dtype=np.complex128)
        assert np.allclose(gp.InvariantEmbedding().embed_batch(g), [2.0, 3.0, 1.0, 1.5])

    def test_right_torus_invariance(self):
        chart = gp.InvariantEmbedding()
        g = np.array([[1.0 + 1j, 2.0], [0.5, 3.0 - 2j]])
        for t in (3.0, 0.25, np.exp(1j * 0.7), 2.0 * np.exp(-1j * 1.1)):
            torus = np.diag([t, 1.0 / t])
            assert np.max(np.abs(chart.embed_batch(g @ torus) - chart.embed_batch(g))) <= 1e-12

    def test_determinant_survives_as_coordinate_difference(self):
        chart = gp.InvariantEmbedding()
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            w = chart.embed_batch(g)
            det = g[0, 0] * g[1, 1] - g[1, 0] * g[0, 1]
            assert abs(w[1] - w[2] - det) <= 1e-10

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.5, 2.0), st.floats(-3.0, 3.0))
    def test_invariance_for_arbitrary_torus_elements(self, mod, arg):
        chart = gp.InvariantEmbedding()
        g = np.array([[1.0 + 1j, -2.0], [0.5j, 3.0]])
        t = mod * np.exp(1j * arg)
        torus = np.diag([t, 1.0 / t])
        assert np.max(np.abs(chart.embed_batch(g @ torus) - chart.embed_batch(g))) <= 1e-12

    def test_only_dimension_two_exists(self):
        with pytest.raises(AmbientMismatch):
            gp.InvariantEmbedding(3)


class TestMCEstimate:
    def test_binomial_standard_error(self):
        est = gp.MCEstimate.from_hits(30, 400, seed=5)
        assert est.estimate == 30 / 400
        assert est.stderr == math.sqrt(0.075 * 0.925 / 400)
        assert est.samples == 400 and est.seed == 5

    def test_degenerate_proportions_have_zero_error(self):
        assert gp.MCEstimate.from_hits(0, 100, 0).stderr == 0.0
        assert gp.MCEstimate.from_hits(100, 100, 0).stderr == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            gp.MCEstimate(1.5, 0.0, 10, 0)
        with pytest.raises(ValueError):
            gp.MCEstimate(0.5, -0.1, 10, 0)
        with pytest.raises(ValueError):
            gp.MCEstimate(0.5, 0.1, 0, 0)

    def test_json_shape(self):
        blob = gp.MCEstimate.from_hits(1, 4, 9).to_json()
        assert set(blob) == {"estimate", "stderr", "samples", "seed"}


class TestMeasureEstimate:
    def test_huge_radius_catches_everything(self):
        est = gp.measure_estimate(_diag(1000.0), 1e9, 200, _sampler(0))
        assert est.estimate == 1.0

    def test_the_least_positive_radius_catches_nothing(self):
        # a radius at or below zero is refused (test_parameter_errors_are_typed)
        est = gp.measure_estimate(_diag(10.0), math.ulp(0.0), 200, _sampler(0))
        assert est.estimate == 0.0

    def test_zero_probe_rejected(self):
        with pytest.raises(ZeroVector):
            gp.measure_estimate(np.zeros((2, 2)), 1.0, 10, _sampler(0))

    def test_shape_and_action_validation(self):
        with pytest.raises(DimensionMismatch):
            gp.measure_estimate(np.ones(3), 1.0, 10, _sampler(0))
        with pytest.raises(ValueError):
            gp.measure_estimate(_diag(2.0), 1.0, 10, _sampler(0), action="spin")
        with pytest.raises(AmbientMismatch):
            gp.measure_estimate(_diag(2.0), 1.0, 10, gp.HaarSampler(3, 0))

    def test_events_nest_exactly_in_radius(self):
        values = [
            gp.measure_estimate(_diag(10.0), r, 2000, _sampler(6)).estimate
            for r in (0.5, 1.0, 2.0, 5.0, 20.0, 60.0)
        ]
        assert values == sorted(values)

    def test_group_points_never_enter_the_unit_ball(self):
        # The tuple norm is the product of the column norms, which
        # Cauchy-Schwarz bounds below by |det| = 1 on the group; no
        # twist can move a group point inside radius one.
        for scale in (10.0, 100.0, 1000.0):
            est = gp.measure_estimate(_diag(scale), 1.0, 10_000, _sampler(3))
            assert est.estimate == 0.0

    def test_decay_is_strict_above_the_floor(self):
        # Same probes one radius up: the tail event has mass about
        # 18 (r/R^2)^2 per branch, so 10^4 samples resolve a strictly
        # decreasing triple at r = 150.
        ests = [
            gp.measure_estimate(_diag(scale), 150.0, 10_000, _sampler(3)).estimate
            for scale in (10.0, 100.0, 1000.0)
        ]
        assert ests[0] > ests[1] > ests[2]
        assert ests[0] == 1.0
        assert ests == [1.0, 0.0005, 0.0]

    def test_translation_action_is_an_exact_indicator(self):
        # Left translation moves both columns by the same unitary, so
        # the tuple norm never depends on the draw.
        g = _diag(2.0)
        above = gp.measure_estimate(g, 1.0001, 50, _sampler(1), action="translation")
        below = gp.measure_estimate(g, 0.9999, 50, _sampler(1), action="translation")
        assert above.estimate == 1.0
        assert below.estimate == 0.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 2.0))
    def test_embedded_mode_event_inclusion_is_exact(self, seed, radius):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = v + 0.1 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        eps = float(np.linalg.norm(v - w))
        sampler = _sampler(seed % 997)
        left = gp.measure_estimate(v, radius, 200, sampler)
        right = gp.measure_estimate(w, radius + eps + 1e-9, 200, sampler)
        assert left.estimate <= right.estimate

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 4.0))
    def test_matrix_mode_event_inclusion_with_quadratic_slack(self, seed, radius):
        # The chart is quadratic, so the inclusion radius grows by the
        # gap times the sum of the input norms.
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        w = v + 0.05 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        gap = float(np.linalg.norm(v - w))
        slack = gap * (np.linalg.norm(v) + np.linalg.norm(w)) + 1e-9
        sampler = _sampler(seed % 991)
        left = gp.measure_estimate(v, radius, 200, sampler)
        right = gp.measure_estimate(w, radius + slack, 200, sampler)
        assert left.estimate <= right.estimate

    def test_shared_window_equals_single_calls(self):
        vs = [_diag(10.0), _diag(100.0), np.array([1.0, 2j, -1.0, 0.5])]
        for action in gp.ACTIONS:
            shared = gp.measure_estimates(vs, 150.0, 5000, _sampler(8), action)
            assert shared == [
                gp.measure_estimate(v, 150.0, 5000, _sampler(8), action) for v in vs
            ]

    def test_report_row_matches_csv_columns(self):
        est = gp.measure_estimate(_diag(10.0), 1.0, 100, _sampler(2))
        row = gp.mc_report_row("conjugation", _diag(10.0), 1.0, est)
        assert tuple(row) == gp.MC_CSV_COLUMNS
        assert row["v_norm"] == pytest.approx(np.sqrt(100.0 + 0.01))
        with pytest.raises(ValueError):
            gp.mc_report_row("spin", _diag(10.0), 1.0, est)


class TestGEstimate:
    def test_radius_above_sup_bound_saturates(self):
        # Conjugation preserves the entry norm, so a unit probe's two
        # columns square-sum to one and the tuple norm stays under 1/2.
        est = gp.g_estimate(0.6, 8, 500, _sampler(0))
        assert est.estimate == 1.0

    def test_envelope_nonincreasing_under_halving(self):
        values = [
            gp.g_estimate(r, 8, 2000, _sampler(0)).estimate
            for r in (0.5, 0.25, 0.125)
        ]
        assert values[0] >= values[1] >= values[2]
        assert values == [1.0, 0.0705, 0.0]

    def test_small_radius_envelope_regression(self):
        est = gp.g_estimate(0.01, 8, 10_000, _sampler(0))
        # Frozen from the shipped run; every probe determinant is far
        # above the radius, so the envelope vanishes outright.
        assert est.estimate <= 0.2
        assert est.estimate == 0.0

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            gp.g_estimate(0.0, 4, 100, _sampler(0))
        with pytest.raises(ValueError):
            gp.g_estimate(1.0, 0, 100, _sampler(0))

    def test_saturated_envelope_draws_one_window(self, monkeypatch):
        drawn = _count_draws(monkeypatch)
        est = gp.g_estimate(1.0, 8, 2000, _sampler(0))
        assert est == gp.MCEstimate(1.0, 0.0, 2000, 0)
        assert drawn == [2000]

    def test_a_probe_stops_mid_window(self, monkeypatch):
        # 10000 draws are blocks of 4096, 4096 and 1808; one later probe
        # cannot beat the best with its last block undrawn
        drawn = _count_draws(monkeypatch)
        est = gp.g_estimate(0.4, 8, 10_000, _sampler(1))
        assert sum(drawn) == 8 * 10_000 - 1808
        assert est == _full_envelope(0.4, 8, 10_000, _sampler(1), "conjugation")

    def test_a_probe_can_win_on_its_last_draw(self, monkeypatch):
        # ten draws a probe: probe 7 beats the best of 3 hits by one, the
        # hit of its last draw, so a bound one hit tighter would lose it
        monkeypatch.setattr(gp, "_DRAW_BLOCK", 1)
        est = gp.g_estimate(0.4, 8, 10, _sampler(0))
        assert est.estimate == 0.4
        assert est == _full_envelope(0.4, 8, 10, _sampler(0), "conjugation")

    def test_parameters_are_checked_before_any_draw(self, monkeypatch):
        drawn = _count_draws(monkeypatch)
        with pytest.raises(BadParams, match="^need at least one sample$"):
            gp.g_estimate(1.0, 4, 0, _sampler(0))
        with pytest.raises(BadParams, match="^unknown action 'spin'"):
            gp.g_estimate(1.0, 4, 100, _sampler(0), "spin")
        assert drawn == []


def _count_draws(monkeypatch) -> list[int]:
    """The row counts of every `raw_uniforms` call from here on."""
    drawn: list[int] = []
    raw_uniforms = gp.HaarSampler.raw_uniforms

    def counting(self, count):
        drawn.append(count)
        return raw_uniforms(self, count)

    monkeypatch.setattr(gp.HaarSampler, "raw_uniforms", counting)
    return drawn


def _full_envelope(r, probes, samples, sampler, action) -> gp.MCEstimate:
    """Reference: every probe counted over its whole window, the first
    best kept on ties."""
    ests = [
        gp.measure_estimate(v, r, samples, sampler.advanced(j * samples), action)
        for j, v in enumerate(gp._unit_probes(sampler.seed, probes))
    ]
    return max(ests, key=lambda est: est.estimate)


@pytest.fixture(params=[1, 7, 1 << 20], ids=lambda b: f"block{b}")
def draw_block(request, monkeypatch):
    """Every estimator streams its draws in blocks of this many."""
    monkeypatch.setattr(gp, "_DRAW_BLOCK", request.param)
    return request.param


class TestDrawBlocks:
    """The exact estimates, at blocks of one draw, of seven, and of more
    draws than any window holds."""

    def test_blocks_join_to_the_window(self, draw_block):
        blocks = list(gp._draw_blocks(_sampler(5, 3), 1000, draw_block))
        assert max(len(ks) for ks in blocks) == min(draw_block, 1000)
        assert np.array_equal(np.concatenate(blocks), gp.haar_su_batch(_sampler(5, 3), 1000))

    def test_column_blocks_join_to_the_window(self, draw_block):
        blocks = list(gp._column_blocks(_sampler(5, 3), 1000))
        assert max(len(g) for g in blocks) == min(draw_block, 1000)
        u = _sampler(5, 3).raw_uniforms(1000)
        moduli = np.sqrt(-np.log1p(-u[:, [0, 2]]))
        phase = np.exp(2j * math.pi * (u[:, 6] - u[:, 4]))
        want = np.stack([moduli[:, 0] + 0j, moduli[:, 1] * phase], axis=1)
        assert np.array_equal(np.concatenate(blocks), want)

    def test_omega_report(self, draw_block):
        rng = stream(21, "omega-blocks")
        x = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=np.complex128)
        pts = [x, -x]
        for _ in range(10):
            a, b, c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            pts.append(np.array([[a, c], [b, (1.0 + b * c) / a]]))
        d = DiscreteSequence(sln(2), tuple(pts))
        report = gp.omega_check(d, 60, _sampler(3), min_gap=2.0)
        assert report.failures == _omega_failures_loop(d, 60, _sampler(3), 2.0)
        assert 0.0 < report.fraction < 1.0

    def test_measure_estimates_count_every_input_per_block(self, draw_block):
        TestMeasureEstimate().test_decay_is_strict_above_the_floor()
        vs = [_diag(10.0), _diag(100.0), np.array([1.0, 2j, -1.0, 0.5])]
        for action in gp.ACTIONS:
            shared = gp.measure_estimates(vs, 150.0, 700, _sampler(8), action)
            assert shared == [gp.measure_estimate(v, 150.0, 700, _sampler(8), action) for v in vs]

    def test_g_envelope(self, draw_block):
        TestGEstimate().test_envelope_nonincreasing_under_halving()

    @pytest.mark.parametrize("r", [0.25, 0.6, 1.0, 4.0])
    @pytest.mark.parametrize("action", gp.ACTIONS)
    def test_g_bound_matches_the_full_envelope(self, draw_block, r, action):
        for seed in (0, 1):
            est = gp.g_estimate(r, 6, 300, _sampler(seed), action)
            assert est == _full_envelope(r, 6, 300, _sampler(seed), action)

    def test_threshold_radii(self, draw_block):
        th = gp.threshold_estimate(2, samples_per_level=1500, sphere_probes=3, seed=4)
        assert th.rhat == (1.7514090955807742, 2.923050884052409)

    def test_measure_memory_does_not_grow_with_samples(self, traced_peak):
        # the whole 200k window at once peaked at 58.7 MiB
        vs = [_diag(10.0), _diag(100.0)]
        _, peak = traced_peak(gp.measure_estimates, vs, 150.0, 200_000, _sampler(3))
        assert peak < 8 * 2**20

    def test_threshold_holds_one_norm_per_draw(self, traced_peak):
        # 8 probes x 200k norms are 12.2 MiB; a stacked or partitioned
        # copy of them peaked at 24.4 MiB
        th, peak = traced_peak(
            lambda: gp.threshold_estimate(3, samples_per_level=200_000, seed=0)
        )
        assert len(th) == 3
        assert peak < 18 * 2**20

    def test_omega_memory_does_not_grow_with_samples(self, traced_peak):
        # the whole 80k x 8 image table at once peaked at 62.9 MiB
        d = DiscreteSequence(sln(2), tuple(_diag(float(2**j)) for j in range(1, 9)))
        report, peak = traced_peak(gp.omega_check, d, 80_000, _sampler(5))
        assert report.fraction == 1.0
        assert peak < 24 * 2**20


class TestThresholdEstimateType:
    def test_json_round_trip(self):
        th = gp.ThresholdEstimate((1.0, 2.0), (0.25, 0.125), 500, 4, seed=9)
        blob = th.to_json()
        assert set(blob) == {"R", "delta", "config"}
        assert blob["config"] == {
            "samples_per_level": 500,
            "sphere_probes": 4,
            "seed": 9,
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            gp.ThresholdEstimate((2.0, 1.0), (0.25, 0.125), 10, 2)
        with pytest.raises(ValueError):
            gp.ThresholdEstimate((1.0,), (0.25, 0.125), 10, 2)
        with pytest.raises(ValueError):
            gp.ThresholdEstimate((), (), 10, 2)
        with pytest.raises(ValueError):
            gp.ThresholdEstimate((-1.0,), (0.25,), 10, 2)


class TestThresholdSearch:
    def test_budgets_follow_the_halving_schedule(self):
        th = gp.threshold_estimate(5, seed=0)
        assert th.delta == (0.25, 0.125, 0.0625, 0.03125, 0.015625)
        assert len(th) == 5

    def test_radii_nondecreasing_with_frozen_regression(self):
        th = gp.threshold_estimate(5, seed=0)
        assert list(th.rhat) == sorted(th.rhat)
        assert np.allclose(
            th.rhat, (1.703125, 2.6875, 3.71875, 4.5, 5.21875), rtol=0.05
        )

    def test_levels_share_one_window_per_probe(self):
        # The first level of a deep run reproduces a one-level run
        # exactly: every level reads the same window per probe, and a
        # level's radius depends only on its own budget.
        deep = gp.threshold_estimate(3, seed=0)
        shallow = gp.threshold_estimate(1, seed=0)
        assert deep.rhat[0] == shallow.rhat[0]

    @pytest.mark.parametrize("levels", [1, 5])
    def test_every_level_reads_the_same_draws(self, monkeypatch, levels):
        drawn = _count_draws(monkeypatch)
        gp.threshold_estimate(levels, samples_per_level=5000, sphere_probes=3, seed=0)
        assert sum(drawn) == 3 * 5000

    @pytest.mark.parametrize("m", [20, 1500, 2000, 8193, 10_000])
    def test_passing_counts_form_a_prefix(self, m):
        # the guard as a scalar expression, over every count of a window
        for level in range(1, 21):
            budget = 2.0 ** -(level + 1)
            passing = [
                k for k in range(m + 1)
                if k / m + 3.0 * math.sqrt(k / m * (1.0 - k / m) / m) < budget
            ]
            assert passing == list(range(gp._passing_counts(budget, m)))

    @pytest.mark.parametrize("levels, m, probes, seed", [
        (5, 10_000, 8, 0), (5, 10_000, 8, 1), (5, 10_000, 8, 7),
        (3, 2000, 8, 0), (2, 1500, 3, 4), (4, 8193, 3, 0),
    ])
    def test_each_radius_is_the_least_float_that_clears(self, levels, m, probes, seed):
        th = gp.threshold_estimate(levels, samples_per_level=m, sphere_probes=probes, seed=seed)
        clears = _clears(m, probes, seed)
        own = 0
        for level, radius in enumerate(th.rhat, start=1):
            assert clears(radius, level)
            # a radius above the last is the level's own, not the running maximum
            if level == 1 or radius > th.rhat[level - 2]:
                own += 1
                assert not clears(math.nextafter(radius, 0.0), level)
        assert own >= 2

    def test_the_cap_is_compared_with_the_exact_radius(self, monkeypatch):
        top = gp.threshold_estimate(3, samples_per_level=2000, seed=0).rhat[-1]
        monkeypatch.setattr(gp, "RADIUS_CAP", top)
        assert gp.threshold_estimate(3, samples_per_level=2000, seed=0).rhat[-1] == top
        monkeypatch.setattr(gp, "RADIUS_CAP", math.nextafter(top, 0.0))
        with pytest.raises(SearchExhausted, match="meets the level-3 tail budget$"):
            gp.threshold_estimate(3, samples_per_level=2000, seed=0)

    def test_sanity_points_escape_simultaneously(self):
        # Points twice as far as the estimated radii: the budgets sum
        # to under one half, so a sampled twist pushing every level
        # past its height appears well within a thousand draws.
        th = gp.threshold_estimate(5, samples_per_level=10_000, seed=0)
        probes = gp._unit_probes(0, 8)
        chart = gp.InvariantEmbedding()
        ks = gp.haar_su_batch(gp.HaarSampler(2, 123), 1000)
        ok = np.ones(1000, dtype=bool)
        for level in range(1, 6):
            point = 2.0 * th.rhat[level - 1] * probes[(level - 1) % 8]
            moved = np.einsum("kji,jl,klm->kim", ks.conj(), point, ks)
            heights = np.linalg.norm(chart.embed_batch(moved), axis=-1)
            ok &= heights >= level
        assert int(ok.sum()) >= 1

    def test_cap_exhaustion_raises(self, monkeypatch):
        # The shipped event always clears the budget at finite radius,
        # so exercising the guard narrows the cap below the bracket.
        monkeypatch.setattr(gp, "RADIUS_CAP", 0.5)
        with pytest.raises(SearchExhausted):
            gp.threshold_estimate(1, samples_per_level=200, seed=0)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            gp.threshold_estimate(0)
        with pytest.raises(ValueError):
            gp.threshold_estimate(1, samples_per_level=0)


def _clears(m, probes, seed):
    """Reference: the guarded predicate of level L at radius R, counted
    over each probe's whole window of unit norms."""
    base = gp.HaarSampler(2, seed)
    norms = [
        np.concatenate([gp._conjugation_norms(v, g)
                        for g in gp._column_blocks(base.advanced(j * m), m)])
        for j, v in enumerate(gp._unit_probes(seed, probes))
    ]

    def clears(radius, level):
        budget = 2.0 ** -(level + 1)
        ps = (np.count_nonzero(radius * radius * n < level) / m for n in norms)
        return all(p + 3.0 * math.sqrt(p * (1.0 - p) / m) < budget for p in ps)

    return clears


def _omega_failures_loop(d, k_samples, sampler, min_gap, max_fiber=gp.MAX_FIBER):
    """Reference: the m x m central-ratio table and the relabelling after
    each close pair that union-find and the lazy ratio test replace."""
    points = d.array
    m = len(points)
    central = np.zeros((m, m), dtype=bool)
    for i in range(m):
        a, c = points[i, 0, 0], points[i, 0, 1]
        b, e = points[i, 1, 0], points[i, 1, 1]
        ratios = np.array([[e, -c], [-b, a]]) @ points
        plus = np.max(np.abs(ratios - np.eye(2)), axis=(1, 2))
        minus = np.max(np.abs(ratios + np.eye(2)), axis=(1, 2))
        central[i] = np.minimum(plus, minus) <= gp.CENTRAL_RATIO_TOL
    ks = gp.haar_su_batch(sampler, k_samples)
    images = np.empty((k_samples, m, 4), dtype=np.complex128)
    for i in range(m):
        moved = np.einsum("kji,jl,klm->kim", ks.conj(), points[i], ks)
        images[:, i, :] = gp.InvariantEmbedding().embed_batch(moved)
    failures = []
    for t in range(k_samples):
        reason = None
        labels = list(range(m))
        for i in range(m):
            gaps = np.linalg.norm(images[t, i] - images[t, i + 1 :], axis=-1)
            for j in (i + 1 + np.flatnonzero(~(gaps >= min_gap))).tolist():
                if not central[i, j]:
                    reason = f"images {i} and {j} collide but the point ratio is not central"
                    break
                root = labels[i]
                labels = [root if lab == labels[j] else lab for lab in labels]
            if reason is not None:
                break
        if reason is None:
            classes = {}
            for i, lab in enumerate(labels):
                classes.setdefault(f"class-{lab}".encode(), []).append(i)
            verdict = properness_check(
                list(images[t]), min_gap=min_gap, max_fiber=max_fiber, fiber_keys=classes
            )
            if verdict.is_violated:
                reason = verdict.detail
        if reason is not None:
            failures.append((t, reason))
    return tuple(failures)


class TestOmegaCheck:
    def test_diagonal_tower_passes(self):
        pts = tuple(_diag(float(2**j)) for j in range(1, 9))
        d = DiscreteSequence(sln(2), pts, GeneratorInfo.of("diagtorus", count=8))
        report = gp.omega_check(d, 1000, _sampler(5))
        assert report.fraction >= 0.99
        assert report.samples == 1000

    def test_central_pair_is_exempt(self):
        # Negating a matrix flips both columns, so every entry product
        # and hence the image is bit-identical; the ratio -I is central
        # and the collision is allowed.
        m = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=np.complex128)
        d = DiscreteSequence(sln(2), (m, -m))
        report = gp.omega_check(d, 500, _sampler(1))
        assert report.fraction == 1.0
        assert report.failures == ()

    def test_single_point_always_passes(self):
        m = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=np.complex128)
        report = gp.omega_check(DiscreteSequence(sln(2), (m,)), 200, _sampler(2))
        assert report.fraction == 1.0

    def test_non_central_coset_collision_is_diagnosed(self):
        # A pair differing by a small torus factor collides under every
        # twist while its ratio stays away from the center.
        x = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=np.complex128)
        y = x @ np.diag([1.0 + 1e-7, 1.0 / (1.0 + 1e-7)])
        report = gp.omega_check(DiscreteSequence(sln(2), (x, y)), 300, _sampler(4))
        assert report.fraction == 0.0
        index, reason = report.failures[0]
        assert index == 0
        assert "not central" in reason

    def test_fiber_cap_parameter_reaches_properness(self):
        m = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=np.complex128)
        d = DiscreteSequence(sln(2), (m, -m))
        report = gp.omega_check(d, 100, _sampler(1), max_fiber=1)
        assert report.fraction == 0.0
        assert "fiber of size 2" in report.failures[0][1]

    def test_gap_blocks_leave_the_report_unchanged(self, monkeypatch):
        rng = stream(21, "omega-blocks")
        x = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=np.complex128)
        pts = [x, -x]
        for _ in range(10):
            a, b, c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            pts.append(np.array([[a, c], [b, (1.0 + b * c) / a]]))
        d = DiscreteSequence(sln(2), tuple(pts))
        want = gp.omega_check(d, 60, _sampler(3), min_gap=2.0)
        assert 0.0 < want.fraction < 1.0
        for cap in (1, 50, 700):
            monkeypatch.setattr(core, "_PAIR_TABLE_ENTRIES", cap)
            assert gp.omega_check(d, 60, _sampler(3), min_gap=2.0) == want

    @pytest.mark.parametrize("cap", [1, 50, None])
    def test_matches_relabelling_loop(self, monkeypatch, cap):
        # central pairs, chains of them and near-coset pairs under a wide
        # gap, so classes merge across rows and some twists fail
        if cap is not None:
            monkeypatch.setattr(core, "_PAIR_TABLE_ENTRIES", cap)
        rng = stream(23, "omega-union-find")
        failed = passed = 0
        for trial in range(12):
            pts = []
            for _ in range(int(rng.integers(2, 9))):
                a, b, c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                x = np.array([[a, c], [b, (1.0 + b * c) / a]])
                pts.append(x)
                if rng.uniform() < 0.5:
                    pts.append(-x)
                if rng.uniform() < 0.2:
                    pts.append(x @ np.diag([1.0 + 1e-7, 1.0 / (1.0 + 1e-7)]))
            order = rng.permutation(len(pts))
            d = DiscreteSequence(sln(2), tuple(pts[k] for k in order))
            gap = [1e-6, 0.5, 2.0][trial % 3]
            report = gp.omega_check(d, 40, _sampler(trial), min_gap=gap, max_fiber=2)
            assert report.failures == _omega_failures_loop(d, 40, _sampler(trial), gap, 2)
            failed += len(report.failures)
            passed += 40 - len(report.failures)
        assert failed and passed

    def test_overflowing_images_follow_the_gap_rules(self):
        # Entries near 1e160 overflow the chart, so images 0 and 1 hold
        # infinities and their gap is NaN. A NaN gap counts as close in
        # the row scan, but only a gap below min_gap makes a twist suspect.
        x = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=np.complex128)
        big = (_diag(1e160), _diag(2e160))
        with np.errstate(over="ignore", invalid="ignore"):
            quiet = gp.omega_check(DiscreteSequence(sln(2), big + (x,)), 30, _sampler(3))
            d = DiscreteSequence(sln(2), big + (x, -x))
            loud = gp.omega_check(d, 30, _sampler(3), max_fiber=2)
            want = _omega_failures_loop(d, 30, _sampler(3), gp.MIN_GAP, 2)
        assert quiet.fraction == 1.0
        assert loud.fraction == 0.0 and loud.failures == want

    def test_overflowing_images_are_scanned_in_bounded_blocks(self, traced_peak):
        # 1200 overflowing images give 719,400 NaN-gap pairs a sample; a
        # list of them all would take about 16 MiB
        x = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=np.complex128)
        big = tuple(_diag(1e160 * (1.0 + j / 1200)) for j in range(1200))
        d = DiscreteSequence(sln(2), big + (x,))
        with np.errstate(over="ignore", invalid="ignore"):
            report, peak = traced_peak(gp.omega_check, d, 4, _sampler(3))
        assert report.fraction == 1.0
        assert peak < 8 * 2**20

    def test_input_validation(self):
        with pytest.raises(AmbientMismatch):
            gp.omega_check(
                DiscreteSequence(cn(2), (np.array([1.0 + 0j, 0.0]),)),
                10,
                _sampler(0),
            )
        m = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=np.complex128)
        with pytest.raises(InconclusivePrefix, match="^the omega fraction needs a nonempty prefix$"):
            gp.omega_check(DiscreteSequence(sln(2), ()), 10, _sampler(0))
        with pytest.raises(ValueError):
            gp.omega_check(DiscreteSequence(sln(2), (m,)), 0, _sampler(0))

    def test_report_json_shape(self):
        m = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=np.complex128)
        report = gp.omega_check(DiscreteSequence(sln(2), (m,)), 50, _sampler(2))
        blob = report.to_json()
        assert set(blob) == {"fraction", "samples", "seed", "failures"}
        assert blob["failures"] == []
