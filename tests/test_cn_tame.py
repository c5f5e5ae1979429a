"""Series criterion, shears, interpolation, and prefix height pushing."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamelab import cn_tame, core
from tamelab.core import DiscreteSequence, GeneratorInfo, HeightAssignment, cn
from tamelab.errors import (
    BadParams,
    DegenerateConfiguration,
    DuplicateNodes,
    ZeroPoint,
)
from tamelab.rng import stream


def powers_sequence(n, alpha, count, declare=True):
    pts = []
    for k in range(1, count + 1):
        v = np.zeros(n, dtype=complex)
        v[0] = float(k) ** alpha
        pts.append(v)
    gen = None
    if declare:
        gen = GeneratorInfo.of(
            "cn-powers", n=n, alpha=alpha, k=count, norm_growth_c=1.0,
            norm_growth_alpha=float(alpha),
        )
    return DiscreteSequence(cn(n), tuple(pts), gen)


class TestSeries:
    def test_cubic_partial_sum_brackets_the_limit(self):
        d = powers_sequence(2, 1, 1000)
        rep = cn_tame.rr_series_test(d, cn_tame.MONOTONE_TAIL_BOUND)
        assert rep.exponent == 3
        assert rep.verdict.is_certified
        assert rep.verdict.reason == "series-tail-bound"
        limit = float(mpmath.zeta(3))
        # the partial sum lies below the limit, the tail bound covers the rest
        assert rep.partial_sum < limit < rep.partial_sum + rep.tail_bound
        reference = float(mpmath.nsum(lambda k: 1 / k**3, [1, 1000]))
        assert rep.partial_sum == pytest.approx(reference, abs=1e-12)

    def test_degree_ten_sum(self):
        d = powers_sequence(3, 2, 100)
        rep = cn_tame.rr_series_test(d, cn_tame.MONOTONE_TAIL_BOUND)
        assert rep.exponent == 5
        assert rep.verdict.is_certified
        reference = float(mpmath.nsum(lambda k: 1 / k**10, [1, 100]))
        assert rep.partial_sum == pytest.approx(reference, rel=1e-12)
        assert rep.partial_sum == pytest.approx(1.0009945751278, abs=1e-10)

    def test_partial_only_never_certifies(self):
        d = powers_sequence(2, 1, 50)
        rep = cn_tame.rr_series_test(d, cn_tame.PARTIAL_ONLY)
        assert rep.verdict.state == core.CONSISTENT
        assert rep.tail_bound is None

    def test_undeclared_growth_stays_consistent(self):
        d = powers_sequence(2, 1, 50, declare=False)
        rep = cn_tame.rr_series_test(d, cn_tame.MONOTONE_TAIL_BOUND)
        assert rep.verdict.state == core.CONSISTENT

    def test_empty_prefix_with_declared_growth_stays_consistent(self):
        # no point checks the declaration, and the tail from k = 0 diverges
        d = powers_sequence(2, 1, 0)
        rep = cn_tame.rr_series_test(d, cn_tame.MONOTONE_TAIL_BOUND)
        assert rep.verdict.state == core.CONSISTENT
        assert rep.partial_sum == 0.0 and rep.tail_bound is None

    def test_small_norm_points_flagged_but_summed(self):
        d = DiscreteSequence(
            cn(2), (np.array([0.5, 0j]), np.array([2.0, 0j]))
        )
        rep = cn_tame.rr_series_test(d)
        assert rep.small_points == (0,)
        assert rep.partial_sum == pytest.approx(8.0 + 0.125)

    def test_zero_point_rejected_by_sequence_type(self):
        with pytest.raises(ZeroPoint):
            # bypass the ambient guard to exercise the operation's own check
            d = DiscreteSequence(cn(2), (np.array([0j, 0j]), np.array([1.0, 0j])))
            cn_tame.rr_series_test(d)

    def test_partial_sums_monotone_in_prefix(self):
        full = powers_sequence(2, 1, 60)
        sums = []
        for m in range(1, 61, 7):
            prefix = DiscreteSequence(cn(2), full.points[:m])
            sums.append(cn_tame.rr_series_test(prefix).partial_sum)
        assert all(a <= b for a, b in zip(sums, sums[1:]))


class TestShear:
    def test_zero_polynomial_is_identity(self):
        s = cn_tame.ShearAut(1, 0, cn_tame.Polynomial())
        z = np.array([2.3 + 1j, -0.5])
        assert np.array_equal(s(z), z)

    def test_square_driver(self):
        s = cn_tame.ShearAut(1, 0, cn_tame.Polynomial((0, 0, 1)))
        out = s(np.array([2.0, 1.0]))
        assert out[0] == 2.0
        assert out[1] == pytest.approx(5.0)

    def test_inverse_round_trip(self):
        s = cn_tame.ShearAut(0, 2, cn_tame.Polynomial((1.0, -2.0j, 0.25)))
        rng = stream(2, "shear-inverse")
        for _ in range(1000):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            back = s.inverse().apply(s.apply(z))
            assert np.max(np.abs(back - z)) < 1e-12

    @staticmethod
    def _simplex_volume(block):
        rows = [
            np.concatenate([(q - block[0]).real, (q - block[0]).imag])
            for q in block[1:]
        ]
        return np.linalg.det(np.stack(rows))

    def test_affine_shear_preserves_simplex_volume(self):
        # an affine driver makes the whole map affine, so straight
        # simplices keep their volume exactly
        s = cn_tame.ShearAut(1, 0, cn_tame.Polynomial((0.3, 1.0j)))
        rng = stream(9, "volume-affine")
        n = 2
        for _ in range(50):
            pts = rng.standard_normal((2 * n + 1, n)) + 1j * rng.standard_normal(
                (2 * n + 1, n)
            )
            imgs = np.stack([s.apply(p) for p in pts])
            v0 = self._simplex_volume(pts)
            v1 = self._simplex_volume(imgs)
            assert abs(v1 - v0) <= 1e-9 * max(1.0, abs(v0))

    def test_jacobian_determinant_is_one(self):
        # nonlinear shears bend straight simplices, so the volume claim
        # lives at the level of the Jacobian; check it by differences
        s = cn_tame.ShearAut(1, 0, cn_tame.Polynomial((0.3, 1.0j, 0.5)))
        rng = stream(9, "volume-jacobian")
        h = 1e-6
        for _ in range(50):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            jac = np.zeros((4, 4))
            for col in range(4):
                bump = np.zeros(4)
                bump[col] = h
                dz = (bump[:2] + 1j * bump[2:]).astype(complex)
                diff = (s.apply(z + dz) - s.apply(z - dz)) / (2 * h)
                jac[:, col] = np.concatenate([diff.real, diff.imag])
            assert abs(np.linalg.det(jac) - 1.0) <= 1e-6


class TestInterpolation:
    def test_single_node(self):
        p = cn_tame.interpolate_nodes([(0.0, 5.0)])
        probes = np.array([0.0, 1.0, -2.5j, 3.0 + 4.0j])
        assert np.array_equal(p(probes), np.full(4, 5.0 + 0j))

    def test_parabola(self):
        p = cn_tame.interpolate_nodes([(0, 0), (1, 1), (2, 4)])
        probes = np.array([0.5, -1.0, 1.5j, 0.75 - 0.25j])
        assert np.allclose(p(probes), probes**2, rtol=0.0, atol=1e-12)

    def test_duplicate_abscissae(self):
        with pytest.raises(DuplicateNodes):
            cn_tame.interpolate_nodes([(0, 1), (0, 2)])

    def test_duplicate_names_first_pair(self):
        with pytest.raises(DuplicateNodes, match="abscissae 0 and 1 "):
            cn_tame.interpolate_nodes([(5, 1), (5, 2), (5, 3)])
        with pytest.raises(DuplicateNodes, match="abscissae 0 and 3 "):
            cn_tame.interpolate_nodes([(0, 1), (1, 2), (1, 3), (0, 4)])

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_recovers_random_polynomials(self, degree, salt):
        rng = stream(salt, "interp-exact")
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        coeffs[-1] += 1.0
        target = cn_tame.Polynomial(tuple(coeffs))
        xs = rng.standard_normal(degree + 3) + 1j * rng.standard_normal(degree + 3)
        xs *= 2.0
        nodes = [(x, target(x)) for x in xs]
        fitted = cn_tame.interpolate_nodes(nodes, distinct_tol=1e-9)
        probes = 2.0 * (rng.standard_normal(20) + 1j * rng.standard_normal(20))
        # coefficients within 1e-8 * scale move a value by at most that
        # much times sum_k |z|^k
        scale = max(np.abs(coeffs)) * np.sum(np.abs(probes)[:, None] ** np.arange(degree + 1), axis=1)
        assert np.all(np.abs(fitted(probes) - target(probes)) <= 1e-8 * scale)

    def test_barycentric_matches_the_exact_polynomial_and_scales_up(self):
        rng = stream(4, "bary")
        xs = rng.standard_normal(400) + 1j * rng.standard_normal(400)
        ys = rng.standard_normal(400) + 1j * rng.standard_normal(400)
        bary = cn_tame.LagrangePoly.fit(xs, ys)
        recovered = bary(np.array(xs))
        assert np.max(np.abs(recovered - ys)) < 1e-9
        small_n = 12
        exact = cn_tame.Polynomial(tuple(rng.standard_normal(small_n) + 1j * rng.standard_normal(small_n)))
        bary_small = cn_tame.LagrangePoly.fit(xs[:small_n], exact(xs[:small_n]))
        probes = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        agreement = np.abs(exact(probes) - bary_small(probes))
        assert np.max(agreement / (1.0 + np.abs(exact(probes)))) < 1e-7

    def test_zero_values_fit_the_zero_polynomial_at_any_size(self):
        for m in (3, 41, 300):
            xs = np.exp(2j * np.pi * np.arange(m) / m)
            assert cn_tame.interpolate_nodes(np.column_stack((xs, np.zeros(m)))) == cn_tame.Polynomial()

    def test_negated_fit_takes_negated_values_at_its_nodes(self):
        rng = stream(6, "bary-neg")
        xs = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        ys = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        fit = cn_tame.LagrangePoly.fit(xs, ys)
        neg = -fit
        assert neg.nodes == fit.nodes and neg.log_weights == fit.log_weights
        assert np.array_equal(neg(xs), -ys)
        probes = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        assert np.array_equal(neg(probes), -fit(probes))


def _reference_log_weights(xs: np.ndarray) -> np.ndarray:
    """The per-node fit: one `np.delete` per node."""
    return np.array(
        [-np.sum(np.log(xs[i] - np.delete(xs, i))) for i in range(len(xs))],
        dtype=np.complex128,
    )


def _reference_values(xs, vals, logw, zs) -> np.ndarray:
    """The per-point evaluation: one point per loop step."""
    out = np.empty(len(zs), dtype=np.complex128)
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
    return out


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBarycentricBits:
    """The batched fit and evaluation against the per-node loops they
    replaced, bit for bit."""

    @pytest.mark.parametrize("m", [41, 127, 128, 129, 200, 700])
    def test_log_weights_and_values_match_the_loops(self, m):
        # rows per block are _FIT_BLOCK // m: one block below 128 nodes,
        # several above, the last one partial
        assert (m <= 128) == (cn_tame._FIT_BLOCK // m >= m)
        rng = stream(m, "bary-bits")
        xs = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * 10.0 ** rng.uniform(-2, 2)
        vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        fit = cn_tame.LagrangePoly.fit(xs, vals)
        logw = _reference_log_weights(xs)
        assert _same_bits(fit.log_weights, logw)
        off = rng.standard_normal(m + 7) + 1j * rng.standard_normal(m + 7)
        probes = np.concatenate([off, xs[rng.permutation(m)], xs[:3]])
        rng.shuffle(probes)
        assert _same_bits(fit(probes), _reference_values(xs, vals, logw, probes))

    def test_a_negative_zero_node_answers_a_positive_zero_probe(self):
        rng = stream(0, "bary-zero")
        xs = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        xs[17] = complex(-0.0, -0.0)
        vals = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        fit = cn_tame.LagrangePoly.fit(xs, vals)
        logw = _reference_log_weights(xs)
        assert _same_bits(fit.log_weights, logw)
        probes = np.array([0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1e-300 + 0j])
        got = fit(probes)
        assert _same_bits(got, _reference_values(xs, vals, logw, probes))
        assert _same_bits(got[:3], np.repeat(vals[17], 3))

    def test_a_repeated_node_answers_with_its_first_value(self):
        rng = stream(4, "bary-repeat")
        xs = rng.standard_normal(70) + 1j * rng.standard_normal(70)
        xs[40] = xs[20]
        xs[5], xs[12] = complex(0.0, -0.0), complex(-0.0, 0.0)
        vals = rng.standard_normal(70) + 1j * rng.standard_normal(70)
        with np.errstate(divide="ignore", invalid="ignore"):
            fit = cn_tame.LagrangePoly.fit(xs, vals)
            logw = _reference_log_weights(xs)
            probes = np.array([xs[40], 0j, xs[12], 0.5 + 0j])
            got = fit(probes)
            assert _same_bits(got, _reference_values(xs, vals, logw, probes))
        assert _same_bits(fit.log_weights, logw)
        assert _same_bits(got[:3], vals[[20, 5, 5]])

    def test_a_non_finite_node_matches_no_probe(self):
        rng = stream(5, "bary-inf")
        xs = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        xs[7] = complex(np.inf, 0.0)
        vals = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        with np.errstate(invalid="ignore"):
            fit = cn_tame.LagrangePoly.fit(xs, vals)
            logw = _reference_log_weights(xs)
            probes = np.array([complex(np.inf, 0.0), xs[3]])
            got = fit(probes)
            assert _same_bits(got, _reference_values(xs, vals, logw, probes))
        assert not np.isfinite(got[0]) and _same_bits(got[1], vals[3])

    def test_a_scalar_probe_gives_a_complex(self):
        rng = stream(1, "bary-scalar")
        xs = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        vals = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        fit = cn_tame.LagrangePoly.fit(xs, vals)
        logw = _reference_log_weights(xs)
        for z in (xs[3], 0.25 - 1.5j, complex(xs[49])):
            got = fit(z)
            assert type(got) is complex
            assert _same_bits(got, _reference_values(xs, vals, logw, [z])[0])

    def test_an_all_zero_fit(self):
        rng = stream(2, "bary-zeros")
        xs = rng.standard_normal(90) + 1j * rng.standard_normal(90)
        vals = np.zeros(90, dtype=np.complex128)
        fit = cn_tame.LagrangePoly.fit(xs, vals)
        logw = _reference_log_weights(xs)
        assert _same_bits(fit.log_weights, logw)
        probes = np.concatenate([xs, rng.standard_normal(30) + 0j])
        got = fit(probes)
        assert _same_bits(got, _reference_values(xs, vals, logw, probes))
        assert not got.any()

    def test_fits_at_one_node_set_share_their_weights(self):
        rng = stream(3, "bary-share")
        xs = rng.standard_normal(45) + 1j * rng.standard_normal(45)
        fit = cn_tame.LagrangePoly.fit(xs, np.ones(45))
        vals = rng.standard_normal(45) + 1j * rng.standard_normal(45)
        vals[7] = complex(-0.0, -0.0)
        shared = fit.with_values(vals)
        fresh = cn_tame.LagrangePoly.fit(xs, vals)
        assert shared.log_weights is fit.log_weights and shared.nodes is fit.nodes
        assert _same_bits(shared.values, fresh.values)
        probes = np.concatenate([xs, rng.standard_normal(30) + 1j * rng.standard_normal(30)])
        assert _same_bits(shared(probes), fresh(probes))


def _call_reference(fit: cn_tame.LagrangePoly, z):
    """`LagrangePoly.__call__` without its return for all points on nodes."""
    zs = np.asarray(z, dtype=np.complex128)
    flat = zs.reshape(-1)
    xs, vals, logw = fit._arrays
    index = fit._first_index
    hit = np.array([index.get(p, -1) for p in flat.tolist()], dtype=np.intp)
    out = np.empty(flat.shape, dtype=np.complex128)
    at = hit >= 0
    out[at] = vals[hit[at]]
    rest = np.flatnonzero(~at)
    step = max(1, cn_tame._FIT_BLOCK // max(len(xs), 1))
    for start in range(0, len(rest), step):
        rows = rest[start : start + step]
        terms = logw - np.log(flat[rows, None] - xs)
        shift = np.max(terms.real, axis=1)
        w = np.exp(terms - shift[:, None])
        out[rows] = np.sum(w * vals, axis=1) / np.sum(w, axis=1)
    if zs.ndim == 0:
        return complex(out[0])
    return out.reshape(zs.shape)


class TestEvaluationOnNodes:
    """Points that all sit on nodes take their values directly, with the
    bits and return type of the general evaluation."""

    def _fit(self, m):
        rng = stream(m, "on-nodes")
        xs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        xs[1] = complex(-0.0, 0.0)
        vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        vals[0], vals[2] = complex(-0.0, 0.0), complex(0.0, -0.0)
        return rng, xs, cn_tame.LagrangePoly.fit(xs, vals)

    @pytest.mark.parametrize("m", [3, 10, 60])
    def test_scalar_vector_and_matrix_probes(self, m):
        rng, xs, fit = self._fit(m)
        probes = xs[rng.integers(0, m, 24)]
        probes[0] = 0j  # the -0.0 node, reached by a +0.0 probe
        for z in (probes, probes.reshape(4, 6), probes[:0], probes[:1], complex(xs[-1]), 0j):
            got, want = fit(z), _call_reference(fit, z)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_one_point_off_the_nodes_takes_the_general_path(self):
        rng, xs, fit = self._fit(10)
        probes = np.concatenate([xs, [0.25 - 1.5j]])
        assert fit(probes).tobytes() == _call_reference(fit, probes).tobytes()


def _horner_reference(poly: cn_tame.Polynomial, z):
    """`Polynomial.__call__` by Horner's rule alone, the zero one included."""
    zs = np.asarray(z, dtype=np.complex128)
    out = []
    for s in zs.ravel().tolist():
        acc = 0j
        for c in reversed(poly.coeffs):
            acc = acc * s + c
        out.append(acc)
    if zs.ndim == 0:
        return out[0]
    return np.array(out, dtype=np.complex128).reshape(zs.shape)


def test_the_zero_polynomial_evaluates_as_horner():
    probes = np.array([0j, complex(-0.0, -0.0), 2.5 - 1j, np.nan, complex(np.inf, 1.0), -np.inf])
    for z in (probes, probes.reshape(2, 3), probes[:0], probes[:1], complex(np.nan, 0.0), 3,
              -0.0):
        zero = cn_tame.Polynomial()
        got, want = zero(z), _horner_reference(zero, z)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestPushPrefix:
    def test_two_point_push(self):
        d = DiscreteSequence(cn(2), (np.array([1.0, 0j]), np.array([2.0, 0j])))
        zeta = HeightAssignment.constant(10.0, 2)
        phi, proof = cn_tame.push_prefix_cn(d, zeta, seed=1)
        for p, t in zip(d.points, zeta.values):
            assert np.linalg.norm(phi(p)) >= t
        assert proof["stages"] == "unitary+shear"

    def test_height_count_mismatch_is_bad_params(self):
        d = DiscreteSequence(cn(2), (np.array([1.0, 0j]), np.array([2.0, 0j])))
        with pytest.raises(BadParams, match="^one height per point is required$"):
            cn_tame.push_prefix_cn(d, HeightAssignment((3.0,)), seed=1)

    def test_low_targets_accept_identity(self):
        d = DiscreteSequence(cn(2), (np.array([3.0, 0j]), np.array([0j, 4.0])))
        zeta = HeightAssignment((2.0, 3.0))
        phi, proof = cn_tame.push_prefix_cn(d, zeta, seed=1)
        assert isinstance(phi, core.IdentityAut)
        assert proof["stages"] == "identity"

    def test_equal_first_coordinates_resolved_by_rotation(self):
        d = DiscreteSequence(cn(2), (np.array([1.0, 0j]), np.array([1.0, 5.0])))
        zeta = HeightAssignment.constant(20.0, 2)
        phi, _ = cn_tame.push_prefix_cn(d, zeta, seed=3)
        for p in d.points:
            assert np.linalg.norm(phi(p)) >= 20.0

    def test_hundred_random_instances(self):
        rng = stream(12, "push-batch")
        for trial in range(100):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(1, 21))
            pts, seen = [], set()
            while len(pts) < m:
                v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                key = v.tobytes()
                if key not in seen:
                    seen.add(key)
                    pts.append(v)
            d = DiscreteSequence(cn(n), tuple(pts))
            zeta = HeightAssignment(tuple(rng.uniform(0.5, 50.0, size=m)))
            phi, _ = cn_tame.push_prefix_cn(d, zeta, seed=trial)
            for p, t in zip(d.points, zeta.values):
                assert np.linalg.norm(phi(p)) >= t

    @pytest.mark.parametrize("m", [40, 60, 100, 300])
    def test_largest_height_stays_near_the_target(self, m):
        # the monomial form fitted at other nodes than the map's reached
        # 1.4e3, 4.0e12 and 1.4e28 here, and fell short at m = 300
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))
        d = DiscreteSequence(cn(3), pts)
        _, proof = cn_tame.push_prefix_cn(d, HeightAssignment.constant(6.0, m), seed=1)
        assert min(proof["achieved"]) >= 6.0
        assert max(proof["achieved"]) <= 2.0 * (6.0 + 1.0)

    def test_inverse_returns_every_point(self):
        # the golden corpus's flat60 input, pushed as `shears --height 6 --seed 1`
        rng = np.random.default_rng(20171)
        d = DiscreteSequence(cn(3), rng.standard_normal((60, 3)) + 1j * rng.standard_normal((60, 3)))
        phi, _ = cn_tame.push_prefix_cn(d, HeightAssignment.constant(6.0, 60), seed=1)
        rotation, shear = phi.stages
        assert isinstance(shear.f, cn_tame.LagrangePoly)
        image = phi.apply_batch(d.array)
        back = core.LinearAut(rotation.matrix.conj().T).apply_batch(shear.inverse().apply_batch(image))
        err = core._row_norms(back - d.array)
        assert np.all(err <= 4 * np.finfo(float).eps * core._row_norms(image))
