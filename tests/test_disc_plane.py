"""Disc-times-plane automorphisms, classification, and obstructions."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamelab import disc_plane as dp
from tamelab.cn_tame import Polynomial
from tamelab.core import (
    DiscreteSequence,
    GeneratorInfo,
    as_point,
    disc_plane as disc_plane_space,
    properness_check,
)
from tamelab.errors import InconclusivePrefix, PointOutsideAmbient


def _aut(theta=0.0, alpha=0j, logf=(), g=()):
    return dp.DiscPlaneAut(
        dp.MoebiusDisc(theta, alpha), Polynomial(tuple(logf)), Polynomial(tuple(g))
    )


def _dseq(points, generator=None):
    return DiscreteSequence(
        disc_plane_space(),
        tuple(np.asarray(p, dtype=complex) for p in points),
        generator=generator,
    )


_moebius_params = st.tuples(
    st.floats(min_value=-3.1, max_value=3.1),
    st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False),
)


class TestMoebius:
    def test_alpha_on_circle_rejected(self):
        with pytest.raises(PointOutsideAmbient):
            dp.MoebiusDisc(0.0, 1.0 + 0j)

    def test_centered_half_maps_to_zero(self):
        m = dp.MoebiusDisc(0.0, 0.5)
        assert abs(m.apply(0.5)) < 1e-15

    @given(_moebius_params, st.complex_numbers(max_magnitude=0.95))
    @settings(max_examples=60, deadline=None)
    def test_inverse_undoes(self, p, z):
        m = dp.MoebiusDisc(*p)
        assert abs(m.inverse().apply(m.apply(z)) - z) < 1e-11


class TestApply:
    def test_identity_fixes_points(self):
        a = dp.DiscPlaneAut.identity()
        p = np.array([0.3 + 0.2j, 5.0 - 1.0j])
        assert np.allclose(a(p), p, atol=0)

    def test_vertical_translation(self):
        a = _aut(g=(1.0,))
        out = a([0.5, 2.0])
        assert out[0] == pytest.approx(0.5)
        assert out[1] == pytest.approx(3.0)

    def test_moebius_base_shift(self):
        a = _aut(alpha=0.5)
        out = a([0.5, 2.0])
        assert abs(out[0]) < 1e-15
        assert out[1] == pytest.approx(2.0)

    def test_rejects_base_outside_disc(self):
        with pytest.raises(PointOutsideAmbient):
            dp.DiscPlaneAut.identity()([1.5, 0.0])

    @given(
        st.complex_numbers(max_magnitude=0.9),
        st.complex_numbers(max_magnitude=50.0),
        st.complex_numbers(max_magnitude=50.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_base_image_ignores_fiber(self, z, w1, w2):
        a = _aut(theta=0.7, alpha=0.2 + 0.1j, logf=(0.1, 0.3), g=(1.0, 2.0))
        out1 = a([z, w1])
        out2 = a([z, w2])
        assert abs(out1[0] - out2[0]) < 1e-14


def _old_apply(aut: dp.DiscPlaneAut, p) -> np.ndarray:
    """`DiscPlaneAut.apply` at one point, as it was before the map moved
    whole stacks: Python complex scalars, numpy's scalar division and exp."""
    q = as_point(disc_plane_space(), p)
    z, w = complex(q[0]), complex(q[1])

    def horner(f: Polynomial) -> complex:
        acc = 0j
        for c in reversed(f.coeffs):
            acc = acc * z + c
        return acc

    phi = cmath.exp(1j * aut.phi.theta) * (z - aut.phi.alpha) / (
        1.0 - np.conj(aut.phi.alpha) * z)
    return np.array([phi, np.exp(horner(aut.logf)) * w + horner(aut.g)], dtype=np.complex128)


def _signed(rng, values) -> np.ndarray:
    """`values` with about one part in five replaced by +0.0 or -0.0."""
    parts = np.array(values, dtype=np.complex128).view(np.float64).copy()
    hit = rng.random(parts.shape) < 0.2
    parts[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    return parts.view(np.complex128)


def _random_aut(rng) -> dp.DiscPlaneAut:
    def poly():
        k = int(rng.integers(0, 5))
        return Polynomial(tuple(_signed(rng, rng.standard_normal(k) + 1j * rng.standard_normal(k))))

    alpha = _signed(rng, [0.6 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())])[0]
    return dp.DiscPlaneAut(dp.MoebiusDisc(rng.uniform(-3.2, 3.2), alpha), poly(), poly())


def _random_points(rng, m: int) -> np.ndarray:
    radius = np.where(rng.random(m) < 0.2, 1.0 - 10.0 ** rng.uniform(-12, -2, m),
                      np.sqrt(rng.random(m)))
    z = _signed(rng, radius * np.exp(2j * np.pi * rng.random(m)))
    w = _signed(rng, 10.0 ** rng.uniform(-3, 3, m) * (rng.standard_normal(m)
                                                        + 1j * rng.standard_normal(m)))
    return np.stack([z, w], axis=1)


class TestApplyBatch:
    def test_rows_match_the_old_per_point_apply_bit_for_bit(self):
        rng = np.random.default_rng(26)
        for _ in range(40):
            aut, ps = _random_aut(rng), _random_points(rng, 60)
            got = aut.apply_batch(ps)
            want = np.stack([_old_apply(aut, p) for p in ps])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            for k, p in enumerate(ps[:5]):
                assert np.array_equal(aut.apply(p).view(np.uint64), want[k].view(np.uint64))

    def test_identity_keeps_every_bit(self):
        ps = _random_points(np.random.default_rng(27), 200)
        out = dp.DiscPlaneAut.identity().apply_batch(ps)
        assert np.array_equal(out.view(np.uint64), np.stack(
            [_old_apply(dp.DiscPlaneAut.identity(), p) for p in ps]).view(np.uint64))

    @pytest.mark.parametrize("bad", [{3: 1.5, 6: np.nan}, {3: np.nan, 6: 1.5}],
                             ids=["outside-first", "non-finite-first"])
    def test_the_first_bad_row_raises_its_own_error(self, bad):
        ps = _random_points(np.random.default_rng(28), 10)
        for k, z in bad.items():
            ps[k, 0] = z
        aut = _aut(theta=0.3, alpha=0.1j, logf=(0.2,), g=(1.0,))
        with pytest.raises((PointOutsideAmbient, ValueError)) as want:
            for k, p in enumerate(ps):
                _old_apply(aut, p)
        with pytest.raises(type(want.value)) as got:
            aut.apply_batch(ps)
        assert str(got.value) == f"point {k}: {want.value}"

    def test_an_empty_stack_maps_to_an_empty_stack(self):
        out = _aut(logf=(0.5,)).apply_batch(np.zeros((0, 2), dtype=np.complex128))
        assert out.shape == (0, 2) and out.dtype == np.complex128


class TestClassify:
    def test_oversized_fiber_violates(self):
        d = _dseq([(0.0, float(k)) for k in range(1, 21)])
        v = dp.dp_classify(d)
        assert v.is_violated
        assert len(v.witness) == 20

    def test_boundary_escape_certifies(self):
        gen = GeneratorInfo.of("discplane-base", boundary_escape=True)
        d = _dseq([(1.0 - 2.0**-k, 0.0) for k in range(1, 21)], generator=gen)
        v = dp.dp_classify(d, min_gap_disc=1e-6)
        assert v.is_certified
        assert v.reason == "boundary-escape"

    def test_interior_accumulation_violates(self):
        d = _dseq([(1.0 / (k + 2), 0.0) for k in range(1, 101)])
        v = dp.dp_classify(d, min_gap_disc=1e-3)
        assert v.is_violated
        assert len(v.witness) == 2

    def test_plain_prefix_is_consistent(self):
        d = _dseq([(0.1 * k, 0.0) for k in range(1, 9)])
        assert dp.dp_classify(d).state == "consistent-up-to-prefix"

    def test_certified_implies_proper_prefix(self):
        gen = GeneratorInfo.of("discplane-base", boundary_escape=True)
        d = _dseq([(1.0 - 2.0**-k, 0.0) for k in range(1, 16)], generator=gen)
        v = dp.dp_classify(d, min_gap_disc=1e-6)
        assert v.is_certified
        images = [np.array([p[0]]) for p in d.points]
        check = properness_check(images, min_gap=1e-6, max_fiber=8)
        assert check.state == "consistent-up-to-prefix"


class TestNontameBound:
    def test_identity_fails_at_one(self):
        d = _dseq([(0.0, float(k)) for k in range(1, 9)])
        rep = dp.dp_nontame_bound(d, dp.DiscPlaneAut.identity())
        assert rep.first_failure_index == 1
        assert rep.proximity_cap == pytest.approx(1.0)
        assert rep.lhs[0] == pytest.approx(2.0)
        assert rep.rhs[0] == pytest.approx(2.0 * (1.0 + 1e-6))

    def test_constant_hundred_multiplier_fails_at_seven(self):
        a = _aut(logf=(math.log(100.0),))
        d = _dseq([(0.0, float(k)) for k in range(1, 12)])
        rep = dp.dp_nontame_bound(d, a)
        assert rep.first_failure_index == 7

    def test_huge_additive_term_fails_at_twenty(self):
        a = _aut(g=(1e6,))
        d = _dseq([(2.0**-k, 1.0) for k in range(1, 25)])
        rep = dp.dp_nontame_bound(d, a)
        first = next(
            k
            for k in range(1, 25)
            if abs(1.0 + 1e6) + 1.0 / (1.0 - 2.0**-k) < 2.0**k * (1.0 + 1e-6)
        )
        assert rep.first_failure_index == first == 20

    def test_short_prefix_inconclusive(self):
        a = _aut(g=(1e6,))
        d = _dseq([(0.0, float(k)) for k in range(1, 5)])
        with pytest.raises(InconclusivePrefix):
            dp.dp_nontame_bound(d, a)


class TestPoincare:
    def test_two_point_signature(self):
        sig = dp.poincare_signature([0.0, 0.5])
        assert sig.shape == (1,)
        assert sig[0] == pytest.approx(math.log(3.0), abs=1e-12)

    def test_single_point_empty(self):
        assert dp.poincare_signature([0.3j]).size == 0

    @given(
        st.lists(st.complex_numbers(max_magnitude=0.9), min_size=2, max_size=6),
        _moebius_params,
    )
    @settings(max_examples=50, deadline=None)
    def test_moebius_invariance(self, zs, p):
        m = dp.MoebiusDisc(*p)
        before = dp.poincare_signature(zs)
        after = dp.poincare_signature([m.apply(z) for z in zs])
        assert np.max(np.abs(before - after)) < 1e-10

    def test_shipped_pair_is_inequivalent(self):
        left, right = dp.inequivalent_base_pair()
        sig_l = dp.poincare_signature(left)
        sig_r = dp.poincare_signature(right)
        assert sig_l.shape == sig_r.shape
        assert np.max(np.abs(sig_l - sig_r)) > 1e-3
