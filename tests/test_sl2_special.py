"""Overshears, fiber translations, the column pipeline, and exact
quadratic-integer enumeration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamelab import sl2_special as sl2
from tamelab.core import (
    CONSISTENT,
    Composite,
    DiscreteSequence,
    sln,
)
from tamelab.errors import (
    AmbientMismatch,
    EmptyResult,
    InconsistentFiber,
    LambdaVanishes,
    NotSameFiber,
    StageFailed,
    UnsupportedField,
    ZeroVector,
)


def _mseq(mats) -> DiscreteSequence:
    pts = tuple(np.asarray(m, dtype=np.complex128) for m in mats)
    return DiscreteSequence(sln(2), pts)


def _linear_shear() -> sl2.OvershearSpec:
    """lambda(a, b) = 1 + a."""
    return sl2.OvershearSpec(sl2.BivariatePoly.constant(1.0))


class TestBivariatePoly:
    def test_grid_evaluation(self):
        # 2 + 3a + 5b + 7ab
        poly = sl2.BivariatePoly(((2.0, 5.0), (3.0, 7.0)))
        assert poly(1.0, 1.0) == 17.0
        assert poly(2.0, 0.0) == 8.0
        assert poly(0.0, -1.0) == -3.0

    def test_zero(self):
        assert sl2.BivariatePoly.zero().is_zero
        assert sl2.BivariatePoly.zero()(3.0, 4.0) == 0.0


class TestOvershearApply:
    def test_identity_factor_is_identity(self):
        m = np.array([[1.0, 1.0], [1.0, 2.0]])
        out = sl2.overshear_apply(sl2.OvershearSpec.identity(), m)
        assert np.array_equal(out, m)

    def test_worked_example(self):
        m = np.array([[1.0, 1.0], [1.0, 2.0]])
        out = sl2.overshear_apply(_linear_shear(), m)
        np.testing.assert_allclose(out, [[1.0, 2.0], [1.0, 3.0]])
        assert abs(np.linalg.det(out) - 1.0) < 1e-12

    def test_corner_wall_uses_removable_value(self):
        d = 0.7
        m = np.array([[0.0, -1.0], [1.0, d]])
        out = sl2.overshear_apply(_linear_shear(), m)
        # factor is one on the wall, shift is one: d' = d - 1
        np.testing.assert_allclose(out[:, 0], m[:, 0])
        assert abs(out[0, 1] - (-1.0)) < 1e-14
        assert abs(out[1, 1] - (d - 1.0)) < 1e-14
        # continuity against a neighbor on the determinant-one path d = 0
        wall = sl2.overshear_apply(_linear_shear(), [[0.0, -1.0], [1.0, 0.0]])
        near = sl2.overshear_apply(_linear_shear(), [[1e-6, -1.0], [1.0, 0.0]])
        assert abs(near[1, 1] - wall[1, 1]) < 1e-4

    def test_larger_matrices_are_refused(self):
        with pytest.raises(AmbientMismatch, match="overshears act on SL\\(2\\)"):
            sl2.overshear_apply(_linear_shear(), np.eye(3))

    def test_first_column_fixed_exactly(self):
        m = np.array([[0.3 + 0.1j, 1.0], [0.25j, (1.0 + 0.25j) / (0.3 + 0.1j)]])
        out = sl2.overshear_apply(_linear_shear(), m)
        assert np.array_equal(out[:, 0], m[:, 0])

    def test_determinant_sweep_near_the_wall(self):
        rng = np.random.default_rng(11)
        specs = [
            sl2.OvershearSpec.identity(),
            _linear_shear(),
            sl2.OvershearSpec(sl2.BivariatePoly(((0.4, -0.3), (0.2j, 0.0)))),
            sl2.OvershearSpec(sl2.BivariatePoly(((0.1j,), (0.0, 0.5)))),
        ]
        worst = 0.0
        for spec in specs:
            for _ in range(2500):
                scalea = 10.0 ** rng.uniform(-7, 0)
                a = scalea * np.exp(2j * np.pi * rng.random())
                b, c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                m = np.array([[a, c], [b, (1.0 + b * c) / a]])
                out = sl2.overshear_apply(spec, m)
                worst = max(worst, abs(np.linalg.det(out) - 1.0))
        assert worst <= 1e-10

    def test_continuity_across_the_wall(self):
        spec = _linear_shear()
        c = 2.0
        vals = []
        for a in (1e-4, 1e-6, 1e-8):
            m = np.array([[a, c], [-1.0 / c, 0.0]])
            vals.append(sl2.overshear_apply(spec, m)[1, 1])
        spread = max(abs(x - y) for x in vals for y in vals)
        assert spread <= 1e-3 * max(abs(v) for v in vals)


class TestOvershearInverse:
    def test_identity_inverts_to_identity(self):
        inv = sl2.overshear_inverse(sl2.OvershearSpec.identity())
        m = np.array([[2.0, 1.0], [1.0, 1.0]])
        assert np.array_equal(sl2.overshear_apply(inv, m), m)

    def test_roundtrip_worked_example(self):
        s = _linear_shear()
        inv = sl2.overshear_inverse(s)
        m = np.array([[1.0, 1.0], [1.0, 2.0]], dtype=np.complex128)
        back = sl2.overshear_apply(inv, sl2.overshear_apply(s, m))
        assert float(np.max(np.abs(back - m))) <= 1e-12

    def test_vanishing_factor_raises(self):
        inv = sl2.overshear_inverse(_linear_shear())
        m = np.array([[-1.0, 1.0], [1.0, -2.0]])
        with pytest.raises(LambdaVanishes):
            sl2.overshear_apply(inv, m)

    def test_double_inverse_restores(self):
        s = _linear_shear()
        assert sl2.overshear_inverse(sl2.overshear_inverse(s)) == s

    @given(
        c0=st.floats(-0.4, 0.4),
        c1=st.floats(-0.4, 0.4),
        t=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, c0, c1, t):
        spec = sl2.OvershearSpec(sl2.BivariatePoly(((c0,), (c1,))))
        m = np.array([[1.0, t], [0.5, 0.5 * t + 1.0]])
        inv = sl2.overshear_inverse(spec)
        back = sl2.overshear_apply(inv, sl2.overshear_apply(spec, m))
        assert float(np.max(np.abs(back - m))) <= 1e-9


class TestFiberAffineProbe:
    def test_identity_slope(self):
        slope, _, residual = sl2.fiber_affine_probe(
            sl2.OvershearSpec.identity(), (1.0, 2.0), [0.0, 1.0, 2.0, 1j]
        )
        assert abs(slope - 1.0) <= 1e-12
        assert residual <= 1e-12

    def test_linear_factor_slope(self):
        slope, intercept, residual = sl2.fiber_affine_probe(
            _linear_shear(), (1.0, 1.0), [0.0, 1.0, -1.0, 0.5j]
        )
        assert abs(slope - 2.0) <= 1e-9
        assert abs(intercept) <= 1e-9
        assert residual <= 1e-9

    def test_wall_base_point_has_unit_slope(self):
        slope, _, residual = sl2.fiber_affine_probe(
            _linear_shear(), (0.0, 1.0), [0.0, 1.0, 2.0]
        )
        assert abs(slope - 1.0) <= 1e-12
        assert residual <= 1e-12

    def test_zero_base_rejected(self):
        with pytest.raises(ZeroVector):
            sl2.fiber_affine_probe(_linear_shear(), (0.0, 0.0), [0.0, 1.0])

    @given(
        p0=st.floats(-1.5, 1.5),
        p1=st.floats(-1.5, 1.5),
        va=st.floats(-2.0, 2.0),
        vb=st.floats(0.3, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_slope_matches_direct_evaluation(self, p0, p1, va, vb):
        spec = sl2.OvershearSpec(sl2.BivariatePoly(((p0, p1),)))
        v = (va, vb)
        want = spec.lambda_at(va, vb)
        slope, _, _ = sl2.fiber_affine_probe(spec, v, [0.0, 1.0, -1.0, 1j])
        assert abs(slope - want) <= 1e-9 * max(1.0, abs(want))


class TestRightTranslate:
    def test_zero_is_identity(self):
        m = np.array([[2.0, 0.0], [1.0, 0.5]])
        assert np.array_equal(sl2.right_translate(m, 0.0), m)

    def test_identity_base(self):
        out = sl2.right_translate(np.eye(2), 5.0)
        np.testing.assert_allclose(out, [[1.0, 5.0], [0.0, 1.0]])
        assert sl2.fiber_distance(np.eye(2), out) == 5.0

    def test_complex_parameter_recovered(self):
        m = np.array([[2.0, 0.0], [1.0, 0.5]])
        out = sl2.right_translate(m, 1.0 + 1.0j)
        assert abs(sl2.fiber_distance(m, out) - np.sqrt(2.0)) <= 1e-10

    def test_different_fibers_rejected(self):
        with pytest.raises(NotSameFiber):
            sl2.fiber_distance(np.eye(2), np.diag([2.0, 0.5]))

    def test_inconsistent_second_columns_rejected(self):
        # exactly unimodular pairs on a fiber are always one translation
        # apart, so the cross-check can only trip on numerical drift; a
        # large column norm lets the drift through the determinant gate
        a = np.array([[1.0, 1000.0], [1e-6, 1.001]])
        b = np.array([[1.0, 1000.0], [1e-6, 1.001 + 5e-7]])
        with pytest.raises(InconsistentFiber):
            sl2.fiber_distance(a, b)


class TestPipeline:
    def test_diagonal_family(self):
        d = _mseq([np.diag([float(k), 1.0 / k]) for k in range(1, 11)])
        composite, verdict = sl2.sl2_column_pipeline(d, seed=3)
        assert verdict.state == CONSISTENT
        assert isinstance(composite, Composite)
        left = composite.stages[0].matrix
        assert abs(np.linalg.det(left) - 1.0) < 1e-9
        finals = [composite.apply(p) for p in d.points]
        for k, (orig, out) in enumerate(zip(d.points, finals)):
            # stage one clears the axes and later stages keep the column
            moved = left @ orig[:, 0]
            assert float(np.min(np.abs(moved))) >= sl2.AXIS_CLEARANCE
            assert float(np.max(np.abs(out[:, 0] - moved))) < 1e-9
            # the pipeline's point: second columns escape nested balls
            assert float(np.linalg.norm(out[:, 1])) > k + 1
            assert abs(np.linalg.det(out) - 1.0) < 1e-8
        seconds = np.stack([p[:, 1] for p in finals])
        for i in range(len(finals)):
            for j in range(i + 1, len(finals)):
                assert float(np.max(np.abs(seconds[i] - seconds[j]))) > 1e-6

    def test_axis_columns_get_moved(self):
        d = _mseq([np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])])
        composite, verdict = sl2.sl2_column_pipeline(d, seed=0)
        assert verdict.state == CONSISTENT
        for p in d.points:
            out = composite.apply(p)
            assert float(np.min(np.abs(out[:, 0]))) >= sl2.AXIS_CLEARANCE

    def test_empty_prefix(self):
        d = DiscreteSequence(sln(2), ())
        composite, verdict = sl2.sl2_column_pipeline(d)
        assert verdict.state == CONSISTENT
        assert composite.stages == ()

    def test_crowded_projection_fails_the_gate(self):
        mats = [
            np.array([[1.0 + k * 1e-8, 0.0], [0.0, 1.0 / (1.0 + k * 1e-8)]])
            for k in range(3)
        ]
        with pytest.raises(StageFailed) as err:
            sl2.sl2_column_pipeline(_mseq(mats))
        assert err.value.stage == "input-gate"

    @pytest.mark.parametrize("first", [0, 6])
    def test_overshooting_factor_fails_the_stage(self, monkeypatch, first):
        # one fiber per point here, so node i is point i's first column
        real = sl2._fit_scalar

        def overshooting(ss, values):
            return real(ss, np.concatenate([values[:first], 10.0 * values[first:]]))

        monkeypatch.setattr(sl2, "_fit_scalar", overshooting)
        d = _mseq([np.diag([float(k), 1.0 / k]) for k in range(1, 11)])
        with pytest.raises(StageFailed) as err:
            sl2.sl2_column_pipeline(d, seed=3)
        assert err.value.stage == "fiber-rescale"
        assert err.value.reason.startswith(f"point {first} clears ")
        assert "(at most 2 times its target " in err.value.reason

    def test_verdict_reports_seed(self):
        d = _mseq([np.diag([2.0, 0.5])])
        _, verdict = sl2.sl2_column_pipeline(d, seed=7)
        assert "seed 7" in verdict.detail


class TestGaussianEnumeration:
    def test_rational_height_one(self):
        params = sl2.GaussianIntegerParams("Q", 1)
        seq = sl2.gaussian_sl2_generate(params)
        keys = {tuple(np.round(p.real.flatten()).astype(int)) for p in seq.points}
        assert (1, 0, 0, 1) in keys           # identity
        assert (-1, 0, 0, -1) in keys         # minus identity
        assert (1, 1, 0, 1) in keys           # upper shear
        assert (1, 0, 1, 1) in keys           # lower shear
        assert (0, -1, 1, 0) in keys          # rotation by a quarter turn
        for p in seq.points:
            assert abs(np.linalg.det(p) - 1.0) < 1e-12

    def test_gaussian_integers_contain_diag_i(self):
        params = sl2.GaussianIntegerParams("Q(i)", 1)
        exact = sl2.gaussian_sl2_exact(params)
        assert sl2.ExactMatrix((0, 1), (0, 0), (0, 0), (0, -1)) in exact

    def test_exact_determinants(self):
        params = sl2.GaussianIntegerParams("Q(sqrt-3)", 1)
        for m in sl2.gaussian_sl2_exact(params):
            ad = sl2._ring_mul(m.a, m.d, 3, True)
            cb = sl2._ring_mul(m.c, m.b, 3, True)
            assert (ad[0] - cb[0], ad[1] - cb[1]) == (1, 0)

    def test_first_column_lattice_gap(self):
        params = sl2.GaussianIntegerParams("Q(i)", 1)
        seq = sl2.gaussian_sl2_generate(params)
        cols = {}
        for p in seq.points:
            cols[(p[0, 0], p[1, 0])] = p[:, 0]
        uniq = list(cols.values())
        worst = min(
            float(np.max(np.abs(uniq[i] - uniq[j])))
            for i in range(len(uniq))
            for j in range(i + 1, len(uniq))
        )
        assert worst >= 1.0 - 1e-9

    def test_generator_info_attached(self):
        seq = sl2.gaussian_sl2_generate(sl2.GaussianIntegerParams("Q", 1))
        assert seq.generator is not None
        assert seq.generator.family == "sl2-gauss"
        assert seq.generator.get("height_bound") == 1

    def test_serialization_shape(self):
        m = sl2.ExactMatrix((1, 0), (0, 0), (2, -1), (1, 0))
        assert m.to_json() == {"a": [1, 0], "b": [0, 0], "c": [2, -1], "d": [1, 0]}

    def test_unsupported_field(self):
        with pytest.raises(UnsupportedField):
            sl2.GaussianIntegerParams("Q(sqrt-5)", 1)

    def test_zero_height_is_empty(self):
        with pytest.raises(EmptyResult):
            sl2.GaussianIntegerParams("Q", 0)

    def test_half_integer_embedding(self):
        params = sl2.GaussianIntegerParams("Q(sqrt-3)", 1)
        seq = sl2.gaussian_sl2_generate(params)
        omega = complex(0.5, np.sqrt(3.0) / 2.0)
        assert abs(omega**2 - (omega - 1.0)) < 1e-15
        found = any(
            abs(p[0, 0] - omega) < 1e-12 and abs(p[1, 0]) < 1e-12
            for p in seq.points
        )
        assert found
