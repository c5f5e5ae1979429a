"""Overshears, fiber translations, the column pipeline, and exact
quadratic-integer enumeration."""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tamelab import cn_tame
from tamelab import sl2_special as sl2
from tamelab.core import (
    CONSISTENT,
    Composite,
    DiscreteSequence,
    sln,
)
from tamelab.errors import (
    AmbientMismatch,
    DeterminantError,
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
    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf), float("-inf")])
    def test_coefficients_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            sl2.BivariatePoly(((1.0,), (2.0, bad)))

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
    @example(p0=0.0, p1=1.0, va=-0.5, vb=2.0)  # lambda = 1 + va * vb = 0
    def test_slope_matches_direct_evaluation(self, p0, p1, va, vb):
        spec = sl2.OvershearSpec(sl2.BivariatePoly(((p0, p1),)))
        v = (va, vb)
        try:
            want = spec.lambda_at(va, vb)
        except LambdaVanishes:
            # the probe applies the overshear on the same fiber
            with pytest.raises(LambdaVanishes):
                sl2.fiber_affine_probe(spec, v, [0.0, 1.0, -1.0, 1j])
            return
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
        real = sl2.interpolate_nodes

        def overshooting(nodes, distinct_tol):
            ss, values = np.asarray(nodes).T
            scaled = np.concatenate([values[:first], 10.0 * values[first:]])
            return real(np.column_stack((ss, scaled)), distinct_tol)

        monkeypatch.setattr(sl2, "interpolate_nodes", overshooting)
        d = _mseq([np.diag([float(k), 1.0 / k]) for k in range(1, 11)])
        with pytest.raises(StageFailed) as err:
            sl2.sl2_column_pipeline(d, seed=3)
        assert err.value.stage == "fiber-rescale"
        assert err.value.reason.startswith(f"point {first} clears ")
        assert "(at most 2 times its target " in err.value.reason

    def test_one_fit_and_one_shift_evaluation_per_lattice_prefix(self, monkeypatch):
        # 296 points over 56 first columns
        d = sl2.gaussian_sl2_generate(sl2.GaussianIntegerParams("Q(i)", 1))
        rows = []
        real = sl2.SeparatedShift.at_columns

        def counted(self, cols):
            rows.append(len(cols))
            return real(self, cols)

        monkeypatch.setattr(sl2.SeparatedShift, "at_columns", counted)
        real_weights = cn_tame._log_weights
        nodes = []
        monkeypatch.setattr(cn_tame, "_log_weights",
                            lambda xs: nodes.append(len(xs)) or real_weights(xs))
        sl2.sl2_column_pipeline(d, seed=3, max_fiber=16)
        # the clearance shift is fitted, and the push's top-row map takes
        # its nodes and weights; the lower-block values are all zero, so
        # that map is the zero polynomial. Both are evaluated only at their
        # nodes, so no weights are computed
        assert nodes == []
        assert rows == [len(d)]

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
        assert ((0, 1), (0, 0), (0, 0), (0, -1)) in _exact_matrices(params)

    def test_exact_determinants(self):
        params = sl2.GaussianIntegerParams("Q(sqrt-3)", 1)
        for a, b, c, d in _exact_matrices(params):
            ad = _reference_mul(a, d, 3, True)
            cb = _reference_mul(c, b, 3, True)
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

    def test_unsupported_field(self):
        with pytest.raises(UnsupportedField):
            sl2.GaussianIntegerParams("Q(sqrt-5)", 1)

    @pytest.mark.parametrize("field", ["Q(sqrt-1)", "Q(sqrt-02)", "Q(sqrt-+3)", "qi", "q(i)"])
    def test_one_spelling_per_ring(self, field):
        # a ring is named by its tag alone; aliases are the command line's
        with pytest.raises(UnsupportedField):
            sl2.GaussianIntegerParams(field, 1)

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


def _exact_matrices(params: sl2.GaussianIntegerParams) -> list[tuple]:
    """The matrices [[a, c], [b, d]] of `_exact_quadruples` as entry
    quadruples (a, b, c, d), each entry an integer pair (x, y) for x + y*w."""
    xs, ys, *quad = sl2._exact_quadruples(params)
    entries = list(zip(xs.tolist(), ys.tolist()))
    return [tuple(entries[i] for i in idx) for idx in zip(*(q.tolist() for q in quad))]


# Reference rings, kept apart from the package's table: (d, half) for
# Q(sqrt-d), with w = sqrt(-d), or w = (1 + sqrt(-d)) / 2 when `half`;
# None for Q, which has no w.
_REFERENCE_RINGS = {
    "Q": None,
    "Q(i)": (1, False),
    "Q(sqrt-2)": (2, False),
    "Q(sqrt-3)": (3, True),
    "Q(sqrt-7)": (7, True),
    "Q(sqrt-11)": (11, True),
}


def _reference_mul(p, q, d: int, half: bool):
    """Multiply x + y*w coordinates exactly; w*w = -d, or w - (1+d)/4 in
    the half-integer rings."""
    x, y = p
    u, v = q
    if half:
        c = (1 + d) // 4
        return (x * u - c * y * v, x * v + y * u + y * v)
    return (x * u - d * y * v, x * v + y * u)


def _reference_omega(field: str) -> complex:
    """w in C: i sqrt(d), or (1 + i sqrt(d)) / 2 in the half-integer rings."""
    if _REFERENCE_RINGS[field] is None:
        return 0j
    d, half = _REFERENCE_RINGS[field]
    if half:
        return complex(0.5, math.sqrt(d) / 2.0)
    return complex(0.0, math.sqrt(d))


def _exact_reference(params: sl2.GaussianIntegerParams) -> list[tuple]:
    """Reference: every entry quadruple (a, b, c, d) tested one at a time,
    in lexicographic entry order."""
    field = _REFERENCE_RINGS[params.field]
    span = range(-params.height_bound, params.height_bound + 1)
    if field is None:
        entries, d_val, half = [(x, 0) for x in span], 0, False
    else:
        (d_val, half), entries = field, [(x, y) for x in span for y in span]
    out = []
    for ea, eb, ec, ed in product(entries, repeat=4):
        ad = _reference_mul(ea, ed, d_val, half)
        cb = _reference_mul(ec, eb, d_val, half)
        if (ad[0] - cb[0], ad[1] - cb[1]) == (1, 0):
            out.append((ea, eb, ec, ed))
    return out


_FIELDS = tuple(_REFERENCE_RINGS)


class TestSortJoinEnumeration:
    @pytest.mark.parametrize(
        "field, height", [(f, 1) for f in _FIELDS] + [("Q(i)", 2)]
    )
    def test_matches_the_quadruple_loop(self, field, height):
        params = sl2.GaussianIntegerParams(field, height)
        assert _exact_matrices(params) == _exact_reference(params)

    @pytest.mark.parametrize("field", ["Q", "Q(i)", "Q(sqrt-3)", "Q(sqrt-7)"])
    def test_prefix_embeds_each_matrix_as_to_complex(self, field):
        params = sl2.GaussianIntegerParams(field, 2)
        omega = _reference_omega(field)

        def emb(p):
            # the embedding x + y * omega of each entry, in Python complex arithmetic
            return p[0] + p[1] * omega

        want = np.array([[[emb(a), emb(c)], [emb(b), emb(d)]]
                         for a, b, c, d in _exact_reference(params)], dtype=np.complex128)
        got = sl2.gaussian_sl2_generate(params).array
        assert got.tobytes() == want.tobytes()


class TestRingTable:
    def test_the_table_is_the_reference_list(self):
        assert [row.tag for row in sl2._RINGS] == list(_REFERENCE_RINGS)
        assert [row.alias for row in sl2._RINGS] == ["q", "qi", "q2", "q3", "q7", "q11"]

    @pytest.mark.parametrize("row", sl2._RINGS, ids=lambda row: row.tag)
    def test_omega_is_the_reference_root(self, row):
        assert row.omega == _reference_omega(row.tag)
        if row.c:
            w = row.omega
            assert abs(w * w - (row.s * w - row.c)) < 1e-12

    @pytest.mark.parametrize("row", sl2._RINGS, ids=lambda row: row.tag)
    def test_nonzero_elements_have_modulus_at_least_one(self, row):
        # every coordinate difference at the cap h is a pair in [-2h, 2h]^2
        # (y = 0 over Q); its norm x^2 + sxy + cy^2 = |x + y w|^2 is an
        # integer, so a nonzero element has modulus at least one
        h = row.cap
        span = range(-2 * h, 2 * h + 1)
        pairs = [(x, y) for x in span for y in (span if row.c else (0,)) if (x, y) != (0, 0)]
        assert min(x * x + row.s * x * y + row.c * y * y for x, y in pairs) >= 1
        assert min(abs(x + y * row.omega) for x, y in pairs) >= 1.0 - 1e-12


def _fiber_distance_reference(first: np.ndarray, second: np.ndarray) -> float:
    """`fiber_distance` as a scalar computation, as it was."""
    col_gap = float(np.max(np.abs(first[:, 0] - second[:, 0])))
    if col_gap > sl2.SAME_COLUMN_TOL:
        raise NotSameFiber(f"first columns differ by {col_gap:.3g}")
    a, b = first[0, 0], first[1, 0]
    dc = second[0, 1] - first[0, 1]
    dd = second[1, 1] - first[1, 1]
    if abs(a) >= abs(b):
        t = dc / a
        slack = abs(dd - b * t)
    else:
        t = dd / b
        slack = abs(dc - a * t)
    if slack > sl2.CROSS_CHECK_TOL:
        raise InconsistentFiber(
            f"second columns disagree with a single translation by {slack:.3g}"
        )
    return abs(t)


def _fiber_radii_reference(points: np.ndarray) -> list[float]:
    radii = [1.0] * len(points)
    for members in sl2.group_fibers(points[:, :, 0]).values():
        if len(members) < 2:
            continue
        for i in members:
            gap = min(
                _fiber_distance_reference(points[i], points[j]) for j in members if j != i
            )
            radii[i] = 0.5 * gap
    return radii


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NotSameFiber, InconsistentFiber) as exc:
        return type(exc), str(exc)


class TestFiberRadii:
    def test_match_the_pairwise_loop_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            cols = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
            pts = []
            for k in rng.integers(0, 6, 40):
                a, b = cols[k]
                t = complex(*rng.standard_normal(2)) * 10.0 ** rng.integers(-3, 4)
                base = np.array([[a, 0.0], [b, 1.0 / a]]) if abs(a) >= abs(b) else \
                    np.array([[a, -1.0 / b], [b, 0.0]])
                pts.append(sl2.right_translate(base, t))
            pts = np.unique(np.stack(pts), axis=0)
            got = sl2._fiber_radii(pts, sl2.group_fibers(pts[:, :, 0]))
            assert got.tobytes() == np.array(_fiber_radii_reference(pts)).tobytes()

    def test_inconsistent_fiber_is_named_as_before(self):
        # one first column; the large second column lets a drift of the
        # corner entry through the determinant check
        pts = np.array([
            [[1.0, 1000.0], [1e-6, 1.001]],
            [[1.0, 1000.0], [1e-6, 1.001 + 5e-7]],
            [[1.0, 2.0], [1e-6, 1.0 + 2e-6]],
        ], dtype=np.complex128)
        want = _outcome(_fiber_radii_reference, pts)
        assert want[0] is InconsistentFiber
        with pytest.raises(InconsistentFiber) as err:
            sl2._fiber_radii(pts, sl2.group_fibers(pts[:, :, 0]))
        assert str(err.value) == want[1]

    def test_not_same_fiber_is_named_as_before(self, monkeypatch):
        pts = np.array([np.eye(2), np.diag([2.0, 0.5]), np.diag([3.0, 1 / 3])],
                       dtype=np.complex128)
        monkeypatch.setattr(sl2, "group_fibers", lambda images: {0: [0, 1, 2]})
        want = _outcome(_fiber_radii_reference, pts)
        assert want[0] is NotSameFiber
        with pytest.raises(NotSameFiber) as err:
            sl2._fiber_radii(pts, sl2.group_fibers(pts[:, :, 0]))
        assert str(err.value) == want[1]


class TestOvershearStack:
    def test_first_bad_determinant_raises_as_the_point_does(self):
        rng = np.random.default_rng(3)
        a, b, c = rng.standard_normal((3, 12)) + 1j * rng.standard_normal((3, 12))
        a = a + 0.2 * a / np.abs(a)
        ps = np.stack([np.stack([a, c], axis=1), np.stack([b, (1.0 + b * c) / a], axis=1)],
                      axis=1)
        ps[5, 1, 1] += 1e-3
        ps[9, 1, 1] += 1e-2
        spec = _linear_shear()
        with pytest.raises(DeterminantError) as one:
            sl2.overshear_apply(spec, ps[5])
        with pytest.raises(DeterminantError) as stack:
            sl2.OvershearAut(spec).apply_batch(ps)
        assert str(stack.value) == f"point 5: {one.value}"
        assert np.array_equal(
            sl2.OvershearAut(spec).apply_batch(ps[:5]),
            np.stack([sl2.overshear_apply(spec, p) for p in ps[:5]]),
        )

    def test_larger_matrices_are_refused_before_any_check(self):
        with pytest.raises(AmbientMismatch, match="not on 3x3"):
            sl2.OvershearAut(_linear_shear()).apply_batch(np.zeros((2, 3, 3)))


# The overshear as it was computed before it moved whole stacks: the base
# shift by Horner's rule over Python complex scalars, the factor per row,
# and the second column in numpy scalar arithmetic. `1.0 + z` is spelled
# with a complex one, which is how CPython before 3.14 added a float to a
# complex.
_REF_ONE = complex(1.0, 0.0)


def _ref_shifts(shift, cols: np.ndarray) -> list:
    if isinstance(shift, sl2.SeparatedShift):
        return shift.fn(np.sum(shift.u * cols, axis=1)).tolist()
    out = []
    for a, b in cols.tolist():
        total = 0j
        for row in reversed(shift.coeffs):
            inner = 0j
            for c in reversed(row):
                inner = inner * b + c
            total = total * a + inner
        out.append(total)
    return out


def _ref_factor(a: complex, shift: complex) -> complex:
    val = _REF_ONE + a * shift
    if abs(val) < sl2.LAMBDA_FLOOR:
        raise LambdaVanishes(f"factor has modulus {abs(val):.3g} at the requested point")
    return val


def _ref_factor_at(spec, a: complex, base: complex) -> tuple:
    if spec.inverted:
        base = -base / _ref_factor(a, base)
    return base, _ref_factor(a, base)


def _ref_point(m: np.ndarray, shift: complex, lam: complex) -> tuple:
    a, c = m[0, 0], m[0, 1]
    b, d = m[1, 0], m[1, 1]
    if abs(a) >= sl2.SMALL_CORNER_TOL:
        d2 = (1.0 + b * c * lam) / a
    else:
        d2 = lam * d - shift
    return c * lam, d2


def _ref_overshear(spec, ps: np.ndarray):
    """The moved stack, or (row, message) of the first vanishing factor."""
    out = ps.copy()
    for k, (p, base) in enumerate(zip(ps, _ref_shifts(spec.shift, ps[:, :, 0]))):
        try:
            shift, lam = _ref_factor_at(spec, complex(p[0, 0]), base)
        except LambdaVanishes as exc:
            return k, str(exc)
        out[k, :, 1] = _ref_point(p, shift, lam)
    return out


def _signed(rng, values: np.ndarray) -> np.ndarray:
    """`values` with about one part in six replaced by +0.0 or -0.0."""
    parts = np.array(values, dtype=np.complex128).view(np.float64).copy()
    hit = rng.random(parts.shape) < 1 / 6
    parts[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    return parts.view(np.complex128)


def _overshear_inputs(rng, m: int) -> np.ndarray:
    """Determinant-one matrices [[a, c], [b, d]], a third of them within a
    few orders of magnitude of the a = 0 wall (some on it, with signed
    zeros, and the first at |a| = SMALL_CORNER_TOL), and signed-zero parts
    among the other entries."""
    z = rng.standard_normal((4, m)) + 1j * rng.standard_normal((4, m))
    a, b, c, d = _signed(rng, z)
    a[a == 0] = z[0, a == 0]
    wall = rng.random(m) < 1 / 3
    scale = 10.0 ** rng.uniform(-13, -7, m)
    a[wall] = _signed(rng, scale[wall] * np.exp(2j * np.pi * rng.random(wall.sum())))
    a[0], wall[0] = 1j * sl2.SMALL_CORNER_TOL, True  # exactly at the branch threshold
    b[wall] = z[1, wall]  # nonzero, to solve for c below
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(wall, d, (1.0 + b * c) / a)
        c = np.where(wall, (a * d - 1.0) / b, c)
    return np.stack([np.stack([a, c], axis=1), np.stack([b, d], axis=1)], axis=1)


def _grid_spec(rng, inverted: bool) -> sl2.OvershearSpec:
    shape = rng.integers(1, 4, 2)
    grid = _signed(rng, 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
    return sl2.OvershearSpec(sl2.BivariatePoly(tuple(map(tuple, grid))), inverted)


def _separated_spec(rng, ps: np.ndarray, inverted: bool) -> sl2.OvershearSpec:
    """A fitted shift with nodes at the first columns of half the rows."""
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    ss = np.sum(u * ps[: len(ps) // 2, :, 0], axis=1)
    vals = 0.2 * (rng.standard_normal(len(ss)) + 1j * rng.standard_normal(len(ss)))
    fn = cn_tame.interpolate_nodes(np.column_stack((ss, vals)), 0.0)
    return sl2.OvershearSpec(sl2.SeparatedShift(u, fn), inverted)


def _bits(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.complex128).view(np.uint64)


class TestOvershearKernel:
    """The stack and one-point overshears against `_ref_overshear`, bit
    for bit, as uint64 views."""

    def _check(self, spec, ps):
        want = _ref_overshear(spec, ps)
        assert not isinstance(want, tuple), "a random input hit a vanishing factor"
        got = sl2.OvershearAut(spec).apply_batch(ps)
        assert np.array_equal(_bits(got), _bits(want))
        for k, p in enumerate(ps):
            assert np.array_equal(_bits(sl2.overshear_apply(spec, p)), _bits(got[k])), k

    @pytest.mark.parametrize("inverted", [False, True], ids=["plain", "inverted"])
    def test_grid_shifts_match_the_point_by_point_formula(self, inverted):
        rng = np.random.default_rng(26 + inverted)
        for _ in range(60):
            self._check(_grid_spec(rng, inverted), _overshear_inputs(rng, 50))

    @pytest.mark.parametrize("inverted", [False, True], ids=["plain", "inverted"])
    def test_separated_shifts_match_the_point_by_point_formula(self, inverted):
        rng = np.random.default_rng(36 + inverted)
        for _ in range(20):
            ps = _overshear_inputs(rng, 30)
            self._check(_separated_spec(rng, ps, inverted), ps)

    def test_identity_and_zero_shifts(self):
        rng = np.random.default_rng(46)
        ps = _overshear_inputs(rng, 80)
        for spec in (sl2.OvershearSpec.identity(), sl2.OvershearSpec(sl2.BivariatePoly.zero(), True),
                     sl2.OvershearSpec(sl2.BivariatePoly(((0.0, -0.0), (-0.0, 0.0))))):
            self._check(spec, ps)
            assert np.array_equal(_bits(sl2.OvershearAut(spec).apply_batch(ps)[:, :, 0]),
                                  _bits(ps[:, :, 0]))

    def test_the_factor_at_a_point_matches(self):
        rng = np.random.default_rng(56)
        for inverted in (False, True):
            spec = _grid_spec(rng, inverted)
            for a, b in _overshear_inputs(rng, 200)[:, :, 0].tolist():
                base, = _ref_shifts(spec.shift, np.array([[a, b]]))
                want = _ref_factor_at(spec, a, base)[1]
                assert _bits(spec.lambda_at(a, b)).tolist() == _bits(want).tolist()

    @pytest.mark.parametrize(
        "rows, first",
        [({3: "zero", 6: "zero"}, 3), ({2: "inverse", 5: "zero"}, 2), ({2: "zero", 5: "inverse"}, 2)],
        ids=["two-zeros", "inverse-first", "zero-first"],
    )
    def test_a_vanishing_factor_raises_at_its_row(self, rows, first):
        # lambda = 1 + a/2 is 0 at a = -2; the inverted factor 1/lambda
        # falls under the floor where lambda passes 1e12, at a = 2e13
        ps = _overshear_inputs(np.random.default_rng(66), 8)
        for k, kind in rows.items():
            ps[k] = [[-2.0, 0.0], [1.0, -0.5]] if kind == "zero" else [[2e13, 0.0], [1.0, 5e-14]]
        spec = sl2.OvershearSpec(sl2.BivariatePoly.constant(0.5), inverted=True)
        k, message = _ref_overshear(spec, ps)
        assert k == first
        with pytest.raises(LambdaVanishes) as err:
            sl2.OvershearAut(spec).apply_batch(ps)
        assert str(err.value) == message.replace("the requested point", f"point {first}")
        with pytest.raises(LambdaVanishes) as one:
            sl2.overshear_apply(spec, ps[first])
        assert str(one.value) == message
        assert np.array_equal(_bits(sl2.OvershearAut(spec).apply_batch(ps[:first])),
                              _bits(_ref_overshear(spec, ps[:first])))
