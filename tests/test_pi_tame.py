"""Projection properness, fiber factors, and the fiberwise push map."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamelab import pi_tame
from tamelab.cn_tame import LagrangePoly, Polynomial
from tamelab.core import (
    CONSISTENT,
    DET_TOL,
    MAX_COLUMN_NORM,
    VIOLATED,
    DiscreteSequence,
    HeightAssignment,
    _check_rows,
    exhaust_eval,
    max_norm_distance,
    sl_matrix,
    sln,
)
from tamelab.errors import (
    AmbientMismatch,
    DegenerateConfiguration,
    DeterminantError,
    FiberCollision,
    InterpolationIllConditioned,
    NotSameFiber,
    SearchExhausted,
)
from tamelab.rng import stream


def _mseq(mats, n=2) -> DiscreteSequence:
    pts = tuple(np.asarray(m, dtype=np.complex128) for m in mats)
    return DiscreteSequence(sln(n), pts)


def _random_sl2(rng) -> np.ndarray:
    while True:
        a, b, c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        if abs(a) > 0.1:
            return np.array([[a, c], [b, (1.0 + b * c) / a]])


def _random_q2(rng) -> pi_tame.QElement:
    r = complex(rng.standard_normal() + 1j * rng.standard_normal())
    return pi_tame.QElement.from_blocks(np.array([r]), np.eye(1))


def _random_sln(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a[:, 0] /= np.linalg.det(a)
    return a


def _shear_parameter_loop(x: np.ndarray, target: float):
    """Reference: the per-point doubling search the batched one replaces."""
    base = float(np.max(np.linalg.norm(x, axis=0)))
    if base >= target:
        return 0.0
    t = 1.0
    while t <= 2.0**60:
        if max(base, float(np.linalg.norm(x[:, 1] + t * x[:, 0]))) >= target:
            return t
        t *= 2.0
    return None


class TestBundleSpec:
    def test_requires_matrix_ambient(self):
        from tamelab.core import cn

        with pytest.raises(AmbientMismatch):
            pi_tame.BundleSpec(cn(2))

    def test_factories(self):
        assert pi_tame.first_column(3).n == 3


class TestQElement:
    def test_from_blocks_is_block_triangular(self):
        q = pi_tame.QElement.from_blocks(np.array([2.0 + 1j]), np.eye(1))
        assert q.entries[1, 0] == 0.0
        assert q.entries[0, 0] == 1.0
        assert q.entries[0, 1] == 2.0 + 1j
        assert np.allclose(q.l_block, np.eye(1))

    def test_rejects_moved_first_column(self):
        m = np.array([[1.0, 0.0], [1e-6, 1.0]])
        with pytest.raises(NotSameFiber):
            pi_tame.QElement(2, m)

    def test_rejects_wrong_determinant(self):
        with pytest.raises(DeterminantError):
            pi_tame.QElement.from_blocks(np.array([0.0]), 2.0 * np.eye(1))

    def test_from_blocks_rejects_non_finite(self):
        with pytest.raises(ValueError):
            pi_tame.QElement.from_blocks(np.array([np.nan]), np.eye(1))
        with pytest.raises(ValueError):
            pi_tame.QElement.from_blocks(np.array([0.0]), np.array([[np.inf]]))

    def test_from_blocks_checks_the_assembled_block(self):
        # a 1x1 lower block broadcasts to a singular 2x2 block
        with pytest.raises(DeterminantError):
            pi_tame.QElement.from_blocks(np.zeros(2), np.eye(1))


class TestProject:
    def test_first_column_is_fiber_invariant(self):
        rng = stream(7, "equivariance")
        worst = 0.0
        for _ in range(1000):
            m = _random_sl2(rng)
            q = _random_q2(rng)
            moved = m @ q.entries
            worst = max(worst, max_norm_distance(moved[:, 0], m[:, 0]))
        assert worst <= 1e-12


class TestPiTameCheck:
    def test_diagonal_family_consistent(self):
        mats = [np.diag([k, 1.0 / k]) for k in range(1, 21)]
        verdict = pi_tame.pi_tame_check(_mseq(mats), pi_tame.first_column(2))
        assert verdict.state == CONSISTENT

    def test_unipotent_family_shares_one_fiber(self):
        mats = [np.array([[1.0, k], [0.0, 1.0]]) for k in range(1, 21)]
        verdict = pi_tame.pi_tame_check(_mseq(mats), pi_tame.first_column(2))
        assert verdict.state == VIOLATED
        assert len(verdict.witness) == 20

    def test_ambient_mismatch(self):
        from tamelab.core import cn

        d = DiscreteSequence(cn(2), (np.array([1.0, 0.0]),))
        with pytest.raises(AmbientMismatch):
            pi_tame.pi_tame_check(d, pi_tame.first_column(2))

    def test_bundle_dimension_mismatch(self):
        with pytest.raises(AmbientMismatch):
            pi_tame.pi_tame_check(_mseq([np.eye(2)]), pi_tame.first_column(3))


class TestQFactor:
    def test_worked_example(self):
        b = np.array([[1.0, 0.0], [1.0, 1.0]])
        a = np.array([[1.0, 1.0], [1.0, 2.0]])
        g = pi_tame.q_factor(a, b)
        assert np.allclose(g.entries, np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert max_norm_distance(b @ g.entries, a) <= 1e-9

    def test_different_fibers_rejected(self):
        with pytest.raises(NotSameFiber):
            pi_tame.q_factor(np.diag([2.0, 0.5]), np.eye(2))

    def test_snaps_small_fiber_drift(self):
        b = np.array([[1.0, 0.0], [1.0, 1.0]])
        a = np.array([[1.0, 1.0], [1.0 + 5e-10, 2.0]])
        g = pi_tame.q_factor(a, b)
        assert g.entries[1, 0] == 0.0
        assert max_norm_distance(b @ g.entries, a) <= 1e-9

    @given(
        re=st.floats(-4.0, 4.0),
        im=st.floats(-4.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_recovers_fiber_element(self, re, im, seed):
        rng = stream(seed, "q-factor")
        b = _random_sl2(rng)
        q = pi_tame.QElement.from_blocks(np.array([re + 1j * im]), np.eye(1))
        a = b @ q.entries
        g = pi_tame.q_factor(a, b)
        scale = 1.0 + max(abs(re), abs(im))
        assert max_norm_distance(g.entries, q.entries) <= 1e-7 * scale


class TestFitQMap:
    def test_reproduces_elements_at_nodes(self):
        images = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
        x = np.array([[0.3, 0.1], [0.2, -0.3]])
        elements = [
            pi_tame.QElement.from_blocks(
                np.array([1.0, 2.0]), pi_tame._matrix_exp(s * x)
            )
            for s in (0.5, -0.25)
        ]
        fmap = pi_tame.fit_q_map(images, elements, seed=3)
        r, lower = fmap.blocks(np.stack(images))
        for k, el in enumerate(elements):
            q = pi_tame.QElement.from_blocks(r[k], lower[k])
            assert max_norm_distance(q.entries, el.entries) <= 1e-8

    def test_coincident_images_rejected(self):
        images = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
        els = [pi_tame.QElement.from_blocks(np.array([float(k)]), np.eye(1)) for k in (1, 2)]
        with pytest.raises(FiberCollision):
            pi_tame.fit_q_map(images, els)

    def test_push_names_points_sharing_a_first_column(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        b = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        d = DiscreteSequence(sln(2), (np.diag([2.0, 0.5]).astype(complex), a, b))
        with pytest.raises(FiberCollision,
                           match="images 1 and 2 coincide: the two points share a first column"):
            pi_tame.bundle_push(d, HeightAssignment.constant(10.0, 3), seed=0)

    def test_collision_names_first_pair(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        with pytest.raises(FiberCollision, match="images 0 and 1 coincide"):
            pi_tame.fit_q_map([a, a, a], [_random_q2(stream(0, "q"))] * 3)
        with pytest.raises(FiberCollision, match="images 0 and 3 coincide"):
            pi_tame.fit_q_map([a, b, b, a], [_random_q2(stream(1, "q"))] * 4)

    def test_separating_many_images_holds_no_pair_table(self):
        # a dense table of 2000 separators' gaps alone would take 61 MiB
        rng = stream(4, "many-images")
        ys = rng.standard_normal((2000, 2)) + 1j * rng.standard_normal((2000, 2))
        tracemalloc.start()
        try:
            pi_tame._separate(ys, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_batched_blocks_match_single_points(self):
        rng = stream(8, "q-blocks")
        images = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(6)]
        x = np.array([[0.3, 0.1], [0.2, -0.3]])
        elements = [
            pi_tame.QElement.from_blocks(
                rng.standard_normal(2) + 0j, pi_tame._matrix_exp(s * x)
            )
            for s in np.linspace(-0.5, 0.5, 6)
        ]
        fmap = pi_tame.fit_q_map(images, elements, seed=2)
        probes = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        r, lower = fmap.blocks(probes)
        for k, y in enumerate(probes):
            q = pi_tame.QElement.from_blocks(*(b[0] for b in fmap.blocks(y[None])))
            assert np.array_equal(q.r_block, r[k])
            assert np.array_equal(q.l_block, lower[k])

    def test_polynomials_evaluate_as_scalars(self):
        rng = stream(9, "eval-each")
        poly = Polynomial(tuple(rng.standard_normal(9) + 1j * rng.standard_normal(9)))
        ss = 3.0 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
        want = np.array([poly(complex(s)) for s in ss])
        assert np.array_equal(poly(ss), want)
        assert np.array_equal(poly(ss.reshape(20, 10)), want.reshape(20, 10))
        assert np.array_equal(Polynomial()(ss), np.zeros(200))

    def test_nonprincipal_branch_rejected(self):
        images = [np.array([1.0, 0.0, 0.0])]
        els = [pi_tame.QElement.from_blocks(np.array([0.0, 0.0]), -np.eye(2))]
        with pytest.raises(DegenerateConfiguration):
            pi_tame.fit_q_map(images, els)

    def test_defective_lower_block_rejected(self):
        images = [np.array([1.0, 0.0, 0.0])]
        els = [
            pi_tame.QElement.from_blocks(
                np.array([0.0, 0.0]), np.array([[1.0, 1.0], [0.0, 1.0]])
            )
        ]
        with pytest.raises(DegenerateConfiguration):
            pi_tame.fit_q_map(images, els)


class TestBundlePush:
    def test_worked_two_point_example(self):
        d = _mseq([np.eye(2), np.array([[1.0, 0.0], [1.0, 1.0]])])
        zeta = HeightAssignment.constant(100.0, 2)
        phi, achieved = pi_tame.bundle_push(d, zeta)
        # both points need the same doubling parameter 128
        expected = (np.sqrt(128.0**2 + 1.0), np.sqrt(128.0**2 + 129.0**2))
        assert achieved == pytest.approx(expected, rel=1e-12)
        moved = phi.apply(np.eye(2))
        assert np.allclose(moved, np.array([[1.0, 128.0], [0.0, 1.0]]), atol=1e-7)

    def test_distinct_demands(self):
        d = _mseq([np.diag([2.0, 0.5]), np.array([[1.0, 0.0], [1.0, 1.0]])])
        zeta = HeightAssignment((10.0, 3.0))
        phi, achieved = pi_tame.bundle_push(d, zeta)
        assert achieved[0] == pytest.approx(np.sqrt(4.0 * 64.0 + 0.25), rel=1e-9)
        assert achieved[1] == pytest.approx(np.sqrt(13.0), rel=1e-9)
        for p, z in zip(d.points, zeta.values):
            moved = phi.apply(p)
            assert np.array_equal(moved[:, 0], p[:, 0])
            assert exhaust_eval(MAX_COLUMN_NORM, moved, d.ambient) >= z

    def test_identity_short_circuit(self):
        d = _mseq([np.eye(2)])
        phi, achieved = pi_tame.bundle_push(d, HeightAssignment((0.5,)))
        assert achieved == (1.0,)
        assert np.array_equal(phi.apply(np.eye(2)), np.eye(2))

    def test_preserves_determinant(self):
        d = _mseq([np.eye(2), np.array([[1.0, 0.0], [1.0, 1.0]])])
        phi, _ = pi_tame.bundle_push(d, HeightAssignment.constant(50.0, 2))
        for p in d.points:
            sl_matrix(phi.apply(p))

    def test_large_single_demand(self):
        d = _mseq([np.eye(2)])
        phi, achieved = pi_tame.bundle_push(d, HeightAssignment((1e9,)))
        assert achieved[0] == pytest.approx(np.sqrt(1.0 + 2.0**60), rel=1e-12)

    def test_batched_apply_matches_apply(self):
        rng = stream(12, "push-batch")
        for n, m, height in ((2, 10, 25.0), (2, 45, 60.0), (3, 8, 40.0)):
            d = _mseq([_random_sln(rng, n) for _ in range(m)], n)
            phi, achieved = pi_tame.bundle_push(d, HeightAssignment.constant(height, m))
            batch = phi.apply_batch(np.stack(d.points))
            for k, p in enumerate(d.points):
                single = phi.apply(p)
                assert np.array_equal(batch[k], single)
                assert achieved[k] == exhaust_eval(MAX_COLUMN_NORM, single, d.ambient)

    def test_shear_parameters_match_scalar_search(self):
        rng = stream(13, "shear-search")
        for n in (2, 3, 4):
            xs = np.stack([_random_sln(rng, n) for _ in range(200)])
            xs *= 10.0 ** rng.uniform(-3, 3, (200, 1, 1))
            targets = 10.0 ** rng.uniform(-1, 8, 200)
            # half the demands sit exactly on a sheared height, where a
            # rounding difference in the norm would change the parameter
            for k in range(100):
                t = 2.0 ** rng.integers(0, 20)
                targets[k] = np.linalg.norm(xs[k][:, 1] + t * xs[k][:, 0])
            want = [_shear_parameter_loop(x, t) for x, t in zip(xs, targets)]
            assert list(pi_tame._shear_parameters(xs, targets)) == want

    def test_pushed_heights_guard_each_point(self):
        good = np.array([[1.0, 30.0], [0.0, 1.0]], dtype=np.complex128)
        off = 2.0 * good
        short = np.eye(2, dtype=np.complex128)
        bad = good.copy()
        bad[1, 1] = np.nan
        targets = np.full(2, 25.0)
        assert list(pi_tame._pushed_heights(np.stack([good, good]), targets)) == [
            pytest.approx(np.hypot(30.0, 1.0))
        ] * 2
        # the first failing point decides the error, as a per-point check would
        for pair, error in (
            ((good, off), DeterminantError),
            ((short, off), InterpolationIllConditioned),
            ((off, bad), DeterminantError),
            ((good, bad), ValueError),
            ((bad, off), ValueError),
        ):
            with pytest.raises(error):
                pi_tame._pushed_heights(np.stack(pair), targets)

    def test_search_cap(self):
        d = _mseq([np.eye(2)])
        with pytest.raises(SearchExhausted):
            pi_tame.bundle_push(d, HeightAssignment((1e20,)))

    def test_height_count_mismatch(self):
        d = _mseq([np.eye(2)])
        with pytest.raises(ValueError):
            pi_tame.bundle_push(d, HeightAssignment((2.0, 3.0)))

    def test_json_shape(self):
        d = _mseq([np.eye(2), np.array([[1.0, 0.0], [1.0, 1.0]])])
        phi, _ = pi_tame.bundle_push(d, HeightAssignment.constant(100.0, 2))
        blob = phi.to_json()
        assert blob["kind"] == "bundle-push"
        assert blob["bundle"] == "first-column"
        assert len(blob["separator_u"]) == 2
        assert len(blob["coeffs"]) == 2
        assert all(fn["kind"] in ("poly", "barycentric") for fn in blob["coeffs"])


def _blocks_reference(fmap: pi_tame.QPolyMap, ys: np.ndarray):
    """`QPolyMap.blocks` by the general formula, which serves every n."""
    ss = np.sum(fmap.u * ys, axis=1)
    k = fmap.n - 1
    r = np.stack([fn(ss) for fn in fmap.r_fns], axis=1)
    logl = np.stack([fn(ss) for fn in fmap.logl_fns], axis=1)
    logl = logl.reshape(len(ss), k, k)
    logl -= np.eye(k) * (np.trace(logl, axis1=1, axis2=2) / k)[:, None, None]
    return r, pi_tame._matrix_exp(logl)


def _push_reference(fmap: pi_tame.QPolyMap, ps: np.ndarray) -> np.ndarray:
    """`BundlePushAut.apply_batch` with every factor's determinant checked."""
    r, lower = _blocks_reference(fmap, ps[:, :, 0])
    q = np.zeros(ps.shape, dtype=np.complex128)
    q[:, 0, 0] = 1.0
    q[:, 0, 1:] = r
    q[:, 1:, 1:] = lower
    _check_rows("sln", q, DET_TOL)
    return ps @ q


def _bits_or_error(push, *args):
    try:
        out = push(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return out.shape, out.dtype, out.tobytes()


def _signed_zero_probes(rng, points: np.ndarray) -> np.ndarray:
    """The points themselves (separators at the nodes), the same points with
    every zero part negated or every part zeroed with either sign, and
    random ones."""
    ps = np.array(points, dtype=np.complex128)
    flipped = ps.copy()
    flipped.real[flipped.real == 0] = -0.0
    flipped.imag[flipped.imag == 0] = -0.0
    zeros = np.zeros_like(ps[:4])
    zeros.real[1::2] = -0.0
    zeros.imag[2:] = -0.0
    fresh = rng.standard_normal(ps[:6].shape) + 1j * rng.standard_normal(ps[:6].shape)
    halves = fresh.copy()
    halves[:, :, 0] = halves[:, :, 0].real - 0j  # imaginary parts -0.0
    return np.concatenate([ps, flipped, zeros, fresh, halves])


def _sl2_with_zero_parts(rng, m: int) -> np.ndarray:
    """Random SL(2) matrices, some with an exactly real or imaginary
    first-column entry."""
    mats = np.stack([_random_sl2(rng) for _ in range(m)])
    mats[::3, 1, 0] = mats[::3, 1, 0].real
    mats[1::3, 0, 0] = 1j * mats[1::3, 0, 0].imag
    mats[:, 1, 1] = (1.0 + mats[:, 0, 1] * mats[:, 1, 0]) / mats[:, 0, 0]
    return mats


class TestOneByOneFactor:
    """For n = 2, `QPolyMap.blocks` and `BundlePushAut.apply_batch` take
    the 1x1 lower block without the general matrix steps and skip the
    determinant of a finite factor; bits and errors stay the general
    path's."""

    def _maps(self):
        rng = stream(31, "one-by-one")
        maps = []
        for m in (10, 45):  # the Newton form, then the barycentric one
            d = _mseq(_sl2_with_zero_parts(rng, m))
            phi, _ = pi_tame.bundle_push(d, HeightAssignment.constant(25.0, m), seed=m)
            maps.append(("push", phi.fmap, d.array))
        d = _mseq(_sl2_with_zero_parts(rng, 5))
        phi, _ = pi_tame.bundle_push(d, HeightAssignment.constant(0.5, 5))
        maps.append(("zero-fit", phi.fmap, d.array))
        maps.append(("zero-fit-direct", pi_tame.QPolyMap(
            2, np.zeros(2, dtype=np.complex128), pi_tame._zero_fit(1), pi_tame._zero_fit(1)
        ), d.array))
        for m in (12, 50):
            pts = _sl2_with_zero_parts(rng, m)
            # lower blocks off 1 by rounding, and 1 - 0j, whose traceless
            # logarithm keeps a -0.0 imaginary part
            lowers = [complex(1.0, -0.0) if k % 4 == 0 else 1.0 + 1e-12 * (k % 3)
                      for k in range(m)]
            els = [pi_tame.QElement.from_blocks(np.array([k - 0.5j]), np.array([[low]]))
                   for k, low in enumerate(lowers)]
            maps.append(("fit", pi_tame.fit_q_map(list(pts[:, :, 0]), els, seed=1), pts))
        for m in (8, 48):
            # log fits with nonzero values, so that the traceless step
            # cancels nonzero numbers, some of them with -0.0 parts
            pts = _sl2_with_zero_parts(rng, m)
            u, ss = pi_tame._separate(pts[:, :, 0], 2)
            logs = 1e-12 * (rng.standard_normal((m, 1)) + 1j * rng.standard_normal((m, 1)))
            logs[::3] = logs[::3].real - 0j
            logs[1::5] = complex(-0.0, -0.0)
            rs = rng.standard_normal((m, 1)) + 0j
            maps.append(("nonzero-log", pi_tame._interpolate_blocks(u, ss, rs, logs), pts))
        return rng, maps

    def test_blocks_and_push_are_the_general_formulas_bits(self):
        rng, maps = self._maps()
        kinds = set()
        for name, fmap, points in maps:
            ps = _signed_zero_probes(rng, points)
            kinds.update(type(fn).__name__ for fn in fmap.logl_fns)
            r, lower = fmap.blocks(ps[:, :, 0])
            want_r, want_lower = _blocks_reference(fmap, ps[:, :, 0])
            for got, want in ((r, want_r), (lower, want_lower)):
                assert got.shape == want.shape and got.dtype == want.dtype, name
                assert got.tobytes() == want.tobytes(), name
            pushed = pi_tame.BundlePushAut(fmap).apply_batch(ps)
            assert pushed.tobytes() == _push_reference(fmap, ps).tobytes(), name
        assert kinds == {"Polynomial", "LagrangePoly"}

    def test_a_minus_zero_log_keeps_its_sign(self):
        # exp(x - x) would give 1 + 0j; the general steps give 1 - 0j
        log = LagrangePoly.fit([2.0], [complex(1e-13, -0.0)])  # that value at s = 2
        fmap = pi_tame.QPolyMap(2, np.ones(2, dtype=np.complex128), (Polynomial((2.0,)),), (log,))
        _, lower = fmap.blocks(np.ones((1, 2), dtype=np.complex128))
        assert np.signbit(lower[0, 0, 0].imag)
        assert lower.tobytes() == _blocks_reference(fmap, np.ones((1, 2)))[1].tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                     complex(np.inf, 1.0)])
    def test_non_finite_probes_raise_as_the_general_path(self, bad):
        rng, maps = self._maps()
        for name, fmap, points in maps:
            ps = np.array(points[:4], dtype=np.complex128)
            ps[2, 1, 0] = bad
            phi = pi_tame.BundlePushAut(fmap)
            got = _bits_or_error(phi.apply_batch, ps)
            assert got == _bits_or_error(_push_reference, fmap, ps), name
            if not name.startswith("zero-fit"):  # its fits are constants, finite everywhere
                assert got == (ValueError, "matrix contains non-finite entries"), name
