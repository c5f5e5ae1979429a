"""Projection properness, fiber factors, and the fiberwise push map."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamelab import cn_tame, pi_tame, sln_tame
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
    BadParams,
    DegenerateConfiguration,
    DeterminantError,
    FiberCollision,
    InterpolationIllConditioned,
    NonFiniteEntries,
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


def _q(r, lower) -> np.ndarray:
    """One fiber-group element [[1, r], [0, lower]], assembled and checked
    by `_q_stack` as a stack of one."""
    return pi_tame._q_stack(np.atleast_1d(r)[None], np.asarray(lower)[None])[0]


def _factor(a, b) -> np.ndarray:
    """The fiber factor carrying b to a, by `fiber_factors` on one pair."""
    as_stack = [np.asarray(x, dtype=np.complex128)[None] for x in (a, b)]
    return pi_tame.fiber_factors(*as_stack)[0]


def _random_q2(rng) -> np.ndarray:
    r = complex(rng.standard_normal() + 1j * rng.standard_normal())
    return _q(np.array([r]), np.eye(1))


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
    """One fiber-group element [[1, r], [0, L]] from its blocks, as
    `_q_stack` assembles and checks it; its first column is e1 by
    construction."""

    def test_from_blocks_is_block_triangular(self):
        q = _q(np.array([2.0 + 1j]), np.eye(1))
        assert q[1, 0] == 0.0
        assert q[0, 0] == 1.0
        assert q[0, 1] == 2.0 + 1j
        assert np.allclose(q[1:, 1:], np.eye(1))

    def test_rejects_wrong_determinant(self):
        with pytest.raises(DeterminantError):
            _q(np.array([0.0]), 2.0 * np.eye(1))

    def test_from_blocks_rejects_non_finite(self):
        with pytest.raises(ValueError):
            _q(np.array([np.nan]), np.eye(1))
        with pytest.raises(ValueError):
            _q(np.array([0.0]), np.array([[np.inf]]))

    def test_from_blocks_checks_the_assembled_block(self):
        # a 1x1 lower block broadcasts to a singular 2x2 block
        with pytest.raises(DeterminantError):
            _q(np.zeros(2), np.eye(1))


class TestProject:
    def test_first_column_is_fiber_invariant(self):
        rng = stream(7, "equivariance")
        worst = 0.0
        for _ in range(1000):
            m = _random_sl2(rng)
            q = _random_q2(rng)
            moved = m @ q
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
    """The fiber factor carrying one matrix to another, by `fiber_factors`
    on a stack of one pair."""

    def test_worked_example(self):
        b = np.array([[1.0, 0.0], [1.0, 1.0]])
        a = np.array([[1.0, 1.0], [1.0, 2.0]])
        g = _factor(a, b)
        assert np.allclose(g, np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert max_norm_distance(b @ g, a) <= 1e-9

    def test_different_fibers_rejected(self):
        with pytest.raises(NotSameFiber):
            _factor(np.diag([2.0, 0.5]), np.eye(2))

    def test_snaps_small_fiber_drift(self):
        b = np.array([[1.0, 0.0], [1.0, 1.0]])
        a = np.array([[1.0, 1.0], [1.0 + 5e-10, 2.0]])
        g = _factor(a, b)
        assert g[1, 0] == 0.0
        assert max_norm_distance(b @ g, a) <= 1e-9

    @given(
        re=st.floats(-4.0, 4.0),
        im=st.floats(-4.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_recovers_fiber_element(self, re, im, seed):
        rng = stream(seed, "q-factor")
        b = _random_sl2(rng)
        q = _q(np.array([re + 1j * im]), np.eye(1))
        a = b @ q
        g = _factor(a, b)
        scale = 1.0 + max(abs(re), abs(im))
        assert max_norm_distance(g, q) <= 1e-7 * scale


class TestFitQMap:
    def test_reproduces_elements_at_nodes(self):
        images = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex)
        x = np.array([[0.3, 0.1], [0.2, -0.3]])
        factors = np.stack([_q(np.array([1.0, 2.0]), pi_tame._matrix_exp(s * x))
                            for s in (0.5, -0.25)])
        fmap = pi_tame.fit_factors(images, factors, seed=3)
        r, lower = fmap.blocks(images)
        for k, factor in enumerate(factors):
            assert max_norm_distance(_q(r[k], lower[k]), factor) <= 1e-8

    def test_a_short_factor_stack_is_refused(self):
        # 3 images and 2 factors once fitted a map whose apply ended in a
        # plain IndexError; the count is checked before anything is fitted
        images = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], dtype=complex)
        factors = np.stack([np.array([[1.0, float(k)], [0.0, 1.0]], dtype=complex)
                            for k in (1, 2)])
        with pytest.raises(BadParams, match=r"^2 fiber factors for 3 images"):
            pi_tame.fit_factors(images, factors)
        with pytest.raises(BadParams, match=r"^2 fiber factors for 3 images"):
            pi_tame.fit_q_map(list(images), list(factors))

    def test_coincident_images_rejected(self):
        images = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
        factors = np.stack([_q(np.array([float(k)]), np.eye(1)) for k in (1, 2)])
        with pytest.raises(FiberCollision):
            pi_tame.fit_factors(images, factors)

    def test_push_names_points_sharing_a_first_column(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        b = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        d = DiscreteSequence(sln(2), (np.diag([2.0, 0.5]).astype(complex), a, b))
        with pytest.raises(FiberCollision,
                           match="images 1 and 2 coincide: the two points share a first column"):
            pi_tame.bundle_push(d, HeightAssignment.constant(10.0, 3), seed=0)

    def test_collision_names_first_pair(self):
        a, b = np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)
        with pytest.raises(FiberCollision, match="images 0 and 1 coincide"):
            pi_tame.fit_factors(np.stack([a, a, a]), np.stack([_random_q2(stream(0, "q"))] * 3))
        with pytest.raises(FiberCollision, match="images 0 and 3 coincide"):
            pi_tame.fit_factors(np.stack([a, b, b, a]), np.stack([_random_q2(stream(1, "q"))] * 4))

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
        images = np.stack([rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(6)])
        x = np.array([[0.3, 0.1], [0.2, -0.3]])
        factors = np.stack([_q(rng.standard_normal(2) + 0j, pi_tame._matrix_exp(s * x))
                            for s in np.linspace(-0.5, 0.5, 6)])
        fmap = pi_tame.fit_factors(images, factors, seed=2)
        probes = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        r, lower = fmap.blocks(probes)
        for k, y in enumerate(probes):
            q = _q(*(b[0] for b in fmap.blocks(y[None])))
            assert np.array_equal(q[0, 1:], r[k])
            assert np.array_equal(q[1:, 1:], lower[k])

    def test_nonzero_block_columns_share_one_set_of_weights(self, monkeypatch):
        # SL(3) factors with a nonzero top row and a diagonalizable lower
        # block other than the identity, so all six block columns are nonzero
        rng = stream(11, "q-shared")
        images = np.stack([rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(8)])
        x = np.array([[0.3, 0.1], [0.2, -0.3]])
        factors = np.stack([
            _q(rng.standard_normal(2) + 1j * rng.standard_normal(2), pi_tame._matrix_exp(s * x))
            for s in np.linspace(-0.5, 0.5, 8)
        ])
        real = cn_tame._log_weights
        nodes = []
        monkeypatch.setattr(cn_tame, "_log_weights", lambda xs: nodes.append(len(xs)) or real(xs))
        fmap = pi_tame.fit_factors(images, factors, seed=2)
        fns = fmap.r_fns + fmap.logl_fns
        assert len(fns) == 6 and all(isinstance(fn, LagrangePoly) for fn in fns)
        # evaluation at the nodes needs no weights, and the first point off
        # them computes the one set all six fits share
        for fn in fns:
            fn(np.array(fn.nodes))
        assert nodes == []
        off = complex(np.abs(fns[0].nodes).max() + 1.0)
        for fn in fns:
            fn(off)
        assert nodes == [8]
        assert all(fn.log_weights is fns[0].log_weights for fn in fns)

    def test_polynomials_evaluate_as_scalars(self):
        rng = stream(9, "eval-each")
        poly = Polynomial(tuple(rng.standard_normal(9) + 1j * rng.standard_normal(9)))
        ss = 3.0 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
        want = np.array([poly(complex(s)) for s in ss])
        assert np.array_equal(poly(ss), want)
        assert np.array_equal(poly(ss.reshape(20, 10)), want.reshape(20, 10))
        assert np.array_equal(Polynomial()(ss), np.zeros(200))

    def test_every_fit_is_barycentric_and_zero_values_fit_zero_at_any_size(self):
        rng = stream(10, "fit-forms")
        for m in (5, 45, 300):
            ys = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
            u, ss = pi_tame._separate(ys, 1)
            rs = rng.standard_normal((m, 1)) + 1j * rng.standard_normal((m, 1))
            fmap = pi_tame._interpolate_blocks(u, ss, rs, np.zeros((m, 1), dtype=np.complex128))
            assert isinstance(fmap.r_fns[0], LagrangePoly)
            assert fmap.logl_fns == (Polynomial(),)
            assert np.array_equal(fmap.r_fns[0](ss), rs[:, 0])

    def test_nonprincipal_branch_rejected(self):
        images = np.array([[1.0, 0.0, 0.0]], dtype=complex)
        factors = _q(np.array([0.0, 0.0]), -np.eye(2))[None]
        with pytest.raises(DegenerateConfiguration):
            pi_tame.fit_factors(images, factors)

    def test_defective_lower_block_rejected(self):
        images = np.array([[1.0, 0.0, 0.0]], dtype=complex)
        factors = _q(np.array([0.0, 0.0]), np.array([[1.0, 1.0], [0.0, 1.0]]))[None]
        with pytest.raises(DegenerateConfiguration):
            pi_tame.fit_factors(images, factors)


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
            # demands past t = 2^8, so that the search crosses rungs of 8
            # doublings: on a sheared height at each rung's ends and up to
            # the cap, and just past one, which takes the next doubling
            ks = np.concatenate([[7, 8, 15, 16, 23, 24, 55, 56, 59, 60], rng.integers(8, 60, 90)])
            far = np.array([np.linalg.norm(x[:, 1] + 2.0**k * x[:, 0]) for x, k in zip(xs, ks)])
            far[1::2] *= 1.0 + 1e-12 * (ks[1::2] < 60)
            far[10:][rng.random(90) < 0.2] *= 0.5
            want = [_shear_parameter_loop(x, t) for x, t in zip(xs, far)]
            assert None not in want and max(want) == 2.0**60
            assert list(pi_tame._shear_parameters(xs[:100], far)) == want
            # the cap: the first demand that no doubling up to 2^60 meets is named
            for i, scale in ((40, 4.0), (70, 8.0)):
                far[i] = scale * np.linalg.norm(xs[i][:, 1] + 2.0**60 * xs[i][:, 0])
            assert _shear_parameter_loop(xs[40], far[40]) is None
            named = re.escape(f"reaches height {far[40]:g}") + "$"
            with pytest.raises(SearchExhausted, match=named):
                pi_tame._shear_parameters(xs[:100], far)

    def test_shear_parameters_match_the_loop_under_another_blas_kernel(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
        if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
            pytest.skip("numpy is not linked to a DYNAMIC_ARCH OpenBLAS")
        src = os.path.dirname(os.path.dirname(os.path.abspath(pi_tame.__file__)))
        pythonpath = os.environ.get("PYTHONPATH")
        env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
               "PYTHONPATH": src + (os.pathsep + pythonpath if pythonpath else "")}
        test = f"{__file__}::TestBundlePush::test_shear_parameters_match_scalar_search"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_a_push_checks_its_nodes_once(self, monkeypatch):
        # the columns and the one separator draw are checked; the fit and
        # the search do not check again, and every t <= 128 is one rung
        counts = dict.fromkeys(["first_close_pair", "_log_weights", "interpolate_nodes",
                                "_row_norms"], 0)
        for module, name in ((pi_tame, "first_close_pair"), (cn_tame, "_log_weights"),
                             (cn_tame, "interpolate_nodes"), (pi_tame, "_row_norms")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _name=name, _real=real:
                                counts.__setitem__(_name, counts[_name] + 1) or _real(*a))
        d = _mseq(_sl2_with_zero_parts(stream(33, "push-checks"), 10))
        phi, _ = pi_tame.bundle_push(d, HeightAssignment.constant(25.0, 10), seed=0)
        ts = np.array(phi.fmap.r_fns[0].values)
        assert ts.any() and np.abs(ts).max() <= 128
        # the push evaluates its fit only at the nodes, which needs no weights
        assert counts == {"first_close_pair": 2, "_log_weights": 0, "interpolate_nodes": 0,
                          "_row_norms": 1}
        fit = phi.fmap.r_fns[0]
        fit(complex(np.abs(fit.nodes).max() + 1.0))
        assert counts["_log_weights"] == 1

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

    def test_caller_errors_are_typed(self):
        d = _mseq([np.eye(2)])
        with pytest.raises(BadParams, match="^need one height per prefix point$"):
            pi_tame.bundle_push(d, HeightAssignment((2.0, 3.0)))
        with pytest.raises(BadParams, match="^need at least one node$"):
            pi_tame.fit_q_map([], [])

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
        for m in (10, 45):
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
            factors = np.stack([_q(np.array([k - 0.5j]), np.array([[low]]))
                                for k, low in enumerate(lowers)])
            maps.append(("fit", pi_tame.fit_factors(pts[:, :, 0], factors, seed=1), pts))
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

    def test_a_zero_lower_fit_pushes_as_the_assembled_factor(self, monkeypatch):
        rng = stream(32, "zero-lower")
        d = _mseq(_sl2_with_zero_parts(rng, 10))
        phi, _ = pi_tame.bundle_push(d, HeightAssignment.constant(25.0, 10), seed=1)
        fmap = phi.fmap
        assert fmap.logl_fns == (Polynomial(),) and isinstance(fmap.r_fns[0], LagrangePoly)
        ps = _signed_zero_probes(rng, d.array)
        # the factor as the general steps build it: exp(lo - 1.0 * (lo / 1)) of lo = 0j
        ss = np.sum(fmap.u * ps[:, :, 0], axis=1)
        lo = np.zeros(len(ss), dtype=np.complex128)  # Horner's value of the zero polynomial
        q = np.zeros(ps.shape, dtype=np.complex128)
        q[:, 0, 0] = 1.0
        q[:, 0, 1] = fmap.r_fns[0](ss)
        q[:, 1, 1] = np.exp(lo - 1.0 * (lo / 1))
        assert phi.apply_batch(ps).tobytes() == (ps @ q).tobytes()
        # a non-finite top row is still caught by the full check
        values = list(fmap.r_fns[0].values)
        values[4] = complex(np.inf, 0.0)
        bad = pi_tame.BundlePushAut(pi_tame.QPolyMap(
            2, fmap.u, (fmap.r_fns[0].with_values(values),), fmap.logl_fns))
        checked = []
        monkeypatch.setattr(pi_tame, "_check_rows", lambda kind, arr, *rest:
                            checked.append(len(arr)) or _check_rows(kind, arr, *rest))
        with pytest.raises(NonFiniteEntries, match="^point 4: matrix contains non-finite entries$"):
            bad.apply_batch(d.array)
        assert checked == [10]

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
                assert got == (NonFiniteEntries, "point 2: matrix contains non-finite entries"), name


class TestIdentityLower:
    """An n = 2 map whose lower fit is the zero polynomial, as every such
    `bundle_push` map is, pushes with lower blocks 1+0j that are never
    evaluated; `blocks` still returns them. Other maps take `blocks`."""

    def test_the_push_does_not_evaluate_the_lower_blocks(self, monkeypatch):
        rng = stream(33, "identity-lower")
        d = _mseq(_sl2_with_zero_parts(rng, 10))
        phi, _ = pi_tame.bundle_push(d, HeightAssignment.constant(25.0, 10), seed=2)
        assert phi.fmap.identity_lower()
        ps = _signed_zero_probes(rng, d.array)
        want = _push_reference(phi.fmap, ps)
        _, lower = phi.fmap.blocks(ps[:, :, 0])
        assert lower.shape == (len(ps), 1, 1)
        assert lower.tobytes() == np.ones((len(ps), 1, 1), dtype=np.complex128).tobytes()
        monkeypatch.setattr(pi_tame.QPolyMap, "blocks", lambda *args: pytest.fail("evaluated"))
        monkeypatch.setattr(pi_tame, "_check_rows", lambda *args: pytest.fail("checked"))
        assert phi.apply_batch(ps).tobytes() == want.tobytes()
        assert phi.apply(ps[3]).tobytes() == want[3].tobytes()
        assert phi.apply_batch(ps[:0]).shape == (0, 2, 2)

    def test_other_maps_are_not_identity_lower(self):
        rng = stream(34, "identity-lower")
        d = _mseq([_random_sln(rng, 3) for _ in range(6)], 3)
        phi, _ = pi_tame.bundle_push(d, HeightAssignment.constant(25.0, 6))
        assert not phi.fmap.identity_lower()  # n = 3 keeps the general steps
        # for n = 2 a traceless 1x1 logarithm is 0, so a fitted map's lower
        # fit is the zero polynomial; one with nonzero log values is not
        pts = _sl2_with_zero_parts(rng, 6)
        factors = np.stack([_q(np.array([k + 1.0]), np.array([[1.0 + 1e-12 * k]]))
                            for k in range(6)])
        assert pi_tame.fit_factors(pts[:, :, 0], factors).identity_lower()
        u, ss = pi_tame._separate(pts[:, :, 0], 1)
        logs = 1e-12 * (np.arange(6.0) + 1j)[:, None]
        fmap = pi_tame._interpolate_blocks(u, ss, np.ones((6, 1), dtype=np.complex128), logs)
        assert not fmap.identity_lower()

    def test_sl3_push_is_the_general_formulas_bits(self):
        rng = stream(35, "sl3-push")
        maps = []
        for m, height in ((8, 40.0), (20, 25.0), (6, 0.5)):  # the last needs no push
            mats = np.stack([_random_sln(rng, 3) for _ in range(m)])
            mats[::3, 1, 0] = mats[::3, 1, 0].real
            mats[1::3, 2, 0] = 1j * mats[1::3, 2, 0].imag
            mats[:, :, 0] /= np.linalg.det(mats)[:, None]
            d = _mseq(mats, 3)
            phi, _ = pi_tame.bundle_push(d, HeightAssignment.constant(height, m), seed=m)
            maps.append((phi.fmap, d.array))
        assert [fmap.r_fns[0] == Polynomial() for fmap, _ in maps] == [False, False, True]
        for fmap, points in maps:
            ps = _signed_zero_probes(rng, points)
            r, lower = fmap.blocks(ps[:, :, 0])
            want_r, want_lower = _blocks_reference(fmap, ps[:, :, 0])
            for got, want in ((r, want_r), (lower, want_lower)):
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            assert lower.tobytes() == np.broadcast_to(np.eye(3 - 1, dtype=np.complex128),
                                                      lower.shape).tobytes()
            pushed = pi_tame.BundlePushAut(fmap).apply_batch(ps)
            assert pushed.tobytes() == _push_reference(fmap, ps).tobytes()


def _q_factor_per_pair(a, b, k: int = 0) -> np.ndarray:
    """One fiber factor as it was taken one pair at a time, before factors
    were taken as a stack, the pair's index k named in a factor's error:
    the reference `fiber_factors` must reproduce."""
    am, bm = sl_matrix(a), sl_matrix(b)
    drift = float(np.max(np.abs(am[:, 0] - bm[:, 0])))
    if drift > pi_tame.FIBER_MATCH_TOL:
        raise NotSameFiber(f"first columns differ by {drift:.3g}")
    g = np.linalg.solve(bm, am)
    q = np.eye(len(g), dtype=np.complex128)
    q[0, 1:] = g[0, 1:]
    q[1:, 1:] = g[1:, 1:]
    _check_rows("sln", q[None], DET_TOL, k)
    return q


def _principal_log_per_block(lower: np.ndarray) -> np.ndarray:
    """One block's traceless principal logarithm, as it was taken before
    logarithms were taken as a stack."""
    if lower.shape == (1, 1):
        out = np.array([[complex(np.log(lower[0, 0]))]])
    else:
        w, v = np.linalg.eig(lower)
        if np.any(w == 0) or np.linalg.cond(v) > 1e10:
            raise DegenerateConfiguration("lower block is defective; no principal logarithm")
        out = v @ np.diag(np.log(w)) @ np.linalg.inv(v)
    trace = complex(np.trace(out))
    if abs(trace) > 1e-8:
        raise DegenerateConfiguration(f"principal logarithm has trace {trace:.3g}")
    return out - np.eye(lower.shape[0]) * (trace / lower.shape[0])


def _equivalence_per_pair(cs: np.ndarray, ds: np.ndarray, seed: int = 0):
    """The factors, logarithms, fit and moved stack of `equivalence_move`,
    one pair and one block at a time, in its stage order: each pair's
    first columns then its factor, the separator, the logarithms."""
    factors = np.stack([_q_factor_per_pair(c, d, k) for k, (c, d) in enumerate(zip(cs, ds))])
    u, ss = pi_tame._separate(np.stack(list(cs[:, :, 0])), seed)
    logs = np.stack([_principal_log_per_block(q[1:, 1:]).reshape(-1) for q in factors])
    fmap = pi_tame._interpolate_blocks(u, ss, factors[:, 0, 1:], logs)
    return factors, logs, fmap, _push_reference(fmap, ds)


def _flip_zeros(rng, a: np.ndarray) -> np.ndarray:
    """a with about half of its zero parts negated."""
    a = a.copy()
    for part in (a.real, a.imag):
        flip = (part == 0) & (rng.random(a.shape) < 0.5)
        part[flip] = -part[flip]
    return a


def _fiber_pairs(rng, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Random c_k in SL(n), some parts zero, and d_k = c_k q_k for
    q_k = [[1, r], [0, L]]: L = 1 for n = 2, else P diag(mu) P^-1 with
    prod(mu) = 1. About half of the zero parts of each are -0.0."""
    if n == 2:
        cs = _sl2_with_zero_parts(rng, m)
    else:
        cs = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
        cs[::3, 1, 2] = cs[::3, 1, 2].real
        cs[1::4, 0, 1] = 0.0
        cs[:, :, 0] /= np.linalg.det(cs)[:, None]
    qs = np.zeros((m, n, n), dtype=np.complex128)
    qs[:, 0, 0] = 1.0
    qs[:, 0, 1:] = rng.standard_normal((m, n - 1)) + 1j * rng.standard_normal((m, n - 1))
    qs[::5, 0, 1] = 0.0
    k = n - 1
    p = rng.standard_normal((m, k, k)) + 1j * rng.standard_normal((m, k, k))
    # eigenvalues of product one whose arguments sum to zero, so the
    # principal logarithms have trace zero
    mu = rng.uniform(0.5, 2.0, (m, k)) * np.exp(1j * rng.uniform(-2.4, 2.4, (m, k)) / max(k - 1, 1))
    # blocks near the identity, whose logarithms are near the trace's size
    mu[::4] = 1.0 + 1e-14 * (rng.standard_normal((len(mu[::4]), k)) + 1j)
    mu[:, -1] = 1.0 / np.prod(mu[:, :-1], axis=1)
    qs[:, 1:, 1:] = 1.0 if n == 2 else p @ (mu[:, :, None] * np.linalg.inv(p))
    return _flip_zeros(rng, cs), _flip_zeros(rng, cs @ qs)


def _q_with(n: int, lower: np.ndarray) -> np.ndarray:
    """[[1, r], [0, lower]] with every entry of r 0.5."""
    q = np.eye(n, dtype=np.complex128)
    q[0, 1:] = 0.5
    q[1:, 1:] = lower
    return q


def _float_bits(doc) -> np.ndarray:
    """Every float of a JSON document, in order, as a uint64 view."""
    flat = []

    def walk(x):
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)
        elif isinstance(x, float):
            flat.append(x)

    walk(doc)
    return np.array(flat, dtype=np.float64).view(np.uint64)


def _golden_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    from test_golden_cli import _sl2_equivalence_pair, _sl3_equivalence_pair

    pair = _sl2_equivalence_pair(300) if n == 2 else _sl3_equivalence_pair(100)
    return tuple(np.array(p, dtype=np.complex128) for p in pair)


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestFactorStack:
    """`equivalence_move` takes its fiber factors and their logarithms as
    stacks; bits, and the first failing pair's error, stay the per-pair
    path's."""

    @pytest.mark.parametrize("n, m", [(2, 15), (2, 300), (2, 1000), (3, 15), (3, 300),
                                      (3, 1000), (4, 15), (4, 300), (2, "golden"),
                                      (3, "golden")])
    def test_stacks_have_the_per_pair_bits(self, n, m):
        if m == "golden":
            cs, ds = _golden_pair(n)
        else:
            cs, ds = _fiber_pairs(stream(m + n, "factor-stack"), n, m)
        factors, logs, fmap, moved = _equivalence_per_pair(cs, ds)
        assert _same_bits(pi_tame.fiber_factors(cs, ds), factors)
        elements = [_factor(c, d) for c, d in zip(cs, ds)]
        assert _same_bits(np.stack(elements), factors)
        got_logs = pi_tame._principal_log(factors[:, 1:, 1:]).reshape(len(cs), -1)
        assert _same_bits(got_logs, logs)
        fit = pi_tame.fit_q_map(list(cs[:, :, 0]), elements)
        assert fit.to_json().keys() == fmap.to_json().keys()
        assert _same_bits(_float_bits(fit.to_json()), _float_bits(fmap.to_json()))
        phi, got_moved = sln_tame.equivalence_move(_mseq(cs, n), _mseq(ds, n))
        assert _same_bits(_float_bits(phi.to_json()), _float_bits(fmap.to_json()))
        assert _same_bits(got_moved, moved)

    @staticmethod
    def _faulty(n: int, faults) -> tuple[np.ndarray, np.ndarray]:
        """A 12-point pair with each (kind, index) fault put in: `drift`
        moves d's first column, `factor` leaves a factor of determinant
        1 + 1e-7 between inputs that load, `collide` at (j, k) gives pair k
        the first column of pair j, `branch` gives the factor a lower block
        whose principal logarithm has trace near 2 pi i, and `defective` a
        Jordan block."""
        rng = stream(40 + n, "faulty-pairs")
        cs, ds = _fiber_pairs(rng, n, 12)
        for kind, i in faults:
            if kind == "drift":
                ds[i, :, 0] += 1e-6 * ds[i, :, 1]
            elif kind == "factor":
                # wide second columns loosen the inputs' determinant
                # tolerance; a lower block I keeps the factor's narrow
                ds[i] = cs[i] @ _q_with(n, np.eye(n - 1))
                for a in (cs, ds):
                    a[i, :, 1] += 1e4 * a[i, :, 0]
                cs[i, :, 1] *= 1.0 + 1e-7
            elif kind == "collide":
                j, k = i
                cs[k] = cs[j].copy()
                cs[k, :, 1] += cs[k, :, 0]
                ds[k] = cs[k].copy()
            else:
                # powers of two make the defective factor exactly q^-1; the
                # branch block's eigenvalues sit just off the negative axis,
                # on one side, so their logarithms sum to about 2 pi i
                lower = (np.diag([-2.0 + 1e-12j, -0.5 + 1e-12j]) if kind == "branch"
                         else np.eye(n - 1) + np.eye(n - 1, k=1))
                cs[i] = np.diag([2.0 ** (i + 1), 1.0, 2.0 ** -(i + 1)])
                ds[i] = cs[i] @ _q_with(n, lower)
        return cs, ds

    @pytest.mark.parametrize("n, faults, error, named", [
        (2, [("drift", 5)], NotSameFiber, "at point 5"),
        (2, [("factor", 3), ("drift", 5)], DeterminantError, None),
        (2, [("drift", 2), ("factor", 6)], NotSameFiber, "at point 2"),
        (2, [("collide", (1, 4)), ("drift", 9)], NotSameFiber, "at point 9"),
        (3, [("drift", 7)], NotSameFiber, "at point 7"),
        (3, [("factor", 3), ("drift", 5)], DeterminantError, None),
        (3, [("drift", 4), ("factor", 8)], NotSameFiber, "at point 4"),
        (3, [("collide", (2, 6)), ("factor", 10)], DeterminantError, None),
        (3, [("defective", 2), ("collide", (5, 7))], FiberCollision, "images 5 and 7"),
        (3, [("branch", 3), ("defective", 6)], DegenerateConfiguration, "at node 3"),
        (3, [("defective", 4), ("branch", 8)], DegenerateConfiguration, "at node 4"),
        (3, [("factor", 7), ("branch", 1)], DeterminantError, None),
        (3, [("defective", 0)], DegenerateConfiguration, "at node 0"),
        (3, [("branch", 11), ("drift", 11)], NotSameFiber, "at point 11"),
    ])
    def test_the_first_failing_pair_raises_in_stage_order(self, n, faults, error, named):
        cs, ds = self._faulty(n, faults)
        c_seq, d_seq = _mseq(cs, n), _mseq(ds, n)
        with pytest.raises(error) as want:
            _equivalence_per_pair(c_seq.array, d_seq.array)
        with pytest.raises(error) as got:
            sln_tame.equivalence_move(c_seq, d_seq)
        if named is None or named.startswith("images"):
            assert str(got.value) == str(want.value)
        if named is not None:
            assert named in str(got.value)
