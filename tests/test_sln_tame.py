"""Well-placed checks, rescaling, alignment, and subgroup operations."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamelab import cli, core, sln_tame
from tamelab.cn_tame import Polynomial
from tamelab.core import (
    CERTIFIED,
    CONSISTENT,
    VIOLATED,
    DiscreteSequence,
    GeneratorInfo,
    IdentityAut,
    Verdict,
    cn,
    max_norm_distance,
    sln,
)
from tamelab.errors import (
    AlignmentInfeasible,
    AmbientMismatch,
    ConditionViolated,
    DeterminantError,
    DimensionMismatch,
    FiberCollision,
    InconclusivePrefix,
    LambdaVanishes,
    NonFiniteEntries,
    NotDiagonal,
    NotOnSubgroup,
    ProductNotOne,
    TamelabError,
)
from tamelab.pi_tame import BundlePushAut, QPolyMap
from tamelab.rng import stream


def _family(k: int) -> np.ndarray:
    return np.array(
        [[k**4, k**2], [k**2, (1.0 + k**4) / k**4]], dtype=np.complex128
    )


def _partner(k: int) -> np.ndarray:
    return np.array(
        [[k**4, -1j * k**2], [1j * k**2, (1.0 + k**4) / k**4]],
        dtype=np.complex128,
    )


def _mseq(mats, generator=None) -> DiscreteSequence:
    pts = tuple(np.asarray(m, dtype=np.complex128) for m in mats)
    return DiscreteSequence(sln(pts[0].shape[0]), pts, generator)


class TestWellPlaced:
    def test_reference_family_consistent(self):
        verdict, report = sln_tame.well_placed_check(
            _mseq([_family(k) for k in range(1, 31)])
        )
        assert verdict.state == CONSISTENT
        assert report.nonzero_ok and report.monotone_ok
        assert set(report.alpha) == {(2, 1), (2, 2)}
        np.testing.assert_allclose(
            report.alpha[(2, 1)], [float(k**2) for k in range(1, 31)]
        )
        np.testing.assert_allclose(
            report.alpha[(2, 2)],
            [k**6 / (1.0 + k**4) for k in range(1, 31)],
        )
        assert report.beta[(2, 1)] == report.alpha[(2, 1)]

    def test_zero_entry_violates(self):
        verdict, report = sln_tame.well_placed_check(
            _mseq([np.eye(2), _family(2)])
        )
        assert verdict.state == VIOLATED
        assert 0 in verdict.witness
        assert not report.nonzero_ok

    def test_constant_ratios_violate(self):
        base = np.array([[2.0, 3.0], [1.0, 2.0]])
        phase = np.diag([np.exp(0.3j), np.exp(-0.3j)])
        verdict, report = sln_tame.well_placed_check(_mseq([base, phase @ base]))
        assert verdict.state == VIOLATED
        assert verdict.witness == (0, 1)
        assert not report.monotone_ok

    def test_generator_declaration_certifies(self):
        gen = GeneratorInfo.of("wellplaced2", ratio_divergence=True)
        verdict, report = sln_tame.well_placed_check(
            _mseq([_family(k) for k in range(1, 11)], generator=gen)
        )
        assert verdict.state == CERTIFIED
        assert verdict.reason == "declared-divergence"
        assert report.growth_declared

    def test_short_prefix_inconclusive(self):
        with pytest.raises(InconclusivePrefix):
            sln_tame.well_placed_check(_mseq([_family(1)]))


class TestRescaleTable:
    def test_product_must_be_one(self):
        with pytest.raises(ProductNotOne):
            sln_tame.RescaleTable(np.array([[2.0, 0.6]]))

    def test_zero_multiplier_rejected(self):
        with pytest.raises(LambdaVanishes):
            sln_tame.RescaleTable(np.array([[0.0, 1.0]]))

    def test_conforming_table_has_no_failure(self):
        rows = [[k, 1.0 / k] for k in range(1, 6)]
        assert sln_tame.RescaleTable(np.array(rows)).condition_failure() is None

    def test_inverted_table_fails_condition_one(self):
        rows = [[1.0 / k, k] for k in range(1, 6)]
        failure = sln_tame.RescaleTable(np.array(rows)).condition_failure()
        assert failure == (1, 1, 1)


class TestLambdaRescale:
    def test_unit_table_is_identity(self):
        d = _mseq([_family(k) for k in range(1, 6)])
        table = sln_tame.RescaleTable(np.ones((5, 2)))
        out = sln_tame.lambda_rescale(d, table)
        for got, want in zip(out.points, d.points):
            assert np.array_equal(got, want)

    def test_conforming_rescale_stays_well_placed(self):
        d = _mseq([_family(k) for k in range(1, 11)])
        rows = [[k, 1.0 / k] for k in range(1, 11)]
        table = sln_tame.RescaleTable(np.array(rows))
        out = sln_tame.lambda_rescale(d, table, check_conditions=True)
        verdict, _ = sln_tame.well_placed_check(out)
        assert verdict.state == CONSISTENT
        for p in out.points:
            assert abs(np.linalg.det(p) - 1.0) < 1e-9

    def test_bad_conditions_raise_when_checked(self):
        d = _mseq([_family(k) for k in range(1, 6)])
        rows = [[1.0 / k, k] for k in range(1, 6)]
        table = sln_tame.RescaleTable(np.array(rows))
        with pytest.raises(ConditionViolated):
            sln_tame.lambda_rescale(d, table, check_conditions=True)
        assert len(sln_tame.lambda_rescale(d, table)) == 5

    def test_table_must_cover_prefix(self):
        d = _mseq([_family(k) for k in range(1, 6)])
        with pytest.raises(ValueError):
            sln_tame.lambda_rescale(d, sln_tame.RescaleTable(np.ones((3, 2))))

    @given(incs=st.lists(st.floats(0.0, 1.5), min_size=4, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_conforming_tables_preserve_well_placedness(self, incs):
        g = np.cumprod([1.0] + [1.0 + v for v in incs])
        table = sln_tame.RescaleTable(np.stack([g, 1.0 / g], axis=1))
        d = _mseq([_family(k) for k in range(1, 6)])
        out = sln_tame.lambda_rescale(d, table, check_conditions=True)
        verdict, _ = sln_tame.well_placed_check(out)
        assert verdict.state == CONSISTENT


class TestAlignment:
    def test_equal_inputs_align_trivially(self):
        a = _mseq([_family(k) for k in range(1, 21)])
        c, d, record, report = sln_tame.align_first_columns(a, a)
        # complex division of identical columns is not bit-exact, so the
        # scalings sit within a few eps of one rather than at exactly one
        assert report.first_column_mismatch <= sln_tame.ALIGN_TOL
        for tab in (record.lam, record.mu, record.lam_tilde, record.mu_tilde):
            assert np.max(np.abs(tab - 1.0)) < 1e-12
        for got, want in zip(c.points, a.points):
            assert max_norm_distance(got, want) < 1e-9
        for got, want in zip(c.points, d.points):
            assert max_norm_distance(got, want) <= sln_tame.ALIGN_TOL

    def test_phase_twisted_partner_aligns(self):
        a = _mseq([_family(k) for k in range(1, 21)])
        b = _mseq([_partner(k) for k in range(1, 21)])
        c, d, record, report = sln_tame.align_first_columns(a, b)
        assert report.first_column_mismatch <= sln_tame.ALIGN_TOL
        assert report.unit_caps_ok and report.ratio_caps_ok
        assert report.products_ok and report.dominance_ok
        va, _ = sln_tame.well_placed_check(c)
        vb, _ = sln_tame.well_placed_check(d)
        assert va.state == CONSISTENT and vb.state == CONSISTENT
        # the outputs really are the recorded rescalings of the inputs
        for k, (got, src) in enumerate(zip(c.points, a.points)):
            rebuilt = record.lam[k][:, None] * src * record.lam_tilde[k][None, :]
            assert max_norm_distance(got, rebuilt) == 0.0
        for k in range(len(d)):
            prods = [
                complex(np.prod(tab[k]))
                for tab in (record.lam, record.mu, record.lam_tilde, record.mu_tilde)
            ]
            assert all(abs(p - 1.0) <= 1e-9 for p in prods)

    def test_a_mismatch_names_its_first_point(self, monkeypatch):
        a = _mseq([_family(k) for k in range(1, 21)])
        b = _mseq([_partner(k) for k in range(1, 21)])
        c, d, _, _ = sln_tame.align_first_columns(a, b)
        gaps = np.abs(c.array[:, :, 0] - d.array[:, :, 0]).max(axis=1)
        tol = float(np.median(gaps))
        first = int(np.flatnonzero(gaps > tol)[0])
        assert first > 0
        monkeypatch.setattr(sln_tame, "ALIGN_TOL", tol)
        with pytest.raises(AlignmentInfeasible, match=f"by {gaps[first]:.3g} at point {first} "):
            sln_tame.align_first_columns(a, b)

    def test_a_failed_group_names_its_first_step(self, monkeypatch):
        a = _mseq([_family(k) for k in range(1, 6)])
        b = _mseq([_partner(k) for k in range(1, 6)])
        # every unit cap is 1 at step 0, so a negative slack fails it there
        monkeypatch.setattr(sln_tame, "_VERIFY_SLACK", -1e-3)
        with pytest.raises(AlignmentInfeasible,
                           match="^unit caps constraint failed re-verification at step 0$"):
            sln_tame.align_first_columns(a, b)

    def test_prefix_length_mismatch(self):
        a = _mseq([_family(k) for k in range(1, 6)])
        b = _mseq([_partner(k) for k in range(1, 7)])
        with pytest.raises(ValueError):
            sln_tame.align_first_columns(a, b)

    def test_not_well_placed_is_infeasible(self):
        a = _mseq([np.eye(2), _family(2)])
        b = _mseq([_partner(k) for k in range(1, 3)])
        with pytest.raises(AlignmentInfeasible):
            sln_tame.align_first_columns(a, b)

    def test_record_json_shape(self):
        a = _mseq([_family(k) for k in range(1, 4)])
        b = _mseq([_partner(k) for k in range(1, 4)])
        _, _, record, _ = sln_tame.align_first_columns(a, b)
        blob = record.to_json()
        assert set(blob) == {"lambda", "mu", "lambda_tilde", "mu_tilde"}
        assert len(blob["mu"]) == 3
        assert blob["lambda"][0][0] == [1.0, 0.0]


class TestEquivalence:
    def test_identical_prefixes_give_identity(self):
        c = _mseq([np.diag([k, 1.0 / k]) for k in range(1, 9)])
        phi = sln_tame.equivalence_automorphism(c, c)
        assert all(fn == Polynomial() for fn in phi.fmap.r_fns)
        for p in c.points:
            assert np.array_equal(phi.apply(p), p)

    def test_unipotent_twist_recovered(self):
        cs = [np.diag([k, 1.0 / k]) for k in range(1, 13)]
        ds = [c @ np.array([[1.0, k], [0.0, 1.0]]) for k, c in enumerate(cs, 1)]
        c_seq, d_seq = _mseq(cs), _mseq(ds)
        phi = sln_tame.equivalence_automorphism(c_seq, d_seq)
        for c, d in zip(cs, ds):
            assert max_norm_distance(phi.apply(d), c) <= sln_tame.EQUIV_TOL
            assert np.array_equal(phi.apply(d)[:, 0], d[:, 0])

    def test_shared_first_column_collides(self):
        c = _mseq([np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])])
        with pytest.raises(FiberCollision):
            sln_tame.equivalence_automorphism(c, c)


class TestUnionDecompose:
    def test_second_column_dominates(self):
        parts = sln_tame.union_decompose(_mseq([np.array([[1.0, 1.0], [1.0, 2.0]])]))
        assert len(parts[0]) == 0
        assert len(parts[1]) == 1

    def test_diagonal_family_first_column(self):
        d = _mseq([np.diag([k, 1.0 / k]) for k in range(1, 6)])
        parts = sln_tame.union_decompose(d)
        assert len(parts[0]) == 5 and len(parts[1]) == 0

    def test_partition_preserves_points(self):
        mats = [_family(k) for k in range(1, 9)]
        parts = sln_tame.union_decompose(_mseq(mats))
        assert sum(len(p) for p in parts) == len(mats)


class TestTorusEmbed:
    def test_worked_example(self):
        images, verdict = sln_tame.torus_embed([np.diag([2.0, 0.5])])
        np.testing.assert_allclose(images[0], [2.0, 0.5])
        assert verdict.state == CONSISTENT

    def test_identity_image(self):
        images, _ = sln_tame.torus_embed([np.eye(3)])
        np.testing.assert_allclose(images[0], [1.0, 1.0, 1.0])

    def test_diagonal_family_consistent(self):
        mats = [np.diag([float(k), 1.0 / k]) for k in range(1, 21)]
        images, verdict = sln_tame.torus_embed(mats)
        assert verdict.state == CONSISTENT
        for img in images:
            assert abs(complex(np.prod(img)) - 1.0) <= 1e-9

    def test_off_diagonal_rejected(self):
        with pytest.raises(NotDiagonal):
            sln_tame.torus_embed([np.array([[1.0, 1e-8], [0.0, 1.0]])])

    def test_crowded_images_violate(self):
        mats = [
            np.diag([1.0 + k * 1e-8, 1.0 / (1.0 + k * 1e-8)]) for k in range(3)
        ]
        _, verdict = sln_tame.torus_embed(mats)
        assert verdict.state == VIOLATED


class TestOneParam:
    def test_diagonal_family(self):
        d = _mseq([np.diag([2.0**k, 2.0**-k]) for k in range(1, 11)])
        assert sln_tame.one_param_check(d).state == CONSISTENT

    def test_off_subgroup_point(self):
        d = _mseq([np.array([[1.0, 1.0], [0.0, 1.0]])])
        with pytest.raises(NotOnSubgroup):
            sln_tame.one_param_check(d)

    def test_vector_ambient_rejected(self):
        d = DiscreteSequence(cn(2), (np.array([1.0, 0.0]),))
        with pytest.raises(AmbientMismatch):
            sln_tame.one_param_check(d)


def _torus_per_point(mats, min_gap: float = core.MIN_GAP):
    """`torus_embed` validating and testing one matrix at a time: the
    reference the stack path must reproduce."""
    points = []
    for i, p in enumerate(mats):
        try:
            points.append(core.sl_matrix(p))
        except TamelabError as exc:  # the stack names the bad matrix
            raise type(exc)(f"point {i}: {exc}") from None
    if not points:
        raise ValueError("need at least one diagonal matrix")
    n = points[0].shape[0]
    images = []
    for i, p in enumerate(points):
        if p.shape[0] != n:
            raise AmbientMismatch("all matrices must share one size")
        image = np.diag(p)
        worst = float(np.max(np.abs(p - np.diag(image))))
        if worst > 1e-10:
            raise NotDiagonal(f"matrix {i} has an off-diagonal entry of modulus {worst:.3g}")
        images.append(image)
    hit = core.first_close_pair(np.stack(images), min_gap)
    if hit is not None:
        return tuple(images), Verdict.violated(
            hit, f"images {hit[0]} and {hit[1]} sit within {min_gap:g}"
        )
    return tuple(images), Verdict.consistent("torus images are separated at prefix scale")


def _one_param_per_point(d: DiscreteSequence, min_gap: float = core.MIN_GAP) -> Verdict:
    """`one_param_check` snapping each point to its diagonal and sending
    the snapped matrices through `_torus_per_point`."""
    diag = range(d.ambient.n)
    snapped = np.zeros_like(d.array)
    snapped[:, diag, diag] = d.array[:, diag, diag]
    off = np.max(np.abs(d.array - snapped), axis=(1, 2))
    bad = np.flatnonzero(off > sln_tame.SUBGROUP_TOL)
    if bad.size:
        raise NotOnSubgroup(f"point {bad[0]} has off-diagonal modulus {off[bad[0]]:.3g}")
    return _torus_per_point(snapped, min_gap=min_gap)[1]


def _outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _random_diagonals(rng: np.random.Generator, m: int, n: int, close: int = 0) -> np.ndarray:
    """m unimodular diagonal n x n matrices with complex entries, a third of
    them real with a +0.0 or -0.0 imaginary part, and +0.0 or -0.0 parts off
    the diagonal. The last `close` diagonals sit within 1e-7 of the first
    `close`, inside the default gap."""
    lead = np.empty((m, n - 1), dtype=np.complex128)
    re, im = np.moveaxis(lead.view(np.float64).reshape(m, n - 1, 2), -1, 0)
    re[...] = np.exp(rng.uniform(-3.0, 3.0, re.shape))
    im[...] = re * rng.uniform(-1.0, 1.0, re.shape)
    real = rng.random(re.shape) < 1 / 3
    im[real] = np.where(rng.random(int(real.sum())) < 0.5, -0.0, 0.0)
    if close:
        lead[m - close:] = lead[:close] * (1.0 + 1e-9)
    diag = np.column_stack((lead, 1.0 / np.prod(lead, axis=1)))
    stack = np.zeros((m, n, n), dtype=np.complex128)
    parts = stack.view(np.float64)
    parts[...] = np.where(rng.random(parts.shape) < 0.5, -0.0, 0.0)
    stack[:, range(n), range(n)] = diag
    return stack


class TestTorusStack:
    """The stack path of `torus_embed` and `one_param_check` against the
    per-point reference: the same image bits, verdicts and first errors."""

    @pytest.mark.parametrize("close", [0, 40])
    @pytest.mark.parametrize("n", [2, 3])
    def test_images_and_verdict_match_the_per_point_loop(self, n, close):
        stack = _random_diagonals(np.random.default_rng(280 + n), 400, n, close)
        want, verdict = _torus_per_point(list(stack))
        assert verdict.is_violated == bool(close)
        assert np.count_nonzero(np.signbit(stack.view(np.float64)) & (stack.view(np.float64) == 0))
        for mats in (list(stack), _mseq(stack).array):
            images, got = sln_tame.torus_embed(mats)
            assert images.shape == (400, n)
            assert np.array_equal(images.view(np.uint64), np.stack(want).view(np.uint64))
            assert got == verdict

    @pytest.mark.parametrize("n", [2, 3])
    def test_the_product_error_rounds_as_each_row(self, n, tmp_path):
        stack = _random_diagonals(np.random.default_rng(290 + n), 2000, n)
        images, _ = sln_tame.torus_embed(stack)
        rows = [abs(complex(np.prod(v)) - 1.0) for v in images]
        dev = np.prod(images, axis=1) - 1.0
        assert np.array_equal(np.hypot(dev.real, dev.imag), rows)
        path, out = str(tmp_path / "diag.json"), str(tmp_path / "torus.json")
        core.save_sequence(_mseq(stack), path)
        assert cli.main(["transform", "torus-embed", path, "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            assert json.load(fh)["product_error"] == max(rows) > 0.0

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            ({2: "det", 5: "off"}, DeterminantError, "determinant 2"),
            ({2: "off", 5: "det"}, DeterminantError, "determinant 2"),
            ({2: "near", 5: "off"}, NotDiagonal, "matrix 2 has"),
            ({4: "off", 6: "near"}, NotDiagonal, "matrix 4 has"),
            ({1: "det", 3: "nan"}, DeterminantError, "determinant 2"),
            ({1: "nan", 3: "det"}, ValueError, "non-finite"),
        ],
    )
    def test_the_first_bad_matrix_raises_the_per_point_error(self, bad, error, message):
        kinds = {
            "det": np.diag([2.0, 1.0]),
            "off": np.array([[1.0, 1e-6], [0.0, 1.0]]),
            "near": np.array([[1.0, 0.0], [-3e-10j, 1.0]]),
            "nan": np.diag([np.nan, 1.0]),
        }
        mats = list(_random_diagonals(np.random.default_rng(7), 8, 2))
        for i, kind in bad.items():
            mats[i] = kinds[kind].astype(np.complex128)
        want = _outcome(_torus_per_point, mats)
        # a non-finite entry raises `NonFiniteEntries`, which is a `ValueError`
        assert want[0] is (NonFiniteEntries if error is ValueError else error)
        assert message in want[1]
        assert _outcome(sln_tame.torus_embed, mats) == want

    def test_a_matrix_of_another_size_is_a_dimension_error(self):
        mats = [np.eye(2), np.diag([2.0, 0.5]), np.eye(3)]
        assert _outcome(_torus_per_point, mats)[0] is AmbientMismatch
        with pytest.raises(DimensionMismatch, match="expected 2x2, got 3x3"):
            sln_tame.torus_embed(mats)

    @pytest.mark.parametrize("exponents", [(9.0, 12.0), (7.5, 12.0)])
    @pytest.mark.parametrize("close", [0, 5])
    @pytest.mark.parametrize("n", [2, 3])
    def test_one_param_matches_the_per_point_check(self, n, close, exponents):
        rng = np.random.default_rng(300 + 10 * n + close)
        for _ in range(6):
            stack = _random_diagonals(rng, 50, n, close)
            # off-diagonal mass of modulus 10^-u above the diagonal, and for
            # SL(2) below it too, with the last diagonal entry kept unimodular
            near = rng.random(50) < 0.5
            mass = 10.0 ** -rng.uniform(*exponents, (50, 2))
            mass = mass * np.exp(2j * np.pi * rng.random((50, 2)))
            stack[near, 0, n - 1] = mass[near, 0]
            if n == 2:
                stack[near, 1, 0] = mass[near, 1]
                stack[near, 1, 1] = (1.0 + mass[near, 0] * mass[near, 1]) / stack[near, 0, 0]
            d = _mseq(stack)
            want = _outcome(_one_param_per_point, d)
            assert _outcome(sln_tame.one_param_check, d) == want


class TestCenterSeparate:
    def test_opposite_pair_separates(self):
        d = _mseq([np.eye(2), -np.eye(2)])
        phi, verdict = sln_tame.center_separate(d, tries=8, seed=5)
        assert verdict.state == CONSISTENT
        assert isinstance(phi, BundlePushAut)
        moved = [phi.apply(p) for p in d.points]
        quotient = np.linalg.solve(moved[0], moved[1])
        assert min(
            float(np.max(np.abs(quotient - w * np.eye(2)))) for w in (1, -1)
        ) > sln_tame.CENTER_TOL

    def test_cube_root_pair_separates(self):
        omega = np.exp(2j * np.pi / 3)
        d = _mseq([np.eye(3), omega * np.eye(3)])
        _, verdict = sln_tame.center_separate(d, seed=2)
        assert verdict.state == CONSISTENT

    def test_no_central_pairs_certified(self):
        # no generator declaration covers central pairs: consistent, not certified
        d = _mseq([np.eye(2), np.diag([2.0, 0.5])])
        phi, verdict = sln_tame.center_separate(d)
        assert verdict.state == CONSISTENT
        assert verdict.reason == "no-central-pairs"
        assert isinstance(phi, IdentityAut)

    def test_same_fiber_microshift_stays_stuck(self):
        d = _mseq([np.eye(2), np.array([[1.0, 1e-30], [0.0, 1.0]])])
        phi, verdict = sln_tame.center_separate(d, tries=3, seed=1)
        assert verdict.state == VIOLATED
        assert verdict.witness == (0, 1)
        assert isinstance(phi, IdentityAut)


def _central_pairs_loop(points, n):
    """Reference: the pairwise solves the blocked scan replaces."""
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    eye = np.eye(n)
    hits = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            quotient = np.linalg.solve(points[i], points[j])
            best = min(
                float(np.max(np.abs(quotient - w * eye))) for w in roots
            )
            if best <= sln_tame.CENTER_TOL:
                hits.append((i, j))
    return hits


def _gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_sl(rng, n, scale):
    """A point of SL(n) as a product of unit triangular factors, with
    entries up to about scale**2."""
    low = np.tril(_gaussian(rng, (n, n)) * scale, -1) + np.eye(n)
    up = np.triu(_gaussian(rng, (n, n)) * scale, 1) + np.eye(n)
    return low @ up


def _planted_prefix(rng, n, m, scale):
    """Random SL(n) points, some replaced by p_i (wI + E) with w^n = 1 and
    max|E| zero or between 0.5 and 1.5 times CENTER_TOL."""
    pts = np.stack([_random_sl(rng, n, scale) for _ in range(m)])
    roots = [1.0, -1.0] if n == 2 else np.exp(2j * np.pi * np.arange(n) / n)
    for _ in range(int(rng.integers(1, m // 2 + 1))):
        i, j = (int(k) for k in rng.choice(m, 2, replace=False))
        e = _gaussian(rng, (n, n))
        size = rng.choice([0.0, rng.uniform(0.5, 1.5)]) * sln_tame.CENTER_TOL
        e *= size / np.max(np.abs(e))
        pts[j] = pts[i] @ (roots[int(rng.integers(n))] * np.eye(n) + e)
    return pts


def _random_push(rng, n):
    r_fns = tuple(Polynomial(tuple(_gaussian(rng, 3))) for _ in range(n - 1))
    logs = tuple(Polynomial() for _ in range((n - 1) ** 2))
    return BundlePushAut(QPolyMap(n, _gaussian(rng, n), r_fns, logs))


class TestCentralPairs:
    @pytest.mark.parametrize("cap", [1, 50, None])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_pairwise_solves(self, monkeypatch, n, cap):
        if cap is not None:
            monkeypatch.setattr(core, "_PAIR_TABLE_ENTRIES", cap)
        rng = stream(17 + n, "central-pairs")
        found = 0
        for trial in range(60):
            m = int(rng.integers(2, 24))
            pts = _planted_prefix(rng, n, m, [1.0, 10.0, 300.0][trial % 3])
            expected = _central_pairs_loop(pts, n)
            assert sln_tame._central_pairs(pts, n) == expected
            found += len(expected)
        assert found > 0

    @pytest.mark.parametrize("cap", [1, 50, None])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_on_pushed_prefixes(self, monkeypatch, n, cap):
        if cap is not None:
            monkeypatch.setattr(core, "_PAIR_TABLE_ENTRIES", cap)
        rng = stream(29 + n, "central-pairs-pushed")
        for trial in range(20):
            m = int(rng.integers(2, 24))
            pts = _planted_prefix(rng, n, m, [1.0, 10.0][trial % 2])
            moved = _random_push(rng, n).apply_batch(pts)
            assert sln_tame._central_pairs(moved, n) == _central_pairs_loop(moved, n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_extremal_perturbation_is_kept(self, n):
        # the first row of p E reaches (1 - 1e-3) n max|p| CENTER_TOL, just
        # under the prefilter's bound before its rounding slack
        p = np.eye(n, dtype=np.complex128)
        p[0] = 1.0
        e = (1 - 1e-3) * sln_tame.CENTER_TOL * np.ones((n, n))
        for w in np.exp(2j * np.pi * np.arange(n) / n):
            pts = np.stack([p, p @ (w * np.eye(n) + e)])
            assert sln_tame._central_pairs(pts, n) == [(0, 1)]
            assert _central_pairs_loop(pts, n) == [(0, 1)]

    def test_lexicographic_order_and_small_prefixes(self):
        eye = np.eye(2, dtype=np.complex128)
        pts = np.stack([eye, np.diag([2.0, 0.5]) + 0j, -eye, eye])
        assert sln_tame._central_pairs(pts, 2) == [(0, 2), (0, 3), (2, 3)]
        assert sln_tame._central_pairs(pts[:1], 2) == []
        assert sln_tame._central_pairs(pts[:0], 2) == []
