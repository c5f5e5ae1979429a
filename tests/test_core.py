"""Shared-primitive behaviour: exhaustions, discreteness, properness,
height reduction, matrix validation, and serialization."""

from __future__ import annotations

import json
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamelab import cli, core
from tamelab.errors import (
    BadParams,
    DeterminantError,
    DimensionMismatch,
    DuplicatePoints,
    InconclusivePrefix,
    MalformedDocument,
    NonFiniteEntries,
    PointOutsideAmbient,
    TamelabError,
    UnsupportedPair,
)
from tamelab.rng import stream


def seq_cn(points, generator=None):
    pts = tuple(np.asarray(p, dtype=complex) for p in points)
    return core.DiscreteSequence(core.cn(len(pts[0])), pts, generator)


class TestExhaustEval:
    def test_punctured_tau_outside_unit_ball(self):
        amb = core.punctured_cn(2)
        assert core.exhaust_eval(core.PUNCTURED_TAU, [2, 0], amb) == 2.0

    def test_punctured_tau_inside_unit_ball(self):
        amb = core.punctured_cn(2)
        assert core.exhaust_eval(core.PUNCTURED_TAU, [0.5, 0], amb) == 2.0

    def test_disc_plane_tau(self):
        amb = core.disc_plane()
        val = core.exhaust_eval(core.DISC_PLANE_TAU, [0.5, 3], amb)
        assert val == pytest.approx(5.0, abs=1e-12)

    def test_max_column_norm(self):
        amb = core.sln(2)
        m = [[3, 0], [0, 1 / 3]]
        assert core.exhaust_eval(core.MAX_COLUMN_NORM, m, amb) == pytest.approx(3.0)

    def test_origin_rejected_in_punctured_space(self):
        with pytest.raises(PointOutsideAmbient):
            core.exhaust_eval(core.PUNCTURED_TAU, [0, 0], core.punctured_cn(2))

    def test_nonnegative_and_continuous(self):
        rng = stream(7, "exhaust")
        amb = core.cn(3)
        for _ in range(200):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            base = core.exhaust_eval(core.EUCLIDEAN_NORM, v, amb)
            assert base >= 0
            bump = v + 1e-8 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            moved = core.exhaust_eval(core.EUCLIDEAN_NORM, bump, amb)
            assert abs(moved - base) <= 1e-4 * (1.0 + base)


class TestDiscreteness:
    def test_well_separated(self):
        d = seq_cn([[1, 0], [2, 0]])
        assert core.discreteness_check(d, 0.5).state == core.CONSISTENT

    def test_close_pair_flagged(self):
        d = seq_cn([[1, 0], [1.001, 0]])
        v = core.discreteness_check(d, 0.01)
        assert v.is_violated
        assert v.witness == (0, 1)

    def test_harmonic_tail_collapses(self):
        # adjacent gaps are 1/(k(k+1)), first below 1e-4 at k = 100
        pts = [[1.0 / k, 0.0] for k in range(1, 51)]
        assert core.discreteness_check(seq_cn(pts), 1e-4).state == core.CONSISTENT
        pts = [[1.0 / k, 0.0] for k in range(1, 160)]
        v = core.discreteness_check(seq_cn(pts), 1e-4)
        assert v.is_violated

    def test_witness_is_the_lexicographically_first_pair(self):
        # (1, 2) comes first in order of the real part, (0, 3) by index
        d = seq_cn([[1.0], [0.0], [1e-8], [1.0 + 1e-8]])
        v = core.discreteness_check(d, 1e-6)
        assert v.witness == (0, 3)
        assert v.detail == "points 0 and 3 are 1e-08 apart"

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariant(self, pyrandom):
        rng = stream(11, "perm")
        pts = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(12)]
        d1 = seq_cn(pts)
        shuffled = list(pts)
        pyrandom.shuffle(shuffled)
        d2 = seq_cn(shuffled)
        g = 1e-3
        assert (
            core.discreteness_check(d1, g).state == core.discreteness_check(d2, g).state
        )

    def test_an_empty_prefix_is_inconclusive(self):
        with pytest.raises(InconclusivePrefix, match="^discreteness needs a nonempty prefix$"):
            core.discreteness_check(core.DiscreteSequence(core.cn(2), ()))


class TestProperness:
    def test_distinct_images(self):
        imgs = [np.array([1.0]), np.array([2.0]), np.array([3.0])]
        assert core.properness_check(imgs, 1e-6, 1).state == core.CONSISTENT

    def test_fat_fiber(self):
        imgs = [np.array([1.0])] * 10
        v = core.properness_check(imgs, 1e-6, 5)
        assert v.is_violated
        assert len(v.witness) == 10

    def test_accumulating_images(self):
        imgs = [np.array([1.0 / k]) for k in range(1, 101)]
        v = core.properness_check(imgs, 1e-3, 1)
        assert v.is_violated

    def test_no_images_is_inconclusive(self):
        with pytest.raises(InconclusivePrefix, match="^properness needs a nonempty image list$"):
            core.properness_check(np.zeros((0, 2), dtype=complex))


def _first_close_pair_loop(rows, tol):
    """Reference: the double loop the vectorized scan replaces."""
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if core.max_norm_distance(rows[i], rows[j]) <= tol:
                return (i, j)
    return None


class TestFirstClosePair:
    def test_lexicographic_first_pair(self):
        a, b = np.array([1.0, 2.0j]), np.array([3.0, 0.0])
        # (1, 2) is found first when scanning by the later index
        assert core.first_close_pair(np.stack([a, b, b, a]), 0.0) == (0, 3)
        assert core.first_close_pair(np.stack([a, a, a]), 0.0) == (0, 1)
        assert core.first_close_pair(np.stack([a, b]), 0.0) is None
        assert core.first_close_pair(np.stack([a]), 0.0) is None

    @pytest.mark.parametrize("cap", [None, 16])
    def test_matches_double_loop(self, monkeypatch, cap):
        # the default limit compares in one table; 16 reads candidates off
        # the sort window in several blocks
        if cap is not None:
            monkeypatch.setattr(core, "_PAIR_TABLE_ENTRIES", cap)
        rng = stream(11, "close-pairs")
        odd = (np.inf, -np.inf, np.nan, complex(np.inf, np.nan), complex(0.0, np.inf))
        for trial in range(300):
            m, k = int(rng.integers(2, 12)), int(rng.integers(1, 4))
            rows = rng.integers(-2, 3, (m, k)) + 1j * rng.integers(-1, 2, (m, k))
            rows = rows + 1e-7 * rng.standard_normal((m, k))
            if trial % 4 == 3:
                for _ in range(int(rng.integers(1, 3))):
                    rows[rng.integers(m), rng.integers(k)] = odd[rng.integers(len(odd))]
            tol = [0.0, 1e-7, 1e-6][trial % 3]
            with np.errstate(invalid="ignore"):  # inf - inf
                assert core.first_close_pair(rows, tol) == _first_close_pair_loop(rows, tol)


def _first_close_pair_mask(rows, tol):
    """Reference: the small-table search as the upper-triangle mask and
    `argwhere` took it."""
    m = len(rows)
    if m < 2:
        return None
    flats = np.asarray(rows).reshape(m, -1)
    near = np.max(np.abs(flats[:, None, :] - flats[None, :, :]), axis=2) <= tol
    near &= np.arange(m)[None, :] > np.arange(m)[:, None]
    hits = np.argwhere(near)
    return (int(hits[0, 0]), int(hits[0, 1])) if hits.size else None


def test_the_small_table_takes_the_first_hit_of_the_symmetric_table():
    # ties (repeated rows, rows a tolerance apart) and nan rows, whose
    # distances to every row are nan and so never within the tolerance
    rng = stream(12, "small-table")
    hits = 0
    for trial in range(2000):
        m, k = int(rng.integers(0, 12)), int(rng.integers(1, 5))
        if m * m * k > core._PAIR_TABLE_ENTRIES >> 5:
            continue
        rows = rng.integers(-1, 2, (m, k)) + 1j * rng.integers(-1, 2, (m, k))
        rows = rows + [0.0, 1e-7][trial % 2] * rng.standard_normal((m, k))
        for _ in range(int(rng.integers(0, 3)) if m else 0):
            rows[rng.integers(m)] = [np.nan, complex(0.0, np.nan)][trial % 2]
        tol = [0.0, 1e-7, 1.0][trial % 3]
        with np.errstate(invalid="ignore"):
            got = core.first_close_pair(rows, tol)
            assert got == _first_close_pair_mask(rows, tol)
        assert got is None or all(type(i) is int for i in got)
        hits += got is not None
    assert 0 < hits < 2000


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_heights_must_be_finite_and_positive(bad):
    with pytest.raises(BadParams, match="heights must be finite and positive"):
        core.HeightAssignment((1.0, bad))
    with pytest.raises(BadParams, match="heights must be finite and positive"):
        core.HeightAssignment.constant(bad, 3)


def _window_pairs_loop(x, half):
    """Reference: every pair i < j with x[j] in [x[i] - half[i], x[i] + half[i]]."""
    return [(i, j) for i in range(len(x)) for j in range(i + 1, len(x))
            if x[i] - half[i] <= x[j] <= x[i] + half[i]]


class TestWindowPairs:
    @pytest.mark.parametrize("cap", [1, 7, 50, None])
    def test_matches_brute_force_in_lexicographic_order(self, monkeypatch, cap):
        if cap is not None:
            monkeypatch.setattr(core, "_PAIR_TABLE_ENTRIES", cap)
        rng = stream(31, "window-pairs")
        found = 0
        for trial in range(100):
            m = int(rng.integers(0, 30))
            x = rng.integers(-4, 5, m) + [0.0, 1e-9, 0.5][trial % 3] * rng.standard_normal(m)
            half = np.abs(rng.standard_normal(m)) * [0.0, 0.3, 2.0][trial % 3]
            blocks = list(core._window_pairs(x, half))
            got = [(i, j) for rows, cols in blocks for i, j in zip(rows.tolist(), cols.tolist())]
            assert got == _window_pairs_loop(x, half)
            found += len(got)
        assert found > 0

    def test_a_scalar_half_applies_to_every_row(self):
        x = np.array([3.0, 0.0, 1.0, 3.5, 0.5])
        got = [(int(i), int(j)) for rows, cols in core._window_pairs(x, 0.5)
               for i, j in zip(rows, cols)]
        assert got == _window_pairs_loop(x, np.full(5, 0.5))


def _group_fibers_reference(images):
    """Reference: the per-point dict keyed by the bytes of each image."""
    fibers = {}
    for i, img in enumerate(images):
        key = (np.asarray(img, dtype=np.complex128).reshape(-1) + 0.0).tobytes()
        fibers.setdefault(key, []).append(i)
    return list(fibers.values())


class TestGroupFibers:
    def test_matches_bytes_keyed_dict(self):
        rng = stream(37, "group-fibers")
        values = np.array([0.0, -0.0, 1.0, -1.0, 2.5])
        for trial in range(100):
            m, k = int(rng.integers(1, 25)), int(rng.integers(1, 4))
            images = (values[rng.integers(0, 5, (m, k))]
                      + 1j * values[rng.integers(0, 2 + trial % 4, (m, k))])
            fibers = core.group_fibers(images)
            assert list(fibers.values()) == _group_fibers_reference(images)
            assert list(fibers) == [members[0] for members in fibers.values()]

    def test_signed_zeros_share_a_fiber(self):
        images = np.array([[complex(-0.0, 0.0)], [0j], [complex(0.0, -0.0)], [1j]])
        assert core.group_fibers(images) == {0: [0, 1, 2], 3: [3]}
        assert core.group_fibers(images[:0]) == {}


def _first_duplicate_sorted(arr, monkeypatch):
    """`_first_duplicate` by its sort of `_equal_runs`, at any size."""
    with monkeypatch.context() as patch:
        patch.setattr(core, "_DICT_ROWS", 0)
        return core._first_duplicate(arr)


class TestFirstDuplicate:
    """Stacks of at most `_DICT_ROWS` points look rows up in a dict; the
    pair they name is the one the sort names, bit-equal rows counting -0.0
    as 0.0."""

    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 2), (3, 3)])
    def test_small_stacks_name_the_sorted_pair(self, shape, monkeypatch):
        rng = stream(41, "first-duplicate")
        values = np.array([0.0, -0.0, 1.0, -2.5])
        width = int(np.prod(shape))
        small = 0
        for trial in range(200):
            m = int(rng.integers(2, 60))
            parts = values[rng.integers(0, 4, (2, m, *shape))]
            arr = parts[0] + 1j * parts[1]
            if trial % 2:  # mostly distinct rows with a few planted repeats
                arr = rng.standard_normal((m, *shape)) + 1j * rng.standard_normal((m, *shape))
                for _ in range(int(rng.integers(0, 3))):
                    i, j = sorted(rng.choice(m, 2, replace=False))
                    arr[j] = arr[i]
                    if trial % 4 == 1:  # equal up to the sign of a zero
                        arr[i].flat[0], arr[j].flat[0] = 0j, complex(-0.0, -0.0)
            small += m <= core._DICT_ROWS
            assert core._first_duplicate(arr) == _first_duplicate_sorted(arr, monkeypatch)
        assert 0 < small < 200

    @pytest.mark.parametrize("shape", [(1,), (2, 2), (3, 3)])
    def test_the_bound_counts_points_not_entries(self, shape, monkeypatch):
        calls = []
        real = core._equal_runs
        monkeypatch.setattr(core, "_equal_runs", lambda a: calls.append(len(a)) or real(a))
        for m, sorted_ in ((core._DICT_ROWS, False), (core._DICT_ROWS + 1, True)):
            arr = np.zeros((m, *shape), dtype=np.complex128)
            lead = arr.reshape(m, -1)[:, 0]  # a view of each point's first entry
            lead[:] = np.arange(m)
            lead[m - 1] = lead[3] = complex(-0.0, -0.0)
            lead[0] = 0j
            calls.clear()
            assert core._first_duplicate(arr) == (0, 3)
            assert calls == ([m] if sorted_ else [])

    def test_empty_and_single_stacks(self):
        for m in (0, 1):
            assert core._first_duplicate(np.zeros((m, 2, 2), dtype=np.complex128)) is None


class TestZeta0:
    def test_same_kind(self):
        z = core.HeightAssignment((5.0,))
        out = core.zeta0_reduce(z, core.EUCLIDEAN_NORM, core.EUCLIDEAN_NORM, core.cn(2))
        assert out.values == (6.0,)

    def test_euclidean_against_punctured(self):
        z = core.HeightAssignment((4.0,))
        out = core.zeta0_reduce(
            z, core.EUCLIDEAN_NORM, core.PUNCTURED_TAU, core.punctured_cn(2)
        )
        assert out.values == (5.0,)

    def test_unbounded_sublevel_rejected(self):
        z = core.HeightAssignment((0.5,))
        with pytest.raises(UnsupportedPair):
            core.zeta0_reduce(
                z, core.PUNCTURED_TAU, core.EUCLIDEAN_NORM, core.punctured_cn(2)
            )

    def test_probe_inequality(self):
        # for points with tau(p) < zeta, rho(p) must stay under zeta0
        rng = stream(3, "zeta0")
        amb = core.punctured_cn(2)
        zeta = 4.0
        out = core.zeta0_reduce(
            core.HeightAssignment((zeta,)),
            core.EUCLIDEAN_NORM,
            core.PUNCTURED_TAU,
            amb,
        )[0]
        kept = 0
        while kept < 100:
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v *= rng.uniform(0.05, 5.0) / np.linalg.norm(v)
            if core.exhaust_eval(core.PUNCTURED_TAU, v, amb) < zeta:
                kept += 1
                assert core.exhaust_eval(core.EUCLIDEAN_NORM, v, core.cn(2)) < out


class TestSLMatrix:
    def test_accepts_unimodular(self):
        m = core.sl_matrix([[1, 1], [1, 2]])
        assert m.shape == (2, 2)

    def test_rejects_drift(self):
        with pytest.raises(DeterminantError):
            core.sl_matrix([[1, 0], [0, 1.001]])

    def test_product_closure(self):
        rng = stream(5, "slprod")
        for _ in range(50):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            a = a / np.sqrt(np.linalg.det(a))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = b / np.sqrt(np.linalg.det(b))
            core.sl_matrix(core.sl_matrix(a) @ core.sl_matrix(b))

    def test_scaled_tolerance_tracks_magnitude(self):
        k = 30.0
        m = [[k**4, k**2], [k**2, (1 + k**4) / k**4]]
        core.sl_matrix(m)

    def test_drift_at_the_tolerance_passes(self):
        for a in (np.diag([1.0 + 3e-11, 1.0]), np.diag([(1.0 - 3e-11) * 1j, -1j])):
            drift = abs(complex(np.linalg.det(a)) - 1.0)
            assert drift > 0.0
            assert core.sl_matrix(a, drift).tobytes() == a.astype(np.complex128).tobytes()

    def test_drift_one_float_past_the_tolerance(self):
        # det above 1: the column norms scale the tolerance past the drift
        a = np.diag([1.0 + 3e-11, 1.0])
        drift = abs(complex(np.linalg.det(a)) - 1.0)
        tol = np.nextafter(drift, 0.0)
        assert float(core.det_tolerance(a, tol)) >= drift
        core.sl_matrix(a, tol)
        # det below 1: no column norm above 1 scales it, so it raises
        b = np.diag([1.0 - 3e-11, 1.0])
        det = complex(np.linalg.det(b))
        tol = np.nextafter(abs(det - 1.0), 0.0)
        assert float(core.det_tolerance(b, tol)) == tol
        message = (f"determinant {det:.6g} differs from 1 by {abs(det - 1.0):.3g} "
                   f"(allowed {tol:.3g})")
        with pytest.raises(DeterminantError, match=f"^{re.escape(message)}$"):
            core.sl_matrix(b, tol)

    def test_decides_as_the_stack_check(self):
        rng = stream(7, "sl-matrix-boundary")
        for n in (2, 3, 4):
            for _ in range(40):
                a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                a[:, 0] /= np.linalg.det(a)
                a *= 1.0 + 1e-9 * rng.standard_normal()
                drift = abs(complex(np.linalg.det(a)) - 1.0)
                for tol in (drift, np.nextafter(drift, 0.0), np.nextafter(drift, 1.0),
                            drift / 2.0, drift / 100.0):
                    try:
                        core._check_rows("sln", a[None], tol, None)
                        want = None
                    except DeterminantError as exc:
                        want = str(exc)
                    try:
                        assert core.sl_matrix(a, tol).tobytes() == a.tobytes()
                        got = None
                    except DeterminantError as exc:
                        got = str(exc)
                    assert got == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    def test_non_finite_entries_come_first(self, bad):
        # the other entries put the determinant far from 1
        for at in ((0, 0), (0, 1), (1, 1)):
            a = np.array([[5.0, 0.0], [0.0, 7.0]], dtype=np.complex128)
            a[at] = bad
            with pytest.raises(NonFiniteEntries, match="^matrix contains non-finite entries$"):
                core.sl_matrix(a)

    def test_non_square_input(self):
        with pytest.raises(DimensionMismatch,
                           match=re.escape("expected a square matrix, got shape (2, 3)")):
            core.sl_matrix(np.ones((2, 3)))

    def test_stacked_tolerance_matches_single(self):
        rng = stream(6, "det-tolerance")
        stack = rng.standard_normal((20, 3, 3)) + 1j * rng.standard_normal((20, 3, 3))
        stack *= 10.0 ** rng.uniform(-2, 2, (20, 1, 1))
        tols = core.det_tolerance(stack)
        for a, tol in zip(stack, tols):
            assert float(core.det_tolerance(a)) == tol


class TestSequences:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            seq_cn([[1, 0], [1, 0]])

    def test_puncture_rejected(self):
        with pytest.raises(PointOutsideAmbient):
            core.DiscreteSequence(
                core.punctured_cn(2), (np.array([0j, 0j]),)
            )

    def test_disc_boundary_rejected(self):
        with pytest.raises(PointOutsideAmbient):
            core.DiscreteSequence(core.disc_plane(), (np.array([1.0 + 0j, 0j]),))

    def test_json_round_trip_vectors(self, tmp_path):
        d = seq_cn([[1, 2j], [3, 4]], core.GeneratorInfo.of("demo", k=2))
        path = tmp_path / "seq.json"
        core.save_sequence(d, path)
        back = core.load_sequence(path)
        assert back.ambient == d.ambient
        assert back.generator == d.generator
        for p, q in zip(back.points, d.points):
            assert np.array_equal(p, q)

    @pytest.mark.parametrize("key", ["family", "cls"])
    def test_a_generator_parameter_may_share_a_name_with_its_builder(self, tmp_path, key):
        # a params key once collided with `GeneratorInfo.of`'s own arguments
        doc = {"family": "x", "params": {key: 1, "k": 2}}
        info = core.GeneratorInfo.from_json(doc)
        assert info == core.GeneratorInfo("x", tuple(sorted({key: 1, "k": 2}.items())))
        assert info.to_json() == doc
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"ambient": "cn", "n": 1, "points": [[[1.0, 0.0]]],
                                    "generator": doc}), encoding="utf-8")
        assert core.load_sequence(path).generator == info

    def test_json_round_trip_matrices(self, tmp_path):
        amb = core.sln(2)
        pts = (core.sl_matrix([[1, 1], [0, 1]]), core.sl_matrix([[1, 0], [1, 1]]))
        d = core.DiscreteSequence(amb, pts)
        path = tmp_path / "mats.json"
        core.save_sequence(d, path)
        back = core.load_sequence(path)
        for p, q in zip(back.points, d.points):
            assert np.array_equal(p, q)

    def test_canonical_json_is_stable(self):
        d = seq_cn([[1, 0], [2, 0]])
        assert core.canonical_json(d.to_json()) == core.canonical_json(d.to_json())

    def test_a_sequence_retains_only_its_array(self):
        arr = stream(0, "container").standard_normal((10**5, 2)).astype(complex)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            d = core.DiscreteSequence(core.cn(2), arr)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert retained <= 1.1 * d.array.nbytes
        assert np.array_equal(np.stack(d.points), arr)

    def test_sequences_compare_and_hash_by_identity(self):
        a = seq_cn([[1, 0], [2, 0]])
        b = seq_cn([[1, 0], [2, 0]])
        assert a == a and a != b
        assert len({a, b, a}) == 2
        assert hash(a) == hash(a)


class TestFallsShort:
    def test_a_rounding_shortfall_is_within_the_push_slack(self):
        short = core.falls_short([4.999999999999999, 5.0, 7.0], [5.0, 5.0, 5.0])
        assert not short.any()

    def test_a_shortfall_beyond_the_slack_falls_short(self):
        short = core.falls_short([5.0, 5.0 - 1e-8, 4.0, 5.0 - 1e-12], [5.0] * 4)
        assert np.flatnonzero(short).tolist() == [1, 2]


class TestAutomorphismPlumbing:
    def test_composite_order(self):
        a = core.ScalarAut(2.0)
        b = core.LinearAut(np.array([[0, 1], [1, 0]], dtype=complex))
        comp = core.Composite((a, b))
        out = comp(np.array([1.0, 0.0]))
        assert np.allclose(out, [0.0, 2.0])

    def test_identity(self):
        p = np.array([1 + 2j, 3.0])
        assert np.array_equal(core.IdentityAut()(p), p)


def _as_point_reference(ambient, value, det_tol=core.DET_TOL):
    """The one-point validator that ran for every point before batching."""
    if ambient.is_matrix:
        a = core.sl_matrix(value, det_tol)
        if a.shape[0] != ambient.n:
            raise DimensionMismatch(
                f"expected {ambient.n}x{ambient.n}, got {a.shape[0]}x{a.shape[1]}"
            )
        return a
    v = np.array(value, dtype=np.complex128)
    if v.ndim != 1 or v.shape[0] != ambient.n:
        raise DimensionMismatch(f"expected a vector of length {ambient.n}")
    core._require_finite(v, "point")
    if ambient.kind == "punctured-cn" and not np.any(v != 0):
        raise PointOutsideAmbient("the puncture (origin) is not a point of this space")
    if ambient.kind == "disc-plane" and abs(v[0]) >= 1.0:
        raise PointOutsideAmbient(f"|z| = {abs(v[0]):.6g} is not inside the unit disc")
    return v


def _sequence_reference(ambient, points):
    """Point-by-point validation and duplicate scan, as sequences did it;
    an error of the package names the point's index."""
    validated = []
    for i, p in enumerate(points):
        try:
            validated.append(_as_point_reference(ambient, p))
        except TamelabError as exc:
            raise type(exc)(f"point {i}: {exc}") from None
    seen = {}
    for i, p in enumerate(validated):
        key = (p.reshape(-1) + 0.0).tobytes()
        if key in seen:
            raise DuplicatePoints(
                f"points {seen[key]} and {i} coincide; prefixes must be "
                "pairwise distinct"
            )
        seen[key] = i
    return validated


def _outcome(fn, *args):
    try:
        return ("ok", np.stack(fn(*args)) if len(args[1]) else ())
    except (ValueError, DimensionMismatch, DeterminantError, PointOutsideAmbient) as exc:
        return type(exc), str(exc)


def _unimodular(rng, n):
    low = np.tril(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), -1)
    up = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    return (np.eye(n) + low) @ (np.eye(n) + up)


def _valid_point(rng, ambient):
    n = ambient.n
    if ambient.is_matrix:
        return _unimodular(rng, n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if ambient.kind == "disc-plane":
        v[0] *= 0.9 / abs(v[0]) * rng.uniform()
    return v


def _defective(rng, ambient, points, i, defect):
    n = ambient.n
    p = _valid_point(rng, ambient)
    if defect == "shape":
        choices = ([_unimodular(rng, n + 1), np.ones((n, n + 1)), np.ones(n)]
                   if ambient.is_matrix else [np.ones(n + 1), np.ones((n, 1)), 1.0])
        return choices[int(rng.integers(len(choices)))]
    if defect == "non-finite":
        p.reshape(-1)[int(rng.integers(p.size))] = rng.choice([np.nan, np.inf, -np.inf])
        return p
    if defect == "det":
        return p * 1.01
    if defect == "puncture":
        return np.zeros(n, dtype=complex)
    if defect == "disc":
        p[0] = rng.choice([1.0, -1.0, 1.5j])
        return p
    if defect == "duplicate":
        q = np.array(points[int(rng.integers(i))] if i else points[i])
        q.reshape(-1)[q.reshape(-1) == 0] = -0.0
        return q
    raise AssertionError(defect)


_DEFECTS = {
    "cn": ("shape", "non-finite", "duplicate"),
    "punctured-cn": ("shape", "non-finite", "puncture", "duplicate"),
    "disc-plane": ("shape", "non-finite", "disc", "duplicate"),
    "sln": ("shape", "non-finite", "det", "duplicate"),
}


@pytest.mark.parametrize(
    "points, error",
    [
        ([2 * np.eye(2), [[1, 0], [0]]], DeterminantError),
        ([[[1, 0], [0]], np.eye(2)], ValueError),
        ([np.diag([np.nan, 1.0]), np.eye(3)], NonFiniteEntries),
        ([np.eye(2), 2 * np.eye(3)], DeterminantError),
    ],
    ids=["det-before-ragged", "ragged-first", "non-finite-before-3x3", "wrong-size-bad-det"],
)
def test_points_that_do_not_stack_raise_the_first_error(points, error):
    expected = _outcome(_sequence_reference, core.sln(2), points)
    got = _outcome(lambda a, p: core.DiscreteSequence(a, tuple(p)).points,
                   core.sln(2), points)
    assert expected[0] is error
    assert got == expected


class TestBatchedValidation:
    """Sequence construction against point-by-point validation."""

    @pytest.mark.parametrize(
        "ambient",
        [core.cn(1), core.cn(3), core.punctured_cn(2), core.disc_plane(),
         core.sln(2), core.sln(3)],
        ids=lambda a: f"{a.kind}{a.n}",
    )
    def test_same_first_error_as_point_by_point(self, ambient):
        rng = stream(11, f"batched-{ambient.kind}-{ambient.n}")
        kinds = _DEFECTS[ambient.kind]
        seen = set()
        for _ in range(150):
            m = int(rng.integers(1, 9))
            points = [_valid_point(rng, ambient) for _ in range(m)]
            for _ in range(int(rng.integers(0, 3))):
                i = int(rng.integers(m))
                points[i] = _defective(rng, ambient, points, i, rng.choice(kinds))
            expected = _outcome(_sequence_reference, ambient, points)
            got = _outcome(lambda a, p: core.DiscreteSequence(a, tuple(p)).points,
                           ambient, points)
            seen.add(expected[0])
            assert got[0] == expected[0]
            if expected[0] == "ok":
                assert np.array_equal(got[1], expected[1])
            else:
                assert got[1] == expected[1]
        # every error class this ambient can raise, and clean prefixes;
        # duplicates and non-finite entries have their own classes
        assert len(seen) == 4 + (ambient.kind != "cn")

    def test_determinant_tolerance_scales_with_the_column_norms(self):
        eye = np.eye(2, dtype=np.complex128)
        near = np.diag([1.0 + 5e-10, 1.0]).astype(np.complex128)
        off = np.diag([1.0 + 2e-9, 1.0]).astype(np.complex128)
        big = np.array([[1e3, 1e3], [0.0, (1.0 + 5e-8) / 1e3]], dtype=np.complex128)
        assert len(core.DiscreteSequence(core.sln(2), (eye, near, big))) == 3
        with pytest.raises(DeterminantError, match="differs from 1 by 2e-09"):
            core.DiscreteSequence(core.sln(2), (eye, big, off))
        with pytest.raises(DeterminantError, match="allowed 1e-09"):
            core.DiscreteSequence(core.sln(2), (big, off, 2 * eye))

    def test_duplicates_name_the_earlier_and_later_point(self):
        for pts, pair in (([[1, 0], [2, 0], [1, 0], [2, 0]], (0, 2)),
                          ([[1, 0], [2, 0], [3, 0], [2, 0], [1, -0.0]], (1, 3)),
                          ([[5, 0], [5, 0], [5, 0]], (0, 1))):
            with pytest.raises(ValueError, match=f"points {pair[0]} and {pair[1]} coincide"):
                seq_cn(pts)

    def test_as_point_is_the_one_row_case(self):
        rng = stream(12, "one-row")
        for ambient in (core.cn(2), core.disc_plane(), core.sln(2)):
            p = _valid_point(rng, ambient)
            assert np.array_equal(core.as_point(ambient, p),
                                  _as_point_reference(ambient, p))
        with pytest.raises(DimensionMismatch, match="expected 2x2, got 3x3"):
            core.as_point(core.sln(2), np.eye(3))
        with pytest.raises(DeterminantError):
            core.as_point(core.sln(2), 2 * np.eye(3))

    def test_points_are_read_only_rows_of_one_array(self):
        d = seq_cn([[1, 2j], [3, 4]])
        assert d.array.shape == (2, 2) and d.array.dtype == np.complex128
        assert all(np.shares_memory(p, d.array) for p in d.points)
        with pytest.raises(ValueError):
            d.points[0][0] = 5.0

    def test_empty_prefix(self):
        for amb, shape in ((core.cn(2), (0, 2)), (core.sln(3), (0, 3, 3))):
            d = core.DiscreteSequence(amb, ())
            assert len(d) == 0 and d.array.shape == shape


def _check_rows_reference(kind, arr, det_tol):
    """`core._check_rows` as it was before its one-pass common path: every
    row's finiteness, then every finite row's determinant deviation."""
    m = len(arr)
    if m == 0:
        return
    finite = np.isfinite(arr.view(np.float64)).reshape(m, -1).all(axis=1)
    stop = m if finite.all() else int(np.argmin(finite))
    ok = arr[:stop]
    if kind == "sln":
        dets = np.linalg.det(ok)
        dev = np.abs(dets - 1.0)
        near = np.flatnonzero(dev > det_tol)
        if near.size:
            allowed = core.det_tolerance(ok[near], det_tol)
            off = np.flatnonzero(dev[near] > allowed)
            if off.size:
                try:
                    core._require_unit_det(complex(dets[near[off[0]]]), float(allowed[off[0]]))
                except DeterminantError as exc:
                    raise DeterminantError(f"point {near[off[0]]}: {exc}") from None
    elif kind == "disc-plane":
        radii = np.abs(ok[:, 0])
        outside = np.flatnonzero(radii >= 1.0)
        if outside.size:
            raise PointOutsideAmbient(
                f"point {outside[0]}: |z| = {radii[outside[0]]:.6g} is not inside the unit disc"
            )
    if stop < m:
        raise NonFiniteEntries(
            f"point {stop}: {'matrix' if kind == 'sln' else 'point'} contains non-finite entries"
        )


def _rows_outcome(check, kind, rows):
    try:
        check(kind, np.array(rows, dtype=np.complex128), core.DET_TOL)
    except (ValueError, DeterminantError, PointOutsideAmbient) as exc:
        return type(exc), str(exc)
    return "ok"


_EYE = np.eye(2)
_BAD_DET = 2.0 * np.eye(2)
_NAN = np.diag([np.nan, 1.0])
_INF_DET = np.diag([1e200, 1e200])  # finite entries; det and tolerance are inf
_NAN_DET = np.array([[1.0, 1.5e308], [1.0, -1.5e308]])  # finite entries; det is nan


class TestCheckRowsEdges:
    """The first bad row and its error, on stacks where the one-pass check
    and the row scan part ways."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "rows, expected",
        [
            ([_EYE, _BAD_DET, _NAN, _EYE], (DeterminantError, "differs from 1 by 3")),
            ([_EYE, _NAN, _BAD_DET], (NonFiniteEntries, "matrix contains non-finite entries")),
            ([_EYE], "ok"),
            ([_BAD_DET], (DeterminantError, "differs from 1 by 3")),
            ([_NAN], (NonFiniteEntries, "matrix contains non-finite entries")),
            (np.zeros((0, 2, 2)), "ok"),
            ([_INF_DET], "ok"),
            ([_EYE, _INF_DET, _EYE], "ok"),
            ([_NAN_DET], "ok"),
            ([_NAN_DET, _EYE, _BAD_DET], (DeterminantError, "differs from 1 by 3")),
            ([_INF_DET, _BAD_DET, _NAN_DET], (DeterminantError, "differs from 1 by 3")),
            ([_NAN_DET, _NAN], (NonFiniteEntries, "matrix contains non-finite entries")),
        ],
        ids=["det-then-nan", "nan-then-det", "one", "one-bad-det", "one-nan", "empty",
             "inf-det", "inf-det-inside", "nan-det", "nan-det-then-bad-det",
             "inf-det-bad-det-nan-det", "nan-det-then-nan"],
    )
    def test_matrix_stacks(self, rows, expected):
        got = _rows_outcome(core._check_rows, "sln", rows)
        assert got == _rows_outcome(_check_rows_reference, "sln", rows)
        if expected == "ok":
            assert got == "ok"
        else:
            assert got[0] is expected[0] and expected[1] in got[1]

    @pytest.mark.parametrize(
        "rows",
        [[[0.5, 1.0], [1.5, 0.0], [np.inf, 0.0]], [[0.5, 1.0], [np.nan, 0.0], [1.5, 0.0]],
         [[0.5, 1.0]], np.zeros((0, 2))],
        ids=["outside-then-inf", "nan-then-outside", "one", "empty"],
    )
    def test_disc_stacks(self, rows):
        assert _rows_outcome(core._check_rows, "disc-plane", rows) == _rows_outcome(
            _check_rows_reference, "disc-plane", rows
        )


@pytest.mark.parametrize("n", range(1, 65))
def test_row_norms_match_single_point_norms(n):
    rng = stream(n, "row-norms")
    rows = rng.standard_normal((40, n)) + 1j * rng.standard_normal((40, n))
    rows *= 10.0 ** rng.uniform(-150, 150, (40, 1))
    got = core._row_norms(rows)
    assert [float(x) for x in got] == [float(np.linalg.norm(r)) for r in rows]


def test_row_norms_of_matrices_match_frobenius_norms():
    rng = stream(3, "matrix-norms")
    mats = rng.standard_normal((30, 3, 3)) + 1j * rng.standard_normal((30, 3, 3))
    assert [float(x) for x in core._row_norms(mats)] == [
        float(np.linalg.norm(a)) for a in mats
    ]


def _to_json_reference(d):
    pts = []
    for p in d.points:
        if d.ambient.is_matrix:
            pts.append([[[complex(z).real, complex(z).imag] for z in row] for row in p])
        else:
            pts.append([[complex(z).real, complex(z).imag] for z in p])
    return pts


def _from_json_points_reference(obj):
    ambient = core.AmbientSpace(obj["ambient"], int(obj["n"]))
    pts = []
    for entry in obj["points"]:
        if ambient.is_matrix:
            pts.append([[complex(float(z[0]), float(z[1])) for z in row] for row in entry])
        else:
            pts.append([complex(float(z[0]), float(z[1])) for z in entry])
    return pts


class TestSequenceDocuments:
    def _bits(self, arr):
        return np.asarray(arr, dtype=np.complex128).view(np.uint64)

    def test_round_trip_matches_point_by_point_code(self):
        rng = stream(13, "docs")
        vec = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
        vec[3, 1] = complex(-0.0, 0.0)
        vec[4, 0] = complex(0.0, -0.0)
        for d in (core.DiscreteSequence(core.cn(3), tuple(vec)),
                  core.DiscreteSequence(core.sln(3),
                                        tuple(_unimodular(rng, 3) for _ in range(20)))):
            obj = d.to_json()
            assert obj["points"] == _to_json_reference(d)
            assert [type(x) for x in np.ravel(np.array(obj["points"], dtype=object))] \
                == [float] * (2 * d.array.size)
            back = core.DiscreteSequence.from_json(json.loads(json.dumps(obj)))
            ref = _from_json_points_reference(obj)
            assert np.array_equal(self._bits(back.array), self._bits(ref))
            assert np.array_equal(self._bits(back.array), self._bits(d.array))

    def test_ragged_points_keep_their_error(self):
        for obj, msg in (
            ({"ambient": "cn", "n": 2, "points": [[[1, 0], [0, 0]], [[2, 0]]]},
             "expected a vector of length 2"),
            ({"ambient": "cn", "n": 2, "points": [[[1, 0]], [[2, 0], [0, 0]]]},
             "expected a vector of length 2"),
            ({"ambient": "sln", "n": 2,
              "points": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0], [0, 0]]]]},
             r"expected a square matrix, got shape \(1, 2\)"),
        ):
            with pytest.raises(DimensionMismatch, match=msg):
                core.DiscreteSequence.from_json(obj)

    def test_ragged_points_report_earlier_bad_values_first(self):
        obj = {"ambient": "cn", "n": 2,
               "points": [[[float("nan"), 0], [0, 0]], [[2, 0]]]}
        with pytest.raises(ValueError, match="point contains non-finite entries"):
            core.DiscreteSequence.from_json(obj)

    def test_three_entry_pairs_are_rejected(self):
        for points in ([[[1, 2, 5], [0, 3, 1]], [[2, 0, 7], [0, 0, 1]]],
                       [[[1, 2], [0, 3]], [[2, 0, 7], [0, 0, 1], [1, 1, 1]]]):
            obj = {"ambient": "cn", "n": 2, "points": points}
            with pytest.raises(ValueError, match=r"written as a pair \[re, im\]"):
                core.DiscreteSequence.from_json(obj)

    def test_load_sequence_reads_command_outputs(self, tmp_path):
        home = os.getcwd()
        os.chdir(tmp_path)
        try:
            assert cli.main(["gen", "wellplaced2", "--k", "5", "--out", "gen.out"]) == 0
            assert cli.main(["transform", "lambda-rescale", "gen.out", "--out", "tr.out"]) == 0
        finally:
            os.chdir(home)
        for name in ("gen.out", "tr.out"):
            with open(tmp_path / name, encoding="utf-8") as fh:
                doc = json.load(fh)
            d = core.load_sequence(tmp_path / name)
            want = core.DiscreteSequence.from_json(doc["sequence"])
            assert d.ambient == want.ambient == core.sln(2)
            assert len(d) == 5 and np.array_equal(d.array, want.array)

    def test_empty_point_list_is_an_empty_prefix(self):
        for amb, n in (("cn", 2), ("sln", 2)):
            d = core.DiscreteSequence.from_json({"ambient": amb, "n": n, "points": []})
            assert len(d) == 0 and d.points == ()


def _unpair_array_reference(raw, i=0):
    """`core._unpair_array` as it read a point through `np.asarray`."""
    try:
        pairs = np.asarray(raw, dtype=np.float64)
    except (ValueError, TypeError, OverflowError):
        why = "its entries do not convert to [re, im] pairs of floats"
    else:
        if pairs.ndim and pairs.shape[-1] == 2:
            return np.ascontiguousarray(pairs).view(np.complex128)[..., 0]
        why = "a complex entry is written as a pair [re, im]"
    raise MalformedDocument(f"point {i} of the sequence document is malformed: {why}")


def _unpair_points_reference(raw):
    """`core._unpair_points` as it read every document through `np.asarray`."""
    try:
        pairs = np.asarray(raw, dtype=np.float64)
    except (ValueError, TypeError, OverflowError):
        pairs = None
    if pairs is not None and pairs.ndim > 1:
        return _unpair_array_reference(pairs)
    return tuple(_unpair_array_reference(p, i) for i, p in enumerate(raw))


def _read_outcome(fn, *args):
    """What reading points returns, to the bit, or the error it raises."""
    try:
        got = fn(*args)
    except Exception as exc:  # every error must match, whatever its type
        return type(exc), str(exc)
    if isinstance(got, core.DiscreteSequence):
        got = got.array
    if isinstance(got, tuple):
        return "points", [(p.shape, p.tobytes()) for p in got]
    return "stack", got.shape, got.tobytes()


def _regular_point_lists():
    """Regular cn and sln point lists: random floats, signed zeros, and
    ints beside them, including ints that round on the way to float64."""
    rng = stream(21, "flat-loader")
    vec = rng.standard_normal((700, 3, 2))
    vec[::5, 1] = [0.0, -0.0]
    flat = vec.tolist()
    for i, big in enumerate((0, 7, -3, 2**53 - 1, 2**53, 2**53 + 1, 2**63, -(2**64) - 1)):
        flat[i][2][0] = big
    mats = rng.standard_normal((300, 2, 2, 2)).tolist()
    mats[0][1][1][1] = 1
    mats[1][0][0][0] = -0.0
    return [("cn", 3, flat), ("cn", 3, flat[:1]), ("sln", 2, mats), ("sln", 2, mats[:1])]


class TestFlattenedLoader:
    """`_unpair_points` flattens a regular block of plain numbers itself;
    everything else reads point by point, with the outcome `np.asarray`
    gave, except that only numbers convert."""

    @pytest.mark.parametrize("index", range(4), ids=["cn", "cn-one", "sln", "sln-one"])
    def test_regular_documents_are_bit_identical(self, index):
        ambient, n, points = _regular_point_lists()[index]
        assert core._regular_leaves(points) is not None  # the flattening path
        got = _read_outcome(core._unpair_points, points)
        assert got[0] == "stack"
        assert got == _read_outcome(_unpair_points_reference, points)
        pairs = np.asarray(points, dtype=np.float64)
        assert got[2] == np.ascontiguousarray(pairs).view(np.complex128)[..., 0].tobytes()

    @pytest.mark.parametrize(
        "points",
        [
            [[[1, 0], [0, 0]], [[2, 0]]],
            [[[1, 0]], [[2, 0], [0, 0]]],
            [[[1, 0], [0, 0]], [[2, 0], 5]],
            [[[1, 0], [0, 0]], [[2, 0], [0, [1]]]],
            [[[1, 0], [0, 0]], [[2, 0], [0, [1, 2]]]],
            [[["a", 0], [0, 0]]],
            [["12", [0, 0]], [[2, 0], [0, 0]]],
            [[{"1": 0, "2": 0}, [0, 0]], [[2, 0], [0, 0]]],
            [[[json.loads("1e400"), 0], [0, 0]], [[2, 0], [0, 0]]],
            [[[10**400, 0], [0, 0]], [[2, 0], [0, 0]]],
            [[[1, 2, 5], [0, 3, 1]], [[2, 0, 7], [0, 0, 1]]],
            [],
            [[]],
            [[], []],
            [[[], []], [[], []]],
        ],
        ids=["ragged", "ragged-first", "mixed-depth", "deep-leaf", "deep-pair",
             "string", "string-point", "dict-point", "1e400", "int-past-float",
             "three-entry", "empty", "empty-point", "empty-points", "empty-entries"],
    )
    def test_other_documents_keep_their_outcome(self, monkeypatch, points):
        assert _read_outcome(core._unpair_points, points) == _read_outcome(
            _unpair_points_reference, points
        )
        obj = {"ambient": "cn", "n": 2, "points": points}
        got = _read_outcome(core.DiscreteSequence.from_json, obj)
        monkeypatch.setattr(core, "_unpair_points", _unpair_points_reference)
        assert got == _read_outcome(core.DiscreteSequence.from_json, obj)

    @pytest.mark.parametrize(
        "points, bad",
        [
            ([[["1.5", 0], [0, 0]], [[2, 0], [0, 0]]], 0),
            ([[[True, 0], [0, False]], [[2, 0], [0, 0]]], 0),
            ([[[None, 0], [0, 0]], [[2, 0], [0, 0]]], 0),
            ([[[1.5, 1], [3, 0]], [[2, 0], [0, "1"]]], 1),
            ([[[1.5, 1], [3, 0]], [[2, 0], [0, 0]], [[2, 0], [False, 1]]], 2),
            ([[[1.5, 1], [3, 0]], [[2, 0], [None, 1]], [[2, 0]]], 1),
        ],
        ids=["numeric-string", "bool", "null", "numeric-string-later", "bool-later",
             "null-ragged"],
    )
    def test_a_coordinate_that_is_not_a_number_names_its_point(
        self, tmp_path, capsys, points, bad
    ):
        why = f"point {bad} of the sequence document is malformed: its entries do not convert"
        with pytest.raises(MalformedDocument, match=why):
            core._unpair_points(points)
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"ambient": "cn", "n": 2, "points": points}))
        with pytest.raises(MalformedDocument, match=why):
            core.load_sequence(path)
        assert cli.main(["check", "rr-series", str(path)]) == 1
        assert why in capsys.readouterr().err
