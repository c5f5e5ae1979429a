"""Shipped families and their declared metadata."""

from __future__ import annotations

import numpy as np
import pytest

from tamelab import families
from tamelab.cn_tame import MONOTONE_TAIL_BOUND, rr_series_test
from tamelab.disc_plane import dp_classify
from tamelab.errors import BadParams, EmptyResult, UnknownFamily, UnsupportedField
from tamelab.punctured_cn import punctured_tame_check
from tamelab.sln_tame import well_placed_check


class TestWellplaced2:
    def test_first_matrix_values(self):
        d = families.wellplaced2(count=3)
        assert np.allclose(d.points[0], [[1.0, 1.0], [1.0, 2.0]])
        assert np.allclose(d.points[2], [[81.0, 9.0], [9.0, 82.0 / 81.0]])

    def test_determinants_exact_at_the_cap(self):
        d = families.wellplaced2(count=40)
        dets = [complex(np.linalg.det(p)) for p in d.points]
        assert max(abs(z - 1.0) for z in dets) <= 1e-9

    def test_certified_well_placed_with_declared_divergence(self):
        verdict, report = well_placed_check(families.wellplaced2(count=30))
        assert verdict.is_certified
        assert verdict.reason == "declared-divergence"
        assert report.monotone_ok

    @pytest.mark.parametrize("exponent", [1, 3])
    def test_exponent_variants_stay_well_placed(self, exponent):
        d = families.wellplaced2(count=10, exponent=exponent)
        verdict, _ = well_placed_check(d)
        assert not verdict.is_violated

    def test_parameter_validation(self):
        with pytest.raises(BadParams):
            families.wellplaced2(count=1)
        with pytest.raises(BadParams):
            families.wellplaced2(count=41)
        with pytest.raises(BadParams):
            families.wellplaced2(count=10, exponent=5)
        with pytest.raises(BadParams):
            families.wellplaced2(count=13, exponent=3)


class TestDiagtorus:
    def test_powers_of_two_are_exact(self):
        d = families.diagtorus(count=5)
        for j, p in enumerate(d.points, start=1):
            assert p[0, 0] == 2.0**j
            assert p[1, 1] == 2.0**-j
            assert p[0, 1] == 0.0 and p[1, 0] == 0.0

    def test_ratio_parameter(self):
        d = families.diagtorus(count=2, ratio=3.0)
        assert d.points[1][0, 0] == 9.0
        assert d.generator.get("ratio") == 3.0

    def test_validation(self):
        with pytest.raises(BadParams):
            families.diagtorus(ratio=1.0)
        with pytest.raises(BadParams):
            families.diagtorus(count=101, ratio=10.0)


class TestSl2Gauss:
    def test_field_alias_matches_canonical_tag(self):
        a = families.sl2_gauss(field="qi", height=1)
        b = families.sl2_gauss(field="Q(i)", height=1)
        assert len(a) == len(b) == 296

    def test_heights_up_to_six_enumerate(self):
        assert len(families.sl2_gauss(field="qi", height=6)) == 114504

    @pytest.mark.parametrize("field, cap", [("qi", 6), ("q7", 6), ("q", 120)])
    def test_height_cap_is_bad_params(self, field, cap):
        with pytest.raises(BadParams, match=rf"height must be an integer in \[1, {cap}\]"):
            families.sl2_gauss(field=field, height=cap + 1)

    def test_ring_errors_pass_through(self):
        with pytest.raises(UnsupportedField):
            families.sl2_gauss(field="Q(sqrt-5)")
        with pytest.raises(EmptyResult):
            families.sl2_gauss(height=0)


class TestCnPowers:
    def test_points_and_declared_growth(self):
        d = families.cn_powers(n=3, alpha=2.0, count=4)
        assert np.allclose([p[0] for p in d.points], [1.0, 4.0, 9.0, 16.0])
        assert all(np.all(p[1:] == 0) for p in d.points)
        assert d.generator.get("norm_growth_c") == 1.0
        assert d.generator.get("norm_growth_alpha") == 2.0

    def test_series_certificate(self):
        d = families.cn_powers(n=2, alpha=1.0, count=200)
        report = rr_series_test(d, tail_policy=MONOTONE_TAIL_BOUND)
        assert report.verdict.is_certified
        assert report.exponent == 3

    def test_validation(self):
        with pytest.raises(BadParams):
            families.cn_powers(alpha=0.0)
        with pytest.raises(BadParams):
            families.cn_powers(n=0)


class TestPuncturedAccumulate:
    def test_norms_halve(self):
        d = families.punctured_accumulate(count=6)
        norms = [float(np.linalg.norm(p)) for p in d.points]
        assert norms == [2.0**-j for j in range(1, 7)]

    def test_accumulation_violates_tameness(self):
        verdict = punctured_tame_check(families.punctured_accumulate(count=40))
        assert verdict.is_violated
        assert "puncture" in verdict.detail


class TestDiscplaneBase:
    def test_mode_verdicts(self):
        expected = {"boundary": "certified", "constant": "violated",
                    "interior": "violated"}
        for mode, state in expected.items():
            verdict = dp_classify(families.discplane_base(mode=mode, count=40))
            assert verdict.state.startswith(state), (mode, verdict.state)

    def test_boundary_mode_stops_at_53_points(self):
        d = families.discplane_base(mode="boundary", count=53)
        assert abs(complex(d.points[-1][0])) == 1.0 - 2.0**-53
        with pytest.raises(BadParams, match="at most 53 points"):
            families.discplane_base(mode="boundary", count=54)
        assert len(families.discplane_base(mode="interior", count=54)) == 54

    def test_boundary_mode_declares_escape(self):
        d = families.discplane_base(mode="boundary", count=5)
        assert d.generator.get("boundary_escape") is True
        radii = [abs(complex(p[0])) for p in d.points]
        assert radii == sorted(radii)
        assert all(r < 1.0 for r in radii)

    def test_mode_validation(self):
        with pytest.raises(BadParams):
            families.discplane_base(mode="spiral")


class TestGenerate:
    def test_known_family_names(self):
        assert set(families.FAMILIES) == {
            "wellplaced2",
            "diagtorus",
            "sl2-gauss",
            "cn-powers",
            "punctured-accumulate",
            "discplane-base",
        }

    def test_dispatch(self):
        d = families.generate("diagtorus", count=3)
        assert len(d) == 3
        assert d.generator.family == "diagtorus"

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            families.generate("spiral")

    def test_unknown_parameter(self):
        with pytest.raises(BadParams):
            families.generate("diagtorus", bogus=2)
