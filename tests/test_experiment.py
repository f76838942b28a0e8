import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cheshire.analysis import cheshire_witness, fit_loglog_slope
from cheshire.elements import Truncation
from cheshire.experiment import (
    DEFAULT_SCALE_REF_CPS,
    I_REF_NORM,
    Absorber,
    Detector,
    Magnet,
    Scenario,
    closed_form_o,
    count_rate,
    initial_state,
    postselection_state,
    run,
    run_batch,
    sweep_alpha,
    sweep_chi,
)
from cheshire.qcore import Path, inner, norm2, spin_on_path

ALPHA_20 = math.radians(20.0)


def o_selected(scenario: Scenario) -> float:
    return run(scenario)[Detector.O_SELECTED].intensity_norm


class TestStates:
    def test_initial_state_amplitudes(self):
        assert_allclose(initial_state().amp, [0.5, 0.5, 0.5, -0.5], atol=0)
        assert norm2(initial_state()) == pytest.approx(1.0, abs=1e-15)

    def test_postselection_state_amplitudes(self):
        assert_allclose(postselection_state().amp, [0.5, -0.5, 0.5, -0.5], atol=0)
        assert norm2(postselection_state()) == pytest.approx(1.0, abs=1e-15)

    def test_overlap_is_one_half(self):
        assert inner(postselection_state(), initial_state()) == pytest.approx(0.5, abs=1e-15)

    def test_postselection_rejects_plus_on_path_I(self):
        # <x+ on I | psi_f> = 0: the post-selected spin state has no
        # transverse-plus component on path I
        sx_plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        overlap = inner(spin_on_path(sx_plus, Path.I), postselection_state())
        assert overlap == pytest.approx(0.0, abs=1e-15)


class TestRunAnchors:
    def test_empty_beamline_reference(self):
        result = run(Scenario())
        assert result[Detector.O_SELECTED].intensity_norm == pytest.approx(0.25, abs=1e-12)
        assert result[Detector.O_SELECTED].intensity_cps == pytest.approx(11.25, abs=1e-10)

    def test_empty_beamline_reference_is_exactly_a_quarter(self):
        # the readout's 1/sqrt(2) factors are folded into powers of two
        result = run(Scenario())
        assert result[Detector.O_SELECTED].intensity_norm == 0.25
        assert result[Detector.O_SELECTED].intensity_cps == 11.25

    def test_magnet_path_II_20_degrees(self):
        cps = run(Scenario(insertion=Magnet(Path.II, ALPHA_20)))[Detector.O_SELECTED].intensity_cps
        assert cps == pytest.approx(11.25 * math.cos(ALPHA_20 / 2) ** 2, abs=1e-10)
        assert round(cps, 2) == 10.91

    def test_magnet_path_I_20_degrees(self):
        cps = run(Scenario(insertion=Magnet(Path.I, ALPHA_20)))[Detector.O_SELECTED].intensity_cps
        assert cps == pytest.approx(45.0 * (3.0 - math.cos(ALPHA_20)) / 8.0, abs=1e-10)
        assert round(cps, 2) == 11.59

    def test_absorber_path_I_leaves_reference(self):
        for t in (0.0, 0.25, 0.64, 0.9025, 1.0):
            value = o_selected(Scenario(insertion=Absorber(Path.I, t)))
            assert value == pytest.approx(0.25, abs=1e-12)

    def test_absorber_path_II_scales_linearly(self):
        for t in (0.0, 0.25, 0.64, 0.9025, 1.0):
            value = o_selected(Scenario(insertion=Absorber(Path.II, t)))
            assert value == pytest.approx(t / 4.0, abs=1e-12)

    def test_cps_scaling(self):
        record = run(Scenario(), scale_ref_cps=45.0)[Detector.O_SELECTED]
        assert record.intensity_cps == pytest.approx(45.0, abs=1e-10)
        assert record.scale_ref_cps == 45.0


class TestClosedForm:
    def test_path_II_formula(self):
        for alpha in (0.0, 0.1, ALPHA_20, 1.0):
            for chi in (0.0, 1.3):
                scenario = Scenario(insertion=Magnet(Path.II, alpha), chi_rad=chi)
                assert closed_form_o(scenario) == pytest.approx(
                    0.25 * math.cos(alpha / 2) ** 2, abs=1e-15
                )

    def test_path_I_value_at_20_degrees(self):
        scenario = Scenario(insertion=Magnet(Path.I, ALPHA_20))
        assert closed_form_o(scenario) == pytest.approx(0.25753842240176145, abs=1e-14)

    def test_path_I_zero_angle_gives_reference(self):
        assert closed_form_o(Scenario(insertion=Magnet(Path.I, 0.0))) == pytest.approx(0.25)

    def test_oracle_equivalence_both_paths(self):
        # run() and the closed forms are independent routes; they must
        # agree everywhere, not just at the published settings
        grid = np.linspace(0.0, 1.5, 50)
        for path in Path:
            for alpha in grid:
                scenario = Scenario(insertion=Magnet(path, float(alpha)))
                assert abs(o_selected(scenario) - closed_form_o(scenario)) < 1e-12

    def test_rejects_unsupported_shapes(self):
        with pytest.raises(ValueError):
            closed_form_o(Scenario())
        with pytest.raises(ValueError):
            closed_form_o(Scenario(insertion=Absorber(Path.I, 0.5)))
        with pytest.raises(ValueError):
            closed_form_o(Scenario(insertion=Magnet(Path.II, 0.1, Truncation.LINEAR)))
        with pytest.raises(ValueError):
            closed_form_o(Scenario(insertion=Magnet(Path.I, 0.1), chi_rad=0.3))


class TestConservation:
    CHI_GRID = np.linspace(0.0, 2 * np.pi, 25)

    @pytest.mark.parametrize(
        "insertion",
        [
            None,
            Magnet(Path.I, ALPHA_20),
            Magnet(Path.II, ALPHA_20),
            Magnet(Path.II, 1.0),
        ],
    )
    def test_unitary_scenarios_sum_to_one(self, insertion):
        for chi in self.CHI_GRID:
            result = run(Scenario(insertion=insertion, chi_rad=float(chi)))
            total = (
                result[Detector.O_UNSELECTED].intensity_norm + result[Detector.H].intensity_norm
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("path", list(Path))
    @pytest.mark.parametrize("t", [0.0, 0.3, 0.64])
    def test_absorber_scenarios_sum_to_attenuated_norm(self, path, t):
        # each path carries half the input intensity, so the surviving
        # norm is 1/2 + T/2
        for chi in self.CHI_GRID:
            result = run(Scenario(insertion=Absorber(path, t), chi_rad=float(chi)))
            total = (
                result[Detector.O_UNSELECTED].intensity_norm + result[Detector.H].intensity_norm
            )
            assert total == pytest.approx(0.5 + 0.5 * t, abs=1e-12)

    def test_selected_never_exceeds_unselected(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            insertion = rng.choice(3)
            path = Path.I if rng.random() < 0.5 else Path.II
            if insertion == 0:
                ins = None
            elif insertion == 1:
                ins = Absorber(path, float(rng.uniform(0, 1)))
            else:
                ins = Magnet(path, float(rng.uniform(0, 2 * np.pi)))
            result = run(Scenario(insertion=ins, chi_rad=float(rng.uniform(0, 2 * np.pi))))
            sel = result[Detector.O_SELECTED].intensity_norm
            unsel = result[Detector.O_UNSELECTED].intensity_norm
            assert sel <= unsel + 1e-12


class TestSmallAngleExpansion:
    def test_path_II_deficit_expansion(self):
        # I(alpha) = I_ref (1 - alpha^2/4) + O(alpha^4): the residual about
        # the quadratic model must fall off with exponent 4
        alphas = np.geomspace(0.02, 0.3, 30)
        residuals = [
            abs(o_selected(Scenario(insertion=Magnet(Path.II, a))) - 0.25 * (1 - a * a / 4))
            for a in alphas
        ]
        assert fit_loglog_slope(alphas, residuals) == pytest.approx(4.0, abs=0.2)

    def test_path_I_excess_expansion(self):
        alphas = np.geomspace(0.02, 0.3, 30)
        residuals = [
            abs(o_selected(Scenario(insertion=Magnet(Path.I, a))) - 0.25 * (1 + a * a / 4))
            for a in alphas
        ]
        assert fit_loglog_slope(alphas, residuals) == pytest.approx(4.0, abs=0.2)


class TestSweeps:
    CHI_GRID = np.linspace(0.0, 2 * np.pi, 361)

    def sweep_detector(self, template, detector):
        records = sweep_chi(template, self.CHI_GRID)
        return np.array(
            [r.intensity_norm for r in records if r.detector is detector]
        )

    def test_magnet_path_II_is_chi_independent(self):
        values = self.sweep_detector(
            Scenario(insertion=Magnet(Path.II, ALPHA_20)), Detector.O_SELECTED
        )
        assert values.size == 361
        assert values.max() - values.min() == 0.0

    def test_magnet_path_I_oscillates_with_period_2pi(self):
        values = self.sweep_detector(
            Scenario(insertion=Magnet(Path.I, ALPHA_20)), Detector.O_SELECTED
        )
        s = math.sin(ALPHA_20 / 2)
        # hand-derived interference pattern: (1 + s^2 + 2 s sin(chi)) / 4
        expected = (1 + s * s + 2 * s * np.sin(self.CHI_GRID)) / 4
        assert_allclose(values, expected, atol=1e-12)
        assert values[0] == pytest.approx(values[360], abs=1e-12)
        assert int(np.argmax(values)) == 90 and int(np.argmin(values)) == 270
        assert float(np.mean(values)) == pytest.approx(
            0.25 * (1 + s * s), abs=1e-12
        )

    def test_magnet_H_port_oscillates(self):
        values = self.sweep_detector(Scenario(insertion=Magnet(Path.II, ALPHA_20)), Detector.H)
        s = math.sin(ALPHA_20 / 2)
        assert_allclose(values, 0.5 + 0.5 * s * np.sin(self.CHI_GRID), atol=1e-12)

    def test_empty_beamline_is_chi_independent_everywhere(self):
        # the two paths carry orthogonal spin states, so no detector can
        # show chi interference without a spin-mixing insertion; the total
        # O + H stays exactly 1
        records = sweep_chi(Scenario(), self.CHI_GRID)
        by_det = {
            det: np.array([r.intensity_norm for r in records if r.detector is det])
            for det in Detector
        }
        for det in Detector:
            assert by_det[det].max() - by_det[det].min() == 0.0
        assert_allclose(by_det[Detector.O_UNSELECTED] + by_det[Detector.H], 1.0, atol=1e-12)

    def test_sweep_alpha_linear_path_II_constant(self):
        template = Scenario(insertion=Magnet(Path.II, 0.1, Truncation.LINEAR))
        records = sweep_alpha(template, np.geomspace(0.01, 0.3, 50))
        values = [
            r.intensity_cps for r in records if r.detector is Detector.O_SELECTED
        ]
        assert_allclose(values, DEFAULT_SCALE_REF_CPS, atol=1e-10)

    def test_sweep_alpha_requires_magnet(self):
        # checked after the scale and the grid, and for an empty grid too
        for grid in ([0.1, 0.2], []):
            with pytest.raises(ValueError, match="^an alpha grid requires a scenario with a magnet insertion$"):
                sweep_alpha(Scenario(), grid)
        with pytest.raises(ValueError, match=r"^alpha_values entries must lie in \[-1e6, 1e6\], got nan at index 0$"):
            sweep_alpha(Scenario(), [math.nan])
        with pytest.raises(ValueError, match=r"^scale_ref_cps must lie in \[1e-12, 1e12\], got -1.0$"):
            sweep_alpha(Scenario(), [math.nan], -1.0)

    def test_sweep_records_keep_grid_order(self):
        records = sweep_chi(Scenario(), [0.0, 1.0, 2.0])
        chis = [r.scenario.chi_rad for r in records]
        assert chis == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
        assert [r.detector for r in records[:3]] == list(Detector)


class TestPaperClaims:
    """The abstract's two claims, exactly, at 10 000 seeded points with a phase:
    the linear term of the rotation leaves path II's post-selected intensity
    at the empty-beamline 1/4, and path I sees only the linear term, so its
    linear and quadratic truncations give the same bits."""

    ALPHA, CHI = np.random.default_rng(2014).uniform((-3.0, -7.0), (3.0, 7.0), (10_000, 2)).T

    def o_selected(self, path, truncation):
        template = Scenario(Magnet(path, 0.0, truncation))
        grid = run_batch(template, chi_rad=self.CHI, alpha_rad=self.ALPHA)[:, 0].tolist()
        points = [  # and one point at a time
            o_selected(Scenario(Magnet(path, alpha, truncation), chi))
            for alpha, chi in zip(self.ALPHA[:200].tolist(), self.CHI[:200].tolist())
        ]
        assert points == grid[:200]
        return grid

    def test_the_linear_term_leaves_path_II_at_the_reference(self):
        assert set(self.o_selected(Path.II, Truncation.LINEAR)) == {I_REF_NORM}

    def test_path_I_cannot_tell_linear_from_quadratic(self):
        linear, quadratic = (self.o_selected(Path.I, t) for t in (Truncation.LINEAR, Truncation.QUADRATIC))
        assert [x.hex() for x in linear] == [x.hex() for x in quadratic]


class TestBothTermsContributeEqually:
    """The abstract's "both linear and quadratic B_z interactions contribute equally
    to the neutron intensity", at chi = 0 for alpha from 0.3 down to 1e-3: the rise
    of path I's post-selected intensity above I_ref is s^2/4, the linear term's, and
    the deficit of path II's below it is (1 - c^2)/4, the quadratic term's.  The
    readings come through ``run``; ``cheshire_witness`` is path II's second route."""

    ALPHAS = np.geomspace(0.3, 1e-3, 200).tolist()

    def rise_and_deficit(self, truncation):
        ref = o_selected(Scenario())
        for alpha in self.ALPHAS:
            rise = o_selected(Scenario(Magnet(Path.I, alpha, truncation))) - ref
            deficit = ref - o_selected(Scenario(Magnet(Path.II, alpha, truncation)))
            assert getattr(cheshire_witness(alpha), f"deficit_{truncation.value}") == deficit
            yield alpha, ref, rise, deficit

    def test_the_exact_rotation_moves_both_paths_by_the_same_amount(self):
        # both are I_ref sin^2(alpha/2); measured at most 1 ulp of I_ref apart
        for alpha, ref, rise, deficit in self.rise_and_deficit(Truncation.EXACT):
            assert abs(deficit - rise) <= math.ulp(ref), alpha

    def test_the_quadratic_truncation_gives_the_ratio_one_minus_alpha2_over_16(self):
        # deficit/rise = (h^2 - h^4/4)/h^2 with h = alpha/2; each reading rounds on the
        # scale of I_ref, so the ratio's error scales with ulp(I_ref)/rise (measured 0.25 of it)
        for alpha, ref, rise, deficit in self.rise_and_deficit(Truncation.QUADRATIC):
            assert abs(deficit / rise - (1.0 - alpha * alpha / 16.0)) <= math.ulp(ref) / rise, alpha

    def test_the_linear_truncation_moves_path_I_alone(self):
        # path II keeps I_ref exactly; path I rises by I_ref alpha^2/4 (measured 0.5 ulp of I_ref)
        for alpha, ref, rise, deficit in self.rise_and_deficit(Truncation.LINEAR):
            assert deficit == 0.0
            assert abs(rise - ref * alpha * alpha / 4.0) <= math.ulp(ref), alpha


# Every scale of the domain, [1e-12, 1e12] cps.
scales = st.floats(1e-12, 1e12)

SCALE_RULE = r"^scale_ref_cps must lie in \[1e-12, 1e12\], got "


class TestCountRate:
    @given(scales)
    def test_reference_intensity_reads_the_scale_exactly(self, scale):
        # the quarter is undone before the scale multiplies, so nothing rounds
        assert count_rate(0.25, scale) == scale
        assert count_rate(np.array([0.25]), scale).tolist() == [scale]

    @settings(deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20), scales)
    def test_an_array_gives_the_bits_of_its_scalars(self, norms, scale):
        rates = [count_rate(norm, scale).hex() for norm in norms]
        assert [r.hex() for r in count_rate(np.array(norms), scale).tolist()] == rates

    def test_the_least_scale_reads_itself_on_the_empty_beamline(self):
        assert run(Scenario(), 1e-12)[Detector.O_SELECTED].intensity_cps == 1e-12

    @pytest.mark.parametrize("scale", [-3.0, 0.0, -0.0])
    def test_a_scale_that_is_not_positive_is_an_error(self, scale):
        for norm in (0.25, np.array([0.25])):
            with pytest.raises(ValueError, match=SCALE_RULE):
                count_rate(norm, scale)

    @pytest.mark.parametrize(
        "norm", [0.5, np.float64(0.5), np.array([0.25, 0.5])], ids=["float", "float64", "array"]
    )
    def test_a_scale_past_the_domain_is_an_error(self, norm):
        with pytest.raises(ValueError, match=SCALE_RULE + r"1\.79e\+308$"):
            count_rate(norm, 1.79e308)

    @pytest.mark.parametrize(
        "norm", [1e308, np.float64(-1e308), np.array([1e308, 0.25])], ids=["float", "float64", "array"]
    )
    def test_a_norm_whose_rate_overflows_is_an_error(self, norm):
        # 1e308 / 0.25 overflows: the caller's intensity is named, with no warning
        match = r"^intensity_norm of magnitude 1e\+308 has no finite count rate$"
        with pytest.raises(ValueError, match=match):
            count_rate(norm, 0.1)

    @pytest.mark.parametrize(
        "norm",
        [np.float32(1e30), np.array([3e4], dtype=np.float16), np.finfo(np.float32).max,
         np.array([np.finfo(np.float16).max, -0.25], dtype=np.float16)],
        ids=["float32", "float16-array", "float32-max", "float16-max-array"],
    )
    def test_a_narrow_float_gives_the_float64_rate_it_was_checked_at(self, norm):
        # the check runs in float64, so the rate does too: no inf, and no warning, in float32 or float16
        rate = count_rate(norm, 1e12)
        assert np.asarray(rate).dtype == np.float64
        assert np.array_equal(rate, np.asarray(norm, dtype=float) / 0.25 * 1e12)
        assert np.isfinite(rate).all()

    def test_a_long_double_past_the_float_range_is_refused_before_any_cast(self):
        if np.finfo(np.longdouble).maxexp <= np.finfo(float).maxexp:
            pytest.skip("long double has the range of a double here")
        norm = np.longdouble(10) ** 400
        with pytest.raises(ValueError, match=r"^intensity_norm of magnitude inf has no finite count rate$"):
            count_rate(norm, 11.25)

    @pytest.mark.parametrize("norm", ["x", None, [0.25], 0.25j], ids=["str", "None", "list", "complex"])
    def test_a_norm_that_is_not_a_real_number_or_array_is_an_error(self, norm):
        match = r"^intensity_norm must be a real number or array, got "
        with pytest.raises(ValueError, match=match + re.escape(repr(norm)) + "$"):
            count_rate(norm, 11.25)

    def test_run_and_sweeps_refuse_a_scale_past_the_domain(self):
        with pytest.raises(ValueError, match=SCALE_RULE):
            run(Scenario(), 1e308)
        with pytest.raises(ValueError, match=SCALE_RULE):
            sweep_chi(Scenario(), [0.0, 1.0], 1.79e308)
        magnet = Scenario(Magnet(Path.I, 0.1))
        with pytest.raises(ValueError, match=SCALE_RULE):
            sweep_alpha(magnet, [0.1, math.pi], 1.79e308)


class TestValidation:
    def test_run_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            run(Scenario(), scale_ref_cps=0.0)
        with pytest.raises(ValueError):
            run(Scenario(), scale_ref_cps=math.nan)

    def test_scenario_rejects_nonfinite_chi(self):
        with pytest.raises(ValueError):
            Scenario(chi_rad=math.inf)

    def test_magnet_rejects_nonfinite_alpha(self):
        with pytest.raises(ValueError):
            Magnet(Path.I, math.nan)

    def test_absorber_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Absorber(Path.I, 1.5)

    def test_scenario_rejects_bad_insertion_type(self):
        with pytest.raises(TypeError):
            Scenario(insertion="magnet")

    def test_magnet_is_immutable(self):
        magnet = Magnet(Path.I, 0.1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            magnet.alpha_rad = 0.2
