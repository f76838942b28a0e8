import cmath
import importlib.util
import math
import re
import sys
from pathlib import Path as FilePath

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cheshire import weak
from cheshire.analysis import fit_loglog_slope, truncation_scan
from cheshire.elements import Truncation
from cheshire.experiment import (
    _POSTSELECTED,
    _PREPARED,
    _ROTATION,
    I_REF_NORM,
    Absorber,
    Detector,
    Magnet,
    Scenario,
    initial_state,
    postselection_state,
    run,
)
from cheshire.qcore import JointOperator, JointState, Path, identity
from cheshire.weak import (
    DegeneratePostselectionError,
    WeakValueEstimate,
    WeakValueSet,
    _contract,
    estimate_pi_from_absorber,
    estimate_sigma_pi,
    exact_weak_values,
    modular_value,
    path_projector_operator,
    projective_spin_expectation,
    spin_z_path_operator,
    weak_value,
    weakvalue_intensity,
)

ALPHA_20 = math.radians(20.0)
PERFBENCH = FilePath(__file__).resolve().parents[1] / "perfbench"


def path_spin(state: JointState) -> np.ndarray:
    """A JointState's amplitudes as the (2, 2) [path, spin] array the contraction reads."""
    return state.amp.reshape(2, 2)


def magnet_intensity(path: Path, alpha: float) -> float:
    return run(Scenario(insertion=Magnet(path, alpha)))[Detector.O_SELECTED].intensity_norm


class TestWeakValues:
    def test_identity_weak_value_is_one(self):
        value = weak_value(identity(), initial_state(), postselection_state())
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_canonical_quartet(self):
        values = exact_weak_values()
        assert values.pi_i == pytest.approx(0.0, abs=1e-12)
        assert values.pi_ii == pytest.approx(1.0, abs=1e-12)
        # the sign of sigma_pi_i follows the package's transverse-basis
        # convention; only the magnitude is convention-free
        assert abs(values.sigma_pi_i) == pytest.approx(1.0, abs=1e-12)
        assert values.sigma_pi_ii == pytest.approx(0.0, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(31)
        psi_i, psi_f = initial_state(), postselection_state()
        for _ in range(20):
            a = path_projector_operator(Path.I) * complex(rng.normal(), rng.normal())
            b = spin_z_path_operator(Path.II) * complex(rng.normal(), rng.normal())
            combined = weak_value(a + b, psi_i, psi_f)
            separate = weak_value(a, psi_i, psi_f) + weak_value(b, psi_i, psi_f)
            assert combined == pytest.approx(separate, abs=1e-12)

    def test_path_projectors_resolve_identity(self):
        rng = np.random.default_rng(8)
        produced = 0
        while produced < 30:
            psi_i = JointState(rng.normal(size=4) + 1j * rng.normal(size=4))
            psi_f = JointState(rng.normal(size=4) + 1j * rng.normal(size=4))
            try:
                total = weak_value(
                    path_projector_operator(Path.I), psi_i, psi_f
                ) + weak_value(path_projector_operator(Path.II), psi_i, psi_f)
            except DegeneratePostselectionError:
                continue
            assert total == pytest.approx(1.0, abs=1e-9)
            produced += 1

    def test_degenerate_postselection_raises(self):
        psi_i = JointState([1.0, 0, 0, 0])
        psi_f = JointState([0, 1.0, 0, 0])
        with pytest.raises(DegeneratePostselectionError):
            weak_value(identity(), psi_i, psi_f)

    @pytest.mark.parametrize(
        "states",
        [
            {"pre": path_spin(initial_state())},
            {"post": path_spin(postselection_state())},
            {"pre": path_spin(initial_state()), "post": path_spin(postselection_state())},
        ],
        ids=["psi_i", "psi_f", "both"],
    )
    def test_given_standard_states_contract_to_the_canonical_set(self, states):
        # a standard JointState read as [path, spin] stands in for its
        # module constant, and the contraction lands on the import-time set
        values = _contract(states.get("pre", _PREPARED), states.get("post", _POSTSELECTED))
        assert values is not exact_weak_values()
        assert values == exact_weak_values()

    def test_weak_value_set_guards_sum_rule(self):
        with pytest.raises(ValueError):
            WeakValueSet(pi_i=0.5, pi_ii=0.2, sigma_pi_i=1.0, sigma_pi_ii=0.0)

    def test_weak_value_set_rejects_an_int_too_large_for_a_float(self):
        with pytest.raises(ValueError, match=r"^pi_ii must be finite, got 1000+$"):
            WeakValueSet(0, 10**400, 0, 0)

    def test_weak_value_set_parts_read_back_as_python_complex(self):
        values = WeakValueSet(np.float32(0.25), 0.75, np.complex64(1 - 0.5j), True)
        parts = (values.pi_i, values.pi_ii, values.sigma_pi_i, values.sigma_pi_ii)
        assert [type(part) for part in parts] == [complex] * 4
        assert parts == (0.25 + 0j, 0.75 + 0j, 1 - 0.5j, 1 + 0j)


class TestProjectiveExpectation:
    def test_zero_on_both_paths(self):
        assert projective_spin_expectation(Path.I) == pytest.approx(0.0, abs=1e-15)
        assert projective_spin_expectation(Path.II) == pytest.approx(0.0, abs=1e-15)


class TestWeakValueIntensity:
    def test_zero_angle_returns_reference(self):
        values = exact_weak_values()
        for path in Path:
            assert weakvalue_intensity(0.0, path, values, 0.25) == pytest.approx(0.25)

    def test_path_II_deficit(self):
        values = exact_weak_values()
        alpha = 0.2
        expected = 0.25 * (1 - alpha * alpha / 4)
        assert weakvalue_intensity(alpha, Path.II, values, 0.25) == pytest.approx(
            expected, abs=1e-15
        )

    def test_path_I_excess(self):
        values = exact_weak_values()
        alpha = 0.2
        expected = 0.25 * (1 + alpha * alpha / 4)
        assert weakvalue_intensity(alpha, Path.I, values, 0.25) == pytest.approx(
            expected, abs=1e-15
        )

    def test_tautology_fourth_order_agreement(self):
        # the second-order weak-value bracket reproduces the exact matrix
        # intensity up to an alpha^4 remainder, for both paths
        values = exact_weak_values()
        alphas = np.geomspace(0.01, 0.3, 50)
        for path in Path:
            errors = [
                abs(magnet_intensity(path, a) - weakvalue_intensity(a, path, values, 0.25))
                for a in alphas
            ]
            assert fit_loglog_slope(alphas, errors) == pytest.approx(4.0, abs=0.2)

    @pytest.mark.parametrize("path", list(Path))
    def test_complex_sigma_z_weak_value_has_a_first_order_term(self, path):
        # post-selection (1/sqrt 2)(cos pi/4, -e^{0.5i} sin pi/4) on both paths, so
        # Im <sigma_z Pi_j>_w = -+0.24: without the -alpha Im term the errors are
        # -+6.0e-4, -+3.0e-3 and -+6.0e-3 at these angles, first order in alpha
        spin = np.array([math.cos(math.pi / 4), -cmath.exp(0.5j) * math.sin(math.pi / 4)])
        post = np.array([spin, spin]) / math.sqrt(2)
        values = _contract(_PREPARED, post)
        i_ref = abs(np.vdot(post, _PREPARED)) ** 2
        assert i_ref == pytest.approx(0.25, abs=1e-15)
        for alpha in (0.01, 0.05, 0.1):
            # the exact rotation, e^{+-i alpha/2} on the path's spin, by direct contraction
            diagonal = np.ones((2, 2), dtype=complex)
            diagonal[path.value] = [cmath.exp(0.5j * alpha), cmath.exp(-0.5j * alpha)]
            exact = abs(np.vdot(post, diagonal * _PREPARED)) ** 2
            error = weakvalue_intensity(alpha, path, values, i_ref) - exact
            assert abs(error) <= 0.02 * alpha**3, (alpha, error)

    @given(st.floats(-1e150, 1e150), st.sampled_from(list(Path)))
    def test_standard_pair_keeps_the_bits_of_the_second_order_terms(self, alpha, path):
        # the first-order term is 1.0 - (+-0.0) for real weak values: no bit moves
        values = exact_weak_values()
        pi_w, sigma_pi_w = {
            Path.I: (values.pi_i, values.sigma_pi_i),
            Path.II: (values.pi_ii, values.sigma_pi_ii),
        }[path]
        quarter = alpha * alpha / 4.0
        expected = 0.25 * (1.0 - quarter * pi_w.real + quarter * abs(sigma_pi_w) ** 2)
        assert weakvalue_intensity(alpha, path, values, 0.25) == expected

    def test_rejects_bad_reference(self):
        with pytest.raises(ValueError):
            weakvalue_intensity(0.1, Path.I, exact_weak_values(), 0.0)

    @pytest.mark.parametrize("path", list(Path))
    def test_rejects_an_angle_whose_prediction_is_not_finite(self, path):
        # alpha^2/4 overflows, and inf * 0 is a NaN on either path
        with pytest.raises(ValueError, match=r"^alpha_rad 1e\+200 gives a prediction that is not finite"):
            weakvalue_intensity(1e200, path, exact_weak_values(), 0.25)

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    @pytest.mark.parametrize(
        "part", [1e200, 1e308, -1e308, complex(1.7e308, 1.7e308)], ids=["1e200", "1e308", "-1e308", "complex"]
    )
    def test_rejects_a_weak_value_whose_prediction_is_not_finite(self, part, alpha):
        # |w|^2 overflows to inf (times alpha^2/4 = 0 it is a NaN): the weak value
        # is at fault, whatever the angle, and the error names it
        value = "nan" if alpha == 0.0 else "inf"
        for path, values in ((Path.I, WeakValueSet(0, 1, part, 0)), (Path.II, WeakValueSet(0, 1, 0, part))):
            name = f"sigma_pi_{path.name.lower()}"
            message = (
                f"{name} {complex(part)!r} gives a prediction that is not finite ({value}) "
                "at i_ref_norm 0.25"
            )
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                weakvalue_intensity(alpha, path, values, 0.25)

    def test_a_float32_weak_value_gives_the_float64_prediction(self):
        part = np.float32(3e38)
        m, quarter = float(part), 0.1 * 0.1 / 4.0
        value = weakvalue_intensity(0.1, Path.I, WeakValueSet(0, 1, part, 0), 0.25)
        assert type(value) is float and value == 0.25 * (1.0 + quarter * (m * m))

    @pytest.mark.parametrize("path, expected", [(Path.I, 6.25e306), (Path.II, -6.25e306)])
    def test_large_finite_prediction_is_returned(self, path, expected):
        assert weakvalue_intensity(1e154, path, exact_weak_values(), 0.25) == expected


class TestWeakValueEstimate:
    """Built directly, an estimate takes any finite real value and any real
    uncertainty in [0, inf), stored as given, and refuses the rest."""

    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, "x", None, 10**400],
        ids=["nan", "inf", "-inf", "'x'", "None", "10**400"],
    )
    def test_refuses_a_value_that_is_not_a_finite_real(self, value):
        message = f"estimate value must be finite, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            WeakValueEstimate(value, 0.1, "direct")

    @pytest.mark.parametrize("uncertainty", [math.nan, math.inf, -1.0], ids=repr)
    def test_refuses_an_uncertainty_outside_zero_to_inf(self, uncertainty):
        message = f"uncertainty must be >= 0, got {uncertainty!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            WeakValueEstimate(0.5, uncertainty, "direct")

    def test_checks_the_value_before_the_uncertainty(self):
        with pytest.raises(ValueError, match="^estimate value must be finite, got nan$"):
            WeakValueEstimate(math.nan, -1.0, "direct")

    @pytest.mark.parametrize(
        "number", [np.float64(0.5), np.float32(0.25), 3, True, 0.0, 1.7e308], ids=repr
    )
    def test_takes_any_finite_real_for_either_field_as_given(self, number):
        for value, uncertainty in ((number, 0.1), (0.5, number), (number, number)):
            est = WeakValueEstimate(value, uncertainty, "direct")
            assert est.value is value and est.uncertainty is uncertainty

    def test_takes_a_negative_zero_uncertainty(self):
        est = WeakValueEstimate(-2.0, -0.0, "direct")
        assert math.copysign(1.0, est.uncertainty) == -1.0


class TestEstimateSigmaPi:
    def test_unit_magnitude_recovered_exactly(self):
        alpha = 0.2
        i_mag = 0.25 * (1 + alpha * alpha / 4)
        est = estimate_sigma_pi(i_mag, 0.25, alpha, pi_w=0.0)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.source == "magnet-inversion"

    def test_zero_magnitude_recovered_exactly(self):
        alpha = 0.2
        i_mag = 0.25 * (1 - alpha * alpha / 4)
        est = estimate_sigma_pi(i_mag, 0.25, alpha, pi_w=1.0)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_exact_oracle_round_trip_path_I(self):
        # feeding the exact matrix intensity back through the quadratic
        # inversion leaves only the expansion's own truncation error
        est = estimate_sigma_pi(magnet_intensity(Path.I, ALPHA_20), 0.25, ALPHA_20, pi_w=0.0)
        assert est.value == pytest.approx(1.0, abs=0.01)

    def test_exact_oracle_round_trip_path_II_truncation_floor(self):
        # same round trip on path II: the surviving truncation error is
        # alpha^2/12 in the squared magnitude (0.0101 at 20 degrees),
        # which the square root amplifies to about 0.1
        est = estimate_sigma_pi(magnet_intensity(Path.II, ALPHA_20), 0.25, ALPHA_20, pi_w=1.0)
        assert est.value == pytest.approx(math.sqrt(ALPHA_20**2 / 12), abs=2e-3)

    def test_exact_oracle_round_trip_recovers_ideal_values_at_small_angle(self):
        # the alpha^2/12 residue stays under 0.01 after the square root only
        # for alpha <~ sqrt(12) * 0.01 ~= 0.0346 rad; at 0.03 rad path II
        # returns 0.00866
        alpha = 0.03
        est_i = estimate_sigma_pi(magnet_intensity(Path.I, alpha), 0.25, alpha, pi_w=0.0)
        est_ii = estimate_sigma_pi(magnet_intensity(Path.II, alpha), 0.25, alpha, pi_w=1.0)
        assert est_i.value == pytest.approx(1.0, abs=0.01)
        assert est_ii.value == pytest.approx(0.0, abs=0.01)

    def test_negative_square_within_tolerance_clamps(self):
        est = estimate_sigma_pi(0.25 * (1 - 1e-12), 0.25, 0.2, pi_w=0.0)
        assert est.value == 0.0

    def test_inconsistent_inputs_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            estimate_sigma_pi(0.25 * 0.9, 0.25, 0.2, pi_w=0.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.0, 1e-162, 1e-155, -1e-155])
    def test_rejects_alpha_too_small_to_invert(self, alpha):
        # alpha^2 is 0 (a zero of either sign, or an underflow) or 4/alpha^2 overflows to inf
        match = rf"^alpha_rad is too small for 4/alpha\^2 to be finite, got {re.escape(repr(alpha))}$"
        with pytest.raises(ValueError, match=match):
            estimate_sigma_pi(0.25, 0.25, alpha, pi_w=0.0)

    def test_uncertainty_propagation(self):
        alpha = 0.2
        i_mag = 0.25 * (1 + alpha * alpha / 4)
        sigma = 0.001
        est = estimate_sigma_pi(i_mag, 0.25, alpha, pi_w=0.0, sigma_i_mag=sigma)
        # d(value)/d(i_mag) = (4/alpha^2)/i_ref / (2 value); value = 1
        expected = (4 / alpha**2) / 0.25 * sigma / 2
        assert est.uncertainty == pytest.approx(expected, rel=1e-9)

    def test_uncertainty_zero_for_exact_inputs(self):
        est = estimate_sigma_pi(0.2525, 0.25, 0.2, pi_w=0.0)
        assert est.uncertainty == 0.0

    def test_tolerance_is_not_a_keyword(self):
        # a caller-set tolerance could turn inconsistent input into an estimate
        with pytest.raises(TypeError):
            estimate_sigma_pi(0.225, 0.25, 0.2, 0.0, negative_tolerance=math.nan)

    @pytest.mark.parametrize("sigma", ["sigma_i_mag", "sigma_i_ref"])
    def test_rejects_a_negative_sigma(self, sigma):
        with pytest.raises(ValueError, match=rf"^{sigma} must be >= 0, got -1.0$"):
            estimate_sigma_pi(0.2525, 0.25, 0.2, 0.0, **{sigma: -1.0})


class TestTinyReference:
    """A tiny i_ref_norm: the error propagates through I/I_ref, never I_ref squared."""

    def test_absorber_estimate(self):
        est = estimate_pi_from_absorber(0.25, 1e-200, 0.5)
        assert est.value == (1.0 - 0.25 / 1e-200) / (2.0 * (1.0 - math.sqrt(0.5)))
        assert est.uncertainty == 0.0

    def test_magnet_estimate(self):
        est = estimate_sigma_pi(0.25, 1e-200, 0.2, 0.0)
        assert est.value == math.sqrt(4.0 / 0.2**2 * (0.25 / 1e-200 - 1.0))
        assert est.uncertainty == 0.0

    def test_uncertainty_that_overflows_names_the_reference(self):
        with pytest.raises(ValueError, match=r"^i_ref_norm is too small .* got 1e-160$"):
            estimate_sigma_pi(0.25, 1e-160, 0.2, 0.0, sigma_i_ref=1.0)

    def test_uncertainty_whose_squared_terms_overflow(self):
        # (4/alpha^2) I_mag / I_ref^2 = 1e162 squares past the float range,
        # but the uncertainty itself is finite
        est = estimate_sigma_pi(1.01e-160, 1e-160, 0.2, 0.0, sigma_i_ref=1.0)
        expected = 100.0 * 1.01 / 1e-160 / (2.0 * est.value)
        assert est.uncertainty == pytest.approx(expected, rel=1e-12)


class TestEstimatePiFromAbsorber:
    def test_no_attenuation_response_means_zero(self):
        est = estimate_pi_from_absorber(0.25, 0.25, 0.64)
        assert est.value == pytest.approx(0.0, abs=1e-15)
        assert est.source == "absorber-inversion"

    def test_first_order_bias_at_published_transmissivity(self):
        # a fully attenuated-path response I_abs = T I_ref inverts to
        # (1 + sqrt(T))/2, which is 0.975 at T = 0.9025: the estimator is
        # first order only
        est = estimate_pi_from_absorber(0.9025 * 0.25, 0.25, 0.9025)
        assert est.value == pytest.approx(0.975, abs=1e-12)

    def test_bias_vanishes_as_t_approaches_one(self):
        estimates = [
            estimate_pi_from_absorber(t * 0.25, 0.25, t).value
            for t in (0.9, 0.99, 0.999, 0.9999)
        ]
        assert estimates == sorted(estimates)
        assert estimates[-1] == pytest.approx(1.0, abs=5e-5)

    def test_rejects_unit_transmissivity(self):
        with pytest.raises(ValueError):
            estimate_pi_from_absorber(0.25, 0.25, 1.0)

    def test_uncertainty_propagation(self):
        est = estimate_pi_from_absorber(0.24, 0.25, 0.75, sigma_i_abs=0.001)
        gain = 1.0 / (2 * (1 - math.sqrt(0.75)))
        assert est.uncertainty == pytest.approx(gain * 0.001 / 0.25, rel=1e-9)

    @pytest.mark.parametrize("sigma", ["sigma_i_abs", "sigma_i_ref"])
    def test_rejects_a_negative_sigma(self, sigma):
        with pytest.raises(ValueError, match=rf"^{sigma} must be >= 0, got -1.0$"):
            estimate_pi_from_absorber(0.24, 0.25, 0.75, **{sigma: -1.0})


@given(st.floats(min_value=0.01, max_value=0.5, allow_nan=False))
def test_estimator_inverts_forward_model(alpha):
    # closure property: the estimator is the exact inverse of the
    # second-order bracket, for any magnitude in [0, 1]
    values = exact_weak_values()
    forward = weakvalue_intensity(alpha, Path.I, values, 0.25)
    est = estimate_sigma_pi(forward, 0.25, alpha, pi_w=values.pi_i.real)
    assert est.value == pytest.approx(abs(values.sigma_pi_i), abs=1e-9)


class _Float(float):
    """A float subclass, which no one-test guard admits: it takes the checks' route."""


def _estimate_bits(estimate: WeakValueEstimate) -> tuple:
    return type(estimate.value), estimate.value.hex(), type(estimate.uncertainty), estimate.uncertainty.hex()


class TestOneTestGuard:
    """Python floats in their rules, a Path and a WeakValueSet meet one test in the
    weak layer; a numpy float64 or a float subclass goes through ``_require_real``,
    and either way the result is a Python float with the same bits."""

    @given(st.floats(-1e6, 1e6), st.floats(1e-12, 1e12), st.sampled_from(list(Path)))
    def test_weakvalue_intensity_of_any_float_kind_has_the_same_bits(self, alpha, i_ref, path):
        expected = weakvalue_intensity(alpha, path, exact_weak_values(), i_ref)
        for kind in (np.float64, _Float):
            value = weakvalue_intensity(kind(alpha), path, exact_weak_values(), kind(i_ref))
            assert type(value) is float and value.hex() == expected.hex()

    @given(
        st.floats(1e-2, 3.0) | st.floats(-3.0, -1e-2),
        st.floats(1e-3, 1e3),
        st.floats(-2.0, 2.0),
        st.floats(0.0, 3.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_estimate_sigma_pi_of_any_float_kind_has_the_same_bits(
        self, alpha, i_ref, pi_w, magnitude, sigma_i_mag, sigma_i_ref
    ):
        i_mag = i_ref * (1.0 + alpha * alpha / 4.0 * (magnitude * magnitude - pi_w))
        expected = _estimate_bits(
            estimate_sigma_pi(i_mag, i_ref, alpha, pi_w, sigma_i_mag=sigma_i_mag, sigma_i_ref=sigma_i_ref)
        )
        assert expected[0] is float is expected[2]
        for kind in (np.float64, _Float):
            estimate = estimate_sigma_pi(
                kind(i_mag), kind(i_ref), kind(alpha), kind(pi_w),
                sigma_i_mag=kind(sigma_i_mag), sigma_i_ref=kind(sigma_i_ref),
            )
            assert _estimate_bits(estimate) == expected
        # order-scan's traffic: the reading alone a float64
        estimate = estimate_sigma_pi(
            np.float64(i_mag), i_ref, alpha, pi_w, sigma_i_mag=sigma_i_mag, sigma_i_ref=sigma_i_ref
        )
        assert _estimate_bits(estimate) == expected

    @given(
        st.floats(0.0, 1.0, exclude_max=True),
        st.floats(1e-3, 1e3),
        st.floats(-10.0, 10.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_estimate_pi_from_absorber_of_any_float_kind_has_the_same_bits(
        self, t, i_ref, i_abs, sigma_i_abs, sigma_i_ref
    ):
        expected = _estimate_bits(
            estimate_pi_from_absorber(i_abs, i_ref, t, sigma_i_abs=sigma_i_abs, sigma_i_ref=sigma_i_ref)
        )
        assert expected[0] is float is expected[2]
        for kind in (np.float64, _Float):
            estimate = estimate_pi_from_absorber(
                kind(i_abs), kind(i_ref), kind(t), sigma_i_abs=kind(sigma_i_abs), sigma_i_ref=kind(sigma_i_ref)
            )
            assert _estimate_bits(estimate) == expected

    def test_the_benchmark_traffic_meets_the_one_test(self, monkeypatch, tmp_path):
        # one round of the benchmark's own scenario-mix and order-scan operations at seed 1,
        # read-only from perfbench/workloads.py: nothing they pass the weak layer reaches a check
        def refuse(name, *args):
            raise AssertionError(f"{name} took the checks' route")

        monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports its oracle by name
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up there
        spec.loader.exec_module(workloads)
        monkeypatch.setattr(weak, "_require_real", refuse)
        monkeypatch.setattr(weak, "_require_member", refuse)
        for build in (workloads.scenario_mix, workloads.order_scan):
            for op in build(1, tmp_path).ops:
                op.call()

    def test_a_weak_value_set_subclass_is_still_accepted(self):
        class Subset(WeakValueSet):
            pass

        values = exact_weak_values()
        subset = Subset(values.pi_i, values.pi_ii, values.sigma_pi_i, values.sigma_pi_ii)
        for path in Path:
            for alpha in (0.0, 0.1, -2.5):
                value = weakvalue_intensity(alpha, path, subset, 0.25)
                assert value.hex() == weakvalue_intensity(alpha, path, values, 0.25).hex()

    def test_a_scan_reading_is_a_float64_and_estimates_as_its_python_float(self):
        # iterating a TruncationReport's readings, as order-scan does, yields np.float64
        grid = np.geomspace(0.01, 0.3, 12)
        readings = list(truncation_scan(Path.II, grid).i_exact)
        assert {type(reading) for reading in readings} == {np.float64}
        for alpha, reading in zip(grid.tolist(), readings):
            estimate = estimate_sigma_pi(reading, I_REF_NORM, alpha, 1.0)
            expected = estimate_sigma_pi(float(reading), I_REF_NORM, alpha, 1.0)
            assert type(estimate.value) is float and _estimate_bits(estimate) == _estimate_bits(expected)


class TestModularValue:
    """m_j = 1 + (c - 1)<Pi_j>_w + i s <sigma_z Pi_j>_w: I_ref |m_j|^2 is O_SELECTED at chi = 0."""

    @pytest.mark.parametrize("path, sign", [(Path.I, -1.0), (Path.II, 1.0)])
    def test_weakvalue_intensity_is_its_expansion_to_an_alpha4_over_48_remainder(self, path, sign):
        # I_ref |m_j|^2 - weakvalue_intensity = sign I_ref (alpha^4/48) (1 - alpha^2/30 + ...):
        # sin^2(alpha/2) - alpha^2/4 on path I, cos^2(alpha/2) - (1 - alpha^2/4) on path II
        values, gaps = exact_weak_values(), []
        for alpha in (0.2, 0.1, 0.05, 0.02):
            exact = I_REF_NORM * abs(modular_value(path, math.cos(alpha / 2), math.sin(alpha / 2), values)) ** 2
            ratio = (exact - weakvalue_intensity(alpha, path, values, I_REF_NORM)) / (I_REF_NORM * alpha**4 / 48)
            gaps.append(abs(ratio - sign))
            assert gaps[-1] <= alpha**2 / 20, (alpha, ratio)
        assert gaps == sorted(gaps, reverse=True)

    @given(st.floats(0.0, 1.0), st.sampled_from(list(Path)))
    def test_an_absorber_reads_as_run_within_one_ulp_of_the_reference(self, t, path):
        # s = 0 and c = sqrt(T): only c - 1 rounds, and only for c < 1/2, by at most
        # ulp(1)/4, so I_ref |m_j|^2 is off run's c^2/4 by about half an ulp of I_ref
        m = modular_value(path, math.sqrt(t), 0.0, exact_weak_values())
        reading = run(Scenario(insertion=Absorber(path, t)))[Detector.O_SELECTED].intensity_norm
        assert abs(I_REF_NORM * abs(m) ** 2 - reading) <= math.ulp(I_REF_NORM)

    @given(st.floats(-1e6, 1e6))
    def test_the_linear_truncation_leaves_path_two_at_the_reference_exactly(self, alpha):
        c, s = _ROTATION[Truncation.LINEAR](alpha / 2.0)
        m = modular_value(Path.II, c, s, exact_weak_values())
        assert m == 1 and I_REF_NORM * abs(m) ** 2 == 0.25
        scenario = Scenario(insertion=Magnet(Path.II, alpha, Truncation.LINEAR))
        assert run(scenario)[Detector.O_SELECTED].intensity_norm == 0.25

    @pytest.mark.parametrize(
        "c, s, sigma_pi_i, shown",
        [(1e300, 0.0, 1e300j, "(inf+0j)"), (1e300, 1e300, 1e10j, "(nan+0j)")],
    )
    def test_an_overflow_is_refused_naming_the_arguments(self, c, s, sigma_pi_i, shown):
        values = WeakValueSet(1e10, 1 - 1e10, sigma_pi_i, 0)
        message = (f"c {c!r} and s {s!r} give a modular value that is not finite ({shown}) "
                   f"on path I with {values!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            modular_value(Path.I, c, s, values)

    def test_returns_a_python_complex(self):
        m = modular_value(Path.I, np.float64(0.5), np.float32(0.25), exact_weak_values())
        assert type(m) is complex and m == 1 + 0.25j * exact_weak_values().sigma_pi_i


# The four canonical weak values, each with the 4x4 operator that is its
# independent reference route through weak_value.
CANONICAL = [
    ("pi_i", path_projector_operator, Path.I),
    ("pi_ii", path_projector_operator, Path.II),
    ("sigma_pi_i", spin_z_path_operator, Path.I),
    ("sigma_pi_ii", spin_z_path_operator, Path.II),
]

amplitudes = st.lists(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    min_size=4,
    max_size=4,
)


@given(amplitudes, amplitudes)
def test_contraction_matches_the_4x4_route(pre, post):
    psi_i, psi_f = JointState(pre), JointState(post)
    # keep |<f|i>| at least 1 % of |f||i|, so cancellation in the overlap
    # costs at most two digits on either route
    scale = np.linalg.norm(psi_i.amp) * np.linalg.norm(psi_f.amp)
    assume(abs(np.vdot(psi_f.amp, psi_i.amp)) >= max(0.01 * scale, 1e-9))
    values = _contract(path_spin(psi_i), path_spin(psi_f))
    for field, build, path in CANONICAL:
        want = weak_value(build(path), psi_i, psi_f)
        assert abs(getattr(values, field) - want) <= 1e-12 * max(1.0, abs(want)), field


class TestCanonicalContraction:
    @pytest.mark.parametrize(
        "pre, post",
        [
            ([1.0, 0, 0, 0], [0, 1.0, 0, 0]),
            # orthogonal to the standard post-selection
            ([0.5, 0.5, -0.5, -0.5], [0.5, -0.5, 0.5, -0.5]),
            ([1.0, 0, 0, 0], [1e-13, 1.0, 0, 0]),
        ],
    )
    def test_degenerate_pair_raises_from_both_routes(self, pre, post):
        psi_i, psi_f = JointState(pre), JointState(post)
        with pytest.raises(DegeneratePostselectionError):
            _contract(path_spin(psi_i), path_spin(psi_f))
        for _, build, path in CANONICAL:
            with pytest.raises(DegeneratePostselectionError):
                weak_value(build(path), psi_i, psi_f)

    def test_default_quartet_is_exact_with_no_negative_zero(self):
        # weakvalues prints .12g, where -0.0 would read "-0"
        values = exact_weak_values()
        quartet = (values.pi_i, values.pi_ii, values.sigma_pi_i, values.sigma_pi_ii)
        assert quartet == (0j, 1 + 0j, 1 + 0j, 0j)
        assert all(type(v) is complex for v in quartet)
        parts = [part for v in quartet for part in (v.real, v.imag)]
        assert [math.copysign(1.0, part) for part in parts] == [1.0] * 8

    def test_default_states_give_the_4x4_quartet(self):
        values = _contract(path_spin(initial_state()), path_spin(postselection_state()))
        assert values == exact_weak_values()
        for field, build, path in CANONICAL:
            want = weak_value(build(path), initial_state(), postselection_state())
            assert getattr(values, field) == want

    def test_projective_expectation_is_positive_zero(self):
        for path in Path:
            value = projective_spin_expectation(path)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_default_routes_build_no_joint_objects(self, monkeypatch):
        def refuse(obj):
            raise AssertionError(f"built a {type(obj).__name__}")

        monkeypatch.setattr(JointState, "__post_init__", refuse)
        monkeypatch.setattr(JointOperator, "__post_init__", refuse)
        exact_weak_values()
        for path in Path:
            projective_spin_expectation(path)
