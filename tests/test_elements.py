import numpy as np
import pytest
from numpy.testing import assert_allclose

from cheshire.analysis import fit_loglog_slope
from cheshire.elements import (
    Truncation,
    absorber,
    magnetic_rotation,
    phase_shifter,
    recombine,
    spin_rotation_matrix,
    spin_select_minus,
)
from cheshire.qcore import (
    SX_MINUS,
    JointState,
    Path,
    apply,
    compose,
    is_unitary,
    norm2,
    spin_on_path,
)

SX_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
PSI_IN = JointState([0.5, 0.5, 0.5, -0.5])


class TestPhaseShifter:
    def test_zero_phase_is_identity(self):
        assert_allclose(phase_shifter(0.0).matrix, np.eye(4), atol=0)

    def test_full_turn_is_minus_identity(self):
        # exp(-i pi) on path I and exp(+i pi) on path II: a global sign
        assert_allclose(phase_shifter(2 * np.pi).matrix, -np.eye(4), atol=1e-15)

    def test_quarter_turn_on_standard_state(self):
        # each path picks up exp(-+ i pi/4); amplitudes stay 1/2 in magnitude
        state = apply(phase_shifter(np.pi / 2), PSI_IN)
        front = np.exp(-0.25j * np.pi) * 0.5
        back = np.exp(0.25j * np.pi) * 0.5
        assert_allclose(state.amp, [front, front, back, -back], atol=1e-15)

    def test_unitary_for_random_phases(self):
        rng = np.random.default_rng(2024)
        for chi in rng.uniform(-4 * np.pi, 4 * np.pi, 100):
            assert is_unitary(phase_shifter(chi), tol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            phase_shifter(np.inf)


class TestAbsorber:
    def test_full_transmission_is_identity(self):
        assert_allclose(absorber(Path.I, 1.0).matrix, np.eye(4), atol=0)

    def test_blocking_path_II(self):
        state = apply(absorber(Path.II, 0.0), PSI_IN)
        assert_allclose(state.amp, [0.5, 0.5, 0.0, 0.0], atol=0)

    def test_attenuation_scales_norm(self):
        # path II carries half the intensity: 0.5 + 0.64 * 0.5 = 0.82
        state = apply(absorber(Path.II, 0.64), PSI_IN)
        assert norm2(state) == pytest.approx(0.82, abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, np.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            absorber(Path.I, bad)

    def test_commutes_with_phase_shifter(self):
        for t in (0.0, 0.3, 0.9025):
            for chi in (0.0, 0.7, np.pi, 5.0):
                ab = absorber(Path.II, t)
                ps = phase_shifter(chi)
                assert_allclose(compose(ab, ps).matrix, compose(ps, ab).matrix, atol=1e-15)


class TestMagneticRotation:
    def test_zero_angle_identity_all_truncations(self):
        for trunc in Truncation:
            assert_allclose(
                magnetic_rotation(Path.I, 0.0, trunc).matrix, np.eye(4), atol=0
            )

    def test_exact_unitary_for_random_angles(self):
        rng = np.random.default_rng(77)
        for alpha in rng.uniform(-4 * np.pi, 4 * np.pi, 100):
            for path in Path:
                assert is_unitary(magnetic_rotation(path, alpha, Truncation.EXACT), 1e-12)

    def test_truncations_not_unitary(self):
        for trunc in (Truncation.LINEAR, Truncation.QUADRATIC):
            assert not is_unitary(magnetic_rotation(Path.II, 0.3, trunc), 1e-12)

    def test_linear_action_matches_definition(self):
        # (1 + i a/2 sigma_z) |minus> = |minus> + i (a/2) |plus>
        alpha = 0.2
        state = apply(
            magnetic_rotation(Path.II, alpha, Truncation.LINEAR),
            spin_on_path(SX_MINUS, Path.II),
        )
        expected = spin_on_path(SX_MINUS + 1j * (alpha / 2) * SX_PLUS, Path.II)
        assert_allclose(state.amp, expected.amp, atol=1e-15)

    def test_acts_only_on_selected_path(self):
        state = apply(magnetic_rotation(Path.II, 1.1, Truncation.EXACT), PSI_IN)
        assert_allclose(state.amp[:2], PSI_IN.amp[:2], atol=0)

    def test_operator_error_exponents(self):
        # max-entry operator norms: exact vs linear decays like a^2 (the
        # missing cos term), exact vs quadratic like a^3 (the sin term)
        alphas = np.geomspace(0.01, 0.3, 30)
        err_lin, err_quad = [], []
        for a in alphas:
            exact = spin_rotation_matrix(a, Truncation.EXACT)
            err_lin.append(np.max(np.abs(exact - spin_rotation_matrix(a, Truncation.LINEAR))))
            err_quad.append(
                np.max(np.abs(exact - spin_rotation_matrix(a, Truncation.QUADRATIC)))
            )
        assert fit_loglog_slope(alphas, err_lin) >= 2.0 - 0.1
        assert fit_loglog_slope(alphas, err_quad) >= 3.0 - 0.1

    def test_rejects_bad_truncation_type(self):
        with pytest.raises(TypeError):
            spin_rotation_matrix(0.1, "linear")

    def test_rejects_bad_path(self):
        with pytest.raises(TypeError):
            magnetic_rotation("II", 0.1)


class TestRecombine:
    def test_standard_state_splits_plus_minus(self):
        # O port: ((plus + minus)/2) = (1/sqrt(2), 0); H port carries the
        # orthogonal combination
        amp_o, amp_h = recombine(PSI_IN)
        assert_allclose(amp_o, (SX_PLUS + SX_MINUS) / 2, atol=1e-15)
        assert_allclose(amp_h, (SX_PLUS - SX_MINUS) / 2, atol=1e-15)

    def test_single_path_splits_evenly(self):
        amp_o, amp_h = recombine(spin_on_path(SX_PLUS, Path.I))
        assert np.vdot(amp_o, amp_o).real == pytest.approx(0.5, abs=1e-12)
        assert np.vdot(amp_h, amp_h).real == pytest.approx(0.5, abs=1e-12)

    def test_conserves_norm(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            state = JointState(rng.normal(size=4) + 1j * rng.normal(size=4))
            amp_o, amp_h = recombine(state)
            total = np.vdot(amp_o, amp_o).real + np.vdot(amp_h, amp_h).real
            assert total == pytest.approx(norm2(state), rel=1e-12)


class TestSpinSelect:
    def test_selects_minus(self):
        assert spin_select_minus(SX_MINUS) == pytest.approx(1.0)
        assert spin_select_minus(SX_PLUS) == pytest.approx(0.0, abs=1e-15)

    def test_reference_amplitude_is_half(self):
        amp_o, _ = recombine(PSI_IN)
        assert spin_select_minus(amp_o) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            spin_select_minus(np.zeros(4))
