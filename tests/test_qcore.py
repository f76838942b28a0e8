import importlib
import importlib.util
from dataclasses import dataclass
from pathlib import Path as FilePath

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import cheshire
from cheshire import elements, qcore
from cheshire.qcore import (
    ID2,
    SIGMA_Z,
    SX_MINUS,
    JointOperator,
    JointState,
    Path,
    apply,
    compose,
    dagger,
    identity,
    inner,
    is_unitary,
    norm2,
    path_projector,
    spin_on_path,
    tensor,
)

SX_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def random_state(rng) -> JointState:
    return JointState(rng.normal(size=4) + 1j * rng.normal(size=4))


def random_op2(rng) -> np.ndarray:
    return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))


class TestBasisOrder:
    def test_tensor_identity_is_identity(self):
        assert_allclose(tensor(ID2, ID2).matrix, np.eye(4), atol=0)

    def test_tensor_sigma_z_on_path_I(self):
        # hand expansion in the documented basis order:
        # sigma_z acts on spin, the projector keeps only path I slots
        expected = np.diag([1.0, -1.0, 0.0, 0.0])
        assert_allclose(tensor(SIGMA_Z, path_projector(Path.I)).matrix, expected, atol=0)

    def test_tensor_identity_on_path_II(self):
        expected = np.diag([0.0, 0.0, 1.0, 1.0])
        assert_allclose(tensor(ID2, path_projector(Path.II)).matrix, expected, atol=0)

    def test_spin_on_path_fills_documented_slots(self):
        state = spin_on_path([1.0, 2.0], Path.II)
        assert_allclose(state.amp, [0, 0, 1.0, 2.0], atol=0)


class TestStatesAndInner:
    def test_transverse_states_orthonormal(self):
        assert_allclose(np.vdot(SX_PLUS, SX_PLUS), 1.0, atol=1e-15)
        assert_allclose(np.vdot(SX_MINUS, SX_MINUS), 1.0, atol=1e-15)
        assert_allclose(np.vdot(SX_PLUS, SX_MINUS), 0.0, atol=1e-15)

    def test_sigma_z_swaps_transverse_states_with_plus_sign(self):
        # the sign here is the package's fixed convention (real transverse
        # basis); arguments relying on it must use magnitudes
        assert_allclose(SIGMA_Z @ SX_PLUS, SX_MINUS, atol=1e-15)
        assert_allclose(SIGMA_Z @ SX_MINUS, SX_PLUS, atol=1e-15)

    def test_inner_is_conjugate_linear_in_bra(self):
        a = JointState([1j, 0, 0, 0])
        b = JointState([1.0, 0, 0, 0])
        assert inner(a, b) == pytest.approx(-1j)
        assert inner(b, a) == pytest.approx(1j)

    def test_projector_extracts_plus_component(self):
        # Pi_I on the standard input keeps (1/2, 1/2, 0, 0), the plus spin
        # riding on path I with amplitude 1/sqrt(2)
        psi = JointState([0.5, 0.5, 0.5, -0.5])
        projected = apply(tensor(ID2, path_projector(Path.I)), psi)
        assert_allclose(projected.amp, [0.5, 0.5, 0.0, 0.0], atol=1e-15)
        assert norm2(projected) == pytest.approx(0.5, abs=1e-15)

    def test_sigma_z_on_plus_along_path_I(self):
        plus_on_i = spin_on_path(SX_PLUS, Path.I)
        rotated = apply(tensor(SIGMA_Z, ID2), plus_on_i)
        assert_allclose(rotated.amp, spin_on_path(SX_MINUS, Path.I).amp, atol=1e-15)

    def test_norm2_of_standard_state(self):
        assert norm2(JointState([0.5, 0.5, 0.5, -0.5])) == pytest.approx(1.0, abs=1e-15)


class TestOperatorAlgebra:
    def test_compose_is_matrix_product(self):
        rng = np.random.default_rng(11)
        a = JointOperator(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        b = JointOperator(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        assert_allclose(compose(a, b).matrix, a.matrix @ b.matrix, atol=0)

    def test_tensor_distributes_over_composition(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a, b, c, d = (random_op2(rng) for _ in range(4))
            lhs = tensor(a @ b, c @ d).matrix
            rhs = compose(tensor(a, c), tensor(b, d)).matrix
            assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_dagger_involution(self):
        rng = np.random.default_rng(5)
        op = JointOperator(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        assert_allclose(dagger(dagger(op)).matrix, op.matrix, atol=0)

    def test_identity_is_unitary(self):
        assert is_unitary(identity())

    def test_nonunitary_detected(self):
        # (1 + i a/2 sz)(1 - i a/2 sz) = (1 + a^2/4) 1, so the unitarity
        # defect at a = 0.3 is exactly 0.0225, far above the tolerance
        a = 0.3
        op = tensor(ID2 + 0.5j * a * SIGMA_Z, ID2)
        assert not is_unitary(op, tol=1e-12)
        defect = op.matrix @ op.matrix.conj().T - np.eye(4)
        assert np.max(np.abs(defect)) == pytest.approx(0.0225, rel=1e-12)

    def test_unitary_preserves_norm(self):
        rng = np.random.default_rng(42)
        phases = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 2)))
        op = tensor(phases, ID2)
        for _ in range(20):
            state = random_state(rng)
            assert norm2(apply(op, state)) == pytest.approx(norm2(state), rel=1e-12)


class TestValidation:
    def test_state_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            JointState([np.nan, 0, 0, 0])
        with pytest.raises(ValueError):
            JointState([np.inf * 1j, 0, 0, 0])

    def test_state_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            JointState([1.0, 0.0])

    def test_operator_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            JointOperator(np.eye(3))

    def test_tensor_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            tensor(np.eye(4), np.eye(2))

    def test_state_is_immutable(self):
        state = JointState([1.0, 0, 0, 0])
        with pytest.raises(ValueError):
            state.amp[0] = 2.0


amplitude = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@given(st.lists(amplitude, min_size=16, max_size=16))
def test_inner_conjugate_symmetry(vals):
    a = JointState([complex(vals[i], vals[i + 1]) for i in range(0, 8, 2)])
    b = JointState([complex(vals[i], vals[i + 1]) for i in range(8, 16, 2)])
    assert inner(a, b) == pytest.approx(np.conj(inner(b, a)), abs=1e-12)


@given(st.floats(min_value=-12.0, max_value=12.0, allow_nan=False))
def test_z_rotation_tensor_is_unitary(angle):
    rot = np.cos(angle) * ID2 + 1j * np.sin(angle) * SIGMA_Z
    assert is_unitary(tensor(rot, ID2), tol=1e-12)


# The 4x4 reference layer and the helpers built on it, by home module: each
# is imported from there, and none from the package.
REFERENCE_LAYER = {
    "qcore": ["JointOperator", "JointState", "apply", "compose", "dagger", "identity",
              "inner", "is_unitary", "norm2", "spin_on_path", "tensor"],
    "elements": ["absorber", "magnetic_rotation", "phase_shifter", "recombine",
                 "spin_rotation_matrix", "spin_select_minus"],
    "experiment": ["initial_state", "postselection_state"],
    "weak": ["weak_value", "path_projector_operator", "spin_z_path_operator"],
}


def test_reference_layer_lives_on_its_module_not_the_package():
    for module, names in REFERENCE_LAYER.items():
        home = importlib.import_module(f"cheshire.{module}")
        for name in names:
            assert not hasattr(cheshire, name), name
            assert hasattr(home, name), f"cheshire.{module}.{name}"
    # the two labels every caller needs stay on the package
    assert cheshire.Path is qcore.Path and cheshire.Truncation is elements.Truncation


def _traced_layers() -> dict[str, tuple[str, ...]]:
    """The ``LAYERS`` table of the benchmark's tracer, read from its file."""
    tracing = FilePath(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", tracing)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_the_4x4_layer_exports_only_the_traced_names():
    # the names the tracer wraps, and the labels and 2x2 constants the
    # rest of the package shares; a helper beyond them has no caller
    layers = _traced_layers()
    assert set(qcore.__all__) == set(layers["qcore"]) | {"Path", "ID2", "SIGMA_Z", "SX_MINUS"}
    assert set(elements.__all__) == set(layers["elements"]) | {"Truncation"}


@pytest.mark.parametrize("cls", [JointState, JointOperator], ids=lambda c: c.__name__)
def test_joint_classes_have_no_method_twins(cls):
    # each operation has one spelling, the free function the tracer wraps;
    # the classes keep only the dataclass machinery, + and * by a scalar.
    # The machinery is read off a bare dataclass on this interpreter, since
    # it grows with Python (3.13 adds __replace__).
    bare = dataclass(frozen=True, eq=False)(type("Bare", (), {"__annotations__": {"x": int}}))
    machinery = set(vars(bare)) | {"__post_init__"}
    methods = {name for name, value in vars(cls).items() if callable(value)} - machinery
    assert methods <= {"__add__", "__mul__"}, methods
