"""Complex linear algebra on the joint spin (2) x path (2) Hilbert space.

Every state and operator in this package lives in one fixed 4-dimensional
basis:

    index 0: (spin-z up,   path I)
    index 1: (spin-z down, path I)
    index 2: (spin-z up,   path II)
    index 3: (spin-z down, path II)

Path is the Kronecker-major factor and spin the minor one: index
``2 * path + spin`` is entry ``[path, spin]`` of a (2, 2) array.  ``tensor``
spells that order out for operators, and ``elements.recombine`` and
``experiment.initial_state``/``postselection_state`` for states, by reshape.

All objects are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Path",
    "SX_MINUS",
    "ID2",
    "SIGMA_Z",
    "JointState",
    "JointOperator",
    "path_projector",
    "spin_on_path",
    "tensor",
    "identity",
    "apply",
    "inner",
    "norm2",
    "dagger",
    "compose",
    "is_unitary",
]

class Path(Enum):
    """Interferometer arm label: I is the lower path, II the upper path."""

    I = 0
    II = 1


# The physical input domain, where no reading or rate overflows: a spin rotation
# of at most _ALPHA_MAX rad and a count-rate scale in [1 / _SCALE_MAX, _SCALE_MAX] cps.
_ALPHA_MAX = 1e6
_SCALE_MAX = 1e12

# Input rules, keyed by the rule as its error states it.  Each allows the
# finite floats in [low, high] except one value, an endpoint; NaN excludes nothing.
_MAX = sys.float_info.max
_RULES = {
    "be finite": (-_MAX, _MAX, math.nan),
    "be positive": (0.0, _MAX, 0.0),
    "be >= 0": (0.0, _MAX, math.nan),
    "lie in [0, 1]": (0.0, 1.0, math.nan),
    "lie in [0, 1)": (0.0, 1.0, 1.0),
    "lie in [-1e6, 1e6]": (-_ALPHA_MAX, _ALPHA_MAX, math.nan),
    "lie in (0, 1e6]": (0.0, _ALPHA_MAX, 0.0),
    "lie in [1e-12, 1e12]": (1.0 / _SCALE_MAX, _SCALE_MAX, math.nan),
}


def _require_real(name: str, value, rule: str = "be finite") -> float:
    """``value`` as a float if it is a finite number meeting ``rule``; else ValueError, text too."""
    low, high, excluded = _RULES[rule]
    if type(value) is float:
        if low <= value <= high and value != excluded:
            return value
    elif not isinstance(value, (str, bytes)):
        try:
            value = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            return _require_real(name, value, rule)
    raise ValueError(f"{name} must {rule}, got {value!r}")


def _require_grid(name: str, values, rule: str = "be finite") -> np.ndarray:
    """``values`` as a 1-D float64 array (a scalar as length 1) if every entry meets ``rule``."""
    try:
        grid = np.asarray(values)
    except ValueError:  # numpy refuses ragged nesting
        raise ValueError(f"{name} must be a scalar or one-dimensional array, not ragged") from None
    if grid.dtype.kind == "O" and grid.ndim < 2:  # an int past uint64 makes one: read as scalars
        reals = []
        for i, value in enumerate(grid.reshape(-1).tolist()):
            try:
                reals.append(_require_real(name, value, rule))
            except ValueError:
                raise ValueError(f"{name} entries must {rule}, got {value!r} at index {i}") from None
        return np.array(reals)
    if grid.dtype.kind not in "biuf" or grid.ndim > 1:  # real: bool, int, unsigned or float
        got = f"dtype {grid.dtype}" if grid.ndim < 2 else f"shape {grid.shape}"
        raise ValueError(f"{name} must be a scalar or one-dimensional array of reals, got {got}")
    if grid.ndim == 0 or grid.dtype.char != "d":
        grid = grid.astype(float).reshape(-1)
    low, high, excluded = _RULES[rule]
    if grid.size:  # the least and the greatest entry decide, and a NaN is both
        least, most = float(np.minimum.reduce(grid)), float(np.maximum.reduce(grid))
        if not (low <= least <= most <= high and least != excluded != most):
            i = int(np.argmin((grid >= low) & (grid <= high) & (grid != excluded)))
            raise ValueError(f"{name} entries must {rule}, got {float(grid[i])!r} at index {i}")
    return grid


def _require_member(name: str, value, kind: type):
    """``value`` if it is a ``kind``, else a TypeError like "path must be a Path, got 'I'"."""
    if isinstance(value, kind):
        return value
    raise TypeError(f"{name} must be a {kind.__name__}, got {value!r}")


# The real transverse-minus spin state |x-> = (|up> - |down>)/sqrt(2).  With
# sigma_z = diag(1, -1) this fixes sigma_z |x-> = |x+> with a plus sign; any
# intensity is unaffected by that sign choice, but signed cross products
# (weak values of sigma_z conditioned on a path) inherit it.
SX_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)

ID2 = np.eye(2, dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _as_finite_complex(values, shape, what: str) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} entries must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class JointState:
    """A vector of four complex amplitudes in the fixed joint basis.

    The squared norm is not constrained at construction time: absorbers
    attenuate below one, and truncated rotations are deliberately applied
    without renormalization and may push it slightly above one.
    """

    amp: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amp", _as_finite_complex(self.amp, (4,), "state amplitudes"))


@dataclass(frozen=True, eq=False)
class JointOperator:
    """A 4x4 complex matrix acting on :class:`JointState`."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "matrix", _as_finite_complex(self.matrix, (4, 4), "operator matrix")
        )

    def __add__(self, other: "JointOperator") -> "JointOperator":
        return JointOperator(self.matrix + other.matrix)

    def __mul__(self, scalar: complex) -> "JointOperator":
        return JointOperator(self.matrix * scalar)


def path_projector(path: Path) -> np.ndarray:
    """2x2 projector onto one interferometer path."""
    i = _require_member("path", path, Path).value
    proj = np.zeros((2, 2), dtype=complex)
    proj[i, i] = 1.0
    return proj


def spin_on_path(spin_amplitudes, path: Path) -> JointState:
    """Joint state carrying the given 2-component spin vector on one path."""
    lo = 2 * _require_member("path", path, Path).value
    spin = _as_finite_complex(spin_amplitudes, (2,), "spin amplitudes")
    amp = np.zeros(4, dtype=complex)
    amp[lo : lo + 2] = spin
    return JointState(amp)


def tensor(spin_op, path_op) -> JointOperator:
    """Joint operator acting as ``spin_op`` on spin and ``path_op`` on path.

    The basis order documented in the module docstring puts path on the
    major (slow) index, so the underlying matrix is kron(path_op, spin_op).
    Passing the arguments to ``np.kron`` in written order would silently
    transpose the basis; this wrapper exists to make that impossible.
    """
    spin = _as_finite_complex(spin_op, (2, 2), "spin operator")
    path = _as_finite_complex(path_op, (2, 2), "path operator")
    return JointOperator(np.kron(path, spin))


def identity() -> JointOperator:
    return JointOperator(np.eye(4, dtype=complex))


def apply(op: JointOperator, state: JointState) -> JointState:
    """Apply an operator to a state, returning a new state."""
    matrix = _require_member("op", op, JointOperator).matrix
    return JointState(matrix @ _require_member("state", state, JointState).amp)


def inner(bra: JointState, ket: JointState) -> complex:
    """Inner product <bra|ket>, conjugate-linear in the first argument."""
    bra, ket = _require_member("bra", bra, JointState), _require_member("ket", ket, JointState)
    return complex(np.vdot(bra.amp, ket.amp))


def norm2(state: JointState) -> float:
    """Squared norm, i.e. the total detectable intensity."""
    amp = _require_member("state", state, JointState).amp
    return float(np.vdot(amp, amp).real)


def dagger(op: JointOperator) -> JointOperator:
    return JointOperator(_require_member("op", op, JointOperator).matrix.conj().T)


def compose(a: JointOperator, b: JointOperator) -> JointOperator:
    """Matrix product a @ b (apply ``b`` first, then ``a``)."""
    a, b = _require_member("a", a, JointOperator), _require_member("b", b, JointOperator)
    return JointOperator(a.matrix @ b.matrix)


def is_unitary(op: JointOperator, tol: float = 1e-12) -> bool:
    matrix = _require_member("op", op, JointOperator).matrix
    return bool(np.max(np.abs(matrix @ matrix.conj().T - np.eye(4))) <= tol)
