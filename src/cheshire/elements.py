"""Beamline element factories for the two-path spin interferometer.

Conventions fixed here and relied on everywhere else:

* The tunable phase shifter multiplies path I by exp(-i chi/2) and path II
  by exp(+i chi/2).
* An absorber of intensity transmissivity T multiplies the selected path's
  amplitudes by sqrt(T).
* A magnetic spin rotation by angle ``alpha`` about z acts on the selected
  path only.  Its exact form is cos(alpha/2) + i sin(alpha/2) sigma_z; the
  truncated forms replace cos/sin by their leading Taylor terms and are
  deliberately NOT renormalized, so they are non-unitary for alpha != 0.
* The recombining splitter is a symmetric real 50/50 one: per spin
  component the ordinary port O takes (path I + path II)/sqrt(2) and the
  complementary port H takes (path I - path II)/sqrt(2).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .qcore import (
    ID2,
    SIGMA_Z,
    SX_MINUS,
    JointOperator,
    JointState,
    Path,
    _require_member,
    _require_real,
    path_projector,
    tensor,
)

__all__ = [
    "Truncation",
    "spin_rotation_matrix",
    "magnetic_rotation",
    "phase_shifter",
    "absorber",
    "recombine",
    "spin_select_minus",
]


class Truncation(Enum):
    """Taylor-order policy for the magnetic rotation operator."""

    EXACT = "exact"
    LINEAR = "linear"
    QUADRATIC = "quadratic"

    __hash__ = object.__hash__  # members are singletons compared by identity, so this agrees with ==


def spin_rotation_matrix(alpha_rad: float, truncation: Truncation = Truncation.EXACT) -> np.ndarray:
    """2x2 spin-rotation matrix about z by ``alpha_rad``.

    EXACT:      cos(a/2) * 1 + i sin(a/2) * sigma_z      (unitary)
    LINEAR:     1 + i (a/2) sigma_z                      (first order)
    QUADRATIC:  (1 - a^2/8) * 1 + i (a/2) sigma_z        (second order)

    The truncated forms keep the raw Taylor coefficients; callers apply
    them without renormalization so that the resulting intensities expose
    the truncation error directly.
    """
    alpha = _require_real("alpha_rad", alpha_rad)
    _require_member("truncation", truncation, Truncation)
    if truncation is Truncation.EXACT:
        return np.cos(alpha / 2.0) * ID2 + 1j * np.sin(alpha / 2.0) * SIGMA_Z
    if truncation is Truncation.LINEAR:
        return ID2 + 1j * (alpha / 2.0) * SIGMA_Z
    return (1.0 - alpha * alpha / 8.0) * ID2 + 1j * (alpha / 2.0) * SIGMA_Z


def magnetic_rotation(
    path: Path, alpha_rad: float, truncation: Truncation = Truncation.EXACT
) -> JointOperator:
    """Spin rotation applied on one path, identity on the other."""
    _require_member("path", path, Path)
    rot = spin_rotation_matrix(alpha_rad, truncation)
    return tensor(rot, path_projector(path)) + tensor(ID2, ID2 - path_projector(path))


def phase_shifter(chi_rad: float) -> JointOperator:
    """Relative path phase: exp(-i chi/2) on path I, exp(+i chi/2) on path II."""
    chi = _require_real("chi_rad", chi_rad)
    phases = np.diag([np.exp(-0.5j * chi), np.exp(+0.5j * chi)])
    return tensor(ID2, phases)


def absorber(path: Path, transmissivity: float) -> JointOperator:
    """Partial absorber on one path.

    ``transmissivity`` is the intensity transmission T in [0, 1]; field
    amplitudes on the selected path are scaled by sqrt(T).
    """
    _require_member("path", path, Path)
    t = _require_real("transmissivity", transmissivity, "lie in [0, 1]")
    scales = np.eye(2, dtype=complex)
    scales[path.value, path.value] = np.sqrt(t)
    return tensor(ID2, scales)


def recombine(state: JointState) -> tuple[np.ndarray, np.ndarray]:
    """Merge the two paths on a 50/50 splitter.

    Returns ``(amp_o, amp_h)``: the 2-component spin amplitude vectors at
    the ordinary port O (sum) and the complementary port H (difference).
    The map conserves the squared norm exactly.
    """
    amp_i, amp_ii = _require_member("state", state, JointState).amp.reshape(2, 2)
    amp_o = (amp_i + amp_ii) / np.sqrt(2.0)
    amp_h = (amp_i - amp_ii) / np.sqrt(2.0)
    return amp_o, amp_h


def spin_select_minus(spin_amplitudes: np.ndarray) -> complex:
    """Project a 2-component spin vector onto the transverse minus state."""
    amp = np.asarray(spin_amplitudes, dtype=complex)
    if amp.shape != (2,):
        raise ValueError(f"expected a 2-component spin vector, got shape {amp.shape}")
    return complex(np.vdot(SX_MINUS, amp))
