"""Weak values for the standard pre/post-selection and their estimators.

The weak value of an operator A between preparation ``psi_i`` and
post-selection ``psi_f`` is

    <A>_w = <psi_f| A |psi_i> / <psi_f|psi_i>,

a complex number in general.  For this interferometer the four canonical
operators are the path projectors Pi_I, Pi_II and the spin-conditioned
projectors sigma_z Pi_I, sigma_z Pi_II, all diagonal in [path, spin]; with
the standard states they come out 0, 1, +1 and 0.  The +1 carries a
representation-dependent sign (it flips if the transverse spin states are
defined with the opposite relative phase); only its magnitude is physically
fixed by the intensity data, and callers that compare against measured
rates should use ``abs()``.  :func:`exact_weak_values` returns the four for
the standard pair, contracted once, at import, from its ``(path, spin)``
arrays.  Weak values for any other operator or pair of states go through
:func:`weak_value` and the 4x4 joint operators, which are also the tests'
independent reference.

To second order in the rotation angle the O_SELECTED intensity behind a
magnet on path j is

    I_j = I_ref * (1 - alpha Im<sigma_z Pi_j>_w - (alpha^2/4) (Re<Pi_j>_w - |<sigma_z Pi_j>_w|^2))

(``weakvalue_intensity``; the standard states' weak values are real, so
their first-order term is 0).  The estimators below invert that expansion,
and the first-order absorber response, to pull weak values back out of
intensities; they are deliberately simple inversions whose truncation
error is itself an object of study in :mod:`cheshire.analysis`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

from .experiment import _PATH_I, _POSTSELECTED, _PREPARED
from .qcore import (
    _MAX,
    ID2,
    SIGMA_Z,
    JointOperator,
    JointState,
    Path,
    _require_member,
    _require_real,
    path_projector,
    tensor,
)

__all__ = [
    "DegeneratePostselectionError",
    "WeakValueSet",
    "WeakValueEstimate",
    "path_projector_operator",
    "spin_z_path_operator",
    "weak_value",
    "exact_weak_values",
    "weakvalue_intensity",
    "modular_value",
    "projective_spin_expectation",
    "estimate_sigma_pi",
    "estimate_pi_from_absorber",
]

# Below this post-selection overlap magnitude the weak value is treated as
# undefined rather than amplified into numerical noise.
DEGENERATE_OVERLAP = 1e-12

# Squared-magnitude estimates below minus this are inconsistent input, not rounding.
_NEGATIVE_TOLERANCE = 1e-9

# What iterating a TruncationReport's readings yields; estimate_sigma_pi takes it as its Python float.
_FLOAT64 = np.float64


class DegeneratePostselectionError(ValueError):
    """Raised when |<psi_f|psi_i>| is too small for a weak value to mean anything."""


def path_projector_operator(path: Path) -> JointOperator:
    """Joint projector onto one path (identity on spin)."""
    return tensor(ID2, path_projector(_require_member("path", path, Path)))


def spin_z_path_operator(path: Path) -> JointOperator:
    """sigma_z restricted to one path: tensor(sigma_z, |path><path|)."""
    return tensor(SIGMA_Z, path_projector(_require_member("path", path, Path)))


def _checked_overlap(overlap: complex) -> complex:
    if abs(overlap) < DEGENERATE_OVERLAP:
        raise DegeneratePostselectionError(
            f"post-selection overlap magnitude {abs(overlap):.3e} is below "
            f"{DEGENERATE_OVERLAP:.0e}; weak values are undefined"
        )
    return overlap


def weak_value(op: JointOperator, psi_i: JointState, psi_f: JointState) -> complex:
    """<psi_f| op |psi_i> / <psi_f|psi_i>."""
    matrix = _require_member("op", op, JointOperator).matrix
    pre = _require_member("psi_i", psi_i, JointState).amp
    post = _require_member("psi_f", psi_f, JointState).amp
    return complex(np.vdot(post, matrix @ pre)) / _checked_overlap(complex(np.vdot(post, pre)))


@dataclass(frozen=True)
class WeakValueSet:
    """The four canonical weak values for one pre/post-selection pair.

    The path projectors resolve the identity, so ``pi_i + pi_ii`` must equal
    one; the constructor enforces that, and finite parts, each stored as a Python complex.
    """

    pi_i: complex
    pi_ii: complex
    sigma_pi_i: complex
    sigma_pi_ii: complex

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            try:
                finite = cmath.isfinite(value)
            except (TypeError, OverflowError):  # not a number, or an int past a float
                finite = False
            if not finite:
                raise ValueError(f"{field.name} must be finite, got {value!r}")
            object.__setattr__(self, field.name, complex(value))
        total = self.pi_i + self.pi_ii
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"path projector weak values must sum to 1, got {total}")


def _contract(pre: np.ndarray, post: np.ndarray) -> WeakValueSet:
    """The four canonical weak values between two (2, 2) [path, spin] amplitude arrays."""
    w = (post.conj() * pre).tolist()
    overlap = _checked_overlap(sum(w[0]) + sum(w[1]))
    return WeakValueSet(
        pi_i=(w[0][0] + w[0][1]) / overlap,
        pi_ii=(w[1][0] + w[1][1]) / overlap,
        sigma_pi_i=(w[0][0] - w[0][1]) / overlap,
        sigma_pi_ii=(w[1][0] - w[1][1]) / overlap,
    )


_CANONICAL = _contract(_PREPARED, _POSTSELECTED)


def exact_weak_values() -> WeakValueSet:
    """Weak values of the four canonical operators for the standard states.

    With w[path, spin] = conj(psi_f) * psi_i, each is a row sum (Pi_j) or
    row difference (sigma_z Pi_j) of w, over the overlap w.sum().  The set
    is contracted once, at import, and returned as is.
    """
    return _CANONICAL


def weakvalue_intensity(
    alpha_rad: float, path: Path, weak_values: WeakValueSet, i_ref_norm: float
) -> float:
    """Second-order weak-value prediction for the post-magnet O_SELECTED intensity.

    The module docstring's expansion of I_ref |1 + (c - 1)<Pi_j>_w + i s <sigma_z Pi_j>_w|^2,
    with an error of third order in alpha; a real <sigma_z Pi_j>_w adds 0 at first order.
    A prediction that is not finite raises ValueError naming the weak value if |w|^2
    overflows, else the angle.  Python float arguments in their rules, a Path and a
    WeakValueSet meet one test, as the estimators' do; anything else goes through
    ``_require_real``/``_require_member``, which convert it or word its refusal.
    """
    alpha = alpha_rad
    if not (type(alpha_rad) is float is type(i_ref_norm) and type(path) is Path
            and type(weak_values) is WeakValueSet and -_MAX <= alpha_rad <= _MAX and 0.0 < i_ref_norm <= _MAX):
        alpha = _require_real("alpha_rad", alpha_rad)
        i_ref_norm = _require_real("i_ref_norm", i_ref_norm, "be positive")
        _require_member("weak_values", weak_values, WeakValueSet)
        _require_member("path", path, Path)
    if path is _PATH_I:
        pi_w, sigma_pi_w = weak_values.pi_i, weak_values.sigma_pi_i
    else:
        pi_w, sigma_pi_w = weak_values.pi_ii, weak_values.sigma_pi_ii
    quarter = alpha * alpha / 4.0
    re, im = sigma_pi_w.real, sigma_pi_w.imag
    first = 1.0 - alpha * im  # 1.0 - (±0.0) = 1.0 for real weak values
    # |w|^2 as re*re + im*im, in Python floats: it overflows to inf, into the check below
    value = i_ref_norm * (first - quarter * pi_w.real + quarter * (re * re + im * im))
    if not math.isfinite(value):
        name, culprit = "alpha_rad", alpha_rad
        if not math.isfinite(re * re + im * im):
            name, culprit = f"sigma_pi_{path.name.lower()}", sigma_pi_w
        raise ValueError(
            f"{name} {culprit!r} gives a prediction that is not finite ({value!r}) "
            f"at i_ref_norm {i_ref_norm!r}"
        )
    return value


def modular_value(path: Path, c: float, s: float, weak_values: WeakValueSet) -> complex:
    """Kedem and Vaidman's modular value of the insertion c + i s sigma_z on ``path``.

    U = 1 + (c - 1) Pi_j + i s sigma_z Pi_j, so <psi_f|U|psi_i> / <psi_f|psi_i> is m_j =
    1 + (c - 1)<Pi_j>_w + i s <sigma_z Pi_j>_w, in Python complex arithmetic.  A magnet is
    (cos(alpha/2), sin(alpha/2)) or its truncation's row, an absorber (sqrt(T), 0); for the standard
    pair I_ref |m_j|^2 is O_SELECTED at chi = 0 and ``weakvalue_intensity`` its second order in alpha.
    A modular value that overflows raises ValueError naming the arguments.
    """
    c = _require_real("c", c)
    s = _require_real("s", s)
    _require_member("weak_values", weak_values, WeakValueSet)
    if _require_member("path", path, Path) is _PATH_I:
        pi_w, sigma_pi_w = weak_values.pi_i, weak_values.sigma_pi_i
    else:
        pi_w, sigma_pi_w = weak_values.pi_ii, weak_values.sigma_pi_ii
    m = 1.0 + (c - 1.0) * pi_w + 1j * s * sigma_pi_w
    if not cmath.isfinite(m):
        raise ValueError(f"c {c!r} and s {s!r} give a modular value that is not finite ({m!r}) "
                         f"on path {path.name} with {weak_values!r}")
    return m


def projective_spin_expectation(path: Path) -> float:
    """Ordinary (projective) <sigma_z> of the spin component on one path.

    Both paths of the standard input state carry transverse spin, so the
    answer is 0 for either path, independent of any downstream settings.
    """
    spin = _PREPARED[_require_member("path", path, Path).value]
    return float(np.vdot(spin, SIGMA_Z @ spin).real / np.vdot(spin, spin).real)


@dataclass(frozen=True, init=False)
class WeakValueEstimate:
    """An estimated weak-value magnitude with a propagated 1-sigma uncertainty.

    ``value`` is a finite real number and ``uncertainty`` one in [0, inf), both
    stored as given.  Two Python floats, as the estimators pass, meet one test;
    anything else goes through ``_require_real``, which words any refusal.  Frozen;
    ``__init__`` is written out as ``IntensityRecord``'s is, and checks before it stores.
    """

    value: float
    uncertainty: float
    source: str

    def __init__(self, value: float, uncertainty: float, source: str) -> None:
        if not (type(value) is float is type(uncertainty)
                and -_MAX <= value <= _MAX and 0.0 <= uncertainty <= _MAX):
            _require_real("estimate value", value)
            _require_real("uncertainty", uncertainty, "be >= 0")
        state = self.__dict__
        state["value"] = value
        state["uncertainty"] = uncertainty
        state["source"] = source


def _estimate(value: float, uncertainty: float, source: str, i_ref_norm: float):
    """The estimate; an uncertainty that overflows on a finite value blames ``i_ref_norm``."""
    if math.isfinite(value) and not math.isfinite(uncertainty):
        raise ValueError(f"i_ref_norm is too small for a finite uncertainty, got {i_ref_norm!r}")
    return WeakValueEstimate(value, uncertainty, source)


def estimate_sigma_pi(
    i_mag_norm: float,
    i_ref_norm: float,
    alpha_rad: float,
    pi_w: float,
    *,
    sigma_i_mag: float = 0.0,
    sigma_i_ref: float = 0.0,
) -> WeakValueEstimate:
    """Invert the second-order intensity expansion for |<sigma_z Pi_j>_w|.

    Solves the ``weakvalue_intensity`` bracket, at Im = 0, for the squared magnitude,

        |<sigma_z Pi_j>_w|^2 = (4/alpha^2) (I_mag/I_ref - 1) + pi_w,

    and returns its square root.  A squared magnitude below -1e-9 is
    reported as an error (inconsistent inputs); smaller negatives are
    clamped to zero.

    It assumes Im<sigma_z Pi_j>_w = 0, as for the standard pair, unchecked.  A
    complex one leaves its first-order term in I_mag/I_ref, and the squared
    magnitude is off by -4 Im / alpha, growing as alpha shrinks: at Im = -0.24
    and alpha = 0.01 the estimate is 9.8 for a magnitude of 0.97, with no
    warning; at Im = +0.24 the input is refused as inconsistent.

    Uncertainties on the two intensities propagate first-order, through the
    ratio I_mag/I_ref, onto the squared magnitude; when the estimate is
    strictly positive that variance is mapped through the square root, and
    at zero (where the first-order map is singular) the square root of the
    squared-magnitude sigma is reported instead.
    """
    if type(i_mag_norm) is _FLOAT64:
        i_mag_norm = float(i_mag_norm)
    alpha = alpha_rad
    if not (type(alpha_rad) is float is type(i_ref_norm) is type(i_mag_norm) is type(pi_w)
            is type(sigma_i_mag) is type(sigma_i_ref) and -_MAX <= alpha_rad <= _MAX
            and 0.0 < i_ref_norm <= _MAX and -_MAX <= i_mag_norm <= _MAX and -_MAX <= pi_w <= _MAX
            and 0.0 <= sigma_i_mag <= _MAX and 0.0 <= sigma_i_ref <= _MAX):
        alpha = _require_real("alpha_rad", alpha_rad)
        i_ref_norm = _require_real("i_ref_norm", i_ref_norm, "be positive")
        i_mag_norm = _require_real("i_mag_norm", i_mag_norm)
        pi_w = _require_real("pi_w", pi_w)
        sigma_i_mag = _require_real("sigma_i_mag", sigma_i_mag, "be >= 0")
        sigma_i_ref = _require_real("sigma_i_ref", sigma_i_ref, "be >= 0")

    square = alpha * alpha
    inv = 4.0 / square if square > 0.0 else math.inf
    if not math.isfinite(inv):
        raise ValueError(f"alpha_rad is too small for 4/alpha^2 to be finite, got {alpha_rad!r}")
    ratio = i_mag_norm / i_ref_norm
    squared = inv * (ratio - 1.0) + pi_w
    if squared < -_NEGATIVE_TOLERANCE:
        raise ValueError(
            f"squared-magnitude estimate {squared:.6e} is below -{_NEGATIVE_TOLERANCE:.0e}; "
            "the supplied intensities are inconsistent with the model"
        )

    sigma_squared = inv * (math.hypot(sigma_i_mag, ratio * sigma_i_ref) / i_ref_norm)
    value = math.sqrt(max(squared, 0.0))
    if value > 0.0:
        uncertainty = sigma_squared / (2.0 * value)
    else:
        uncertainty = math.sqrt(sigma_squared)
    return _estimate(value, uncertainty, "magnet-inversion", i_ref_norm)


def estimate_pi_from_absorber(
    i_abs_norm: float,
    i_ref_norm: float,
    transmissivity: float,
    *,
    sigma_i_abs: float = 0.0,
    sigma_i_ref: float = 0.0,
) -> WeakValueEstimate:
    """First-order path weak value from an absorber intensity ratio.

        <Pi_j>_w ~= (1 - I_abs/I_ref) / (2 (1 - sqrt(T)))

    Valid for 0 <= T < 1; at T = 1 the absorber leaves no signal to invert
    and the call is rejected.
    """
    t = transmissivity
    if not (type(transmissivity) is float is type(i_ref_norm) is type(i_abs_norm) is type(sigma_i_abs)
            is type(sigma_i_ref) and 0.0 <= transmissivity < 1.0 and 0.0 < i_ref_norm <= _MAX
            and -_MAX <= i_abs_norm <= _MAX and 0.0 <= sigma_i_abs <= _MAX and 0.0 <= sigma_i_ref <= _MAX):
        t = _require_real("transmissivity", transmissivity, "lie in [0, 1)")
        i_ref_norm = _require_real("i_ref_norm", i_ref_norm, "be positive")
        i_abs_norm = _require_real("i_abs_norm", i_abs_norm)
        sigma_i_abs = _require_real("sigma_i_abs", sigma_i_abs, "be >= 0")
        sigma_i_ref = _require_real("sigma_i_ref", sigma_i_ref, "be >= 0")

    gain = 1.0 / (2.0 * (1.0 - math.sqrt(t)))
    ratio = i_abs_norm / i_ref_norm
    value = (1.0 - ratio) * gain
    uncertainty = gain * (math.hypot(sigma_i_abs, ratio * sigma_i_ref) / i_ref_norm)
    return _estimate(value, uncertainty, "absorber-inversion", i_ref_norm)
