"""Scenario definition and the end-to-end interferometer pipeline.

A run prepares the standard input state (transverse-plus spin on path I,
transverse-minus spin on path II, equal weights), applies at most one
inserted element (absorber or magnetic rotation), applies the tunable
path phase, recombines the paths on a 50/50 splitter and reads out three
detectors:

* ``O_SELECTED``   - intensity in the transverse-minus spin component at O
  (this is the post-selected signal everything else is normalized to),
* ``O_UNSELECTED`` - total intensity at O, no spin analysis,
* ``H``            - total intensity at the complementary port.

Normalized intensities are squared amplitude norms; the empty-beamline
O_SELECTED intensity is exactly 1/4 and is mapped to a laboratory count
rate by ``scale_ref_cps`` (so the default 11.25 cps corresponds to the
published reference rate).

Every element is block-diagonal in path, so :func:`run_batch` evaluates a
whole grid in one numpy pass on an ``(N, path, spin)`` amplitude array:
the insertion is a per-path factor on the spin diagonal, the phase a
per-path scalar, and the recombiner plus spin filter one fixed
contraction whose 1/sqrt(2) factors are folded into exact powers of two.
:func:`run` is its N = 1 case and the sweeps are one call each; the
truncation scan and witness of :mod:`cheshire.analysis` stack their three
rotations into one pass of the same kernel.  The canonical weak values read
the same ``(path, spin)`` constants.  The 4x4 joint algebra of
:mod:`cheshire.qcore` and :mod:`cheshire.elements` is not on either path;
it serves :func:`cheshire.weak.weak_value` for arbitrary operators and is the
independent reference the tests check both against.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Union

import numpy as np

from .elements import Truncation, _require_finite, _require_transmissivity
from .qcore import JointState, Path

__all__ = [
    "I_REF_NORM",
    "DEFAULT_SCALE_REF_CPS",
    "Absorber",
    "Magnet",
    "Insertion",
    "Scenario",
    "Detector",
    "IntensityRecord",
    "initial_state",
    "postselection_state",
    "run_batch",
    "count_rate",
    "run",
    "closed_form_o",
    "sweep_chi",
    "sweep_alpha",
]

# Empty-beamline O_SELECTED intensity; all count-rate scaling is relative
# to this value.
I_REF_NORM = 0.25

DEFAULT_SCALE_REF_CPS = 11.25


@dataclass(frozen=True)
class Absorber:
    """Partial absorber of intensity transmissivity ``transmissivity`` on ``path``."""

    path: Path
    transmissivity: float

    def __post_init__(self) -> None:
        if not isinstance(self.path, Path):
            raise TypeError(f"path must be a Path, got {self.path!r}")
        object.__setattr__(self, "transmissivity", _require_transmissivity(self.transmissivity))


@dataclass(frozen=True)
class Magnet:
    """Spin rotation by ``alpha_rad`` about z on ``path``, with a truncation policy."""

    path: Path
    alpha_rad: float
    truncation: Truncation = Truncation.EXACT

    def __post_init__(self) -> None:
        if not isinstance(self.path, Path):
            raise TypeError(f"path must be a Path, got {self.path!r}")
        if not isinstance(self.truncation, Truncation):
            raise TypeError(f"truncation must be a Truncation, got {self.truncation!r}")
        object.__setattr__(self, "alpha_rad", _require_finite("alpha_rad", self.alpha_rad))


Insertion = Union[Absorber, Magnet, None]


@dataclass(frozen=True)
class Scenario:
    """One interferometer configuration: at most one insertion plus a path phase."""

    insertion: Insertion = None
    chi_rad: float = 0.0

    def __post_init__(self) -> None:
        if self.insertion is not None and not isinstance(self.insertion, (Absorber, Magnet)):
            raise TypeError(f"insertion must be None, Absorber or Magnet, got {self.insertion!r}")
        object.__setattr__(self, "chi_rad", _require_finite("chi_rad", self.chi_rad))


class Detector(Enum):
    O_SELECTED = "O_selected"
    O_UNSELECTED = "O_unselected"
    H = "H"


@dataclass(frozen=True)
class IntensityRecord:
    """One detector reading for one scenario."""

    scenario: Scenario
    detector: Detector
    intensity_norm: float
    intensity_cps: float
    scale_ref_cps: float


# Amplitudes indexed [path, spin], exact binary fractions, so downstream
# algebraic identities hold to machine precision.  Prepared: transverse
# plus on path I, transverse minus on path II, each with weight 1/2.
# Post-selected: transverse minus with equal weight on both paths.
_PREPARED = np.array([[0.5, 0.5], [0.5, -0.5]], dtype=complex)
_POSTSELECTED = np.array([[0.5, -0.5], [0.5, -0.5]], dtype=complex)


def initial_state() -> JointState:
    """The prepared state, (1/2, 1/2, 1/2, -1/2) in the fixed joint basis."""
    return JointState(_PREPARED.reshape(4))


def postselection_state() -> JointState:
    """The post-selected state, (1/2, -1/2, 1/2, -1/2) in the fixed joint basis."""
    return JointState(_POSTSELECTED.reshape(4))

# Phase shifter: exp(-i chi/2) on path I, exp(+i chi/2) on path II.
_HALF_PHASE = np.array([-0.5j, 0.5j])

# i times the diagonal of sigma_z, indexed by spin.
_I_SIGMA_Z = np.array([1j, -1j])

# The spin diagonal c + i s sigma_z of the rotation for each truncation
# policy, one row per angle of an (N, 1) column; the 2x2 matrices of
# elements.spin_rotation_matrix are built independently.
_ROTATION = {
    Truncation.EXACT: lambda a: np.cos(a / 2.0) + np.sin(a / 2.0) * _I_SIGMA_Z,
    Truncation.LINEAR: lambda a: 1.0 + a / 2.0 * _I_SIGMA_Z,
    Truncation.QUADRATIC: lambda a: (1.0 - a * a / 8.0) + a / 2.0 * _I_SIGMA_Z,
}

# Recombiner: the O port takes path I + path II, the H port path I - path II.
_RECOMBINE = np.array([[1.0], [-1.0]])

# Port weights of the readout [filtered O, O, H]: the filter's and the
# recombiner's 1/sqrt(2) factors, squared, as exact powers of two.
_PORT_WEIGHTS = np.array([0.25, 0.5, 0.5])


def _grid(name: str, values) -> np.ndarray:
    grid = np.atleast_1d(np.asarray(values, dtype=float))
    if grid.ndim != 1:
        raise ValueError(f"{name} must be a scalar or one-dimensional, got shape {grid.shape}")
    if not np.isfinite(grid).all():
        raise ValueError(f"{name} entries must be finite")
    return grid


def _readout(chi: np.ndarray, path: Path | None, factor, alpha: np.ndarray | None) -> np.ndarray:
    """The one array pass: ``(N, 3)`` readings, columns as :class:`Detector`.

    Row n has phase ``chi[n]`` and, on ``path``, the spin diagonal ``factor``:
    sqrt(T), ``(N, 2)`` rows of ``_ROTATION``, or None for no insertion.
    ``alpha`` only names a non-finite row in the ValueError.  Callers hold
    ``np.errstate(over="ignore", invalid="ignore")``, since a truncated
    rotation at a huge angle overflows.
    """
    amp = _PREPARED * np.exp(np.multiply.outer(chi, _HALF_PHASE))[:, :, np.newaxis]
    if factor is not None:
        amp[:, path.value] *= factor

    # ports[n, port, spin]: the filtered O amplitude (times 2, in the
    # spin-up slot), then the O and H ports (times sqrt(2)).
    ports = np.zeros((chi.size, 3, 2), dtype=complex)
    np.add(amp[:, :1], _RECOMBINE * amp[:, 1:], out=ports[:, 1:])
    np.subtract(ports[:, 1, 0], ports[:, 1, 1], out=ports[:, 0, 0])
    readings = np.square(ports.view(float)).sum(axis=2) * _PORT_WEIGHTS

    if not np.isfinite(readings).all():
        i = int(np.argmin(np.isfinite(readings).all(axis=1)))
        where = f"chi_rad={float(chi[i])!r}"
        if alpha is not None:
            where = f"alpha_rad={float(alpha[i])!r}, {where}"
        raise ValueError(f"intensities are not finite at {where}")
    return readings


def run_batch(template: Scenario, *, chi_rad=None, alpha_rad=None) -> np.ndarray:
    """Normalized intensities of ``template`` over a grid, in one array pass.

    ``chi_rad`` replaces the template's phase and ``alpha_rad`` its magnet
    angle; each is a scalar or a one-dimensional array, the two broadcast
    against each other, and either defaults to the template's value.
    Returns an ``(N, 3)`` array whose columns follow :class:`Detector`.

    The amplitudes ``a[n, path, spin]`` start from the prepared state; the
    phase and the insertion scale them path by path and spin by spin.  The
    readout is then

        O_SELECTED   = |a_I,up + a_II,up - a_I,down - a_II,down|^2 / 4
        O_UNSELECTED = sum over spin of |a_I + a_II|^2 / 2
        H            = sum over spin of |a_I - a_II|^2 / 2

    The grids are checked here; the arithmetic is the array kernel that the
    truncation scan shares.  Raises ValueError when a reading is not finite
    (a truncated rotation at a huge angle overflows).
    """
    ins = template.insertion
    magnet = isinstance(ins, Magnet)
    if alpha_rad is not None and not magnet:
        raise ValueError("an alpha grid requires a scenario with a magnet insertion")
    chi = np.array([template.chi_rad]) if chi_rad is None else _grid("chi_rad", chi_rad)
    alpha = factor = None
    if magnet:
        alpha = np.array([ins.alpha_rad]) if alpha_rad is None else _grid("alpha_rad", alpha_rad)
        if alpha.size != chi.size:
            if 1 not in (alpha.size, chi.size):
                raise ValueError(
                    f"chi_rad and alpha_rad grids differ in length ({chi.size} and {alpha.size})"
                )
            if chi.size == 1:
                chi = np.full(alpha.size, chi[0])
            else:
                alpha = np.full(chi.size, alpha[0])
    elif isinstance(ins, Absorber):
        factor = math.sqrt(ins.transmissivity)

    with np.errstate(over="ignore", invalid="ignore"):
        if magnet:
            factor = _ROTATION[ins.truncation](alpha[:, np.newaxis])
        return _readout(chi, getattr(ins, "path", None), factor, alpha)


def _require_scale(scale_ref_cps: float) -> float:
    scale = _require_finite("scale_ref_cps", scale_ref_cps)
    if scale <= 0.0:
        raise ValueError(f"scale_ref_cps must be positive, got {scale}")
    return scale


def count_rate(intensity_norm, scale_ref_cps: float):
    """Count rate of a normalized intensity (a float or an array).

    ``intensity_norm * scale_ref_cps / I_REF_NORM``, so the empty beamline
    reads exactly ``scale_ref_cps`` at O_SELECTED.
    """
    return intensity_norm * scale_ref_cps / I_REF_NORM


def _records(scenarios: list[Scenario], readings: np.ndarray, scale: float) -> list[IntensityRecord]:
    cps = count_rate(readings, scale).tolist()
    return [
        IntensityRecord(scenario, det, norm, rate, scale)
        for scenario, norms, rates in zip(scenarios, readings.tolist(), cps)
        for det, norm, rate in zip(Detector, norms, rates)
    ]


def run(
    scenario: Scenario, scale_ref_cps: float = DEFAULT_SCALE_REF_CPS
) -> dict[Detector, IntensityRecord]:
    """Simulate one scenario and return one record per detector (see :func:`count_rate`)."""
    scale = _require_scale(scale_ref_cps)
    records = _records([scenario], run_batch(scenario), scale)
    return {rec.detector: rec for rec in records}


def closed_form_o(scenario: Scenario) -> float:
    """Closed-form normalized O_SELECTED intensity for exact magnet scenarios.

    Supported configurations:

    * magnet on path II, any chi:  (1/4) cos^2(alpha/2)
    * magnet on path I, chi = 0:   (1/8) (3 - cos(alpha))

    Anything else (no magnet, truncated magnet, path I with chi != 0) has
    no closed form here and raises ValueError.  This function shares no
    code with :func:`run`; the two are independent routes to the same
    numbers and are cross-checked in the test suite.
    """
    ins = scenario.insertion
    if not isinstance(ins, Magnet):
        raise ValueError("closed form is only available for magnet insertions")
    if ins.truncation is not Truncation.EXACT:
        raise ValueError("closed form is only available for the exact rotation")
    if ins.path is Path.II:
        return I_REF_NORM * math.cos(ins.alpha_rad / 2.0) ** 2
    if scenario.chi_rad != 0.0:
        raise ValueError("closed form for a path I magnet requires chi = 0")
    return (3.0 - math.cos(ins.alpha_rad)) / 8.0


def sweep_chi(
    template: Scenario,
    chi_values: Iterable[float],
    scale_ref_cps: float = DEFAULT_SCALE_REF_CPS,
) -> list[IntensityRecord]:
    """Run the template at each phase value; three records per grid point."""
    scale = _require_scale(scale_ref_cps)
    chi = np.fromiter(chi_values, dtype=float)
    readings = run_batch(template, chi_rad=chi)
    scenarios = [dataclasses.replace(template, chi_rad=value) for value in chi.tolist()]
    return _records(scenarios, readings, scale)


def sweep_alpha(
    template: Scenario,
    alpha_values: Iterable[float],
    scale_ref_cps: float = DEFAULT_SCALE_REF_CPS,
) -> list[IntensityRecord]:
    """Run the template at each rotation angle; requires a magnet insertion."""
    scale = _require_scale(scale_ref_cps)
    alpha = np.fromiter(alpha_values, dtype=float)
    readings = run_batch(template, alpha_rad=alpha)
    scenarios = [
        dataclasses.replace(template, insertion=dataclasses.replace(template.insertion, alpha_rad=value))
        for value in alpha.tolist()
    ]
    return _records(scenarios, readings, scale)
