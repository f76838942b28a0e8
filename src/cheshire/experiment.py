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

Inside the input domain, angles in [-1e6, 1e6] rad and scales in [1e-12,
1e12] cps, every reading stays below about 4e21 and every rate below about
1.6e34, so nothing here checks for overflow.

Every element is block-diagonal in path, and the insertion multiplies
one path's spin diagonal by c + i s sigma_z.  One map, ``_factor``, gives
every insertion as ``(path, c, s)``: an absorber is (sqrt(T), 0), a magnet
its truncation's row of ``_ROTATION``, and no insertion the identity
(1, 0).  One closed form, :func:`_readings`, gives the readings with
k = 2 s sin(chi): O_SELECTED is c^2/4 behind a path II insertion and
(1 + s^2 + k)/4 behind a path I one, O_UNSELECTED and H (1 + c^2 + s^2 ± k)/4,
+k at O_UNSELECTED on path I and at H on path II.  At chi = 0, O_SELECTED is
|1 + (c - 1)<Pi_j>_w + i s <sigma_z Pi_j>_w|^2 / 4 with the canonical weak
values, (0, ±1) on path I and (1, 0) on path II: the linear term s leaves
path II's post-selected intensity at the empty-beamline 1/4, the quadratic
term in c does not, and path I sees only s.  The same code takes Python
floats and numpy arrays: :func:`run_batch` reads a whole grid (the CLI's
sweep), :func:`run` one point with the same bits as its row, both with
sin(chi) from :mod:`math`; :func:`sweep_chi` and :func:`sweep_alpha` are
loops over :func:`run`, one call per grid point; the scan and the witness of
:mod:`cheshire.analysis` read only O_SELECTED, :func:`_o_selected`, the
first reading, for the rows of ``_ROTATION`` at k = 0.  The 4x4
joint algebra of :mod:`cheshire.qcore` and :mod:`cheshire.elements` is on
neither route; it serves :func:`cheshire.weak.weak_value` for arbitrary
operators and is the independent reference the tests check both against.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Union

import numpy as np

from .elements import Truncation
from .qcore import JointState, Path, _require_grid, _require_member, _require_real

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
        _require_member("path", self.path, Path)
        t = _require_real("transmissivity", self.transmissivity, "lie in [0, 1]")
        object.__setattr__(self, "transmissivity", t)


@dataclass(frozen=True)
class Magnet:
    """Spin rotation by ``alpha_rad`` about z on ``path``, with a truncation policy."""

    path: Path
    alpha_rad: float
    truncation: Truncation = Truncation.EXACT

    def __post_init__(self) -> None:
        _require_member("path", self.path, Path)
        _require_member("truncation", self.truncation, Truncation)
        object.__setattr__(self, "alpha_rad", _require_real("alpha_rad", self.alpha_rad, "lie in [-1e6, 1e6]"))


Insertion = Union[Absorber, Magnet, None]


@dataclass(frozen=True)
class Scenario:
    """One interferometer configuration: at most one insertion plus a path phase."""

    insertion: Insertion = None
    chi_rad: float = 0.0

    def __post_init__(self) -> None:
        if self.insertion is not None and not isinstance(self.insertion, (Absorber, Magnet)):
            raise TypeError(f"insertion must be None, Absorber or Magnet, got {self.insertion!r}")
        object.__setattr__(self, "chi_rad", _require_real("chi_rad", self.chi_rad))


class Detector(Enum):
    O_SELECTED = "O_selected"
    O_UNSELECTED = "O_unselected"
    H = "H"

    __hash__ = object.__hash__  # members are singletons compared by identity, so this agrees with ==


# The detectors in column order; a tuple iterates faster than the Enum class.
_DETECTORS = tuple(Detector)


@dataclass(frozen=True, init=False)
class IntensityRecord:
    """One detector reading for one scenario.

    A frozen dataclass: fields, ==, hash, repr, ``replace`` and ``FrozenInstanceError``
    are generated.  Only ``__init__`` is written out, to store the fields straight into
    ``__dict__`` rather than by one ``object.__setattr__`` call each; :func:`run` builds three.
    """

    scenario: Scenario
    detector: Detector
    intensity_norm: float
    intensity_cps: float
    scale_ref_cps: float

    def __init__(self, scenario: Scenario, detector: Detector, intensity_norm: float,
                 intensity_cps: float, scale_ref_cps: float) -> None:
        state = self.__dict__
        state["scenario"] = scenario
        state["detector"] = detector
        state["intensity_norm"] = intensity_norm
        state["intensity_cps"] = intensity_cps
        state["scale_ref_cps"] = scale_ref_cps


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


# The rotation's spin diagonal is c + i s sigma_z; each truncation policy
# gives (c, s) from the half angle h = alpha/2, for one angle or an array of
# them (h * h / 2 has the bits of alpha * alpha / 8).  The 2x2 matrices of
# elements.spin_rotation_matrix are built independently.
_ROTATION = {
    Truncation.EXACT: lambda h: (np.cos(h), np.sin(h)),
    Truncation.LINEAR: lambda h: (1.0, h),
    Truncation.QUADRATIC: lambda h: (1.0 - h * h / 2.0, h),
}


# Path.I read once: each read off the Enum class is an EnumType.__getattr__ call.
_PATH_I = Path.I


def _factor(insertion: Insertion, alpha: np.ndarray | None = None) -> tuple:
    """The insertion as ``(path, c, s)``: it scales ``path``'s spin diagonal by c + i s sigma_z.

    An absorber is (sqrt(T), 0).  A magnet is its truncation's row of
    ``_ROTATION``, at its own angle or, when ``alpha`` is given, at each angle
    of that grid.  No insertion is the identity, (path I, 1, 0).
    """
    if insertion is None:
        return _PATH_I, 1.0, 0.0
    if isinstance(insertion, Absorber):
        return insertion.path, math.sqrt(insertion.transmissivity), 0.0
    c, s = _ROTATION[insertion.truncation]((insertion.alpha_rad if alpha is None else alpha) / 2.0)
    return insertion.path, c, s


def _o_selected(path: Path, k, c, s):
    """The first reading of :func:`_readings`, O_selected, alone."""
    return ((1.0 + s * s) + k) * 0.25 if path is _PATH_I else c * c * 0.25


def _readings(path: Path, k, c, s) -> tuple:
    """``(O_selected, O_unselected, H)`` in closed form, for floats or arrays alike.

    ``path`` carries the insertion c + i s sigma_z and k = 2 s sin(chi).
    With r = 1 + c^2 + s^2 the readings are ((1 + s^2) + k, r + k, r - k)/4
    behind a path I insertion and (c^2, r - k, r + k)/4 behind a path II
    one: the linear term s leaves path II's O_selected untouched, and path
    I's does not see c.  Each is summed in this one order.
    """
    r = 1.0 + (c * c + s * s)
    selected, plus, minus = _o_selected(path, k, c, s), (r + k) * 0.25, (r - k) * 0.25
    return (selected, plus, minus) if path is _PATH_I else (selected, minus, plus)


def run_batch(template: Scenario, *, chi_rad=None, alpha_rad=None) -> np.ndarray:
    """Normalized intensities of ``template`` over a grid, in one array pass.

    ``chi_rad`` replaces the template's phase and ``alpha_rad`` its magnet
    angle; each is a scalar or a one-dimensional array, and either defaults
    to the template's value.  A grid of length 1 holds at every point of the
    other and stays a Python float, so a sweep takes its fixed axis's
    sin(chi), or (c, s), once.  Returns an ``(N, 3)`` array whose columns
    follow :class:`Detector`: :func:`_readings` on the grid, with sin(chi)
    from :mod:`math` point by point, as :func:`run` takes it for one point.
    The grids are checked here, each angle in [-1e6, 1e6] rad, where every
    reading is finite.
    """
    ins = template.insertion
    magnet = isinstance(ins, Magnet)
    if alpha_rad is not None and not magnet:
        raise ValueError("an alpha grid requires a scenario with a magnet insertion")
    chi = _require_grid("chi_rad", template.chi_rad if chi_rad is None else chi_rad)
    n, alpha = chi.size, None
    if magnet:
        alpha = ins.alpha_rad if alpha_rad is None else alpha_rad
        alpha = _require_grid("alpha_rad", alpha, "lie in [-1e6, 1e6]")
        if alpha.size != n and 1 not in (alpha.size, n):
            raise ValueError(f"chi_rad and alpha_rad grids differ in length ({n} and {alpha.size})")
        n, alpha = (n, alpha.item()) if alpha.size == 1 else (alpha.size, alpha)
    path, c, s = _factor(ins, alpha)
    sin = math.sin(chi.item()) if chi.size == 1 else np.fromiter(map(math.sin, memoryview(chi)), float)
    readings = np.empty((n, 3))
    readings[:, 0], readings[:, 1], readings[:, 2] = _readings(path, 2.0 * s * sin, c, s)
    return readings


def count_rate(intensity_norm, scale_ref_cps: float):
    """Count rate of a normalized intensity (a float or an array).

    ``intensity_norm / I_REF_NORM * scale_ref_cps``, so the empty beamline
    reads exactly ``scale_ref_cps`` (in [1e-12, 1e12] cps) at O_SELECTED, in
    float64 whatever the input's dtype.  An intensity that is not a real number or
    array of them, or whose rate is not finite, raises ValueError naming ``intensity_norm``.
    """
    scale = _require_real("scale_ref_cps", scale_ref_cps, "lie in [1e-12, 1e12]")
    if type(intensity_norm) is float:
        peak = abs(intensity_norm)
    elif isinstance(intensity_norm, (int, float)) or (
        isinstance(intensity_norm, (np.ndarray, np.generic)) and intensity_norm.dtype.kind in "biuf"
    ):  # rounding is monotone, so the largest magnitude has the largest rate
        try:
            peak = float(np.maximum.reduce(np.abs(intensity_norm), axis=None, initial=0.0))
        except OverflowError:  # an int past the float range
            peak = math.inf
    else:
        raise ValueError(f"intensity_norm must be a real number or array, got {intensity_norm!r}")
    if not math.isfinite(peak / I_REF_NORM * scale):
        raise ValueError(f"intensity_norm of magnitude {peak!r} has no finite count rate")
    if isinstance(intensity_norm, (np.ndarray, np.generic)):  # the rate checked is a float64 one
        intensity_norm = intensity_norm.astype(float, copy=False)
    return intensity_norm / I_REF_NORM * scale


def run(
    scenario: Scenario, scale_ref_cps: float = DEFAULT_SCALE_REF_CPS
) -> dict[Detector, IntensityRecord]:
    """Simulate one scenario and return one record per detector (see :func:`count_rate`)."""
    scale = _require_real("scale_ref_cps", scale_ref_cps, "lie in [1e-12, 1e12]")
    path, c, s = _factor(scenario.insertion)
    c, s = float(c), float(s)  # an exact rotation's np.float64, so the readings are Python floats
    readings = _readings(path, 2.0 * s * math.sin(scenario.chi_rad), c, s)
    return {
        det: IntensityRecord(scenario, det, norm, norm / I_REF_NORM * scale, scale)
        for det, norm in zip(_DETECTORS, readings)
    }


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
    """Run the template at each phase value, one :func:`run` per grid point, in grid order."""
    scale = _require_real("scale_ref_cps", scale_ref_cps, "lie in [1e-12, 1e12]")
    chi = _require_grid("chi_values", list(chi_values))
    points = (dataclasses.replace(template, chi_rad=value) for value in chi.tolist())
    return [record for point in points for record in run(point, scale).values()]


def sweep_alpha(
    template: Scenario,
    alpha_values: Iterable[float],
    scale_ref_cps: float = DEFAULT_SCALE_REF_CPS,
) -> list[IntensityRecord]:
    """Run the template at each rotation angle, as :func:`sweep_chi` does; requires a magnet insertion."""
    scale = _require_real("scale_ref_cps", scale_ref_cps, "lie in [1e-12, 1e12]")
    alpha = _require_grid("alpha_values", list(alpha_values), "lie in [-1e6, 1e6]")
    if not isinstance(template.insertion, Magnet):
        raise ValueError("an alpha grid requires a scenario with a magnet insertion")
    magnets = (dataclasses.replace(template.insertion, alpha_rad=value) for value in alpha.tolist())
    points = (dataclasses.replace(template, insertion=magnet) for magnet in magnets)
    return [record for point in points for record in run(point, scale).values()]
