"""Exact simulator of a two-path spin interferometer.

The package models a polarized beam split over two paths with transverse
spin marking (plus on path I, minus on path II), optional per-path
absorbers or small spin rotations, a tunable relative phase, and
post-selected detection.  Detector intensities come from one closed form
in the insertion's spin factor c + i s sigma_z and the phase's sine, on a
whole grid's arrays (``experiment.run_batch``) or one point's floats
(``experiment.run``); the canonical weak values are contracted from the
``(path, spin)`` amplitude arrays, and intensity-based estimators pull them
back out.  The exact 4-dimensional
matrix algebra of ``qcore`` and ``elements`` serves ``weak.weak_value`` for
arbitrary operators and states and is the independent reference for both;
it is imported from those modules, not from the package.  An analyzer pins
down which Taylor order of the rotation operator a given intensity effect
lives at.
"""

from .analysis import (
    CheshireDeficits,
    ComparisonRow,
    CountSample,
    TruncationReport,
    cheshire_witness,
    duration_for_rate_sigma,
    fit_loglog_slope,
    poisson_counts,
    reproduce_benchmark_table,
    truncation_scan,
)
from .elements import Truncation
from .experiment import (
    DEFAULT_SCALE_REF_CPS,
    I_REF_NORM,
    Absorber,
    Detector,
    IntensityRecord,
    Magnet,
    Scenario,
    closed_form_o,
    run,
    run_batch,
    sweep_alpha,
    sweep_chi,
)
from .qcore import Path
from .weak import (
    DegeneratePostselectionError,
    WeakValueEstimate,
    WeakValueSet,
    estimate_pi_from_absorber,
    estimate_sigma_pi,
    exact_weak_values,
    projective_spin_expectation,
    weakvalue_intensity,
)

__version__ = "0.1.0"
