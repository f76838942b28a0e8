"""Truncation-order scans, the disembodiment witness and counting statistics.

The point of the truncation machinery: behind a magnet on path II the
linear-order rotation leaves the post-selected O intensity at exactly the
empty-beamline reference, so at first order the spin rotation appears to
have no effect there ("the spin is not on that path").  The exact and
quadratic operators both produce an intensity deficit of order alpha^2.
Whether one sees the effect is therefore purely a question of expansion
order, which the scan quantifies by fitting error exponents.

Angles lie in (0, 1e6] rad and scales in [1e-12, 1e12] cps, inside the
input domain of :mod:`cheshire.experiment`, where nothing overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .experiment import (
    DEFAULT_SCALE_REF_CPS,
    I_REF_NORM,
    _ROTATION,
    Magnet,
    Scenario,
    _o_selected,
    closed_form_o,
    count_rate,
)
from .qcore import Path, _require_grid, _require_member, _require_real

__all__ = [
    "TruncationReport",
    "CheshireDeficits",
    "CountSample",
    "ComparisonRow",
    "PUBLISHED_BENCHMARKS",
    "truncation_scan",
    "cheshire_witness",
    "poisson_counts",
    "duration_for_rate_sigma",
    "reproduce_benchmark_table",
    "fit_loglog_slope",
]

# Absolute intensity errors below this are treated as pure floating-point
# noise and excluded from log-log fits.
ERROR_FLOOR = 1e-13

def fit_loglog_slope(x_values, errors, floor: float = ERROR_FLOOR) -> float:
    """Least-squares slope of log(error) against log(x), ignoring floored points.

    ``x_values`` (finite and positive) and ``errors`` (finite and >= 0, one per
    x value) are one-dimensional arrays of real numbers.  The slope is the
    closed-form ordinary least-squares one on centred logs, sum(dx * dy) /
    sum(dx^2); when the points kept above the floor all have the same x
    value it is undefined, and a ValueError says so.
    """
    x = _require_grid("x_values", x_values, "be positive")
    err = _require_grid("errors", errors, "be >= 0")
    if err.shape != x.shape:
        raise ValueError(f"need one error per x value, got shapes {x.shape} and {err.shape}")
    floor = _require_real("floor", floor, "be >= 0")
    return _slope(np.log(x), err, floor)


def _slope(log_x: np.ndarray, err: np.ndarray, floor: float) -> float:
    """:func:`fit_loglog_slope` on checked inputs, given log(x) rather than x."""
    keep = err > floor
    if np.count_nonzero(keep) < 2:
        raise ValueError("fewer than two points above the numerical error floor; cannot fit")
    log_x = log_x[keep]
    # Tested on the logs themselves: the mean of equal values can round off them.
    if (log_x == log_x[0]).all():
        raise ValueError("the points above the numerical error floor share one x value; cannot fit")
    log_err = np.log(err[keep])
    # each mean as ndarray.mean takes it (one add.reduce, one division), minus its Python wrapper
    dx = log_x - log_x.sum() / log_x.size
    return float(dx @ (log_err - log_err.sum() / log_err.size) / (dx @ dx))


def _o_selected_by_truncation(path: Path, alpha: np.ndarray) -> np.ndarray:
    """O_SELECTED alone at chi = 0 behind a magnet on ``path``: one row per truncation, one pass."""
    half = alpha / 2.0
    c, s = np.empty((2, len(_ROTATION), alpha.size))
    for row, rotation in enumerate(_ROTATION.values()):
        c[row], s[row] = rotation(half)
    return _o_selected(path, 0.0, c, s)


@dataclass(frozen=True, eq=False)
class TruncationReport:
    """O_SELECTED intensities per truncation over an angle grid, plus fitted exponents."""

    path: Path
    alpha_grid: np.ndarray
    i_exact: np.ndarray
    i_linear: np.ndarray
    i_quadratic: np.ndarray
    error_exponent_linear: float
    error_exponent_quadratic: float


def truncation_scan(path: Path, alpha_grid) -> TruncationReport:
    """Scan the chi = 0 magnet scenario over ``alpha_grid`` for all three truncations.

    The grid is a one-dimensional array of at least 10 real angles in
    (0, 1e6] rad.  The three truncations are read out in one pass
    over the grid.  The fitted exponents are log-log slopes of
    |I_truncated - I_exact| against alpha.
    """
    _require_member("path", path, Path)
    grid = _require_grid("alpha_grid", alpha_grid, "lie in (0, 1e6]")
    if grid.size < 10:
        raise ValueError(f"alpha_grid must have at least 10 points, got {grid.size}")

    i_exact, i_linear, i_quadratic = _o_selected_by_truncation(path, grid)
    log_alpha = np.log(grid)

    return TruncationReport(
        path=path,
        alpha_grid=grid,
        i_exact=i_exact,
        i_linear=i_linear,
        i_quadratic=i_quadratic,
        error_exponent_linear=_slope(log_alpha, np.abs(i_linear - i_exact), ERROR_FLOOR),
        error_exponent_quadratic=_slope(log_alpha, np.abs(i_quadratic - i_exact), ERROR_FLOOR),
    )


@dataclass(frozen=True)
class CheshireDeficits:
    """Reference-intensity deficits I_ref - I_O behind a path II magnet."""

    alpha_rad: float
    deficit_linear: float
    deficit_quadratic: float
    deficit_exact: float


def cheshire_witness(alpha_rad: float) -> CheshireDeficits:
    """Deficit of the post-selected O intensity below the reference, per truncation.

    Behind a path II magnet O_SELECTED is c^2/4, so the linear deficit,
    with c = 1, is exactly 0.0.  The quadratic and exact deficits both
    equal I_ref * alpha^2/4 to leading order, so their ratio tends to one
    as alpha tends to zero.  Each row of ``_ROTATION`` at ``alpha_rad``, in
    (0, 1e6], is read out in Python floats by ``_o_selected``, the first
    reading of :func:`cheshire.experiment.run`, with the bits of the last
    point of a :func:`truncation_scan` whose grid ends at ``alpha_rad``.
    """
    alpha = _require_real("alpha_rad", alpha_rad, "lie in (0, 1e6]")
    half = alpha / 2.0
    exact, linear, quadratic = (
        I_REF_NORM - _o_selected(Path.II, 0.0, *map(float, rotation(half)))
        for rotation in _ROTATION.values()
    )
    return CheshireDeficits(
        alpha_rad=alpha, deficit_linear=linear, deficit_quadratic=quadratic, deficit_exact=exact
    )


@dataclass(frozen=True, init=False)
class CountSample:
    """One simulated counting interval.

    Frozen; :func:`poisson_counts` builds one per call, so ``__init__`` is written
    out to store the fields straight into ``__dict__``, as ``IntensityRecord``'s is.
    """

    rate_cps: float
    duration_s: float
    seed: int
    counts: int
    est_rate_cps: float
    est_sigma_cps: float

    def __init__(self, rate_cps: float, duration_s: float, seed: int, counts: int,
                 est_rate_cps: float, est_sigma_cps: float) -> None:
        state = self.__dict__
        state["rate_cps"] = rate_cps
        state["duration_s"] = duration_s
        state["seed"] = seed
        state["counts"] = counts
        state["est_rate_cps"] = est_rate_cps
        state["est_sigma_cps"] = est_sigma_cps


def poisson_counts(rate_cps: float, duration_s: float, seed: int) -> CountSample:
    """Draw one Poisson count total for ``rate_cps`` over ``duration_s`` seconds.

    Deterministic for a given seed, a non-negative integer.  The rate
    estimate is counts/duration and its one-sigma uncertainty
    sqrt(counts)/duration.  A mean count (rate times duration) past the limit
    of numpy's Poisson sampler, about 9.2e18, is refused by the sampler itself.
    """
    rate = _require_real("rate_cps", rate_cps, "be >= 0")
    duration = _require_real("duration_s", duration_s, "be positive")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    mean = rate * duration
    rng = np.random.default_rng(seed)
    try:
        counts = int(rng.poisson(mean))
    except ValueError:  # the mean is past numpy's limit, the one failure left to reach it
        raise ValueError(
            f"mean count {mean!r} (rate_cps {rate_cps!r} times duration_s {duration_s!r}) "
            "exceeds the Poisson sampler's limit"
        ) from None
    return CountSample(rate, duration, int(seed), counts, counts / duration, math.sqrt(counts) / duration)


def duration_for_rate_sigma(rate_cps: float, sigma_cps: float) -> float:
    """Counting time after which a Poisson rate estimate reaches ``sigma_cps``."""
    rate = _require_real("rate_cps", rate_cps, "be positive")
    sigma = _require_real("sigma_cps", sigma_cps, "be positive")
    variance = sigma * sigma
    duration = rate / variance if variance > 0.0 else math.inf
    if not math.isfinite(duration):
        raise ValueError(
            f"counting time for rate {rate!r} cps at sigma {sigma!r} cps is not a finite number"
        )
    return duration


@dataclass(frozen=True)
class ComparisonRow:
    """One theory-versus-measurement row of the benchmark table."""

    quantity: str
    theory_norm: float
    theory_cps: float
    theory_sigma_cps: float
    measured_cps: float
    measured_sigma_cps: float
    agrees: bool


# Published benchmark count rates for this layout at a 20 degree rotation,
# in counts per second with one-sigma uncertainties: the empty-beamline
# reference and the post-selected O rates behind a magnet on path II and
# on path I (chi = 0).
PUBLISHED_BENCHMARKS: tuple[tuple[str, float, float], ...] = (
    ("I_ref", 11.25, 0.05),
    ("I_mag_II", 10.93, 0.06),
    ("I_mag_I", 11.57, 0.06),
)

BENCHMARK_ALPHA_RAD = math.radians(20.0)

# One-sigma uncertainty of the reference-rate calibration; theory rates
# inherit it proportionally.
REF_CALIBRATION_SIGMA_CPS = 0.05


def reproduce_benchmark_table(
    scale_ref_cps: float = DEFAULT_SCALE_REF_CPS,
) -> list[ComparisonRow]:
    """Compare closed-form predictions against the published benchmark rates.

    A row agrees when |theory - measured| <= 2 * combined sigma, where the
    combined sigma adds the calibration-propagated theory uncertainty and
    the measured uncertainty in quadrature.
    """
    scale = _require_real("scale_ref_cps", scale_ref_cps, "lie in [1e-12, 1e12]")

    theory_norms = {
        "I_ref": I_REF_NORM,
        "I_mag_II": closed_form_o(
            Scenario(insertion=Magnet(path=Path.II, alpha_rad=BENCHMARK_ALPHA_RAD))
        ),
        "I_mag_I": closed_form_o(
            Scenario(insertion=Magnet(path=Path.I, alpha_rad=BENCHMARK_ALPHA_RAD))
        ),
    }

    rows = []
    for quantity, measured, measured_sigma in PUBLISHED_BENCHMARKS:
        norm = theory_norms[quantity]
        theory = count_rate(norm, scale)
        theory_sigma = count_rate(norm, REF_CALIBRATION_SIGMA_CPS)
        combined = math.hypot(theory_sigma, measured_sigma)
        rows.append(
            ComparisonRow(
                quantity=quantity,
                theory_norm=norm,
                theory_cps=theory,
                theory_sigma_cps=theory_sigma,
                measured_cps=measured,
                measured_sigma_cps=measured_sigma,
                agrees=abs(theory - measured) <= 2.0 * combined,
            )
        )
    return rows
