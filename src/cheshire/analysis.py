"""Truncation-order scans, the disembodiment witness and counting statistics.

The point of the truncation machinery: behind a magnet on path II the
linear-order rotation leaves the post-selected O intensity at exactly the
empty-beamline reference, so at first order the spin rotation appears to
have no effect there ("the spin is not on that path").  The exact and
quadratic operators both produce an intensity deficit of order alpha^2.
Whether one sees the effect is therefore purely a question of expansion
order, which the scan quantifies by fitting error exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elements import Truncation
from .experiment import (
    DEFAULT_SCALE_REF_CPS,
    I_REF_NORM,
    Magnet,
    Scenario,
    _ROTATION,
    _readout,
    _require_scale,
    closed_form_o,
    count_rate,
)
from .qcore import Path

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

    ``x_values`` must be finite and positive and ``errors`` finite and
    non-negative, one per x value.  The slope is the closed-form ordinary
    least-squares one on centred logs, sum(dx * dy) / sum(dx^2); when the
    points kept above the floor all have the same x value it is undefined,
    and a ValueError says so.
    """
    x = np.asarray(x_values, dtype=float)
    err = np.asarray(errors, dtype=float)
    if x.ndim != 1 or err.shape != x.shape:
        raise ValueError(f"need one error per x value, got shapes {x.shape} and {err.shape}")
    if not (np.isfinite(x).all() and (x > 0.0).all()):
        raise ValueError("x values must be finite and positive")
    if not (np.isfinite(err).all() and (err >= 0.0).all()):
        raise ValueError("errors must be finite and non-negative")
    if not (math.isfinite(floor) and floor >= 0.0):
        raise ValueError(f"floor must be finite and non-negative, got {floor!r}")
    keep = err > floor
    if int(keep.sum()) < 2:
        raise ValueError("fewer than two points above the numerical error floor; cannot fit")
    log_x = np.log(x[keep])
    # Tested on the logs themselves: the mean of equal values can round off them.
    if (log_x == log_x[0]).all():
        raise ValueError("the points above the numerical error floor share one x value; cannot fit")
    log_err = np.log(err[keep])
    dx = log_x - log_x.mean()
    return float(dx @ (log_err - log_err.mean()) / (dx @ dx))


def _o_selected_by_truncation(path: Path, alpha: np.ndarray) -> np.ndarray:
    """O_SELECTED at chi = 0 behind a magnet on ``path``: one row per truncation, one pass.

    The rotations stack in :class:`Truncation` order, so an overflow names the
    first bad linear angle before any quadratic one, as one run_batch call per
    truncation would; the exact rotation never overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        factor = np.concatenate([_ROTATION[t](alpha[:, np.newaxis]) for t in Truncation])
        readings = _readout(np.zeros(len(factor)), path, factor, np.tile(alpha, len(Truncation)))
    return readings[:, 0].reshape(len(Truncation), alpha.size)


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

    The grid must contain at least 10 strictly positive angles.  The three
    truncations are read out in one pass over the grid.  The fitted
    exponents are log-log slopes of |I_truncated - I_exact| against alpha.
    """
    if not isinstance(path, Path):
        raise TypeError(f"path must be a Path, got {path!r}")
    grid = np.asarray(alpha_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 10:
        raise ValueError("alpha_grid must be one-dimensional with at least 10 points")
    if not (np.isfinite(grid).all() and (grid > 0.0).all()):
        raise ValueError("alpha_grid entries must be finite and strictly positive")

    i_exact, i_linear, i_quadratic = _o_selected_by_truncation(path, grid)

    return TruncationReport(
        path=path,
        alpha_grid=grid,
        i_exact=i_exact,
        i_linear=i_linear,
        i_quadratic=i_quadratic,
        error_exponent_linear=fit_loglog_slope(grid, np.abs(i_linear - i_exact)),
        error_exponent_quadratic=fit_loglog_slope(grid, np.abs(i_quadratic - i_exact)),
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

    The linear deficit is identically zero, and exactly 0.0 in floating
    point: the readout scales by powers of two only.  The quadratic and
    exact deficits both equal I_ref * alpha^2/4 to leading order, so their
    ratio tends to one as alpha tends to zero.  The three truncations are
    read out in one pass, as in :func:`truncation_scan`.
    """
    alpha = float(alpha_rad)
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha_rad must be positive, got {alpha_rad!r}")
    deficits = I_REF_NORM - _o_selected_by_truncation(Path.II, np.array([alpha]))
    exact, linear, quadratic = deficits[:, 0].tolist()
    return CheshireDeficits(
        alpha_rad=alpha,
        deficit_linear=linear,
        deficit_quadratic=quadratic,
        deficit_exact=exact,
    )


@dataclass(frozen=True)
class CountSample:
    """One simulated counting interval."""

    rate_cps: float
    duration_s: float
    seed: int
    counts: int
    est_rate_cps: float
    est_sigma_cps: float


def poisson_counts(rate_cps: float, duration_s: float, seed: int) -> CountSample:
    """Draw one Poisson count total for ``rate_cps`` over ``duration_s`` seconds.

    Deterministic for a given seed.  The rate estimate is counts/duration
    and its one-sigma uncertainty sqrt(counts)/duration.
    """
    rate = float(rate_cps)
    duration = float(duration_s)
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"rate_cps must be >= 0, got {rate_cps!r}")
    if not (math.isfinite(duration) and duration > 0.0):
        raise ValueError(f"duration_s must be positive, got {duration_s!r}")
    rng = np.random.default_rng(seed)
    counts = int(rng.poisson(rate * duration))
    return CountSample(
        rate_cps=rate,
        duration_s=duration,
        seed=int(seed),
        counts=counts,
        est_rate_cps=counts / duration,
        est_sigma_cps=math.sqrt(counts) / duration,
    )


def duration_for_rate_sigma(rate_cps: float, sigma_cps: float) -> float:
    """Counting time after which a Poisson rate estimate reaches ``sigma_cps``."""
    rate = float(rate_cps)
    sigma = float(sigma_cps)
    if not (math.isfinite(rate) and rate > 0.0):
        raise ValueError(f"rate_cps must be positive, got {rate_cps!r}")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma_cps must be positive, got {sigma_cps!r}")
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
    scale = _require_scale(scale_ref_cps)

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
