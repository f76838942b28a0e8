"""Independent oracle for every output the benchmark checks.

Nothing here imports ``cheshire``.  Every expected value is a closed form
derived by hand from the beamline conventions (transverse-plus spin on
path I, transverse-minus on path II, phase exp(-/+ i chi/2) on paths I/II,
a real 50/50 recombiner and a transverse-minus filter at O).

Write the rotation as c + i s sigma_z with

    exact      (c, s) = (cos a/2, sin a/2)
    linear     (c, s) = (1, a/2)
    quadratic  (c, s) = (1 - a^2/8, a/2)

Then, with no insertion, an absorber of transmissivity T, or a magnet:

    O_selected    1/4;  1/4 (path I) or T/4 (path II);
                  (1 + s^2 + 2 s sin chi)/4 (path I) or c^2/4 (path II)
    O_unselected  norm/2 + x,  H = norm/2 - x,  with
                  x = 0 (none, absorber), +s sin(chi)/2 (magnet I),
                  -s sin(chi)/2 (magnet II)
    norm          1;  (1 + T)/2;  (1 + c^2 + s^2)/2

Every check raises :class:`CheckFailure` with a message naming what
disagreed, by how much and against which tolerance.
"""

from __future__ import annotations

import math

I_REF = 0.25
EPS = 2.0 ** -52

CSV_HEADER = "scenario_id,detector,chi_rad,alpha_rad,truncation,intensity_norm,intensity_cps"
DETECTORS = ("O_selected", "O_unselected", "H")

# Measured neutron count rates at a 20 degree rotation, counts/s with one
# sigma: Denkmayr et al., Nat. Commun. 5, 4492 (2014).
PUBLISHED_RATES = {"I_ref": (11.25, 0.05), "I_mag_II": (10.93, 0.06), "I_mag_I": (11.57, 0.06)}
REF_CALIBRATION_SIGMA = 0.05
BENCHMARK_ALPHA = math.radians(20.0)

# Nominal log-log error exponents of |I_truncated - I_exact| at chi = 0.
NOMINAL_EXPONENTS = {("I", "linear"): 4.0, ("I", "quadratic"): 4.0,
                     ("II", "linear"): 2.0, ("II", "quadratic"): 4.0}
EXPONENT_TOL = 0.1
FIT_FLOOR = 1e-13


class CheckFailure(AssertionError):
    """An output disagrees with the oracle."""


def check_close(what: str, got: float, want: float, tol: float) -> None:
    if not (isinstance(got, (int, float)) and math.isfinite(got) and abs(got - want) <= tol):
        raise CheckFailure(f"{what}: got {got!r}, expected {want!r} (tolerance {tol:.1e})")


def rotation_cs(alpha: float, truncation: str) -> tuple[float, float]:
    if truncation == "exact":
        return math.cos(alpha / 2.0), math.sin(alpha / 2.0)
    if truncation == "linear":
        return 1.0, alpha / 2.0
    if truncation == "quadratic":
        return 1.0 - alpha * alpha / 8.0, alpha / 2.0
    raise CheckFailure(f"unknown truncation {truncation!r}")


def intensities(kind: str, path: str | None, chi: float, alpha: float = 0.0,
                truncation: str = "exact", transmissivity: float = 1.0) -> tuple[float, float, float]:
    """Closed-form (O_selected, O_unselected, H) normalized intensities."""
    if kind == "none":
        return I_REF, 0.5, 0.5
    if kind == "absorber":
        t = transmissivity
        half = (1.0 + t) / 4.0
        return (I_REF if path == "I" else t / 4.0), half, half
    c, s = rotation_cs(alpha, truncation)
    half = (1.0 + c * c + s * s) / 4.0
    if path == "I":
        x = 0.5 * s * math.sin(chi)
        return (1.0 + s * s + 2.0 * s * math.sin(chi)) / 4.0, half + x, half - x
    x = -0.5 * s * math.sin(chi)
    return c * c / 4.0, half + x, half - x


def point_tolerance(kind: str, alpha: float) -> float:
    """Absolute tolerance for pipeline intensities: a few ulps of the largest term."""
    size = 1.0
    if kind == "magnet":
        size += alpha * alpha
    return 16.0 * EPS * size


def check_point(label: str, kind: str, path: str | None, chi: float, alpha: float,
                truncation: str, transmissivity: float, scale: float,
                norms: tuple[float, float, float], cps: tuple[float, float, float]) -> None:
    """Check one scenario's three detector readings and their cps scaling."""
    want = intensities(kind, path, chi, alpha, truncation, transmissivity)
    tol = point_tolerance(kind, alpha)
    for det, got, exp in zip(DETECTORS, norms, want):
        check_close(f"{label} {det} intensity_norm", got, exp, tol)
    norm = norms[1] + norms[2]
    check_close(f"{label} O_unselected + H", norm, want[1] + want[2], tol)
    for det, got_cps, got_norm in zip(DETECTORS, cps, norms):
        expected = got_norm * scale / I_REF
        check_close(f"{label} {det} intensity_cps", got_cps, expected, 4.0 * EPS * abs(expected))


def check_sigma_pi_estimate(label: str, path: str, alpha: float, truncation: str, value: float) -> None:
    """estimate_sigma_pi at chi = 0: 2|s|/|a| (path I), sqrt((4/a^2)(c^2 - 1) + 1) (path II).

    The estimator multiplies an intensity error by 4/a^2, so the tolerance on
    the squared magnitude scales with that gain.
    """
    c, s = rotation_cs(alpha, truncation)
    gain = 4.0 / (alpha * alpha)
    if path == "I":
        want_sq = gain * s * s
    else:
        want_sq = max(gain * (c * c - 1.0) + 1.0, 0.0)
    tol = gain * 32.0 * EPS * (1.0 + s * s) + 16.0 * EPS
    check_close(f"{label} |sigma_z Pi_{path}|_w^2 estimate", value * value, want_sq, tol)


def check_absorber_estimate(label: str, path: str, transmissivity: float, value: float) -> None:
    """estimate_pi_from_absorber: 0 on path I, (1 + sqrt T)/2 on path II."""
    gain = 1.0 / (2.0 * (1.0 - math.sqrt(transmissivity)))
    want = 0.0 if path == "I" else (1.0 + math.sqrt(transmissivity)) / 2.0
    check_close(f"{label} Pi_{path} absorber estimate", value, want, 16.0 * EPS * gain)


def check_weak_values(pi_i: complex, pi_ii: complex, sigma_pi_i: complex, sigma_pi_ii: complex) -> None:
    """The canonical quartet: Pi_I = 0, Pi_II = 1, |sigma_z Pi_I| = 1, sigma_z Pi_II = 0."""
    tol = 8.0 * EPS
    for name, got, want in (("Pi_I", pi_i, 0.0), ("Pi_II", pi_ii, 1.0),
                            ("|sigma_z Pi_I|", abs(sigma_pi_i), 1.0), ("sigma_z Pi_II", sigma_pi_ii, 0.0)):
        check_close(f"weak value {name}", abs(got - want), 0.0, tol)


def check_weakvalue_intensity(label: str, path: str, alpha: float, value: float) -> None:
    """Second-order prediction: (1 + a^2/4)/4 on path I, (1 - a^2/4)/4 on path II."""
    quarter = alpha * alpha / 4.0
    want = I_REF * (1.0 + quarter if path == "I" else 1.0 - quarter)
    check_close(f"{label} weakvalue_intensity", value, want, 8.0 * EPS * (1.0 + quarter))


def loglog_slope(xs: list[float], errors: list[float], floor: float = FIT_FLOOR) -> float:
    """Least-squares slope of log(err) on log(x) over points with err > floor."""
    pts = [(math.log(x), math.log(e)) for x, e in zip(xs, errors) if e > floor]
    if len(pts) < 2:
        raise CheckFailure("fewer than two scan points above the fit floor")
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    sxy = sum((p[0] - mx) * (p[1] - my) for p in pts)
    return sxy / sxx


def check_scan(label: str, path: str, grid: list[float], i_exact: list[float], i_linear: list[float],
               i_quadratic: list[float], exponent_linear: float, exponent_quadratic: float) -> None:
    """A chi = 0 truncation scan: intensities, fitted exponents and their nominal orders."""
    if not (len(grid) == len(i_exact) == len(i_linear) == len(i_quadratic)):
        raise CheckFailure(f"{label}: scan arrays differ in length")
    for trunc, series in (("exact", i_exact), ("linear", i_linear), ("quadratic", i_quadratic)):
        for alpha, got in zip(grid, series):
            want = intensities("magnet", path, 0.0, alpha, trunc)[0]
            check_close(f"{label} {trunc} I(alpha={alpha:.6g})", got, want, point_tolerance("magnet", alpha))
    for trunc, series, exponent in (("linear", i_linear, exponent_linear),
                                    ("quadratic", i_quadratic, exponent_quadratic)):
        errors = [abs(a - b) for a, b in zip(series, i_exact)]
        refit = loglog_slope(grid, errors)
        check_close(f"{label} {trunc} exponent against a refit", exponent, refit, 1e-9 * abs(refit))
        check_close(f"{label} {trunc} exponent against its order", exponent,
                    NOMINAL_EXPONENTS[(path, trunc)], EXPONENT_TOL)


def check_witness(label: str, alpha: float, deficit_linear: float, deficit_quadratic: float,
                  deficit_exact: float) -> None:
    """Deficits behind a path II magnet: 0 (linear), 1/4 - c_q^2/4, sin^2(a/2)/4.

    The linear deficit is 0 in closed form.  The matrix route gives
    1/4 - 0.2499999999999999 = 1.1e-16 at every angle (the recombiner and
    the filter each divide by sqrt(2)), so it is held to the same few-ulp
    tolerance as every other intensity.
    """
    cq = 1.0 - alpha * alpha / 8.0
    tol = 8.0 * EPS * (1.0 + alpha * alpha)
    check_close(f"{label} linear deficit", deficit_linear, 0.0, tol)
    check_close(f"{label} quadratic deficit", deficit_quadratic, (1.0 - cq * cq) / 4.0, tol)
    check_close(f"{label} exact deficit", deficit_exact, math.sin(alpha / 2.0) ** 2 / 4.0, tol)


def check_reproduce(rows: list[tuple[str, float, float, float, float, bool]], scale: float) -> None:
    """Rows of (quantity, theory_norm, theory_cps, measured_cps, measured_sigma, agrees)."""
    norms = {"I_ref": I_REF,
             "I_mag_II": math.cos(BENCHMARK_ALPHA / 2.0) ** 2 / 4.0,
             "I_mag_I": (1.0 + math.sin(BENCHMARK_ALPHA / 2.0) ** 2) / 4.0}
    if sorted(r[0] for r in rows) != sorted(norms):
        raise CheckFailure(f"reproduce rows {[r[0] for r in rows]} are not {sorted(norms)}")
    for quantity, theory_norm, theory_cps, measured, measured_sigma, agrees in rows:
        rate, sigma = PUBLISHED_RATES[quantity]
        check_close(f"reproduce {quantity} measured rate", measured, rate, 0.0)
        check_close(f"reproduce {quantity} measured sigma", measured_sigma, sigma, 0.0)
        norm = norms[quantity]
        check_close(f"reproduce {quantity} theory_norm", theory_norm, norm, 8.0 * EPS)
        cps = norm * scale / I_REF
        check_close(f"reproduce {quantity} theory_cps", theory_cps, cps, 8.0 * EPS * cps)
        combined = math.hypot(REF_CALIBRATION_SIGMA * norm / I_REF, sigma)
        if not (agrees and abs(cps - rate) <= 2.0 * combined):
            raise CheckFailure(f"reproduce {quantity}: {cps:.6g} vs {rate} +- {combined:.3g} does not agree")


def check_poisson_sample(label: str, rate: float, duration: float, counts: int,
                         est_rate: float, est_sigma: float, sample_rate: float) -> None:
    """One counting interval: the rate it was asked for and its own estimates."""
    if not (isinstance(counts, int) and counts >= 0):
        raise CheckFailure(f"{label}: counts {counts!r} is not a non-negative integer")
    check_close(f"{label} poisson rate", sample_rate, rate, 0.0)
    check_close(f"{label} poisson est_rate", est_rate, counts / duration, 2.0 * EPS * est_rate)
    check_close(f"{label} poisson est_sigma", est_sigma, math.sqrt(counts) / duration, 2.0 * EPS * est_sigma)


def check_poisson_total(label: str, total_counts: int, expected: float) -> None:
    """The count total of many intervals lies within 5 sigma of sum(rate * duration)."""
    check_close(f"{label} poisson count total", float(total_counts), expected, 5.0 * math.sqrt(expected))


def linspace(start: float, stop: float, points: int) -> list[float]:
    step = (stop - start) / (points - 1)
    return [start + k * step for k in range(points - 1)] + [stop]


def geomspace(start: float, stop: float, points: int) -> list[float]:
    a, b = math.log(start), math.log(stop)
    return [start] + [math.exp(a + k * (b - a) / (points - 1)) for k in range(1, points - 1)] + [stop]


def scenario_id(kind: str, path: str | None, truncation: str, transmissivity: float) -> str:
    if kind == "none":
        return "none"
    if kind == "absorber":
        return f"absorber:{path}:T={transmissivity:.12g}"
    return f"magnet:{path}:{truncation}"


def check_sweep_csv(text: str, spec: dict) -> None:
    """Check a ``cheshire sweep`` CSV against the sweep it was asked for.

    ``spec`` holds kind, path, truncation, alpha, transmissivity, chi, scale,
    vary ('chi' or 'alpha'), start, stop and points.  Floats are printed
    with 13 significant digits, so values are compared to 1e-12 relative.
    """
    lines = text.split("\n")
    if lines[-1] != "":
        raise CheckFailure("CSV does not end with a newline")
    lines = lines[:-1]
    if not lines or lines[0] != CSV_HEADER:
        raise CheckFailure(f"CSV header is {lines[0] if lines else None!r}")
    points = spec["points"]
    if len(lines) - 1 != 3 * points:
        raise CheckFailure(f"CSV has {len(lines) - 1} rows, expected {3 * points}")
    kind, path, trunc = spec["kind"], spec["path"], spec.get("truncation", "exact")
    t = spec.get("transmissivity", 1.0)
    sid = scenario_id(kind, path, trunc, t)
    span = abs(spec["start"]) + abs(spec["stop"])
    if spec["vary"] == "chi":
        grid = linspace(spec["start"], spec["stop"], points)
    else:
        grid = geomspace(spec["start"], spec["stop"], points)
    rel = 1e-12
    for k, value in enumerate(grid):
        rows = [lines[1 + 3 * k + j].split(",") for j in range(3)]
        norms, cps = [], []
        for det, row in zip(DETECTORS, rows):
            where = f"CSV row {2 + 3 * k + DETECTORS.index(det)}"
            if len(row) != 7 or row[0] != sid or row[1] != det:
                raise CheckFailure(f"{where}: {row[:2]} is not {[sid, det]}")
            if kind == "magnet" and row[4] != trunc:
                raise CheckFailure(f"{where}: truncation {row[4]!r} is not {trunc!r}")
            if kind != "magnet" and (row[3] or row[4]):
                raise CheckFailure(f"{where}: alpha/truncation set without a magnet")
            chi = float(row[2])
            alpha = float(row[3]) if row[3] else 0.0
            if spec["vary"] == "chi":
                check_close(f"{where} chi", chi, value, rel * span)
                if kind == "magnet":
                    check_close(f"{where} alpha", alpha, spec["alpha"], rel * abs(spec["alpha"]))
            else:
                check_close(f"{where} alpha", alpha, value, rel * value)
                check_close(f"{where} chi", chi, spec["chi"], rel * abs(spec["chi"]))
            norms.append(float(row[5]))
            cps.append(float(row[6]))
        want = intensities(kind, path, chi, alpha, trunc, t)
        tol = rel * (1.0 + abs(chi) + abs(alpha) + alpha * alpha)
        for det, got, exp in zip(DETECTORS, norms, want):
            check_close(f"CSV grid point {k} {det} intensity_norm", got, exp, tol)
        check_close(f"CSV grid point {k} O_unselected + H", norms[1] + norms[2], want[1] + want[2], 2 * tol)
        for det, got_cps, got_norm in zip(DETECTORS, cps, norms):
            expected = got_norm * spec["scale"] / I_REF
            check_close(f"CSV grid point {k} {det} intensity_cps", got_cps, expected, 2 * rel * abs(expected))
