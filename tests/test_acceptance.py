"""Acceptance suite: ten numbered end-to-end checks.

Each test prints exactly one ``[acceptance NN] PASS/FAIL — ...`` line on the
real terminal (bypassing capture) before asserting, so a plain ``pytest -v``
run shows a scoreboard for the whole suite.

Criterion 10 closes the loop ``run`` -> ``estimate_sigma_pi`` at
alpha = 20 deg.  The second-order inversion of the exact intensity is known
in closed form on both paths, so the estimates are pinned to those values at
1e-12.  On path II that value is not the ideal weak value 0: the exact
intensity leaves a truncation residue alpha^2/12 - alpha^4/360 in the squared
magnitude, i.e. |est| ~= 0.1006, which the scoreboard line reports.  Recovery
of the ideal values within 0.01 on both paths holds only for
alpha <~ 0.0346 rad and is checked in ``tests/test_weak.py``.
"""

import math
import time

import numpy as np
import pytest

from cheshire.analysis import (
    cheshire_witness,
    duration_for_rate_sigma,
    fit_loglog_slope,
    poisson_counts,
    truncation_scan,
)
from cheshire.elements import Truncation
from cheshire.experiment import (
    DEFAULT_SCALE_REF_CPS,
    I_REF_NORM,
    Absorber,
    Detector,
    Magnet,
    Scenario,
    closed_form_o,
    run,
    run_batch,
)
from cheshire.qcore import Path
from cheshire.weak import (
    estimate_sigma_pi,
    exact_weak_values,
    projective_spin_expectation,
    weakvalue_intensity,
)

ALPHA_20 = math.radians(20.0)
CHI_GRID_361 = np.linspace(0.0, 2.0 * math.pi, 361)
ALPHA_GRID_50 = np.geomspace(0.01, 0.3, 50)


def report(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance {number:02d}] {'PASS' if ok else 'FAIL'} — {detail}")


def o_selected_norm(scenario: Scenario) -> float:
    return run(scenario)[Detector.O_SELECTED].intensity_norm


def o_selected_cps(scenario: Scenario) -> float:
    return run(scenario)[Detector.O_SELECTED].intensity_cps


class TestAcceptance:
    def test_criterion_01_benchmark_count_rates(self, capsys):
        cps_ii = o_selected_cps(Scenario(insertion=Magnet(Path.II, ALPHA_20)))
        cps_i = o_selected_cps(Scenario(insertion=Magnet(Path.I, ALPHA_20)))
        form_ii = closed_form_o(Scenario(insertion=Magnet(Path.II, ALPHA_20)))
        form_i = closed_form_o(Scenario(insertion=Magnet(Path.I, ALPHA_20)))
        scale = DEFAULT_SCALE_REF_CPS / I_REF_NORM
        checks = [
            abs(cps_ii - form_ii * scale) <= 0.005,
            abs(cps_i - form_i * scale) <= 0.005,
            round(cps_ii, 2) == 10.91,
            round(cps_i, 2) == 11.59,
            abs(cps_ii - 10.93) <= 2.0 * math.hypot(0.06, 0.05),
            abs(cps_i - 11.57) <= 2.0 * math.hypot(0.06, 0.05),
        ]
        ok = all(checks)
        report(
            capsys,
            1,
            ok,
            f"magnet II -> {cps_ii:.4f} cps (expect 10.91), "
            f"magnet I -> {cps_i:.4f} cps (expect 11.59), both within 2 sigma of 10.93(6)/11.57(6)",
        )
        assert ok, checks

    def test_criterion_02_canonical_weak_values(self, capsys):
        wv = exact_weak_values()
        checks = [
            abs(wv.pi_i) <= 1e-12,
            abs(wv.pi_ii - 1.0) <= 1e-12,
            abs(abs(wv.sigma_pi_i) - 1.0) <= 1e-12,
            abs(wv.sigma_pi_ii) <= 1e-12,
        ]
        ok = all(checks)
        report(
            capsys,
            2,
            ok,
            f"pi_I={wv.pi_i:.2e}, pi_II={wv.pi_ii.real:.12f}, "
            f"|sigma_pi_I|={abs(wv.sigma_pi_i):.12f}, sigma_pi_II={abs(wv.sigma_pi_ii):.2e} "
            "(each to 1e-12)",
        )
        assert ok, checks

    def test_criterion_03_intensity_bracket_is_second_order_complete(self, capsys):
        started = time.perf_counter()
        wv = exact_weak_values()
        slopes = {}
        for path in (Path.I, Path.II):
            errors = np.array(
                [
                    abs(
                        weakvalue_intensity(a, path, wv, I_REF_NORM)
                        - o_selected_norm(Scenario(insertion=Magnet(path, a)))
                    )
                    for a in ALPHA_GRID_50
                ]
            )
            slopes[path] = fit_loglog_slope(ALPHA_GRID_50, errors)
        elapsed = time.perf_counter() - started
        ok = (
            abs(slopes[Path.I] - 4.0) <= 0.2
            and abs(slopes[Path.II] - 4.0) <= 0.2
            and elapsed < 1.0
        )
        report(
            capsys,
            3,
            ok,
            f"|bracket - exact| ~ alpha^p with p_I={slopes[Path.I]:.3f}, "
            f"p_II={slopes[Path.II]:.3f} (want 4±0.2) in {elapsed:.2f}s",
        )
        assert ok, (slopes, elapsed)

    def test_criterion_04_linear_magnet_on_empty_path_is_invisible(self, capsys):
        scan = truncation_scan(Path.II, ALPHA_GRID_50)
        max_dev = float(np.max(np.abs(scan.i_linear - I_REF_NORM)))
        witness = cheshire_witness(0.1)
        ratio = witness.deficit_quadratic / witness.deficit_exact
        ok = max_dev <= 1e-12 and abs(ratio - 1.0) <= 1e-3
        report(
            capsys,
            4,
            ok,
            f"linear magnet on path II shifts reference by <= {max_dev:.2e} (want <= 1e-12); "
            f"quadratic/exact deficit at alpha=0.1 is {ratio:.6f} (want 1±1e-3)",
        )
        assert ok, (max_dev, ratio)

    def test_criterion_05_phase_response_localizes_the_spin(self, capsys):
        sel_ii = run_batch(Scenario(insertion=Magnet(Path.II, ALPHA_20)), chi_rad=CHI_GRID_361)[:, 0]
        sel_i = run_batch(Scenario(insertion=Magnet(Path.I, ALPHA_20)), chi_rad=CHI_GRID_361)[:, 0]
        spread_ii = float(np.max(sel_ii) - np.min(sel_ii))
        spread_i = float(np.max(sel_i) - np.min(sel_i))
        periodic = abs(sel_i[0] - sel_i[-1]) <= 1e-12
        ok = (
            spread_ii == 0.0
            and periodic
            and abs(spread_i - math.sin(ALPHA_20 / 2.0)) <= 1e-9
        )
        report(
            capsys,
            5,
            ok,
            f"magnet II: max - min over chi = {spread_ii:.2e} (want exactly 0); "
            f"magnet I: 2pi-periodic fringe, spread {spread_i:.6f} = sin(alpha/2)",
        )
        assert ok, (spread_ii, spread_i, periodic)

    def test_criterion_06_absorber_response_localizes_the_particle(self, capsys):
        worst_i = 0.0
        worst_ii = 0.0
        for t in (0.0, 0.25, 0.64, 0.9025, 1.0):
            on_i = o_selected_norm(Scenario(insertion=Absorber(Path.I, t)))
            on_ii = o_selected_norm(Scenario(insertion=Absorber(Path.II, t)))
            worst_i = max(worst_i, abs(on_i - I_REF_NORM))
            worst_ii = max(worst_ii, abs(on_ii - t * I_REF_NORM))
        ok = worst_i <= 1e-12 and worst_ii <= 1e-12
        report(
            capsys,
            6,
            ok,
            f"absorber on path I leaves 1/4 (max dev {worst_i:.2e}); "
            f"on path II gives T/4 (max dev {worst_ii:.2e}); want <= 1e-12",
        )
        assert ok, (worst_i, worst_ii)

    def test_criterion_07_projective_spin_reads_zero_on_both_paths(self, capsys):
        exp_i = projective_spin_expectation(Path.I)
        exp_ii = projective_spin_expectation(Path.II)
        ok = abs(exp_i) <= 1e-12 and abs(exp_ii) <= 1e-12
        report(
            capsys,
            7,
            ok,
            f"<sigma_z> on path I = {exp_i:.2e}, on path II = {exp_ii:.2e} (want 0 to 1e-12)",
        )
        assert ok, (exp_i, exp_ii)

    def test_criterion_08_detector_intensities_conserve_flux(self, capsys):
        chi_grid = np.linspace(0.0, 2.0 * math.pi, 25)
        worst = 0.0
        unitary = [
            None,
            Magnet(Path.I, ALPHA_20),
            Magnet(Path.II, ALPHA_20),
        ]
        for insertion in unitary:
            for chi in chi_grid:
                rec = run(Scenario(insertion=insertion, chi_rad=float(chi)))
                total = (
                    rec[Detector.O_UNSELECTED].intensity_norm
                    + rec[Detector.H].intensity_norm
                )
                worst = max(worst, abs(total - 1.0))
        for t in (0.0, 0.5, 0.9025):
            for path in (Path.I, Path.II):
                for chi in chi_grid:
                    rec = run(Scenario(insertion=Absorber(path, t), chi_rad=float(chi)))
                    total = (
                        rec[Detector.O_UNSELECTED].intensity_norm
                        + rec[Detector.H].intensity_norm
                    )
                    worst = max(worst, abs(total - (0.5 + t / 2.0)))
        ok = worst <= 1e-12
        report(
            capsys,
            8,
            ok,
            f"O + H = 1 (unitary) and 1/2 + T/2 (absorber) at every chi; "
            f"max deviation {worst:.2e} (want <= 1e-12)",
        )
        assert ok, worst

    def test_criterion_09_poisson_rate_uncertainty(self, capsys):
        started = time.perf_counter()
        duration = duration_for_rate_sigma(DEFAULT_SCALE_REF_CPS, 0.05)
        estimates = np.array(
            [
                poisson_counts(DEFAULT_SCALE_REF_CPS, duration, seed).est_rate_cps
                for seed in range(1000)
            ]
        )
        empirical = float(np.std(estimates))
        elapsed = time.perf_counter() - started
        ok = abs(duration - 4500.0) <= 1e-6 and abs(empirical - 0.05) <= 0.005 and elapsed < 1.0
        report(
            capsys,
            9,
            ok,
            f"duration for 0.05 cps at 11.25 cps = {duration:.0f}s; ensemble sigma over "
            f"1000 seeds = {empirical:.4f} (want 0.05±10%) in {elapsed:.2f}s",
        )
        assert ok, (duration, empirical, elapsed)

    def test_criterion_10_estimator_closure_at_benchmark_angle(self, capsys):
        wv = exact_weak_values()
        i_mag_i = o_selected_norm(Scenario(insertion=Magnet(Path.I, ALPHA_20)))
        i_mag_ii = o_selected_norm(Scenario(insertion=Magnet(Path.II, ALPHA_20)))
        est_i = estimate_sigma_pi(i_mag_i, I_REF_NORM, ALPHA_20, wv.pi_i.real).value
        est_ii = estimate_sigma_pi(i_mag_ii, I_REF_NORM, ALPHA_20, wv.pi_ii.real).value
        # The exact relative intensities are 1 + sin^2(alpha/2) on path I and
        # cos^2(alpha/2) on path II; (4/alpha^2)(I/I_ref - 1) + pi_w then
        # gives these squared magnitudes for the second-order inversion.
        want_i = (2.0 / ALPHA_20) * math.sin(ALPHA_20 / 2.0)  # 0.994931
        want_ii = math.sqrt(1.0 - want_i * want_i)  # 0.100562
        closure_i = abs(est_i - want_i)
        closure_ii = abs(est_ii - want_ii)
        checks = [
            closure_i <= 1e-12,
            closure_ii <= 1e-12,
            abs(est_i - 1.0) <= 0.01,
        ]
        ok = all(checks)
        report(
            capsys,
            10,
            ok,
            f"path I estimate {est_i:.6f} vs (2/alpha)sin(alpha/2) = {want_i:.6f} "
            f"(|diff| {closure_i:.1e}, want <= 1e-12), {abs(est_i - 1.0):.6f} from ideal 1 "
            f"(want <= 0.01); path II estimate {est_ii:.6f} vs "
            f"sqrt(1 - (2/alpha)^2 sin^2(alpha/2)) = {want_ii:.6f} "
            f"(|diff| {closure_ii:.1e}, want <= 1e-12), {abs(est_ii):.6f} from ideal 0 "
            "(truncation residue sqrt(alpha^2/12 - alpha^4/360))",
        )
        assert ok, (est_i, est_ii, want_i, want_ii)
