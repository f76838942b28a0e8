import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cheshire.analysis import (
    PUBLISHED_BENCHMARKS,
    cheshire_witness,
    duration_for_rate_sigma,
    fit_loglog_slope,
    poisson_counts,
    reproduce_benchmark_table,
    truncation_scan,
)
from cheshire.elements import Truncation
from cheshire.experiment import Magnet, Scenario, run_batch
from cheshire.qcore import Path

GRID = np.geomspace(0.01, 0.3, 50)


class TestTruncationScan:
    def test_path_II_linear_pins_reference(self):
        report = truncation_scan(Path.II, GRID)
        assert_allclose(report.i_linear, 0.25, atol=1e-12)

    def test_path_II_quadratic_matches_square(self):
        # (1 - a^2/8)^2 / 4, from squaring the truncated diagonal element
        report = truncation_scan(Path.II, GRID)
        expected = 0.25 * (1 - GRID**2 / 8) ** 2
        assert_allclose(report.i_quadratic, expected, atol=1e-12)

    def test_path_II_error_exponents(self):
        report = truncation_scan(Path.II, GRID)
        assert report.error_exponent_linear == pytest.approx(2.0, abs=0.2)
        assert report.error_exponent_quadratic == pytest.approx(4.0, abs=0.2)

    def test_path_I_linear_and_quadratic_coincide(self):
        # on path I the quadratic correction multiplies the spin component
        # that the post-selection removes, so both truncations give
        # (1 + a^2/4) / 4 and both miss the exact value at fourth order
        report = truncation_scan(Path.I, GRID)
        expected = 0.25 * (1 + GRID**2 / 4)
        assert_allclose(report.i_linear, expected, atol=1e-12)
        assert_allclose(report.i_quadratic, expected, atol=1e-12)
        assert report.error_exponent_linear == pytest.approx(4.0, abs=0.2)
        assert report.error_exponent_quadratic == pytest.approx(4.0, abs=0.2)

    def test_path_I_exact_exceeds_reference(self):
        report = truncation_scan(Path.I, GRID)
        assert (report.i_exact > 0.25).all()

    def test_rejects_short_or_bad_grids(self):
        with pytest.raises(ValueError):
            truncation_scan(Path.II, np.linspace(0.1, 0.3, 5))
        with pytest.raises(ValueError):
            truncation_scan(Path.II, np.linspace(-0.1, 0.3, 20))

    def test_fit_rejects_floored_data(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([0.1, 0.2, 0.3], [1e-16, 1e-15, 1e-14])

    @pytest.mark.parametrize(
        "x, errors",
        [
            ([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]),
            ([-1.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]),
            ([math.inf, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]),
            ([0.5, 1.0, 2.0, 3.0], [math.nan, 2.0, 3.0, 4.0]),
            ([0.5, 1.0, 2.0, 3.0], [-1.0, 2.0, 3.0, 4.0]),
            ([0.5, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0]),
        ],
    )
    def test_fit_rejects_bad_points_with_value_error(self, x, errors):
        # log(0) = -inf used to reach np.polyfit and fail inside LAPACK
        with pytest.raises(ValueError):
            fit_loglog_slope(x, errors)

    @pytest.mark.parametrize(
        "x, errors", [([1.0, 1.0], [1.0, 2.0]), ([2.0, 2.0, 2.0], [1e-3, 2e-3, 3e-3])]
    )
    def test_fit_rejects_equal_x_values_without_warnings(self, x, errors):
        # np.polyfit failed inside LAPACK on the first and warned its way to
        # a made-up slope on the second
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="share one x value"):
                fit_loglog_slope(x, errors)

    def test_fit_rejects_equal_x_values_left_by_the_floor(self):
        with pytest.raises(ValueError, match="share one x value"):
            fit_loglog_slope([0.1, 0.2, 0.2], [1e-16, 1e-3, 2e-3])

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-3.0, 1.0),
        st.floats(0.1, 4.0),
        st.integers(2, 80),
        st.floats(-6.0, 6.0),
        st.lists(st.floats(-1.0, 1.0), min_size=80, max_size=80),
    )
    def test_fit_agrees_with_polyfit(self, lo, decades, points, slope, noise):
        x = np.logspace(lo, lo + decades, points)
        errors = x**slope * np.exp(noise[:points])
        expected = np.polyfit(np.log(x), np.log(errors), 1)[0]
        assert abs(fit_loglog_slope(x, errors, floor=0.0) - expected) <= 1e-12 * max(1.0, abs(expected))


def per_truncation_readings(path, alpha_grid):
    """O_SELECTED at chi = 0 by one run_batch call per truncation, exact first."""
    return [
        run_batch(Scenario(insertion=Magnet(path, 0.0, t)), alpha_rad=alpha_grid)[:, 0]
        for t in Truncation
    ]


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestOnePassScan:
    # the scan and the witness read all three truncations out in one pass;
    # each must equal, bit for bit, a run_batch call per truncation
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(list(Path)),
        st.lists(st.floats(1e-3, 3.0), min_size=10, max_size=40, unique=True),
    )
    def test_scan_equals_per_truncation_runs(self, path, alphas):
        grid = np.array(alphas)
        # the fits need two errors above the floor; on path I the error is
        # alpha^4 / 192, which passes 1e-13 near alpha = 0.012
        assume(np.sort(grid)[-2] > 0.05)
        report = truncation_scan(path, grid)
        expected = per_truncation_readings(path, grid)
        for got, want in zip((report.i_exact, report.i_linear, report.i_quadratic), expected):
            assert np.array_equal(bits(got), bits(want))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-3, 3.0))
    def test_witness_equals_per_truncation_runs(self, alpha):
        witness = cheshire_witness(alpha)
        exact, linear, quadratic = (0.25 - r[0] for r in per_truncation_readings(Path.II, alpha))
        got = [witness.deficit_exact, witness.deficit_linear, witness.deficit_quadratic]
        assert np.array_equal(bits(got), bits([exact, linear, quadratic]))

    @pytest.mark.parametrize("path", list(Path))
    def test_overflow_names_the_same_angle_on_both_routes(self, path):
        grid = np.r_[np.geomspace(0.01, 0.3, 10), 1e200]
        with pytest.raises(ValueError) as per_truncation:
            per_truncation_readings(path, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as one_pass:
                truncation_scan(path, grid)
        assert str(one_pass.value) == str(per_truncation.value)
        assert "alpha_rad=1e+200" in str(one_pass.value)

    def test_witness_overflow_names_the_same_angle_on_both_routes(self):
        with pytest.raises(ValueError) as per_truncation:
            per_truncation_readings(Path.II, 1e200)
        with pytest.raises(ValueError) as one_pass:
            cheshire_witness(1e200)
        assert str(one_pass.value) == str(per_truncation.value)


class TestCheshireWitness:
    def test_linear_deficit_is_zero(self):
        for alpha in (0.01, 0.1, math.radians(20), 1.0):
            assert cheshire_witness(alpha).deficit_linear == pytest.approx(0.0, abs=1e-12)

    def test_linear_deficit_is_exactly_zero(self):
        # the readout scales by powers of two only, so "identically zero"
        # holds in floating point too
        for alpha in np.geomspace(1e-3, 3.0, 2000):
            assert cheshire_witness(float(alpha)).deficit_linear == 0.0

    def test_exact_deficit_at_20_degrees(self):
        witness = cheshire_witness(math.radians(20))
        # 45 * I_ref * sin^2(10 deg) = 0.3392 cps: the 11.25 -> 10.91 drop
        assert witness.deficit_exact * 45.0 == pytest.approx(0.33922900807926637, abs=1e-10)
        assert round(11.25 - witness.deficit_exact * 45.0, 2) == 10.91

    def test_quadratic_tracks_exact_to_leading_order(self):
        witness = cheshire_witness(0.1)
        assert witness.deficit_quadratic / witness.deficit_exact == pytest.approx(
            1.0, abs=1e-3
        )

    def test_deficit_matches_quarter_alpha_squared(self):
        witness = cheshire_witness(0.01)
        leading = 0.25 * 0.01**2 / 4
        assert witness.deficit_exact / leading == pytest.approx(1.0, abs=1e-3)
        assert witness.deficit_quadratic / leading == pytest.approx(1.0, abs=1e-3)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            cheshire_witness(0.0)


class TestPoissonCounts:
    def test_deterministic_for_seed(self):
        a = poisson_counts(11.25, 4500.0, seed=42)
        b = poisson_counts(11.25, 4500.0, seed=42)
        assert a.counts == b.counts

    def test_zero_rate_gives_zero_counts(self):
        sample = poisson_counts(0.0, 100.0, seed=1)
        assert sample.counts == 0
        assert sample.est_rate_cps == 0.0

    def test_estimates_follow_counts(self):
        sample = poisson_counts(11.25, 4500.0, seed=3)
        assert sample.est_rate_cps == pytest.approx(sample.counts / 4500.0)
        assert sample.est_sigma_cps == pytest.approx(math.sqrt(sample.counts) / 4500.0)

    def test_ensemble_statistics(self):
        # sqrt(rate/duration) = sqrt(11.25/4500) = 0.05 exactly
        rates = np.array(
            [poisson_counts(11.25, 4500.0, seed=s).est_rate_cps for s in range(1000)]
        )
        expected_sigma = 0.05
        assert abs(rates.std(ddof=1) - expected_sigma) < 0.1 * expected_sigma
        standard_error = expected_sigma / math.sqrt(1000)
        assert abs(rates.mean() - 11.25) < 3 * standard_error

    def test_duration_for_target_sigma(self):
        assert duration_for_rate_sigma(11.25, 0.05) == pytest.approx(4500.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            poisson_counts(-1.0, 10.0, seed=0)
        with pytest.raises(ValueError):
            poisson_counts(1.0, 0.0, seed=0)

    @pytest.mark.parametrize("rate, sigma", [(1.0, 1e-200), (1e300, 1e-10)])
    def test_duration_rejects_unrepresentable_times(self, rate, sigma):
        # sigma^2 underflows to 0, or the duration overflows to inf
        with pytest.raises(ValueError):
            duration_for_rate_sigma(rate, sigma)


class TestBenchmarkTable:
    def test_all_rows_agree(self):
        table = reproduce_benchmark_table()
        assert len(table) == 3
        assert all(row.agrees for row in table)

    def test_theory_values(self):
        by_name = {row.quantity: row for row in reproduce_benchmark_table()}
        alpha = math.radians(20.0)
        assert by_name["I_ref"].theory_cps == pytest.approx(11.25)
        assert by_name["I_mag_II"].theory_cps == pytest.approx(
            11.25 * math.cos(alpha / 2) ** 2, abs=1e-10
        )
        assert by_name["I_mag_I"].theory_cps == pytest.approx(
            45.0 * (3 - math.cos(alpha)) / 8, abs=1e-10
        )

    def test_measured_columns_are_the_published_numbers(self):
        by_name = {row.quantity: row for row in reproduce_benchmark_table()}
        for quantity, value, sigma in PUBLISHED_BENCHMARKS:
            assert by_name[quantity].measured_cps == value
            assert by_name[quantity].measured_sigma_cps == sigma

    def test_two_sigma_criterion(self):
        for row in reproduce_benchmark_table():
            combined = math.hypot(row.theory_sigma_cps, row.measured_sigma_cps)
            assert row.agrees == (abs(row.theory_cps - row.measured_cps) <= 2 * combined)

    def test_shifted_scale_breaks_agreement(self):
        table = reproduce_benchmark_table(scale_ref_cps=12.5)
        assert not all(row.agrees for row in table)
