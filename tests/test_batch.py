"""The batched path-block pipeline against the 4x4 Kronecker route.

``run_batch`` never builds a joint operator.  The reference below goes the
long way, through the element factories, ``qcore.apply``, ``recombine``
and ``spin_select_minus``, and the two must agree over the whole scenario
space: no insertion, an absorber of any transmissivity, or a magnet on
either path with any truncation.  ``run`` skips the array pass and reads one
point out in Python scalars; it must return the kernel's row bit for bit.
Both take the insertion from the one ``(path, c, s)`` table, ``_factor``,
which must be the element factories' own spin diagonal.
"""

import dataclasses
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cheshire import analysis, elements, experiment, qcore
from cheshire.analysis import _o_selected_by_truncation, cheshire_witness, truncation_scan
from cheshire.elements import Truncation
from cheshire.experiment import (
    Absorber,
    Detector,
    Magnet,
    Scenario,
    _factor,
    _o_selected,
    _readings,
    count_rate,
    initial_state,
    run,
    run_batch,
    sweep_alpha,
    sweep_chi,
)
from cheshire.qcore import _ALPHA_MAX, Path

# Agreement bound, in units of the spacing of the largest reading.
ULPS = 8

paths = st.sampled_from(list(Path))
insertions = st.one_of(
    st.none(),
    st.builds(Absorber, paths, st.floats(0.0, 1.0)),
    st.builds(Magnet, paths, st.floats(-3.0, 3.0), st.sampled_from(list(Truncation))),
)
scenarios = st.builds(Scenario, insertions, st.floats(-7.0, 7.0))
angles = st.lists(st.floats(-3.0, 3.0), max_size=6)
phases = st.lists(st.floats(-7.0, 7.0), max_size=6)


def reference(scenario: Scenario) -> np.ndarray:
    """[O_selected, O_unselected, H] by the 4x4 joint-operator pipeline."""
    ins = scenario.insertion
    state = initial_state()
    if isinstance(ins, Absorber):
        state = qcore.apply(elements.absorber(ins.path, ins.transmissivity), state)
    elif isinstance(ins, Magnet):
        rotation = elements.magnetic_rotation(ins.path, ins.alpha_rad, ins.truncation)
        state = qcore.apply(rotation, state)
    state = qcore.apply(elements.phase_shifter(scenario.chi_rad), state)
    amp_o, amp_h = elements.recombine(state)
    return np.array(
        [
            abs(elements.spin_select_minus(amp_o)) ** 2,
            np.vdot(amp_o, amp_o).real,
            np.vdot(amp_h, amp_h).real,
        ]
    )


@settings(max_examples=300, deadline=None)
@given(scenarios)
def test_agrees_with_kronecker_route(scenario):
    expected = reference(scenario)
    got = run_batch(scenario)
    assert got.shape == (1, 3)
    bound = ULPS * np.spacing(expected.max())
    assert np.abs(got[0] - expected).max() <= bound


@settings(max_examples=100, deadline=None)
@given(scenarios, phases, angles)
def test_sweeps_equal_per_point_runs(template, chi_values, alpha_values):
    # run reads each point out by the kernel's own real formula on Python floats,
    # so the two routes agree exactly
    expected = [
        rec
        for chi in chi_values
        for rec in run(dataclasses.replace(template, chi_rad=chi), 20.0).values()
    ]
    assert sweep_chi(template, chi_values, 20.0) == expected
    if isinstance(template.insertion, Magnet):
        expected = []
        for alpha in alpha_values:
            magnet = dataclasses.replace(template.insertion, alpha_rad=alpha)
            expected.extend(run(dataclasses.replace(template, insertion=magnet), 20.0).values())
        assert sweep_alpha(template, alpha_values, 20.0) == expected


# The whole scenario space: any angle of the domain, any finite phase.
any_float = st.floats(allow_nan=False, allow_infinity=False)
any_angle = st.floats(-_ALPHA_MAX, _ALPHA_MAX)
any_insertions = st.one_of(
    st.none(),
    st.builds(Absorber, paths, st.floats(0.0, 1.0)),
    st.builds(Magnet, paths, any_angle, st.sampled_from(list(Truncation))),
)
any_scenarios = st.builds(Scenario, any_insertions, any_float)


def insertion_operator(insertion) -> qcore.JointOperator:
    """The insertion's 4x4 operator, from the element factories."""
    if isinstance(insertion, Absorber):
        return elements.absorber(insertion.path, insertion.transmissivity)
    if isinstance(insertion, Magnet):
        return elements.magnetic_rotation(insertion.path, insertion.alpha_rad, insertion.truncation)
    return qcore.identity()


@settings(max_examples=500, deadline=None)
@given(any_insertions)
def test_factor_is_the_factories_spin_diagonal(insertion):
    # c + i s sigma_z on the inserted path's spin, the identity on the other path
    path, c, s = _factor(insertion)
    expected = np.eye(4, dtype=complex)
    i = 2 * path.value
    expected[i, i], expected[i + 1, i + 1] = complex(c, s), complex(c, -s)
    assert (insertion_operator(insertion).matrix == expected).all()


def _bits_or_nan(values):
    """The bits of each value, with every nan alike."""
    return ["nan" if math.isnan(x) else np.float64(x).view(np.int64) for x in values]


@settings(max_examples=1000, deadline=None)
@given(st.one_of(scenarios, any_scenarios), st.floats(1.0, 100.0))
def test_run_reads_out_the_kernel_row_bit_for_bit(scenario, scale):
    expected = run_batch(scenario)[0].tolist()
    records = run(scenario, scale)
    assert _bits_or_nan([records[det].intensity_norm for det in Detector]) == _bits_or_nan(expected)
    rates = count_rate(np.array(expected), scale).tolist()
    assert _bits_or_nan([records[det].intensity_cps for det in Detector]) == _bits_or_nan(rates)


# At the corners of the domain every reading and rate is finite, with no
# floating-point flag raised: the largest rate is about 1.6e34 cps.
@pytest.mark.parametrize("scale", [1e-12, 1e12])
def test_every_reading_and_rate_is_finite_at_the_corners_of_the_domain(scale):
    corners = [-_ALPHA_MAX, _ALPHA_MAX]
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        values = []
        for path in Path:
            for truncation in Truncation:
                template = Scenario(Magnet(path, _ALPHA_MAX, truncation))
                for alpha in corners:
                    for chi in (0.0, 0.5):
                        records = run(Scenario(Magnet(path, alpha, truncation), chi), scale).values()
                        values += [x for r in records for x in (r.intensity_norm, r.intensity_cps)]
                readings = run_batch(template, chi_rad=[0.0, 0.5, 0.0, 0.5], alpha_rad=corners * 2)
                values += [*readings.ravel(), *count_rate(readings, scale).ravel()]
                for records in (sweep_chi(template, [0.0, 0.5], scale), sweep_alpha(template, corners, scale)):
                    values += [x for r in records for x in (r.intensity_norm, r.intensity_cps)]
            report = truncation_scan(path, np.geomspace(0.01, _ALPHA_MAX, 20))
            values += [*report.i_exact, *report.i_linear, *report.i_quadratic]
            values += [report.error_exponent_linear, report.error_exponent_quadratic]
        witness = cheshire_witness(_ALPHA_MAX)
        values += [witness.deficit_linear, witness.deficit_quadratic, witness.deficit_exact]
    assert all(map(math.isfinite, values))
    assert max(values) == pytest.approx(1.5625e34 if scale == 1e12 else 3.90625e21)


# Past the domain, every route refuses the angle or the scale with the domain's message.
past_the_domain = st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: abs(x) > _ALPHA_MAX)
past_the_scales = st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not 1e-12 <= x <= 1e12)


@settings(max_examples=300, deadline=None)
@given(past_the_domain, past_the_scales, paths, st.sampled_from(list(Truncation)))
def test_the_rest_of_the_float_range_is_refused(alpha, scale, path, truncation):
    magnet = Scenario(Magnet(path, 0.3, truncation))
    angle = re.escape(f"must lie in [-1e6, 1e6], got {alpha!r}")
    with pytest.raises(ValueError, match=f"^alpha_rad {angle}$"):
        Magnet(path, alpha, truncation)
    with pytest.raises(ValueError, match=f"^alpha_rad entries {angle} at index 1$"):
        run_batch(magnet, alpha_rad=[0.3, alpha])
    with pytest.raises(ValueError, match=f"^alpha_values entries {angle} at index 0$"):
        sweep_alpha(magnet, [alpha])
    scan = re.escape(f"must lie in (0, 1e6], got {abs(alpha)!r}")
    with pytest.raises(ValueError, match=f"^alpha_rad {scan}$"):
        cheshire_witness(abs(alpha))
    with pytest.raises(ValueError, match=f"^alpha_grid entries {scan} at index 10$"):
        truncation_scan(path, np.r_[np.geomspace(0.01, 0.3, 10), abs(alpha)])
    rule = re.escape(f"scale_ref_cps must lie in [1e-12, 1e12], got {scale!r}")
    for refuse in (lambda: run(magnet, scale), lambda: sweep_chi(magnet, [0.0], scale),
                   lambda: sweep_alpha(magnet, [0.3], scale), lambda: count_rate(0.25, scale)):
        with pytest.raises(ValueError, match=f"^{rule}$"):
            refuse()


class TestReadings:
    """``_readings`` is the one closed form of the three ports, for the array
    pass and for the scalar readout alike; its first reading is ``_o_selected``,
    which the truncation scan and the witness take alone at chi = 0, k = 0."""

    @settings(max_examples=300, deadline=None)
    @given(paths, st.lists(st.floats(0.0, _ALPHA_MAX, exclude_min=True), min_size=1, max_size=8))
    def test_scan_is_the_zero_phase_column_bit_for_bit(self, path, alpha):
        # the scan's stack of all three rotation rows over one grid of angles
        alpha = np.array(alpha)
        scan = _o_selected_by_truncation(path, alpha)
        columns = [
            run_batch(Scenario(Magnet(path, 0.0, truncation)), chi_rad=0.0, alpha_rad=alpha)[:, 0]
            for truncation in Truncation
        ]
        assert _bits_or_nan(scan.ravel()) == _bits_or_nan(np.ravel(columns))
        # and the witness, behind a path II magnet, is its last point
        witness = cheshire_witness(alpha[-1])
        deficits = [witness.deficit_exact, witness.deficit_linear, witness.deficit_quadratic]
        last = _o_selected_by_truncation(Path.II, alpha)[:, -1]
        assert _bits_or_nan(deficits) == _bits_or_nan(0.25 - last)

    # O_selected alone, as the scan and the witness read it, is the first
    # reading bit for bit, on floats and on one-element arrays
    @settings(max_examples=1000, deadline=None)
    @given(paths, *[st.floats(allow_nan=False)] * 3)
    @example(Path.I, -0.0, 0.0, -0.0)
    @example(Path.II, 0.0, -0.0, math.inf)
    def test_o_selected_is_the_first_reading_bit_for_bit(self, path, k, c, s):
        with np.errstate(over="ignore", invalid="ignore"):
            for args in ((k, c, s), [np.array([x]) for x in (k, c, s)]):
                alone, first = _o_selected(path, *args), _readings(path, *args)[0]
                assert type(alone) is type(first)
                assert _bits_or_nan(np.ravel(alone)) == _bits_or_nan(np.ravel(first))

    # on floats (the scalar readout) and on arrays (the array pass, the scan):
    # so run equals run_batch with no numpy arithmetic of its own
    @settings(max_examples=1000, deadline=None)
    @given(paths, *[st.floats(allow_nan=False)] * 3)
    @example(Path.I, 0.0, -math.inf, 0.5)
    @example(Path.II, -0.0, 0.75, math.inf)
    @example(Path.I, 0.0, -0.0, -0.0)
    @example(Path.II, -0.25, 0.0, -math.inf)
    @example(Path.I, 0.5, 1.0, 0.0)
    @example(Path.II, -math.inf, 0.5, -0.0)
    def test_floats_are_the_array_elements_bit_for_bit(self, path, k, c, s):
        with np.errstate(over="ignore", invalid="ignore"):
            array = _readings(path, *[np.array([x]) for x in (k, c, s)])
        floats = _readings(path, k, c, s)
        assert [type(x) for x in floats] == [float] * 3
        assert _bits_or_nan(floats) == _bits_or_nan([x[0] for x in array])

    # Path I's O_selected at five magnet scenarios, as hex floats.  At each of
    # them ((1 + s^2) + k)/4, the one order, and (1 + (s^2 + k))/4 round to
    # different bits (by 1, 1, -1, 2 and 32 ulps), so a regrouped sum fails
    # here even though it stays inside the 2.5 ulp bound below and run and
    # run_batch, which share the formula, still agree with each other.
    GOLDEN_O_SELECTED = [
        (0.3, 0.25, Truncation.EXACT, "0x1.18a5793da77f5p-2"),
        (1.0, 3.0, Truncation.LINEAR, "0x1.642070db6daabp-2"),
        (-0.7, 0.5, Truncation.QUADRATIC, "0x1.92e4d5c6adca5p-3"),
        (3.0, -1.0, Truncation.EXACT, "0x1.43dc4d2c3d438p-4"),
        (-2.0, 1.5, Truncation.EXACT, "0x1.e0d33fe7a7680p-8"),
    ]

    @pytest.mark.parametrize("alpha, chi, truncation, expected", GOLDEN_O_SELECTED)
    def test_path_one_o_selected_has_golden_bits(self, alpha, chi, truncation, expected):
        template = Scenario(Magnet(Path.I, alpha, truncation), chi)
        _, c, s = _factor(template.insertion)
        c, s = float(c), float(s)
        k = 2.0 * s * math.sin(chi)
        assert (1.0 + (s * s + k)) * 0.25 != float.fromhex(expected)  # the point tells the orders apart
        arrays = [np.array([x, x]) for x in (k, c, s)]
        got = [
            _o_selected(Path.I, k, c, s),
            _readings(Path.I, k, c, s)[0],
            *_o_selected(Path.I, *arrays),
            *_readings(Path.I, *arrays)[0],
            run(template)[Detector.O_SELECTED].intensity_norm,
            *run_batch(template, chi_rad=[chi, chi])[:, 0],
            *run_batch(template, alpha_rad=[alpha, alpha])[:, 0],
        ]
        assert [float(x).hex() for x in got] == [expected] * 11

    @settings(max_examples=1000, deadline=None)
    @given(paths, st.floats(-1e300, 1e300), st.floats(-1e150, 1e150), st.floats(-1e150, 1e150))
    @example(Path.I, 680.8160114460806, -130325175.04069515, -18.574054107271657)
    @example(Path.II, 1.5023597630341028, -2.8571956500388964, -2.1245699000401643)
    def test_readings_are_the_exact_value_within_two_and_a_half_ulps(self, path, k, c, s):
        """Each reading is within 2.5 ulps of its row's largest reading of the
        exact value ((1 + s^2) + k, r + k, r - k)/4 on path I and (c^2, r - k,
        r + k)/4 on path II, r = 1 + c^2 + s^2, for the same floats (k, c, s).
        That is the bound of the five roundings of r -+ k; the worst case
        measured over 1.2 million seeded rows, rotation-like and of any
        scale, is 1.895 ulps, in r + k at the first example below."""
        got = _readings(path, k, c, s)
        k, c, s = Fraction(k), Fraction(c), Fraction(s)
        r = 1 + c * c + s * s
        exact = [1 + s * s + k, r + k, r - k] if path is Path.I else [c * c, r - k, r + k]
        unit = Fraction(float(np.spacing(max(map(abs, got)))))
        assert max(abs(Fraction(x) - y / 4) for x, y in zip(got, exact)) <= Fraction(5, 2) * unit

    @pytest.fixture
    def real_readout(self, monkeypatch):
        """numpy without ``multiply`` or ``exp`` for both modules, and the dtypes
        of every argument and result of each readout formula called:
        ``_readings`` in :mod:`experiment`, ``_o_selected`` in :mod:`analysis`."""

        class NumpyWithoutComplexKernel:
            def __getattr__(self, name):
                return getattr(np, name)

            def multiply(self, *args, **kwargs):
                raise AssertionError("the readout called np.multiply or np.exp")

            exp = multiply

        dtypes = []

        def spy(formula):
            def recorded(path, *args):
                result = formula(path, *args)
                readings = result if formula is _readings else (result,)
                dtypes.append({np.asarray(x).dtype for x in (*args, *readings)})
                return result

            return recorded

        for module in (experiment, analysis):
            monkeypatch.setattr(module, "np", NumpyWithoutComplexKernel())
        monkeypatch.setattr(experiment, "_readings", spy(_readings))
        monkeypatch.setattr(analysis, "_o_selected", spy(_o_selected))
        return dtypes

    # every readout is real arithmetic: no complex phase factor, no complex
    # product, and only + - * on float64 operands, so no complex intermediate
    @pytest.mark.parametrize("chi", [0.0, 0.5])
    @pytest.mark.parametrize("path", list(Path))
    def test_no_readout_makes_a_numpy_multiply_or_exp(self, real_readout, path, chi):
        template = Scenario(insertion=Magnet(path, 0.3), chi_rad=chi)
        run(template)
        run_batch(template, chi_rad=[chi, 1.0, -2.0])
        run_batch(template, alpha_rad=[0.1, 0.3, 2.0])
        sweep_chi(template, [chi, 1.0])  # one run, so one readout, per point
        assert real_readout == [{np.dtype(float)}] * 5

    @pytest.mark.parametrize("path", list(Path))
    def test_scan_and_witness_make_no_numpy_multiply_or_exp(self, real_readout, path):
        truncation_scan(path, np.geomspace(0.01, 0.3, 10))
        cheshire_witness(0.3)  # one readout per truncation
        assert real_readout == [{np.dtype(float)}] * (1 + 3)

    # an exact rotation's (c, s) are np.float64: run and the witness must
    # still hand back Python floats, which count_rate takes without numpy
    @pytest.mark.parametrize("chi", [0.0, -0.0, 0.5])
    def test_run_and_witness_read_python_floats(self, chi):
        insertions = [None, Absorber(Path.I, 0.5)] + [
            Magnet(path, 0.3, truncation) for path in Path for truncation in Truncation
        ]
        for insertion in insertions:
            for record in run(Scenario(insertion, chi)).values():
                assert type(record.intensity_norm) is float and type(record.intensity_cps) is float
        witness = cheshire_witness(0.3)
        deficits = [witness.deficit_linear, witness.deficit_quadratic, witness.deficit_exact]
        assert [type(x) for x in deficits] == [float] * 3


class TestRunBatch:
    def test_columns_follow_detector_order(self):
        template = Scenario(insertion=Magnet(Path.I, 0.4))
        readings = run_batch(template, chi_rad=[0.0, 1.0, 2.0])
        assert readings.shape == (3, 3)
        for row, chi in zip(readings, [0.0, 1.0, 2.0]):
            result = run(dataclasses.replace(template, chi_rad=chi))
            assert list(row) == [result[det].intensity_norm for det in Detector]

    def test_both_grids_broadcast(self):
        template = Scenario(insertion=Magnet(Path.II, 0.0, Truncation.QUADRATIC))
        readings = run_batch(template, chi_rad=[0.1, 0.2], alpha_rad=[0.3, 0.4])
        for row, (chi, alpha) in zip(readings, [(0.1, 0.3), (0.2, 0.4)]):
            point = Scenario(insertion=Magnet(Path.II, alpha, Truncation.QUADRATIC), chi_rad=chi)
            assert list(row) == list(run_batch(point)[0])
        assert run_batch(template, chi_rad=0.5, alpha_rad=[0.3, 0.4]).shape == (2, 3)

    def test_empty_grid(self):
        assert run_batch(Scenario(), chi_rad=[]).shape == (0, 3)
        assert sweep_chi(Scenario(), []) == []

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError, match="magnet"):
            run_batch(Scenario(), alpha_rad=[0.1])
        with pytest.raises(ValueError, match="finite"):
            run_batch(Scenario(), chi_rad=[0.0, math.nan])
        with pytest.raises(ValueError, match="one-dimensional"):
            run_batch(Scenario(), chi_rad=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="differ in length"):
            run_batch(Scenario(insertion=Magnet(Path.I, 0.1)), chi_rad=[0, 1], alpha_rad=[0, 1, 2])

    @pytest.mark.parametrize(
        "path, alpha, truncation",
        [(Path.I, 1e200, Truncation.LINEAR), (Path.II, -1e160, Truncation.QUADRATIC)],
    )
    def test_an_angle_past_the_domain_is_refused_without_warnings(self, path, alpha, truncation):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"alpha_rad must lie in [-1e6, 1e6], got {alpha!r}")):
                run(Scenario(insertion=Magnet(path, alpha, truncation)))

    def test_a_grid_past_the_domain_names_its_first_bad_point(self):
        template = Scenario(insertion=Magnet(Path.I, 0.0, Truncation.LINEAR))
        with pytest.raises(ValueError, match=r"^alpha_rad entries must lie in .* got 1e\+300 at index 1$"):
            run_batch(template, alpha_rad=[0.1, 1e300, 1e301])


magnets = st.builds(Magnet, paths, st.floats(-3.0, 3.0), st.sampled_from(list(Truncation)))
signed_angles = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-7.0, 7.0))


class TestLengthOneAxis:
    """A grid of length 1 stays a Python float: the readings are the broadcast grid's, sign bits included."""

    @staticmethod
    def broadcast(template, chi, alpha):
        chi, alpha = np.broadcast_arrays(np.atleast_1d(chi), np.atleast_1d(alpha))
        return run_batch(template, chi_rad=chi.copy(), alpha_rad=alpha.copy())

    @settings(max_examples=200, deadline=None)
    @given(magnets, st.lists(signed_angles, min_size=2, max_size=6), signed_angles)
    @example(Magnet(Path.I, -0.0, Truncation.LINEAR), [-0.0, 0.0], -0.0)
    @example(Magnet(Path.II, -0.0, Truncation.QUADRATIC), [0.0, -0.0], -0.0)
    def test_one_against_n_and_n_against_one(self, magnet, grid, fixed):
        template = Scenario(magnet)
        for chi, alpha in ((grid, [fixed]), ([fixed], grid), (grid, fixed), (fixed, grid)):
            readings = run_batch(template, chi_rad=chi, alpha_rad=alpha)
            assert readings.shape == (len(grid), 3)
            assert readings.tobytes() == self.broadcast(template, chi, alpha).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(magnets, signed_angles, signed_angles)
    def test_one_against_one_is_the_two_point_grid_row(self, magnet, chi, alpha):
        one = run_batch(Scenario(magnet), chi_rad=[chi], alpha_rad=[alpha])
        two = run_batch(Scenario(magnet), chi_rad=[chi, chi], alpha_rad=[alpha, alpha])
        assert one.tobytes() == two[:1].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(insertions, signed_angles)
    def test_a_one_point_phase_grid_is_the_two_point_grid_row(self, ins, chi):
        one = run_batch(Scenario(ins), chi_rad=[chi])
        assert one.tobytes() == run_batch(Scenario(ins), chi_rad=[chi, chi])[:1].tobytes()

    def test_zero_against_one(self):
        template = Scenario(Magnet(Path.I, 0.3))
        for chi, alpha in (([], [0.2]), ([], 0.2), ([0.2], []), (0.2, [])):
            readings = run_batch(template, chi_rad=chi, alpha_rad=alpha)
            assert readings.shape == (0, 3)
            assert readings.tobytes() == self.broadcast(template, chi, alpha).tobytes()
        assert run_batch(template, chi_rad=[]).shape == (0, 3)

    @pytest.mark.parametrize("chi, alpha, sizes", [([0, 1], [0, 1, 2], (2, 3)), ([], [0, 1], (0, 2)),
                                                   ([0, 1, 2], [], (3, 0))])
    def test_grids_of_other_lengths_keep_their_message(self, chi, alpha, sizes):
        message = f"^chi_rad and alpha_rad grids differ in length \\({sizes[0]} and {sizes[1]}\\)$"
        with pytest.raises(ValueError, match=message):
            run_batch(Scenario(Magnet(Path.I, 0.1)), chi_rad=chi, alpha_rad=alpha)
