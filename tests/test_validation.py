"""The one input-validation layer, checked parameter by parameter.

Every public scalar parameter takes a finite number in its range and
rejects anything else, ``None`` and text included, with a ValueError whose
message starts with the parameter's name.  Every path parameter rejects
anything that is not a :class:`Path` with a TypeError, and every truncation
parameter anything that is not a :class:`Truncation`.  State, operator, weak-value
and scenario parameters reject anything that is not their class with a TypeError too.
Every grid parameter takes a scalar or a one-dimensional array of real
numbers whose entries meet its rule, and rejects anything else with a
ValueError whose message starts with the parameter's name.  A magnet's
angle, a scan's angles and a count-rate scale have a physical domain, and
values just past it are more rejected inputs of the same rows.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cheshire.analysis import (
    cheshire_witness,
    duration_for_rate_sigma,
    fit_loglog_slope,
    poisson_counts,
    reproduce_benchmark_table,
    truncation_scan,
)
from cheshire.cli import format_scenario_config
from cheshire.elements import (
    Truncation,
    absorber,
    magnetic_rotation,
    phase_shifter,
    recombine,
    spin_rotation_matrix,
)
from cheshire.experiment import (
    Absorber,
    Magnet,
    Scenario,
    count_rate,
    initial_state,
    postselection_state,
    run,
    run_batch,
    sweep_alpha,
    sweep_chi,
)
from cheshire.qcore import (
    _RULES,
    JointOperator,
    JointState,
    Path,
    _require_grid,
    _require_real,
    apply,
    compose,
    dagger,
    identity,
    inner,
    is_unitary,
    norm2,
    path_projector,
    spin_on_path,
)
from cheshire.weak import (
    WeakValueSet,
    estimate_pi_from_absorber,
    estimate_sigma_pi,
    exact_weak_values,
    modular_value,
    path_projector_operator,
    projective_spin_expectation,
    spin_z_path_operator,
    weak_value,
    weakvalue_intensity,
)

WEAK_VALUES = exact_weak_values()
MAGNET_II = Scenario(insertion=Magnet(Path.II, 0.2))

# (function, parameter, a call passing ``v`` as that parameter and valid values elsewhere)
SCALARS = [
    ("Absorber", "transmissivity", lambda v: Absorber(Path.I, v)),
    ("Magnet", "alpha_rad", lambda v: Magnet(Path.I, v)),
    ("Scenario", "chi_rad", lambda v: Scenario(chi_rad=v)),
    ("count_rate", "scale_ref_cps", lambda v: count_rate(0.25, v)),
    ("run", "scale_ref_cps", lambda v: run(Scenario(), v)),
    ("sweep_chi", "scale_ref_cps", lambda v: sweep_chi(Scenario(), [0.0], v)),
    ("sweep_alpha", "scale_ref_cps", lambda v: sweep_alpha(MAGNET_II, [0.1], v)),
    ("reproduce_benchmark_table", "scale_ref_cps", reproduce_benchmark_table),
    ("format_scenario_config", "scale_ref_cps", lambda v: format_scenario_config(Scenario(), v)),
    ("estimate_sigma_pi", "i_mag_norm", lambda v: estimate_sigma_pi(v, 0.25, 0.2, 0.0)),
    ("estimate_sigma_pi", "i_ref_norm", lambda v: estimate_sigma_pi(0.25, v, 0.2, 0.0)),
    ("estimate_sigma_pi", "alpha_rad", lambda v: estimate_sigma_pi(0.25, 0.25, v, 0.0)),
    ("estimate_sigma_pi", "pi_w", lambda v: estimate_sigma_pi(0.25, 0.25, 0.2, v)),
    ("estimate_sigma_pi", "sigma_i_mag",
     lambda v: estimate_sigma_pi(0.25, 0.25, 0.2, 0.0, sigma_i_mag=v)),
    ("estimate_sigma_pi", "sigma_i_ref",
     lambda v: estimate_sigma_pi(0.25, 0.25, 0.2, 0.0, sigma_i_ref=v)),
    ("estimate_pi_from_absorber", "i_abs_norm", lambda v: estimate_pi_from_absorber(v, 0.25, 0.5)),
    ("estimate_pi_from_absorber", "i_ref_norm", lambda v: estimate_pi_from_absorber(0.2, v, 0.5)),
    ("estimate_pi_from_absorber", "transmissivity",
     lambda v: estimate_pi_from_absorber(0.2, 0.25, v)),
    ("estimate_pi_from_absorber", "sigma_i_abs",
     lambda v: estimate_pi_from_absorber(0.2, 0.25, 0.5, sigma_i_abs=v)),
    ("estimate_pi_from_absorber", "sigma_i_ref",
     lambda v: estimate_pi_from_absorber(0.2, 0.25, 0.5, sigma_i_ref=v)),
    ("weakvalue_intensity", "alpha_rad",
     lambda v: weakvalue_intensity(v, Path.I, WEAK_VALUES, 0.25)),
    ("weakvalue_intensity", "i_ref_norm",
     lambda v: weakvalue_intensity(0.1, Path.I, WEAK_VALUES, v)),
    ("modular_value", "c", lambda v: modular_value(Path.I, v, 0.0, WEAK_VALUES)),
    ("modular_value", "s", lambda v: modular_value(Path.I, 1.0, v, WEAK_VALUES)),
    ("cheshire_witness", "alpha_rad", cheshire_witness),
    ("poisson_counts", "rate_cps", lambda v: poisson_counts(v, 1.0, 0)),
    ("poisson_counts", "duration_s", lambda v: poisson_counts(1.0, v, 0)),
    ("duration_for_rate_sigma", "rate_cps", lambda v: duration_for_rate_sigma(v, 0.1)),
    ("duration_for_rate_sigma", "sigma_cps", lambda v: duration_for_rate_sigma(10.0, v)),
    ("fit_loglog_slope", "floor", lambda v: fit_loglog_slope([1, 2, 3], [1, 2, 3], floor=v)),
    ("spin_rotation_matrix", "alpha_rad", spin_rotation_matrix),
    ("magnetic_rotation", "alpha_rad", lambda v: magnetic_rotation(Path.I, v)),
    ("phase_shifter", "chi_rad", phase_shifter),
    ("absorber", "transmissivity", lambda v: absorber(Path.I, v)),
    # a weak-value part is complex: finite is its whole rule, checked before the sum rule
    ("WeakValueSet", "pi_i", lambda v: WeakValueSet(v, v, 0j, 0j)),
    ("WeakValueSet", "pi_ii", lambda v: WeakValueSet(0j, v, 1 + 0j, 0j)),
    ("WeakValueSet", "sigma_pi_i", lambda v: WeakValueSet(0, 1, v, 0)),
    ("WeakValueSet", "sigma_pi_ii", lambda v: WeakValueSet(0j, 1 + 0j, 1 + 0j, v)),
]

# Not a finite number: text is rejected even when it spells one.
NOT_FINITE_NUMBERS = [math.nan, math.inf, -math.inf, None, "x", "0.5"]

# Finite numbers past a parameter's physical domain, by (function, parameter).
ANGLES_PAST = [1.000001e6, -1.000001e6, 1e200]
SCALES_PAST = [5e-324, 1e-13, 1.79e308]
PAST_THE_DOMAIN = {
    ("Magnet", "alpha_rad"): ANGLES_PAST,
    ("cheshire_witness", "alpha_rad"): ANGLES_PAST,
    **{(f, p): SCALES_PAST for f, p, _ in SCALARS if p == "scale_ref_cps"},
    # the weak layer's bounds, which its one-test guards state again
    **{(f, p): [0.0, -0.0, -5e-324] for f, p, _ in SCALARS if p == "i_ref_norm"},
    **{(f, p): [-5e-324, -1.0] for f, p, _ in SCALARS if p.startswith("sigma_i_")},
    ("estimate_pi_from_absorber", "transmissivity"): [1.0, -5e-324, 1.5],
}

# (id, parameter, call, a value it rejects) for every scalar row
SCALAR_CASES = [
    (f"{f}.{p}-{bad!r}", p, call, bad)
    for f, p, call in SCALARS
    for bad in NOT_FINITE_NUMBERS + PAST_THE_DOMAIN.get((f, p), [])
]

# The weak layer's rows again, each rejected float passed as a numpy float64, as
# iterating a TruncationReport's readings yields it
WEAK_LAYER = ("weakvalue_intensity", "estimate_sigma_pi", "estimate_pi_from_absorber")
FLOAT64_CASES = [
    (f"{f}.{p}-float64({bad!r})", call, bad)
    for f, p, call in SCALARS
    if f in WEAK_LAYER
    for bad in [math.nan, math.inf, -math.inf] + PAST_THE_DOMAIN.get((f, p), [])
]

PATHS = [
    ("magnetic_rotation", lambda p: magnetic_rotation(p, 0.1)),
    ("absorber", lambda p: absorber(p, 0.5)),
    ("Absorber", lambda p: Absorber(p, 0.5)),
    ("Magnet", lambda p: Magnet(p, 0.1)),
    ("path_projector_operator", path_projector_operator),
    ("spin_z_path_operator", spin_z_path_operator),
    ("weakvalue_intensity", lambda p: weakvalue_intensity(0.1, p, WEAK_VALUES, 0.25)),
    ("modular_value", lambda p: modular_value(p, 1.0, 0.0, WEAK_VALUES)),
    ("projective_spin_expectation", projective_spin_expectation),
    ("truncation_scan", lambda p: truncation_scan(p, np.geomspace(0.01, 0.3, 10))),
    ("path_projector", path_projector),
    ("spin_on_path", lambda p: spin_on_path([1.0, 0.0], p)),
]

# (function, parameter, its class, a call passing ``v`` as that parameter)
OBJECTS = [
    ("weak_value", "op", JointOperator,
     lambda v: weak_value(v, initial_state(), postselection_state())),
    ("weak_value", "psi_i", JointState,
     lambda v: weak_value(path_projector_operator(Path.I), v, postselection_state())),
    ("weak_value", "psi_f", JointState,
     lambda v: weak_value(path_projector_operator(Path.I), initial_state(), v)),
    ("weakvalue_intensity", "weak_values", WeakValueSet,
     lambda v: weakvalue_intensity(0.1, Path.I, v, 0.25)),
    ("modular_value", "weak_values", WeakValueSet, lambda v: modular_value(Path.I, 1.0, 0.0, v)),
    ("apply", "op", JointOperator, lambda v: apply(v, initial_state())),
    ("apply", "state", JointState, lambda v: apply(identity(), v)),
    ("inner", "bra", JointState, lambda v: inner(v, initial_state())),
    ("inner", "ket", JointState, lambda v: inner(initial_state(), v)),
    ("norm2", "state", JointState, norm2),
    ("dagger", "op", JointOperator, dagger),
    ("compose", "a", JointOperator, lambda v: compose(v, identity())),
    ("compose", "b", JointOperator, lambda v: compose(identity(), v)),
    ("is_unitary", "op", JointOperator, is_unitary),
    ("recombine", "state", JointState, recombine),
    ("format_scenario_config", "scenario", Scenario, format_scenario_config),
]

TRUNCATIONS = [
    ("spin_rotation_matrix", lambda t: spin_rotation_matrix(0.1, t)),
    ("magnetic_rotation", lambda t: magnetic_rotation(Path.I, 0.1, t)),
    ("Magnet", lambda t: Magnet(Path.I, 0.1, t)),
]


@pytest.mark.parametrize("parameter, call, bad", [c[1:] for c in SCALAR_CASES], ids=[c[0] for c in SCALAR_CASES])
def test_scalar_parameter_rejects_what_is_not_a_finite_number(parameter, call, bad):
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value).startswith(f"{parameter} must "), str(info.value)
    assert str(info.value).endswith(f", got {bad!r}")


@pytest.mark.parametrize("call, bad", [c[1:] for c in FLOAT64_CASES], ids=[c[0] for c in FLOAT64_CASES])
def test_weak_layer_refuses_a_float64_in_the_words_of_its_python_float(call, bad):
    with pytest.raises(ValueError) as expected:
        call(bad)
    with pytest.raises(ValueError) as info:
        call(np.float64(bad))
    assert str(info.value) == str(expected.value)


# Each weak-layer function's parameters in the order they are checked, each
# with (a valid value, a value it refuses); numpy float64s among the refused
BAD_WEAK_VALUES = (0j, 1 + 0j, 1 + 0j, 0j)
CHECK_ORDER = {
    weakvalue_intensity: {
        "alpha_rad": (0.1, math.nan),
        "i_ref_norm": (0.25, 0.0),
        "weak_values": (WEAK_VALUES, BAD_WEAK_VALUES),
        "path": (Path.I, "I"),
    },
    estimate_sigma_pi: {
        "alpha_rad": (0.2, np.float64(math.inf)),
        "i_ref_norm": (0.25, -1.0),
        "i_mag_norm": (0.25, np.float64(math.nan)),
        "pi_w": (0.0, None),
        "sigma_i_mag": (0.0, np.float64(-1.0)),
        "sigma_i_ref": (0.0, math.nan),
    },
    estimate_pi_from_absorber: {
        "transmissivity": (0.5, 1.0),
        "i_ref_norm": (0.25, np.float64(0.0)),
        "i_abs_norm": (0.2, np.float64(math.inf)),
        "sigma_i_abs": (0.0, -1.0),
        "sigma_i_ref": (0.0, "x"),
    },
    modular_value: {
        "c": (1.0, math.inf),
        "s": (0.0, np.float64(math.nan)),
        "weak_values": (WEAK_VALUES, BAD_WEAK_VALUES),
        "path": (Path.I, "I"),
    },
}
FIRST_OF_TWO = [
    (function, first, second)
    for function, params in CHECK_ORDER.items()
    for i, first in enumerate(params)
    for second in list(params)[i + 1:]
]


@pytest.mark.parametrize(
    "function, first, second", FIRST_OF_TWO, ids=[f"{f.__name__}-{a}-{b}" for f, a, b in FIRST_OF_TWO]
)
def test_weak_layer_names_the_first_of_two_bad_arguments(function, first, second):
    params = CHECK_ORDER[function]
    arguments = {name: good for name, (good, _) in params.items()}
    arguments[first], arguments[second] = params[first][1], params[second][1]
    with pytest.raises((ValueError, TypeError), match=f"^{first} must "):
        function(**arguments)


@pytest.mark.parametrize("call", [c for _, c in PATHS], ids=[n for n, _ in PATHS])
def test_path_parameter_rejects_what_is_not_a_path(call):
    with pytest.raises(TypeError, match=r"^path must be a Path, got 'I'$"):
        call("I")


@pytest.mark.parametrize("call", [c for _, c in TRUNCATIONS], ids=[n for n, _ in TRUNCATIONS])
def test_truncation_parameter_rejects_what_is_not_a_truncation(call):
    with pytest.raises(TypeError, match=r"^truncation must be a Truncation, got 'exact'$"):
        call(Truncation.EXACT.value)


@pytest.mark.parametrize(
    "parameter, kind, call", [o[1:] for o in OBJECTS], ids=[f"{f}.{p}" for f, p, _, _ in OBJECTS]
)
def test_object_parameter_rejects_what_is_not_its_class(parameter, kind, call):
    # the amplitudes or matrix of the right object, as a bare array, or the
    # weak values as a bare tuple: the right content without the class
    bad = {
        JointOperator: path_projector_operator(Path.I).matrix,
        JointState: initial_state().amp,
        WeakValueSet: (0j, 1 + 0j, 1 + 0j, 0j),
        Scenario: (None, 0.0),
    }[kind]
    with pytest.raises(TypeError) as info:
        call(bad)
    assert str(info.value).startswith(f"{parameter} must be a {kind.__name__}, got "), str(info.value)


# (function, parameter, a call passing ``v`` as that grid and valid values elsewhere)
GRIDS = [
    ("run_batch", "chi_rad", lambda v: run_batch(Scenario(), chi_rad=v)),
    ("run_batch", "alpha_rad", lambda v: run_batch(MAGNET_II, alpha_rad=v)),
    ("sweep_chi", "chi_values", lambda v: sweep_chi(Scenario(), v)),
    ("sweep_alpha", "alpha_values", lambda v: sweep_alpha(MAGNET_II, v)),
    ("truncation_scan", "alpha_grid", lambda v: truncation_scan(Path.II, v)),
    ("fit_loglog_slope", "x_values", lambda v: fit_loglog_slope(v, [1.0])),
    ("fit_loglog_slope", "errors", lambda v: fit_loglog_slope([1.0], v)),
]

# Not a scalar or one-dimensional array of finite real numbers: text is
# rejected even when it spells one, complex even when its imaginary part is 0.
NOT_REAL_GRIDS = [
    [math.nan],
    [math.inf],
    ["0.5"],
    "0.5",
    [1j],
    np.array([1 + 0j]),
    [[0.1], [0.2, 0.3]],
    np.zeros((2, 2)),
    # object arrays with an entry a scalar parameter rejects, or with two dimensions
    [None, 1.0],
    [1j, 10**30],
    ["0.5", 10**30],
    [[10**30, 1], [2, 3]],
]

# Grids with an entry past the physical domain, by id: the last two once
# overflowed the scan's readout at 1e200 and at 3e154.
GRIDS_PAST = {
    **{repr([a]): [a] for a in ANGLES_PAST},
    "scan-to-1e200": np.r_[np.geomspace(0.01, 0.3, 10), 1e200],
    "geomspace-to-3e154": np.geomspace(0.01, 3e154, 50),
}
GRIDS_PAST_THE_DOMAIN = {
    ("run_batch", "alpha_rad"): GRIDS_PAST,
    ("sweep_alpha", "alpha_values"): GRIDS_PAST,
    ("truncation_scan", "alpha_grid"): GRIDS_PAST,
}

# (id, parameter, call, a grid it rejects) for every grid row
GRID_CASES = [
    (f"{f}.{p}-{label}", p, call, bad)
    for f, p, call in GRIDS
    for label, bad in [(repr(g), g) for g in NOT_REAL_GRIDS] + [*GRIDS_PAST_THE_DOMAIN.get((f, p), {}).items()]
]


@pytest.mark.parametrize("parameter, call, bad", [c[1:] for c in GRID_CASES], ids=[c[0] for c in GRID_CASES])
def test_grid_parameter_rejects_what_is_not_a_real_grid(parameter, call, bad):
    with pytest.raises(ValueError) as info:
        call(bad)
    # the message of the grid rule, not of a later check such as a length
    forms = (f"{parameter} entries must ", f"{parameter} must be a scalar or one-dimensional array")
    assert str(info.value).startswith(forms), str(info.value)


def test_grid_error_names_the_first_bad_entry():
    with pytest.raises(ValueError, match=r"^chi_rad entries must be finite, got nan at index 1$"):
        run_batch(Scenario(), chi_rad=[0.0, math.nan, math.inf])


def test_sweep_takes_a_generator():
    assert sweep_chi(Scenario(), (chi for chi in [0.0, 1.0])) == sweep_chi(Scenario(), [0.0, 1.0])


def test_sweep_takes_an_empty_list():
    assert sweep_chi(Scenario(), []) == []


GRID_ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.integers(-3, 3),
    # past uint64, numpy makes an object array; past a float, the rule fails
    st.sampled_from([10**30, -(10**30), 10**400, -(10**400)]),
    # numpy scalars and fractions, which an object array holds as they are
    st.integers(-3, 3).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.fractions(max_denominator=10),
    st.sampled_from([Fraction(1, 3), Fraction(10**400, 3)]),
)


@given(entries=st.lists(GRID_ENTRIES, max_size=6), rule=st.sampled_from(sorted(_RULES)))
def test_grid_rule_is_the_scalar_rule_entry_by_entry(entries, rule):
    def meets(value):
        try:
            _require_real("x", value, rule)
        except ValueError:
            return False
        return True

    try:
        grid = _require_grid("x", entries, rule)
    except ValueError as exc:
        assert not all(map(meets, entries)), str(exc)
        assert str(exc).startswith(f"x entries must {rule}, got ")
    else:
        assert all(map(meets, entries))
        # the same float64 bits as the plain conversion
        assert grid.dtype == np.float64 and grid.shape == (len(entries),)
        assert grid.tobytes() == np.asarray(entries, dtype=float).tobytes()


@pytest.mark.parametrize(
    "values", [0.5, 3, True, np.float32(0.1), [1, 2.5], [True, False], np.arange(3, dtype=np.int8)]
)
def test_grid_reads_real_scalars_and_arrays_as_float64(values):
    expected = np.atleast_1d(np.asarray(values, dtype=float))
    assert _require_grid("x", values).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "values", [[10**30], [0.5, 10**30], 10**30, [True, -(10**30), 2.5], [np.int64(3), 10**30]]
)
def test_grid_reads_python_ints_past_uint64_as_a_scalar_does(values):
    grid = run_batch(Scenario(), chi_rad=values)
    expected = [run_batch(Scenario(chi_rad=value)) for value in np.atleast_1d(values).tolist()]
    assert grid.tobytes() == np.concatenate(expected).tobytes()


def test_grid_int_too_large_for_a_float_names_the_parameter():
    with pytest.raises(ValueError, match=r"^chi_rad entries must be finite, got -1000+ at index 1$"):
        run_batch(Scenario(), chi_rad=[0.5, -(10**400)])


@pytest.mark.parametrize("norm", [10**400, -(10**400)], ids=["positive", "negative"])
def test_count_rate_of_an_int_past_the_float_range_names_the_intensity(norm):
    with pytest.raises(ValueError, match=r"^intensity_norm of magnitude inf has no finite count rate$"):
        count_rate(norm, 11.25)
    assert count_rate(2**60, 1.0) == float(2**62)  # an int inside the float range keeps its rate


def _require_real_two_tests(name, value, rule="be finite"):
    """The scalar check written with its float test twice, once to convert and
    once to decide: the reference that ``_require_real``, which tests a Python
    float once and converts anything else off that path, must agree with."""
    if type(value) is not float and not isinstance(value, (str, bytes)):
        try:
            value = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    low, high, excluded = _RULES[rule]
    if type(value) is float and low <= value <= high and value != excluded:
        return value
    raise ValueError(f"{name} must {rule}, got {value!r}")


def _outcome(check, value, rule):
    """What ``check`` makes of ``value``: the type and bits returned, or the message."""
    try:
        result = check("x", value, rule)
    except ValueError as exc:
        return "error", str(exc)
    return type(result), np.float64(result).view(np.int64)


# every rule's bounds with their neighbours, the signed zeros and the non-finite
# floats, each also as a numpy scalar, then other numbers and non-numbers
_EDGES = [
    edge
    for bound in sorted({x for low, high, _ in _RULES.values() for x in (low, high)})
    for edge in (math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf))
] + [0.0, -0.0, math.nan, math.inf, -math.inf]
_FLOAT32_EDGES = [
    edge
    for bound in map(np.float32, [x for x in _EDGES if not abs(x) > 3e38])
    for edge in (np.nextafter(bound, np.float32(-np.inf)), bound, np.nextafter(bound, np.float32(np.inf)))
]
_SCALAR_INPUTS = (
    _EDGES
    + [np.float64(x) for x in _EDGES]
    + _FLOAT32_EDGES
    + [np.int64(x) for x in (0, 1, -1, 10**6, 10**6 + 1, -(10**6) - 1, 10**12, 2**63 - 1, -(2**63))]
    + [True, False, np.True_, np.False_]
    + [10**400, -(10**400), "0.5", b"1", None, 1j]
)


@pytest.mark.parametrize("rule", list(_RULES))
def test_scalar_check_matches_the_two_test_reference(rule):
    for value in _SCALAR_INPUTS:
        assert _outcome(_require_real, value, rule) == _outcome(_require_real_two_tests, value, rule), value
