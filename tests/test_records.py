"""The per-call records and the per-call enums keep the contract of their
plain declarations.

``IntensityRecord``, ``CountSample`` and ``WeakValueEstimate`` are frozen
dataclasses with a written-out ``__init__``.  Each is set here against a
reference twin declared with plain ``@dataclass(frozen=True)``, the twin of
``WeakValueEstimate`` with its check in ``__post_init__``; the twins carry
the real classes' names, so that reprs and error messages can be compared
whole.  Both must give the same fields, call signature, repr, equality,
hash, ``replace``, ``asdict`` and pickle round-trip, the same
``FrozenInstanceError`` on set and delete, and the same ``TypeError`` and
``ValueError`` messages.  The return annotation of ``__init__`` is left out
of the comparison: the generated one holds ``None``, a written-out one under
``from __future__ import annotations`` the text ``'None'``.

``Detector`` and ``Truncation`` hash by identity, which agrees with their
``==``; their members stay singletons through pickle and copy.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import math
import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from cheshire import analysis, experiment, weak
from cheshire.elements import Truncation
from cheshire.experiment import Detector, Magnet, Scenario, run
from cheshire.qcore import _MAX, Path, _require_real


@dataclass(frozen=True)
class IntensityRecord:
    scenario: Scenario
    detector: Detector
    intensity_norm: float
    intensity_cps: float
    scale_ref_cps: float


@dataclass(frozen=True)
class CountSample:
    rate_cps: float
    duration_s: float
    seed: int
    counts: int
    est_rate_cps: float
    est_sigma_cps: float


@dataclass(frozen=True)
class WeakValueEstimate:
    value: float
    uncertainty: float
    source: str

    def __post_init__(self) -> None:
        v, u = self.value, self.uncertainty
        if not (type(v) is float is type(u) and -_MAX <= v <= _MAX and 0.0 <= u <= _MAX):
            _require_real("estimate value", v)
            _require_real("uncertainty", u, "be >= 0")


# (real class, twin, field values, one field name and another value for it)
CASES = [
    (
        experiment.IntensityRecord,
        IntensityRecord,
        (Scenario(Magnet(Path.II, 0.3, Truncation.QUADRATIC), 0.5), Detector.H, 0.25, 11.25, 11.25),
        ("intensity_norm", 0.125),
    ),
    (analysis.CountSample, CountSample, (11.25, 10.0, 7, 113, 11.3, 1.063), ("counts", 112)),
    (weak.WeakValueEstimate, WeakValueEstimate, (0.97, 0.02, "magnet-inversion"), ("uncertainty", 0.0)),
]
IDS = [case[1].__name__ for case in CASES]


def _outcome(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as error:
        return type(error), str(error)


@pytest.fixture(params=CASES, ids=IDS)
def pair(request):
    return request.param


def test_fields_and_signature_are_the_plain_declarations(pair):
    real, twin, _, _ = pair
    described = [
        [(f.name, f.type, f.default, f.init, f.repr, f.compare, f.hash) for f in dataclasses.fields(cls)]
        for cls in (real, twin)
    ]
    assert described[0] == described[1]
    assert inspect.signature(real).parameters == inspect.signature(twin).parameters
    assert real.__match_args__ == twin.__match_args__
    assert real.__dataclass_params__.frozen and real.__dataclass_params__.eq


def test_repr_eq_and_hash_are_the_plain_declarations(pair):
    real, twin, values, (name, other) = pair
    a, b = real(*values), twin(*values)
    assert repr(a) == repr(b)
    assert hash(a) == hash(b)
    for cls in (real, twin):
        kw = dict(zip((f.name for f in dataclasses.fields(cls)), values))
        assert cls(*values) == cls(**kw)
        assert cls(*values) != cls(**{**kw, name: other})
    assert a != b  # instances of two classes never compare equal


def test_replace_asdict_and_pickle_are_the_plain_declarations(pair):
    real, twin, values, (name, other) = pair
    a, b = real(*values), twin(*values)
    changed = dataclasses.replace(a, **{name: other})
    assert type(changed) is real and getattr(changed, name) == other
    assert repr(changed) == repr(dataclasses.replace(b, **{name: other}))
    assert dataclasses.asdict(a) == dataclasses.asdict(b)
    assert dataclasses.astuple(a) == dataclasses.astuple(b)
    for obj in (a, b):
        loaded = pickle.loads(pickle.dumps(obj))
        assert type(loaded) is type(obj) and loaded == obj and vars(loaded) == vars(obj)


def test_fields_are_frozen_as_in_the_plain_declarations(pair):
    real, twin, values, (name, other) = pair
    a, b = real(*values), twin(*values)
    for action in (lambda obj: setattr(obj, name, other), lambda obj: delattr(obj, name)):
        outcomes = [_outcome(lambda: action(obj)) for obj in (a, b)]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is dataclasses.FrozenInstanceError
    assert vars(a) == vars(b)


def test_bad_calls_raise_the_plain_declarations_type_errors(pair):
    real, twin, values, _ = pair
    first = dataclasses.fields(twin)[0].name
    calls = [
        ((), {}),  # every argument missing
        (values[:-1], {}),  # the last one missing
        ((*values, 1.0), {}),  # one too many
        (values, {"colour": "red"}),  # an unknown keyword
        (values, {first: values[0]}),  # a field given twice
        (values[1:], {"colour": "red"}),
    ]
    for args, kwargs in calls:
        outcomes = [_outcome(lambda: cls(*args, **kwargs)) for cls in (real, twin)]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is TypeError


BAD_ESTIMATES = [
    (value, uncertainty)
    for value in (0.5, math.nan, math.inf, -math.inf, "x", None, 10**400, np.float64(0.5), 3, True, -0.0)
    for uncertainty in (0.1, math.nan, math.inf, -1.0, -0.0, np.float32(0.25), "u", 10**400)
]


def test_the_estimate_checks_and_words_as_the_plain_declaration():
    for value, uncertainty in BAD_ESTIMATES:
        outcomes = [
            _outcome(lambda: vars(cls(value, uncertainty, "direct")))
            for cls in (weak.WeakValueEstimate, WeakValueEstimate)
        ]
        assert outcomes[0] == outcomes[1], (value, uncertainty)


ENUMS = [*Detector, *Truncation]


@pytest.mark.parametrize("member", ENUMS, ids=str)
def test_members_hash_by_identity_and_stay_singletons(member):
    assert hash(member) == object.__hash__(member)
    assert type(member)(member.value) is member
    assert pickle.loads(pickle.dumps(member)) is member
    assert copy.copy(member) is member and copy.deepcopy(member) is member
    assert {member: 1}[type(member)(member.value)] == 1


def test_lookup_by_value_is_the_member():
    assert Detector("H") is Detector.H and Truncation("exact") is Truncation.EXACT


@pytest.mark.parametrize("insertion", [None, Magnet(Path.I, 0.3, Truncation.LINEAR)], ids=["empty", "magnet"])
def test_run_keys_and_their_order_are_the_detectors(insertion):
    records = run(Scenario(insertion, 0.5))
    assert list(records) == [Detector.O_SELECTED, Detector.O_UNSELECTED, Detector.H]
    assert [record.detector for record in records.values()] == list(records)
