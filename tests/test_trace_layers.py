"""The names the benchmark's per-layer tracer wraps must exist in cheshire.

``perfbench/tracing.py`` looks each name of its ``LAYERS`` table up on the
cheshire module that defines it, and counts ``experiment.IntensityRecord``
constructions.  A cleanup that deletes or moves one of them would break
``perfbench/run.py --trace 1``; these tests catch that in the suite.
"""

import importlib
import importlib.util
from pathlib import Path as FilePath

import pytest

TRACING = FilePath(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYER_NAMES = [
    (layer.split(".")[0], name) for layer, names in _load_tracing().LAYERS.items() for name in names
]


@pytest.mark.parametrize("module, name", LAYER_NAMES, ids=[f"{m}.{n}" for m, n in LAYER_NAMES])
def test_traced_name_resolves_on_its_home_module(module, name):
    home = importlib.import_module(f"cheshire.{module}")
    assert callable(getattr(home, name, None)), f"cheshire.{module}.{name} is gone"


def test_intensity_record_exists():
    experiment = importlib.import_module("cheshire.experiment")
    assert isinstance(getattr(experiment, "IntensityRecord", None), type)


def test_the_tracer_counts_three_records_per_run_and_uninstalls():
    # the traced benchmark's experiment.records figure is this counter
    cheshire = importlib.import_module("cheshire")
    importlib.import_module("cheshire.cli")
    experiment = importlib.import_module("cheshire.experiment")
    original = experiment.IntensityRecord.__init__
    tracer = _load_tracing().Tracer()
    tracer.install(cheshire)
    try:
        before = tracer.records
        records = experiment.run(experiment.Scenario(None, 0.5))
        assert tracer.records - before == 3 and len(records) == 3
        assert tracer.calls["experiment.run"] == 1
    finally:
        tracer.uninstall()
    assert experiment.IntensityRecord.__init__ is original
    assert not hasattr(experiment.run, "__wrapped__")
