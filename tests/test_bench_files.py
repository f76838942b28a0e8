"""Every committed ``BENCH_*.json`` speaks the benchmark's own vocabulary.

A BENCH file records one change's before/after numbers from
``perfbench/run.py``.  Its workloads must be workloads of ``BENCHMARK.json``,
and each metric it reports must be one that ``BENCHMARK.json`` declares, in
the section it declares it in (``end_to_end`` or ``per_layer``) and with the
same unit, so that a reader can set every figure against its bound.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SECTIONS = ("end_to_end", "per_layer")


def declared(section: str) -> dict:
    return {metric["name"]: metric for metric in BENCHMARK[section]}


def summary_fields(summary: dict) -> None:
    assert {"median", "q1", "q3", "iqr", "runs"} <= summary.keys()
    assert summary["q1"] <= summary["median"] <= summary["q3"]


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_names_only_declared_workloads_and_metrics(path):
    bench = json.loads(path.read_text())
    assert {"python", "numpy", "cpu_count"} <= bench["environment"].keys()
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    assert bench["workloads"], "a BENCH file reports at least one workload"
    for workload, sections in bench["workloads"].items():
        assert workload in workloads, workload
        assert sections and set(sections) <= set(SECTIONS), (workload, sorted(sections))
        for section, runs in sections.items():
            assert {"command", "pairs", "seconds", "seeds", "correct", "failed"} <= runs.keys()
            assert f"--workload {workload}" in runs["command"]
            assert len(runs["seeds"]) == runs["pairs"]
            names = declared(section)
            for name, metric in runs["metrics"].items():
                assert name in names, (workload, section, name)
                assert metric["unit"] == names[name]["unit"], (workload, name)
                summary_fields(metric["parent"])
                summary_fields(metric["change"])
                assert 0 <= metric["wins"] <= runs["pairs"]
