"""Every committed ``BENCH_*.json`` speaks the benchmark's own vocabulary.

A BENCH file records one change's before/after numbers from
``perfbench/run.py``.  Its workloads must be workloads of ``BENCHMARK.json``,
and each metric it reports must be one that ``BENCHMARK.json`` declares, in
the section it declares it in (``end_to_end`` or ``per_layer``) and with the
same unit, so that a reader can set every figure against its bound.  A file
that claims a gain names one declared end-to-end metric of one workload, and
its own runs must bear the claim out: the change better in at least nine
pairs of ten, and its median better than the parent's by more than the
parent's interquartile range.
"""

import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SECTIONS = ("end_to_end", "per_layer")


CLAIMS = [path for path in BENCH_FILES if json.loads(path.read_text()).get("claim")]


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


@pytest.mark.parametrize("path", CLAIMS, ids=lambda p: p.name)
def test_a_claimed_gain_is_borne_out_by_the_files_own_runs(path):
    bench = json.loads(path.read_text())
    claim = bench["claim"]
    assert claim["workload"] in {w["name"] for w in BENCHMARK["workloads"]}, claim
    assert claim["metric"] in declared("end_to_end"), claim
    assert claim["better"] == declared("end_to_end")[claim["metric"]]["better"], claim
    runs = bench["workloads"][claim["workload"]]["end_to_end"]
    metric = runs["metrics"][claim["metric"]]
    # signed so that a positive figure is better
    sign = 1.0 if claim["better"] == "higher" else -1.0
    parent, change = np.array(metric["parent"]["runs"]), np.array(metric["change"]["runs"])
    assert parent.size == change.size == runs["pairs"]
    wins = int(np.count_nonzero(sign * (change - parent) > 0))
    assert wins == metric["wins"] and 10 * wins >= 9 * runs["pairs"], (wins, runs["pairs"])
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    assert (median, q3 - q1) == (metric["parent"]["median"], metric["parent"]["iqr"])
    assert sign * (np.median(change) - median) > q3 - q1
