"""The three benchmark workloads, built from a seed.

Each workload is a list of operations that the runner repeats in whole
rounds.  An operation has

* ``call()``: the timed call into cheshire's public API,
* ``observe(output)``: turns the output into plain values (floats, strings),
* ``check(observation)``: compares those values with :mod:`oracle`,
* ``points``: scenario evaluations it performs (one grid point, or one
  truncation at one angle, is one point; each point reads three detectors).

The discrete make-up of each workload (which insertions, paths,
truncations and grid sizes) is fixed; the seed draws the continuous inputs
(angles, phases, transmissivities, grid ranges, scales) and the order of
operations.  That keeps each round's cost mix the same from seed to seed
while the values the program sees change.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field
from pathlib import Path as FilePath
from typing import Callable

import numpy as np

import cheshire
import cheshire.cli
import oracle

PATHS = {"I": cheshire.Path.I, "II": cheshire.Path.II}
TRUNCATIONS = ("exact", "linear", "quadratic")
DETECTORS = (cheshire.Detector.O_SELECTED, cheshire.Detector.O_UNSELECTED, cheshire.Detector.H)
# Path weak values <Pi_j>_w of the standard pre/post-selection.
PI_W = {"I": 0.0, "II": 1.0}
COUNT_DURATION_S = 100.0


@dataclass
class Op:
    name: str
    points: int
    call: Callable[[], object]
    observe: Callable[[object], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # Checks over a whole round of first observations, run once.
    round_check: Callable[[list], None] = lambda observations: None
    # Operations run once before the timed rounds (checked, not timed).
    once: list[Op] = field(default_factory=list)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# --------------------------------------------------------------------- grid-sweep

SWEEP_SIZES = (12, 30, 75)
MEMORY_SWEEP_POINTS = 24_000


def _sweep_spec(rng: random.Random, kind: str, path: str, truncation: str, vary: str, points: int) -> dict:
    spec = {"kind": kind, "path": path, "truncation": truncation, "vary": vary, "points": points,
            "scale": round(rng.uniform(1.0, 50.0), 6)}
    if kind == "absorber":
        spec["transmissivity"] = rng.random()
    if kind == "magnet":
        spec["alpha"] = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 1.0)
    if vary == "chi":
        spec["start"] = rng.uniform(-math.pi, 0.0)
        spec["stop"] = rng.uniform(math.pi, 2.0 * math.pi)
    else:
        spec["start"] = _log_uniform(rng, 1e-3, 1e-2)
        spec["stop"] = rng.uniform(0.2, 1.0)
        spec["chi"] = rng.uniform(-math.pi, math.pi)
    return spec


def _sweep_argv(spec: dict, csv_path: FilePath) -> list[str]:
    argv = ["sweep", "--insertion", spec["kind"], "--path", spec["path"], "--vary", spec["vary"],
            "--start", repr(spec["start"]), "--stop", repr(spec["stop"]),
            "--points", str(spec["points"]), "--scale-ref-cps", repr(spec["scale"]),
            "--csv", str(csv_path)]
    if spec["kind"] == "absorber":
        argv += ["--transmissivity", repr(spec["transmissivity"])]
    else:
        # An alpha sweep replaces the template angle at every grid point.
        argv += ["--truncation", spec["truncation"], "--alpha-rad", repr(spec["alpha"])]
    if spec["vary"] == "alpha":
        argv += ["--chi-rad", repr(spec["chi"])]
    return argv


def sweep_op(spec: dict, csv_path: FilePath) -> Op:
    argv = _sweep_argv(spec, csv_path)
    sid = oracle.scenario_id(spec["kind"], spec["path"], spec["truncation"], spec.get("transmissivity", 1.0))
    label = f"{spec['vary']}-sweep {sid} n={spec['points']}"

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cheshire.cli.main(argv)
        return code, out.getvalue()

    def observe(output):
        code, stdout = output
        if not csv_path.exists():
            return code, stdout, None
        text = csv_path.read_bytes().decode("utf-8")
        csv_path.unlink()
        return code, stdout, text

    def check(observation):
        code, stdout, text = observation
        if code != 0:
            raise oracle.CheckFailure(f"{label}: exit code {code}")
        expected = f"wrote {3 * spec['points']} rows to {csv_path}\n"
        if stdout != expected or text is None:
            raise oracle.CheckFailure(f"{label}: stdout {stdout!r}, expected {expected!r}")
        oracle.check_sweep_csv(text, spec)

    return Op(label, spec["points"], call, observe, check)


def grid_sweep(seed: int, workdir: FilePath) -> Workload:
    rng = random.Random(seed)
    templates = [("magnet", p, t, v) for p in PATHS for t in TRUNCATIONS for v in ("chi", "alpha")]
    templates += [("absorber", p, "exact", "chi") for p in PATHS]
    cells = [(tpl, n) for tpl in templates for n in SWEEP_SIZES]
    rng.shuffle(cells)
    ops = []
    for i, ((kind, path, trunc, vary), n) in enumerate(cells):
        spec = _sweep_spec(rng, kind, path, trunc, vary, n)
        ops.append(sweep_op(spec, workdir / f"sweep-{i:02d}.csv"))
    big = _sweep_spec(rng, "magnet", "I", "exact", "chi", MEMORY_SWEEP_POINTS)
    return Workload("grid-sweep", ops, once=[sweep_op(big, workdir / "sweep-memory.csv")])


# ------------------------------------------------------------------- scenario-mix

MIX_PER_CELL = 24


def _scenario(kind: str, path: str | None, truncation: str, alpha: float, transmissivity: float,
              chi: float) -> cheshire.Scenario:
    if kind == "none":
        insertion = None
    elif kind == "absorber":
        insertion = cheshire.Absorber(path=PATHS[path], transmissivity=transmissivity)
    else:
        insertion = cheshire.Magnet(path=PATHS[path], alpha_rad=alpha,
                                    truncation=cheshire.Truncation(truncation))
    return cheshire.Scenario(insertion=insertion, chi_rad=chi)


def mix_op(kind: str, path: str | None, truncation: str, alpha: float, transmissivity: float,
           chi: float, scale: float, count_seed: int) -> Op:
    scenario = _scenario(kind, path, truncation, alpha, transmissivity, chi)
    label = f"{oracle.scenario_id(kind, path, truncation, transmissivity)} alpha={alpha:.6g} chi={chi:.6g}"
    estimate = None
    if chi == 0.0 and kind == "magnet":
        def estimate(o_sel):
            return cheshire.estimate_sigma_pi(o_sel, cheshire.I_REF_NORM, alpha, PI_W[path])
    elif chi == 0.0 and kind == "absorber":
        def estimate(o_sel):
            return cheshire.estimate_pi_from_absorber(o_sel, cheshire.I_REF_NORM, transmissivity)

    def call():
        records = cheshire.run(scenario, scale)
        selected = records[cheshire.Detector.O_SELECTED]
        sample = cheshire.poisson_counts(selected.intensity_cps, COUNT_DURATION_S, count_seed)
        est = estimate(selected.intensity_norm) if estimate else None
        return records, sample, est

    def observe(output):
        records, sample, est = output
        return (tuple(records[d].intensity_norm for d in DETECTORS),
                tuple(records[d].intensity_cps for d in DETECTORS),
                (sample.rate_cps, sample.duration_s, sample.counts, sample.est_rate_cps, sample.est_sigma_cps),
                None if est is None else est.value)

    def check(observation):
        norms, cps, (rate, duration, counts, est_rate, est_sigma), est = observation
        oracle.check_point(label, kind, path, chi, alpha, truncation, transmissivity, scale, norms, cps)
        oracle.check_poisson_sample(label, cps[0], duration, counts, est_rate, est_sigma, rate)
        if duration != COUNT_DURATION_S:
            raise oracle.CheckFailure(f"{label}: counting duration {duration!r}")
        if (est is None) != (estimate is None):
            raise oracle.CheckFailure(f"{label}: estimator result {est!r} where none was expected")
        if est is not None and kind == "magnet":
            oracle.check_sigma_pi_estimate(label, path, alpha, truncation, est)
        elif est is not None:
            oracle.check_absorber_estimate(label, path, transmissivity, est)

    return Op(label, 1, call, observe, check)


def _poisson_round_check(observations: list) -> None:
    total = sum(obs[2][2] for obs in observations)
    expected = sum(obs[2][0] * obs[2][1] for obs in observations)
    oracle.check_poisson_total("scenario-mix round", total, expected)


def scenario_mix(seed: int, workdir: FilePath) -> Workload:
    rng = random.Random(seed)
    kinds = [("none", None, "exact")] + [("absorber", p, "exact") for p in PATHS]
    kinds += [("magnet", p, t) for p in PATHS for t in TRUNCATIONS]
    cells = [(k, chi_zero) for k in kinds for chi_zero in (True, False)] * MIX_PER_CELL
    rng.shuffle(cells)
    ops = []
    for (kind, path, trunc), chi_zero in cells:
        alpha = rng.choice((-1.0, 1.0)) * _log_uniform(rng, 1e-3, math.pi) if kind == "magnet" else 0.0
        transmissivity = rng.random() if kind == "absorber" else 1.0
        chi = 0.0 if chi_zero else rng.uniform(-math.pi, math.pi)
        scale = rng.uniform(1.0, 100.0)
        ops.append(mix_op(kind, path, trunc, alpha, transmissivity, chi, scale,
                          rng.randrange(2 ** 32)))
    return Workload("scenario-mix", ops, round_check=_poisson_round_check)


# --------------------------------------------------------------------- order-scan

SCAN_SIZES = tuple(range(10, 30, 2))


def scan_ops(path: str, grid: np.ndarray) -> list[Op]:
    """The paper's computation on one grid, as three operations run in order.

    ``truncation_scan``; ``cheshire_witness`` at the grid maximum; then, at
    every grid point, ``weakvalue_intensity`` from ``exact_weak_values()``
    and ``estimate_sigma_pi`` on the scan's exact intensity.
    """
    label = f"path {path} n={grid.size} alpha=[{grid[0]:.4g}, {grid[-1]:.4g}]"
    path_enum = PATHS[path]
    alphas = [float(a) for a in grid]
    latest = {}

    def scan():
        latest["report"] = cheshire.truncation_scan(path_enum, grid)
        return latest["report"]

    def observe_scan(report):
        return ([float(a) for a in report.alpha_grid], [float(v) for v in report.i_exact],
                [float(v) for v in report.i_linear], [float(v) for v in report.i_quadratic],
                report.error_exponent_linear, report.error_exponent_quadratic)

    def check_scan(observation):
        if observation[0] != alphas:
            raise oracle.CheckFailure(f"scan {label}: report grid is not the requested grid")
        oracle.check_scan(f"scan {label}", path, *observation)

    def witness():
        return cheshire.cheshire_witness(alphas[-1])

    def observe_witness(w):
        return w.alpha_rad, w.deficit_linear, w.deficit_quadratic, w.deficit_exact

    def check_witness(observation):
        if observation[0] != alphas[-1]:
            raise oracle.CheckFailure(f"witness {label}: angle {observation[0]!r} is not the grid maximum")
        oracle.check_witness(f"witness {label}", *observation)

    def weak():
        per_point = []
        for alpha, i_exact in zip(alphas, latest["report"].i_exact):
            wv = cheshire.exact_weak_values()
            pi_w = (wv.pi_i if path == "I" else wv.pi_ii).real
            predicted = cheshire.weakvalue_intensity(alpha, path_enum, wv, cheshire.I_REF_NORM)
            est = cheshire.estimate_sigma_pi(i_exact, cheshire.I_REF_NORM, alpha, pi_w)
            per_point.append((wv, predicted, est))
        return per_point

    def observe_weak(per_point):
        return [((wv.pi_i, wv.pi_ii, wv.sigma_pi_i, wv.sigma_pi_ii), predicted, est.value)
                for wv, predicted, est in per_point]

    def check_weak(observation):
        if len(observation) != len(alphas):
            raise oracle.CheckFailure(f"weak {label}: {len(observation)} points for {len(alphas)} angles")
        for alpha, (values, predicted, est) in zip(alphas, observation):
            oracle.check_weak_values(*values)
            oracle.check_weakvalue_intensity(f"weak {label}", path, alpha, predicted)
            oracle.check_sigma_pi_estimate(f"weak {label} alpha={alpha:.6g}", path, alpha, "exact", est)

    return [Op(f"scan {label}", 3 * grid.size, scan, observe_scan, check_scan),
            Op(f"witness {label}", 3, witness, observe_witness, check_witness),
            Op(f"weak {label}", 0, weak, observe_weak, check_weak)]


def reproduce_op() -> Op:
    scale = cheshire.DEFAULT_SCALE_REF_CPS

    def call():
        return cheshire.reproduce_benchmark_table(scale)

    def observe(rows):
        return [(r.quantity, r.theory_norm, r.theory_cps, r.measured_cps, r.measured_sigma_cps, r.agrees)
                for r in rows]

    return Op("reproduce_benchmark_table", 0, call, observe, lambda rows: oracle.check_reproduce(rows, scale))


def order_scan(seed: int, workdir: FilePath) -> Workload:
    rng = random.Random(seed)
    cells = [(p, n) for p in PATHS for n in SCAN_SIZES]
    rng.shuffle(cells)
    ops = []
    for path, n in cells:
        grid = np.geomspace(_log_uniform(rng, 2e-3, 2e-2), rng.uniform(0.2, 0.6), n)
        ops += scan_ops(path, grid)
    ops.append(reproduce_op())
    return Workload("order-scan", ops)


WORKLOADS = {"grid-sweep": grid_sweep, "scenario-mix": scenario_mix, "order-scan": order_scan}


def first_op(workload: str, workdir: FilePath) -> Op:
    """A small fixed operation of the workload's kind, for set-up timing."""
    if workload == "grid-sweep":
        spec = {"kind": "magnet", "path": "I", "truncation": "exact", "vary": "chi", "points": 24,
                "scale": 11.25, "start": 0.0, "stop": 2.0 * math.pi, "alpha": math.radians(20.0)}
        return sweep_op(spec, workdir / "sweep-first.csv")
    if workload == "scenario-mix":
        return mix_op("magnet", "II", "exact", math.radians(20.0), 1.0, 0.0, 11.25, 7)
    return scan_ops("II", np.geomspace(0.01, 0.3, 10))[0]
