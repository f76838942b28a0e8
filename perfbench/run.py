"""cheshire benchmark: one closed-loop caller, outputs checked against an oracle.

    python3 perfbench/run.py --workload {grid-sweep,scenario-mix,order-scan}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; cheshire is imported from its ``src/``.
Prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
A summary goes to standard error and a detail file to ``.perfbench_out/``.
See README.md in this directory for the design.
"""

import os

# One process, one thread: keep numpy's BLAS from starting a thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

MIN_ROUNDS = 3
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
KEEP_SPANS_OPS = 2
MAX_PROBLEMS = 20


def run_probe(workload: str, workdir: Path) -> dict:
    """Time one fresh interpreter from start to its first checked result."""
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(workdir)],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report.pop("done_at") - started
    return report


def tail_rank(n: int) -> int:
    """Index into n sorted samples with exactly ten samples beyond it."""
    return max(n - 11, 0)


class Runner:
    """Repeats a workload's operations in whole rounds for a fixed time.

    Every operation keeps its fastest time over all rounds.  The first
    output of each operation is checked against the oracle; every later
    output must equal it exactly.  Set-up probes are spread evenly over
    the timed window, between operations.
    """

    def __init__(self, workload, seconds: float, probe, tracer=None):
        self.workload = workload
        self.seconds = seconds
        self.probe = probe
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0
        self.problems: list[str] = []  # the first MAX_PROBLEMS messages
        self.best = [math.inf] * len(workload.ops)
        self.first: list = [None] * len(workload.ops)
        self.rounds = 0
        self.probes: list[dict] = []
        self.layer_rounds: list[dict] = []

    def _execute(self, op, index=None):
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = op.call()
        except Exception as exc:  # an operation the program failed: counted, not fatal
            self.failed += 1
            self._report(f"{op.name}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        observation = op.observe(output)
        if index is None or self.first[index] is None:
            try:
                op.check(observation)
            except AssertionError as exc:
                self._check_failed(str(exc))
                observation = None
            if index is not None:
                self.first[index] = observation
        elif observation != self.first[index]:
            self._check_failed(f"{op.name}: output differs from its first execution")
        if index is not None:
            self.best[index] = min(self.best[index], elapsed)
        return observation

    def run(self) -> None:
        for op in self.workload.once:
            self._execute(op)
        cpus = sorted(os.sched_getaffinity(0))
        start = time.perf_counter()
        deadline = start + self.seconds
        due = [start + (j + 0.5) * self.seconds / SETUP_PROBES for j in range(SETUP_PROBES)]
        try:
            while self.rounds < MIN_ROUNDS or time.perf_counter() < deadline:
                # Alternate rounds between the CPUs: each CPU has slow phases of
                # its own, so every operation gets repeats on both.
                os.sched_setaffinity(0, {cpus[self.rounds % len(cpus)]})
                self._round(due)
        finally:
            os.sched_setaffinity(0, cpus)
        for _ in due:
            self._probe()

    def _round(self, due: list[float]) -> None:
        before = self.tracer.snapshot() if self.tracer else None
        csv_bytes = 0
        for i, op in enumerate(self.workload.ops):
            if self.tracer:
                self.tracer.keep_spans = self.rounds == 0 and i < KEEP_SPANS_OPS
            observation = self._execute(op, i)
            if self.tracer and observation is not None and self.workload.name == "grid-sweep":
                csv_bytes += len(observation[2].encode("utf-8"))
            while due and time.perf_counter() >= due[0]:
                due.pop(0)
                self._probe()
        if self.tracer:
            after = self.tracer.snapshot()
            delta = {k: after[k] - before[k] for k in after}
            delta["cli.csv_bytes"] = csv_bytes
            self.layer_rounds.append(delta)
        if self.rounds == 0 and all(obs is not None for obs in self.first):
            try:
                self.workload.round_check(self.first)
            except AssertionError as exc:
                self._check_failed(str(exc))
        self.rounds += 1

    def _probe(self) -> None:
        report = self.probe()
        if report["error"]:
            self._check_failed(f"set-up probe: {report['error']}")
        self.probes.append(report)

    def _report(self, message: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def _check_failed(self, message: str) -> None:
        self.check_failures += 1
        self._report(f"check failed: {message}")

    @property
    def correct(self) -> bool:
        return self.check_failures == 0

    def points_per_round(self) -> int:
        return sum(op.points for op in self.workload.ops)

    def end_to_end(self) -> dict:
        best = sorted(self.best)
        return {
            "setup_s": (statistics.median(p["setup_s"] for p in self.probes), "s"),
            "points_per_s": (self.points_per_round() / sum(self.best), "1/s"),
            "op_p50_ms": (statistics.median(best) * 1e3, "ms"),
            "op_tail_ms": (best[tail_rank(len(best))] * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    def per_layer(self) -> dict:
        rounds = self.layer_rounds

        def med(key: str, factor: float = 1.0) -> float:
            return statistics.median(r[key] for r in rounds) * factor

        metrics = {}
        for key in rounds[0]:
            if key.endswith("_s") or key.endswith(".s"):
                name = key[:-2] + ("_ms" if key.endswith("_s") else ".ms")
                metrics[name] = (med(key, 1e3), "ms")
            elif key == "cli.csv_bytes":
                metrics[key] = (med(key), "bytes")
            else:
                metrics[key] = (med(key), "count")
        metrics["setup.numpy_import_s"] = (statistics.median(p["numpy_import_s"] for p in self.probes), "s")
        metrics["setup.cheshire_import_s"] = (statistics.median(p["cheshire_import_s"] for p in self.probes), "s")
        return metrics


def thread_count() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["grid-sweep", "scenario-mix", "order-scan"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cheshire" / "__init__.py").is_file():
        print(f"error: no cheshire sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cheshire
    if Path(cheshire.__file__).resolve().parent != SRC / "cheshire":
        print(f"error: imported cheshire from {cheshire.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workdir = TMP_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(cheshire)
            workload.once = []
        runner = Runner(workload, args.seconds, lambda: run_probe(args.workload, workdir), tracer)
        runner.run()
        if tracer:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_DIR.rmdir()

    metrics = runner.per_layer() if args.trace else runner.end_to_end()
    n_ops = len(workload.ops)
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": runner.rounds, "ops_per_round": n_ops, "points_per_round": runner.points_per_round(),
        "tail_percentile": round(100.0 * (n_ops - 10) / n_ops, 2), "tail_samples": n_ops,
        "threads": thread_count(), "check_failures": runner.check_failures, "problems": runner.problems,
        "points_per_s": runner.points_per_round() / sum(runner.best),
        "setup_probes": runner.probes,
        "best_op_ms": {op.name: b * 1e3 for op, b in zip(workload.ops, runner.best)},
    }
    if tracer:
        summary["spans"] = tracer.spans
        summary["layer_rounds"] = runner.layer_rounds
    OUT_DIR.mkdir(exist_ok=True)
    detail = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")

    for problem in runner.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{args.workload}: {runner.rounds} rounds of {n_ops} operations "
          f"({runner.points_per_round()} points); tail = p{summary['tail_percentile']} of "
          f"{n_ops} per-operation best times; threads = {summary['threads']}; "
          f"{'traced' if args.trace else 'untraced'} points_per_s = {summary['points_per_s']:.1f}",
          file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}", file=sys.stderr)
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
