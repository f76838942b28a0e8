"""Per-layer tracing of cheshire from outside the package.

``Tracer.install`` replaces the public functions of each cheshire module
(and the constructors of the qcore state and operator classes) with
wrappers that record a span per call: its name, start, end and parent
span.  Every module-level name bound to a wrapped function is rebound, so
calls between cheshire modules are seen too.  Nothing under ``src/``
changes.

A span's self time is its duration minus the time its direct child spans
cover.  Counters and times accumulate for the life of the tracer;
``snapshot`` reads them so that the caller can difference two snapshots
(one round of a workload).  Full span records are kept only while
``keep_spans`` is set, so memory stays bounded on long runs.
"""

from __future__ import annotations

import collections
import sys
import time

# Layer -> the public names it wraps.  A layer's first dotted component is
# the cheshire module that defines those names; spans are named
# "<module>.<name>".
LAYERS = {
    "qcore": ("tensor", "apply", "inner", "identity", "spin_on_path", "path_projector",
              "norm2", "dagger", "compose", "is_unitary", "JointState", "JointOperator"),
    "elements": ("spin_rotation_matrix", "magnetic_rotation", "phase_shifter", "absorber",
                 "recombine", "spin_select_minus"),
    "experiment.run": ("run",),
    "experiment.sweep": ("sweep_chi", "sweep_alpha"),
    "experiment.closed_form": ("closed_form_o",),
    "cli": ("main",),
    "analysis.scan": ("truncation_scan",),
    "analysis.fit": ("fit_loglog_slope",),
    "analysis.witness": ("cheshire_witness",),
    "analysis.poisson": ("poisson_counts",),
    "analysis.reproduce": ("reproduce_benchmark_table",),
    "weak": ("weak_value", "exact_weak_values", "weakvalue_intensity", "estimate_sigma_pi",
             "estimate_pi_from_absorber", "path_projector_operator", "spin_z_path_operator"),
}


class Tracer:
    def __init__(self) -> None:
        self.calls = collections.Counter()     # span name -> calls
        self.self_s = collections.Counter()    # layer -> self seconds
        self.outer_s = collections.Counter()   # layer -> seconds in outermost spans of the layer
        self.records = 0                       # IntensityRecord objects built
        self.keep_spans = False
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []           # [span id, layer, child seconds]
        self._depth = collections.Counter()
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str):
        stack, depth = self._stack, self._depth
        calls, self_s, outer_s = self.calls, self.self_s, self.outer_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, layer, 0.0]
            stack.append(frame)
            depth[layer] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                depth[layer] -= 1
                calls[name] += 1
                self_s[layer] += elapsed - frame[2]
                if depth[layer] == 0:
                    outer_s[layer] += elapsed
                if stack:
                    stack[-1][2] += elapsed
                if self.keep_spans:
                    self.spans.append((span_id, parent, name, start, end))

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self, cheshire) -> None:
        modules = [cheshire] + [sys.modules[f"cheshire.{m}"] for m in
                                ("qcore", "elements", "experiment", "weak", "analysis", "cli")]
        qcore = sys.modules["cheshire.qcore"]
        for layer, names in LAYERS.items():
            module = layer.split(".")[0]
            home = sys.modules[f"cheshire.{module}"]
            for short in names:
                name = f"{module}.{short}"
                if short in ("JointState", "JointOperator"):
                    cls = getattr(qcore, short)
                    self._undo.append((cls, "__init__", cls.__init__))
                    cls.__init__ = self._wrap(cls.__init__, name, layer)
                    continue
                original = getattr(home, short)
                self._rebind(modules, original, self._wrap(original, name, layer))

        record_cls = sys.modules["cheshire.experiment"].IntensityRecord
        record_init = record_cls.__init__

        def counted_init(obj, *args, **kwargs):
            self.records += 1
            record_init(obj, *args, **kwargs)

        self._undo.append((record_cls, "__init__", record_init))
        record_cls.__init__ = counted_init

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def snapshot(self) -> dict[str, float]:
        """Cumulative per-layer counters and times (seconds)."""
        def layer_calls(layer: str) -> int:
            prefix = layer.split(".")[0]
            return sum(self.calls[f"{prefix}.{n}"] for n in LAYERS[layer])

        return {
            "qcore.tensor.calls": self.calls["qcore.tensor"],
            "qcore.self_s": self.self_s["qcore"],
            "elements.calls": layer_calls("elements"),
            "elements.self_s": self.self_s["elements"],
            "experiment.run.calls": self.calls["experiment.run"],
            "experiment.run.self_s": self.self_s["experiment.run"],
            "experiment.records": self.records,
            "experiment.sweep.self_s": self.self_s["experiment.sweep"],
            "cli.self_s": self.self_s["cli"],
            "analysis.scan.self_s": self.self_s["analysis.scan"],
            "analysis.fit.calls": self.calls["analysis.fit_loglog_slope"],
            "analysis.fit.s": self.outer_s["analysis.fit"],
            "analysis.witness.s": self.outer_s["analysis.witness"],
            "analysis.poisson.calls": self.calls["analysis.poisson_counts"],
            "analysis.poisson.s": self.outer_s["analysis.poisson"],
            "weak.calls": layer_calls("weak"),
            "weak.s": self.outer_s["weak"],
        }
