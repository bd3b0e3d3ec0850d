"""Per-layer tracing from outside the program.

The benchmark adds no spans to ``src/``.  Instead, a traced pass wraps
the public entry points of each layer (and the one private per-draw
golden unit the estimators use) in a timing shim, installed by
patching the function's name in its defining module *and* in every
loaded module that bound it with a from-import.

The shims' records land in the program's own ``METRICS`` registry
under ``perfbench.*`` names, so they travel the way the program's
counters do: read in-process for the batch workloads, and merged back
from a ``repro serve`` shard into the server's ``/metrics`` for the
serve workload.

Self time is a span's duration minus the part covered by wrapped
children, the method ``repro.runtime.profile`` applies to program
spans.  A layer's metrics then come from a :class:`MetricsView`, a
snapshot of counters, timers and histograms keyed by their
OpenMetrics-sanitized names, so in-process snapshots and scraped
``/metrics`` text compare alike.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import re
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer names in report order.
LAYERS = ("experiments", "mc", "golden", "spice", "models", "buffering",
          "kernels", "noc")

def _golden_line(args, result, name: str) -> Dict[str, float]:
    if name == "evaluate_buffered_line":
        stages = result.num_stages
    elif name == "sample_line_delay":
        stages = len(args[0].stages)
    else:  # _golden_factor_task((line, input_slew, row))
        stages = len(args[0][0].stages)
    return {"golden.lines": 1, "golden.stages": stages}


def _spice_steps(args, result, name: str) -> Dict[str, float]:
    return {"spice.steps": len(result.times) - 1}


def _stage(args, result, name: str) -> Dict[str, float]:
    return {"golden.stages_simulated": 1}


def _estimate(args, result, name: str) -> Dict[str, float]:
    report = result.report
    return {"mc.ess": report.ess if report is not None else 0.0}


def _designs(args, result, name: str) -> Dict[str, float]:
    return {"link.designs": 1}


#: (module, attribute or Class.method, layer, extra-stats hook).
SPECS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.experiments.table2", "run", "experiments", None),
    ("repro.experiments.table3", "run_case", "experiments", None),
    ("repro.signoff.variation", "monte_carlo_line_delay", "mc",
     _estimate),
    ("repro.signoff.golden", "evaluate_buffered_line", "golden",
     _golden_line),
    ("repro.signoff.variation", "sample_line_delay", "golden",
     _golden_line),
    ("repro.signoff.estimators.engines", "_golden_factor_task",
     "golden", _golden_line),
    ("repro.signoff.golden", "simulate_stage", "golden", _stage),
    ("repro.spice.transient", "simulate_transient", "spice",
     _spice_steps),
    ("repro.models.interconnect", "BufferedInterconnectModel.evaluate",
     "models", None),
    ("repro.models.baselines.bakoglu", "BakogluModel.evaluate",
     "models", None),
    ("repro.models.baselines.pamunuwa", "PamunuwaModel.evaluate",
     "models", None),
    ("repro.buffering.optimizer", "optimize_buffering", "buffering",
     None),
    ("repro.buffering.optimizer", "minimize_power_under_delay",
     "buffering", None),
    ("repro.buffering.optimizer", "max_feasible_length", "buffering",
     None),
    ("repro.kernels.line", "evaluate_line_batch", "kernels", None),
    ("repro.kernels.variation", "line_delay_batch", "kernels", None),
    ("repro.kernels.search", "optimize_buffering_batch", "kernels",
     None),
    ("repro.kernels.search", "minimize_power_under_delay_batch",
     "kernels", None),
    ("repro.noc.synthesis", "synthesize", "noc", None),
    ("repro.noc.evaluation", "evaluate_topology", "noc", None),
    ("repro.noc.link", "design_link", "noc", None),
    ("repro.noc.link", "LinkDesigner.design", "noc", _designs),
    ("repro.noc.link", "LinkDesigner.max_length", "noc", None),
)


class LayerTracer:
    """Installs and removes the layer shims.

    Shims accumulate into plain Python cells and flush into METRICS
    each time the outermost shim returns, which keeps a shim to a few
    hundred nanoseconds (synthesis makes ~10^5 wrapped calls per
    pass) while still landing inside a serve shard's job payload.
    """

    def __init__(self) -> None:
        from repro.runtime import METRICS
        self._metrics = METRICS
        # One [child seconds] cell per open shim, innermost last.
        self._stack: List[List[float]] = []
        # layer -> [calls, self seconds]; extra stat -> amount.
        self._layers: Dict[str, List[float]] = {}
        self._extras: Dict[str, float] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    def flush(self) -> None:
        """Move the accumulated records into METRICS."""
        metrics = self._metrics
        for layer, cell in self._layers.items():
            if cell[0]:
                metrics.count(f"perfbench.{layer}.calls", int(cell[0]))
                metrics.add_time(f"perfbench.{layer}.self_s", cell[1])
                cell[0] = cell[1] = 0
        for key, amount in self._extras.items():
            if isinstance(amount, int):
                metrics.count(f"perfbench.{key}", amount)
            else:
                metrics.add_time(f"perfbench.{key}", amount)
        self._extras.clear()

    def _shim(self, fn: Callable, layer: str, name: str,
              hook: Optional[Callable]) -> Callable:
        stack = self._stack
        extras = self._extras
        totals = self._layers.setdefault(layer, [0, 0.0])
        flush = self.flush
        clock = time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                totals[0] += 1
                totals[1] += elapsed - cell[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                for key, amount in hook(args, result, name).items():
                    extras[key] = extras.get(key, 0) + amount
            if not stack:
                flush()
            return result
        return shim

    def install(self) -> None:
        """Wrap every spec'd entry point, including from-import aliases."""
        if self._patches:
            return
        for module_name, attr, layer, hook in SPECS:
            module = importlib.import_module(module_name)
            owner, _, name = attr.rpartition(".")
            target = getattr(module, owner) if owner else module
            original = getattr(target, name)
            shim = self._shim(original, layer, name, hook)
            self._set(target, name, shim)
            if owner:
                continue  # methods resolve through the class
            for other in list(sys.modules.values()):
                if other is None or other is module:
                    continue
                namespace = getattr(other, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for alias, value in list(namespace.items()):
                    if value is original:
                        self._set(other, alias, shim)

    def _set(self, target: Any, name: str, value: Any) -> None:
        self._patches.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        self.flush()
        while self._patches:
            target, name, original = self._patches.pop()
            setattr(target, name, original)


# -- metric snapshots -------------------------------------------------------


def metric_key(name: str) -> str:
    """A dotted metric name as the OpenMetrics exposition spells it."""
    return "repro_" + re.sub(r"[^a-zA-Z0-9_:]", "_", name)


class MetricsView:
    """Counters, timers and histogram bucket counts, by sanitized name."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.timers: Dict[str, float] = {}
        # sanitized name -> {bucket index: count}
        self.histograms: Dict[str, Dict[int, int]] = {}

    @classmethod
    def from_registry(cls, registry) -> "MetricsView":
        view = cls()
        for name, amount in registry.counters.items():
            view.counters[metric_key(name)] = amount
        for name, seconds in registry.timers.items():
            view.timers[metric_key(name)] = seconds
        for name, histogram in registry.histograms.items():
            view.histograms[metric_key(name)] = dict(histogram.counts)
        return view

    @classmethod
    def from_openmetrics(cls, text: str) -> "MetricsView":
        """Parse ``GET /metrics`` output back into a view."""
        from repro.runtime.metrics import HISTOGRAM_EDGES
        view = cls()
        kinds: Dict[str, str] = {}
        cumulative: Dict[str, List[Tuple[int, int]]] = {}
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, metric, kind = line.split(" ", 3)
                kinds[metric] = kind
                continue
            if not line or line.startswith("#"):
                continue
            series, _, value = line.rpartition(" ")
            if "_bucket{le=" in series:
                metric = series.split("_bucket{", 1)[0]
                edge = series.split('"')[1]
                if edge == "+Inf":
                    continue
                index = bisect.bisect_left(HISTOGRAM_EDGES,
                                           float(edge) * (1 - 1e-9))
                cumulative.setdefault(metric, []).append(
                    (index, int(value)))
            elif series.endswith("_seconds_total") \
                    and kinds.get(series[:-6]) == "counter":
                view.timers[series[:-len("_seconds_total")]] = \
                    float(value)
            elif series.endswith("_total"):
                view.counters[series[:-len("_total")]] = (
                    int(value) if value.lstrip("-").isdigit()
                    else float(value))
        for metric, points in cumulative.items():
            counts: Dict[int, int] = {}
            previous = 0
            for index, running in sorted(points):
                counts[index] = running - previous
                previous = running
            view.histograms[metric] = counts
        return view

    def minus(self, before: "MetricsView") -> "MetricsView":
        """What was recorded between ``before`` and this snapshot."""
        delta = MetricsView()
        for name, amount in self.counters.items():
            delta.counters[name] = amount - before.counters.get(name, 0)
        for name, seconds in self.timers.items():
            delta.timers[name] = seconds - before.timers.get(name, 0.0)
        for name, counts in self.histograms.items():
            old = before.histograms.get(name, {})
            delta.histograms[name] = {
                index: amount - old.get(index, 0)
                for index, amount in counts.items()
                if amount - old.get(index, 0)}
        return delta

    def counter(self, name: str) -> float:
        return self.counters.get(metric_key(name), 0)

    def timer(self, name: str) -> float:
        return self.timers.get(metric_key(name), 0.0)

    def has_timer(self, name: str) -> bool:
        return metric_key(name) in self.timers

    def quantile(self, prefix: str, q: float) -> float:
        """``q``-quantile over every histogram whose name starts with
        ``prefix``, interpolated linearly inside its bucket; 0 if empty."""
        from repro.runtime.metrics import HISTOGRAM_EDGES
        key = metric_key(prefix)
        merged: Dict[int, int] = {}
        for name, counts in self.histograms.items():
            if name == key or name.startswith(key + "_"):
                for index, amount in counts.items():
                    merged[index] = merged.get(index, 0) + amount
        total = sum(merged.values())
        if total <= 0:
            return 0.0
        target = q * total
        running = 0
        for index in sorted(merged):
            running += merged[index]
            if running >= target:
                lower = HISTOGRAM_EDGES[index - 1] if index else 0.0
                upper = HISTOGRAM_EDGES[min(index,
                                            len(HISTOGRAM_EDGES) - 1)]
                inside = (target - (running - merged[index])) \
                    / merged[index]
                return lower + (upper - lower) * inside
        return HISTOGRAM_EDGES[-1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Per-layer metrics whose values are exact counts: they repeat
#: bit-for-bit between runs with the same seed.
EXACT_COUNTS = (
    "spice.calls", "spice.steps", "golden.lines", "golden.stages",
    "golden.stages_simulated", "mc.golden_evals", "mc.model_evals",
    "models.evaluate_calls", "kernels.batches", "kernels.lanes",
    "buffering.searches", "link.design_attempts", "link.memo_hit",
    "synth.edges_evaluated", "cache.hit", "cache.miss", "cache.write",
    "parallel.tasks", "serve.requests", "serve.errors",
    "serve.worker_restart",
)


def layer_counts(view: MetricsView) -> Dict[str, float]:
    """The count and ratio metrics of one traced pass."""
    c = view.counter
    golden_stages = c("perfbench.golden.stages")
    simulated = c("perfbench.golden.stages_simulated")
    golden_evals = c("mc.golden_evals")
    ess = view.timer("perfbench.mc.ess")
    batches = c("kernels.batches")
    lanes = c("kernels.batch_size")
    hits, misses = c("cache.hit"), c("cache.miss")
    return {
        "spice.calls": c("perfbench.spice.calls"),
        "spice.steps": c("perfbench.spice.steps"),
        "golden.lines": c("perfbench.golden.lines"),
        "golden.stages": golden_stages,
        "golden.stages_simulated": simulated,
        "golden.reuse_ratio": _ratio(golden_stages - simulated,
                                     golden_stages),
        "mc.golden_evals": golden_evals,
        "mc.model_evals": c("mc.model_evals"),
        "mc.ess": ess,
        "mc.ess_per_golden_eval": _ratio(ess, golden_evals),
        "models.evaluate_calls": c("perfbench.models.calls"),
        "kernels.batches": batches,
        "kernels.lanes": lanes,
        "kernels.lanes_per_batch": _ratio(lanes, batches),
        "buffering.searches": c("perfbench.buffering.calls"),
        "link.design_attempts": c("link.design_attempts"),
        "link.memo_hit": c("link.memo_hit"),
        "link.memo_hit_ratio": _ratio(c("link.memo_hit"),
                                      c("perfbench.link.designs")),
        "synth.edges_evaluated": c("synth.edges_evaluated"),
        "cache.hit": hits,
        "cache.miss": misses,
        "cache.write": c("cache.write"),
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "parallel.tasks": c("parallel.tasks"),
        "serve.requests": c("serve.requests"),
        "serve.batches": c("serve.batches"),
        "serve.batch_size_p50": view.quantile("serve.batch_size", 0.5),
        "serve.errors": c("serve.errors"),
        "serve.worker_restart": c("serve.worker_restart"),
    }


def layer_times(view: MetricsView) -> Dict[str, float]:
    """The time metrics of one traced pass, in the units reported."""
    times = {f"{layer}.self_s": view.timer(f"perfbench.{layer}.self_s")
             for layer in LAYERS}
    times["kernels.busy_s"] = view.timer("kernels.batch")
    times["link.busy_s"] = view.timer("link.design")
    times["cache.lookup_p50_us"] = \
        view.quantile("cache.lookup_seconds", 0.5) * 1e6
    times["serve.server_p50_ms"] = \
        view.quantile("serve.latency_seconds", 0.5) * 1e3
    times["serve.server_p99_ms"] = \
        view.quantile("serve.latency_seconds", 0.99) * 1e3
    return times


def layer_calls(view: MetricsView) -> Dict[str, float]:
    """Wrapped-entry call counts per layer (for the report table)."""
    return {layer: view.counter(f"perfbench.{layer}.calls")
            for layer in LAYERS}
