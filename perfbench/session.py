"""One benchmark session: a fresh process that sets up, then measures.

Run by ``run.py`` as ``python3 perfbench/session.py SPEC_JSON`` from
the checkout root with ``src`` on ``PYTHONPATH``.  Prints ``READY``
once set-up is done (``run.py`` times process start to that line as
``setup_s``), times the host-speed loop once, then prints one JSON
result line.  Only a ``main`` session measures.

Untraced sessions run passes until the measuring window closes.
Traced sessions run every pass twice on identical inputs, first
without and then with the layer shims, which gives both the per-layer
breakdown and the tracing overhead.  Per-layer counts come from the
first traced pass, so they repeat exactly for a given seed.

``wall_s`` is ``Workload.wall_s`` of the untraced repeats: for a batch
workload the sum over the pass's operations of each operation's mean
repeat at the reference host speed (``hostspeed.py``), for ``serve``
the fastest pass.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

from hostspeed import loop_seconds
from layers import (LAYERS, LayerTracer, layer_calls, layer_counts,
                    layer_times)
from workloads import WORKLOADS


def _measure(workload, seconds: float, traced: bool):
    tracer = LayerTracer() if traced else None
    flavours = (False, True) if traced else (False,)
    # op id -> (seconds, reference seconds) of each repeat
    times = {False: {}, True: {}}
    pass_totals = {False: [], True: []}
    latencies = {False: [], True: []}
    attempted = failed = 0
    problems = []
    first_counts = None
    first_calls = None
    pass_times = []   # per traced pass: layer time metrics
    digest = hashlib.sha256()
    deadline = time.monotonic() + seconds
    index = 0
    while index == 0 or time.monotonic() < deadline:
        for flavour in flavours:
            before = workload.snapshot(flavour)
            if flavour:
                tracer.install()
            try:
                timings, ops, lat = workload.run_pass(index, flavour)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            delta = workload.snapshot(flavour).minus(before)
            for op_id, repeat in timings.items():
                times[flavour].setdefault(op_id, []).append(repeat)
            pass_totals[flavour].append(
                sum(seconds for seconds, _ in timings.values()))
            latencies[flavour].extend(lat)
            attempted += len(ops)
            bad, issues = workload.check(ops, delta)
            failed += bad
            problems.extend(issues)
            if index == 0 and not flavour:
                # Sorted: concurrent serve clients finish in any order.
                for op in sorted(json.dumps(op, sort_keys=True,
                                            default=str) for op in ops):
                    digest.update(op.encode())
            if flavour:
                pass_times.append(layer_times(delta))
                if first_counts is None:
                    first_counts = layer_counts(delta)
                    first_calls = layer_calls(delta)
        index += 1
    return {"times": times, "pass_totals": pass_totals,
            "latencies": latencies,
            "attempted": attempted, "failed": failed,
            "problems": sorted(set(problems)), "passes": index,
            "counts": first_counts, "calls": first_calls,
            "layer_times": pass_times, "digest": digest.hexdigest()}


def _quantile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _end_to_end(workload, run) -> dict:
    return {"wall_s": workload.wall_s(run["times"][False]),
            "peak_rss_mb": workload.peak_rss_mb()}


def _speed_note(run) -> list:
    """Measured pass time and host speed of the untraced passes."""
    repeats = [repeat for op in run["times"][False].values()
               for repeat in op]
    scale = statistics.median(reference / seconds
                              for seconds, reference in repeats)
    return [f"perfbench: measured pass median "
            f"{statistics.median(run['pass_totals'][False]):.4f} s, "
            f"host-speed scale median {scale:.3f}"]


def _latency_note(run) -> list:
    """Client latency percentiles of the untraced passes, if any."""
    lat = run["latencies"][False]
    if not lat:
        return []
    return [f"perfbench: {len(lat)} requests, client p50 "
            f"{_quantile(lat, 0.5) * 1e3:.3f} ms, p99 "
            f"{_quantile(lat, 0.99) * 1e3:.3f} ms"]


def _per_layer(workload, run) -> dict:
    metrics = dict(run["counts"])
    for name in run["layer_times"][0]:
        metrics[name] = statistics.median(
            entry[name] for entry in run["layer_times"])
    traced_wall = statistics.median(run["pass_totals"][True])
    metrics["trace.overhead_frac"] = (workload.wall_s(run["times"][True])
                                      / workload.wall_s(run["times"][False])
                                      - 1.0)
    latencies = run["latencies"][True]
    metrics["serve.client_p50_ms"] = _quantile(latencies, 0.5) * 1e3
    metrics["serve.client_p99_ms"] = _quantile(latencies, 0.99) * 1e3
    metrics["serve.transport_p50_ms"] = (
        metrics["serve.client_p50_ms"] - metrics["serve.server_p50_ms"]
        if latencies else 0.0)
    return metrics, traced_wall


def _report(workload, run, metrics, traced_wall) -> list:
    """The traced run's human-readable layer table."""
    ratios = {
        "golden": ("golden.reuse_ratio",),
        "mc": ("mc.ess_per_golden_eval",),
        "kernels": ("kernels.lanes_per_batch",),
        "noc": ("link.memo_hit_ratio", "cache.hit_ratio"),
    }
    lines = [f"perfbench {workload.name}: traced pass median "
             f"{traced_wall:.4f} s over {run['passes']} pass(es), "
             f"trace.overhead_frac {metrics['trace.overhead_frac']:+.4f}",
             f"  {'layer':<12} {'calls':>9} {'self_s':>9} {'share':>7}"
             f"  ratios"]
    covered = 0.0
    for layer in LAYERS:
        self_s = metrics[f"{layer}.self_s"]
        covered += self_s
        extra = "  ".join(f"{name} {metrics[name]:.4g}"
                          for name in ratios.get(layer, ()))
        lines.append(f"  {layer:<12} {run['calls'][layer]:>9.0f} "
                     f"{self_s:>9.4f} {self_s / traced_wall:>7.1%}  "
                     f"{extra}")
    other = max(traced_wall - covered, 0.0)
    lines.append(f"  {'(unwrapped)':<12} {'':>9} {other:>9.4f} "
                 f"{other / traced_wall:>7.1%}")
    return lines


def main(argv) -> int:
    spec = json.loads(argv[0])
    traced = bool(spec["trace"])
    workload = WORKLOADS[spec["workload"]](spec["seed"], Path(spec["tmp"]))
    workload.setup(traced)
    print("READY", flush=True)
    try:
        setup_loop_s = loop_seconds()
        if spec["mode"] == "setup":
            print(json.dumps({"setup_loop_s": setup_loop_s}), flush=True)
            return 0
        run = _measure(workload, spec["seconds"], traced)
        result = {"attempted": run["attempted"], "failed": run["failed"],
                  "problems": run["problems"], "digest": run["digest"],
                  "passes": run["passes"], "setup_loop_s": setup_loop_s,
                  "report": _speed_note(run) + _latency_note(run)}
        if traced:
            metrics, traced_wall = _per_layer(workload, run)
            result["report"] += _report(workload, run, metrics,
                                        traced_wall)
        else:
            metrics = _end_to_end(workload, run)
        result["metrics"] = metrics
    finally:
        workload.teardown()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
