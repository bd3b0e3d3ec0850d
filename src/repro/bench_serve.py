"""Serving benchmarks: latency, throughput and the bit-equality gate.

``repro bench serve`` hosts a real :class:`repro.serve.ReproServer`
in-process (ephemeral TCP port, warm worker shards), drives it with
the seeded load generator at N concurrent keep-alive clients, and
writes ``BENCH_serve.json``.  The run gates on the service's whole
contract, not just speed:

* **bit-equality** — every load-generator exchange (plus one ``mc``
  and one ``design_batch`` probe) is replayed through
  :func:`repro.serve.core.execute_query` in the bench process and the
  served result must compare equal; JSON floats round-trip through
  Python's shortest ``repr``, so equal here means bit-identical
  doubles;
* **coalescing engaged** — the request-weighted ``serve.batch_size``
  histogram's p50 must exceed 1 (the median request shared its shard
  job with at least one peer);
* **no dropped requests** — every client request must be answered.

Latency percentiles are client-observed (connect-to-parse), which is
what a caller of the service actually experiences; the server-side
``serve.latency_seconds`` histogram rides along in the report for the
queueing-delay view.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime import METRICS

#: Bump when the BENCH_serve.json layout changes incompatibly.
BENCH_SCHEMA = 1

#: Concurrent clients / requests per client (full / --quick).
DEFAULT_CLIENTS = 32
QUICK_CLIENTS = 8
DEFAULT_REQUESTS = 8
QUICK_REQUESTS = 4

#: How many load-generator exchanges the bit-equality gate replays.
EQUALITY_REPLAYS = 24

#: The out-of-band probes the gate also replays (one per op the load
#: generator doesn't emit).
PROBE_DOCUMENTS: Tuple[Dict[str, Any], ...] = (
    {"op": "design_batch", "lengths_mm": [1.0, 2.5, 4.0]},
    {"op": "mc", "length_mm": 2.0, "samples": 48, "seed": 2010,
     "engine": "model", "estimator": "plain"},
)


async def _run_session(config, *, clients: int,
                       requests_per_client: int, seed: int,
                       node: str, bus_width: int) -> Dict[str, Any]:
    """Host the server, run the load, replay for bit-equality."""
    from repro.serve.core import execute_query
    from repro.serve.loadgen import (
        _open,
        _roundtrip,
        run_load,
        tcp_endpoint,
    )
    from repro.serve.protocol import parse_query
    from repro.serve.server import ReproServer

    server = ReproServer(config)
    await server.start()
    try:
        endpoint = tcp_endpoint(config.host, server.port)
        report = await run_load(
            endpoint, clients=clients,
            requests_per_client=requests_per_client, seed=seed,
            node=node, bus_width=bus_width)

        probes: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
        reader, writer = await _open(endpoint)
        try:
            for document in PROBE_DOCUMENTS:
                probes.append((document, await _roundtrip(
                    reader, writer, document)))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    finally:
        await server.close()

    stride = max(1, len(report.exchanges) // EQUALITY_REPLAYS)
    replays = list(report.exchanges[::stride])[:EQUALITY_REPLAYS]
    replays.extend(probes)
    mismatches = 0
    for document, response in replays:
        direct = execute_query(parse_query(document),
                               config.memo_entries)
        if response.get("result") != direct or not response.get("ok"):
            mismatches += 1
    return {
        "load": report,
        "replayed": len(replays),
        "mismatches": mismatches,
    }


def run_serve_bench(node: str = "90nm", quick: bool = False,
                    clients: Optional[int] = None,
                    requests: Optional[int] = None,
                    seed: int = 2010,
                    output: str = "BENCH_serve.json",
                    history: Optional[str] = None
                    ) -> Tuple[int, Dict[str, Any]]:
    """Run the serving bench, write ``output``, return (status, report).

    Status is 1 when any gate fails: a bit-equality mismatch, batch
    p50 not above 1, or a dropped request.  Appends one ``"serve"``
    record (latency p50/p99, throughput) to the registry history.
    """
    from repro import bench_registry
    from repro.runtime.manifest import run_environment, utc_timestamp
    from repro.serve.config import resolve_config

    if clients is None:
        clients = QUICK_CLIENTS if quick else DEFAULT_CLIENTS
    if requests is None:
        requests = QUICK_REQUESTS if quick else DEFAULT_REQUESTS
    bus_width = 32
    config = resolve_config(port=0, shards=2, max_batch=64)

    started = time.perf_counter()
    session = asyncio.run(_run_session(
        config, clients=clients, requests_per_client=requests,
        seed=seed, node=node, bus_width=bus_width))
    wall_seconds = time.perf_counter() - started
    load = session["load"]

    batch_histogram = METRICS.histogram("serve.batch_size")
    batch_p50 = (batch_histogram.quantile(0.5)
                 if batch_histogram is not None else None)
    batch_p95 = (batch_histogram.quantile(0.95)
                 if batch_histogram is not None else None)
    counters = METRICS.to_payload()["counters"]

    expected = clients * requests
    gates = {
        "bit_equal": session["mismatches"] == 0,
        "coalescing_engaged": (batch_p50 is not None
                               and batch_p50 > 1.0),
        "all_answered": (load.requests == expected
                         and load.failures == 0),
    }
    status = 0 if all(gates.values()) else 1

    latency_p50 = load.latency_quantile(0.5)
    latency_p99 = load.latency_quantile(0.99)
    report: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "generated_at": utc_timestamp(),
        "node": node,
        "quick": quick,
        "env": run_environment(),
        "config": {
            "clients": clients,
            "requests_per_client": requests,
            "seed": seed,
            "bus_width": bus_width,
            "shards": config.shards,
            "max_batch": config.max_batch,
            "memo_entries": config.memo_entries,
        },
        "load": {
            "requests": load.requests,
            "expected_requests": expected,
            "failures": load.failures,
            "wall_seconds": load.wall_seconds,
            "throughput_rps": load.throughput,
            "latency_p50_s": latency_p50,
            "latency_p99_s": latency_p99,
        },
        "server": {
            "batch_size_p50": batch_p50,
            "batch_size_p95": batch_p95,
            "batches": counters.get("serve.batches", 0),
            "requests_total": counters.get("serve.requests", 0),
            "errors": counters.get("serve.errors", 0),
            "worker_restarts": counters.get("serve.worker_restart",
                                            0),
        },
        "equality": {
            "replayed": session["replayed"],
            "mismatches": session["mismatches"],
        },
        "gates": gates,
        "bench_wall_seconds": wall_seconds,
    }

    record = bench_registry.build_record(
        "serve", node=node, quick=quick,
        config=dict(report["config"]),
        samples=[
            bench_registry.BenchSample(
                name="latency_p50", value=latency_p50, n=expected),
            bench_registry.BenchSample(
                name="latency_p99", value=latency_p99, n=expected),
        ],
        generated_at=report["generated_at"])
    history_path = bench_registry.append_record(record, history)
    report["history_path"] = str(history_path)

    verdicts = {name: "ok" if passed else "FAIL"
                for name, passed in gates.items()}
    report["formatted"] = [
        (f"{clients} clients x {requests} requests  "
         f"p50 {latency_p50 * 1e3:7.2f} ms  "
         f"p99 {latency_p99 * 1e3:7.2f} ms  "
         f"{load.throughput:8.1f} req/s"),
        (f"coalescing: batch p50 {batch_p50}  p95 {batch_p95}  "
         f"over {counters.get('serve.batches', 0)} batches "
         f"[{verdicts['coalescing_engaged']}]"),
        (f"bit-equality: {session['replayed']} replays, "
         f"{session['mismatches']} mismatches "
         f"[{verdicts['bit_equal']}]"),
        (f"answered {load.requests}/{expected} "
         f"({load.failures} failures) [{verdicts['all_answered']}]"),
    ]
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return status, report
