"""Seeded async load generator for ``repro serve``.

Drives N concurrent keep-alive clients against a running server, each
issuing a seeded stream of queries, and reports per-request latencies
plus every (query document, response) pair so callers can replay the
documents through :func:`repro.serve.core.execute_query` and assert
bit-equality — the contract ``tests/serve/test_serve.py`` gates on.

The query stream is deterministic (``numpy`` Generator seeded per
client from one root seed): lengths are drawn from a short grid of
millimeter values so the server's memo and the coalescer both see the
repeat-heavy traffic a synthesis loop actually generates, with an
occasional ``max_feasible_length`` probe mixed in.

Also runnable standalone (CI smoke job)::

    python -m repro.serve.loadgen --port 8787 --clients 8 --requests 4
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: ("tcp", host, port) or ("unix", path, 0).
Endpoint = Tuple[str, str, int]


def tcp_endpoint(host: str, port: int) -> Endpoint:
    return ("tcp", host, port)


def unix_endpoint(path: str) -> Endpoint:
    return ("unix", path, 0)


#: The length grid (mm) clients draw from — short enough that traffic
#: repeats (memo + coalescer exercise), long enough to span the
#: feasible range at 90 nm.
LENGTH_GRID_MM = tuple(0.5 + 0.25 * step for step in range(16))


@dataclass
class LoadReport:
    """What one load run observed, client-side."""

    latencies: List[float] = field(default_factory=list)
    exchanges: List[Tuple[Dict[str, Any], Dict[str, Any]]] = \
        field(default_factory=list)
    wall_seconds: float = 0.0
    clients: int = 0
    failures: int = 0

    @property
    def requests(self) -> int:
        return len(self.latencies)

    @property
    def throughput(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.requests / self.wall_seconds

    def latency_quantile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        return float(np.quantile(np.asarray(self.latencies), q))


async def _open(endpoint: Endpoint
                ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    kind, target, port = endpoint
    if kind == "unix":
        return await asyncio.open_unix_connection(target)
    return await asyncio.open_connection(target, port)


async def _roundtrip(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter,
                     document: Dict[str, Any]) -> Dict[str, Any]:
    """One keep-alive POST /query exchange."""
    body = json.dumps(document).encode("utf-8")
    head = (f"POST /query HTTP/1.1\r\nHost: repro\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    writer.write(head.encode("latin-1") + body)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed mid-exchange")
    status = int(status_line.split()[1])
    length = 0
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n"):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    payload = json.loads(await reader.readexactly(length))
    payload["_status"] = status
    return payload


def client_documents(rng: np.random.Generator, count: int,
                     node: str, bus_width: int
                     ) -> List[Dict[str, Any]]:
    """One client's seeded query stream (mostly designs)."""
    documents: List[Dict[str, Any]] = []
    for _ in range(count):
        if rng.random() < 0.1:
            documents.append({"op": "max_feasible_length",
                              "node": node, "bus_width": bus_width})
        else:
            length = LENGTH_GRID_MM[
                int(rng.integers(len(LENGTH_GRID_MM)))]
            documents.append({"op": "design", "node": node,
                              "bus_width": bus_width,
                              "length_mm": length})
    return documents


async def _client(endpoint: Endpoint,
                  documents: Sequence[Dict[str, Any]],
                  report: LoadReport) -> None:
    reader, writer = await _open(endpoint)
    try:
        for document in documents:
            started = time.perf_counter()
            try:
                response = await _roundtrip(reader, writer, document)
            except (ConnectionError, asyncio.IncompleteReadError):
                report.failures += 1
                reader, writer = await _open(endpoint)
                continue
            report.latencies.append(time.perf_counter() - started)
            if response.get("ok"):
                report.exchanges.append((document, response))
            else:
                report.failures += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def run_load(endpoint: Endpoint, *, clients: int = 32,
                   requests_per_client: int = 8, seed: int = 2010,
                   node: str = "90nm", bus_width: int = 32
                   ) -> LoadReport:
    """Drive the server with ``clients`` concurrent seeded streams."""
    report = LoadReport(clients=clients)
    root = np.random.SeedSequence(seed)
    streams = [np.random.default_rng(child)
               for child in root.spawn(clients)]
    started = time.perf_counter()
    await asyncio.gather(*(
        _client(endpoint,
                client_documents(rng, requests_per_client, node,
                                 bus_width),
                report)
        for rng in streams))
    report.wall_seconds = time.perf_counter() - started
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI shim for CI smoke runs: drive a server, print a summary."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="Seeded load generator for repro serve.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787)
    parser.add_argument("--socket", default=None,
                        help="Unix socket path (overrides host/port)")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=4,
                        help="requests per client")
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--node", default="90nm")
    parser.add_argument("--bus-width", type=int, default=32)
    args = parser.parse_args(argv)

    endpoint = (unix_endpoint(args.socket) if args.socket
                else tcp_endpoint(args.host, args.port))
    report = asyncio.run(run_load(
        endpoint, clients=args.clients,
        requests_per_client=args.requests, seed=args.seed,
        node=args.node, bus_width=args.bus_width))
    print(json.dumps({
        "requests": report.requests,
        "failures": report.failures,
        "throughput_rps": report.throughput,
        "latency_p50_ms": report.latency_quantile(0.5) * 1e3,
        "latency_p99_ms": report.latency_quantile(0.99) * 1e3,
    }, indent=2))
    return 1 if report.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
