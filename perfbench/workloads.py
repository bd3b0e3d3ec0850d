"""The four workloads: inputs from the seed, one timed pass, checks.

A *pass* is the workload's unit of solution: a fixed set of
operations, each timed on its own.  The session repeats passes until
its measuring window closes.  ``wall_s`` of a batch workload is the
pass time with every operation at the mean of its repeats, each
repeat scaled to the reference host speed (``hostspeed.py``); for
``serve`` it is the fastest pass (see README.md for why).  Each
workload's inputs are a pure function of ``--seed``; the program only
ever sees the generated inputs.

* ``table2`` -- six Table II cells (three nodes, both design styles,
  short lines and long high-reuse lines), each through
  ``repro.experiments.table2.run(..., workers=1)``.  The seed orders
  the cells.
* ``synth`` -- two DVOPD Table III cells through
  ``repro.experiments.table3.run_case(..., workers=1)``, each pass on
  a fresh, empty ``REPRO_CACHE_DIR`` (the cold link-design path).  The
  seed orders the cells.
* ``mc_tail`` -- two seeded 3-sigma importance-sampled tail queries
  per pass on the golden engine.  The seed picks their Monte-Carlo
  seeds from a pool whose results are committed in
  ``references.json``.
* ``serve`` -- 1000 closed-loop requests per pass over two keep-alive
  Unix-socket connections to ``repro serve --shards 1``; the seed
  draws the request stream.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from typing import Any, Dict, List, Tuple

from hostspeed import timed
from layers import MetricsView

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

#: Table II cells: (node, design style, length in mm).
TABLE2_CELLS = (
    ("90nm", "swss", 15.0),
    ("90nm", "shielded", 3.0),
    ("65nm", "swss", 5.0),
    ("65nm", "shielded", 10.0),
    ("45nm", "swss", 1.0),
    ("45nm", "shielded", 15.0),
)

#: Table III cells: (design, node).
SYNTH_CASES = (("DVOPD", "90nm"), ("DVOPD", "45nm"))

#: The BENCH_yield.json line and its 3-sigma threshold.
MC_LINE = {"node": "90nm", "length_mm": 2.0, "repeaters": 2,
           "size": 24.0, "slew_ps": 100.0}
MC_THRESHOLD_PS = 121.52439650079178
MC_SAMPLES = 8
MC_QUERIES = 2                 # per pass
#: Monte-Carlo seeds with committed reference estimates.
MC_SEED_POOL = tuple(range(7001, 7033))

#: Serve traffic: the load generator's length grid, node and bus.
SERVE_GRID_MM = tuple(0.5 + 0.25 * step for step in range(16))
SERVE_NODE, SERVE_BUS = "90nm", 32
SERVE_CONNECTIONS = 2
SERVE_REQUESTS = 1000          # per pass, split over the connections
SERVE_MAX_SHARE = 0.1          # share of max_feasible_length queries


def load_references() -> Dict[str, Any]:
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


def _plain(value: Any) -> Any:
    """Outputs as JSON-native values (floats round-trip exactly)."""
    return json.loads(json.dumps(value))


def cell_id(node: str, style: str, length_mm: float) -> str:
    return f"{node}/{style}/{length_mm:g}mm"


class Workload:
    """One workload's setup, timed pass, snapshots and checks."""

    name = ""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.references: Dict[str, Any] = {}

    def setup(self, traced: bool) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def run_pass(self, index: int, traced: bool
                 ) -> Tuple[Dict[str, Tuple[float, float]],
                            List[Tuple[str, Any]], List[float]]:
        """({op id: (seconds, reference seconds)}, [(op id, output)],
        client latencies)."""
        raise NotImplementedError

    @staticmethod
    def wall_s(times: Dict[str, List[Tuple[float, float]]]) -> float:
        """A pass with every operation at the mean of its repeats, in
        seconds at the reference host speed.  Scaled repeats have few
        outliers left, and their mean spread less than their median
        between 20-s windows on every batch workload."""
        return sum(statistics.fmean(reference for _, reference in repeats)
                   for repeats in times.values())

    def snapshot(self, traced: bool) -> MetricsView:
        from repro.runtime import METRICS
        return MetricsView.from_registry(METRICS)

    def check(self, ops: List[Tuple[str, Any]], delta: MetricsView
              ) -> Tuple[int, List[str]]:
        """(failed ops, isolation violations) of one pass."""
        failed = sum(1 for op_id, output in ops
                     if self.references.get(op_id) != output)
        problems = []
        if delta.has_timer("parallel.pool"):
            problems.append("parallel.pool engaged: run was not serial")
        return failed, problems

    def peak_rss_mb(self) -> float:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Table2(Workload):
    name = "table2"

    def setup(self, traced: bool) -> None:
        from repro.experiments import table2
        from repro.experiments.suite import ModelSuite
        from repro.tech.design_styles import DesignStyle
        from repro.units import mm
        self.references = load_references()["table2"]
        self._run = lambda cell: table2.run(
            nodes=(cell[0],), lengths=(mm(cell[2]),),
            styles=(DesignStyle(cell[1]),), workers=1)
        for node, style, _ in TABLE2_CELLS:
            ModelSuite.for_node(node, style=DesignStyle(style))
        self.cells = list(TABLE2_CELLS)
        random.Random(self.seed).shuffle(self.cells)

    def run_pass(self, index, traced):
        timings, ops = {}, []
        for cell in self.cells:
            op_id = cell_id(*cell)
            result, timings[op_id] = timed(partial(self._run, cell))
            ops.append((op_id, table2_output(result.rows[0])))
        return timings, ops, []


def table2_output(row) -> Dict[str, Any]:
    """A Table II row without its run-time columns."""
    return _plain({"num_repeaters": row.num_repeaters,
                   "repeater_size": row.repeater_size,
                   "golden_delay": row.golden_delay,
                   "errors": row.errors})


class Synth(Workload):
    name = "synth"

    def setup(self, traced: bool) -> None:
        from repro.experiments import table3
        from repro.experiments.suite import ModelSuite
        from repro.noc import testcases
        self.references = load_references()["synth"]
        factories = {"VPROC": testcases.vproc,
                     "DVOPD": testcases.dual_vopd}
        self._run = lambda case: table3.run_case(
            case[0], factories[case[0]], case[1], workers=1)
        for _, node in SYNTH_CASES:
            ModelSuite.for_node(node)
        self.cases = list(SYNTH_CASES)
        random.Random(self.seed).shuffle(self.cases)

    def run_pass(self, index, traced):
        cache = self.tmp / f"cache-pass{index}-{int(traced)}"
        cache.mkdir(parents=True)
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        timings, ops = {}, []
        try:
            for case in self.cases:
                op_id = f"{case[0]}@{case[1]}"
                result, timings[op_id] = timed(partial(self._run, case))
                ops.append((op_id, synth_output(result)))
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return timings, ops, []

    def check(self, ops, delta):
        failed = sum(1 for op_id, output in ops
                     if self.references.get(op_id, {}).get("reports")
                     != output)
        _, problems = super().check(ops, delta)
        for counter in ("hit", "miss", "write"):
            expected = sum(self.references.get(op_id, {})
                           .get("cache", {}).get(counter, -1)
                           for op_id, _ in ops)
            seen = delta.counter(f"cache.{counter}")
            if seen != expected:
                problems.append(f"cold cache.{counter} {seen:g} != "
                                f"expected {expected}")
        return failed, problems


def synth_output(case) -> Dict[str, Any]:
    return _plain({label: dataclasses.asdict(getattr(case, label))
                   for label in ("original_self", "original_accurate",
                                 "proposed_self")})


class McTail(Workload):
    name = "mc_tail"

    def setup(self, traced: bool) -> None:
        from repro.experiments.suite import ModelSuite
        from repro.signoff import variation
        from repro.signoff.extraction import extract_buffered_line
        from repro.units import mm, ps
        self.references = load_references()["mc_tail"]
        suite = ModelSuite.for_node(MC_LINE["node"])
        self._model = suite.proposed
        self._line = extract_buffered_line(
            suite.tech, suite.proposed.config, mm(MC_LINE["length_mm"]),
            MC_LINE["repeaters"], MC_LINE["size"])
        self._slew = ps(MC_LINE["slew_ps"])
        self._threshold = ps(MC_THRESHOLD_PS)
        self._variation = variation
        self.seeds = random.Random(self.seed).sample(MC_SEED_POOL,
                                                     MC_QUERIES)

    def query(self, mc_seed: int):
        return self._variation.monte_carlo_line_delay(
            self._line, self._slew, samples=MC_SAMPLES, seed=mc_seed,
            workers=1, engine="golden", model=self._model,
            estimator="importance", critical_delay=self._threshold)

    def run_pass(self, index, traced):
        timings, ops = {}, []
        for mc_seed in self.seeds:
            result, timings[str(mc_seed)] = timed(partial(self.query, mc_seed))
            ops.append((str(mc_seed), mc_output(result, self._threshold)))
        return timings, ops, []


def mc_output(result, threshold: float) -> Dict[str, Any]:
    tail = result.tail_probability(threshold)
    report = result.report
    return _plain({"tail_probability": tail.probability,
                   "tail_standard_error": tail.standard_error,
                   "ess": report.ess, "mean": result.mean,
                   "golden_evals": report.golden_evals,
                   "model_evals": report.model_evals})


# -- serve ------------------------------------------------------------------


def serve_documents(seed: int, index: int) -> List[List[Dict[str, Any]]]:
    """Pass ``index``'s request stream, one list per connection."""
    streams = []
    for connection in range(SERVE_CONNECTIONS):
        rng = random.Random(f"{seed}/{index}/{connection}")
        documents = []
        for _ in range(SERVE_REQUESTS // SERVE_CONNECTIONS):
            if rng.random() < SERVE_MAX_SHARE:
                documents.append({"op": "max_feasible_length",
                                  "node": SERVE_NODE,
                                  "bus_width": SERVE_BUS})
            else:
                documents.append({"op": "design", "node": SERVE_NODE,
                                  "bus_width": SERVE_BUS,
                                  "length_mm": rng.choice(SERVE_GRID_MM)})
        streams.append(documents)
    return streams


def _distinct_documents() -> List[Dict[str, Any]]:
    documents = [{"op": "design", "node": SERVE_NODE,
                  "bus_width": SERVE_BUS, "length_mm": length}
                 for length in SERVE_GRID_MM]
    documents.append({"op": "max_feasible_length", "node": SERVE_NODE,
                      "bus_width": SERVE_BUS})
    return documents


async def _exchange(reader, writer, method: str, path: str,
                    body: bytes = b"") -> Tuple[int, bytes]:
    """One keep-alive HTTP/1.1 request/response."""
    writer.write((f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
                  f"Content-Type: application/json\r\n"
                  f"Content-Length: {len(body)}\r\n\r\n"
                  ).encode("latin-1") + body)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return int(status_line.split()[1]), await reader.readexactly(length)


class _Server:
    """One ``repro serve --shards 1`` process on a Unix socket."""

    def __init__(self, tmp: Path, traced: bool):
        self.socket = os.path.relpath(tmp / "serve.sock")
        cache = tmp / "cache"
        cache.mkdir(parents=True)
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache))
        command = [sys.executable, str(HERE / "serve_host.py")]
        if traced:
            command.append("--trace")
        command += ["--", "serve", "--shards", "1", "--host", "",
                    "--socket", self.socket]
        self.stderr = open(tmp / "serve.stderr", "wb")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.stderr, env=env)
        line = _readline(self.process, timeout=60.0)
        if not line.startswith(b"repro serve: listening"):
            raise RuntimeError(f"server did not start: {line!r}")
        self.shards = _children(self.process.pid)

    def peak_rss_mb(self) -> float:
        return sum(_vm_hwm_mb(pid)
                   for pid in [self.process.pid] + self.shards)

    def stop(self) -> None:
        """SIGINT (clean shutdown), then make sure every process ended."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        deadline = time.monotonic() + 10
        for pid in self.shards:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        self.process.stdout.close()
        self.stderr.close()


def _readline(process: subprocess.Popen, timeout: float) -> bytes:
    import select
    ready, _, _ = select.select([process.stdout], [], [], timeout)
    return process.stdout.readline() if ready else b""


def _children(pid: int) -> List[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Serve(Workload):
    name = "serve"

    def setup(self, traced: bool) -> None:
        self.loop = asyncio.new_event_loop()
        self.servers: Dict[bool, _Server] = {}
        self.connections: Dict[bool, list] = {}
        self._direct: Dict[str, Any] = {}
        # A traced run also hosts an untraced twin, so every pass can
        # be timed both ways on identical traffic.
        for flavour in ((False, True) if traced else (False,)):
            server = _Server(self.tmp / f"server-{int(flavour)}", flavour)
            self.servers[flavour] = server
            self.connections[flavour] = self.loop.run_until_complete(
                self._connect(server))
            self.loop.run_until_complete(self._prewarm(flavour))

    async def _connect(self, server: _Server) -> list:
        return [await asyncio.open_unix_connection(server.socket)
                for _ in range(SERVE_CONNECTIONS)]

    async def _prewarm(self, flavour: bool) -> None:
        reader, writer = self.connections[flavour][0]
        for document in _distinct_documents():
            status, _ = await _exchange(reader, writer, "POST", "/query",
                                        json.dumps(document).encode())
            if status != 200:
                raise RuntimeError(f"prewarm failed: {document}")

    def teardown(self) -> None:
        for connections in self.connections.values():
            for _, writer in connections:
                writer.close()
        for server in self.servers.values():
            server.stop()
        self.loop.close()

    def snapshot(self, traced: bool) -> MetricsView:
        reader, writer = self.connections[traced][0]
        status, body = self.loop.run_until_complete(
            _exchange(reader, writer, "GET", "/metrics"))
        if status != 200:
            raise RuntimeError("GET /metrics failed")
        return MetricsView.from_openmetrics(body.decode("utf-8"))

    async def _client(self, connection, documents, latencies, ops):
        reader, writer = connection
        for document in documents:
            body = json.dumps(document).encode("utf-8")
            started = time.perf_counter()
            status, reply = await _exchange(reader, writer, "POST",
                                            "/query", body)
            latencies.append(time.perf_counter() - started)
            ops.append((document, status, reply))

    async def _drive(self, streams, connections):
        latencies: List[float] = []
        ops: List[Any] = []
        started = time.perf_counter()
        await asyncio.gather(*(
            self._client(connection, documents, latencies, ops)
            for connection, documents in zip(connections, streams)))
        return time.perf_counter() - started, latencies, ops

    def run_pass(self, index, traced):
        elapsed, latencies, ops = self.loop.run_until_complete(
            self._drive(serve_documents(self.seed, index),
                        self.connections[traced]))
        return {"requests": (elapsed, elapsed)}, ops, latencies

    @staticmethod
    def wall_s(times):
        """The fastest pass, not scaled: the coalescer's 2 ms timer is
        its floor, and host speed does not change a timer."""
        return sum(min(seconds for seconds, _ in repeats)
                   for repeats in times.values())

    def _replay(self, document: Dict[str, Any]) -> Any:
        """The direct in-process answer (no disk cache), memoized."""
        key = json.dumps(document, sort_keys=True)
        if key not in self._direct:
            from repro import runtime
            from repro.serve.core import execute_query
            from repro.serve.protocol import parse_query
            runtime.configure(workers=1, cache_enabled=False)
            self._direct[key] = _plain(
                execute_query(parse_query(document)))
        return self._direct[key]

    def check(self, ops, delta):
        failed = 0
        for document, status, reply in ops:
            payload = json.loads(reply)
            if status != 200 or not payload.get("ok") \
                    or payload.get("result") != self._replay(document):
                failed += 1
        problems = []
        for counter in ("serve.worker_restart", "serve.errors"):
            if delta.counter(counter):
                problems.append(f"{counter} = {delta.counter(counter):g}")
        if delta.counter("link.design_attempts"):
            problems.append("a timed request missed the warm memo")
        return failed, problems

    def peak_rss_mb(self) -> float:
        return self.servers[False].peak_rss_mb()


WORKLOADS = {cls.name: cls for cls in (Table2, Synth, McTail, Serve)}
