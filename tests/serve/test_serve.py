"""End-to-end service tests: bit-equality, coalescing, crash recovery.

Every test hosts a real :class:`ReproServer` on an ephemeral TCP port
(or a Unix socket) inside ``asyncio.run`` and talks to it over real
connections.  The load they generate is tiny; the assertions are
exact — a served result must compare *equal* to the direct
:func:`repro.serve.core.execute_query` call, which for JSON-carried
floats means bit-identical doubles.
"""

import asyncio
import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.runtime import METRICS, faults
from repro.serve import ReproServer, ShardedPool, core, resolve_config
from repro.serve.core import execute_query
from repro.serve.loadgen import (
    _open,
    _roundtrip,
    run_load,
    tcp_endpoint,
    unix_endpoint,
)
from repro.serve.loadgen import main as loadgen_main
from repro.serve.protocol import parse_query

#: One short design plus the other three ops — every op the wire
#: schema knows, kept tiny so worker-side compute stays fast.
DOCUMENTS = (
    {"op": "design", "length_mm": 1.0},
    {"op": "design", "length_mm": 2.05},
    {"op": "design_batch", "lengths_mm": [1.0, 2.5, 250.0]},
    {"op": "max_feasible_length"},
    {"op": "mc", "length_mm": 2.0, "samples": 16, "seed": 2010,
     "engine": "model"},
)


async def _serve_and_ask(config, documents):
    """Host a server, send ``documents`` on one connection, close."""
    server = ReproServer(config)
    await server.start()
    try:
        if config.host:
            endpoint = tcp_endpoint(config.host, server.port)
        else:
            endpoint = unix_endpoint(config.socket)
        reader, writer = await _open(endpoint)
        try:
            responses = []
            for document in documents:
                responses.append(await _roundtrip(reader, writer,
                                                  document))
            return responses
        finally:
            writer.close()
    finally:
        await server.close()


def _assert_bit_identical(documents, responses):
    for document, response in zip(documents, responses):
        assert response["_status"] == 200
        assert response["ok"] is True
        direct = execute_query(parse_query(document))
        assert response["result"] == direct, document


class TestBitEquality:
    def test_sharded_answers_match_direct_calls(self, suite90):
        """Worker-process answers are bit-identical to in-process."""
        config = resolve_config(port=0, shards=1)
        responses = asyncio.run(_serve_and_ask(config, DOCUMENTS))
        _assert_bit_identical(DOCUMENTS, responses)

    def test_inline_mode_answers_match_direct_calls(self, suite90):
        """``shards=0`` computes in-process; same bit-exact answers."""
        config = resolve_config(port=0, shards=0)
        responses = asyncio.run(_serve_and_ask(config, DOCUMENTS))
        _assert_bit_identical(DOCUMENTS, responses)

    def test_unix_socket_transport(self, suite90, tmp_path):
        config = resolve_config(host="", port=0, shards=0,
                                socket=str(tmp_path / "serve.sock"))
        documents = DOCUMENTS[:2]
        responses = asyncio.run(_serve_and_ask(config, documents))
        _assert_bit_identical(documents, responses)
        # close() removed the socket file.
        assert not (tmp_path / "serve.sock").exists()

    def test_kernel_engine_is_another_name_for_model(self, suite90):
        """``"engine": "kernel"`` and ``"model"`` answer the same
        bytes."""
        documents = [{"op": "mc", "length_mm": 2.0, "samples": 16,
                      "seed": 2010, "estimator": "importance",
                      "engine": engine}
                     for engine in ("kernel", "model")]

        async def scenario():
            config = resolve_config(port=0, shards=1)
            server = ReproServer(config)
            await server.start()
            try:
                reader, writer = await _open(
                    tcp_endpoint(config.host, server.port))
                try:
                    bodies = []
                    for document in documents:
                        body = json.dumps(document).encode("utf-8")
                        writer.write(
                            b"POST /query HTTP/1.1\r\nHost: repro\r\n"
                            b"Content-Length: %d\r\n\r\n" % len(body)
                            + body)
                        await writer.drain()
                        bodies.append(await _read_simple(reader))
                    return bodies
                finally:
                    writer.close()
            finally:
                await server.close()

        kernel, model = asyncio.run(scenario())
        assert kernel[0] == model[0] == 200
        assert json.loads(model[1])["ok"] is True
        assert kernel[1] == model[1]


class TestCrashRecovery:
    def test_injected_worker_crash_does_not_drop_requests(self,
                                                          suite90):
        """The first job's worker dies; both answers still arrive,
        bit-identical, and the shard is rebuilt behind them."""
        config = resolve_config(port=0, shards=1)
        documents = ({"op": "design", "length_mm": 1.5},
                     {"op": "design", "length_mm": 3.0})
        before = dict(METRICS.counters)
        with faults.inject("worker_crash", at=0):
            responses = asyncio.run(_serve_and_ask(config, documents))
        _assert_bit_identical(documents, responses)
        delta = {name: METRICS.counters.get(name, 0)
                 - before.get(name, 0)
                 for name in ("faults.worker_crash",
                              "serve.worker_restart")}
        assert delta["faults.worker_crash"] == 1
        assert delta["serve.worker_restart"] == 1

    def test_mc_across_worker_crash_is_bit_identical(self, suite90):
        config = resolve_config(port=0, shards=1)
        documents = ({"op": "mc", "length_mm": 2.0, "samples": 16,
                      "seed": 2010, "engine": "model"},)
        with faults.inject("worker_crash", at=0):
            responses = asyncio.run(_serve_and_ask(config, documents))
        _assert_bit_identical(documents, responses)

    def test_a_shard_killed_while_idle_is_replaced(self, suite90):
        """A worker killed between jobs: the next job is answered,
        bit-identically, the death counts once and a new worker takes
        the shard over."""
        query = parse_query({"op": "design", "length_mm": 1.5})

        async def scenario():
            pool = ShardedPool(1)
            try:
                (pid,) = await pool.warm()
                os.kill(pid, signal.SIGKILL)
                results = await pool.run([query])
                return pid, results, await pool.warm()
            finally:
                pool.close()

        before = dict(METRICS.counters)
        pid, results, pids = asyncio.run(scenario())
        assert results == [execute_query(query)]
        for name in ("faults.worker_crash", "serve.worker_restart"):
            assert METRICS.counters.get(name, 0) \
                - before.get(name, 0) == 1, name
        assert len(pids) == 1 and pids[0] != pid

    @pytest.mark.skipif(
        multiprocessing.get_start_method(allow_none=True)
        not in (None, "fork"),
        reason="the worker must inherit the patched evaluator")
    def test_an_unpicklable_evaluation_error_answers_500(
            self, suite90, monkeypatch):
        """An error pickle refuses still reaches its request as a 500
        naming it; the worker that raised it lives on."""
        def refuse(query):
            raise _Unpicklable("no design today")

        monkeypatch.setattr(core, "execute_query", refuse)
        before = METRICS.counters.get("faults.worker_crash", 0)
        (response,) = asyncio.run(_serve_and_ask(
            resolve_config(port=0, shards=1),
            [{"op": "design", "length_mm": 1.0}]))
        assert response["_status"] == 500
        assert "_Unpicklable: no design today" in response["error"]
        assert METRICS.counters.get("faults.worker_crash", 0) == before

    def test_no_process_can_start_so_shards_compute_inline(
            self, suite90, monkeypatch):
        """Where a worker cannot fork, the shard counts
        ``parallel.pool_unavailable`` once and answers inline."""
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda: _RefusingContext())
        before = dict(METRICS.counters)
        children = set(_children(os.getpid()))
        responses = asyncio.run(_serve_and_ask(
            resolve_config(port=0, shards=1), DOCUMENTS))
        _assert_bit_identical(DOCUMENTS, responses)
        assert METRICS.counters.get("parallel.pool_unavailable", 0) \
            - before.get("parallel.pool_unavailable", 0) == 1
        assert set(_children(os.getpid())) <= children


class _RefusingContext:
    """A multiprocessing context whose processes never start."""

    Pipe = staticmethod(multiprocessing.Pipe)

    class Process:
        def __init__(self, *args, **kwargs):
            pass

        def start(self):
            raise OSError("no process slot")


class _Unpicklable(Exception):
    """An evaluation error that pickle refuses."""

    def __reduce__(self):
        raise TypeError("this error does not pickle")


class TestShardQueue:
    def test_thousands_of_queued_jobs_drain(self, suite90):
        """2,000 singleton jobs queued on one shard all come back.
        Sent down the pipe at once, their answers would fill the
        return pipe while the server blocks on a full job pipe."""
        query = parse_query({"op": "design", "length_mm": 1.0})
        pids, outcome = [], []

        async def scenario():
            pool = ShardedPool(1)
            try:
                pids.extend(await pool.warm())
                outcome.extend(await asyncio.gather(
                    *(pool.run([query]) for _ in range(2000))))
            finally:
                pool.close()

        # The event loop runs in a thread: a deadlocked loop blocks
        # inside a pipe write, where no asyncio timeout can fire.
        thread = threading.Thread(target=asyncio.run, args=(scenario(),),
                                  daemon=True)
        thread.start()
        thread.join(timeout=60.0)
        if thread.is_alive():
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            pytest.fail("2,000 queued jobs did not drain in 60 s")
        assert outcome == [[execute_query(query)]] * 2000


class TestShardSeconds:
    @pytest.mark.parametrize("shards", [0, 1])
    def test_shard_seconds_observes_each_job_once(self, suite90, shards):
        """``serve.shard_seconds`` gains one observation per job, on
        the inline path as through a shard worker."""
        def jobs_and_observations():
            histogram = METRICS.histogram("serve.shard_seconds")
            return (METRICS.counters.get("serve.batches", 0),
                    0 if histogram is None else histogram.count)

        before = jobs_and_observations()
        responses = asyncio.run(_serve_and_ask(
            resolve_config(port=0, shards=shards), DOCUMENTS))
        _assert_bit_identical(DOCUMENTS, responses)
        after = jobs_and_observations()
        assert after[0] - before[0] == len(DOCUMENTS)
        assert after[1] - before[1] == len(DOCUMENTS)


class TestCoalescing:
    @pytest.mark.parametrize("shards, clients, requests_per_client, seed",
                             [(0, 6, 2, 11), (2, 8, 4, 2010)])
    def test_concurrent_designs_share_jobs(self, suite90, shards,
                                           clients,
                                           requests_per_client, seed):
        """Concurrent clients' design queries merge into fewer jobs,
        every request is answered, and every served answer (the load
        plus one query of each op) equals the direct call."""
        # serve.batch_size accumulates over the whole process; its p50
        # must describe this load alone.
        METRICS.reset()

        async def scenario():
            config = resolve_config(port=0, shards=shards)
            server = ReproServer(config)
            await server.start()
            try:
                endpoint = tcp_endpoint(config.host, server.port)
                report = await run_load(
                    endpoint, clients=clients,
                    requests_per_client=requests_per_client,
                    seed=seed)
                load_metrics = (
                    METRICS.counters["serve.requests"],
                    METRICS.counters["serve.batches"],
                    METRICS.quantile("serve.batch_size", 0.5))
                reader, writer = await _open(endpoint)
                try:
                    probes = [await _roundtrip(reader, writer, document)
                              for document in DOCUMENTS]
                finally:
                    writer.close()
                return report, load_metrics, probes
            finally:
                await server.close()

        report, (requests, batches, batch_p50), probes = \
            asyncio.run(scenario())
        expected = clients * requests_per_client
        assert report.requests == requests == expected
        assert report.failures == 0
        assert batches < requests
        # Request-weighted: the median request shared its shard job
        # with at least one peer.
        assert batch_p50 > 1.0
        assert len(report.exchanges) == expected
        _assert_bit_identical(
            [document for document, _ in report.exchanges],
            [response for _, response in report.exchanges])
        _assert_bit_identical(DOCUMENTS, probes)


class TestLoadgenCli:
    def test_main_drives_a_live_server_and_prints_a_summary(
            self, suite90, capsys):
        """``python -m repro.serve.loadgen`` against a server on its
        own event loop: every request answered, exit status 0."""
        loop = asyncio.new_event_loop()
        server = ReproServer(resolve_config(port=0, shards=0))
        loop.run_until_complete(server.start())
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            status = loadgen_main(["--port", str(server.port),
                                   "--clients", "3", "--requests", "2"])
        finally:
            asyncio.run_coroutine_threadsafe(server.close(),
                                             loop).result(timeout=60)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=60)
            loop.close()
        summary = json.loads(capsys.readouterr().out)
        assert status == 0
        assert summary["requests"] == 6
        assert summary["failures"] == 0
        assert summary["throughput_rps"] > 0
        assert 0 < summary["latency_p50_ms"] <= summary["latency_p99_ms"]


class TestHttpSurface:
    def test_routes_and_errors(self, suite90):
        async def scenario():
            config = resolve_config(port=0, shards=0)
            server = ReproServer(config)
            await server.start()
            try:
                endpoint = tcp_endpoint(config.host, server.port)
                reader, writer = await _open(endpoint)
                try:
                    bad_op = await _roundtrip(
                        reader, writer, {"op": "teleport"})
                    missing = await _roundtrip(
                        reader, writer, {"op": "design"})
                    # json.dumps writes the infinity as ``Infinity``.
                    infinite = await _roundtrip(
                        reader, writer,
                        {"op": "mc", "length_mm": float("inf")})
                    # Finite, but the wire RC of a 1e297 m line
                    # overflows: the samples come back NaN.
                    overflow = await _roundtrip(
                        reader, writer,
                        {"op": "mc", "length_mm": 1e300})
                finally:
                    writer.close()

                reader, writer = await _open(endpoint)
                try:
                    writer.write(b"GET /healthz HTTP/1.1\r\n"
                                 b"Host: repro\r\n\r\n")
                    await writer.drain()
                    health = await _read_simple(reader)
                    writer.write(b"GET /metrics HTTP/1.1\r\n"
                                 b"Host: repro\r\n\r\n")
                    await writer.drain()
                    metrics = await _read_simple(reader)
                    writer.write(b"GET /nowhere HTTP/1.1\r\n"
                                 b"Host: repro\r\n\r\n")
                    await writer.drain()
                    nowhere = await _read_simple(reader)
                finally:
                    writer.close()
                return bad_op, missing, infinite, overflow, health, \
                    metrics, nowhere
            finally:
                await server.close()

        bad_op, missing, infinite, overflow, health, metrics, \
            nowhere = asyncio.run(scenario())
        assert bad_op["_status"] == 400 and bad_op["ok"] is False
        assert "op" in bad_op["error"]
        assert missing["_status"] == 400 and missing["ok"] is False
        assert infinite["_status"] == 400 and infinite["ok"] is False
        assert "length_mm" in infinite["error"]
        assert overflow["_status"] == 400 and overflow["ok"] is False
        assert "not finite" in overflow["error"]
        assert health[0] == 200
        assert json.loads(health[1])["ok"] is True
        assert metrics[0] == 200
        assert "serve_requests_total" in metrics[1].decode("utf-8")
        assert nowhere[0] == 404

    def test_overlong_lines_answer_400(self):
        """A request line or header past asyncio's 64 KiB line limit
        is a counted 400, not a crashed connection handler."""
        requests = (
            b"GET /" + b"q" * 70_000 + b" HTTP/1.1\r\n"
            b"Host: repro\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\n"
            b"X-Padding: " + b"a" * 70_000 + b"\r\n\r\n",
        )

        async def scenario():
            config = resolve_config(port=0, shards=0)
            server = ReproServer(config)
            await server.start()
            try:
                endpoint = tcp_endpoint(config.host, server.port)
                replies = []
                for request in requests:
                    reader, writer = await _open(endpoint)
                    try:
                        writer.write(request)
                        await writer.drain()
                        replies.append(await _read_simple(reader))
                    finally:
                        writer.close()
                return replies
            finally:
                await server.close()

        before = METRICS.counters.get("serve.errors", 0)
        replies = asyncio.run(scenario())
        for status, body in replies:
            assert status == 400
            assert "too long" in json.loads(body)["error"]
        assert METRICS.counters.get("serve.errors", 0) - before == 2


class TestShutdown:
    def test_an_unstarted_server_leaves_no_process(self):
        before = set(_children(os.getpid()))
        server = ReproServer(resolve_config(port=0, shards=2))
        assert set(_children(os.getpid())) <= before
        asyncio.run(server.close())
        assert set(_children(os.getpid())) <= before

    def test_close_is_idempotent(self):
        async def scenario():
            server = ReproServer(resolve_config(port=0, shards=1))
            await server.start()
            await server.close()
            await server.close()
            return server.pool

        pool = asyncio.run(scenario())
        assert all(shard is None for shard in pool._shards)

    def test_sigterm_stops_every_shard_worker(self, tmp_path):
        """SIGTERM shuts the server down as Ctrl-C does: exit 0, no
        shard worker left running, the port free to bind again."""
        process, port, workers, errors = _serve_in_a_process(tmp_path)
        try:
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0, errors.read_text()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
        _assert_gone(workers)
        with socket.socket() as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind(("127.0.0.1", port))

    def test_shard_workers_exit_when_the_server_is_killed(self,
                                                          tmp_path):
        """A server killed outright closes no pipe itself; each shard
        worker still reads EOF once the server is gone, and exits."""
        process, _, workers, _ = _serve_in_a_process(tmp_path)
        process.kill()
        process.wait()
        process.stdout.close()
        try:
            _assert_gone(workers)
        finally:
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_sigterm_to_a_shard_worker_is_a_crash_not_a_shutdown(
            self, tmp_path):
        """A forked worker drops the server's signal wakeup: SIGTERM
        ends that worker alone, and the server answers on and counts
        one death."""
        process, port, workers, errors = _serve_in_a_process(tmp_path)
        try:
            os.kill(workers[0], signal.SIGTERM)
            _assert_gone(workers[:1])
            document = {"op": "design", "length_mm": 1.0}
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/query",
                data=json.dumps(document).encode("utf-8"))
            with urllib.request.urlopen(request, timeout=30) as reply:
                answer = json.loads(reply.read())
            deadline = time.monotonic() + 10.0
            while True:
                with urllib.request.urlopen(
                        f"http://127.0.0.1:{port}/metrics",
                        timeout=30) as reply:
                    metrics = reply.read().decode("utf-8")
                if "repro_faults_worker_crash_total" in metrics \
                        or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
            assert process.poll() is None, errors.read_text()
        finally:
            process.terminate()
            process.wait()
            process.stdout.close()
        assert answer["result"] == execute_query(parse_query(document))
        assert "repro_faults_worker_crash_total 1\n" in metrics
        assert "repro_serve_worker_restart_total 1\n" in metrics


def _serve_in_a_process(tmp_path):
    """``repro serve --shards 2`` in a child process, once listening:
    (process, port, shard worker pids, stderr path)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1])]
        + [entry for entry in [env.get("PYTHONPATH")] if entry])
    errors = tmp_path / "stderr.txt"
    with open(errors, "wb") as stderr:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port",
             "0", "--shards", "2"],
            stdout=subprocess.PIPE, stderr=stderr, env=env)
    try:
        line = process.stdout.readline().decode("utf-8")
        assert line.startswith("repro serve: listening on http://"), \
            line + errors.read_text()
        port = int(line.split("http://", 1)[1].split()[0]
                   .rsplit(":", 1)[1])
        workers = _children(process.pid)
        assert len(workers) >= 2, workers
    except BaseException:
        process.kill()
        process.wait()
        process.stdout.close()
        raise
    return process, port, workers, errors


def _assert_gone(pids, timeout=10.0):
    """Every process in ``pids`` ends within ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while any(_alive(pid) for pid in pids) \
            and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not [pid for pid in pids if _alive(pid)]


def _children(pid):
    """Child PIDs of every thread of process ``pid`` (Linux /proc)."""
    children = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        children.extend(int(child) for child in
                        (task / "children").read_text().split())
    return children


def _alive(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


async def _read_simple(reader):
    """Read one (status, body) HTTP response off a stream."""
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = 0
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n"):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    return status, await reader.readexactly(length)
