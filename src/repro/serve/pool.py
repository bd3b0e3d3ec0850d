"""The sharded pool of warm worker processes behind ``repro serve``.

Each shard is one long-lived worker process, forked from the default
:mod:`multiprocessing` context on first use, that keeps its
:class:`~repro.serve.core.ServeContext` (model suite, link designer,
link memo) warm across jobs.  The server talks to it over a duplex
:func:`multiprocessing.Pipe` whose parent end the event loop reads with
``loop.add_reader``: a job is one pickled message down the pipe and
its answer one message back, with no feeder or management thread in
between.  A memo-hit job's round trip is about 0.2 ms on a 2-core
host, against 0.6 ms through the single-worker ``ProcessPoolExecutor``
each shard used to be.

A shard keeps one job in flight and queues the rest in a FIFO.  The
worker reads a job only after it has sent the previous answer, so the
server never writes to a pipe the worker has stopped reading while the
worker blocks writing answers nobody reads; with every job sent at
once, both pipe directions fill and the two processes deadlock.

A query routes to its shard by the CRC-32 of its context fingerprint,
so every query for one context lands on the same warm process and its
memo actually accumulates; CRC-32 is process-stable, unlike the salted
builtin ``hash``, so routing is reproducible run to run.

Crash recovery mirrors ``parallel_map``: a pipe that reads EOF or
fails a send means the worker died.  That counts
``faults.worker_crash``, forks a replacement (``serve.worker_restart``)
that takes over the queued jobs, and re-runs the job that was in
flight in the server process via :func:`repro.serve.core.run_job_inline`,
where injected faults never fire, so the request is answered,
bit-identically.  Where processes cannot start at all (no fork, no
free process slot) ``parallel.pool_unavailable`` counts and the shard
computes inline.

Worker metrics ride back with each job result and merge into the
parent registry, exactly as ``parallel_map`` chunks do, so
``/metrics`` totals include worker-side cache and kernel counters.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import pickle
import signal
import zlib
from collections import deque
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple

from repro.runtime import METRICS, faults, fingerprint
from repro.serve.core import ping, run_job, run_job_inline
from repro.serve.protocol import ContextSpec, Query

#: One call for a worker: ``fn(*args)`` runs there.
_Message = Tuple[Callable[..., Any], Tuple[Any, ...]]


def shard_index(context: ContextSpec, shards: int) -> int:
    """The shard a context routes to (CRC-32, process-stable)."""
    if shards <= 0:
        return 0
    return zlib.crc32(fingerprint(context).encode("ascii")) % shards


class _NoWorker(Exception):
    """The call found no live worker: it runs in the server instead."""


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives the pipe's pickle round trip, else a
    stand-in naming it, so an evaluation error still reaches its
    requests as an error rather than as a dead pipe."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any failure means "not portable"
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _work(conn: Connection, server_end: Connection) -> None:
    """A shard worker's body: answer each message until the pipe closes.

    A forked worker inherits the server's end of its own pipe; it
    closes it, or the pipe would never read EOF after the server died,
    even by SIGKILL, and the worker would outlive it.  It inherits the
    server's signal set-up too, asyncio's wakeup fd included, through
    which a SIGTERM sent to the worker would reach the server's loop
    and stop the server.  The worker drops it, dies on SIGTERM, and
    ignores SIGINT: a terminal's Ctrl-C reaches the whole process
    group, and the server shuts its workers down by closing their
    pipes.
    """
    server_end.close()
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            fn, args = conn.recv()
        except EOFError:
            return
        try:
            reply = fn(*args)
        except Exception as exc:  # noqa: BLE001 - evaluation errors
            # belong to the requests of this job.
            reply = _portable(exc)
        try:
            conn.send(reply)
        except OSError:
            return


class _Shard:
    """One warm worker process on a duplex pipe, one call in flight."""

    def __init__(self) -> None:
        self._loop = asyncio.get_running_loop()
        #: Calls in order; the head is in flight while a worker lives.
        self._calls: Deque[Tuple[_Message, "asyncio.Future[Any]"]] = \
            deque()
        self.process: Optional[BaseProcess] = None
        self._conn: Optional[Connection] = None
        self._fork()

    def _fork(self) -> None:
        """Start a worker from the default start method (``fork`` on
        Linux), so it inherits what the server set up before it, such
        as perfbench's layer shims; leaves :attr:`process` ``None``
        (counted) where processes cannot start."""
        context = multiprocessing.get_context()
        try:
            conn, child = context.Pipe()
            process = context.Process(target=_work, args=(child, conn),
                                      daemon=True)
            process.start()
        except (OSError, NotImplementedError):
            METRICS.count("parallel.pool_unavailable")
            return
        child.close()
        self.process, self._conn = process, conn
        self._loop.add_reader(conn.fileno(), self._on_reply)

    def call(self, fn: Callable[..., Any], *args: Any
             ) -> "asyncio.Future[Any]":
        """Queue ``fn(*args)`` for the worker.  The future fails with
        :class:`_NoWorker` if the worker dies with the call in flight,
        or the shard has no worker left to run it."""
        future = self._loop.create_future()
        self._calls.append(((fn, args), future))
        if len(self._calls) == 1:
            self._send()
        return future

    def _send(self) -> None:
        """Put the queue's head, not yet sent, in flight.  A failed send
        replaces the worker and tries the next head; with no worker
        left, every queued call fails over to the server."""
        while self._calls and self.process is not None:
            message, future = self._calls[0]
            if future.cancelled():
                self._calls.popleft()
                continue
            try:
                self._conn.send(message)
                return
            except OSError:
                self._replace()
        while self._calls:
            _, future = self._calls.popleft()
            if not future.done():
                future.set_exception(_NoWorker())

    def _on_reply(self) -> None:
        """The pipe is readable: the call in flight is answered, or the
        worker died."""
        try:
            reply = self._conn.recv()
        except Exception:  # noqa: BLE001 - EOF, a reset pipe or a
            # truncated message: the worker is gone either way.
            self._replace()
        else:
            _, future = self._calls.popleft()
            if not future.done():
                if isinstance(reply, BaseException):
                    future.set_exception(reply)
                else:
                    future.set_result(reply)
        if self._calls:
            self._send()

    def _replace(self) -> None:
        """The worker died: fail its call in flight over to the server
        and fork a replacement for the queued ones."""
        METRICS.count("faults.worker_crash")
        process = self.process
        self._stop()
        process.kill()
        process.join()
        process.close()
        if self._calls:
            _, future = self._calls.popleft()
            if not future.done():
                future.set_exception(_NoWorker())
        METRICS.count("serve.worker_restart")
        self._fork()

    def _stop(self) -> None:
        """Close the pipe; a live worker reads EOF and exits."""
        if self._conn is not None:
            self._loop.remove_reader(self._conn.fileno())
            self._conn.close()
        self.process = self._conn = None

    def close(self) -> None:
        """Stop the worker and cancel every queued call."""
        self._stop()
        while self._calls:
            _, future = self._calls.popleft()
            future.cancel()


class ShardedPool:
    """Warm worker processes, sharded by context, crash-recovering.

    No worker starts before the first :meth:`warm` or :meth:`run`.
    ``shards=0`` (or an environment where processes cannot start)
    computes every job in-process on the event loop's default thread
    executor — the same evaluate core, just without process isolation.
    """

    def __init__(self, shards: int) -> None:
        self.shards = max(0, shards)
        self._shards: List[Optional[_Shard]] = [None] * self.shards
        self._started = False
        self._ordinal = 0

    # -- lifecycle --------------------------------------------------

    def _start(self) -> None:
        """Fork every shard's worker, once."""
        if not self._started:
            self._started = True
            self._shards = [_Shard() for _ in range(self.shards)]

    async def warm(self) -> List[int]:
        """Ping every shard; returns live worker pids (forks them)."""
        self._start()
        pids: List[int] = []
        for shard in self._shards:
            if shard is None or shard.process is None:
                continue
            try:
                pids.append(await shard.call(ping))
            except _NoWorker:
                continue
        return pids

    def close(self) -> None:
        """Shut every shard down (workers exit; queued jobs cancel).
        A closed pool forks nothing more: later jobs run inline."""
        self._started = True
        for shard in self._shards:
            if shard is not None:
                shard.close()
        self._shards = [None] * self.shards

    # -- job dispatch -----------------------------------------------

    async def run(self, queries: Sequence[Query]) -> List[Any]:
        """Evaluate one job (queries sharing a context) somewhere warm.

        Never raises on worker death: a crashed shard is rebuilt and
        the job re-runs in-process, so the caller always gets answers
        in query order.  ``serve.shard_seconds`` observes each job
        from dispatch to answer, in-process re-runs included.
        """
        ordinal = self._ordinal
        self._ordinal += 1
        payload = (ordinal, tuple(queries), faults.worker_faults())
        self._start()
        with METRICS.observed("serve.shard_seconds"):
            index = shard_index(queries[0].context, self.shards)
            shard = (self._shards[index]
                     if index < len(self._shards) else None)
            if shard is not None and shard.process is not None:
                try:
                    results, metrics = await shard.call(run_job,
                                                        payload)
                except _NoWorker:
                    pass
                else:
                    METRICS.merge_payload(metrics)
                    return results
            return await asyncio.get_running_loop().run_in_executor(
                None, run_job_inline, payload)
