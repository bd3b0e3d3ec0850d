"""Batch coalescing: window concurrent requests into shard jobs.

A shard round trip (pickling, pool IPC, the worker's metric payload)
costs far more than a memoized link design, so one job carrying many
designs beats many jobs carrying one.  The coalescer exploits that:
the first ``design`` query for a context opens a short window
(``window_ms``); every further ``design`` query for the same context
arriving inside the window joins the same job; when the window closes
(or the batch hits ``max_batch`` first) the whole bucket ships to the
context's shard as one ``LinkDesigner.design_batch`` call, which
designs the lengths one after another.

Only single-length ``design`` queries coalesce — ``design_batch``
already *is* a batch, and ``max_feasible_length`` / ``mc`` answers
don't batch — those dispatch immediately as singleton jobs.

Coalescing is a latency/throughput trade the operator tunes:
``window_ms=0`` flushes on the next event-loop turn (still merging
whatever queued in the same turn), larger windows trade a bounded
latency floor for bigger batches.  ``serve.batch_size`` (a histogram;
its p50 is the acceptance gate for "coalescing demonstrably engaged")
and ``serve.batches`` record what actually happened.

``serve.batch_size`` is **request-weighted**: every request records
the size of the batch it rode in, so the p50 answers "how many peers
did the median *request* share its shard job with".  A per-batch
histogram would let the steady trickle of uncoalescable singleton
jobs (``mc``, ``max_feasible_length``) mask heavily batched design
traffic; ``serve.batches`` still counts jobs for the per-batch view
(requests / batches = mean batch size).
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Set, Tuple

from repro.runtime import METRICS
from repro.serve.pool import ShardedPool
from repro.serve.protocol import ContextSpec, Query

#: (query, future-to-resolve) pairs awaiting a window flush.
_Bucket = List[Tuple[Query, "asyncio.Future[Any]"]]


class Coalescer:
    """Windows concurrent ``design`` queries into per-context batches."""

    def __init__(self, pool: ShardedPool, window_seconds: float,
                 max_batch: int) -> None:
        self._pool = pool
        self._window = window_seconds
        self._max_batch = max(1, max_batch)
        self._pending: Dict[ContextSpec, _Bucket] = {}
        self._timers: Dict[ContextSpec, asyncio.TimerHandle] = {}
        self._inflight: Set["asyncio.Task[None]"] = set()

    async def submit(self, query: Query) -> Any:
        """Answer one query, possibly batched with concurrent peers."""
        if query.op != "design":
            METRICS.observe("serve.batch_size", 1.0)
            METRICS.count("serve.batches")
            results = await self._pool.run([query])
            return results[0]
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Any]" = loop.create_future()
        bucket = self._pending.setdefault(query.context, [])
        bucket.append((query, future))
        if len(bucket) >= self._max_batch:
            self._flush(query.context)
        elif len(bucket) == 1:
            self._timers[query.context] = loop.call_later(
                self._window, self._flush, query.context)
        return await future

    def _flush(self, context: ContextSpec) -> None:
        """Close a context's window and ship its bucket as one job."""
        timer = self._timers.pop(context, None)
        if timer is not None:
            timer.cancel()
        bucket = self._pending.pop(context, None)
        if not bucket:
            return
        task = asyncio.get_running_loop().create_task(
            self._run_batch(bucket))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_batch(self, bucket: _Bucket) -> None:
        for _ in bucket:
            METRICS.observe("serve.batch_size", float(len(bucket)))
        METRICS.count("serve.batches")
        try:
            results = await self._pool.run(
                [query for query, _ in bucket])
        except Exception as exc:  # pragma: no cover - pool never raises
            for _, future in bucket:
                if not future.done():
                    future.set_exception(exc)
            return
        for (_, future), result in zip(bucket, results):
            if not future.done():
                future.set_result(result)

    async def drain(self) -> None:
        """Flush every open window and wait for in-flight batches."""
        for context in list(self._pending):
            self._flush(context)
        while self._inflight:
            await asyncio.gather(*list(self._inflight),
                                 return_exceptions=True)
