"""Batch coalescing: ship concurrent requests as one shard job each.

A shard round trip (pickling, pool IPC, the worker's metric payload)
costs far more than a memoized link design, so one job carrying many
designs beats many jobs carrying one.  The coalescer batches by shard
occupancy, with no timer: a ``design`` query for a context with no
design job in flight ships at once; one arriving while such a job is
in flight parks in the context's bucket, and the bucket ships when
that job returns (or sooner, once it holds :data:`MAX_BATCH` queries)
as one job, whose queries the shard runs through ``execute_query``
one after another.  Batches therefore form exactly while the shard is
busy, and an idle context answers without waiting.

One invariant keeps parked requests from stranding, since no timer
will rescue them: a bucket parks only while a design job of its
context is in flight, and every such job's completion ships the
bucket, whether the job succeeds, raises or is cancelled.

Only single-length ``design`` queries coalesce — ``design_batch``
already *is* a batch, and ``max_feasible_length`` / ``mc`` answers
don't batch — those dispatch immediately as singleton jobs and do not
count as in flight.  ``serve.batch_size`` (a histogram; its p50 is the
acceptance gate for "coalescing demonstrably engaged") and
``serve.batches`` record what actually happened.

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

#: Queries a parked bucket holds before it ships without waiting for
#: the in-flight job.  At 32 clients x 8 requests of mostly cold
#: designs, 64 against 1 measured a p50 of 8.9-12.5 ms against
#: 18.7-20.4 ms and 763-1,014 against 679-824 req/s (2-core host).
MAX_BATCH = 64

#: (query, future-to-resolve) pairs parked behind an in-flight job.
_Bucket = List[Tuple[Query, "asyncio.Future[Any]"]]


class Coalescer:
    """Batches ``design`` queries that arrive while their shard is busy."""

    def __init__(self, pool: ShardedPool) -> None:
        self._pool = pool
        self._pending: Dict[ContextSpec, _Bucket] = {}
        #: Design jobs in flight per context (absent = idle).
        self._busy: Dict[ContextSpec, int] = {}
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
        if query.context not in self._busy \
                or len(bucket) >= MAX_BATCH:
            self._ship(query.context)
        return await future

    def _ship(self, context: ContextSpec) -> None:
        """Send a context's bucket to its shard as one job."""
        bucket = self._pending.pop(context, None)
        if not bucket:
            return
        self._busy[context] = self._busy.get(context, 0) + 1
        task = asyncio.get_running_loop().create_task(
            self._run_batch(context, bucket))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_batch(self, context: ContextSpec,
                         bucket: _Bucket) -> None:
        for _ in bucket:
            METRICS.observe("serve.batch_size", float(len(bucket)))
        METRICS.count("serve.batches")
        try:
            results = await self._pool.run(
                [query for query, _ in bucket])
        except asyncio.CancelledError:
            for _, future in bucket:
                future.cancel()
            raise
        except Exception as exc:  # noqa: BLE001 - evaluation errors
            # belong to the requests of this job, answered 500 each.
            for _, future in bucket:
                if not future.done():
                    future.set_exception(exc)
        else:
            for (_, future), result in zip(bucket, results):
                if not future.done():
                    future.set_result(result)
        finally:
            self._busy[context] -= 1
            if not self._busy[context]:
                del self._busy[context]
            self._ship(context)

    async def drain(self) -> None:
        """Ship every parked bucket and wait for in-flight batches."""
        for context in list(self._pending):
            self._ship(context)
        while self._inflight:
            await asyncio.gather(*list(self._inflight),
                                 return_exceptions=True)
