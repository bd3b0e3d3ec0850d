"""The sharded pool of warm worker processes behind ``repro serve``.

Each shard is a single-worker :class:`ProcessPoolExecutor` built by
:func:`repro.runtime.new_pool` — one long-lived process that keeps its
:class:`~repro.serve.core.ServeContext` (model suite, link designer,
link memo) warm across jobs.  A query routes to its shard by the CRC-32
of its context fingerprint, so every query for one context lands on
the same warm process and its memo actually accumulates; CRC-32 is
process-stable, unlike the salted builtin ``hash``, so routing is
reproducible run to run.

Crash recovery mirrors ``parallel_map``: a job whose worker dies
(surfacing as :class:`BrokenProcessPool`) is re-run in the server
process via :func:`repro.serve.core.run_job_inline`, where injected
faults never fire, and the shard's pool is rebuilt behind it — the
request is answered, bit-identically, and the next job finds a fresh
warm worker.  Environments where pools cannot start at all (no fork,
no /dev/shm) degrade every shard to the same inline path.

Worker metrics ride back with each job result and merge into the
parent registry, exactly as ``parallel_map`` chunks do, so
``/metrics`` totals include worker-side cache and kernel counters.
"""

from __future__ import annotations

import asyncio
import zlib
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, List, Optional, Sequence

from repro.runtime import METRICS, faults, fingerprint, new_pool
from repro.serve.core import ping, run_job, run_job_inline
from repro.serve.protocol import ContextSpec, Query


def shard_index(context: ContextSpec, shards: int) -> int:
    """The shard a context routes to (CRC-32, process-stable)."""
    if shards <= 0:
        return 0
    return zlib.crc32(fingerprint(context).encode("ascii")) % shards


class ShardedPool:
    """Warm worker processes, sharded by context, crash-recovering.

    ``shards=0`` (or a pool-hostile environment) computes every job
    in-process on the event loop's default thread executor — the same
    evaluate core, just without process isolation.
    """

    def __init__(self, shards: int) -> None:
        self.shards = max(0, shards)
        self._executors: List[Optional[ProcessPoolExecutor]] = []
        self._ordinal = 0
        for _ in range(self.shards):
            self._executors.append(new_pool(1))

    # -- lifecycle --------------------------------------------------

    async def warm(self) -> List[int]:
        """Ping every shard; returns live worker pids (spawns them)."""
        pids: List[int] = []
        loop = asyncio.get_running_loop()
        for index, executor in enumerate(self._executors):
            if executor is None:
                continue
            try:
                pid = await asyncio.wrap_future(executor.submit(ping))
            except BrokenProcessPool:
                self._rebuild(index)
                continue
            pids.append(pid)
        del loop
        return pids

    def close(self) -> None:
        """Shut every shard down (workers exit; queued jobs cancel)."""
        for executor in self._executors:
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
        self._executors = [None] * self.shards

    # -- job dispatch -----------------------------------------------

    def _rebuild(self, index: int) -> None:
        """Replace a broken shard pool with a fresh warm worker."""
        broken = self._executors[index]
        if broken is not None:
            broken.shutdown(wait=False, cancel_futures=True)
        METRICS.count("serve.worker_restart")
        self._executors[index] = new_pool(1)

    async def run(self, queries: Sequence[Query]) -> List[Any]:
        """Evaluate one job (queries sharing a context) somewhere warm.

        Never raises on worker death: a crashed shard is rebuilt and
        the job re-runs in-process, so the caller always gets answers
        in query order.
        """
        ordinal = self._ordinal
        self._ordinal += 1
        payload = (ordinal, tuple(queries), faults.worker_faults())
        index = shard_index(queries[0].context, self.shards)
        executor = (self._executors[index]
                    if index < len(self._executors) else None)
        loop = asyncio.get_running_loop()
        if executor is not None:
            try:
                results, metrics = await asyncio.wrap_future(
                    executor.submit(run_job, payload))
                METRICS.merge_payload(metrics)
                return results
            except BrokenProcessPool:
                METRICS.count("faults.worker_crash")
                self._rebuild(index)
        return await loop.run_in_executor(None, run_job_inline,
                                          payload)
