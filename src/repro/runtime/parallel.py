"""Deterministic process-pool execution with a serial fallback.

:func:`parallel_map` is the one parallel primitive every workload uses.
Its contract:

* **Order-preserving** — results come back in input order, always.
* **Deterministic chunking** — items are split into contiguous chunks
  whose boundaries depend only on ``len(items)``, ``workers`` and
  ``chunk``, never on scheduling.
* **Serial fallback** — ``workers=1`` (or ``REPRO_WORKERS=1``, or a
  single item) runs the plain in-process loop, and any environment
  where a process pool cannot start degrades to the same path rather
  than crashing.
* **Crash recovery** — a worker that dies mid-run (segfault, OOM kill,
  an injected ``worker_crash`` fault) surfaces as a
  ``BrokenProcessPool``; instead of aborting the workload, the
  unfinished chunks are re-run on the serial path, so the result list
  is bit-identical to a clean run.  Recoveries are counted under the
  ``faults.*`` metrics family (``faults.worker_crash``,
  ``faults.recovered_chunks/tasks``).
* **Diagnosable failures** — an exception raised by ``fn`` for one
  item is wrapped in :class:`TaskError` naming the workload label, the
  item index and the chunk it ran in, so one bad draw out of 10k is
  locatable from the traceback alone.
* **Observability round-trip** — each worker records into its own
  metrics registry (and, when the parent is tracing, its own span
  collector); the payloads ride back with the results, metrics merge
  into the parent registry and spans are spliced under the dispatching
  ``parallel.map`` span.  ``--stats`` totals and traces are therefore
  complete for any worker count.
* **No nested pools** — inside a worker, :func:`resolve_workers`
  always answers 1, so a parallelized workload that itself calls
  ``parallel_map`` runs that inner loop serially instead of forking a
  pool per worker.

Because callables and items cross a process boundary, ``fn`` must be a
module-level function and the items picklable — every workload in this
repository passes plain frozen dataclasses.

Randomness: workloads never share one generator across tasks.  Instead
:func:`spawn_seed_sequences` derives one independent
:class:`numpy.random.SeedSequence` child per task, so each task's
stream is identical whether it runs serially, or on any worker of any
pool — the determinism contract the equivalence tests pin down.  The
same property is what makes crash recovery exact: re-running a chunk
walks the very streams the dead worker would have walked.
"""

from __future__ import annotations

import math
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime import faults, trace
from repro.runtime.metrics import METRICS

#: True inside a pool worker — makes nested parallelism collapse to
#: the serial path instead of spawning pools from pool workers.
_IN_WORKER = False


class TaskError(RuntimeError):
    """One item of a :func:`parallel_map` workload failed.

    Carries enough context to locate the failure in a large sweep:
    the workload ``label`` (callers pass one; the callable's name
    otherwise), the ``item_index`` into the original sequence, and the
    ``chunk_index`` it was dispatched in (``None`` on the serial
    path).  The original exception is summarized in ``cause_summary``
    and chained as ``__cause__`` within the raising process; the
    summary survives the pickle across the pool boundary, where
    ``__cause__`` does not.
    """

    def __init__(self, label: str, item_index: int,
                 chunk_index: Optional[int], cause_summary: str):
        # Positional args keep the default exception pickling
        # (``(cls, self.args)``) working across the pool boundary.
        super().__init__(label, item_index, chunk_index, cause_summary)
        self.label = label
        self.item_index = item_index
        self.chunk_index = chunk_index
        self.cause_summary = cause_summary

    def __str__(self) -> str:
        where = ("the serial path" if self.chunk_index is None
                 else f"chunk {self.chunk_index}")
        return (f"item {self.item_index} of {self.label!r} failed on "
                f"{where}: {self.cause_summary}")


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count for a workload.

    Resolution order: the worker-process guard (always serial inside a
    pool worker), the explicit argument, the :func:`configure` override
    (CLI ``--workers``), the ``REPRO_WORKERS`` environment variable,
    then 1 (serial).  ``workers=0`` or a negative request is an error;
    the special value ``None`` means "use the defaults".
    """
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if _IN_WORKER:
        return 1
    if workers is not None:
        return workers
    from repro import runtime
    configured = runtime.configured_workers()
    if configured is not None:
        return configured
    env = runtime.env_int("REPRO_WORKERS")
    if env is not None:
        if env < 1:
            raise ValueError("REPRO_WORKERS must be >= 1")
        return env
    return 1


def _apply_items(fn: Callable[[Any], Any], items: Sequence[Any], *,
                 label: str, start: int,
                 chunk_index: Optional[int]) -> List[Any]:
    """``[fn(x) for x in items]`` with :class:`TaskError` wrapping.

    ``start`` is the offset of ``items[0]`` in the original sequence,
    so the wrapped error names the global item index.  Each item's
    wall time feeds the ``parallel.task_seconds`` histogram, the
    distribution behind the ``--stats`` p50/p95/p99 task rows.
    """
    results: List[Any] = []
    for offset, item in enumerate(items):
        started = time.perf_counter()
        try:
            result = fn(item)
        except TaskError:
            raise  # nested parallel_map already attributed it
        except Exception as exc:
            raise TaskError(label, start + offset, chunk_index,
                            f"{type(exc).__name__}: {exc}") from exc
        METRICS.observe("parallel.task_seconds",
                        time.perf_counter() - started)
        results.append(result)
    return results


def _apply_lanes(fn: Callable[[List[Any]], List[Any]],
                 items: Sequence[Any], *, label: str, start: int,
                 chunk_index: Optional[int]) -> List[Any]:
    """``fn(items)`` as one call, with per-item :class:`TaskError`s.

    ``fn`` returns one result per item; an item that failed holds its
    exception instead, and the first such item raises the
    :class:`TaskError` a per-item map would have raised for it.  The
    call's wall time feeds ``parallel.task_seconds`` as an equal share
    per item.
    """
    if not items:
        return []
    started = time.perf_counter()
    try:
        results = list(fn(list(items)))
    except TaskError:
        raise
    except Exception as exc:
        raise TaskError(label, start, chunk_index,
                        f"{type(exc).__name__}: {exc}") from exc
    for offset, result in enumerate(results):
        if isinstance(result, Exception):
            raise TaskError(label, start + offset, chunk_index,
                            f"{type(result).__name__}: {result}"
                            ) from result
    share = (time.perf_counter() - started) / len(items)
    for _ in items:
        METRICS.observe("parallel.task_seconds", share)
    return results


@dataclass(frozen=True)
class _Lanes:
    """A :func:`parallel_map_lanes` function: it maps a whole chunk."""

    fn: Callable[[List[Any]], List[Any]]


def _apply(fn: Callable, items: Sequence[Any], *, label: str, start: int,
           chunk_index: Optional[int]) -> List[Any]:
    """Run one chunk, per item or (for :class:`_Lanes`) in one call."""
    if isinstance(fn, _Lanes):
        return _apply_lanes(fn.fn, items, label=label, start=start,
                            chunk_index=chunk_index)
    return _apply_items(fn, items, label=label, start=start,
                        chunk_index=chunk_index)


#: (fn, chunk items, capture trace?, chunk index, start offset,
#:  workload label, worker-side fault specs)
_ChunkPayload = Tuple[Callable[[Any], Any], List[Any], bool, int, int,
                      str, Tuple[faults.FaultSpec, ...]]
_ChunkResult = Tuple[List[Any], dict, List[trace.Event]]


def _run_chunk(payload: _ChunkPayload) -> _ChunkResult:
    """Worker-side body: apply ``fn`` to one contiguous chunk.

    The worker's registry is reset first (pool workers are reused
    across chunks and, under ``fork``, inherit the parent's totals),
    so the returned payload is exactly this chunk's contribution.
    Trace capture ends in the ``finally`` block: a chunk whose ``fn``
    raises must not leave the reused worker in capture mode, or every
    later chunk on that worker would leak its spans into a dead
    collector.
    """
    global _IN_WORKER
    fn, chunk, capture_trace, chunk_index, start, label, specs \
        = payload
    _IN_WORKER = True
    METRICS.reset()
    collector = trace.begin_worker_capture() if capture_trace else None
    events: List[trace.Event] = []
    try:
        faults.fire_chunk_faults(specs, chunk_index)
        with trace.span("parallel.chunk", items=len(chunk),
                        chunk=chunk_index):
            results = _apply(fn, chunk, label=label, start=start,
                             chunk_index=chunk_index)
    finally:
        _IN_WORKER = False
        if collector is not None:
            events = trace.end_worker_capture(collector)
    return results, METRICS.to_payload(), events


def new_pool(workers: int, chunks: Optional[int] = None
             ) -> Optional[ProcessPoolExecutor]:
    """A worker pool, or ``None`` where pools cannot start.

    The one place process pools are built (``parallel_map`` and the
    ``repro serve`` shards both come through here): restricted
    environments (no /dev/shm, no fork) answer ``None`` and count
    ``parallel.pool_unavailable`` so callers degrade to their serial
    path instead of crashing.  ``chunks`` caps the pool size at the
    number of work units when known."""
    if chunks is not None:
        workers = min(workers, chunks)
    try:
        return ProcessPoolExecutor(max_workers=workers)
    except (OSError, PermissionError, NotImplementedError):
        METRICS.count("parallel.pool_unavailable")
        return None


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    workers: Optional[int] = None,
    chunk: Optional[int] = None,
    label: Optional[str] = None,
) -> List[Any]:
    """``[fn(x) for x in items]``, possibly across worker processes.

    ``chunk`` is the number of items handed to a worker at once; by
    default the items are split evenly, one chunk per worker.  The
    chunking (and therefore any chunk-indexed seeding done by the
    caller) is a pure function of the inputs.

    ``label`` names the workload in :class:`TaskError` diagnostics
    (defaults to the callable's name).  After a mid-run worker death
    the unfinished chunks re-run serially, and the results are
    bit-identical to a clean run.
    """
    items = list(items)
    workers = resolve_workers(workers)
    if chunk is not None and chunk < 1:
        raise ValueError("chunk must be >= 1")
    if label is None:
        label = getattr(fn, "__qualname__", None) or repr(fn)
    # Parse (and thereby validate) any armed fault spec up front: a
    # malformed REPRO_FAULTS must fail loudly even on the serial
    # path, never silently disable the chaos that was asked for.
    worker_specs = faults.worker_faults()
    METRICS.count("parallel.tasks", len(items))
    if workers <= 1 or len(items) <= 1:
        with METRICS.timer("parallel.serial"):
            return _apply(fn, items, label=label, start=0,
                          chunk_index=None)

    if chunk is None:
        chunk = max(1, math.ceil(len(items) / workers))
    starts = list(range(0, len(items), chunk))
    chunks = [items[start:start + chunk] for start in starts]
    pool = new_pool(workers, len(chunks))
    if pool is None:
        # Restricted environments fall back to the serial path
        # instead of failing the workload.
        with METRICS.timer("parallel.serial"):
            return _apply(fn, items, label=label, start=0,
                          chunk_index=None)

    capture_trace = trace.TRACER.enabled
    results: List[Any] = []
    done = 0        # chunks fully collected, in order
    with trace.span("parallel.map", tasks=len(items), workers=workers,
                    chunks=len(chunks)) as dispatch, \
            METRICS.timer("parallel.pool"):
        payloads = [(fn, chunks[index], capture_trace, index,
                     starts[index], label, worker_specs)
                    for index in range(len(chunks))]
        try:
            with pool:
                for chunk_results, metrics_payload, events \
                        in pool.map(_run_chunk, payloads):
                    results.extend(chunk_results)
                    METRICS.merge_payload(metrics_payload)
                    trace.TRACER.splice_payload(
                        events, parent_id=dispatch.span_id)
                    done += 1
        except BrokenProcessPool:
            # A worker died mid-run (segfault, OOM kill, injected
            # crash).  Everything already collected is in order; the
            # rest re-runs on the serial path below.
            METRICS.count("faults.worker_crash")
            dispatch.count("worker_crashes")
        if done < len(chunks):
            METRICS.count("faults.recovered_chunks",
                          len(chunks) - done)
            METRICS.count("faults.recovered_tasks",
                          sum(len(part) for part in chunks[done:]))
            dispatch.annotate(recovered_chunks=len(chunks) - done)
            for index in range(done, len(chunks)):
                # Deterministic re-run: fn is pure per item and any
                # RNG stream is task-owned, so the serial replay of an
                # unfinished chunk reproduces the dead worker's
                # results bit-for-bit.  Injection points never fire
                # here (fire_chunk_faults is worker-only).
                with trace.span("parallel.recover",
                                chunk=index,
                                items=len(chunks[index])):
                    results.extend(_apply(
                        fn, chunks[index], label=label,
                        start=starts[index], chunk_index=index))
    return results


def parallel_map_lanes(
    fn: Callable[[List[Any]], List[Any]],
    items: Sequence[Any],
    *,
    workers: Optional[int] = None,
    label: Optional[str] = None,
) -> List[Any]:
    """:func:`parallel_map` for a ``fn`` that maps a whole chunk.

    ``fn`` receives one contiguous chunk of ``items`` as a list and
    returns one result per item, holding an exception instance for an
    item that failed; this is how a batched engine runs many items as
    lanes of one computation.  The serial path hands ``fn`` every item
    at once; a pool hands it one chunk per worker.  Results, counters,
    crash recovery and :class:`TaskError` attribution (the failed
    item's own index) are those of :func:`parallel_map`.
    """
    if label is None:
        label = getattr(fn, "__qualname__", None) or repr(fn)
    return parallel_map(_Lanes(fn), items, workers=workers, label=label)


def spawn_seed_sequences(seed: int, count: int
                         ) -> List[np.random.SeedSequence]:
    """``count`` independent child sequences of a root seed.

    Child ``i`` is the same object no matter how the tasks are later
    chunked or scheduled, which is what makes parallel Monte-Carlo
    reproduce the serial stream exactly.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return list(np.random.SeedSequence(seed).spawn(count))


def spawn_generators(seed: int, count: int
                     ) -> List[np.random.Generator]:
    """One independent :class:`numpy.random.Generator` per task."""
    return [np.random.default_rng(seq)
            for seq in spawn_seed_sequences(seed, count)]


def spawn_labeled_sequences(seed: int, label: str, count: int
                            ) -> List[np.random.SeedSequence]:
    """``count`` child sequences of a *labeled* root seed.

    A workload that needs auxiliary streams next to its per-task
    streams (a model-engine pre-pass, per-lane Sobol scrambling keys)
    must not consume children of the plain ``SeedSequence(seed)`` root
    — that root's child ``i`` is contractually the stream of task
    ``i``.  Deriving the root entropy as ``(seed, crc32(label))``
    keeps every labeled family independent of the task streams and of
    each other, while staying a pure function of ``(seed, label)`` so
    the determinism contract (any ``workers`` count, crash recovery)
    holds for the auxiliary draws too.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    key = zlib.crc32(label.encode("utf-8"))
    return list(np.random.SeedSequence([seed, key]).spawn(count))
