"""Deterministic fault injection for the runtime's failure paths.

A production-scale sweep runs for hours across many worker processes;
the failure modes that matter — a worker OOM-killed mid-chunk, a cache
file half-written by a crashed process, a straggler chunk — are rare
and timing-dependent, which makes the *recovery* code the least tested
code in the tree.  This module turns those failures into deterministic,
scriptable events so chaos tests (and the CI ``chaos-smoke`` job) can
pin down the recovery behaviour exactly:

* ``worker_crash`` — the pool worker executing a chosen chunk dies
  abruptly (``os._exit``), which the parent observes as a
  ``BrokenProcessPool``.  :func:`repro.runtime.parallel.parallel_map`
  must recover by re-running the unfinished chunks on the serial path
  and produce bit-identical results.
* ``slow_chunk`` — the worker executing a chosen chunk sleeps first,
  simulating a straggler without changing any result.
* ``cache_corrupt`` — a chosen :meth:`repro.runtime.cache.DiskCache.put`
  leaves garbage bytes on disk, which the next ``get`` must quarantine
  (rename to ``*.quarantine``) and report as a miss.

Faults are addressed by *site ordinal*, never by wall clock or chance,
so an injected run is exactly reproducible: ``worker_crash@chunk=1``
always kills the worker that picks up chunk 1, ``cache_corrupt@put=2``
always corrupts the third write of the process.

Activation is either environment-driven (the ``REPRO_FAULTS`` spec,
e.g. ``REPRO_FAULTS="worker_crash@chunk=0;cache_corrupt@put=1"``) or
programmatic via the :func:`inject` context manager used by the chaos
tests.  Worker-side faults ride to the pool inside the chunk payloads,
so they work under any multiprocessing start method; they fire *only*
inside pool workers, never on the serial (recovery) path — which is
what makes crash-then-recover terminate.

Everything the harness triggers, and everything the runtime survives,
is counted under the ``faults.*`` metrics family (surfaced by
``--stats`` and recorded in the run manifest):

* ``faults.injected.<kind>`` — injections that actually fired;
* ``faults.worker_crash`` — worker deaths survived: a
  ``BrokenProcessPool``, or a ``repro serve`` shard whose pipe reads
  EOF or fails a send;
* ``faults.recovered_chunks`` / ``faults.recovered_tasks`` — work
  re-run serially after a mid-run crash;
* ``faults.cache_quarantined`` — corrupt cache entries set aside;
* ``faults.cache_degraded`` — cache writes disabled for the process
  after a disk-full/read-only failure.

This module is the *only* sanctioned nondeterminism hook outside the
observability layer (``repro lint``'s determinism rule allows clocks
here and nowhere else in the runtime's compute paths).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Sequence, Tuple

from repro.runtime.metrics import METRICS

#: Fault kinds the harness can trigger.
KINDS = ("worker_crash", "slow_chunk", "cache_corrupt")

#: Kinds that execute inside pool workers (shipped with chunk payloads).
WORKER_KINDS = ("worker_crash", "slow_chunk")

#: Default straggler delay (seconds) when a ``slow_chunk`` spec does
#: not say otherwise.
DEFAULT_SLOW_DELAY = 0.01

#: Exit status of an injected worker crash — ``os._exit`` so no
#: ``finally`` blocks or atexit handlers soften the death.
CRASH_EXIT_CODE = 70

#: The site-ordinal parameter each kind is addressed by.
_SITE_PARAM = {"worker_crash": "chunk",
               "slow_chunk": "chunk",
               "cache_corrupt": "put"}


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic injection point.

    ``at`` is the site ordinal the fault fires on: the chunk index for
    worker faults, the 0-based put ordinal for ``cache_corrupt``.
    ``delay`` (seconds) is meaningful for ``slow_chunk`` only.
    """

    kind: str
    at: int = 0
    delay: float = DEFAULT_SLOW_DELAY

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {KINDS}")
        if self.at < 0:
            raise ValueError("fault site ordinal must be >= 0")
        if self.delay < 0:
            raise ValueError("slow_chunk delay must be >= 0")


def parse_spec(text: str) -> Tuple[FaultSpec, ...]:
    """Parse a ``REPRO_FAULTS`` spec string.

    Grammar: semicolon-separated entries, each
    ``<kind>[@<param>=<value>[,<param>=<value>...]]`` with ``chunk=N``
    for worker faults, ``put=N`` for cache faults and ``delay=S`` for
    ``slow_chunk``.  Malformed specs raise :class:`ValueError` loudly —
    a chaos run with a mistyped fault must not silently run clean.
    """
    specs: List[FaultSpec] = []
    for entry in text.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        kind, _, params_text = entry.partition("@")
        kind = kind.strip()
        if kind not in KINDS:
            raise ValueError(f"unknown fault kind {kind!r} in "
                             f"REPRO_FAULTS entry {entry!r}; expected "
                             f"one of {KINDS}")
        at = 0
        delay = DEFAULT_SLOW_DELAY
        for pair in filter(None, (p.strip()
                                  for p in params_text.split(","))):
            name, separator, value = pair.partition("=")
            name = name.strip()
            if not separator:
                raise ValueError(f"fault parameter {pair!r} is not "
                                 f"name=value (entry {entry!r})")
            if name == _SITE_PARAM[kind]:
                try:
                    at = int(value.strip())
                except ValueError as exc:
                    raise ValueError(
                        f"fault site {pair!r} must be an integer "
                        f"(entry {entry!r})") from exc
            elif name == "delay" and kind == "slow_chunk":
                try:
                    delay = float(value.strip())
                except ValueError as exc:
                    raise ValueError(
                        f"fault delay {pair!r} must be a number "
                        f"(entry {entry!r})") from exc
            else:
                raise ValueError(
                    f"fault kind {kind!r} does not take parameter "
                    f"{name!r} (entry {entry!r}); it is addressed by "
                    f"{_SITE_PARAM[kind]!r}")
        specs.append(FaultSpec(kind=kind, at=at, delay=delay))
    return tuple(specs)


#: Specs added programmatically via :func:`inject` (tests).
_INJECTED: List[FaultSpec] = []

#: Process-wide ordinal of cache writes, tracked only while a
#: ``cache_corrupt`` spec is active.
_PUT_ORDINAL = 0


def active_specs() -> Tuple[FaultSpec, ...]:
    """Every active fault: ``inject``-ed ones plus the env spec."""
    env = os.environ.get("REPRO_FAULTS", "").strip()
    return tuple(_INJECTED) + (parse_spec(env) if env else ())


def worker_faults(
        specs: "Sequence[FaultSpec] | None" = None
) -> Tuple[FaultSpec, ...]:
    """The subset of faults that ship to pool workers with each chunk."""
    if specs is None:
        specs = active_specs()
    return tuple(spec for spec in specs if spec.kind in WORKER_KINDS)


@contextmanager
def inject(kind: str, *, at: int = 0,
           delay: float = DEFAULT_SLOW_DELAY) -> Iterator[FaultSpec]:
    """Activate one fault for the duration of the ``with`` block.

    The chaos-test API: ``with faults.inject("worker_crash", at=1):``
    arms the fault, and leaving the block disarms it (and rewinds the
    cache put ordinal so successive tests see a fresh site space).
    """
    spec = FaultSpec(kind=kind, at=at, delay=delay)
    _INJECTED.append(spec)
    try:
        yield spec
    finally:
        _INJECTED.remove(spec)
        if kind == "cache_corrupt":
            _reset_put_ordinal()


def clear() -> None:
    """Disarm every injected fault and rewind site ordinals (tests)."""
    del _INJECTED[:]
    _reset_put_ordinal()


def _reset_put_ordinal() -> None:
    global _PUT_ORDINAL
    _PUT_ORDINAL = 0


# ---------------------------------------------------------------------------
# Firing points (called by repro.runtime.parallel / repro.runtime.cache)
# ---------------------------------------------------------------------------


def fire_chunk_faults(specs: Sequence[FaultSpec],
                      chunk_index: int) -> None:
    """Worker-side firing point, invoked at the top of each chunk.

    Only :func:`repro.runtime.parallel._run_chunk` and a ``repro
    serve`` shard's :func:`repro.serve.core.run_job` call this, and
    only with the specs that rode in on their payload — the serial and
    recovery paths never do, so an injected crash cannot kill the
    parent process that is recovering from it.
    """
    for spec in specs:
        if spec.at != chunk_index:
            continue
        if spec.kind == "slow_chunk":
            METRICS.count("faults.injected.slow_chunk")
            time.sleep(spec.delay)
        elif spec.kind == "worker_crash":
            # Abrupt death: no cleanup, no result, no metrics payload —
            # exactly what an OOM kill looks like to the parent.
            os._exit(CRASH_EXIT_CODE)


def maybe_corrupt_write(path: Path) -> bool:
    """Cache-side firing point, invoked after each successful put.

    When a ``cache_corrupt`` spec is armed, the put whose process-wide
    ordinal matches ``at`` gets its just-written file replaced with
    undecodable garbage; returns whether this write was corrupted.
    """
    global _PUT_ORDINAL
    specs = [spec for spec in active_specs()
             if spec.kind == "cache_corrupt"]
    if not specs:
        return False
    ordinal = _PUT_ORDINAL
    _PUT_ORDINAL += 1
    if not any(spec.at == ordinal for spec in specs):
        return False
    # Not JSON, not UTF-8: exercises the harshest decode path.
    path.write_bytes(b"\x00\xffcorrupt\x00")
    METRICS.count("faults.injected.cache_corrupt")
    return True
