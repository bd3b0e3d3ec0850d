"""Execution runtime: parallelism, persistent caching, instrumentation.

Every heavy workload in the reproduction — Monte-Carlo within-die
variation, flit-width exploration, the six-node scaling study and the
Table II/III sweeps — is an embarrassingly parallel loop.  This package
provides the shared machinery that makes those loops scale with cores
while provably preserving their serial results:

* :func:`repro.runtime.parallel.parallel_map` — a deterministic
  process-pool map with a serial fallback;
* :func:`repro.runtime.parallel.spawn_seed_sequences` — per-task RNG
  streams via :class:`numpy.random.SeedSequence` so a parallel
  Monte-Carlo run reproduces the serial stream bit-for-bit;
* :class:`repro.runtime.cache.DiskCache` — a versioned on-disk cache
  (under ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``) that warm-starts
  link designs and calibration coefficients across processes;
* :data:`repro.runtime.metrics.METRICS` — the process-wide counter /
  wall-time registry surfaced by the ``--stats`` CLI flag, merged
  across worker processes by ``parallel_map``;
* :func:`repro.runtime.trace.span` / :data:`repro.runtime.trace.TRACER`
  — hierarchical span tracing with pluggable sinks (``--trace`` writes
  JSONL), free when no sink is attached;
* :mod:`repro.runtime.manifest` — the ``manifest.json`` provenance
  record written next to traced runs.

Configuration resolves in this order: explicit function arguments,
:func:`configure` (what the CLI flags set), environment variables
(``REPRO_WORKERS``, ``REPRO_CACHE_DIR``, ``REPRO_NO_CACHE``,
``REPRO_FAULTS``), then the defaults (serial execution, cache
enabled, no faults).  All environment values go through one pair of
parsers — :func:`env_int` and :func:`env_flag` — so every variable
shares the same whitespace and truthiness rules and misconfigurations
fail loudly instead of silently flipping behaviour.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.runtime import faults
from repro.runtime.cache import (
    CACHE_VERSION,
    DiskCache,
    cache_dir,
    fingerprint,
)
from repro.runtime.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    manifest_path_for,
    run_environment,
    utc_timestamp,
    write_manifest,
)
from repro.runtime.metrics import METRICS, Histogram, MetricsRegistry
from repro.runtime.parallel import (
    TaskError,
    new_pool,
    parallel_map,
    parallel_map_lanes,
    resolve_workers,
    spawn_generators,
    spawn_labeled_sequences,
    spawn_seed_sequences,
)
from repro.runtime.profile import (
    MemoryProfiler,
    PROFILE_MODES,
    build_profile,
    collapse_stacks,
    write_flamegraph,
)
from repro.runtime.trace import (
    JsonlSink,
    SpanCollector,
    TRACER,
    Tracer,
    current_span,
    export_chrome_trace,
    span,
    summarize_events,
    summarize_trace,
)

__all__ = [
    "CACHE_VERSION",
    "DiskCache",
    "Histogram",
    "JsonlSink",
    "MANIFEST_SCHEMA",
    "METRICS",
    "MemoryProfiler",
    "MetricsRegistry",
    "PROFILE_MODES",
    "SpanCollector",
    "TRACER",
    "TaskError",
    "Tracer",
    "build_manifest",
    "build_profile",
    "collapse_stacks",
    "cache_dir",
    "cache_enabled",
    "configure",
    "configured_workers",
    "current_span",
    "env_flag",
    "env_int",
    "env_str",
    "export_chrome_trace",
    "faults",
    "fingerprint",
    "manifest_path_for",
    "new_pool",
    "parallel_map",
    "parallel_map_lanes",
    "reset_configuration",
    "resolve_workers",
    "run_environment",
    "span",
    "spawn_generators",
    "spawn_labeled_sequences",
    "spawn_seed_sequences",
    "summarize_events",
    "summarize_trace",
    "utc_timestamp",
    "write_flamegraph",
    "write_manifest",
]

#: Process-wide overrides set by :func:`configure` (the CLI flags).
_WORKERS_OVERRIDE: Optional[int] = None
_CACHE_OVERRIDE: Optional[bool] = None

#: The spellings :func:`env_flag` accepts (after strip + lower).
_FLAG_TRUE = frozenset({"1", "true", "yes", "on"})
_FLAG_FALSE = frozenset({"0", "false", "no", "off"})


def env_int(name: str) -> Optional[int]:
    """The integer value of an environment variable, or ``None``.

    Unset and whitespace-only values mean "not configured"; anything
    else must parse as an integer or the misconfiguration is raised
    loudly — a typo in ``REPRO_WORKERS`` must never silently fall back
    to a default.
    """
    raw = os.environ.get(name)
    if raw is None:
        return None
    value = raw.strip()
    if not value:
        return None
    try:
        return int(value)
    except ValueError as exc:
        raise ValueError(
            f"{name} must be an integer, got {raw!r}") from exc


def env_str(name: str) -> Optional[str]:
    """The stripped string value of an environment variable.

    Unset and whitespace-only values mean "not configured" (``None``),
    matching :func:`env_int`'s whitespace rule so ``REPRO_SERVE_HOST=" "``
    cannot silently configure a blank host name.
    """
    raw = os.environ.get(name)
    if raw is None:
        return None
    value = raw.strip()
    return value or None


def env_flag(name: str, default: bool = False) -> bool:
    """The boolean value of an environment variable.

    Accepts ``1/true/yes/on`` and ``0/false/no/off`` (any case,
    surrounding whitespace ignored); unset or empty means ``default``.
    Every boolean variable shares this one truthiness rule — before it
    existed, ``REPRO_NO_CACHE="0 "`` (note the space) silently
    disabled the cache while ``REPRO_WORKERS`` was stripped and
    validated, an inconsistency this helper removes.  Unrecognized
    spellings raise :class:`ValueError` rather than guessing.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if not value:
        return default
    if value in _FLAG_TRUE:
        return True
    if value in _FLAG_FALSE:
        return False
    raise ValueError(
        f"{name} must be one of 1/0/true/false/yes/no/on/off, "
        f"got {raw!r}")


def configure(workers: Optional[int] = None,
              cache_enabled: Optional[bool] = None) -> None:
    """Set process-wide runtime defaults (``None`` leaves one as-is)."""
    global _WORKERS_OVERRIDE, _CACHE_OVERRIDE
    if workers is not None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        _WORKERS_OVERRIDE = workers
    if cache_enabled is not None:
        _CACHE_OVERRIDE = cache_enabled


def reset_configuration() -> None:
    """Drop all :func:`configure` overrides (mainly for tests)."""
    global _WORKERS_OVERRIDE, _CACHE_OVERRIDE
    _WORKERS_OVERRIDE = None
    _CACHE_OVERRIDE = None


def configured_workers() -> Optional[int]:
    """The worker count set via :func:`configure`, if any."""
    return _WORKERS_OVERRIDE


def cache_enabled() -> bool:
    """Whether the persistent disk cache should be consulted."""
    if _CACHE_OVERRIDE is not None:
        return _CACHE_OVERRIDE
    return not env_flag("REPRO_NO_CACHE", default=False)
