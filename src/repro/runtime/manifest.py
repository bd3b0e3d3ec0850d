"""Run manifests: the provenance record written next to artifacts.

Every traced CLI run emits a ``manifest.json`` beside its trace file
answering "exactly what produced this artifact?": the subcommand and
its full argument set, a stable hash of that configuration, the
package/python versions, the numerical environment (numpy and BLAS,
which decide the kernels' code paths), the effective worker count and
cache state, the RNG seed when the workload has one, and the per-phase
wall-time and counter totals accumulated by the metrics registry.

Runs that survived faults carry a dedicated ``faults`` block — the
``faults.*`` counter family (worker crashes recovered, cache entries
quarantined, injected faults fired; see :mod:`repro.runtime.faults`) —
so an artifact produced by a degraded run is distinguishable from a
clean one without diffing the full counter map.

The schema is versioned (:data:`MANIFEST_SCHEMA`); consumers should
treat unknown fields as forward-compatible additions.
"""

from __future__ import annotations

import json
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.runtime.cache import fingerprint
from repro.runtime.metrics import METRICS, MetricsRegistry

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA = 1


def utc_timestamp() -> str:
    """The current UTC time as an ISO-8601 string.

    Provenance timestamping belongs to this module: wall clocks are
    banned everywhere else (``repro lint``'s determinism rule), so
    callers that need a run's start time take it from here.
    """
    return datetime.now(timezone.utc).isoformat()


def environment_info() -> Dict[str, Any]:
    """Numerical-environment facts that can change results in the ulps.

    Records the numpy version and, when the build metadata exposes it,
    the BLAS implementation — the two knobs that decide which SIMD /
    library code paths the vectorized kernels execute.
    """
    import numpy
    info: Dict[str, Any] = {"numpy": numpy.__version__}
    try:
        build = numpy.show_config(mode="dicts")
        blas = build["Build Dependencies"]["blas"]
        info["blas"] = {"name": blas.get("name", "unknown"),
                        "version": str(blas.get("version", "unknown"))}
    except Exception:
        # Older numpy without dict-mode show_config, or an unexpected
        # metadata layout: the numpy version alone is still useful.
        pass
    return info


def run_environment() -> Dict[str, Any]:
    """The full environment block benchmark reports embed.

    Python and platform identity on top of :func:`environment_info` —
    the one shape ``BENCH_yield.json`` and ``BENCH_lut.json`` share, so
    a report says which interpreter, platform and numpy build produced
    its timings.
    """
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        **environment_info(),
    }


def _json_safe(value: Any) -> Any:
    """Arguments as JSON values; anything exotic degrades to ``repr``."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(entry) for entry in value]
    if isinstance(value, Mapping):
        return {str(key): _json_safe(entry)
                for key, entry in value.items()}
    return repr(value)


#: Named blocks commands attach to the manifest of the run in flight
#: (e.g. the ``lut_drift`` block from ``repro luts check``); consumed
#: by the next :func:`build_manifest` call in this process.
_EXTRA_BLOCKS: Dict[str, Any] = {}


def record_block(name: str, payload: Any) -> None:
    """Attach a named block to the next manifest built here.

    The payload passes through :func:`_json_safe`; recording the same
    name twice keeps the latest payload.  Core manifest keys win over
    recorded blocks, so a block cannot shadow e.g. ``counters``.
    """
    _EXTRA_BLOCKS[name] = _json_safe(payload)


def consume_blocks() -> Dict[str, Any]:
    """Drain the recorded blocks (used by :func:`build_manifest`)."""
    blocks = dict(_EXTRA_BLOCKS)
    _EXTRA_BLOCKS.clear()
    return blocks


def build_manifest(
    command: str,
    config: Mapping[str, Any],
    *,
    workers: int,
    cache_enabled: bool,
    wall_seconds: float,
    started_at: str,
    registry: Optional[MetricsRegistry] = None,
    trace_file: Optional[str] = None,
) -> Dict[str, Any]:
    """Assemble the manifest dictionary for one finished run.

    ``config`` is the full argument set of the run (for the CLI, the
    parsed namespace minus internals); its fingerprint is the run's
    ``config_hash``, so two manifests with equal hashes describe the
    same requested computation.
    """
    if registry is None:
        registry = METRICS
    safe_config = {key: _json_safe(value)
                   for key, value in sorted(config.items())}
    from repro import __version__
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "config": safe_config,
        "config_hash": fingerprint(safe_config),
        "package_version": __version__,
        "python_version": sys.version.split()[0],
        "platform": platform.platform(),
        "workers": workers,
        "cache_enabled": cache_enabled,
        "environment": environment_info(),
        "started_at": started_at,
        "wall_seconds": wall_seconds,
        "phases": dict(registry.timers),
        "counters": dict(registry.counters),
    }
    for name, payload in consume_blocks().items():
        manifest.setdefault(name, payload)
    fault_counters = registry.fault_counters()
    if fault_counters:
        manifest["faults"] = fault_counters
    histograms = registry.histogram_summaries()
    if histograms:
        manifest["histograms"] = histograms
    if "seed" in safe_config:
        manifest["seed"] = safe_config["seed"]
    if trace_file is not None:
        manifest["trace_file"] = trace_file
    return manifest


def write_manifest(path: Union[str, Path],
                   manifest: Mapping[str, Any]) -> Path:
    """Write ``manifest`` as pretty-printed JSON; returns the path."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def manifest_path_for(trace_path: Union[str, Path]) -> Path:
    """Where the manifest belongs: next to the trace file."""
    return Path(trace_path).parent / "manifest.json"
