"""Versioned on-disk artifacts for the characterization LUT tier.

An artifact is one set of characterization tables plus a header that
pins down exactly what produced it:

* ``schema`` / ``generator_version`` — the payload layout and the
  builder algorithm version (bump :data:`GENERATOR_VERSION` whenever
  the build arithmetic changes, so stale artifacts are refused);
* ``node`` and ``model_class`` — which technology node and model
  class were gridded;
* ``calibration_hash`` — the :func:`repro.runtime.cache.fingerprint`
  of the full calibrated model, so recalibration invalidates;
* ``grid`` — the :class:`repro.luts.grid.GridSpec` payload;
* ``max_rel_error`` — the error contract, and ``measured_rel_error``
  the worst cell-midpoint error the builder actually observed;
* ``content_hash`` — fingerprint of header-relevant fields plus every
  table, verified on load so truncated or hand-edited artifacts are
  refused.

Artifacts live in ``DiskCache("luts")`` keyed by (node, model,
grid, generator version), and export losslessly to a committable
standalone JSON file (floats round-trip exactly through ``repr``).
Any refused load — corrupt JSON, schema/version mismatch, content-hash
mismatch — counts ``faults.lut_fallback`` and returns ``None`` so the
caller drops back to the closed form instead of serving bad tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.luts.grid import GridSpec
from repro.runtime.cache import DiskCache, fingerprint
from repro.runtime.metrics import METRICS

#: Bump when the artifact payload layout changes incompatibly.
ARTIFACT_SCHEMA = 2

#: Bump when the *builder arithmetic* changes (table semantics,
#: validity rules, ...): artifacts from other generator versions are
#: refused on load.
GENERATOR_VERSION = 1

#: Every table an artifact carries, in payload order.  ``delay`` /
#: ``output_slew`` are the design tables (default same-size gamma
#: receiver).  ``valid`` is the serving mask (1.0 where the closed
#: form itself is physical — positive delays, a converging slew chain
#: — AND the cell midpoint meets the grid's interpolation-error
#: contract; see ``repro.luts.build``): serving requires every corner
#: of the enclosing cell to be valid; everything else falls back to
#: the closed form, which is how the builder *guarantees* the error
#: contract rather than merely measuring it.
TABLE_NAMES: Tuple[str, ...] = ("delay", "output_slew", "valid")

#: Tables *served* through log-value interpolation (they are strictly
#: positive wherever valid, and the closed form behaves like a power
#: law in size near the small-size edge — linear in log space, so the
#: error contract survives a committable grid density).  The ``valid``
#: mask interpolates linearly.  Coordinates are logged to match: size
#: and length queries bracket on log axes (counts stay linear — they
#: are exact hits).
LOG_TABLES: Tuple[str, ...] = ("delay", "output_slew")


def _tables_payload(tables: Mapping[str, np.ndarray]) -> Dict[str, Any]:
    return {name: np.asarray(tables[name]).tolist()
            for name in TABLE_NAMES}


@dataclass(frozen=True)
class LUTArtifact:
    """One built characterization artifact (tables + header)."""

    node: str
    model_class: str
    calibration_hash: str
    spec: GridSpec
    tables: Dict[str, np.ndarray]
    measured_rel_error: float
    build_seconds: float = 0.0
    generator_version: int = GENERATOR_VERSION
    #: Cached nested-tuple copies for the scalar interpolation path.
    _scalar_tables: Dict[str, tuple] = field(default_factory=dict,
                                             repr=False, compare=False)
    #: Cached serving-form (log-value) numpy tables.
    _interp_tables: Dict[str, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        missing = [name for name in TABLE_NAMES
                   if name not in self.tables]
        if missing:
            raise ValueError(f"artifact missing tables: {missing}")
        for name in TABLE_NAMES:
            table = np.asarray(self.tables[name], dtype=float)
            if table.shape != self.spec.shape:
                raise ValueError(
                    f"table {name!r} has shape {table.shape}, grid "
                    f"spec says {self.spec.shape}")
            self.tables[name] = table

    # -- identity -------------------------------------------------------

    @property
    def content_hash(self) -> str:
        """Fingerprint of everything that defines this artifact."""
        return fingerprint({
            "schema": ARTIFACT_SCHEMA,
            "generator_version": self.generator_version,
            "node": self.node,
            "model_class": self.model_class,
            "calibration_hash": self.calibration_hash,
            "grid": self.spec.to_payload(),
            "tables": _tables_payload(self.tables),
        })

    def scalar_table(self, name: str) -> tuple:
        """The nested-tuple view of one *raw* table, cached."""
        return self._nested(("raw", name), self.tables[name])

    def interp_table(self, name: str) -> np.ndarray:
        """The serving form of one table, cached: log values for
        :data:`LOG_TABLES` (invalid grid points are pinned to
        ``log(1.0)`` first — they only ever enter a served lookup
        with zero weight, and the pin keeps the log finite), the raw
        values for everything else."""
        if name not in self._interp_tables:
            table = self.tables[name]
            if name in LOG_TABLES:
                table = np.log(np.where(
                    self.tables["valid"] == 1.0, table, 1.0))
            self._interp_tables[name] = table
        return self._interp_tables[name]

    def scalar_interp_table(self, name: str) -> tuple:
        """The nested-tuple view of :meth:`interp_table`, cached."""
        return self._nested(("interp", name), self.interp_table(name))

    def _nested(self, key, array: np.ndarray) -> tuple:
        if key not in self._scalar_tables:
            self._scalar_tables[key] = tuple(
                tuple(tuple(row) for row in plane)
                for plane in array.tolist())
        return self._scalar_tables[key]

    # -- serialization --------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """The JSON-safe export form, content hash included."""
        return {
            "schema": ARTIFACT_SCHEMA,
            "generator_version": self.generator_version,
            "node": self.node,
            "model_class": self.model_class,
            "calibration_hash": self.calibration_hash,
            "grid": self.spec.to_payload(),
            "max_rel_error": self.spec.max_rel_error,
            "measured_rel_error": self.measured_rel_error,
            "build_seconds": self.build_seconds,
            "content_hash": self.content_hash,
            "tables": _tables_payload(self.tables),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "LUTArtifact":
        """Rebuild from a payload; raises ValueError on any mismatch
        (schema, generator version, content hash, table shapes)."""
        if payload.get("schema") != ARTIFACT_SCHEMA:
            raise ValueError(
                f"artifact schema {payload.get('schema')!r} != "
                f"{ARTIFACT_SCHEMA}")
        if payload.get("generator_version") != GENERATOR_VERSION:
            raise ValueError(
                f"artifact generator version "
                f"{payload.get('generator_version')!r} != "
                f"{GENERATOR_VERSION}")
        spec = GridSpec.from_payload(payload["grid"])
        tables = {name: np.asarray(payload["tables"][name],
                                   dtype=float)
                  for name in TABLE_NAMES}
        artifact = cls(
            node=str(payload["node"]),
            model_class=str(payload["model_class"]),
            calibration_hash=str(payload["calibration_hash"]),
            spec=spec,
            tables=tables,
            measured_rel_error=float(payload["measured_rel_error"]),
            build_seconds=float(payload.get("build_seconds", 0.0)),
            generator_version=int(payload["generator_version"]),
        )
        recorded = payload.get("content_hash")
        if recorded != artifact.content_hash:
            raise ValueError(
                f"artifact content hash mismatch: header says "
                f"{recorded!r}, tables hash to "
                f"{artifact.content_hash!r}")
        return artifact


def cache_key(node: str, base_model: Any, spec: GridSpec
              ) -> Dict[str, Any]:
    """The ``DiskCache("luts")`` key of one artifact slot."""
    return {
        "schema": ARTIFACT_SCHEMA,
        "generator_version": GENERATOR_VERSION,
        "node": node,
        "model": base_model,
        "grid": spec.to_payload(),
    }


def store_artifact(artifact: LUTArtifact, base_model: Any,
                   cache: Optional[DiskCache] = None) -> None:
    """Store an artifact in the LUT cache namespace."""
    if cache is None:
        cache = DiskCache("luts")
    cache.put(cache_key(artifact.node, base_model, artifact.spec),
              artifact.to_payload(), kind="artifact")


def load_artifact(node: str, base_model: Any, spec: GridSpec,
                  cache: Optional[DiskCache] = None
                  ) -> Optional[LUTArtifact]:
    """Load an artifact from the LUT cache namespace.

    Returns ``None`` (counting ``faults.lut_fallback``) when the slot
    is empty or the stored payload does not validate.
    """
    if cache is None:
        cache = DiskCache("luts")
    payload = cache.get(cache_key(node, base_model, spec),
                        kind="artifact")
    if payload is None:
        return None
    return _validated(payload, f"cache slot for node {node!r}")


def save_artifact_file(artifact: LUTArtifact,
                       path: Union[str, Path]) -> Path:
    """Export the committable standalone JSON form."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact.to_payload(), handle, sort_keys=True)
        handle.write("\n")
    return path


def load_artifact_file(path: Union[str, Path]
                       ) -> Optional[LUTArtifact]:
    """Load a committed artifact file.

    Corrupt JSON, schema/generator mismatches and content-hash
    mismatches all count ``faults.lut_fallback`` and return ``None``
    so the caller serves the closed form instead.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        METRICS.count("faults.lut_fallback")
        return None
    if not isinstance(payload, dict):
        METRICS.count("faults.lut_fallback")
        return None
    return _validated(payload, str(path))


def _validated(payload: Mapping[str, Any], origin: str
               ) -> Optional[LUTArtifact]:
    """Payload -> artifact, or ``None`` + ``faults.lut_fallback``."""
    try:
        return LUTArtifact.from_payload(payload)
    except (KeyError, TypeError, ValueError):
        METRICS.count("faults.lut_fallback")
        return None
