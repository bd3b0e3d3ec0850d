"""Drift-tracked recalibration for committed LUT artifacts.

``repro luts check`` answers "are the committed tables still what the
calibrated model produces?": it rebuilds every table from the current
model (no midpoint validation pass — the committed artifact already
carries its validated contract) and diffs the rebuild against the
artifact, reporting max and mean relative drift per table.  The
builder is deterministic, so a matching calibration drifts by exactly
zero; any drift at all means the calibration, the technology
parameters, or the builder arithmetic moved underneath the artifact,
and drift past the threshold exits the CLI nonzero — the recal
signal.  The report also lands in the run manifest as the
``lut_drift`` block (:func:`repro.runtime.manifest.record_block`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.luts.artifact import LUTArtifact, TABLE_NAMES
from repro.luts.build import build_tables
from repro.runtime.cache import fingerprint
from repro.runtime.metrics import METRICS
from repro.runtime.trace import span

#: Default relative-drift gate: rebuilt tables must match the
#: committed artifact to well under bit-noise scale, because the
#: builder is deterministic — any real drift signals recalibration.
DEFAULT_DRIFT_THRESHOLD = 1e-9


@dataclass(frozen=True)
class TableDrift:
    """Drift of one table: relative to the table's own scale, so
    near-zero entries cannot manufacture infinite relative errors."""

    name: str
    max_rel: float
    mean_rel: float


@dataclass(frozen=True)
class DriftReport:
    """Outcome of one ``repro luts check`` run."""

    node: str
    artifact_hash: str
    calibration_hash: str
    calibration_matches: bool
    threshold: float
    tables: Tuple[TableDrift, ...]

    @property
    def max_drift(self) -> float:
        """Worst relative drift across every table."""
        return max(entry.max_rel for entry in self.tables)

    @property
    def within_threshold(self) -> bool:
        """True when the artifact still matches the model."""
        return self.calibration_matches \
            and self.max_drift <= self.threshold

    def manifest_block(self) -> Dict[str, Any]:
        """The ``lut_drift`` manifest block."""
        return {
            "node": self.node,
            "artifact": self.artifact_hash,
            "calibration_hash": self.calibration_hash,
            "calibration_matches": self.calibration_matches,
            "threshold": self.threshold,
            "max_drift": self.max_drift,
            "within_threshold": self.within_threshold,
            "tables": {entry.name: {"max_rel": entry.max_rel,
                                    "mean_rel": entry.mean_rel}
                       for entry in self.tables},
        }

    def format(self) -> str:
        lines = [f"LUT drift check — node {self.node}, artifact "
                 f"{self.artifact_hash[:12]}"]
        lines.append(
            f"  calibration: "
            f"{'match' if self.calibration_matches else 'MISMATCH'} "
            f"({self.calibration_hash[:12]})")
        for entry in self.tables:
            lines.append(f"  {entry.name:<13} max {entry.max_rel:.3e}"
                         f"  mean {entry.mean_rel:.3e}")
        verdict = ("within threshold" if self.within_threshold
                   else "DRIFT EXCEEDS THRESHOLD — rebuild the "
                        "artifact (repro luts build)")
        lines.append(f"  max drift {self.max_drift:.3e} vs threshold "
                     f"{self.threshold:.1e}: {verdict}")
        return "\n".join(lines)


def _table_drift(name: str, old: np.ndarray,
                 new: np.ndarray) -> TableDrift:
    """Relative drift of one table, floored at the table's scale."""
    scale = float(np.max(np.abs(old)))
    if scale == 0.0:
        scale = float(np.max(np.abs(new)))
    if scale == 0.0:
        return TableDrift(name=name, max_rel=0.0, mean_rel=0.0)
    denominator = np.maximum(np.abs(old), 1e-9 * scale)
    rel = np.abs(new - old) / denominator
    return TableDrift(name=name, max_rel=float(np.max(rel)),
                      mean_rel=float(np.mean(rel)))


def check_drift(model, artifact: LUTArtifact,
                workers: Optional[int] = None,
                threshold: float = DEFAULT_DRIFT_THRESHOLD
                ) -> DriftReport:
    """Rebuild ``artifact``'s tables from ``model`` and diff them.

    Uses the artifact's own grid spec, so the comparison is
    point-for-point; the rebuild skips the midpoint validation pass
    (the committed artifact's contract already covers serving).
    """
    METRICS.count("luts.drift_checks")
    with span("luts.drift_check", node=artifact.node,
              points=artifact.spec.points):
        rebuilt = build_tables(model, artifact.spec, workers=workers)
        tables = tuple(
            _table_drift(name, artifact.tables[name], rebuilt[name])
            for name in TABLE_NAMES)
    return DriftReport(
        node=artifact.node,
        artifact_hash=artifact.content_hash,
        calibration_hash=fingerprint(model),
        calibration_matches=(fingerprint(model)
                             == artifact.calibration_hash),
        threshold=threshold,
        tables=tables,
    )
