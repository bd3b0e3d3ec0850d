"""Characterization LUT tier: precomputed closed-form tables.

The sizing flow evaluates the same calibrated closed-form expressions
millions of times across buffering searches and NoC synthesis.  This
package grids those models once per technology node over (repeater
size, wire length, repeater count), stores the result as a versioned,
content-hashed artifact, and serves hot-path queries by multilinear
interpolation:

* :mod:`repro.luts.grid` — the axes and the interpolation-error
  contract (:class:`GridSpec`);
* :mod:`repro.luts.interp` — the scalar trilinear lookup (the batch
  mirror lives in :mod:`repro.kernels.lut`);
* :mod:`repro.luts.artifact` — the on-disk format: header, content
  hash, :class:`repro.runtime.cache.DiskCache` storage and the
  committable JSON export;
* :mod:`repro.luts.build` — the parallel builder (``repro luts
  build``) with its build-time error validation;
* :mod:`repro.luts.model` — :class:`LUTInterconnectModel`, the
  drop-in, API-compatible stand-in for
  :class:`repro.models.interconnect.BufferedInterconnectModel`;
* :mod:`repro.luts.check` — the drift-tracked recalibration workflow
  (``repro luts check``).
"""

from repro.luts.artifact import (
    ARTIFACT_SCHEMA,
    GENERATOR_VERSION,
    LUTArtifact,
    load_artifact,
    load_artifact_file,
    save_artifact_file,
)
from repro.luts.build import build_artifact
from repro.luts.check import DriftReport, check_drift
from repro.luts.grid import COARSE_GRID, DEFAULT_GRID, GridSpec
from repro.luts.model import LUTInterconnectModel, serve

__all__ = [
    "ARTIFACT_SCHEMA",
    "COARSE_GRID",
    "DEFAULT_GRID",
    "DriftReport",
    "GENERATOR_VERSION",
    "GridSpec",
    "LUTArtifact",
    "LUTInterconnectModel",
    "build_artifact",
    "check_drift",
    "load_artifact",
    "load_artifact_file",
    "save_artifact_file",
    "serve",
]
