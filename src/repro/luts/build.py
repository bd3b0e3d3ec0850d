"""Parallel builder for characterization LUT artifacts.

``repro luts build`` grids the calibrated closed-form model over
(repeater size, wire length, repeater count).  Work is sharded one
repeater count per task through
:func:`repro.runtime.parallel.parallel_map` — shard cost grows with
the stage count, so counts are natural shards — and each shard
produces one ``(sizes, lengths)`` slice of every table:

* ``delay`` / ``output_slew`` — the design tables, one scalar
  :meth:`~repro.models.interconnect.BufferedInterconnectModel.evaluate`
  per grid point (grid points therefore reproduce the closed form
  *exactly*, which the round-trip tests pin);
* ``valid`` — the serving mask (see below).

Each shard also *accuracy-gates* its slice of the ``valid`` mask: it
probes every ``(size, length)`` cell midpoint through the exact
serving transform and invalidates cells whose worst table error
exceeds the grid's contract, so those cells fall back to the closed
form — the contract is guaranteed by construction, not merely
measured.  After assembly the builder re-probes every servable
midpoint and records the worst relative interpolation error in the
header; an error above the contract still fails the build outright.
Build wall time lands in the ``luts.build_seconds`` histogram.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.kernels.lut import interpolate_trilinear
from repro.luts.artifact import LOG_TABLES, LUTArtifact, TABLE_NAMES
from repro.luts.grid import GridSpec
from repro.runtime.metrics import METRICS
from repro.runtime.parallel import parallel_map
from repro.runtime.trace import span

#: Output-slew sanity cap, as a multiple of the characterization input
#: slew.  The calibrated closed form extrapolates nonphysically in
#: degenerate corners of the rectangle (many minimum-size repeaters on
#: a very short wire: the slew chain diverges and delays go negative);
#: grid points past this cap — or with non-positive delays — are
#: marked invalid in the ``valid`` mask and never served.
SLEW_VALIDITY_MULTIPLE = 5.0


def _plane_serving(plane: np.ndarray, log_sizes: np.ndarray,
                   log_lengths: np.ndarray, log_size_lanes: np.ndarray,
                   log_length_lanes: np.ndarray) -> np.ndarray:
    """One count plane served exactly as the trilinear lane serves it
    at an exact count hit (the count lerp carries zero weight, so
    stacking the plane twice reuses :func:`interpolate_trilinear`
    verbatim — bitwise the production lookup)."""
    table = np.stack([plane, plane], axis=-1)
    count_axis = np.asarray([0.0, 1.0])
    counts = np.zeros(log_size_lanes.shape)
    return interpolate_trilinear(table, log_sizes, log_lengths,
                                 count_axis, log_size_lanes,
                                 log_length_lanes, counts)


def _gate_accuracy(model, slices: Dict[str, np.ndarray],
                   size_axis: np.ndarray, length_axis: np.ndarray,
                   count: int, input_slew: float,
                   contract: float) -> None:
    """Accuracy-gate one plane's validity mask in place.

    Probes every cell midpoint of the plane through the exact serving
    transform (log-value interpolation, exponentiated back) and
    invalidates cells whose worst table error exceeds the contract —
    those cells fall back to the closed form instead of serving a
    lying answer.  Masked corners never carry weight in still-valid
    cells, so one pass leaves every remaining servable midpoint
    within contract.
    """
    from repro.kernels.line import evaluate_line_batch

    valid = slices["valid"]
    mid_sizes = _midpoints(tuple(size_axis))
    mid_lengths = _midpoints(tuple(length_axis))
    size_lanes = np.repeat(mid_sizes, mid_lengths.size)
    length_lanes = np.tile(mid_lengths, mid_sizes.size)
    log_sizes = np.log(size_axis)
    log_lengths = np.log(length_axis)
    log_size_lanes = np.log(size_lanes)
    log_length_lanes = np.log(length_lanes)

    servable = _plane_serving(valid, log_sizes, log_lengths,
                              log_size_lanes, log_length_lanes) == 1.0
    if not servable.any():
        return
    exact = evaluate_line_batch(model, length_lanes, count,
                                size_lanes, input_slew)
    worst = np.zeros(size_lanes.shape)
    for name, reference in (("delay", exact.delay),
                            ("output_slew", exact.output_slew)):
        plane = np.log(np.where(valid == 1.0, slices[name], 1.0))
        served = np.exp(_plane_serving(plane, log_sizes, log_lengths,
                                       log_size_lanes,
                                       log_length_lanes))
        with np.errstate(divide="ignore", invalid="ignore"):
            error = np.abs(served - reference) / np.abs(reference)
        worst = np.maximum(worst, np.where(np.isfinite(error),
                                           error, np.inf))
    bad = np.nonzero(servable & (worst > contract))[0]
    if bad.size:
        valid[bad // mid_lengths.size, bad % mid_lengths.size] = 0.0


def _build_shard(task) -> Dict[str, np.ndarray]:
    """One count's ``(sizes, lengths)`` slice of every table.

    ``task`` is ``(model, sizes, lengths, count, input_slew,
    contract)`` with plain tuples for the axes so the payload pickles
    cheaply to pool workers.
    """
    model, sizes, lengths, count, input_slew, contract = task
    size_axis = np.asarray(sizes, dtype=float)
    length_axis = np.asarray(lengths, dtype=float)
    shape = (size_axis.size, length_axis.size)

    delay = np.empty(shape)
    output_slew = np.empty(shape)
    for i, size in enumerate(sizes):
        for j, length in enumerate(lengths):
            estimate = model.evaluate(length, count, float(size),
                                      input_slew)
            delay[i, j] = estimate.delay
            output_slew[i, j] = estimate.output_slew

    slew_cap = SLEW_VALIDITY_MULTIPLE * input_slew
    valid = ((delay > 0.0) & (output_slew > 0.0)
             & (output_slew <= slew_cap)).astype(float)
    slices: Dict[str, np.ndarray] = {
        "delay": delay,
        "output_slew": output_slew,
        "valid": valid,
    }
    _gate_accuracy(model, slices, size_axis, length_axis, count,
                   input_slew, contract)
    return slices


def _midpoints(axis: Tuple[float, ...]) -> np.ndarray:
    values = np.asarray(axis, dtype=float)
    return 0.5 * (values[1:] + values[:-1])


def measure_interpolation_error(model, spec: GridSpec,
                                tables: Dict[str, np.ndarray]
                                ) -> float:
    """Worst relative error of the interpolated delay tables against
    the closed form, probed at every *servable* (size, length) cell
    midpoint on every count (counts are exact hits, so midpoints in
    the two float axes are the worst case the grid can serve).
    Midpoints of cells with an invalid corner are skipped — serving
    falls back to the closed form there, so interpolation never
    answers.  The probe runs the exact serving transform: log-value
    tables over log size/length coordinates, exponentiated back."""
    from repro.kernels.line import evaluate_line_batch

    log_size_axis = np.log(np.asarray(spec.sizes, dtype=float))
    log_length_axis = np.log(np.asarray(spec.lengths, dtype=float))
    count_axis = np.asarray(spec.counts, dtype=float)
    serving = {name: np.log(np.where(tables["valid"] == 1.0,
                                     tables[name], 1.0))
               for name in LOG_TABLES}
    mid_sizes = _midpoints(spec.sizes)
    mid_lengths = _midpoints(spec.lengths)
    size_lanes = np.repeat(mid_sizes, mid_lengths.size)
    length_lanes = np.tile(mid_lengths, mid_sizes.size)
    log_size_lanes = np.log(size_lanes)
    log_length_lanes = np.log(length_lanes)
    worst = 0.0
    for count in spec.counts:
        count_lanes = np.full(size_lanes.shape, float(count))
        servable = interpolate_trilinear(
            tables["valid"], log_size_axis, log_length_axis,
            count_axis, log_size_lanes, log_length_lanes,
            count_lanes) == 1.0
        if not servable.any():
            continue
        exact = evaluate_line_batch(model, length_lanes, count,
                                    size_lanes, spec.input_slew)
        for name, reference in (("delay", exact.delay),
                                ("output_slew", exact.output_slew)):
            served = np.exp(interpolate_trilinear(
                serving[name], log_size_axis, log_length_axis,
                count_axis, log_size_lanes, log_length_lanes,
                count_lanes))
            error = (np.abs(served - reference)
                     / np.abs(reference))[servable]
            worst = max(worst, float(np.max(error)))
    return worst


def build_tables(model, spec: GridSpec,
                 workers: Optional[int] = None
                 ) -> Dict[str, np.ndarray]:
    """All tables of one artifact, sharded over counts."""
    tasks = [(model, spec.sizes, spec.lengths, count,
              spec.input_slew, spec.max_rel_error)
             for count in spec.counts]
    shards: List[Dict[str, np.ndarray]] = parallel_map(
        _build_shard, tasks, workers=workers, label="luts.build_shard")
    tables: Dict[str, np.ndarray] = {}
    for name in TABLE_NAMES:
        tables[name] = np.stack([shard[name] for shard in shards],
                                axis=-1)
    return tables


def build_artifact(model, node: str, spec: GridSpec,
                   workers: Optional[int] = None,
                   validate: bool = True) -> LUTArtifact:
    """Build one artifact for ``model`` at ``node`` over ``spec``.

    Raises :class:`ValueError` when the measured cell-midpoint
    interpolation error exceeds the grid's contract (``validate=False``
    skips the probe — drift checks rebuild coefficients only and diff
    them against an already-validated artifact).
    """
    from repro.runtime.cache import fingerprint

    METRICS.count("luts.builds")
    METRICS.count("luts.grid_points", spec.points)
    with span("luts.build", node=node, points=spec.points), \
            METRICS.observed("luts.build_seconds"):
        tables = build_tables(model, spec, workers=workers)
        measured = 0.0
        if validate:
            with span("luts.validate"):
                measured = measure_interpolation_error(model, spec,
                                                       tables)
            if measured > spec.max_rel_error:
                raise ValueError(
                    f"grid too coarse: measured interpolation error "
                    f"{measured:.2e} exceeds the contract "
                    f"{spec.max_rel_error:.2e}; densify the size or "
                    f"length axis")
    return LUTArtifact(
        node=node,
        model_class=type(model).__name__,
        calibration_hash=fingerprint(model),
        spec=spec,
        tables=tables,
        measured_rel_error=measured,
    )
