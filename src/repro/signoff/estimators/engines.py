"""Factor-matrix sampling shared by every variance-reduction estimator.

The estimators all work in *z-space*: a draw is a vector of
``4 * stages`` standard normals (per-stage nMOS drive, nMOS vth, pMOS
drive, pMOS vth — the scalar sampler's draw order), mapped to
multiplicative perturbation factors by :func:`factor_matrix` — multiply
by the tiled sigmas, add one, clip to physical ranges — so a
zero-shift factor matrix built from the task streams is bit-identical
to what the plain estimator draws.  Working in z-space is what makes
the estimators composable: an importance shift is a vector addition,
a likelihood ratio is a Gaussian density ratio, and a Sobol lane is
just another source of z rows.

:func:`evaluate_factors` then evaluates a factor matrix on either
engine: one :func:`repro.kernels.variation.line_delay_batch` call for
``"model"``, and for ``"golden"`` contiguous row blocks whose stages
run as lanes of one Newton loop
(:func:`repro.runtime.parallel_map_lanes`).  A ones row is the
nominal line, so every estimator computes its nominal delay through
the same call as its draws.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.runtime import METRICS, parallel_map, parallel_map_lanes
from repro.signoff import variation as _variation
from repro.signoff.extraction import ExtractedLine


def sigma_vector(variation: "_variation.VariationModel",
                 stages: int) -> np.ndarray:
    """The per-column sigmas of the factor matrix (dimensionless),
    tiled over ``stages`` in the scalar sampler's draw order."""
    return np.tile([variation.drive_sigma, variation.vth_sigma,
                    variation.drive_sigma, variation.vth_sigma],
                   stages)


def standard_normal_rows(streams: Sequence[np.random.SeedSequence],
                         dimensions: int) -> np.ndarray:
    """One row of ``dimensions`` standard normals per stream.

    Row ``i`` is exactly the draw sequence stream ``i``'s generator
    would emit scalar-by-scalar, so a vectorized draw and a per-draw
    sampler walk the same numbers.
    """
    rows = np.empty((len(streams), dimensions))
    for index, stream in enumerate(streams):
        rows[index] = np.random.default_rng(stream) \
            .standard_normal(dimensions)
    return rows


def factor_matrix(z: np.ndarray,
                  variation: "_variation.VariationModel",
                  stages: int,
                  shift: Optional[np.ndarray] = None) -> np.ndarray:
    """Map z rows to a clipped ``(rows, stages, 4)`` factor matrix.

    Scale by the tiled sigmas, add 1.0, then clip drives to >= 0.5 and
    vth factors into [0.5, 1.5] (all factors dimensionless): the values
    ``Generator.normal(1.0, sigma)`` would draw from the same ``z``.
    Every sampler builds its factor rows here.  ``shift``
    (an importance-sampling mean shift in z-space) is added to ``z``
    *before* scaling, so a ``None``/zero shift changes nothing.
    """
    z = np.asarray(z, dtype=float)
    if shift is not None:
        z = z + shift
    factors = z * sigma_vector(variation, stages)
    factors += 1.0
    factors = factors.reshape(z.shape[0], stages, 4)
    factors[:, :, 0::2] = _variation._clip_drive(factors[:, :, 0::2])
    factors[:, :, 1::2] = _variation._clip_vth(factors[:, :, 1::2])
    return factors


def nominal_factors(stages: int) -> np.ndarray:
    """The single all-ones (nominal, factor == 1.0) row."""
    return np.ones((1, stages, 4))


def _golden_factor_task(task) -> float:
    """One golden evaluation of an explicit factor row (seconds): the
    stage chain of :func:`repro.signoff.variation.sample_line_delay`,
    factors supplied instead of drawn."""
    line, input_slew, row = task
    METRICS.count("variation.samples")
    with METRICS.timer("variation.sample"):
        return _variation._golden_line_delay(line, input_slew,
                                             np.asarray(row))


def _golden_factor_lanes(tasks) -> "List[Union[float, Exception]]":
    """Golden evaluations (seconds) of a contiguous block of
    :func:`_golden_factor_task` tasks, each stage of every row
    simulated as one batch of lanes.  A row that failed holds its
    exception (see :func:`repro.runtime.parallel_map_lanes`)."""
    line, input_slew, _ = tasks[0]
    METRICS.count("variation.samples", len(tasks))
    with METRICS.timer("variation.sample"):
        return _variation._golden_line_delays(
            line, input_slew, np.array([row for _, _, row in tasks]))


def evaluate_factors(
    engine: str,
    model,
    line: ExtractedLine,
    input_slew: float,
    factors: np.ndarray,
    workers: Optional[int] = None,
) -> np.ndarray:
    """Line delay (seconds) of every factor row, on the chosen engine.

    ``"model"`` evaluates all rows in one batched call; ``"golden"``
    maps them through :func:`parallel_map_lanes` (one block of lanes
    per worker; a single row runs as one :func:`_golden_factor_task`)
    under the ``variation.golden_draw`` task label.  The order, and
    therefore the determinism contract, holds for any ``workers``
    count, and a failed row's :class:`repro.runtime.TaskError` names
    that row.  ``input_slew`` is in seconds.
    """
    factors = np.asarray(factors, dtype=float)
    if engine == "model":
        from repro.kernels.variation import line_delay_batch
        count, size = _variation._uniform_geometry(line)
        METRICS.count("variation.samples", factors.shape[0])
        return np.asarray(line_delay_batch(
            model, line.length, count, size, line.receiver_cap,
            input_slew, factors))
    if engine != "golden":
        raise ValueError(f"unknown engine {engine!r}")
    tasks = [(line, input_slew, row) for row in factors]
    if len(tasks) == 1:  # nothing to stack: one per-draw task
        delays = parallel_map(_golden_factor_task, tasks,
                              workers=workers,
                              label="variation.golden_draw")
    else:
        delays = parallel_map_lanes(_golden_factor_lanes, tasks,
                                    workers=workers,
                                    label="variation.golden_draw")
    return np.asarray(delays)
