"""Lockstep batched buffering searches (Section III-D, vectorized).

The scalar optimizer runs one golden-section (or bisection) search per
repeater count, each a chain of ~40 dependent scalar evaluations.
These kernels run *all counts as lanes of one search*: every iteration
issues a single :func:`~repro.kernels.line.evaluate_line_batch` call
at the per-lane probe points, with per-lane ``open`` masks freezing
lanes whose interval has already converged.

The update sequence follows the scalar reference searches in
:mod:`repro.buffering.optimizer` step for step — same interval
arithmetic, same ``f1 <= f2`` tie-breaking, same convergence test — so
each lane follows the exact trajectory the scalar search would, and
the argmin over lanes reproduces the scalar strict-``<`` first-minimum
over counts.  The winning lane's estimate is rebuilt with one scalar
``model.evaluate`` call, so the returned
:class:`~repro.buffering.optimizer.BufferingSolution` is bitwise
identical to the scalar search's (for the pure delay/power
objectives; the fractional weighted product may differ by one ulp of
``pow``).  ``tests/kernels/test_search.py`` pins both.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.buffering.optimizer import BufferingSolution
from repro.kernels.line import evaluate_line_batch

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _objective(delays: np.ndarray, powers: np.ndarray,
               delay_weight: float) -> np.ndarray:
    """Array form of ``_weighted_objective``."""
    if delay_weight >= 1.0:
        return delays
    if delay_weight <= 0.0:
        return powers
    return (delays**delay_weight * powers**(1.0 - delay_weight))


def _evaluate(model, length: float, counts: np.ndarray,
              sizes: np.ndarray, input_slew: float, bus_width: int
              ) -> "tuple[np.ndarray, np.ndarray]":
    """(delay, total_power) arrays at one probe point per lane."""
    batch = evaluate_line_batch(model, length, counts, sizes,
                                input_slew, bus_width=bus_width)
    return batch.delay, batch.total_power


def _best_sizes_for_counts(model, length: float, counts: np.ndarray,
                           input_slew: float, delay_weight: float,
                           max_size: float, bus_width: int
                           ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Golden-section over size, all counts in lockstep.

    Returns (sizes, objectives, delays) per lane, matching what
    ``_best_size_for_count`` would return for each count.
    """
    n = counts.size
    low = np.full(n, 1.0)
    high = np.full(n, max_size)
    x1 = high - _GOLDEN * (high - low)
    x2 = low + _GOLDEN * (high - low)
    d1, p1 = _evaluate(model, length, counts, x1, input_slew, bus_width)
    d2, p2 = _evaluate(model, length, counts, x2, input_slew, bus_width)
    f1 = _objective(d1, p1, delay_weight)
    f2 = _objective(d2, p2, delay_weight)
    for _ in range(40):
        open_ = (high - low) >= 0.25
        if not open_.any():
            break
        take = f1 <= f2
        shift = open_ & take
        other = open_ & ~take
        # take lanes: high <- x2, x2 <- x1, probe becomes the new x1;
        # else lanes: low <- x1, x1 <- x2, probe becomes the new x2.
        new_high = np.where(shift, x2, high)
        new_low = np.where(other, x1, low)
        kept_x2 = np.where(shift, x1, x2)
        kept_f2 = np.where(shift, f1, f2)
        kept_d2 = np.where(shift, d1, d2)
        kept_x1 = np.where(other, x2, x1)
        kept_f1 = np.where(other, f2, f1)
        kept_d1 = np.where(other, d2, d1)
        probe_take = new_high - _GOLDEN * (new_high - new_low)
        probe_else = new_low + _GOLDEN * (new_high - new_low)
        probe = np.where(take, probe_take, probe_else)
        dp, pp = _evaluate(model, length, counts, probe, input_slew,
                           bus_width)
        fp = _objective(dp, pp, delay_weight)
        x1 = np.where(shift, probe, kept_x1)
        f1 = np.where(shift, fp, kept_f1)
        d1 = np.where(shift, dp, kept_d1)
        x2 = np.where(other, probe, kept_x2)
        f2 = np.where(other, fp, kept_f2)
        d2 = np.where(other, dp, kept_d2)
        low, high = new_low, new_high
    final_take = f1 <= f2
    sizes = np.where(final_take, x1, x2)
    objectives = np.where(final_take, f1, f2)
    delays = np.where(final_take, d1, d2)
    return sizes, objectives, delays


def optimize_buffering_batch(
    model,
    length: float,
    counts: Sequence[int],
    delay_weight: float,
    input_slew: float,
    max_size: float,
    bus_width: int,
) -> BufferingSolution:
    """Batched equivalent of ``optimize_buffering`` over given counts."""
    count_array = np.asarray(list(counts), dtype=int)
    sizes, objectives, _ = _best_sizes_for_counts(
        model, length, count_array, input_slew, delay_weight, max_size,
        bus_width)
    index = int(np.argmin(objectives))
    count = int(count_array[index])
    size = float(sizes[index])
    estimate = model.evaluate(length, count, size, input_slew,
                              bus_width=bus_width)
    return BufferingSolution(count, size, estimate,
                             float(objectives[index]))


def minimize_power_under_delay_batch(
    model,
    length: float,
    max_delay: float,
    input_slew: float,
    max_size: float,
    bus_width: int,
    counts: Sequence[int],
) -> Optional[BufferingSolution]:
    """Batched equivalent of ``minimize_power_under_delay``."""
    count_array = np.asarray(list(counts), dtype=int)
    fastest_sizes, fastest_delays, _ = _best_sizes_for_counts(
        model, length, count_array, input_slew, 1.0, max_size, bus_width)
    feasible = fastest_delays <= max_delay
    if not feasible.any():
        return None
    count_array = count_array[feasible]
    fastest_sizes = fastest_sizes[feasible]

    n = count_array.size
    low = np.full(n, 1.0)
    high = fastest_sizes.copy()
    low_delay, _ = _evaluate(model, length, count_array, low, input_slew,
                             bus_width)
    at_min = low_delay <= max_delay
    for _ in range(40):
        open_ = ~at_min & ((high - low) >= 0.25)
        if not open_.any():
            break
        mid = 0.5 * (low + high)
        delay, _ = _evaluate(model, length, count_array, mid, input_slew,
                             bus_width)
        meets = delay <= max_delay
        high = np.where(open_ & meets, mid, high)
        low = np.where(open_ & ~meets, mid, low)
    # at_min lanes never open, so their ``low`` is still the initial
    # minimum size — reusing it mirrors the scalar's ``chosen = low``.
    chosen = np.where(at_min, low, high)
    _, powers = _evaluate(model, length, count_array, chosen, input_slew,
                          bus_width)
    index = int(np.argmin(powers))
    count = int(count_array[index])
    size = float(chosen[index])
    estimate = model.evaluate(length, count, size, input_slew,
                              bus_width=bus_width)
    return BufferingSolution(count, size, estimate,
                             estimate.total_power)
