"""Batched LUT interpolation lane (the characterization tier's hot path).

Two public kernels:

* :func:`interpolate_trilinear` — gather + fused multilinear weights
  over the ``(size, length, count)`` grid, the batch mirror of
  :func:`repro.luts.interp.trilinear` (same bracketing, same lerp
  form, same count→length→size reduction order, so one-lane batched
  lookups match scalar lookups bit-for-bit);
* :func:`evaluate_line_lut` — the LUT-served form of
  :func:`repro.kernels.line.evaluate_line_batch`: delay and slew from
  the tables, power and area from the base model's own
  :meth:`~repro.models.interconnect.BufferedInterconnectModel.power_and_area`
  (O(1) already, and keeping them exact keeps the min-power objective
  honest).

Timing tables serve through *log-value* interpolation over log
size/length coordinates (see :data:`repro.luts.artifact.LOG_TABLES`):
queries log-transform with ``np.log``, results exponentiate with
``np.exp`` — the same functions the scalar path wraps in ``float``,
which keeps scalar and batched lookups bitwise identical.

The private ``_minimize_power_under_delay`` fast path exploits the
interpolated surface directly: along the size axis the *log*-delay
surface is piecewise linear (so the served delay is monotone within a
cell and bounded by its corner values), and the smallest size meeting
a delay bound is a cell crossing solved in closed form — no bisection,
no per-iteration batches.  Its arithmetic operates on profile values
that are bitwise identical to :func:`interpolate_trilinear` at the
same query points.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.kernels.line import LUT, LineBatch, array_path, \
    evaluate_line_batch
from repro.models.wire import WireCoefficients
from repro.runtime.metrics import METRICS
from repro.runtime.trace import span


def _bracket(axis: np.ndarray, values: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray]:
    """(lower index, fraction) per lane; fractions clamp to [0, 1]."""
    idx = np.searchsorted(axis, values, side="right") - 1
    idx = np.clip(idx, 0, axis.size - 2)
    span_ = values - axis[idx]
    frac = span_ / (axis[idx + 1] - axis[idx])
    return idx, np.clip(frac, 0.0, 1.0)


def _lerp(low: np.ndarray, high: np.ndarray, frac: np.ndarray
          ) -> np.ndarray:
    """Linear interpolation ``low + (high - low) * frac``."""
    return low + (high - low) * frac


def interpolate_trilinear(
    table: np.ndarray,
    size_axis: np.ndarray,
    length_axis: np.ndarray,
    count_axis: np.ndarray,
    size: np.ndarray,
    length: np.ndarray,
    count: np.ndarray,
) -> np.ndarray:
    """Trilinear lookup of many ``(size, length, count)`` lanes.

    Same reduction order as the scalar
    :func:`repro.luts.interp.trilinear` (count, then length, then
    size); queries clamp to the grid edges.
    """
    i, fs = _bracket(size_axis, size)
    j, fl = _bracket(length_axis, length)
    k, fc = _bracket(count_axis, count)
    i1 = i + 1
    j1 = j + 1
    k1 = k + 1
    c00 = _lerp(table[i, j, k], table[i, j, k1], fc)
    c01 = _lerp(table[i, j1, k], table[i, j1, k1], fc)
    c10 = _lerp(table[i1, j, k], table[i1, j, k1], fc)
    c11 = _lerp(table[i1, j1, k], table[i1, j1, k1], fc)
    c0 = _lerp(c00, c01, fl)
    c1 = _lerp(c10, c11, fl)
    return _lerp(c0, c1, fs)


def _served_lanes(model, sizes: np.ndarray, lengths: np.ndarray,
                  counts_f: np.ndarray, log_sizes: np.ndarray,
                  log_lengths: np.ndarray) -> np.ndarray:
    """Boolean lane mask: inside the gridded region AND every corner
    of the enclosing cell valid (the interpolated validity mask of a
    cell is exactly 1.0 iff all its contributing corners are 1.0)."""
    spec = model.artifact.spec
    in_range = ((sizes >= spec.sizes[0]) & (sizes <= spec.sizes[-1])
                & (lengths >= spec.lengths[0])
                & (lengths <= spec.lengths[-1])
                & (counts_f >= spec.counts[0])
                & (counts_f <= spec.counts[-1]))
    size_axis, length_axis, count_axis = model.axes()
    sane = interpolate_trilinear(
        model.artifact.interp_table("valid"), size_axis, length_axis,
        count_axis, log_sizes, log_lengths, counts_f) == 1.0
    return in_range & sane


def evaluate_line_lut(
    model,
    length: np.ndarray,
    num_repeaters: np.ndarray,
    repeater_size: np.ndarray,
    input_slew: float,
    bus_width: int = 1,
    receiver_cap: "float | None" = None,
) -> LineBatch:
    """LUT-served :func:`repro.kernels.line.evaluate_line_batch`.

    Delay and output slew interpolate from the artifact; dynamic and
    leakage power, and both areas, come from the base model (so power
    and area are exact on *every* lane).  Serving is per lane:
    lanes outside the grid, or inside a cell with an invalid corner,
    get their timing from the closed-form kernel on ``model.base``
    instead (counted under ``luts.fallback``); an explicit
    ``receiver_cap`` or a different input slew falls the whole batch
    back.
    """
    lengths, counts, sizes = np.broadcast_arrays(
        np.atleast_1d(np.asarray(length, dtype=float)),
        np.atleast_1d(np.asarray(num_repeaters)),
        np.atleast_1d(np.asarray(repeater_size, dtype=float)),
    )
    counts = counts.astype(int)
    artifact = model.artifact
    spec = artifact.spec
    counts_f = counts.astype(float)
    if receiver_cap is not None or input_slew != spec.input_slew:
        METRICS.count("luts.fallback")
        return evaluate_line_batch(
            model.base, length, num_repeaters, repeater_size,
            input_slew, bus_width=bus_width,
            receiver_cap=receiver_cap)
    log_sizes = np.log(sizes)
    log_lengths = np.log(lengths)
    served = _served_lanes(model, sizes, lengths, counts_f,
                           log_sizes, log_lengths)
    if not served.any():
        METRICS.count("luts.fallback", int(served.size))
        return evaluate_line_batch(
            model.base, length, num_repeaters, repeater_size,
            input_slew, bus_width=bus_width)

    lanes = lengths.size
    METRICS.count("luts.lookups", int(served.sum()))
    with span("kernels.lut_batch", lanes=lanes), \
            METRICS.observed("lut.lookup_seconds"):
        size_axis, length_axis, count_axis = model.axes()
        delay = np.exp(interpolate_trilinear(
            artifact.interp_table("delay"), size_axis, length_axis,
            count_axis, log_sizes, log_lengths, counts_f))
        slew = np.exp(interpolate_trilinear(
            artifact.interp_table("output_slew"), size_axis,
            length_axis, count_axis, log_sizes, log_lengths,
            counts_f))

        p_dynamic, p_leak, a_repeaters, a_wire = _power_and_area(
            model, lengths, counts, sizes, bus_width)

    if not served.all():
        unserved = ~served
        METRICS.count("luts.fallback", int(unserved.sum()))
        fallback = evaluate_line_batch(
            model.base, lengths[unserved], counts[unserved],
            sizes[unserved], input_slew, bus_width=bus_width)
        delay[unserved] = fallback.delay
        slew[unserved] = fallback.output_slew

    return LineBatch(
        delay=delay,
        output_slew=slew,
        dynamic_power=p_dynamic,
        leakage_power=p_leak,
        repeater_area=a_repeaters,
        wire_area=a_wire,
        num_repeaters=counts,
        repeater_size=sizes,
        length=lengths,
    )


# -- search fast path -----------------------------------------------------


def _serves_search(model, length: float, counts, input_slew: float,
                   max_size: float) -> bool:
    """True when the cell-crossing search can serve this query.

    Requires the grid's size axis to start exactly at the search's
    lower bound (1.0) and end exactly at ``max_size`` so the search
    interval and the gridded region coincide.
    """
    if array_path(model) != LUT:
        return False
    spec = model.artifact.spec
    count_list = list(counts)
    return (input_slew == spec.input_slew
            and spec.sizes[0] == 1.0
            and spec.sizes[-1] == max_size
            and spec.lengths[0] <= length <= spec.lengths[-1]
            and min(count_list) >= spec.counts[0]
            and max(count_list) <= spec.counts[-1])


def _delay_profile(model, length: float, counts: np.ndarray
                   ) -> np.ndarray:
    """Interpolated *log* delay over the full size axis, one column
    per count — bitwise what :func:`interpolate_trilinear` serves
    (before the final ``exp``) at the same ``(size, length, count)``
    points, mirroring its count-then-length reduction order."""
    artifact = model.artifact
    _, length_axis, count_axis = model.axes()
    j, fl = _bracket(length_axis, np.log(np.asarray([length])))
    j = int(j[0])
    fl = float(fl[0])
    k, fc = _bracket(count_axis, counts.astype(float))
    table = artifact.interp_table("delay")
    c0 = _lerp(table[:, j, k], table[:, j, k + 1], fc)
    c1 = _lerp(table[:, j + 1, k], table[:, j + 1, k + 1], fc)
    return _lerp(c0, c1, fl)


def _power_and_area(model, lengths, counts: np.ndarray,
                    sizes: np.ndarray, bus_width: int):
    """The base model's exact power and area per lane."""
    wn, wp = model.tech.inverter_widths(sizes)
    input_cap = model.repeater_model().input_capacitance(sizes)
    return model.power_and_area(
        WireCoefficients.from_config(model.config), lengths, counts,
        wn, wp, input_cap, bus_width)


def _lane_powers(model, length: float, counts: np.ndarray,
                 sizes: np.ndarray, bus_width: int) -> np.ndarray:
    """Exact closed-form total power per (count, size) lane."""
    p_dynamic, p_leak, _, _ = _power_and_area(model, length, counts,
                                              sizes, bus_width)
    return p_dynamic + p_leak


def _minimize_power_under_delay(
    model,
    length: float,
    max_delay: float,
    input_slew: float,
    max_size: float,
    bus_width: int,
    counts,
):
    """Min-power sizing on the interpolated surface, in closed form.

    Along the size axis the interpolated *log* delay is piecewise
    linear, so per count the minimum served delay is attained *at a
    grid node* and the smallest size meeting ``max_delay`` is a
    single cell crossing solved in log space — this solves what the
    scalar path bisects.  Mirrors the scalar semantics: counts whose
    fastest delay misses the bound are infeasible (grid points the
    validity mask pinned read as ``exp(0) = 1`` second, so degenerate
    corners are automatically infeasible rather than garbage), a
    count already meeting the bound at size 1 keeps size 1, and the
    minimum-power count wins.  Before committing, every candidate is
    re-served exactly as ``model.evaluate`` will serve it; a lane
    still over the bound after the ulp nudges is dropped.
    """
    from repro.buffering.optimizer import BufferingSolution

    count_array = np.asarray(list(counts), dtype=int)
    profile = _delay_profile(model, length, count_array)
    log_size_axis, _, _ = model.axes()
    log_max_delay = float(np.log(max_delay))

    feasible = profile.min(axis=0) <= log_max_delay
    if not feasible.any():
        return None
    count_array = count_array[feasible]
    profile = profile[:, feasible]

    meets = profile <= log_max_delay
    first = meets.argmax(axis=0)
    lanes = np.arange(count_array.size)
    below = np.maximum(first - 1, 0)
    d_hi = profile[first, lanes]
    d_lo = profile[below, lanes]
    ls_hi = log_size_axis[first]
    ls_lo = log_size_axis[below]
    at_min = first == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (log_max_delay - d_lo) / (d_hi - d_lo)
    frac = np.where(at_min, 0.0, frac)
    chosen = np.exp(np.where(at_min, log_size_axis[0],
                             _lerp(ls_lo, ls_hi, frac)))
    # The crossing is exact on the log profile, but the round trips
    # (exp of the chosen log size, the lookup's own re-log and final
    # exp) can each round the served delay a few ulps past the bound;
    # nudge the size upward until the *actual* lookup pipeline —
    # re-bracket log(chosen), lerp, exp — agrees.  One ulp of the size
    # can be below the log's resolution, so the nudge escalates
    # (1, 2, 4, ... ulps) — total inflation stays under 1e-13 relative.
    eps = float(np.finfo(float).eps)
    served = np.empty(chosen.shape)
    for attempt in range(8):
        log_chosen = np.log(chosen)
        idx = np.searchsorted(log_size_axis, log_chosen,
                              side="right") - 1
        idx = np.clip(idx, 0, log_size_axis.size - 2)
        cell = log_size_axis[idx + 1] - log_size_axis[idx]
        check_frac = np.clip((log_chosen - log_size_axis[idx]) / cell,
                             0.0, 1.0)
        served = np.exp(_lerp(profile[idx, lanes],
                              profile[idx + 1, lanes], check_frac))
        over = served > max_delay
        if not over.any():
            break
        chosen = np.where(over, chosen * (1.0 + eps * 2.0**attempt),
                          chosen)

    powers = _lane_powers(model, length, count_array, chosen,
                          bus_width)
    powers = np.where(served > max_delay, np.inf, powers)
    if not np.isfinite(powers).any():
        return None
    index = int(np.argmin(powers))
    count = int(count_array[index])
    size = float(chosen[index])
    estimate = model.evaluate(length, count, size, input_slew,
                              bus_width=bus_width)
    return BufferingSolution(count, size, estimate,
                             estimate.total_power)

