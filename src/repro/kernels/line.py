"""Batched buffered-line evaluation (the composed proposed model).

:func:`evaluate_line_batch` is the array form of
:meth:`repro.models.interconnect.BufferedInterconnectModel.evaluate`:
it evaluates many ``(length, num_repeaters, repeater_size)`` lanes in
one call.  Lanes may have different repeater counts; the stage loop
runs to the largest count with per-lane ``active`` masks so every lane
accumulates exactly the stages the scalar loop would have.

The slew chain is inherently sequential (stage ``k+1`` consumes stage
``k``'s output slew), so the loop over *stages* stays in Python — the
win is that each iteration evaluates *all lanes* at once through the
model's own :meth:`~repro.models.interconnect.BufferedInterconnectModel.stage_delay`,
and the expensive per-meter wire parasitics are the model's own view,
computed once per model.

:func:`array_path` says whether the lanes serve a model; it is the
only code in the package that inspects model types.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.interconnect import BufferedInterconnectModel
from repro.runtime.metrics import METRICS
from repro.runtime.trace import span


def array_path(model: object) -> bool:
    """True when the batched lanes serve ``model``.

    Only a plain ``BufferedInterconnectModel`` qualifies.  Anything
    else — including subclasses such as the slew-aware model, whose
    overridden stage step takes scalars only — takes the scalar
    paths.
    """
    return type(model) is BufferedInterconnectModel


@dataclass(frozen=True)
class LineBatch:
    """Array-of-structs result of one batched line evaluation.

    Field meanings match
    :class:`repro.models.interconnect.InterconnectEstimate`; every
    field is an array over the broadcast lanes (``stage_delays`` is
    omitted — per-stage breakdowns stay a scalar-path feature).
    """

    delay: np.ndarray
    output_slew: np.ndarray
    dynamic_power: np.ndarray
    leakage_power: np.ndarray
    repeater_area: np.ndarray
    wire_area: np.ndarray
    num_repeaters: np.ndarray
    repeater_size: np.ndarray
    length: np.ndarray

    @property
    def total_power(self) -> np.ndarray:
        """Dynamic plus leakage power per lane, in watts."""
        return self.dynamic_power + self.leakage_power


def evaluate_line_batch(
    model: BufferedInterconnectModel,
    length: np.ndarray,
    num_repeaters: np.ndarray,
    repeater_size: np.ndarray,
    input_slew: float,
    bus_width: int = 1,
    receiver_cap: "float | None" = None,
) -> LineBatch:
    """Evaluate uniformly buffered lines over broadcast lanes.

    ``length`` in meters, ``num_repeaters`` integral, ``repeater_size``
    the dimensionless drive multiple; scalars broadcast.
    ``receiver_cap`` defaults per lane to the lane's own repeater input
    capacitance, matching the scalar default.  Non-positive sizes
    raise ``ValueError`` from the model's own width equation.
    """
    if not array_path(model):
        raise TypeError(
            "evaluate_line_batch runs the plain "
            "BufferedInterconnectModel stage; got "
            f"{type(model).__name__}")
    lengths, counts, sizes = np.broadcast_arrays(
        np.atleast_1d(np.asarray(length, dtype=float)),
        np.atleast_1d(np.asarray(num_repeaters)),
        np.atleast_1d(np.asarray(repeater_size, dtype=float)),
    )
    if not (lengths > 0).all():
        raise ValueError("length must be positive")
    if not (counts >= 1).all():
        raise ValueError("need at least one repeater")
    counts = counts.astype(int)

    lanes = lengths.size
    METRICS.count("kernels.batches")
    METRICS.count("kernels.batch_size", lanes)
    with span("kernels.line_batch", lanes=lanes), \
            METRICS.timer("kernels.batch"):
        wire = model.wire_coefficients
        segment = lengths / counts
        input_cap = model.repeater_model().input_capacitance(sizes)
        receiver = (input_cap if receiver_cap is None
                    else np.broadcast_to(float(receiver_cap),
                                         lengths.shape))
        wn, wp = model.tech.inverter_widths(sizes)

        total_delay = np.zeros(lengths.shape)
        slew = np.broadcast_to(float(input_slew), lengths.shape).copy()
        rising = True
        inverting = model.calibration.kind.inverting
        max_count = int(counts.max())
        for stage in range(max_count):
            active = stage < counts
            # With the default receiver every stage drives input_cap.
            next_cap = (input_cap if receiver is input_cap
                        else np.where(stage + 1 < counts, input_cap,
                                      receiver))
            d_stage, slew_out = model.stage_delay(
                wire, wp if rising else wn, slew, segment, next_cap,
                rising)
            total_delay = np.where(active, total_delay + d_stage,
                                   total_delay)
            slew = np.where(active, slew_out, slew)
            if inverting:
                rising = not rising

        p_dynamic, p_leak, a_repeaters, a_wire = model.power_and_area(
            wire, lengths, counts, wn, wp, input_cap, bus_width)

        return LineBatch(
            delay=total_delay,
            output_slew=slew,
            dynamic_power=p_dynamic,
            leakage_power=p_leak,
            repeater_area=a_repeaters,
            wire_area=a_wire,
            num_repeaters=counts,
            repeater_size=sizes,
            length=lengths,
        )
