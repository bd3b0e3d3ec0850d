"""Beyond-paper extension: wire-aware slew propagation.

The paper's output-slew model is characterized with lumped capacitive
loads, so the slew it propagates to the next stage is the slew at the
*driver output*.  On a long resistive segment the waveform disperses,
and the slew at the far end — what the next repeater actually sees —
is worse.  The classic correction (PERI: "slew = sqrt(step-response
slew^2 + driver slew^2)") combines the gate slew with the wire's own
step-response transition time:

    s_far = sqrt( s_gate^2 + (ln 9 * t_wire)^2 )

where ``t_wire`` is the Elmore time constant of the segment seen from
the driver output (``ln 9`` converts a single-pole time constant to a
10-90 style transition, rescaled to this library's full-swing slew
convention).

:class:`SlewAwareInterconnectModel` drops in anywhere the proposed
model is used; the ablation benchmark measures how much the correction
improves the predicted *output slew* (delay is barely affected because
stage delays converge to the same periodic steady state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.models.interconnect import BufferedInterconnectModel, StageLoad

#: Single-pole time constant -> full-swing-equivalent slew factor.
#: ln(9) maps tau to a 10-90 transition; the 20-80/0.6 convention used
#: by the waveform measurements is numerically close (ln(4)/0.6 ~ 2.31
#: vs ln(9) ~ 2.20); ln(9) is the standard PERI constant.
SLEW_TAU_FACTOR = math.log(9.0)


@dataclass(frozen=True)
class SlewAwareInterconnectModel(BufferedInterconnectModel):
    """The proposed model plus PERI-style wire slew degradation."""

    def wire_slew(self, segment_length: float, next_cap: float) -> float:
        """Step-response transition time of one wire segment (seconds)."""
        wire = self.wire_coefficients
        r_wire = wire.resistance_per_meter * segment_length
        c_wire = wire.load_capacitance(segment_length, next_cap)
        # Elmore time constant of the distributed segment with its load.
        tau = r_wire * (0.5 * (c_wire - next_cap) + next_cap)
        return SLEW_TAU_FACTOR * tau

    def drive_stage(self, stage: StageLoad, wr, input_slew,
                    rising_output):
        """(delay, far-end slew), both in seconds, of one stage with
        slew degradation; arguments as in
        :meth:`BufferedInterconnectModel.drive_stage`.  Scalars only
        (``math.hypot``)."""
        delay, gate_slew = super().drive_stage(stage, wr, input_slew,
                                               rising_output)
        degraded = math.hypot(
            gate_slew, self.wire_slew(stage.segment_length,
                                      stage.next_cap))
        return delay, degraded

    def staggered(self) -> "SlewAwareInterconnectModel":
        return SlewAwareInterconnectModel(
            tech=self.tech,
            calibration=self.calibration,
            config=self.config.staggered(),
            activity_factor=self.activity_factor,
        )
