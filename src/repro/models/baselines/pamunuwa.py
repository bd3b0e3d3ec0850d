"""The Pamunuwa et al. crosstalk-aware baseline model.

Relative to Bakoglu, this model adds the coupling-aware wire delay term

    ``d_w = r_w (0.4 c_g + (lambda/2) c_c + 0.7 c_i)``

with the worst-case switching coefficient, and counts lateral
capacitance in the driver load.  What it still lacks — and what
separates it from the proposed model — is:

* any input-slew dependence of the drive resistance or intrinsic delay
  (it uses the same characteristic ``vdd / i_dsat`` resistance), and
* the width-dependent resistivity corrections (electron scattering and
  barrier thickness), so its wire resistance is optimistic in
  nanometer nodes.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.models.area import wire_area
from repro.models.baselines.bakoglu import (
    GATE_COEFFICIENT,
    WIRE_COEFFICIENT,
    WIRE_LOAD_COEFFICIENT,
    BakogluModel,
)
from repro.models.interconnect import InterconnectEstimate
from repro.models.power import dynamic_power
from repro.tech.design_styles import WireConfiguration
from repro.tech.parameters import TechnologyParameters


@dataclass(frozen=True)
class PamunuwaModel:
    """Pamunuwa model bound to one technology node and wire layer."""

    tech: TechnologyParameters
    config: WireConfiguration
    activity_factor: float = 0.15

    @functools.cached_property
    def _gate_model(self) -> BakogluModel:
        """The gate-level pieces are shared with the Bakoglu model."""
        return BakogluModel(tech=self.tech, config=self.config,
                            activity_factor=self.activity_factor)

    def _optimistic_config(self) -> WireConfiguration:
        """Bulk resistivity, no barrier — pre-nanometer wire physics."""
        return dataclasses.replace(
            self.config, include_scattering=False, include_barrier=False)

    @functools.cached_property
    def _wire_per_meter(self) -> Tuple[float, float, float]:
        """Resistance (ohm/m), ground and coupling capacitance (F/m) of
        the optimistic wire view, computed once per model."""
        view = self._optimistic_config()
        return (view.resistance_per_meter(),
                view.ground_capacitance_per_meter(),
                view.coupling_capacitance_per_meter())

    # -- element models ---------------------------------------------------

    def drive_resistance(self, size: float) -> float:
        """Drive resistance in ohms of a repeater of dimensionless
        ``size`` (multiple of the minimum inverter)."""
        return self._gate_model.drive_resistance(size)

    def input_capacitance(self, size: float) -> float:
        """Gate capacitance in farads of a repeater of dimensionless
        ``size``."""
        return self._gate_model.input_capacitance(size)

    def wire_resistance(self, length: float) -> float:
        """Resistance in ohms of ``length`` meters of wire."""
        return self._wire_per_meter[0] * length

    def wire_ground_cap(self, length: float) -> float:
        """Ground capacitance in farads of ``length`` meters of wire."""
        return self._wire_per_meter[1] * length

    def wire_coupling_cap(self, length: float) -> float:
        """Coupling capacitance in farads of ``length`` meters of wire."""
        return self._wire_per_meter[2] * length

    # -- line evaluation ------------------------------------------------------

    def stage_delay(self, size: float, segment_length: float,
                    next_cap: float) -> float:
        """Delay in seconds of one stage with the crosstalk-aware
        wire term; ``segment_length`` in meters, ``next_cap`` in
        farads."""
        miller = self.config.delay_miller
        r_d = self.drive_resistance(size)
        r_w = self.wire_resistance(segment_length)
        c_g = self.wire_ground_cap(segment_length)
        c_c = self.wire_coupling_cap(segment_length)
        c_self = self._gate_model.self_capacitance(size)
        load = c_self + c_g + miller * c_c + next_cap
        gate_term = GATE_COEFFICIENT * r_d * load
        wire_term = r_w * (WIRE_COEFFICIENT * c_g
                           + WIRE_COEFFICIENT * miller * c_c
                           + WIRE_LOAD_COEFFICIENT * next_cap)
        return gate_term + wire_term

    def evaluate(
        self,
        length: float,
        num_repeaters: int,
        repeater_size: float,
        input_slew: float = 0.0,
        bus_width: int = 1,
        receiver_cap: Optional[float] = None,
    ) -> InterconnectEstimate:
        """Evaluate a buffered line of ``length`` meters
        (``input_slew``, in seconds, is ignored — the model has no
        slew dependence)."""
        if length <= 0:
            raise ValueError("length must be positive")
        if num_repeaters < 1:
            raise ValueError("need at least one repeater")

        gate = self._gate_model
        segment = length / num_repeaters
        input_cap = self.input_capacitance(repeater_size)
        if receiver_cap is None:
            receiver_cap = input_cap

        # The stages are identical except the last, whose load is the
        # receiver.
        inner = self.stage_delay(repeater_size, segment, input_cap)
        last = self.stage_delay(repeater_size, segment, receiver_cap)
        stage_delays = (inner,) * (num_repeaters - 1) + (last,)

        # Power counts the lateral capacitance once (no Miller for
        # average power) — the same accounting as the proposed model,
        # but on the optimistic wire parasitics.
        switched = (self.wire_ground_cap(length)
                    + self.wire_coupling_cap(length)
                    + num_repeaters * input_cap)
        p_dynamic = bus_width * dynamic_power(
            switched, self.tech.vdd, self.tech.clock_frequency,
            self.activity_factor)
        p_leak = (bus_width * num_repeaters
                  * gate.repeater_leakage(repeater_size))
        a_repeaters = (bus_width * num_repeaters
                       * gate.repeater_area(repeater_size))
        a_wire = wire_area(self.config, length, bus_width)

        return InterconnectEstimate(
            delay=sum(stage_delays),
            output_slew=0.0,
            stage_delays=stage_delays,
            dynamic_power=p_dynamic,
            leakage_power=p_leak,
            repeater_area=a_repeaters,
            wire_area=a_wire,
            num_repeaters=num_repeaters,
            repeater_size=repeater_size,
            length=length,
            bus_width=bus_width,
        )
