"""The classic Bakoglu buffered-interconnect model.

This is the "original" model of Tables II and III: the formulation used
by early communication-synthesis tools (and by COSI-OCC before the
paper's models were integrated).  Its simplifications, each of which the
proposed model removes, are:

* drive resistance is the slew-independent characteristic resistance
  ``r_d = vdd / i_dsat`` (inversely proportional to size only);
* intrinsic delay is the constant self-loading term — no input-slew
  dependence at all;
* the wire model uses **ground capacitance only** — lateral coupling is
  neglected for both delay and power;
* wire resistance assumes bulk copper resistivity (no scattering, no
  barrier);
* repeater area is the raw transistor active area — the "simplistic
  assumption on the area occupation" the paper calls out.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.models.area import wire_area
from repro.models.interconnect import InterconnectEstimate
from repro.models.power import dynamic_power
from repro.tech.design_styles import WireConfiguration
from repro.tech.parameters import TechnologyParameters

#: Elmore switching coefficient of the lumped gate RC stage.
GATE_COEFFICIENT = 0.69

#: Distributed-wire Elmore coefficient.
WIRE_COEFFICIENT = 0.4

#: Wire-resistance-into-load coefficient.
WIRE_LOAD_COEFFICIENT = 0.7


@dataclass(frozen=True)
class BakogluModel:
    """Bakoglu model bound to one technology node and wire layer."""

    tech: TechnologyParameters
    config: WireConfiguration
    activity_factor: float = 0.15

    def _optimistic_config(self) -> WireConfiguration:
        """The wire view this model takes: bulk resistivity, no barrier."""
        return dataclasses.replace(
            self.config, include_scattering=False, include_barrier=False)

    @functools.cached_property
    def _wire_per_meter(self) -> Tuple[float, float]:
        """Resistance (ohm/m) and ground capacitance (F/m) of the
        optimistic wire view, computed once per model."""
        view = self._optimistic_config()
        return (view.resistance_per_meter(),
                view.ground_capacitance_per_meter())

    # -- element models ---------------------------------------------------

    def drive_resistance(self, size: float) -> float:
        """Characteristic resistance ``vdd / i_dsat`` in ohms.

        Averaged over the pull-down (nMOS) and pull-up (pMOS) networks.
        """
        wn, wp = self.tech.inverter_widths(size)
        vdd = self.tech.vdd
        i_n = self.tech.nmos.saturation_current(wn, vdd - self.tech.nmos.vth)
        i_p = self.tech.pmos.saturation_current(wp, vdd - self.tech.pmos.vth)
        return 0.5 * (vdd / i_n + vdd / i_p)

    def input_capacitance(self, size: float) -> float:
        """Gate capacitance in farads of a repeater of dimensionless
        ``size`` (multiple of the minimum inverter), from device data.
        """
        wn, wp = self.tech.inverter_widths(size)
        return self.tech.nmos.c_gate * wn + self.tech.pmos.c_gate * wp

    def self_capacitance(self, size: float) -> float:
        """Drain (self-loading) capacitance in farads of a repeater
        of dimensionless ``size``."""
        wn, wp = self.tech.inverter_widths(size)
        return self.tech.nmos.c_drain * wn + self.tech.pmos.c_drain * wp

    def wire_resistance(self, length: float) -> float:
        """Resistance in ohms of ``length`` meters of wire."""
        return self._wire_per_meter[0] * length

    def wire_capacitance(self, length: float) -> float:
        """Capacitance in farads of ``length`` meters of wire —
        ground capacitance only, coupling is neglected."""
        return self._wire_per_meter[1] * length

    def repeater_area(self, size: float) -> float:
        """Raw transistor gate area in square meters (simplistic).

        Real cells pay for diffusion, contacts, and finger pitch; the
        original model counts only ``width x gate length``, which is
        why the paper finds its area figures wildly optimistic.
        """
        wn, wp = self.tech.inverter_widths(size)
        return (wn + wp) * self.tech.feature_size

    def repeater_leakage(self, size: float) -> float:
        """Average leakage in watts from device data (Sec. III-C)."""
        wn, wp = self.tech.inverter_widths(size)
        vdd = self.tech.vdd
        return 0.5 * (self.tech.nmos.leakage_power(wn, vdd)
                      + self.tech.pmos.leakage_power(wp, vdd))

    # -- line evaluation ------------------------------------------------------

    def _stage_parasitics(self, size: float, segment_length: float
                          ) -> Tuple[float, float, float, float]:
        """(drive resistance, self capacitance, wire resistance, wire
        capacitance) of one stage: everything but its load."""
        return (self.drive_resistance(size), self.self_capacitance(size),
                self.wire_resistance(segment_length),
                self.wire_capacitance(segment_length))

    @staticmethod
    def _elmore(parasitics: Tuple[float, float, float, float],
                next_cap: float) -> float:
        r_d, c_self, r_w, c_w = parasitics
        gate = GATE_COEFFICIENT * r_d * (c_self + c_w + next_cap)
        wire = r_w * (WIRE_COEFFICIENT * c_w
                      + WIRE_LOAD_COEFFICIENT * next_cap)
        return gate + wire

    def stage_delay(self, size: float, segment_length: float,
                    next_cap: float) -> float:
        """Elmore delay in seconds of one repeater stage, coupling
        neglected; ``segment_length`` in meters, ``next_cap`` in
        farads."""
        return self._elmore(self._stage_parasitics(size, segment_length),
                            next_cap)

    def evaluate(
        self,
        length: float,
        num_repeaters: int,
        repeater_size: float,
        input_slew: float = 0.0,
        bus_width: int = 1,
        receiver_cap: Optional[float] = None,
    ) -> InterconnectEstimate:
        """Evaluate a buffered line of ``length`` meters;
        ``input_slew`` (seconds) is accepted for interface
        compatibility but ignored (the model has no slew
        dependence)."""
        if length <= 0:
            raise ValueError("length must be positive")
        if num_repeaters < 1:
            raise ValueError("need at least one repeater")

        segment = length / num_repeaters
        input_cap = self.input_capacitance(repeater_size)

        # The stages are identical except the last, whose load is the
        # receiver; by default that is one more repeater input.
        parasitics = self._stage_parasitics(repeater_size, segment)
        inner = self._elmore(parasitics, input_cap)
        last = (inner if receiver_cap is None
                else self._elmore(parasitics, receiver_cap))
        stage_delays = (inner,) * (num_repeaters - 1) + (last,)

        switched = (self.wire_capacitance(length)
                    + num_repeaters * input_cap)
        p_dynamic = bus_width * dynamic_power(
            switched, self.tech.vdd, self.tech.clock_frequency,
            self.activity_factor)
        p_leak = (bus_width * num_repeaters
                  * self.repeater_leakage(repeater_size))
        a_repeaters = (bus_width * num_repeaters
                       * self.repeater_area(repeater_size))
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
