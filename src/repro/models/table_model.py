"""NLDM table-lookup interconnect model.

Production static timers do not use closed forms: they interpolate the
characterized delay/slew tables directly.  This model does the same —
bilinear interpolation of the library's NLDM tables for the repeater
part, the corrected wire model for the wire part — and serves as the
accuracy ceiling the paper's closed forms are traded against: the
closed forms compress the tables into a handful of coefficients and
extend smoothly to *any* repeater size, at some accuracy cost this
model makes measurable.

Repeater sizes snap to the nearest characterized size (tables exist
only on the characterized grid — exactly the restriction real cell
libraries impose).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.characterization.harness import LibraryCharacterization
from repro.models.area import wire_area
from repro.models.interconnect import InterconnectEstimate
from repro.models.power import dynamic_power
from repro.models.wire import WireCoefficients
from repro.tech.design_styles import WireConfiguration


@dataclass(frozen=True)
class TableInterconnectModel:
    """Buffered-interconnect evaluation straight from NLDM tables."""

    library: LibraryCharacterization
    config: WireConfiguration
    activity_factor: float = 0.15

    @property
    def tech(self):
        return self.library.tech

    # -- size handling ------------------------------------------------------

    def snap_size(self, size: float) -> float:
        """Nearest characterized drive strength (dimensionless
        multiple of the minimum inverter)."""
        sizes = self.library.sizes()
        return min(sizes, key=lambda s: abs(s - size))

    # -- repeater lookups -----------------------------------------------------

    def repeater_delay(self, size: float, input_slew: float,
                       load_cap: float, rising_output: bool) -> float:
        """NLDM delay in seconds; ``input_slew`` seconds,
        ``load_cap`` farads, ``size`` dimensionless."""
        cell = self.library.cell(self.snap_size(size))
        return cell.tables(rising_output).delay.lookup(input_slew,
                                                       load_cap)

    def repeater_slew(self, size: float, input_slew: float,
                      load_cap: float, rising_output: bool) -> float:
        """NLDM output slew in seconds; ``input_slew`` seconds,
        ``load_cap`` farads, ``size`` dimensionless."""
        cell = self.library.cell(self.snap_size(size))
        return cell.tables(rising_output).output_slew.lookup(
            input_slew, load_cap)

    def input_capacitance(self, size: float) -> float:
        """Input pin capacitance in farads at the snapped size."""
        return self.library.cell(self.snap_size(size)).input_capacitance

    # -- line evaluation ------------------------------------------------------

    def evaluate(
        self,
        length: float,
        num_repeaters: int,
        repeater_size: float,
        input_slew: float,
        bus_width: int = 1,
        receiver_cap: Optional[float] = None,
    ) -> InterconnectEstimate:
        """Same contract as the closed-form models: ``length`` in
        meters, ``input_slew`` in seconds, ``repeater_size`` a
        dimensionless multiple."""
        if length <= 0:
            raise ValueError("length must be positive")
        if num_repeaters < 1:
            raise ValueError("need at least one repeater")

        size = self.snap_size(repeater_size)
        cell = self.library.cell(size)
        tech = self.tech
        segment = length / num_repeaters
        input_cap = cell.input_capacitance
        if receiver_cap is None:
            receiver_cap = input_cap

        wire = WireCoefficients.from_config(self.config)
        stage_delays: List[float] = []
        slew = input_slew
        rising = True
        for stage in range(num_repeaters):
            next_cap = (input_cap if stage + 1 < num_repeaters
                        else receiver_cap)
            load = wire.load_capacitance(segment, next_cap)
            delay = (self.repeater_delay(size, slew, load, rising)
                     + wire.delay(segment, next_cap))
            slew = self.repeater_slew(size, slew, load, rising)
            stage_delays.append(delay)
            rising = not rising

        switched = (wire.switched_capacitance(length)
                    + num_repeaters * input_cap)
        p_dynamic = bus_width * dynamic_power(
            switched, tech.vdd, tech.clock_frequency,
            self.activity_factor)
        p_leak = bus_width * num_repeaters * cell.leakage_power
        a_repeaters = bus_width * num_repeaters * cell.area
        a_wire = wire_area(self.config, length, bus_width)

        return InterconnectEstimate(
            delay=sum(stage_delays),
            output_slew=slew,
            stage_delays=tuple(stage_delays),
            dynamic_power=p_dynamic,
            leakage_power=p_leak,
            repeater_area=a_repeaters,
            wire_area=a_wire,
            num_repeaters=num_repeaters,
            repeater_size=size,
            length=length,
            bus_width=bus_width,
        )
