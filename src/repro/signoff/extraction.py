"""Parasitic extraction for placed buffered lines.

The paper's validation flow places repeaters at equal distances along
the wire with SOC Encounter, routes at the layer's minimum width and
spacing, and extracts the RC parasitics.  This module reproduces that
structure analytically: the geometry is deterministic (uniform
spacing, fixed layer), so the extracted parasitics follow directly
from the technology database.

An :class:`ExtractedLine` is the golden evaluator's input; it stays in
memory, so no parasitic exchange format is read or written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.tech.design_styles import WireConfiguration
from repro.tech.parameters import TechnologyParameters


@dataclass(frozen=True)
class WireSegmentParasitics:
    """Lumped totals of one wire segment between two repeaters.

    ``resistance`` in ohms; ``ground_cap`` and ``coupling_cap`` in
    farads.  ``coupling_cap`` is the total lateral capacitance to both
    neighbours (amplification by a Miller factor happens at evaluation
    time, because it depends on the assumed switching scenario, not on
    the layout).
    """

    resistance: float
    ground_cap: float
    coupling_cap: float
    length: float

    def total_cap(self, miller_factor: float) -> float:
        """Effective grounded farads for a switching scenario, given
        a dimensionless ``miller_factor``."""
        return self.ground_cap + miller_factor * self.coupling_cap


@dataclass(frozen=True)
class StageParasitics:
    """One repeater stage: the driver plus the wire segment it drives."""

    driver_size: float
    wire: WireSegmentParasitics


@dataclass(frozen=True)
class ExtractedLine:
    """Extracted view of a uniformly buffered interconnect.

    ``stages[k]`` holds repeater ``k`` (driving) and the wire segment
    between repeater ``k`` and repeater ``k+1`` (or the receiver for the
    last stage).  ``receiver_cap`` is the input capacitance of the
    sink's receiver gate, in farads.
    """

    tech: TechnologyParameters
    config: WireConfiguration
    length: float
    stages: Tuple[StageParasitics, ...]
    receiver_cap: float

    @property
    def num_repeaters(self) -> int:
        return len(self.stages)

    def repeater_input_cap(self, stage_index: int) -> float:
        """Input capacitance (F) of the repeater driving ``stage_index``."""
        wn, wp = self.tech.inverter_widths(
            self.stages[stage_index].driver_size)
        return (self.tech.nmos.c_gate * wn + self.tech.pmos.c_gate * wp)

    def stage_load_cap(self, stage_index: int) -> float:
        """Gate farads loading the far end of stage ``stage_index``."""
        if stage_index + 1 < len(self.stages):
            return self.repeater_input_cap(stage_index + 1)
        return self.receiver_cap

    def total_wire_resistance(self) -> float:
        """Summed wire resistance of every stage, in ohms."""
        return sum(stage.wire.resistance for stage in self.stages)

    def total_wire_cap(self, miller_factor: float) -> float:
        """Summed effective wire farads under a dimensionless
        ``miller_factor``."""
        return sum(stage.wire.total_cap(miller_factor)
                   for stage in self.stages)


def extract_buffered_line(
    tech: TechnologyParameters,
    config: WireConfiguration,
    length: float,
    num_repeaters: int,
    repeater_size: float,
    receiver_size: Optional[float] = None,
) -> ExtractedLine:
    """Extract the parasitics of a uniformly buffered line.

    Parameters
    ----------
    tech:
        Technology node.
    config:
        Wire configuration (layer + design style).
    length:
        Total route length in meters.
    num_repeaters:
        Number of repeaters, all placed at equal spacing starting at the
        source (so each drives a segment of ``length / num_repeaters``).
    repeater_size:
        Drive strength of every repeater (multiple of the minimum
        inverter).
    receiver_size:
        Drive strength of the receiving gate at the sink; defaults to
        the repeater size (a same-size receiver, as in the paper's
        testbench layouts).
    """
    if length <= 0:
        raise ValueError("length must be positive")
    if num_repeaters < 1:
        raise ValueError("need at least one repeater")
    if repeater_size <= 0:
        raise ValueError("repeater_size must be positive")

    segment_length = length / num_repeaters
    r_per_m = config.resistance_per_meter()
    cg_per_m = config.ground_capacitance_per_meter()
    cc_per_m = config.coupling_capacitance_per_meter()

    segment = WireSegmentParasitics(
        resistance=r_per_m * segment_length,
        ground_cap=cg_per_m * segment_length,
        coupling_cap=cc_per_m * segment_length,
        length=segment_length,
    )
    stages = tuple(
        StageParasitics(driver_size=repeater_size, wire=segment)
        for _ in range(num_repeaters)
    )

    if receiver_size is None:
        receiver_size = repeater_size
    wn, wp = tech.inverter_widths(receiver_size)
    receiver_cap = tech.nmos.c_gate * wn + tech.pmos.c_gate * wp

    return ExtractedLine(
        tech=tech,
        config=config,
        length=length,
        stages=stages,
        receiver_cap=receiver_cap,
    )
