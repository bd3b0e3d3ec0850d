"""Repeater cell construction.

A *repeater* is either an inverter or a buffer (two cascaded
inverters); the paper's models cover both, with only the fitted
coefficients changing.  Cells are built at a fixed P/N width ratio
across all sizes, as Section III-E prescribes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Tuple

from repro.spice.netlist import Circuit
from repro.spice.elements import ramp
from repro.spice.transient import SettleRule
from repro.tech.parameters import TechnologyParameters


class RepeaterKind(enum.Enum):
    """Repeater flavour."""

    INVERTER = "inverter"
    BUFFER = "buffer"

    @property
    def inverting(self) -> bool:
        return self is RepeaterKind.INVERTER


#: Size ratio between the second and first inverter of a buffer.
BUFFER_STAGE_RATIO = 4.0


@dataclass(frozen=True)
class RepeaterCell:
    """One repeater cell of a given drive strength.

    ``size`` is the drive strength in multiples of the minimum inverter;
    for buffers it is the strength of the *output* stage, with the input
    stage scaled down by :data:`BUFFER_STAGE_RATIO` (the first stage
    grows with the second, which is why buffer intrinsic delay stays
    nearly size-independent — the observation under Fig. 1).
    """

    tech: TechnologyParameters
    kind: RepeaterKind
    size: float

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("size must be positive")

    # -- geometry ---------------------------------------------------------

    def output_stage_widths(self) -> Tuple[float, float]:
        """(wn, wp) of the output inverter, meters."""
        return self.tech.inverter_widths(self.size)

    def input_stage_widths(self) -> Tuple[float, float]:
        """(wn, wp) of the stage the cell input connects to, meters."""
        if self.kind is RepeaterKind.INVERTER:
            return self.output_stage_widths()
        first_size = max(self.size / BUFFER_STAGE_RATIO, 1.0)
        return self.tech.inverter_widths(first_size)

    def total_device_width(self) -> float:
        """Sum of all device widths in the cell, meters."""
        wn_out, wp_out = self.output_stage_widths()
        total = wn_out + wp_out
        if self.kind is RepeaterKind.BUFFER:
            wn_in, wp_in = self.input_stage_widths()
            total += wn_in + wp_in
        return total

    # -- electrical views ---------------------------------------------------

    def input_capacitance(self) -> float:
        """Input capacitance in farads (gate caps of the input stage)."""
        wn, wp = self.input_stage_widths()
        return self.tech.nmos.c_gate * wn + self.tech.pmos.c_gate * wp

    def leakage_power(self) -> float:
        """Average static power in watts over the two output states.

        The nMOS of an inverter leaks when the output is high, the pMOS
        when it is low; the cell-level average over both states is the
        ``p_s = (p_sn + p_sp) / 2`` of Section III-C.  For buffers the
        first stage's contribution is added the same way.
        """
        vdd = self.tech.vdd
        total = 0.0
        for wn, wp in self._stage_width_list():
            p_n = self.tech.nmos.leakage_power(wn, vdd)
            p_p = self.tech.pmos.leakage_power(wp, vdd)
            total += 0.5 * (p_n + p_p)
        return total

    def _stage_width_list(self) -> Tuple[Tuple[float, float], ...]:
        if self.kind is RepeaterKind.INVERTER:
            return (self.output_stage_widths(),)
        return (self.input_stage_widths(), self.output_stage_widths())

    # -- layout (finger-based, Section III-C) --------------------------------

    def layout_area(self) -> float:
        """Cell area in m^2 from the finger-count layout model.

        ``N_f = (w_p + w_n) / (h_row - 4 p_contact)`` fingers, cell width
        ``(N_f + 1) * p_contact``, area ``h_row * w_cell``.  Buffers add
        the first-stage fingers into the same row.
        """
        tech = self.tech
        usable_height = tech.row_height - 4.0 * tech.contact_pitch
        if usable_height <= 0:
            raise ValueError("row height too small for the contact pitch")
        total_width = self.total_device_width()
        fingers = max(math.ceil(total_width / usable_height), 1)
        cell_width = (fingers + 1) * tech.contact_pitch
        return tech.row_height * cell_width

    # -- circuit construction ------------------------------------------------

    def build_test_circuit(self, input_slew: float, load_cap: float,
                           rising_input: bool
                           ) -> Tuple[Circuit, float, SettleRule]:
        """Characterization testbench: ramp -> cell -> load capacitor.

        Returns the circuit, a suggested simulation stop time in
        seconds and the rule under which the output has settled:
        within 2% of ``vdd`` of its rail once the input ramp is over.
        The cell input node is ``"in"`` and the output node is
        ``"out"``.
        """
        if input_slew <= 0:
            raise ValueError("input_slew must be positive")
        if load_cap < 0:
            raise ValueError("load_cap must be non-negative")
        tech = self.tech
        vdd = tech.vdd
        circuit = Circuit(f"{self.kind.value}_x{self.size:g}")
        circuit.add_supply("vdd", vdd)
        start = 0.1 * input_slew + 1e-12
        if rising_input:
            circuit.add_voltage_source(
                "in", ramp(0.0, vdd, start, input_slew))
        else:
            circuit.add_voltage_source(
                "in", ramp(vdd, 0.0, start, input_slew))

        if self.kind is RepeaterKind.INVERTER:
            wn, wp = self.output_stage_widths()
            circuit.add_inverter("in", "out", "vdd", tech.nmos, tech.pmos,
                                 wn, wp, vdd)
        else:
            wn1, wp1 = self.input_stage_widths()
            wn2, wp2 = self.output_stage_widths()
            circuit.add_inverter("in", "mid", "vdd", tech.nmos, tech.pmos,
                                 wn1, wp1, vdd)
            circuit.add_inverter("mid", "out", "vdd", tech.nmos, tech.pmos,
                                 wn2, wp2, vdd)
        circuit.add_capacitor("out", "0", load_cap)

        # Stop-time heuristic: ramp + several RC time constants of the
        # output stage into the load.
        wn_out, _ = self.output_stage_widths()
        time_constant = (tech.drive_resistance(wn_out)
                         * (load_cap + self.input_capacitance()))
        stop_time = start + input_slew + 10.0 * time_constant + 30e-12
        rising_output = rising_input != self.kind.inverting
        settle = SettleRule("out", vdd if rising_output else 0.0,
                            0.02 * vdd, start + input_slew)
        return circuit, stop_time, settle

    def build_leakage_circuit(self, input_high: bool) -> Circuit:
        """DC leakage testbench with the input pinned at a rail."""
        tech = self.tech
        vdd = tech.vdd
        circuit = Circuit(f"{self.kind.value}_leak")
        circuit.add_supply("vdd", vdd)
        circuit.add_supply("in", vdd if input_high else 0.0)
        if self.kind is RepeaterKind.INVERTER:
            wn, wp = self.output_stage_widths()
            circuit.add_inverter("in", "out", "vdd", tech.nmos, tech.pmos,
                                 wn, wp, vdd)
        else:
            wn1, wp1 = self.input_stage_widths()
            wn2, wp2 = self.output_stage_widths()
            circuit.add_inverter("in", "mid", "vdd", tech.nmos, tech.pmos,
                                 wn1, wp1, vdd)
            circuit.add_inverter("mid", "out", "vdd", tech.nmos, tech.pmos,
                                 wn2, wp2, vdd)
        return circuit
