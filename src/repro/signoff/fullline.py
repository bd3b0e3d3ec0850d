"""Whole-line golden evaluation in a single circuit.

The stage-based golden evaluator (:mod:`repro.signoff.golden`) breaks
the buffered line at repeater inputs and re-launches each stage with an
ideal ramp of the measured slew — the abstraction every static timer
makes.  This module provides the even stronger reference used to
validate *that* abstraction: the entire line — every repeater and every
distributed wire segment — simulated as one nonlinear circuit, with no
ramp re-launching anywhere.

At ~10 nodes per stage the monolithic circuit stays small enough for
the dense MNA solver, so this is practical for the line lengths of
Table II.  The cross-check (``tests/signoff/test_fullline.py``) shows
the stage decomposition tracks the monolithic simulation to within a
few percent, which is the justification for using the fast stage-based
flow as the Table II reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.signoff.extraction import ExtractedLine
from repro.spice.elements import ramp
from repro.spice.netlist import Circuit
from repro.spice.transient import SettleRule, simulate_transient
from repro.spice.waveform import measure_delay, measure_slew

#: RC sections per wire segment in the monolithic circuit.  Fewer than
#: the stage-based flow's eight keeps the node count moderate; four
#: sections keep the distributed-line error under ~1%.
FULLLINE_SEGMENTS = 4


@dataclass(frozen=True)
class FullLineResult:
    """Monolithic simulation outcome."""

    total_delay: float
    output_slew: float
    node_count: int


def build_full_line_circuit(
    line: ExtractedLine,
    input_slew: float,
    miller_factor: Optional[float] = None,
) -> "tuple[Circuit, float, SettleRule]":
    """The whole buffered line as one netlist.

    ``input_slew`` is in seconds.  Returns the circuit, a suggested
    stop time in seconds and the rule under which the far end has
    settled: within 2% of ``vdd`` of its rail once the input ramp is
    over.  The line input node is ``in`` and the far-end (receiver
    input) node is ``out``.
    """
    if miller_factor is None:
        miller_factor = line.config.delay_miller
    tech = line.tech
    vdd = tech.vdd

    circuit = Circuit(f"fullline_{tech.name}")
    circuit.add_supply("vdd", vdd)
    start = 0.1 * input_slew + 1e-12
    circuit.add_voltage_source("in", ramp(0.0, vdd, start, input_slew))

    elmore_total = 0.0
    previous = "in"
    for index, stage in enumerate(line.stages):
        wn, wp = tech.inverter_widths(stage.driver_size)
        drive = f"s{index}_drv"
        out = ("out" if index == line.num_repeaters - 1
               else f"s{index}_out")
        circuit.add_inverter(previous, drive, "vdd", tech.nmos,
                             tech.pmos, wn, wp, vdd)
        wire_cap = stage.wire.total_cap(miller_factor)
        circuit.add_rc_ladder(drive, out, stage.wire.resistance,
                              wire_cap, FULLLINE_SEGMENTS,
                              prefix=f"s{index}")
        previous = out

        elmore_total += (tech.drive_resistance(wn)
                         * (wire_cap + line.stage_load_cap(index))
                         + stage.wire.resistance
                         * (0.5 * wire_cap
                            + line.stage_load_cap(index)))
    circuit.add_capacitor("out", "0", line.receiver_cap)

    stop_time = start + input_slew + 10.0 * elmore_total + 50e-12
    # An even repeater count leaves the far end at the input's polarity;
    # an odd count inverts it.
    target = vdd if line.num_repeaters % 2 == 0 else 0.0
    settle = SettleRule("out", target, 0.02 * vdd, start + input_slew)
    return circuit, stop_time, settle


def evaluate_full_line(
    line: ExtractedLine,
    input_slew: float,
    miller_factor: Optional[float] = None,
) -> FullLineResult:
    """Simulate the entire line monolithically and measure its timing,
    driving it with a ramp of ``input_slew`` seconds.  The simulation
    stops where the far end settles."""
    circuit, stop_time, settle = build_full_line_circuit(
        line, input_slew, miller_factor)
    vdd = line.tech.vdd
    result = simulate_transient(
        circuit, stop_time,
        time_step=stop_time / max(2000, 400 * line.num_repeaters),
        record=["in", "out"], settle=settle)
    out_wave = result.waveform("out")
    return FullLineResult(
        total_delay=measure_delay(result.waveform("in"), out_wave, 0.0,
                                  vdd),
        output_slew=measure_slew(out_wave, 0.0, vdd),
        node_count=circuit.node_count,
    )
