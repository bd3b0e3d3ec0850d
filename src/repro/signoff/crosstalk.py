"""Explicit coupled-line crosstalk simulation.

The golden evaluator in :mod:`repro.signoff.golden` folds lateral
capacitance into grounded capacitors scaled by a Miller factor — the
standard sign-off abstraction.  This module provides the stronger
reference that abstraction is judged against: a *three-line* simulation
with the victim's two aggressor neighbours modelled explicitly as their
own driven RC lines, coupled to the victim through true inter-wire
capacitors.

Supported aggressor activities:

* ``OPPOSITE``  — both aggressors switch against the victim (the
  worst-case scenario the Miller factor ~1.9-2 approximates);
* ``QUIET``     — aggressors held at a rail (Miller factor ~1);
* ``SAME``      — aggressors switch with the victim (best case,
  Miller factor ~0 — what staggered insertion engineers).

The validation experiment: the Miller-grounded golden delay should sit
within a few percent of the explicit three-line simulation for the
matching activity, and the explicit worst/best-case delays must bracket
it.  ``tests/signoff/test_crosstalk.py`` and the crosstalk ablation
benchmark run exactly that check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.spice.elements import ramp
from repro.spice.netlist import Circuit
from repro.spice.transient import SettleRule, simulate_transient
from repro.spice.waveform import measure_delay, measure_slew
from repro.tech.parameters import TechnologyParameters

#: RC sections per wire in the coupled simulation.
COUPLED_SEGMENTS = 8


class AggressorActivity(enum.Enum):
    """What the neighbour wires do during the victim transition."""

    OPPOSITE = "opposite"
    QUIET = "quiet"
    SAME = "same"


@dataclass(frozen=True)
class CoupledStageResult:
    """Timing of one victim stage under explicit aggressors."""

    delay: float
    output_slew: float
    activity: AggressorActivity


def _add_coupled_ladders(
    circuit: Circuit,
    wire_resistance: float,
    ground_cap: float,
    coupling_cap: float,
) -> None:
    """Three parallel RC ladders with explicit inter-wire capacitors.

    Wires are named ``v`` (victim), ``a1`` and ``a2`` (aggressors); the
    driver outputs are ``v_drv``/``a1_drv``/``a2_drv`` and the far ends
    ``v_out``/``a1_out``/``a2_out``.  ``coupling_cap`` is the victim's
    *total* lateral capacitance (both sides), split evenly per side and
    per segment.
    """
    per_side = 0.5 * coupling_cap
    r_seg = wire_resistance / COUPLED_SEGMENTS
    cg_seg = ground_cap / COUPLED_SEGMENTS
    cc_seg = per_side / COUPLED_SEGMENTS

    def node_name(wire: str, index: int) -> str:
        if index == 0:
            return f"{wire}_drv"
        if index == COUPLED_SEGMENTS:
            return f"{wire}_out"
        return f"{wire}_n{index}"

    for wire in ("v", "a1", "a2"):
        for index in range(COUPLED_SEGMENTS):
            a = node_name(wire, index)
            b = node_name(wire, index + 1)
            circuit.add_capacitor(a, "0", 0.5 * cg_seg)
            circuit.add_resistor(a, b, r_seg)
            circuit.add_capacitor(b, "0", 0.5 * cg_seg)
    # Inter-wire coupling at matching positions along the lines.
    for index in range(1, COUPLED_SEGMENTS + 1):
        victim = node_name("v", index)
        circuit.add_capacitor(victim, node_name("a1", index), cc_seg)
        circuit.add_capacitor(victim, node_name("a2", index), cc_seg)


def build_coupled_stage_circuit(
    tech: TechnologyParameters,
    driver_size: float,
    wire_resistance: float,
    ground_cap: float,
    coupling_cap: float,
    load_cap: float,
    input_slew: float,
    rising_input: bool,
    activity: AggressorActivity,
) -> Tuple[Circuit, float, SettleRule]:
    """The three-line stage of :func:`simulate_coupled_stage`, its
    initial stop time in seconds, and the rule under which the victim
    output ``v_out`` has settled: within 2% of ``vdd`` of its rail once
    every input ramp is over."""
    vdd = tech.vdd
    wn, wp = tech.inverter_widths(driver_size)
    circuit = Circuit("coupled_stage")
    circuit.add_supply("vdd", vdd)

    start = 0.1 * input_slew + 1e-12
    if rising_input:
        victim_source = ramp(0.0, vdd, start, input_slew)
    else:
        victim_source = ramp(vdd, 0.0, start, input_slew)
    circuit.add_voltage_source("v_in", victim_source)

    if activity is AggressorActivity.OPPOSITE:
        aggressor_source = (ramp(vdd, 0.0, start, input_slew)
                            if rising_input
                            else ramp(0.0, vdd, start, input_slew))
    elif activity is AggressorActivity.SAME:
        aggressor_source = victim_source
    else:  # QUIET: hold the input so the aggressor outputs stay still.
        level = 0.0 if rising_input else vdd
        aggressor_source = ramp(level, level, start, input_slew)
    circuit.add_voltage_source("a1_in", aggressor_source)
    circuit.add_voltage_source("a2_in", aggressor_source)

    for wire in ("v", "a1", "a2"):
        circuit.add_inverter(f"{wire}_in", f"{wire}_drv", "vdd",
                             tech.nmos, tech.pmos, wn, wp, vdd)
        circuit.add_capacitor(f"{wire}_out", "0", load_cap)
    _add_coupled_ladders(circuit, wire_resistance, ground_cap,
                         coupling_cap)

    elmore = (tech.drive_resistance(wn)
              * (ground_cap + 2.0 * coupling_cap + load_cap)
              + wire_resistance * (0.5 * ground_cap + load_cap))
    stop_time = start + input_slew + 10.0 * elmore + 20e-12
    settle = SettleRule("v_out", 0.0 if rising_input else vdd, 0.02 * vdd,
                        start + input_slew)
    return circuit, stop_time, settle


def simulate_coupled_stage(
    tech: TechnologyParameters,
    driver_size: float,
    wire_resistance: float,
    ground_cap: float,
    coupling_cap: float,
    load_cap: float,
    input_slew: float,
    rising_input: bool,
    activity: AggressorActivity,
) -> CoupledStageResult:
    """One repeater stage with both neighbours simulated explicitly.

    All three lines get identical drivers and loads; the aggressors'
    inputs ramp according to ``activity``, aligned with the victim's
    input transition (the worst-case alignment for OPPOSITE).  The
    simulation stops where the victim output settles.
    """
    circuit, stop_time, settle = build_coupled_stage_circuit(
        tech, driver_size, wire_resistance, ground_cap, coupling_cap,
        load_cap, input_slew, rising_input, activity)
    result = simulate_transient(circuit, stop_time,
                                record=["v_in", "v_out"], settle=settle)
    out_wave = result.waveform("v_out")
    return CoupledStageResult(
        delay=measure_delay(result.waveform("v_in"), out_wave, 0.0,
                            tech.vdd),
        output_slew=measure_slew(out_wave, 0.0, tech.vdd),
        activity=activity,
    )


def crosstalk_delay_bracket(
    tech: TechnologyParameters,
    driver_size: float,
    wire_resistance: float,
    ground_cap: float,
    coupling_cap: float,
    load_cap: float,
    input_slew: float,
) -> Tuple[CoupledStageResult, CoupledStageResult, CoupledStageResult]:
    """(best, quiet, worst) explicit-aggressor delays for one stage.

    ``driver_size`` is a dimensionless multiple of the minimum
    inverter; resistances are ohms, capacitances farads, and
    ``input_slew`` seconds.
    """
    common = (tech, driver_size, wire_resistance, ground_cap,
              coupling_cap, load_cap, input_slew, True)
    best = simulate_coupled_stage(*common, AggressorActivity.SAME)
    quiet = simulate_coupled_stage(*common, AggressorActivity.QUIET)
    worst = simulate_coupled_stage(*common, AggressorActivity.OPPOSITE)
    return best, quiet, worst


def effective_miller_factor(
    quiet_delay: float,
    scenario_delay: float,
    worst_delay: float,
) -> float:
    """Back out the Miller factor a scenario corresponds to.

    Interpolates the scenario delay between the quiet (factor 1) and
    worst-case two-sided (factor ~2) anchors; staggered/same-direction
    switching lands near 0.  Used by the crosstalk validation to check
    that the configured Miller constants are physically placed.
    """
    span = worst_delay - quiet_delay
    if span <= 0:
        raise ValueError("worst-case delay must exceed quiet delay")
    return 1.0 + (scenario_delay - quiet_delay) / span
