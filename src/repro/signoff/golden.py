"""Golden buffered-line evaluation by nonlinear transient simulation.

This is the reference against which Table II measures model accuracy —
the role PrimeTime SI plays in the paper.  A buffered line is evaluated
stage by stage, the way a sign-off timer propagates timing:

1. The first repeater's input sees an ideal ramp with the requested
   input slew.
2. Each stage — a CMOS repeater driving its distributed-RC wire segment
   (lateral coupling folded in at the configured Miller factor) loaded
   by the next repeater's gate capacitance — is simulated with the full
   nonlinear device model.
3. The measured 50%–50% stage delay accumulates, and the slew measured
   at the far end of the wire becomes the next stage's input slew.
   Signal polarity alternates through the inverter chain.

A stage's simulation ends at the first step where its output has
settled (:class:`repro.spice.transient.SettleRule`): the delay and the
slew read first crossings, which all come before that step, so the
rest of the stop-time window would not change them.  A stage whose
stop-time estimate falls short is retried by the engine.

Uniform lines converge to a periodic steady state after a few stages
(the slew entering stage ``k`` equals the slew that entered stage
``k - 2``), so once two consecutive same-parity stages agree the
remaining stage delays are reused instead of re-simulated.  The paper's
15 mm lines have tens of repeaters; this shortcut makes the golden
evaluation tractable without changing its result.

Monte-Carlo draws perturb every stage, so nothing repeats; instead
:func:`simulate_stages` simulates the same stage of many draws
together, as lanes of one Newton loop, each lane measuring exactly
what :func:`simulate_stage` measures for it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.signoff.extraction import ExtractedLine
from repro.spice.netlist import Circuit
from repro.spice.elements import ramp
from repro.spice.transient import (
    SettleRule,
    TransientResult,
    simulate_lanes,
    simulate_transient,
)
from repro.spice.waveform import measure_delay, measure_slew
from repro.tech.parameters import TechnologyParameters

#: Lumped RC sections per wire segment.  Eight sections keep the
#: distributed-line error well under 1%.
SEGMENTS_PER_WIRE = 8

#: Relative slew change below which the stage cascade is declared
#: periodic.
SLEW_CONVERGENCE = 0.01


@dataclass(frozen=True)
class StageTiming:
    """Measured timing of one repeater stage."""

    delay: float
    output_slew: float
    input_slew: float
    rising_input: bool


@dataclass(frozen=True)
class GoldenResult:
    """Golden evaluation of a full buffered line."""

    total_delay: float
    output_slew: float
    stage_timings: Tuple[StageTiming, ...]
    runtime_seconds: float

    @property
    def num_stages(self) -> int:
        return len(self.stage_timings)


def _build_stage_circuit(
    tech: TechnologyParameters,
    driver_size: float,
    wire_resistance: float,
    wire_capacitance: float,
    load_cap: float,
    input_slew: float,
    rising_input: bool,
) -> Tuple[Circuit, float, SettleRule]:
    """One repeater stage driving its wire; returns (circuit, stop
    time, settle rule).

    The output has settled once it is within 2% of ``vdd`` of its rail
    (an inverter's output falls on a rising input) with the input ramp
    over: ``ramp`` holds its end value from ``start + input_slew`` on.
    """
    wn, wp = tech.inverter_widths(driver_size)
    vdd = tech.vdd

    circuit = Circuit("stage")
    circuit.add_supply("vdd", vdd)
    start = 0.1 * input_slew + 1e-12
    if rising_input:
        source = ramp(0.0, vdd, start, input_slew)
    else:
        source = ramp(vdd, 0.0, start, input_slew)
    circuit.add_voltage_source("in", source)
    circuit.add_inverter("in", "drv", "vdd", tech.nmos, tech.pmos,
                         wn, wp, vdd)
    circuit.add_rc_ladder("drv", "out", wire_resistance, wire_capacitance,
                          SEGMENTS_PER_WIRE)
    circuit.add_capacitor("out", "0", load_cap)

    # Stop-time estimate: input ramp plus a few Elmore delays of the
    # loaded stage, with generous margin.
    elmore = (tech.drive_resistance(wn) * (wire_capacitance + load_cap)
              + wire_resistance * (0.5 * wire_capacitance + load_cap))
    stop_time = start + input_slew + 8.0 * elmore + 20e-12
    settle = SettleRule("out", 0.0 if rising_input else vdd, 0.02 * vdd,
                        start + input_slew)
    return circuit, stop_time, settle


def _stage_timing(result: TransientResult, vdd: float,
                  input_slew: float, rising_input: bool) -> StageTiming:
    """The 50% delay and output slew measured on a settled stage."""
    out_wave = result.waveform("out")
    return StageTiming(
        delay=measure_delay(result.waveform("in"), out_wave, 0.0, vdd),
        output_slew=measure_slew(out_wave, 0.0, vdd),
        input_slew=input_slew,
        rising_input=rising_input,
    )


def simulate_stage(
    tech: TechnologyParameters,
    driver_size: float,
    wire_resistance: float,
    wire_capacitance: float,
    load_cap: float,
    input_slew: float,
    rising_input: bool,
) -> StageTiming:
    """Simulate one stage and measure its 50% delay and output slew.

    ``driver_size`` is a dimensionless multiple of the minimum
    inverter; the wire parasitics are ohms and farads and
    ``input_slew`` seconds.  The simulation stops where the output
    has settled; the engine retries a stage whose heuristic stop time
    falls short (long resistive wires can exceed it) and raises
    :class:`~repro.spice.transient.ConvergenceError` for one that
    never settles.
    """
    circuit, stop_time, settle = _build_stage_circuit(
        tech, driver_size, wire_resistance, wire_capacitance, load_cap,
        input_slew, rising_input)
    result = simulate_transient(circuit, stop_time, record=["in", "out"],
                                settle=settle)
    return _stage_timing(result, tech.vdd, input_slew, rising_input)


def simulate_stages(
    techs: Sequence[TechnologyParameters],
    driver_size: float,
    wire_resistance: float,
    wire_capacitance: float,
    load_cap: float,
    input_slews: Sequence[float],
    rising_input: bool,
) -> List[Union[StageTiming, Exception]]:
    """:func:`simulate_stage` for each ``(techs[k], input_slews[k])``,
    simulated together as lanes (:func:`repro.spice.transient.
    simulate_lanes`).

    The stages share the driver size, the wire and the load; each
    lane keeps its own stop time, step count, settle stop and settle
    retries, and measures exactly what :func:`simulate_stage` measures
    for it.  A lane that fails holds the exception
    :func:`simulate_stage` would raise for it.
    """
    circuits, stop_times, rules = zip(*(
        _build_stage_circuit(tech, driver_size, wire_resistance,
                             wire_capacitance, load_cap, slew, rising_input)
        for tech, slew in zip(techs, input_slews)))
    results = simulate_lanes(circuits, stop_times, record=["in", "out"],
                             settle=rules)
    return [result if isinstance(result, Exception)
            else _stage_timing(result, tech.vdd, slew, rising_input)
            for result, tech, slew in zip(results, techs, input_slews)]


def evaluate_buffered_line(
    line: ExtractedLine,
    input_slew: float,
    miller_factor: Optional[float] = None,
    use_periodicity: bool = True,
) -> GoldenResult:
    """Golden delay/slew of a buffered line (the Table II reference).

    Parameters
    ----------
    line:
        Extracted parasitics from
        :func:`~repro.signoff.extraction.extract_buffered_line`.
    input_slew:
        Transition time of the ramp at the first repeater input, in
        seconds (the paper uses 300 ps).
    miller_factor:
        Coupling amplification for the assumed neighbour switching;
        defaults to the line's wire-configuration delay Miller factor.
    use_periodicity:
        Reuse converged same-parity stage results on uniform lines.
    """
    if miller_factor is None:
        miller_factor = line.config.delay_miller

    started = time.perf_counter()
    timings: List[StageTiming] = []
    slew = input_slew
    rising = True
    # Per-parity memo of (input slew, timing) for periodicity reuse.
    parity_memo: "dict[int, StageTiming]" = {}
    converged_cycle: Optional[Tuple[StageTiming, StageTiming]] = None

    stage_count = line.num_repeaters
    for index in range(stage_count):
        stage = line.stages[index]
        # The periodic shortcut only applies to interior stages of a
        # uniform line (the last stage drives the receiver, whose load
        # can differ from a repeater's).
        reusable = (converged_cycle is not None
                    and index < stage_count - 1
                    and index > 0
                    and stage == line.stages[index - 1])
        if reusable:
            cycle_timing = converged_cycle[index % 2]
            timing = StageTiming(
                delay=cycle_timing.delay,
                output_slew=cycle_timing.output_slew,
                input_slew=slew,
                rising_input=rising,
            )
        else:
            timing = simulate_stage(
                line.tech,
                stage.driver_size,
                stage.wire.resistance,
                stage.wire.total_cap(miller_factor),
                line.stage_load_cap(index),
                slew,
                rising,
            )
            if use_periodicity:
                parity = index % 2
                previous = parity_memo.get(parity)
                if (previous is not None
                        and abs(previous.input_slew - slew)
                        <= SLEW_CONVERGENCE * max(slew, 1e-15)):
                    other = parity_memo.get(1 - parity)
                    if other is not None:
                        converged_cycle = ((timing, other) if parity == 0
                                           else (other, timing))
                parity_memo[parity] = timing
        timings.append(timing)
        slew = timing.output_slew
        rising = not rising

    runtime = time.perf_counter() - started
    return GoldenResult(
        total_delay=sum(t.delay for t in timings),
        output_slew=timings[-1].output_slew,
        stage_timings=tuple(timings),
        runtime_seconds=runtime,
    )
