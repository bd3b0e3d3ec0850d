"""Nonlinear circuit simulation substrate (the SPICE substitute).

The paper calibrates its predictive models against SPICE and validates
them against a sign-off timer.  Neither tool can ship with this
reproduction, so this package implements the minimum viable equivalent:

* :mod:`repro.spice.netlist` — circuit container with named nodes.
* :mod:`repro.spice.elements` — linear elements and sources.
* :mod:`repro.spice.mosfet` — Sakurai–Newton alpha-power MOSFET model.
* :mod:`repro.spice.transient` — MNA transient analysis (fixed-step
  backward-Euler integration, Newton iteration for the nonlinear
  devices, settle stop and retry).
* :mod:`repro.spice.dc` — DC operating point (leakage characterization).
* :mod:`repro.spice.waveform` — waveform measurements (delay, slew).

The simulator is deliberately small but real: it solves the nonlinear
circuit equations by Newton iteration on the modified-nodal-analysis
system, exactly the structure of a production SPICE engine, with the
device physics reduced to the alpha-power law that digital-delay
literature uses for hand analysis.
"""

from repro.spice.netlist import Circuit
from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    Resistor,
    VoltageSource,
    ramp,
    step,
)
from repro.spice.mosfet import Mosfet, MosfetOperatingPoint
from repro.spice.transient import TransientResult, simulate_transient
from repro.spice.dc import dc_operating_point
from repro.spice.waveform import Waveform, measure_delay, measure_slew

__all__ = [
    "Circuit",
    "Capacitor",
    "CurrentSource",
    "Resistor",
    "VoltageSource",
    "ramp",
    "step",
    "Mosfet",
    "MosfetOperatingPoint",
    "TransientResult",
    "simulate_transient",
    "dc_operating_point",
    "Waveform",
    "measure_delay",
    "measure_slew",
]
