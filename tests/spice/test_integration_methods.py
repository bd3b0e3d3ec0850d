"""Backward-Euler integration: accuracy order and stability."""


import math

import pytest

from repro.spice import Circuit, ramp, simulate_transient, step
from repro.units import fF, ps


TAU = 1000.0 * 100e-15
RAMP = 2 * TAU
STOP = 6 * TAU


def rc_circuit():
    """RC driven by a *smooth* ramp so the source sampling does not
    dominate the integration error (a discontinuous step degrades every
    fixed-step method to first order)."""
    circuit = Circuit()
    circuit.add_voltage_source("in", ramp(0.0, 1.0, 0.0, RAMP))
    circuit.add_resistor("in", "out", 1000.0)
    circuit.add_capacitor("out", "0", fF(100))
    return circuit


def rc_step_circuit():
    circuit = Circuit()
    circuit.add_voltage_source("in", step(1.0, at=ps(10)))
    circuit.add_resistor("in", "out", 1000.0)
    circuit.add_capacitor("out", "0", fF(100))
    return circuit


def exact_response(t):
    """Closed-form output (volts) of :func:`rc_circuit` at ``t``
    seconds: the RC's response to a 0-1 V ramp over ``RAMP``."""
    if t <= RAMP:
        return (t - TAU * (1.0 - math.exp(-t / TAU))) / RAMP
    at_ramp_end = 1.0 - TAU / RAMP * (1.0 - math.exp(-RAMP / TAU))
    return 1.0 - (1.0 - at_ramp_end) * math.exp(-(t - RAMP) / TAU)


class TestAccuracyOrder:
    def measurement_error(self, steps, t_probe):
        result = simulate_transient(rc_circuit(), STOP,
                                    time_step=STOP / steps)
        return abs(result.waveform("out").value_at(t_probe)
                   - exact_response(t_probe))

    def test_backward_euler_is_first_order(self):
        t_probe = 3 * TAU
        coarse = self.measurement_error(50, t_probe)
        fine = self.measurement_error(200, t_probe)
        # A 4x smaller step gives a ~4x smaller error (second order
        # would give ~16x).
        assert coarse / 5.0 < fine < coarse / 3.0
        assert fine < 2e-3


class TestValidation:
    def test_discontinuous_source_stays_stable(self):
        # A hard step degrades accuracy but must not break stability.
        result = simulate_transient(rc_step_circuit(), ps(800))
        assert result.final_voltage("out") == pytest.approx(1.0, abs=0.01)
