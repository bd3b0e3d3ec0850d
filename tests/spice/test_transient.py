"""Transient analysis against closed-form references."""

import math

import numpy as np
import pytest

from repro.spice import Circuit, ramp, simulate_transient, step
from repro.spice.elements import constant
from repro.units import ps, fF, ns


class TestLinearCircuits:
    def test_rc_step_response_matches_analytic(self):
        # Single-pole RC: v(t) = 1 - exp(-(t - t0)/RC), tau = 100 ps.
        # The step fires after t = 0 so the DC start state is 0 V.
        r, c = 1000.0, 100e-15
        t0 = 0.5 * r * c
        circuit = Circuit()
        circuit.add_voltage_source("in", step(1.0, at=t0))
        circuit.add_resistor("in", "out", r)
        circuit.add_capacitor("out", "0", c)
        result = simulate_transient(circuit, 6 * r * c,
                                    time_step=r * c / 400)
        wave = result.waveform("out")
        tau_measured = wave.crossing_time(1.0 - math.exp(-1.0)) - t0
        assert tau_measured == pytest.approx(r * c, rel=0.02)

    def test_resistive_divider_dc(self):
        circuit = Circuit()
        circuit.add_supply("vdd", 1.0)
        circuit.add_resistor("vdd", "mid", 1000.0)
        circuit.add_resistor("mid", "0", 3000.0)
        result = simulate_transient(circuit, ps(100))
        assert result.final_voltage("mid") == pytest.approx(0.75,
                                                            rel=1e-3)

    def test_distributed_line_elmore(self):
        # 50% delay of a distributed RC line under a step: ~0.38 RC.
        r, c = 2000.0, 150e-15
        t0 = 0.1 * r * c
        circuit = Circuit()
        circuit.add_voltage_source("in", step(1.0, at=t0))
        circuit.add_rc_ladder("in", "out", r, c, segments=25)
        result = simulate_transient(circuit, 5 * r * c, record=["out"])
        t50 = result.waveform("out").crossing_time(0.5) - t0
        assert t50 == pytest.approx(0.38 * r * c, rel=0.05)

    def test_current_source_into_capacitor(self):
        # I = C dV/dt: 1 uA into 1 fF ramps 1 V per ns.  A resistor to
        # ground keeps the DC start state well-defined; its effect over
        # one nanosecond is a small exponential correction.
        r, c, i = 1e9, 1e-15, 1e-6
        circuit = Circuit()
        circuit.add_current_source("out",
                                   lambda t: i if t > 0 else 0.0)
        circuit.add_capacitor("out", "0", c)
        circuit.add_resistor("out", "0", r)
        result = simulate_transient(circuit, ns(1), record=["out"])
        # Ideal ramp would reach 1.0 V; the bleed resistor gives
        # i*r*(1 - exp(-t/rc)) ~ 0.9995 V.
        expected = i * r * (1.0 - math.exp(-1e-9 / (r * c)))
        assert result.final_voltage("out") == pytest.approx(expected,
                                                            rel=0.02)

    def test_charge_conservation_between_capacitors(self):
        # A charged capacitor sharing into an equal uncharged one
        # through a resistor settles at half the initial voltage.
        circuit = Circuit()
        circuit.add_voltage_source("a", lambda t: 1.0 if t < ps(50)
                                    else 0.0)
        # Drive node 'b' to 1 V, then watch 'c' follow through R.
        circuit2 = Circuit()
        circuit2.add_voltage_source("in", step(1.0))
        circuit2.add_resistor("in", "x", 100.0)
        circuit2.add_capacitor("x", "0", fF(10))
        circuit2.add_resistor("x", "y", 100.0)
        circuit2.add_capacitor("y", "0", fF(10))
        result = simulate_transient(circuit2, ns(1))
        assert result.final_voltage("x") == pytest.approx(1.0, abs=0.01)
        assert result.final_voltage("y") == pytest.approx(1.0, abs=0.01)


class TestNonlinearCircuits:
    def test_inverter_static_levels(self, tech90):
        wn, wp = tech90.inverter_widths(4.0)
        circuit = Circuit()
        circuit.add_supply("vdd", tech90.vdd)
        circuit.add_voltage_source("in", constant(0.0))
        circuit.add_inverter("in", "out", "vdd", tech90.nmos,
                             tech90.pmos, wn, wp, tech90.vdd)
        circuit.add_capacitor("out", "0", fF(5))
        result = simulate_transient(circuit, ps(300))
        assert result.final_voltage("out") == pytest.approx(
            tech90.vdd, abs=0.02)

    def test_inverter_switches(self, tech90):
        wn, wp = tech90.inverter_widths(8.0)
        circuit = Circuit()
        circuit.add_supply("vdd", tech90.vdd)
        circuit.add_voltage_source("in",
                                   ramp(0.0, tech90.vdd, ps(20), ps(50)))
        circuit.add_inverter("in", "out", "vdd", tech90.nmos,
                             tech90.pmos, wn, wp, tech90.vdd)
        circuit.add_capacitor("out", "0", fF(10))
        result = simulate_transient(circuit, ps(500))
        out = result.waveform("out")
        assert out.initial == pytest.approx(tech90.vdd, abs=0.02)
        assert out.final == pytest.approx(0.0, abs=0.02)

    def test_delay_increases_with_load(self, tech90):
        def delay_with_load(load):
            wn, wp = tech90.inverter_widths(8.0)
            circuit = Circuit()
            circuit.add_supply("vdd", tech90.vdd)
            circuit.add_voltage_source(
                "in", ramp(0.0, tech90.vdd, ps(20), ps(60)))
            circuit.add_inverter("in", "out", "vdd", tech90.nmos,
                                 tech90.pmos, wn, wp, tech90.vdd)
            circuit.add_capacitor("out", "0", load)
            result = simulate_transient(circuit, ps(2000))
            t_in = result.waveform("in").midpoint_time(0, tech90.vdd)
            t_out = result.waveform("out").midpoint_time(0, tech90.vdd)
            return t_out - t_in

        delays = [delay_with_load(fF(c)) for c in (5, 20, 80)]
        assert delays[0] < delays[1] < delays[2]


class TestApiContract:
    def test_requires_positive_stop_time(self):
        circuit = Circuit()
        circuit.add_resistor("a", "0", 1.0)
        with pytest.raises(ValueError):
            simulate_transient(circuit, 0.0)

    def test_time_step_validation(self):
        circuit = Circuit()
        circuit.add_resistor("a", "0", 1.0)
        with pytest.raises(ValueError):
            simulate_transient(circuit, 1e-9, time_step=2e-9)

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_newton_iteration_limit_must_be_positive(self, iterations):
        circuit = Circuit()
        circuit.add_voltage_source("in", step(1.0))
        circuit.add_resistor("in", "out", 100.0)
        circuit.add_capacitor("out", "0", fF(1))
        with pytest.raises(ValueError, match="iteration limit"):
            simulate_transient(circuit, ps(100),
                               max_newton_iterations=iterations)

    @pytest.mark.parametrize("tolerance", [0.0, -1e-6, float("nan")])
    def test_newton_tolerance_must_be_positive(self, tolerance):
        circuit = Circuit()
        circuit.add_voltage_source("in", step(1.0))
        circuit.add_resistor("in", "out", 100.0)
        circuit.add_capacitor("out", "0", fF(1))
        with pytest.raises(ValueError, match="newton_tol"):
            simulate_transient(circuit, ps(100), newton_tol=tolerance)

    def test_record_subset(self):
        circuit = Circuit()
        circuit.add_voltage_source("in", step(1.0))
        circuit.add_resistor("in", "out", 100.0)
        circuit.add_capacitor("out", "0", fF(1))
        result = simulate_transient(circuit, ps(100), record=["out"])
        assert set(result.voltages) == {"out"}
        with pytest.raises(KeyError):
            result.waveform("in")

    def test_fully_driven_circuit_is_trivially_solved(self):
        circuit = Circuit()
        circuit.add_supply("vdd", 1.0)
        circuit.add_resistor("vdd", "0", 100.0)
        # 'vdd' is the only non-ground node and it is driven: the
        # solver has nothing to do but must not fail.
        result = simulate_transient(circuit, ps(10))
        assert result.final_voltage("vdd") == pytest.approx(1.0)

    def test_times_cover_stop_time(self):
        circuit = Circuit()
        circuit.add_voltage_source("in", step(1.0))
        circuit.add_resistor("in", "out", 100.0)
        circuit.add_capacitor("out", "0", fF(1))
        result = simulate_transient(circuit, ps(100), time_step=ps(7))
        assert result.times[0] == 0.0
        assert result.times[-1] >= ps(100)
        assert np.all(np.diff(result.times) > 0)
