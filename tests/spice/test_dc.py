"""DC operating point and supply-current measurement."""

import pytest

from repro.spice import Circuit, dc_operating_point
from repro.spice.dc import supply_current


class TestOperatingPoint:
    def test_divider(self):
        circuit = Circuit()
        circuit.add_supply("vdd", 1.2)
        circuit.add_resistor("vdd", "mid", 2000.0)
        circuit.add_resistor("mid", "0", 1000.0)
        solution = dc_operating_point(circuit)
        assert solution["mid"] == pytest.approx(0.4, rel=1e-6)
        assert solution["vdd"] == pytest.approx(1.2)

    def test_inverter_output_high(self, tech90):
        wn, wp = tech90.inverter_widths(4.0)
        circuit = Circuit()
        circuit.add_supply("vdd", tech90.vdd)
        circuit.add_supply("in", 0.0)
        circuit.add_inverter("in", "out", "vdd", tech90.nmos,
                             tech90.pmos, wn, wp, tech90.vdd)
        solution = dc_operating_point(circuit)
        # Output pulls to vdd minus a tiny leakage-induced droop.
        assert solution["out"] == pytest.approx(tech90.vdd, abs=0.02)

    def test_inverter_output_low(self, tech90):
        wn, wp = tech90.inverter_widths(4.0)
        circuit = Circuit()
        circuit.add_supply("vdd", tech90.vdd)
        circuit.add_supply("in", tech90.vdd)
        circuit.add_inverter("in", "out", "vdd", tech90.nmos,
                             tech90.pmos, wn, wp, tech90.vdd)
        solution = dc_operating_point(circuit)
        assert solution["out"] == pytest.approx(0.0, abs=0.02)


class TestSupplyCurrent:
    def test_resistive_load_current(self):
        circuit = Circuit()
        circuit.add_supply("vdd", 1.0)
        circuit.add_resistor("vdd", "0", 1000.0)
        current = supply_current(circuit, "vdd")
        assert current == pytest.approx(1e-3, rel=1e-6)

    def test_ground_rejected(self):
        circuit = Circuit()
        circuit.add_supply("vdd", 1.0)
        circuit.add_resistor("vdd", "0", 1000.0)
        with pytest.raises(ValueError):
            supply_current(circuit, "gnd")

    def test_inverter_leakage_scales_with_width(self, tech90):
        def leakage(size):
            wn, wp = tech90.inverter_widths(size)
            circuit = Circuit()
            circuit.add_supply("vdd", tech90.vdd)
            circuit.add_supply("in", 0.0)
            circuit.add_inverter("in", "out", "vdd", tech90.nmos,
                                 tech90.pmos, wn, wp, tech90.vdd)
            return abs(supply_current(circuit, "vdd"))

        small = leakage(4.0)
        large = leakage(16.0)
        assert small > 0
        # Subthreshold leakage is linear in device width.
        assert large == pytest.approx(4 * small, rel=0.1)

    def test_off_inverter_current_matches_nmos_spec(self, tech90):
        # Input low: the off nMOS sets the rail current.
        wn, wp = tech90.inverter_widths(8.0)
        circuit = Circuit()
        circuit.add_supply("vdd", tech90.vdd)
        circuit.add_supply("in", 0.0)
        circuit.add_inverter("in", "out", "vdd", tech90.nmos,
                             tech90.pmos, wn, wp, tech90.vdd)
        current = abs(supply_current(circuit, "vdd"))
        expected = tech90.nmos.i_leak * wn
        assert current == pytest.approx(expected, rel=0.15)
