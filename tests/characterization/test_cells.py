"""Repeater cell construction."""

import pytest

from repro.characterization.cells import (
    BUFFER_STAGE_RATIO,
    RepeaterCell,
    RepeaterKind,
)
from repro.units import fF, ps


class TestGeometry:
    def test_inverter_widths(self, tech90):
        cell = RepeaterCell(tech90, RepeaterKind.INVERTER, 8.0)
        wn, wp = cell.output_stage_widths()
        assert wn == pytest.approx(8 * tech90.min_nmos_width)
        assert wp == pytest.approx(wn * tech90.pn_ratio)
        assert cell.input_stage_widths() == cell.output_stage_widths()

    def test_buffer_first_stage_smaller(self, tech90):
        cell = RepeaterCell(tech90, RepeaterKind.BUFFER, 16.0)
        wn_in, _ = cell.input_stage_widths()
        wn_out, _ = cell.output_stage_widths()
        assert wn_in == pytest.approx(wn_out / BUFFER_STAGE_RATIO)

    def test_buffer_first_stage_floors_at_one(self, tech90):
        cell = RepeaterCell(tech90, RepeaterKind.BUFFER, 2.0)
        wn_in, _ = cell.input_stage_widths()
        assert wn_in == pytest.approx(tech90.min_nmos_width)

    def test_size_validation(self, tech90):
        with pytest.raises(ValueError):
            RepeaterCell(tech90, RepeaterKind.INVERTER, 0.0)

    def test_total_device_width(self, tech90):
        inverter = RepeaterCell(tech90, RepeaterKind.INVERTER, 8.0)
        buffer_ = RepeaterCell(tech90, RepeaterKind.BUFFER, 8.0)
        assert buffer_.total_device_width() > \
            inverter.total_device_width()


class TestElectrical:
    def test_input_cap_proportional_to_size(self, tech90):
        small = RepeaterCell(tech90, RepeaterKind.INVERTER, 4.0)
        large = RepeaterCell(tech90, RepeaterKind.INVERTER, 16.0)
        assert large.input_capacitance() == pytest.approx(
            4 * small.input_capacitance())

    def test_buffer_input_cap_smaller_than_inverter(self, tech90):
        inverter = RepeaterCell(tech90, RepeaterKind.INVERTER, 16.0)
        buffer_ = RepeaterCell(tech90, RepeaterKind.BUFFER, 16.0)
        assert buffer_.input_capacitance() < inverter.input_capacitance()

    def test_leakage_power_positive_and_scales(self, tech90):
        small = RepeaterCell(tech90, RepeaterKind.INVERTER, 4.0)
        large = RepeaterCell(tech90, RepeaterKind.INVERTER, 16.0)
        assert small.leakage_power() > 0
        assert large.leakage_power() == pytest.approx(
            4 * small.leakage_power(), rel=1e-6)


class TestLayoutArea:
    def test_area_grows_with_size(self, tech90):
        areas = [RepeaterCell(tech90, RepeaterKind.INVERTER,
                              size).layout_area()
                 for size in (4.0, 16.0, 64.0)]
        assert areas[0] < areas[1] < areas[2]

    def test_area_roughly_linear_at_large_sizes(self, tech90):
        a32 = RepeaterCell(tech90, RepeaterKind.INVERTER,
                           32.0).layout_area()
        a64 = RepeaterCell(tech90, RepeaterKind.INVERTER,
                           64.0).layout_area()
        assert a64 / a32 == pytest.approx(2.0, rel=0.2)

    def test_minimum_one_finger(self, tech90):
        # Even a tiny cell occupies one finger plus pitch overhead.
        area = RepeaterCell(tech90, RepeaterKind.INVERTER,
                            1.0).layout_area()
        minimum = tech90.row_height * 2 * tech90.contact_pitch
        assert area >= minimum


class TestTestCircuits:
    def test_inverter_test_circuit_shape(self, tech90):
        cell = RepeaterCell(tech90, RepeaterKind.INVERTER, 8.0)
        circuit, stop_time, settle = cell.build_test_circuit(
            ps(100), fF(20), rising_input=True)
        assert len(circuit.mosfets) == 2
        assert stop_time > ps(100)
        assert circuit.has_node("out")
        # A rising input makes the inverter's output fall to ground.
        assert (settle.node, settle.target) == ("out", 0.0)
        assert settle.tolerance == 0.02 * tech90.vdd
        assert ps(100) < settle.quiet_time < stop_time

    def test_buffer_test_circuit_has_two_stages(self, tech90):
        cell = RepeaterCell(tech90, RepeaterKind.BUFFER, 8.0)
        circuit, _, settle = cell.build_test_circuit(ps(100), fF(20), True)
        assert len(circuit.mosfets) == 4
        assert circuit.has_node("mid")
        assert (settle.node, settle.target) == ("out", tech90.vdd)

    def test_test_circuit_validation(self, tech90):
        cell = RepeaterCell(tech90, RepeaterKind.INVERTER, 8.0)
        with pytest.raises(ValueError):
            cell.build_test_circuit(0.0, fF(1), True)
        with pytest.raises(ValueError):
            cell.build_test_circuit(ps(10), -fF(1), True)

    def test_leakage_circuit(self, tech90):
        cell = RepeaterCell(tech90, RepeaterKind.INVERTER, 8.0)
        circuit = cell.build_leakage_circuit(input_high=True)
        assert len(circuit.voltage_sources) == 2
        assert len(circuit.mosfets) == 2
