"""Buffered-line parasitic extraction."""

import pytest

from repro.signoff.extraction import (
    WireSegmentParasitics,
    extract_buffered_line,
)
from repro.tech import DesignStyle, WireConfiguration
from repro.units import mm


class TestWireSegmentParasitics:
    def test_total_cap_miller(self):
        segment = WireSegmentParasitics(
            resistance=100.0, ground_cap=10e-15, coupling_cap=20e-15,
            length=mm(1))
        assert segment.total_cap(0.0) == pytest.approx(10e-15)
        assert segment.total_cap(1.9) == pytest.approx(48e-15)


class TestExtraction:
    def test_uniform_segmentation(self, tech90, swss90):
        line = extract_buffered_line(tech90, swss90, mm(4), 4, 16.0)
        assert line.num_repeaters == 4
        lengths = [stage.wire.length for stage in line.stages]
        assert all(length == pytest.approx(mm(1)) for length in lengths)

    def test_totals_match_per_meter_values(self, tech90, swss90):
        line = extract_buffered_line(tech90, swss90, mm(5), 5, 16.0)
        assert line.total_wire_resistance() == pytest.approx(
            swss90.resistance_per_meter() * mm(5), rel=1e-9)
        expected_ground = swss90.ground_capacitance_per_meter() * mm(5)
        assert line.total_wire_cap(0.0) == pytest.approx(expected_ground,
                                                         rel=1e-9)

    def test_repeater_input_cap_from_devices(self, tech90, swss90):
        line = extract_buffered_line(tech90, swss90, mm(2), 2, 8.0)
        wn, wp = tech90.inverter_widths(8.0)
        expected = tech90.nmos.c_gate * wn + tech90.pmos.c_gate * wp
        assert line.repeater_input_cap(0) == pytest.approx(expected)

    def test_stage_load_is_next_gate_then_receiver(self, tech90, swss90):
        line = extract_buffered_line(tech90, swss90, mm(3), 3, 8.0,
                                     receiver_size=2.0)
        assert line.stage_load_cap(0) == pytest.approx(
            line.repeater_input_cap(1))
        wn, wp = tech90.inverter_widths(2.0)
        receiver = tech90.nmos.c_gate * wn + tech90.pmos.c_gate * wp
        assert line.stage_load_cap(2) == pytest.approx(receiver)

    def test_receiver_defaults_to_repeater_size(self, tech90, swss90):
        line = extract_buffered_line(tech90, swss90, mm(1), 1, 12.0)
        assert line.receiver_cap == pytest.approx(
            line.repeater_input_cap(0))

    def test_validation(self, tech90, swss90):
        with pytest.raises(ValueError):
            extract_buffered_line(tech90, swss90, 0.0, 1, 8.0)
        with pytest.raises(ValueError):
            extract_buffered_line(tech90, swss90, mm(1), 0, 8.0)
        with pytest.raises(ValueError):
            extract_buffered_line(tech90, swss90, mm(1), 1, 0.0)


class TestConfigurationParasitics:
    @pytest.mark.parametrize("style", list(DesignStyle),
                             ids=lambda style: style.value)
    def test_segments_follow_the_configuration(self, tech90, style):
        config = WireConfiguration.for_style(tech90.global_layer, style)
        line = extract_buffered_line(tech90, config, mm(6), 3, 16.0)
        segment = line.stages[0].wire
        assert segment.resistance == pytest.approx(
            config.resistance_per_meter() * mm(2), rel=1e-12)
        assert segment.ground_cap == pytest.approx(
            config.ground_capacitance_per_meter() * mm(2), rel=1e-12)
        assert segment.coupling_cap == pytest.approx(
            config.coupling_capacitance_per_meter() * mm(2), rel=1e-12)

    @pytest.mark.parametrize("num_repeaters", [1, 3, 7])
    def test_totals_do_not_depend_on_the_repeater_count(
            self, tech90, swss90, num_repeaters):
        line = extract_buffered_line(tech90, swss90, mm(7),
                                     num_repeaters, 16.0)
        assert line.num_repeaters == num_repeaters
        assert line.total_wire_resistance() == pytest.approx(
            swss90.resistance_per_meter() * mm(7), rel=1e-12)
        assert line.total_wire_cap(1.0) == pytest.approx(
            (swss90.ground_capacitance_per_meter()
             + swss90.coupling_capacitance_per_meter()) * mm(7),
            rel=1e-12)

    def test_total_wire_cap_is_linear_in_the_miller_factor(
            self, tech90, swss90):
        line = extract_buffered_line(tech90, swss90, mm(4), 4, 16.0)
        coupling = swss90.coupling_capacitance_per_meter() * mm(4)
        for miller in (0.0, 1.0, 1.9, 2.0):
            assert line.total_wire_cap(miller) == pytest.approx(
                line.total_wire_cap(0.0) + miller * coupling, rel=1e-12)

    def test_every_stage_is_driven_at_the_repeater_size(
            self, tech90, swss90):
        line = extract_buffered_line(tech90, swss90, mm(5), 5, 24.0,
                                     receiver_size=4.0)
        assert {stage.driver_size for stage in line.stages} == {24.0}
        caps = {line.repeater_input_cap(k) for k in range(5)}
        assert len(caps) == 1
        assert line.receiver_cap < caps.pop()
