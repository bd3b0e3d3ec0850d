"""TechnologyParameters / DeviceParameters / WireLayerGeometry."""

import dataclasses

import pytest

from repro.tech.parameters import (
    DeviceParameters,
    WireLayerGeometry,
    validate_monotonic_scaling,
)
from repro.tech.nodes import get_technology
from repro.units import nm, um


def make_device(**overrides):
    base = dict(
        polarity=+1, vth=0.3, alpha=1.3, k_sat=1000.0, k_lin=0.45,
        channel_length_modulation=0.15, c_gate=1e-9, c_drain=0.5e-9,
        i_leak=0.1, i_gate_leak=0.05,
    )
    base.update(overrides)
    return DeviceParameters(**base)


class TestDeviceParameters:
    def test_polarity_validation(self):
        with pytest.raises(ValueError, match="polarity"):
            make_device(polarity=0)

    def test_vth_must_be_positive_magnitude(self):
        with pytest.raises(ValueError, match="vth"):
            make_device(vth=-0.3)

    def test_alpha_range(self):
        with pytest.raises(ValueError, match="alpha"):
            make_device(alpha=2.5)
        with pytest.raises(ValueError, match="alpha"):
            make_device(alpha=0.9)

    def test_positive_parameters(self):
        for name in ("k_sat", "k_lin", "c_gate", "c_drain"):
            with pytest.raises(ValueError, match=name):
                make_device(**{name: 0.0})

    def test_is_nmos(self):
        assert make_device(polarity=+1).is_nmos
        assert not make_device(polarity=-1).is_nmos

    def test_saturation_current_scales_with_width(self):
        device = make_device()
        i1 = device.saturation_current(um(1), 0.7)
        i2 = device.saturation_current(um(2), 0.7)
        assert i2 == pytest.approx(2 * i1)

    def test_saturation_current_zero_below_threshold(self):
        assert make_device().saturation_current(um(1), -0.1) == 0.0

    def test_leakage_power_linear_in_width(self):
        device = make_device()
        assert device.leakage_power(um(2), 1.0) == pytest.approx(
            2 * device.leakage_power(um(1), 1.0))


class TestWireLayerGeometry:
    def make(self, **overrides):
        base = dict(name="global", width=um(0.4), spacing=um(0.4),
                    thickness=um(0.85), ild_thickness=um(0.65),
                    dielectric_constant=3.3, barrier_thickness=nm(12))
        base.update(overrides)
        return WireLayerGeometry(**base)

    def test_pitch_and_aspect_ratio(self):
        layer = self.make()
        assert layer.pitch == pytest.approx(um(0.8))
        assert layer.aspect_ratio == pytest.approx(0.85 / 0.4)

    def test_positive_dimensions_required(self):
        with pytest.raises(ValueError):
            self.make(width=0.0)
        with pytest.raises(ValueError):
            self.make(dielectric_constant=-1.0)

    def test_barrier_cannot_consume_wire(self):
        with pytest.raises(ValueError, match="barrier"):
            self.make(width=nm(20), barrier_thickness=nm(10))

    def test_scaled_copies_geometry(self):
        layer = self.make()
        wide = layer.scaled(width_multiple=2.0, spacing_multiple=3.0)
        assert wide.width == pytest.approx(2 * layer.width)
        assert wide.spacing == pytest.approx(3 * layer.spacing)
        assert wide.thickness == layer.thickness


class TestTechnologyParameters:
    def test_requires_global_layer(self, tech90):
        with pytest.raises(ValueError, match="global"):
            dataclasses.replace(tech90, wire_layers={})

    def test_flavours_must_not_be_swapped(self, tech90):
        with pytest.raises(ValueError, match="swapped"):
            dataclasses.replace(tech90, nmos=tech90.pmos,
                                pmos=tech90.nmos)

    def test_inverter_widths_respect_pn_ratio(self, tech90):
        wn, wp = tech90.inverter_widths(4.0)
        assert wp == pytest.approx(wn * tech90.pn_ratio)
        assert wn == pytest.approx(4.0 * tech90.min_nmos_width)

    def test_inverter_widths_reject_nonpositive_size(self, tech90):
        with pytest.raises(ValueError):
            tech90.inverter_widths(0.0)

    def test_clock_period(self, tech90):
        assert tech90.clock_period() == pytest.approx(
            1.0 / tech90.clock_frequency)

    def test_uncalibrated_variant_is_optimistic(self, tech90):
        variant = tech90.uncalibrated_variant()
        assert not variant.calibrated
        assert "uncalibrated" in variant.name
        original = tech90.global_layer
        changed = variant.global_layer
        assert changed.dielectric_constant < original.dielectric_constant
        assert changed.barrier_thickness == 0.0


class TestMonotonicScaling:
    def test_detects_ordering(self):
        nodes = [get_technology(n) for n in ("90nm", "65nm", "45nm")]
        assert validate_monotonic_scaling(nodes, "feature_size") is None

    def test_reports_violation(self):
        nodes = [get_technology(n) for n in ("45nm", "90nm")]
        message = validate_monotonic_scaling(nodes, "feature_size")
        assert message is not None
        assert "feature_size" in message

    def test_increasing_direction(self):
        nodes = [get_technology(n) for n in ("90nm", "65nm")]
        assert validate_monotonic_scaling(
            nodes, "feature_size", decreasing=False) is not None
