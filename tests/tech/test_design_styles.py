"""Design styles and wire configurations."""

import pytest

from repro.tech import (
    DesignStyle,
    WireConfiguration,
    available_nodes,
    get_technology,
)
from repro.tech.design_styles import WORST_CASE_MILLER


class TestDesignStyle:
    def test_descriptions(self):
        for style in DesignStyle:
            assert style.description


class TestWireConfiguration:
    def test_swss_uses_worst_case_miller(self, tech90):
        config = WireConfiguration.for_style(tech90.global_layer,
                                             DesignStyle.SWSS)
        assert config.delay_miller == pytest.approx(WORST_CASE_MILLER)
        assert config.power_miller == pytest.approx(1.0)

    def test_shielded_miller_is_one(self, tech90):
        config = WireConfiguration.for_style(tech90.global_layer,
                                             DesignStyle.SHIELDED)
        assert config.delay_miller == pytest.approx(1.0)

    def test_shielding_is_deterministic_and_slower_than_staggered(
            self, tech90):
        shielded = WireConfiguration.for_style(tech90.global_layer,
                                               DesignStyle.SHIELDED)
        swss = WireConfiguration.for_style(tech90.global_layer,
                                           DesignStyle.SWSS)
        assert shielded.delay_miller < swss.delay_miller

    def test_double_spacing_reduces_coupling(self, tech90):
        swss = WireConfiguration.for_style(tech90.global_layer,
                                           DesignStyle.SWSS)
        double = WireConfiguration.for_style(tech90.global_layer,
                                             DesignStyle.DOUBLE_SPACING)
        assert (double.coupling_capacitance_per_meter()
                < swss.coupling_capacitance_per_meter())

    def test_shielded_pitch_doubles(self, tech90):
        swss = WireConfiguration.for_style(tech90.global_layer,
                                           DesignStyle.SWSS)
        shielded = WireConfiguration.for_style(tech90.global_layer,
                                               DesignStyle.SHIELDED)
        assert shielded.signal_pitch() == pytest.approx(
            2 * swss.signal_pitch())

    def test_staggered_zeroes_delay_miller_only(self, swss90):
        staggered = swss90.staggered()
        assert staggered.delay_miller == 0.0
        assert staggered.power_miller == swss90.power_miller
        assert (staggered.switched_capacitance_per_meter()
                == pytest.approx(swss90.switched_capacitance_per_meter()))

    def test_switched_capacitance_composition(self, swss90):
        expected = (swss90.ground_capacitance_per_meter()
                    + swss90.power_miller
                    * swss90.coupling_capacitance_per_meter())
        assert swss90.switched_capacitance_per_meter() == \
            pytest.approx(expected)

    def test_resistance_honors_correction_flags(self, tech90):
        full = WireConfiguration.for_style(tech90.global_layer,
                                           DesignStyle.SWSS)
        optimistic = WireConfiguration(
            layer=tech90.global_layer, include_scattering=False,
            include_barrier=False)
        assert full.resistance_per_meter() > \
            optimistic.resistance_per_meter()


@pytest.mark.parametrize("node", available_nodes())
def test_style_relations_hold_at_every_node(node):
    layer = get_technology(node).global_layer
    swss, shielded, double = (
        WireConfiguration.for_style(layer, style)
        for style in (DesignStyle.SWSS, DesignStyle.SHIELDED,
                      DesignStyle.DOUBLE_SPACING))
    # Spacing never changes the wire itself.
    assert (swss.resistance_per_meter() == shielded.resistance_per_meter()
            == double.resistance_per_meter())
    # Shields sit on the signal pitch: the same capacitances, twice
    # the tracks.
    assert (shielded.ground_capacitance_per_meter()
            == swss.ground_capacitance_per_meter())
    assert (shielded.coupling_capacitance_per_meter()
            == swss.coupling_capacitance_per_meter())
    assert shielded.signal_pitch() == pytest.approx(
        2 * swss.signal_pitch())
    # Doubling the gap moves field lines from the neighbours to the
    # planes, and the total still falls.
    assert double.signal_pitch() == pytest.approx(
        layer.width + 2 * layer.spacing)
    assert (double.coupling_capacitance_per_meter()
            < swss.coupling_capacitance_per_meter())
    assert (double.ground_capacitance_per_meter()
            > swss.ground_capacitance_per_meter())
    assert (double.switched_capacitance_per_meter()
            < swss.switched_capacitance_per_meter())
