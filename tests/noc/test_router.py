"""Router cost model."""

import pytest

from repro.noc.router import RouterParameters
from repro.tech import available_nodes, get_technology
from repro.units import nm


class TestScaling:
    def test_reference_values_at_90nm(self, tech90):
        params = RouterParameters.for_technology(tech90, flit_width=128)
        assert params.energy_per_bit == pytest.approx(1.0e-12, rel=0.01)
        assert params.leakage_per_port == pytest.approx(0.4e-3,
                                                        rel=0.01)
        assert params.area_per_port == pytest.approx(0.06e-6, rel=0.01)

    def test_energy_shrinks_with_node(self, tech90):
        tech45 = get_technology("45nm")
        p90 = RouterParameters.for_technology(tech90)
        p45 = RouterParameters.for_technology(tech45)
        assert p45.energy_per_bit < p90.energy_per_bit
        assert p45.area_per_port < p90.area_per_port

    def test_flit_width_scales_costs(self, tech90):
        narrow = RouterParameters.for_technology(tech90, flit_width=64)
        wide = RouterParameters.for_technology(tech90, flit_width=128)
        assert wide.leakage_per_port == pytest.approx(
            2 * narrow.leakage_per_port)
        assert wide.area_per_port == pytest.approx(
            2 * narrow.area_per_port)


class TestCostQueries:
    @pytest.fixture
    def params(self, tech90):
        return RouterParameters.for_technology(tech90)

    def test_dynamic_power(self, params):
        assert params.dynamic_power(1e9) == pytest.approx(
            params.energy_per_bit * 1e9)

    def test_traversal_energy(self, params):
        assert params.traversal_energy(128.0) == pytest.approx(
            128 * params.energy_per_bit)

    def test_leakage_and_area_linear_in_ports(self, params):
        assert params.leakage_power(6) == pytest.approx(
            3 * params.leakage_power(2))
        assert params.area(6) == pytest.approx(3 * params.area(2))

    def test_latency(self, params, tech90):
        assert params.latency(tech90.clock_period()) == pytest.approx(
            params.pipeline_cycles * tech90.clock_period())


class TestValidation:
    def test_parameter_checks(self):
        with pytest.raises(ValueError):
            RouterParameters(energy_per_bit=-1.0, leakage_per_port=0.0,
                             area_per_port=1.0)
        with pytest.raises(ValueError):
            RouterParameters(energy_per_bit=0.0, leakage_per_port=0.0,
                             area_per_port=0.0)
        with pytest.raises(ValueError):
            RouterParameters(energy_per_bit=0.0, leakage_per_port=0.0,
                             area_per_port=1.0, pipeline_cycles=0)
        with pytest.raises(ValueError):
            RouterParameters(energy_per_bit=0.0, leakage_per_port=0.0,
                             area_per_port=1.0, max_ports=1)


@pytest.mark.parametrize("node", available_nodes())
def test_scaling_rules_hold_at_every_node(node):
    """Energy scales with feature size and ``vdd^2``, leakage with
    feature size and device leakage, area with feature size squared,
    all from the 90 nm, 1.0 V, 128-bit reference."""
    tech = get_technology(node)
    feature = tech.feature_size / nm(90)
    params = RouterParameters.for_technology(tech)
    assert params.energy_per_bit == pytest.approx(
        1.0e-12 * feature * tech.vdd**2, rel=1e-12)
    assert params.leakage_per_port == pytest.approx(
        0.4e-3 * (tech.nmos.i_leak / 0.1) * feature, rel=1e-12)
    assert params.area_per_port == pytest.approx(
        0.06e-6 * feature**2, rel=1e-12)
    assert params.pipeline_cycles == 3
    assert params.max_ports == 8
