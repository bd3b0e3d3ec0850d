"""Width-dependent resistivity: scattering and barrier effects."""

import pytest
from hypothesis import given, strategies as st

from repro.tech.resistivity import (
    barrier_adjusted_area_fraction,
    effective_resistivity,
    scattering_resistivity,
    wire_resistance_per_meter,
)
from repro.tech.parameters import WireLayerGeometry
from repro.units import COPPER_BULK_RESISTIVITY, nm, um


def layer(width_um=0.4, barrier_nm=12.0):
    return WireLayerGeometry(
        name="global", width=um(width_um), spacing=um(width_um),
        thickness=um(2.1 * width_um), ild_thickness=um(1.6 * width_um),
        dielectric_constant=3.0, barrier_thickness=nm(barrier_nm))


class TestScattering:
    def test_always_above_bulk(self):
        rho = scattering_resistivity(um(0.4), um(0.85))
        assert rho > COPPER_BULK_RESISTIVITY

    def test_approaches_bulk_for_wide_wires(self):
        rho = scattering_resistivity(um(100), um(100))
        assert rho == pytest.approx(COPPER_BULK_RESISTIVITY, rel=0.02)

    def test_narrow_wires_much_worse(self):
        narrow = scattering_resistivity(nm(40), nm(80))
        wide = scattering_resistivity(um(1), um(2))
        assert narrow > 1.5 * wide

    def test_input_validation(self):
        with pytest.raises(ValueError):
            scattering_resistivity(0.0, um(1))
        with pytest.raises(ValueError):
            scattering_resistivity(um(1), um(1), specularity=1.5)
        with pytest.raises(ValueError):
            scattering_resistivity(um(1), um(1), grain_reflectivity=0.0)

    @given(st.floats(min_value=30e-9, max_value=2e-6),
           st.floats(min_value=60e-9, max_value=4e-6))
    def test_monotonic_in_width(self, width, thickness):
        rho_narrow = scattering_resistivity(width, thickness)
        rho_wider = scattering_resistivity(width * 1.5, thickness)
        assert rho_wider < rho_narrow


class TestBarrier:
    def test_area_fraction_below_one(self):
        fraction = barrier_adjusted_area_fraction(layer())
        assert 0.0 < fraction < 1.0

    def test_zero_barrier_fraction_is_one(self):
        fraction = barrier_adjusted_area_fraction(layer(barrier_nm=0.0))
        assert fraction == pytest.approx(1.0)

    def test_relative_impact_grows_for_narrow_wires(self):
        wide = barrier_adjusted_area_fraction(layer(width_um=0.4))
        narrow = barrier_adjusted_area_fraction(layer(width_um=0.1))
        assert narrow < wide


class TestEffectiveResistivity:
    def test_corrections_stack(self):
        both = effective_resistivity(layer())
        no_scatter = effective_resistivity(layer(),
                                           include_scattering=False)
        no_barrier = effective_resistivity(layer(),
                                           include_barrier=False)
        neither = effective_resistivity(layer(),
                                        include_scattering=False,
                                        include_barrier=False)
        assert neither == pytest.approx(COPPER_BULK_RESISTIVITY)
        assert both > no_scatter > neither
        assert both > no_barrier > neither

    def test_resistance_per_meter_uses_drawn_geometry(self):
        geometry = layer()
        r = wire_resistance_per_meter(geometry, include_scattering=False,
                                      include_barrier=False)
        expected = COPPER_BULK_RESISTIVITY / (geometry.width
                                              * geometry.thickness)
        assert r == pytest.approx(expected)

    def test_plausible_90nm_global_resistance(self):
        # 50-100 ohm/mm is the canonical 90 nm global-wire range.
        r_per_mm = wire_resistance_per_meter(layer()) * 1e-3
        assert 40 < r_per_mm < 120
