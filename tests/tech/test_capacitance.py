"""Wire capacitance closed forms."""

import pytest
from hypothesis import given, strategies as st

from repro.tech.capacitance import (
    coupling_capacitance_per_meter,
    ground_capacitance_per_meter,
    total_capacitance_per_meter,
    wire_capacitances,
)
from repro.tech.parameters import WireLayerGeometry
from repro.units import EPSILON_0, nm, um


def layer(width=0.4, spacing=0.4, thickness=0.85, height=0.65, k=3.3):
    return WireLayerGeometry(
        name="m", width=um(width), spacing=um(spacing),
        thickness=um(thickness), ild_thickness=um(height),
        dielectric_constant=k, barrier_thickness=nm(10))


def test_ground_cap_positive_and_scaling_with_k():
    low_k = ground_capacitance_per_meter(layer(k=2.2))
    high_k = ground_capacitance_per_meter(layer(k=3.3))
    assert low_k > 0
    assert high_k == pytest.approx(low_k * 3.3 / 2.2)


def test_ground_cap_grows_with_width():
    assert (ground_capacitance_per_meter(layer(width=0.8))
            > ground_capacitance_per_meter(layer(width=0.4)))


def test_coupling_cap_shrinks_with_spacing():
    tight = coupling_capacitance_per_meter(layer(spacing=0.2))
    loose = coupling_capacitance_per_meter(layer(spacing=0.8))
    assert tight > loose


def test_coupling_cap_grows_with_thickness():
    thin = coupling_capacitance_per_meter(layer(thickness=0.4))
    thick = coupling_capacitance_per_meter(layer(thickness=1.0))
    assert thick > thin


def test_wire_capacitances_composition():
    geometry = layer()
    ground, coupling = wire_capacitances(geometry)
    assert ground == pytest.approx(
        ground_capacitance_per_meter(geometry))
    assert coupling == pytest.approx(
        2.0 * coupling_capacitance_per_meter(geometry))


def test_total_capacitance_miller_factor():
    geometry = layer()
    ground, coupling = wire_capacitances(geometry)
    assert total_capacitance_per_meter(geometry, 0.0) == \
        pytest.approx(ground)
    assert total_capacitance_per_meter(geometry, 2.0) == \
        pytest.approx(ground + 2.0 * coupling)
    with pytest.raises(ValueError):
        total_capacitance_per_meter(geometry, -0.5)


def test_minimum_pitch_wire_is_coupling_dominated():
    # At aspect ratio > 2 and equal width/spacing, lateral capacitance
    # dominates ground capacitance — the regime the paper's coupling
    # corrections matter in.
    geometry = layer()
    ground, coupling = wire_capacitances(geometry)
    assert coupling > ground


@given(st.floats(min_value=0.05, max_value=1.0),
       st.floats(min_value=0.05, max_value=1.0))
def test_capacitances_always_positive(width, spacing):
    geometry = layer(width=width, spacing=spacing)
    ground, coupling = wire_capacitances(geometry)
    assert ground > 0
    assert coupling > 0


@given(st.floats(min_value=1.5, max_value=4.0))
def test_plate_term_dominates_for_wide_wires(k):
    geometry = layer(width=10.0, height=0.2, k=k)
    ground = ground_capacitance_per_meter(geometry)
    plate = 2 * k * EPSILON_0 * geometry.width / geometry.ild_thickness
    # Fringe correction should be small relative to the plate term here.
    assert ground == pytest.approx(plate, rel=0.2)
