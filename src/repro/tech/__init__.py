"""Technology database: device, wire and cell-geometry parameters.

This package is the substitute for the industry technology files the paper
relies on (Liberty, LEF, ITF) and for the public sources it recommends for
future nodes (ITRS, PTM).  It provides:

* :mod:`repro.tech.parameters` — typed parameter containers.
* :mod:`repro.tech.nodes` — built-in parameter sets for 90/65/45/32/22/16 nm.
* :mod:`repro.tech.resistivity` — width-dependent copper resistivity
  (electron scattering + barrier thickness).
* :mod:`repro.tech.capacitance` — wire ground/coupling capacitance from
  geometry.
* :mod:`repro.tech.design_styles` — wire design styles (width/spacing/
  shielding) and their Miller factors.
* :mod:`repro.tech.liberty` — a mini Liberty reader and writer for
  generated libraries (the paper's calibration route).
"""

from repro.tech.parameters import (
    DeviceParameters,
    TechnologyParameters,
    WireLayerGeometry,
)
from repro.tech.nodes import (
    TECHNOLOGY_NODES,
    available_nodes,
    get_technology,
)
from repro.tech.design_styles import DesignStyle, WireConfiguration
from repro.tech.resistivity import (
    barrier_adjusted_area_fraction,
    effective_resistivity,
    scattering_resistivity,
    wire_resistance_per_meter,
)
from repro.tech.capacitance import (
    coupling_capacitance_per_meter,
    ground_capacitance_per_meter,
    wire_capacitances,
)

__all__ = [
    "DeviceParameters",
    "TechnologyParameters",
    "WireLayerGeometry",
    "TECHNOLOGY_NODES",
    "available_nodes",
    "get_technology",
    "DesignStyle",
    "WireConfiguration",
    "barrier_adjusted_area_fraction",
    "effective_resistivity",
    "scattering_resistivity",
    "wire_resistance_per_meter",
    "coupling_capacitance_per_meter",
    "ground_capacitance_per_meter",
    "wire_capacitances",
]
