"""Area models (Section III-C).

Two repeater-area paths, exactly as the paper describes:

* **Regression** — ``a_r = f0 + f1 * w_n`` fitted against characterized
  cell areas (what you do when a library exists).
* **Predictive** — for future technologies with no library: fingers
  ``N_f = (w_p + w_n) / (h_row - 4 p_contact)``, cell width
  ``(N_f + 1) * p_contact``, area ``h_row * w_cell`` — all three inputs
  (feature size, contact pitch, row height) are available early in
  process development.

Wire area: ``a_w = n * (w_w + s_w) + s_w`` for an ``n``-bit bus with
wire width ``w_w`` and spacing ``s_w`` after the design style is
applied, per unit length.

The regression and wire-area paths take floats or NumPy arrays.
"""

from __future__ import annotations

import math

from repro.arrays import any_true
from repro.models.calibration import CalibratedTechnology
from repro.tech.design_styles import DesignStyle, WireConfiguration
from repro.tech.parameters import TechnologyParameters


def regression_repeater_area(calibration: CalibratedTechnology,
                             wn: float) -> float:
    """Repeater area (m^2) from the fitted linear model."""
    f0, f1 = calibration.area
    return f0 + f1 * wn


def predictive_repeater_area(tech: TechnologyParameters, size: float
                             ) -> float:
    """Repeater area (m^2) from the finger-count layout model."""
    wn, wp = tech.inverter_widths(size)
    usable_height = tech.row_height - 4.0 * tech.contact_pitch
    if usable_height <= 0:
        raise ValueError("row height too small for the contact pitch")
    fingers = max(math.ceil((wn + wp) / usable_height), 1)
    cell_width = (fingers + 1) * tech.contact_pitch
    return tech.row_height * cell_width


def repeater_area(tech: TechnologyParameters,
                  calibration: "CalibratedTechnology | None",
                  size: float) -> float:
    """Repeater area (m^2): regression when calibrated, else predictive."""
    if calibration is not None:
        wn, _ = tech.inverter_widths(size)
        return regression_repeater_area(calibration, wn)
    return predictive_repeater_area(tech, size)


def wire_area(config: WireConfiguration, length: float,
              bus_width: int = 1) -> float:
    """Routing area (m^2) consumed by a bus of ``bus_width`` bits.

    ``a_w = n * (w_w + s_w) + s_w`` per unit length, with the signal
    pitch doubled for shielded design styles (the shield tracks are
    part of the cost).
    """
    if bus_width < 1:
        raise ValueError("bus_width must be at least 1")
    if any_true(length < 0):
        raise ValueError("length must be non-negative")
    if config.style is DesignStyle.SHIELDED:
        pitch = config.signal_pitch()
        cross_width = bus_width * pitch + config.layer.spacing
    else:
        cross_width = (bus_width * (config.layer.width
                                    + config.layer.spacing)
                       + config.layer.spacing)
    return cross_width * length
