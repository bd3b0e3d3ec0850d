"""Power models (Section III-C).

* Leakage: each flavour leaks in one output state, linearly in device
  width — ``p_s = (p_sn + p_sp) / 2`` with
  ``p_sn = e0n + e1n * w_n`` and ``p_sp = e0p + e1p * w_p``.
* Dynamic: the standard ``p_d = af * c_l * vdd^2 * f`` with activity
  factor ``af``, switched load ``c_l``, supply ``vdd`` and clock ``f``.

Widths, sizes and loads may be floats or NumPy arrays.
"""

from __future__ import annotations

from repro.arrays import any_true
from repro.models.calibration import CalibratedTechnology
from repro.tech.parameters import TechnologyParameters


def leakage_power_from_coefficients(
    calibration: CalibratedTechnology,
    wn: float,
    wp: float,
) -> float:
    """Average repeater leakage power in watts.

    ``p_s = (p_sn + p_sp) / 2`` — the two output states are assumed
    equally likely, as in the paper.
    """
    e0n, e1n = calibration.leakage_n
    e0p, e1p = calibration.leakage_p
    p_sn = e0n + e1n * wn
    p_sp = e0p + e1p * wp
    return 0.5 * (p_sn + p_sp)


def repeater_leakage_power(
    tech: TechnologyParameters,
    calibration: CalibratedTechnology,
    size: float,
) -> float:
    """Leakage power (W) of one repeater of the given drive strength."""
    wn, wp = tech.inverter_widths(size)
    return leakage_power_from_coefficients(calibration, wn, wp)


def dynamic_power(
    load_cap: float,
    vdd: float,
    frequency: float,
    activity_factor: float = 0.15,
) -> float:
    """Dynamic switching power ``af * c_l * vdd^2 * f`` in watts.

    ``load_cap`` must be the *switched* capacitance (wire ground +
    once-counted lateral + downstream gate capacitance); the Miller
    amplification used for delay does not apply to average power.
    """
    if not 0.0 <= activity_factor <= 1.0:
        raise ValueError("activity_factor must lie in [0, 1]")
    if any_true(load_cap < 0) or vdd <= 0 or frequency <= 0:
        raise ValueError("load_cap, vdd and frequency must be physical")
    return activity_factor * load_cap * vdd * vdd * frequency
