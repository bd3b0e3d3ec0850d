"""Crosstalk-aware wire-delay model (Section III-B).

Starts from the Pamunuwa et al. form

    ``d_w = r_w (0.4 c_g + (lambda/2) c_c + 0.7 c_i)``

where ``lambda`` captures neighbour switching (1.51 for the worst case
in the paper's notation), and enhances the wire resistance ``r_w`` with
the width-dependent resistivity corrections of
:mod:`repro.tech.resistivity` (electron scattering + barrier
thickness), which is what distinguishes the proposed model's wire part
from the classic one.

The mapping between the paper's ``lambda`` and the Miller factor ``m``
used by :class:`~repro.tech.design_styles.WireConfiguration` is
``lambda / 2 = 0.4 * m``: the worst-case ``lambda = 1.51`` corresponds
to ``m ~ 1.9``, and staggered repeater insertion (Section III-D) sets
``m = 0``.

The per-meter parasitics come from the resistivity and field models
and cost far more than the equations that use them, so a line
evaluation computes them once (:class:`WireCoefficients`) and every
stage reuses them.  The equations are methods of that class and accept
floats or NumPy arrays for lengths and capacitances; the module-level
functions are the same equations for callers holding a configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.arrays import any_true
from repro.tech.design_styles import WireConfiguration

#: Elmore coefficient of the distributed ground/coupling capacitance.
WIRE_CAP_COEFFICIENT = 0.4

#: Elmore coefficient of the lumped far-end load.
LOAD_COEFFICIENT = 0.7


class WireDelayComponents(NamedTuple):
    """Breakdown of one wire segment's delay contribution (seconds)."""

    ground_term: float
    coupling_term: float
    load_term: float

    @property
    def total(self) -> float:
        """Sum of the three delay terms, in seconds."""
        return self.ground_term + self.coupling_term + self.load_term


@dataclass(frozen=True)
class WireCoefficients:
    """Per-meter parasitics of one wire configuration, computed once.

    Units: ohm/m, F/m; ``delay_miller`` dimensionless.  Lengths are in
    meters and capacitances in farads, as floats or arrays.
    """

    resistance_per_meter: float
    ground_cap_per_meter: float
    coupling_cap_per_meter: float
    switched_cap_per_meter: float
    delay_miller: float

    @classmethod
    def from_config(cls, config: WireConfiguration) -> "WireCoefficients":
        return cls(
            resistance_per_meter=config.resistance_per_meter(),
            ground_cap_per_meter=config.ground_capacitance_per_meter(),
            coupling_cap_per_meter=config.coupling_capacitance_per_meter(),
            switched_cap_per_meter=config.switched_capacitance_per_meter(),
            delay_miller=config.delay_miller,
        )

    def delay_components(self, length, load_cap,
                         miller_factor: "float | None" = None
                         ) -> WireDelayComponents:
        """Per-term delay of one segment of ``length`` meters.

        ``load_cap`` is the capacitance at the far end (the next
        repeater's input capacitance).  ``miller_factor`` defaults to
        the configuration's delay Miller factor.
        """
        if miller_factor is None:
            miller_factor = self.delay_miller
        r_wire = self.resistance_per_meter * length
        c_ground = self.ground_cap_per_meter * length
        c_coupling = self.coupling_cap_per_meter * length
        return WireDelayComponents(
            r_wire * WIRE_CAP_COEFFICIENT * c_ground,
            r_wire * WIRE_CAP_COEFFICIENT * miller_factor * c_coupling,
            r_wire * LOAD_COEFFICIENT * load_cap,
        )

    def delay(self, length, load_cap,
              miller_factor: "float | None" = None):
        """Total wire delay ``d_w`` of one segment, in seconds."""
        return self.delay_components(length, load_cap,
                                     miller_factor).total

    def load_capacitance(self, length, next_input_cap,
                         miller_factor: "float | None" = None):
        """Load capacitance ``c_l`` (F) presented to the driver.

        The sum of the wire's ground capacitance, its Miller-amplified
        lateral capacitance, and the next stage's input capacitance —
        the ``c_l`` fed into the repeater-delay model for a buffered
        line stage.
        """
        if miller_factor is None:
            miller_factor = self.delay_miller
        c_ground = self.ground_cap_per_meter * length
        c_coupling = self.coupling_cap_per_meter * length
        return c_ground + miller_factor * c_coupling + next_input_cap

    def switched_capacitance(self, length):
        """Capacitance (F) charged by the driver per transition.

        Uses the configuration's *power* Miller factor: a neighbour
        that holds still contributes its full lateral capacitance once
        (factor 1); staggering changes the delay factor but not this
        one.
        """
        return self.switched_cap_per_meter * length


def _checked_length(length):
    if any_true(length < 0):
        raise ValueError("length must be non-negative")
    return length


def wire_delay_components(
    config: WireConfiguration,
    length,
    load_cap,
    miller_factor: "float | None" = None,
) -> WireDelayComponents:
    """:meth:`WireCoefficients.delay_components` of ``config``."""
    return WireCoefficients.from_config(config).delay_components(
        _checked_length(length), load_cap, miller_factor)


def wire_delay(
    config: WireConfiguration,
    length,
    load_cap,
    miller_factor: "float | None" = None,
):
    """:meth:`WireCoefficients.delay` of ``config``, in seconds."""
    return WireCoefficients.from_config(config).delay(
        _checked_length(length), load_cap, miller_factor)


def switched_wire_capacitance(config: WireConfiguration, length):
    """:meth:`WireCoefficients.switched_capacitance` of ``config``."""
    return WireCoefficients.from_config(config).switched_capacitance(
        length)


def effective_load_capacitance(
    config: WireConfiguration,
    length,
    next_input_cap,
    miller_factor: "float | None" = None,
):
    """:meth:`WireCoefficients.load_capacitance` of ``config``."""
    return WireCoefficients.from_config(config).load_capacitance(
        length, next_input_cap, miller_factor)
