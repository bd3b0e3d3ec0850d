"""Repeater delay / output-slew / input-capacitance model (Section III-A).

The model is fully determined by a
:class:`~repro.models.calibration.CalibratedTechnology` bundle:

* ``d_r = i(s_i) + r_d(s_i, w_r) * c_l`` with the quadratic intrinsic
  delay and the slew- and size-dependent drive resistance;
* ``s_o = c0 + c1 * s_i / w_r + c2 * c_l`` for the output slew;
* ``c_i = gamma * (w_p + w_n)`` for the input capacitance.

``w_r`` is the pMOS width for rising output transitions and the nMOS
width for falling ones.  Every method accepts a float or a NumPy array
for ``size`` and the slew/load arguments; the batched lanes in
:mod:`repro.kernels` call these same equations on arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arrays import clip
from repro.characterization.cells import BUFFER_STAGE_RATIO, RepeaterKind
from repro.models.calibration import CalibratedTechnology
from repro.tech.parameters import TechnologyParameters


@dataclass(frozen=True)
class RepeaterModel:
    """Closed-form repeater model bound to one technology calibration."""

    tech: TechnologyParameters
    calibration: CalibratedTechnology

    def __post_init__(self) -> None:
        if self.calibration.tech_name.split("-")[0] not in self.tech.name:
            raise ValueError(
                f"calibration for {self.calibration.tech_name!r} does not "
                f"match technology {self.tech.name!r}")

    # -- geometry helpers --------------------------------------------------

    def widths(self, size: float) -> "tuple[float, float]":
        """(wn, wp) of the output stage, meters."""
        return self.tech.inverter_widths(size)

    def transition_width(self, size: float, rising_output: bool) -> float:
        """The ``w_r`` of the model in meters: pMOS width for rise,
        nMOS for fall; ``size`` is the dimensionless multiple."""
        wn, wp = self.widths(size)
        return wp if rising_output else wn

    # -- the three model equations ------------------------------------------

    def delay(self, size: float, input_slew: float, load_cap: float,
              rising_output: bool = True) -> float:
        """Repeater delay in seconds."""
        direction = self.calibration.direction(rising_output)
        wr = self.transition_width(size, rising_output)
        return direction.delay(input_slew, wr, load_cap)

    def output_slew(self, size: float, input_slew: float, load_cap: float,
                    rising_output: bool = True) -> float:
        """Output transition time in seconds."""
        direction = self.calibration.direction(rising_output)
        wr = self.transition_width(size, rising_output)
        return direction.output_slew(load_cap, input_slew, wr)

    def input_capacitance(self, size: float) -> float:
        """Input capacitance in farads (``gamma * (w_p + w_n)``).

        For buffers the input pin connects to the (smaller) first-stage
        inverter.
        """
        if self.calibration.kind is RepeaterKind.BUFFER:
            first_size = clip(size / BUFFER_STAGE_RATIO, 1.0)
            wn, wp = self.tech.inverter_widths(first_size)
        else:
            wn, wp = self.widths(size)
        return self.calibration.input_cap_gamma * (wn + wp)

    def drive_resistance(self, size: float, input_slew: float,
                         rising_output: bool = True) -> float:
        """Effective drive resistance in ohms at the given input slew."""
        direction = self.calibration.direction(rising_output)
        wr = self.transition_width(size, rising_output)
        return direction.drive_resistance(input_slew, wr)

    # -- direction-averaged conveniences ------------------------------------

    def average_delay(self, size: float, input_slew: float,
                      load_cap: float) -> float:
        """Mean of the rise and fall delays in seconds (the usual STA
        summary); ``input_slew`` seconds, ``load_cap`` farads."""
        return 0.5 * (self.delay(size, input_slew, load_cap, True)
                      + self.delay(size, input_slew, load_cap, False))

    def worst_delay(self, size: float, input_slew: float,
                    load_cap: float) -> float:
        """Max of the rise and fall delays, in seconds."""
        return max(self.delay(size, input_slew, load_cap, True),
                   self.delay(size, input_slew, load_cap, False))
