"""End-to-end buffered-interconnect evaluation (the proposed model).

A buffered interconnect is a chain of repeater stages, each a repeater
driving one wire segment.  The total delay is the sum over stages of

    ``d_stage = d_r(s_i, c_l) + d_w``

where the repeater load ``c_l`` folds in the segment's ground
capacitance, its Miller-amplified lateral capacitance and the next
repeater's input capacitance, and ``d_w`` is the distributed wire term
of :mod:`repro.models.wire`.  The output slew of each stage, computed
with the calibrated slew model, becomes the next stage's input slew —
this slew propagation is precisely what the classic models skip and a
key reason the proposed model tracks sign-off (Section III-A).

Power and area come from :mod:`repro.models.power` and
:mod:`repro.models.area`; the same object therefore supplies every
metric the buffering optimizer and the NoC synthesizer need.

A stage splits in two: :meth:`~BufferedInterconnectModel.stage_load`,
the load and wire delay its segment and far-end capacitance fix, and
:meth:`~BufferedInterconnectModel.drive_stage`, the slew-dependent
repeater arithmetic.  The inner stages of a uniform line share one
load, so :meth:`~BufferedInterconnectModel.evaluate` computes it once
per line; the per-meter wire view and the repeater model are built
once per model instance.

:meth:`BufferedInterconnectModel.stage_delay` (the two halves
composed) and :meth:`~BufferedInterconnectModel.power_and_area`
accept arrays, so the batched lanes in :mod:`repro.kernels` run this
model's own stage and power/area arithmetic over many lanes at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from repro.models.area import regression_repeater_area, wire_area
from repro.models.calibration import CalibratedTechnology
from repro.models.power import (
    dynamic_power,
    leakage_power_from_coefficients,
)
from repro.models.repeater import RepeaterModel
from repro.models.wire import WireCoefficients
from repro.tech.design_styles import WireConfiguration
from repro.tech.parameters import TechnologyParameters


class InterconnectEstimate(NamedTuple):
    """Every metric of one buffered-interconnect configuration.

    Delays/slews in seconds, powers in watts (per bit unless a bus
    width was given), areas in m^2.

    A named tuple, as :class:`StageLoad` is: every ``evaluate`` of
    every model builds one, and a tuple is about three times cheaper
    to build than a frozen dataclass.  ``_fields`` and ``_asdict()``
    list the fields.
    """

    delay: float
    output_slew: float
    stage_delays: Tuple[float, ...]
    dynamic_power: float
    leakage_power: float
    repeater_area: float
    wire_area: float
    num_repeaters: int
    repeater_size: float
    length: float
    bus_width: int

    @property
    def total_power(self) -> float:
        """Dynamic plus leakage power, in watts."""
        return self.dynamic_power + self.leakage_power

    @property
    def total_area(self) -> float:
        """Repeater plus wire area, in square meters."""
        return self.repeater_area + self.wire_area


class StageLoad(NamedTuple):
    """The part of one repeater stage its input slew does not change.

    ``segment_length`` meters and ``next_cap`` farads are the stage's
    inputs; ``load`` is the capacitance ``c_l`` (F) its repeater
    drives and ``wire_delay`` the segment's ``d_w`` (s).  Each may be
    an array.
    """

    segment_length: float
    next_cap: float
    load: float
    wire_delay: float


@dataclass(frozen=True)
class BufferedInterconnectModel:
    """The proposed predictive model, bound to one technology node.

    ``activity_factor`` is the fraction of clock cycles the wire
    toggles; the NoC experiments derive it per link from flow bandwidth.
    """

    tech: TechnologyParameters
    calibration: CalibratedTechnology
    config: WireConfiguration
    activity_factor: float = 0.15

    # The per-instance views below live in the instance ``__dict__``,
    # outside the dataclass fields, so ``==``, ``hash`` and
    # ``runtime.fingerprint`` never see them.

    @functools.cached_property
    def wire_coefficients(self) -> WireCoefficients:
        """The configuration's per-meter parasitics, computed once per
        model."""
        return WireCoefficients.from_config(self.config)

    @functools.cached_property
    def _repeater(self) -> RepeaterModel:
        return RepeaterModel(tech=self.tech, calibration=self.calibration)

    def repeater_model(self) -> RepeaterModel:
        """The repeater model of this calibration, built once per
        model."""
        return self._repeater

    # -- stage-level ----------------------------------------------------

    def stage_load(self, wire: WireCoefficients, segment_length,
                   next_cap) -> StageLoad:
        """The slew-independent part of one stage: its load and wire
        delay.

        ``wire`` holds the configuration's per-meter parasitics,
        ``segment_length`` is in meters and ``next_cap`` in farads;
        both may be arrays.
        """
        return StageLoad(segment_length, next_cap,
                         wire.load_capacitance(segment_length, next_cap),
                         wire.delay(segment_length, next_cap))

    def drive_stage(self, stage: StageLoad, wr, input_slew,
                    rising_output: bool):
        """(delay, output slew), both in seconds, of one repeater
        stage driving ``stage``.

        ``wr`` is the repeater's transition width in meters (see
        :meth:`RepeaterModel.transition_width`); ``wr`` and
        ``input_slew`` may be arrays.
        """
        direction = self.calibration.direction(rising_output)
        load = stage.load
        d_repeater = direction.delay(input_slew, wr, load)
        slew_out = direction.output_slew(load, input_slew, wr)
        return d_repeater + stage.wire_delay, slew_out

    def stage_delay(self, wire: WireCoefficients, wr, input_slew,
                    segment_length, next_cap, rising_output: bool):
        """(delay, output slew), both in seconds, of one repeater
        stage: :meth:`drive_stage` of :meth:`stage_load`.

        Arguments as in those two; all but ``wire`` and
        ``rising_output`` may be arrays.
        """
        return self.drive_stage(
            self.stage_load(wire, segment_length, next_cap), wr,
            input_slew, rising_output)

    def power_and_area(self, wire: WireCoefficients, length,
                       num_repeaters, wn, wp, input_cap,
                       bus_width: int):
        """(dynamic power, leakage power, repeater area, wire area) of
        uniformly buffered lines, in watts and m^2.

        ``length`` meters; ``wn``/``wp`` the repeater widths (m) and
        ``input_cap`` its input capacitance (F), as the caller already
        has them for the stage chain.  Every argument but ``wire`` and
        ``bus_width`` may be an array.
        """
        # Every stage switches the wire's once-counted lateral
        # capacitance plus ground capacitance plus the downstream gate.
        switched = (wire.switched_capacitance(length)
                    + num_repeaters * input_cap)
        p_dynamic = bus_width * dynamic_power(
            switched, self.tech.vdd, self.tech.clock_frequency,
            self.activity_factor)
        p_leak = bus_width * num_repeaters * \
            leakage_power_from_coefficients(self.calibration, wn, wp)
        a_repeaters = bus_width * num_repeaters * \
            regression_repeater_area(self.calibration, wn)
        a_wire = wire_area(self.config, length, bus_width)
        return p_dynamic, p_leak, a_repeaters, a_wire

    # -- line-level -----------------------------------------------------

    def evaluate(
        self,
        length: float,
        num_repeaters: int,
        repeater_size: float,
        input_slew: float,
        bus_width: int = 1,
        receiver_cap: Optional[float] = None,
    ) -> InterconnectEstimate:
        """Evaluate a uniformly buffered line of ``length`` meters.

        ``receiver_cap`` defaults to the input capacitance of a
        repeater of the same size (matching the golden testbench).
        Powers and areas scale with ``bus_width``.

        The inner stages share one :class:`StageLoad`, computed once
        per line; with the default ``receiver_cap`` the receiver stage
        shares it too.  Each stage then runs only :meth:`drive_stage`,
        a pure function of its input slew and edge.  Once an inner
        stage's input slew equals, bit for bit, the one two stages
        back, the remaining inner stages repeat that two-stage cycle
        and are copied, not recomputed; the receiver stage is always
        computed.
        """
        if length <= 0:
            raise ValueError("length must be positive")
        if num_repeaters < 1:
            raise ValueError("need at least one repeater")

        wire = self.wire_coefficients
        segment = length / num_repeaters
        input_cap = self._repeater.input_capacitance(repeater_size)
        inner_load = self.stage_load(wire, segment, input_cap)
        receiver_load = (inner_load if receiver_cap is None
                         else self.stage_load(wire, segment,
                                              receiver_cap))
        wn, wp = self.tech.inverter_widths(repeater_size)

        inverting = self.calibration.kind.inverting
        inner = num_repeaters - 1
        stage_delays: List[float] = []
        input_slews: List[float] = []
        slew = input_slew
        for stage in range(inner):
            if stage >= 2 and slew == input_slews[stage - 2]:
                # Same input slew and edge as two stages back, and the
                # same load: every remaining inner stage repeats the
                # last two.
                cycle = stage_delays[-2:]
                stage_delays.extend(cycle[(later - stage) % 2]
                                    for later in range(stage, inner))
                slew = input_slews[stage - 2 + (inner - stage) % 2]
                break
            rising = not inverting or stage % 2 == 0
            input_slews.append(slew)
            delay, slew = self.drive_stage(
                inner_load, wp if rising else wn, slew, rising)
            stage_delays.append(delay)
        rising = not inverting or inner % 2 == 0
        delay, slew = self.drive_stage(
            receiver_load, wp if rising else wn, slew, rising)
        stage_delays.append(delay)

        p_dynamic, p_leak, a_repeaters, a_wire = self.power_and_area(
            wire, length, num_repeaters, wn, wp, input_cap, bus_width)
        return InterconnectEstimate(
            delay=sum(stage_delays),
            output_slew=slew,
            stage_delays=tuple(stage_delays),
            dynamic_power=p_dynamic,
            leakage_power=p_leak,
            repeater_area=a_repeaters,
            wire_area=a_wire,
            num_repeaters=num_repeaters,
            repeater_size=repeater_size,
            length=length,
            bus_width=bus_width,
        )

    def staggered(self) -> "BufferedInterconnectModel":
        """The same model with staggered repeater insertion (Miller 0)."""
        return BufferedInterconnectModel(
            tech=self.tech,
            calibration=self.calibration,
            config=self.config.staggered(),
            activity_factor=self.activity_factor,
        )
