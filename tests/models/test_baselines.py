"""Bakoglu and Pamunuwa baseline models."""

import pickle

import pytest

from repro.models.area import wire_area
from repro.models.baselines import BakogluModel, PamunuwaModel
from repro.models.baselines.bakoglu import (
    GATE_COEFFICIENT,
    WIRE_COEFFICIENT,
    WIRE_LOAD_COEFFICIENT,
)
from repro.models.interconnect import InterconnectEstimate
from repro.models.power import dynamic_power
from repro.runtime import fingerprint
from repro.units import fF, mm, ps


def _bakoglu_stage(model, size, segment, next_cap):
    """One Bakoglu stage, re-deriving the optimistic wire view."""
    view = model._optimistic_config()
    r_w = view.resistance_per_meter() * segment
    c_w = view.ground_capacitance_per_meter() * segment
    gate = GATE_COEFFICIENT * model.drive_resistance(size) * (
        model.self_capacitance(size) + c_w + next_cap)
    return gate + r_w * (WIRE_COEFFICIENT * c_w
                         + WIRE_LOAD_COEFFICIENT * next_cap)


def _pamunuwa_stage(model, size, segment, next_cap):
    """One Pamunuwa stage, re-deriving the wire view and gate model."""
    gate = BakogluModel(model.tech, model.config, model.activity_factor)
    view = model._optimistic_config()
    miller = model.config.delay_miller
    r_w = view.resistance_per_meter() * segment
    c_g = view.ground_capacitance_per_meter() * segment
    c_c = view.coupling_capacitance_per_meter() * segment
    load = gate.self_capacitance(size) + c_g + miller * c_c + next_cap
    return (GATE_COEFFICIENT * gate.drive_resistance(size) * load
            + r_w * (WIRE_COEFFICIENT * c_g
                     + WIRE_COEFFICIENT * miller * c_c
                     + WIRE_LOAD_COEFFICIENT * next_cap))


def _reference_evaluate(model, length, count, size, bus_width,
                        receiver_cap):
    """A baseline's line evaluation with one stage computation per
    stage, the way the models evaluated before their wire view was
    cached."""
    pamunuwa = isinstance(model, PamunuwaModel)
    stage = _pamunuwa_stage if pamunuwa else _bakoglu_stage
    gate = BakogluModel(model.tech, model.config, model.activity_factor)
    view = model._optimistic_config()
    segment = length / count
    input_cap = gate.input_capacitance(size)
    if receiver_cap is None:
        receiver_cap = input_cap
    stage_delays = []
    for index in range(count):
        next_cap = input_cap if index + 1 < count else receiver_cap
        stage_delays.append(stage(model, size, segment, next_cap))
    wire_cap = view.ground_capacitance_per_meter() * length
    if pamunuwa:
        wire_cap += view.coupling_capacitance_per_meter() * length
    p_dynamic = bus_width * dynamic_power(
        wire_cap + count * input_cap, model.tech.vdd,
        model.tech.clock_frequency, model.activity_factor)
    return InterconnectEstimate(
        delay=sum(stage_delays),
        output_slew=0.0,
        stage_delays=tuple(stage_delays),
        dynamic_power=p_dynamic,
        leakage_power=bus_width * count * gate.repeater_leakage(size),
        repeater_area=bus_width * count * gate.repeater_area(size),
        wire_area=wire_area(model.config, length, bus_width),
        num_repeaters=count,
        repeater_size=size,
        length=length,
        bus_width=bus_width,
    )


@pytest.fixture(params=["bakoglu", "pamunuwa"])
def baseline(request, suite90):
    """A fresh instance, so its cached wire view starts empty."""
    model = getattr(suite90, request.param)
    return type(model)(model.tech, model.config, model.activity_factor)


class TestCachedWireView:
    @pytest.mark.parametrize("count", [1, 2, 7, 64])
    @pytest.mark.parametrize("receiver_cap", [None, fF(23)])
    def test_evaluate_equals_per_stage_reference(self, baseline, count,
                                                 receiver_cap):
        length, size, bus_width = mm(7), 21.5, 4
        actual = baseline.evaluate(length, count, size, ps(100),
                                   bus_width=bus_width,
                                   receiver_cap=receiver_cap)
        expected = _reference_evaluate(baseline, length, count, size,
                                       bus_width, receiver_cap)
        assert actual._asdict() == expected._asdict()

    def test_cache_keys_and_pickles_unchanged_once_filled(self,
                                                          baseline):
        key = fingerprint(baseline)
        empty = pickle.loads(pickle.dumps(baseline))
        estimate = baseline.evaluate(mm(5), 5, 16.0)
        assert "_wire_per_meter" in vars(baseline)
        assert fingerprint(baseline) == key
        restored = pickle.loads(pickle.dumps(baseline))
        assert restored == baseline == empty
        assert fingerprint(restored) == key
        assert restored.evaluate(mm(5), 5, 16.0) == estimate
        assert empty.evaluate(mm(5), 5, 16.0) == estimate


class TestBakoglu:
    def test_estimate_interface_compatible(self, suite90):
        estimate = suite90.bakoglu.evaluate(mm(5), 5, 16.0, ps(100))
        assert estimate.delay > 0
        assert estimate.dynamic_power > 0
        assert estimate.leakage_power > 0
        assert estimate.num_repeaters == 5

    def test_slew_independent(self, suite90):
        fast = suite90.bakoglu.evaluate(mm(5), 5, 16.0, ps(10))
        slow = suite90.bakoglu.evaluate(mm(5), 5, 16.0, ps(500))
        assert fast.delay == pytest.approx(slow.delay)

    def test_neglects_coupling_in_power(self, suite90):
        # Bakoglu's switched capacitance excludes lateral capacitance,
        # so its dynamic power is far below the proposed model's.
        bakoglu = suite90.bakoglu.evaluate(mm(5), 5, 16.0, ps(100))
        proposed = suite90.proposed.evaluate(mm(5), 5, 16.0, ps(100))
        assert bakoglu.dynamic_power < 0.6 * proposed.dynamic_power

    def test_underestimates_delay_on_long_coupled_lines(self, suite90):
        bakoglu = suite90.bakoglu.evaluate(mm(10), 10, 32.0, ps(300))
        proposed = suite90.proposed.evaluate(mm(10), 10, 32.0, ps(300))
        assert bakoglu.delay < proposed.delay

    def test_simplistic_area_much_smaller(self, suite90):
        bakoglu = suite90.bakoglu.evaluate(mm(5), 5, 16.0, ps(100))
        proposed = suite90.proposed.evaluate(mm(5), 5, 16.0, ps(100))
        assert bakoglu.repeater_area < 0.2 * proposed.repeater_area

    def test_drive_resistance_inverse_in_size(self, suite90):
        r4 = suite90.bakoglu.drive_resistance(4.0)
        r16 = suite90.bakoglu.drive_resistance(16.0)
        assert r4 == pytest.approx(4 * r16, rel=1e-9)

    def test_validation(self, suite90):
        with pytest.raises(ValueError):
            suite90.bakoglu.evaluate(0.0, 1, 8.0)
        with pytest.raises(ValueError):
            suite90.bakoglu.evaluate(mm(1), 0, 8.0)


class TestPamunuwa:
    def test_includes_coupling_in_delay(self, suite90):
        bakoglu = suite90.bakoglu.evaluate(mm(10), 10, 32.0)
        pamunuwa = suite90.pamunuwa.evaluate(mm(10), 10, 32.0)
        assert pamunuwa.delay > bakoglu.delay

    def test_includes_coupling_in_power(self, suite90):
        bakoglu = suite90.bakoglu.evaluate(mm(5), 5, 16.0)
        pamunuwa = suite90.pamunuwa.evaluate(mm(5), 5, 16.0)
        assert pamunuwa.dynamic_power > bakoglu.dynamic_power

    def test_still_optimistic_about_resistance(self, suite90):
        # Bulk resistivity + no barrier: the Pamunuwa wire resistance
        # is below the calibrated one.
        assert suite90.pamunuwa.wire_resistance(mm(1)) < \
            suite90.config.resistance_per_meter() * mm(1)

    def test_slew_independent(self, suite90):
        fast = suite90.pamunuwa.evaluate(mm(5), 5, 16.0, ps(10))
        slow = suite90.pamunuwa.evaluate(mm(5), 5, 16.0, ps(500))
        assert fast.delay == pytest.approx(slow.delay)

    def test_validation(self, suite90):
        with pytest.raises(ValueError):
            suite90.pamunuwa.evaluate(0.0, 1, 8.0)
        with pytest.raises(ValueError):
            suite90.pamunuwa.evaluate(mm(1), 0, 8.0)


class TestOrderingAcrossModels:
    def test_delay_ordering_on_coupled_lines(self, suite90):
        """Bakoglu < Pamunuwa < proposed on long SWSS lines."""
        b = suite90.bakoglu.evaluate(mm(10), 10, 32.0, ps(300)).delay
        p = suite90.pamunuwa.evaluate(mm(10), 10, 32.0, ps(300)).delay
        proposed = suite90.proposed.evaluate(mm(10), 10, 32.0,
                                             ps(300)).delay
        assert b < p < proposed
