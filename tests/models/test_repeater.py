"""Repeater model behaviour."""

import pytest

from repro.models.repeater import RepeaterModel
from repro.units import fF, ps


@pytest.fixture(scope="module")
def model(suite90):
    return RepeaterModel(tech=suite90.tech,
                         calibration=suite90.calibration)


class TestDelay:
    def test_positive(self, model):
        assert model.delay(8.0, ps(100), fF(50)) > 0

    def test_linear_in_load(self, model):
        d1 = model.delay(8.0, ps(100), fF(20))
        d2 = model.delay(8.0, ps(100), fF(40))
        d3 = model.delay(8.0, ps(100), fF(60))
        assert d3 - d2 == pytest.approx(d2 - d1, rel=1e-9)

    def test_decreases_with_size(self, model):
        small = model.delay(4.0, ps(100), fF(100))
        large = model.delay(32.0, ps(100), fF(100))
        assert large < small

    def test_increases_with_slew(self, model):
        fast = model.delay(8.0, ps(30), fF(50))
        slow = model.delay(8.0, ps(300), fF(50))
        assert slow > fast

    def test_rise_fall_differ(self, model):
        rise = model.delay(8.0, ps(100), fF(50), rising_output=True)
        fall = model.delay(8.0, ps(100), fF(50), rising_output=False)
        assert rise != pytest.approx(fall, rel=0.01)

    def test_average_and_worst(self, model):
        rise = model.delay(8.0, ps(100), fF(50), True)
        fall = model.delay(8.0, ps(100), fF(50), False)
        assert model.average_delay(8.0, ps(100), fF(50)) == \
            pytest.approx(0.5 * (rise + fall))
        assert model.worst_delay(8.0, ps(100), fF(50)) == \
            pytest.approx(max(rise, fall))


class TestTransitionWidth:
    def test_pmos_for_rise_nmos_for_fall(self, model, tech90):
        wn, wp = tech90.inverter_widths(8.0)
        assert model.transition_width(8.0, True) == pytest.approx(wp)
        assert model.transition_width(8.0, False) == pytest.approx(wn)


class TestOutputSlew:
    def test_positive_and_grows_with_load(self, model):
        s1 = model.output_slew(8.0, ps(100), fF(20))
        s2 = model.output_slew(8.0, ps(100), fF(200))
        assert 0 < s1 < s2


class TestInputCapacitance:
    def test_proportional_to_size(self, model):
        assert model.input_capacitance(16.0) == pytest.approx(
            4 * model.input_capacitance(4.0))

    def test_close_to_device_value(self, model, tech90):
        # gamma is fit on gate capacitance that is linear by
        # construction, so the model should be nearly exact.
        wn, wp = tech90.inverter_widths(8.0)
        expected = tech90.nmos.c_gate * wn + tech90.pmos.c_gate * wp
        assert model.input_capacitance(8.0) == pytest.approx(expected,
                                                             rel=0.02)


class TestDriveResistance:
    def test_inverse_in_size(self, model):
        r4 = model.drive_resistance(4.0, ps(100))
        r16 = model.drive_resistance(16.0, ps(100))
        assert r4 == pytest.approx(4 * r16, rel=1e-9)


class TestValidation:
    def test_mismatched_calibration_rejected(self, suite90):
        from repro.tech import get_technology
        with pytest.raises(ValueError, match="does not match"):
            RepeaterModel(tech=get_technology("45nm"),
                          calibration=suite90.calibration)
