"""Decision-sensitivity experiment."""

import pytest

from repro.experiments import sensitivity
from repro.experiments.sensitivity import (
    perturb_calibration,
    perturb_wire_view,
)
from repro.units import mm


class TestPerturbations:
    def test_wire_view_scales_parasitics(self, swss90):
        optimistic = perturb_wire_view(swss90, 0.5)
        assert optimistic.resistance_per_meter() == pytest.approx(
            0.5 * swss90.resistance_per_meter())
        assert optimistic.ground_capacitance_per_meter() == \
            pytest.approx(0.5 * swss90.ground_capacitance_per_meter())
        assert optimistic.coupling_capacitance_per_meter() == \
            pytest.approx(0.5 * swss90.coupling_capacitance_per_meter())

    def test_unit_scale_is_identity(self, swss90):
        same = perturb_wire_view(swss90, 1.0)
        assert same.resistance_per_meter() == pytest.approx(
            swss90.resistance_per_meter())

    def test_wire_view_validation(self, swss90):
        with pytest.raises(ValueError):
            perturb_wire_view(swss90, 0.0)

    def test_calibration_perturbation(self, calibration90):
        from repro.units import ps, um
        doubled = perturb_calibration(calibration90, 2.0)
        assert doubled.rise.drive_resistance(ps(100), um(4)) == \
            pytest.approx(
                2 * calibration90.rise.drive_resistance(ps(100), um(4)))
        with pytest.raises(ValueError):
            perturb_calibration(calibration90, -1.0)

    def test_optimistic_model_predicts_less_delay(self, suite90):
        from repro.models.interconnect import BufferedInterconnectModel
        from repro.units import ps
        optimistic = BufferedInterconnectModel(
            tech=suite90.tech, calibration=suite90.calibration,
            config=perturb_wire_view(suite90.config, 0.5))
        accurate = suite90.proposed
        assert optimistic.evaluate(mm(5), 5, 16.0, ps(100)).delay < \
            accurate.evaluate(mm(5), 5, 16.0, ps(100)).delay


class TestSensitivitySweep:
    @pytest.fixture(scope="class")
    def result(self):
        return sensitivity.run(node="90nm",
                               scales=(0.5, 1.0, 1.5))

    def test_unit_scale_has_zero_regret(self, result):
        baseline = result.baseline_row()
        assert baseline.regret == pytest.approx(0.0, abs=1e-9)
        assert baseline.topology_similarity == pytest.approx(1.0)
        assert baseline.estimation_error == pytest.approx(0.0,
                                                          abs=1e-9)

    def test_regret_never_negative(self, result):
        # No perturbed model can beat the accurate model's architecture
        # *as costed by the accurate model* (it optimizes that metric).
        for row in result.rows:
            assert row.regret >= -1e-6, row.scale

    def test_optimistic_model_underestimates_itself(self, result):
        optimistic = result.rows[0]
        assert optimistic.scale < 1.0
        assert optimistic.estimation_error < 0.0

    def test_pessimistic_model_overestimates_itself(self, result):
        pessimistic = result.rows[-1]
        assert pessimistic.scale > 1.0
        assert pessimistic.estimation_error > 0.0

    def test_format(self, result):
        text = result.format()
        assert "regret" in text
        assert "90nm" in text
