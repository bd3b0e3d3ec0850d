"""Kernel batch evaluation vs the scalar golden reference.

The lanes call the model's own stage and power/area functions in the
scalar loop's order, so every field must be bit-identical.
"""

import dataclasses

import numpy as np
import pytest

from repro.characterization import RepeaterKind
from repro.experiments.suite import ModelSuite
from repro.kernels import array_path, evaluate_line_batch
from repro.models.extensions import SlewAwareInterconnectModel
from repro.models.interconnect import BufferedInterconnectModel
from repro.tech import DesignStyle, available_nodes
from repro.units import mm, ps

FIELDS = ("delay", "output_slew", "dynamic_power", "leakage_power",
          "repeater_area", "wire_area", "total_power")


def _assert_lane_equals(batch, index, estimate):
    for field in FIELDS:
        assert getattr(batch, field)[index] == getattr(estimate, field), \
            field


def _slew_aware(suite90):
    return SlewAwareInterconnectModel(suite90.tech,
                                      suite90.proposed.calibration,
                                      suite90.proposed.config)


@pytest.fixture(scope="module")
def model(suite90):
    return suite90.proposed


class TestSupportsModel:
    """:func:`array_path` is the one place that picks a lane."""

    def test_plain_model_supported(self, model):
        assert array_path(model) is True

    def test_subclass_rejected(self, suite90):
        slew_aware = _slew_aware(suite90)
        # The subclass overrides the stage step, which takes scalars
        # only.
        assert isinstance(slew_aware, BufferedInterconnectModel)
        assert array_path(slew_aware) is False

    def test_non_model_rejected(self, suite90):
        assert array_path(object()) is False
        assert array_path(suite90.bakoglu) is False


class TestBatchMatchesScalar:
    def test_every_field_over_size_sweep(self, model):
        sizes = np.linspace(1.0, 128.0, 64)
        batch = evaluate_line_batch(model, mm(5), 8, sizes, ps(100))
        for index, size in enumerate(sizes):
            _assert_lane_equals(batch, index, model.evaluate(
                mm(5), 8, float(size), ps(100)))

    def test_count_axis_and_broadcasting(self, model):
        counts = np.array([1, 2, 4, 8, 16])
        batch = evaluate_line_batch(model, mm(5), counts, 32.0, ps(100))
        assert batch.delay.shape == counts.shape
        for index, count in enumerate(counts):
            _assert_lane_equals(batch, index, model.evaluate(
                mm(5), int(count), 32.0, ps(100)))

    def test_length_axis(self, model):
        lengths = np.array([mm(1), mm(3), mm(7)])
        batch = evaluate_line_batch(model, lengths, 6, 40.0, ps(100))
        for index, length in enumerate(lengths):
            _assert_lane_equals(batch, index, model.evaluate(
                float(length), 6, 40.0, ps(100)))

    def test_bus_width_and_receiver_cap(self, model):
        receiver = model.repeater_model().input_capacitance(64.0)
        batch = evaluate_line_batch(model, mm(4), 5, 24.0, ps(100),
                                    bus_width=128,
                                    receiver_cap=receiver)
        _assert_lane_equals(batch, 0, model.evaluate(
            mm(4), 5, 24.0, ps(100), bus_width=128,
            receiver_cap=receiver))

    def test_buffer_kind_input_cap_branch(self, suite90):
        """BUFFER calibrations hit the first-stage clamp branch."""
        from repro.models.calibration import load_calibration
        calibration = load_calibration(suite90.tech, RepeaterKind.BUFFER)
        model = BufferedInterconnectModel(suite90.tech, calibration,
                                          suite90.proposed.config)
        sizes = np.array([1.0, 2.0, 8.0, 64.0])
        batch = evaluate_line_batch(model, mm(3), 4, sizes, ps(100))
        for index, size in enumerate(sizes):
            estimate = model.evaluate(mm(3), 4, float(size), ps(100))
            assert type(estimate.delay) is float
            _assert_lane_equals(batch, index, estimate)


class TestValidation:
    def test_rejects_unsupported_model(self, suite90):
        slew_aware = _slew_aware(suite90)
        with pytest.raises(TypeError):
            evaluate_line_batch(slew_aware, mm(5), 8, 32.0, ps(100))

    def test_rejects_nonpositive_inputs(self, model):
        with pytest.raises(ValueError):
            evaluate_line_batch(model, 0.0, 8, 32.0, ps(100))
        with pytest.raises(ValueError):
            evaluate_line_batch(model, mm(5), 0, 32.0, ps(100))
        with pytest.raises(ValueError):
            evaluate_line_batch(model, mm(5), 8, 0.0, ps(100))

    def test_metrics_record_batch_size(self, model):
        from repro.runtime.metrics import METRICS
        before = METRICS.counters.get("kernels.batch_size", 0)
        evaluate_line_batch(model, mm(5), 8,
                            np.linspace(1.0, 64.0, 17), ps(100))
        assert METRICS.counters["kernels.batch_size"] == before + 17


class TestLineBatchDataclass:
    def test_total_power_is_dynamic_plus_leakage(self, model):
        batch = evaluate_line_batch(model, mm(5), 8,
                                    np.array([8.0, 32.0]), ps(100))
        np.testing.assert_array_equal(
            batch.total_power, batch.dynamic_power + batch.leakage_power)

    def test_frozen(self, model):
        batch = evaluate_line_batch(model, mm(5), 8, 32.0, ps(100))
        with pytest.raises(dataclasses.FrozenInstanceError):
            batch.delay = None


class TestEveryNodeAndStyle:
    """The closed-form lane is the only lane, so it must hold the
    scalar model's bits wherever the model runs, not only at 90 nm
    SWSS: every node, every design style, both repeater kinds."""

    LENGTHS = np.array([mm(0.5), mm(4), mm(13)]).reshape(3, 1, 1)
    COUNTS = np.array([1, 3, 11]).reshape(1, 3, 1)
    SIZES = np.array([1.0, 6.5, 40.0, 128.0]).reshape(1, 1, 4)

    def _assert_grid_equals_scalar(self, model):
        batch = evaluate_line_batch(model, self.LENGTHS, self.COUNTS,
                                    self.SIZES, ps(100))
        assert batch.delay.shape == (3, 3, 4)
        for index in np.ndindex(batch.delay.shape):
            estimate = model.evaluate(
                float(self.LENGTHS[index[0], 0, 0]),
                int(self.COUNTS[0, index[1], 0]),
                float(self.SIZES[0, 0, index[2]]), ps(100))
            for field in FIELDS:
                assert getattr(batch, field)[index] == \
                    getattr(estimate, field), (index, field)

    @pytest.mark.parametrize("style", list(DesignStyle),
                             ids=lambda style: style.value)
    @pytest.mark.parametrize("node", available_nodes())
    def test_inverter_lanes_equal_scalar(self, node, style):
        model = ModelSuite.for_node(node, style=style).proposed
        assert array_path(model) is True
        self._assert_grid_equals_scalar(model)

    @pytest.mark.parametrize("node", available_nodes())
    def test_buffer_lanes_equal_scalar(self, node):
        model = ModelSuite.for_node(node,
                                    kind=RepeaterKind.BUFFER).proposed
        assert array_path(model) is True
        self._assert_grid_equals_scalar(model)
