"""The variation kernel: alpha-power width mapping + batched MC."""

import numpy as np
import pytest

from repro.experiments.suite import ModelSuite
from repro.kernels.variation import line_delay_batch
from repro.signoff.variation import OVERDRIVE_FLOOR, _effective_width
from repro.tech import available_nodes
from repro.units import mm, ps


@pytest.fixture(scope="module")
def model(suite90):
    return suite90.proposed


class TestEffectiveWidths:
    def test_unit_factors_are_identity(self, tech90):
        width = tech90.min_nmos_width * 8
        ones = np.ones(5)
        out = _effective_width(tech90.nmos, width, tech90.vdd, ones,
                               ones)
        np.testing.assert_array_equal(out, np.full(5, width))

    def test_drive_factor_scales_linearly(self, tech90):
        width = tech90.min_nmos_width * 8
        drives = np.array([0.5, 1.0, 2.0])
        out = _effective_width(tech90.nmos, width, tech90.vdd, drives,
                               np.ones(3))
        np.testing.assert_allclose(out, width * drives)

    def test_higher_vth_weakens_the_device(self, tech90):
        width = tech90.min_nmos_width * 8
        out = _effective_width(tech90.nmos, width, tech90.vdd,
                               np.ones(2), np.array([1.0, 1.3]))
        assert out[1] < out[0]

    def test_overdrive_floor_engages(self, tech90):
        """A vth draw large enough to kill the overdrive is floored,
        not driven negative."""
        width = tech90.min_nmos_width * 8
        huge_vth = np.array([tech90.vdd / tech90.nmos.vth * 2.0])
        out = _effective_width(tech90.nmos, width, tech90.vdd,
                               np.ones(1), huge_vth)
        nominal_overdrive = tech90.vdd - tech90.nmos.vth
        floor_ratio = OVERDRIVE_FLOOR * tech90.vdd / nominal_overdrive
        expected = width * floor_ratio ** tech90.nmos.alpha
        assert out[0] == pytest.approx(expected)
        assert out[0] > 0


class TestLineDelayBatch:
    def test_all_ones_row_is_the_nominal_delay(self, model):
        receiver = model.repeater_model().input_capacitance(40.0)
        factors = np.ones((3, 6, 4))
        delays = line_delay_batch(model, mm(3), 6, 40.0, receiver,
                                  ps(100), factors)
        estimate = model.evaluate(mm(3), 6, 40.0, ps(100),
                                  receiver_cap=receiver)
        assert delays.shape == (3,)
        np.testing.assert_array_equal(delays, estimate.delay)

    def test_perturbed_rows_differ_from_nominal(self, model):
        receiver = model.repeater_model().input_capacitance(40.0)
        factors = np.ones((2, 6, 4))
        factors[1, :, :] = 1.2
        delays = line_delay_batch(model, mm(3), 6, 40.0, receiver,
                                  ps(100), factors)
        assert delays[1] != delays[0]

    def test_factor_shape_validated(self, model):
        receiver = model.repeater_model().input_capacitance(40.0)
        with pytest.raises(ValueError):
            line_delay_batch(model, mm(3), 6, 40.0, receiver, ps(100),
                             np.ones((4, 5, 4)))
        with pytest.raises(ValueError):
            line_delay_batch(model, mm(3), 6, 40.0, receiver, ps(100),
                             np.ones((4, 6)))


class TestEveryNode:
    """The kernel runs the closed-form stage chain at every node: a
    row of ones is the nominal line, a stronger drive (n or p) speeds
    it up and a higher threshold (n or p) slows it down."""

    @pytest.fixture(params=available_nodes())
    def node_model(self, request):
        return ModelSuite.for_node(request.param).proposed

    def test_all_ones_row_is_the_nominal_delay(self, node_model):
        receiver = node_model.repeater_model().input_capacitance(24.0)
        delays = line_delay_batch(node_model, mm(2), 4, 24.0, receiver,
                                  ps(100), np.ones((2, 4, 4)))
        estimate = node_model.evaluate(mm(2), 4, 24.0, ps(100),
                                       receiver_cap=receiver)
        np.testing.assert_array_equal(delays, estimate.delay)

    def test_drive_and_threshold_move_the_delay(self, node_model):
        receiver = node_model.repeater_model().input_capacitance(24.0)
        factors = np.ones((5, 4, 4))
        factors[1, :, 0] = 1.1    # stronger nMOS
        factors[2, :, 2] = 1.1    # stronger pMOS
        factors[3, :, 1] = 1.1    # higher nMOS threshold
        factors[4, :, 3] = 1.1    # higher pMOS threshold
        nominal, n_drive, p_drive, n_vth, p_vth = line_delay_batch(
            node_model, mm(2), 4, 24.0, receiver, ps(100), factors)
        assert n_drive < nominal and p_drive < nominal
        assert n_vth > nominal and p_vth > nominal
