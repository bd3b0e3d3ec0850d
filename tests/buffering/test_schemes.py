"""Closed-form buffering schemes."""

import math

import pytest

from repro.buffering.optimizer import optimize_buffering
from repro.buffering.schemes import delay_optimal_buffering
from repro.experiments.suite import ModelSuite
from repro.models.repeater import RepeaterModel
from repro.models.wire import effective_load_capacitance
from repro.units import mm, ps, um


class TestDelayOptimal:
    def test_count_grows_with_length(self, suite90):
        short = delay_optimal_buffering(suite90.tech,
                                        suite90.calibration,
                                        suite90.config, mm(2))
        long_ = delay_optimal_buffering(suite90.tech,
                                        suite90.calibration,
                                        suite90.config, mm(10))
        assert long_.num_repeaters > short.num_repeaters

    def test_size_is_impractically_large(self, suite90):
        # Section III-D: delay-optimal sizes are never used in practice.
        prescription = delay_optimal_buffering(
            suite90.tech, suite90.calibration, suite90.config, mm(10))
        assert prescription.repeater_size > 50

    def test_size_independent_of_length(self, suite90):
        # h_opt = sqrt(R0 c_w / (r_w C0)) is length-invariant because
        # both c_w and r_w are linear in length.
        a = delay_optimal_buffering(suite90.tech, suite90.calibration,
                                    suite90.config, mm(4))
        b = delay_optimal_buffering(suite90.tech, suite90.calibration,
                                    suite90.config, mm(12))
        assert a.repeater_size == pytest.approx(b.repeater_size,
                                                rel=0.01)

    def test_close_to_searched_delay_optimum(self, suite90):
        """The closed form should land near the search-based optimum."""
        length = mm(8)
        closed = delay_optimal_buffering(
            suite90.tech, suite90.calibration, suite90.config, length)
        searched = optimize_buffering(
            suite90.proposed, length, delay_weight=1.0, max_size=400.0)
        closed_delay = suite90.proposed.evaluate(
            length, closed.num_repeaters,
            min(closed.repeater_size, 400.0), ps(100)).delay
        # The closed form over-inserts repeaters (its wire capacitance
        # includes the Miller-amplified coupling), so it lands within a
        # modest factor of the searched optimum, not on top of it.
        assert closed_delay <= 1.6 * searched.delay

    def test_length_validation(self, suite90):
        with pytest.raises(ValueError):
            delay_optimal_buffering(suite90.tech, suite90.calibration,
                                    suite90.config, 0.0)

    def test_short_line_keeps_one_repeater(self, suite90):
        prescription = delay_optimal_buffering(
            suite90.tech, suite90.calibration, suite90.config, um(50))
        assert prescription.num_repeaters == 1

    def test_count_is_linear_in_length(self, suite90):
        # k_opt = sqrt(0.4 R_w C_w / (0.7 R0 C0)) and R_w C_w grows
        # with length squared; only the rounding separates k(2L) from
        # 2 k(L).
        single = delay_optimal_buffering(suite90.tech,
                                         suite90.calibration,
                                         suite90.config, mm(5))
        double = delay_optimal_buffering(suite90.tech,
                                         suite90.calibration,
                                         suite90.config, mm(10))
        assert abs(double.num_repeaters
                   - 2 * single.num_repeaters) <= 1

    def test_matches_the_bakoglu_formulas(self, suite90):
        length = mm(6)
        repeater = RepeaterModel(tech=suite90.tech,
                                 calibration=suite90.calibration)
        r_wire = suite90.config.resistance_per_meter() * length
        c_wire = effective_load_capacitance(suite90.config, length, 0.0)
        r0 = 0.5 * (repeater.drive_resistance(1.0, ps(100), True)
                    + repeater.drive_resistance(1.0, ps(100), False))
        c0 = repeater.input_capacitance(1.0)
        prescription = delay_optimal_buffering(
            suite90.tech, suite90.calibration, suite90.config, length)
        assert prescription.num_repeaters == round(math.sqrt(
            0.4 * r_wire * c_wire / (0.7 * r0 * c0)))
        assert prescription.repeater_size == pytest.approx(
            math.sqrt(r0 * c_wire / (r_wire * c0)), rel=1e-12)

    def test_slower_reference_slew_buys_larger_fewer_repeaters(
            self, suite90):
        # A slower input slew raises the unit drive resistance R0:
        # h_opt grows as sqrt(R0) and k_opt shrinks as 1/sqrt(R0).
        fast = delay_optimal_buffering(
            suite90.tech, suite90.calibration, suite90.config, mm(10),
            reference_slew=ps(20))
        slow = delay_optimal_buffering(
            suite90.tech, suite90.calibration, suite90.config, mm(10),
            reference_slew=ps(400))
        assert slow.repeater_size > fast.repeater_size
        assert slow.num_repeaters < fast.num_repeaters

    @pytest.mark.parametrize("node", ["90nm", "65nm", "45nm"])
    def test_size_is_impractically_large_at_every_node(self, node):
        suite = ModelSuite.for_node(node)
        prescription = delay_optimal_buffering(
            suite.tech, suite.calibration, suite.config, mm(10))
        assert prescription.repeater_size > 50

    def test_scaled_nodes_need_more_repeaters(self):
        # Per-meter wire resistance grows faster than the repeaters
        # speed up, so the same 10 mm line needs more stages at every
        # smaller node.
        counts = []
        for node in ("90nm", "65nm", "45nm"):
            suite = ModelSuite.for_node(node)
            counts.append(delay_optimal_buffering(
                suite.tech, suite.calibration, suite.config,
                mm(10)).num_repeaters)
        assert counts[0] < counts[1] < counts[2]
