"""Buffering optimization."""

import pytest

from repro.buffering.optimizer import (
    max_feasible_length,
    minimize_power_under_delay,
    optimize_buffering,
)
from repro.units import mm, ps


class TestOptimizeBuffering:
    def test_delay_weight_one_minimizes_delay(self, suite90):
        fastest = optimize_buffering(suite90.proposed, mm(5),
                                     delay_weight=1.0)
        balanced = optimize_buffering(suite90.proposed, mm(5),
                                      delay_weight=0.5)
        assert fastest.delay <= balanced.delay * (1 + 1e-6)

    def test_lower_weight_trades_delay_for_power(self, suite90):
        fast = optimize_buffering(suite90.proposed, mm(5),
                                  delay_weight=1.0)
        lean = optimize_buffering(suite90.proposed, mm(5),
                                  delay_weight=0.2)
        assert lean.power < fast.power
        assert lean.delay > fast.delay

    def test_solution_beats_perturbations(self, suite90):
        """Local optimality: neighbours in (count, size) are no better."""
        solution = optimize_buffering(suite90.proposed, mm(5),
                                      delay_weight=0.5)

        def objective(count, size):
            estimate = suite90.proposed.evaluate(mm(5), count, size,
                                                 ps(100))
            return estimate.delay**0.5 * estimate.total_power**0.5

        base = objective(solution.num_repeaters, solution.repeater_size)
        for count_delta in (-1, 1):
            count = solution.num_repeaters + count_delta
            if count >= 1:
                assert base <= objective(
                    count, solution.repeater_size) * 1.02
        for size_factor in (0.8, 1.25):
            assert base <= objective(
                solution.num_repeaters,
                max(solution.repeater_size * size_factor, 1.0)) * 1.02

    def test_practical_size_cap_respected(self, suite90):
        solution = optimize_buffering(suite90.proposed, mm(10),
                                      delay_weight=1.0, max_size=48.0)
        assert solution.repeater_size <= 48.0 + 0.5

    def test_weight_validation(self, suite90):
        with pytest.raises(ValueError):
            optimize_buffering(suite90.proposed, mm(1), delay_weight=1.5)
        with pytest.raises(ValueError):
            optimize_buffering(suite90.proposed, 0.0)

    def test_explicit_counts(self, suite90):
        solution = optimize_buffering(suite90.proposed, mm(5),
                                      counts=[3])
        assert solution.num_repeaters == 3

    def test_works_with_baselines(self, suite90):
        for model in (suite90.bakoglu, suite90.pamunuwa):
            solution = optimize_buffering(model, mm(5),
                                          delay_weight=0.5)
            assert solution.delay > 0
            assert solution.power > 0


class TestMinimizePowerUnderDelay:
    def test_meets_bound(self, suite90):
        bound = ps(500)
        solution = minimize_power_under_delay(suite90.proposed, mm(5),
                                              bound)
        assert solution is not None
        assert solution.delay <= bound * (1 + 1e-6)

    def test_cheaper_than_delay_optimal(self, suite90):
        fastest = optimize_buffering(suite90.proposed, mm(5),
                                     delay_weight=1.0)
        relaxed = minimize_power_under_delay(
            suite90.proposed, mm(5), 2.0 * fastest.delay)
        assert relaxed is not None
        assert relaxed.power <= fastest.power

    def test_infeasible_returns_none(self, suite90):
        solution = minimize_power_under_delay(suite90.proposed, mm(15),
                                              ps(50))
        assert solution is None

    def test_tighter_bound_costs_more_power(self, suite90):
        loose = minimize_power_under_delay(suite90.proposed, mm(5),
                                           ps(800))
        tight = minimize_power_under_delay(suite90.proposed, mm(5),
                                           ps(300))
        assert loose is not None and tight is not None
        assert tight.power >= loose.power

    def test_bound_validation(self, suite90):
        with pytest.raises(ValueError):
            minimize_power_under_delay(suite90.proposed, mm(1), 0.0)


class TestMaxFeasibleLength:
    def test_monotone_in_budget(self, suite90):
        short_budget = max_feasible_length(suite90.proposed, ps(300))
        long_budget = max_feasible_length(suite90.proposed, ps(700))
        assert 0 < short_budget < long_budget

    def test_optimistic_model_allows_longer_wires(self, suite90):
        period = suite90.tech.clock_period()
        accurate = max_feasible_length(suite90.proposed, period)
        optimistic = max_feasible_length(suite90.bakoglu, period)
        # The paper: the original model admits excessively long wires.
        assert optimistic > 1.2 * accurate

    def test_impossible_budget_returns_zero(self, suite90):
        assert max_feasible_length(suite90.proposed, ps(1)) == 0.0


class TestSearchInputValidation:
    """Both searches reject bad inputs with one ``ValueError`` before
    choosing between the lockstep and the scalar implementation."""

    @pytest.fixture(params=["proposed", "bakoglu"])
    def model(self, request, suite90):
        return getattr(suite90, request.param)

    def test_optimize_rejects_empty_counts(self, model):
        with pytest.raises(ValueError, match="counts"):
            optimize_buffering(model, mm(5), counts=[])

    def test_minimize_rejects_empty_counts(self, model):
        with pytest.raises(ValueError, match="counts"):
            minimize_power_under_delay(model, mm(5), ps(500), counts=[])

    def test_optimize_rejects_max_size_below_one(self, model):
        with pytest.raises(ValueError, match="max_size"):
            optimize_buffering(model, mm(5), max_size=0.5)

    def test_minimize_rejects_max_size_below_one(self, model):
        with pytest.raises(ValueError, match="max_size"):
            minimize_power_under_delay(model, mm(5), ps(500),
                                       max_size=0.5)

    @pytest.mark.parametrize("max_delay", [float("nan"), 0.0, -ps(100)])
    def test_minimize_rejects_non_positive_delay_bound(self, model,
                                                       max_delay):
        with pytest.raises(ValueError, match="max_delay"):
            minimize_power_under_delay(model, mm(3), max_delay)

    @pytest.mark.parametrize("max_delay", [float("nan"), 0.0, -ps(100)])
    def test_max_length_rejects_non_positive_delay_bound(self, model,
                                                         max_delay):
        with pytest.raises(ValueError, match="max_delay"):
            max_feasible_length(model, max_delay)

    @pytest.mark.parametrize("upper_bound",
                             [float("nan"), mm(0.1), mm(0.05), -mm(1)])
    def test_max_length_rejects_upper_bound_at_or_below_first_probe(
            self, model, upper_bound):
        with pytest.raises(ValueError, match="upper_bound"):
            max_feasible_length(model, ps(500), upper_bound=upper_bound)

    @pytest.mark.parametrize("length", [float("nan"), float("inf")])
    def test_searches_reject_non_finite_length(self, model, length):
        with pytest.raises(ValueError, match="length"):
            optimize_buffering(model, length)
        with pytest.raises(ValueError, match="length"):
            minimize_power_under_delay(model, length, ps(500))

    def test_max_length_rejects_infinite_upper_bound(self, model):
        with pytest.raises(ValueError, match="upper_bound"):
            max_feasible_length(model, ps(500),
                                upper_bound=float("inf"))

    @pytest.mark.parametrize("input_slew", [float("nan"), float("inf")])
    def test_searches_reject_non_finite_input_slew(self, model,
                                                   input_slew):
        with pytest.raises(ValueError, match="input_slew"):
            optimize_buffering(model, mm(3), input_slew=input_slew)
        with pytest.raises(ValueError, match="input_slew"):
            minimize_power_under_delay(model, mm(3), ps(500),
                                       input_slew=input_slew)
        with pytest.raises(ValueError, match="input_slew"):
            max_feasible_length(model, ps(500), input_slew=input_slew)

    @pytest.mark.parametrize("max_size", [float("nan"), float("inf")])
    def test_searches_reject_non_finite_max_size(self, model, max_size):
        with pytest.raises(ValueError, match="max_size"):
            optimize_buffering(model, mm(3), max_size=max_size)
        with pytest.raises(ValueError, match="max_size"):
            minimize_power_under_delay(model, mm(3), ps(500),
                                       max_size=max_size)
        with pytest.raises(ValueError, match="max_size"):
            max_feasible_length(model, ps(500), max_size=max_size)
