"""Lockstep batched searches vs the scalar reference searches.

The lockstep searches follow the scalar trajectory step for step, so
pure delay / pure power objectives must return the *identical*
solution object contents; only the fractional weighted product may
differ by one ulp of ``pow`` and gets a 1e-9 tolerance.
"""

from dataclasses import dataclass

import pytest

from repro.buffering.optimizer import (
    DEFAULT_INPUT_SLEW,
    DEFAULT_MAX_SIZE,
    _count_candidates,
    max_feasible_length,
    minimize_power_under_delay_scalar,
    optimize_buffering,
    optimize_buffering_scalar,
)
from repro.kernels import (
    minimize_power_under_delay_batch,
    optimize_buffering_batch,
)
from repro.models.interconnect import BufferedInterconnectModel
from repro.units import mm, ps

RTOL = 1e-9

COUNTS = list(range(1, 21))


@pytest.fixture(scope="module")
def model(suite90):
    return suite90.proposed


def _both_optimize(model, length, weight):
    args = (model, length, COUNTS, weight, DEFAULT_INPUT_SLEW,
            DEFAULT_MAX_SIZE, 1)
    return optimize_buffering_scalar(*args), optimize_buffering_batch(*args)


def _both_minimize(model, length, max_delay):
    args = (model, length, max_delay, DEFAULT_INPUT_SLEW,
            DEFAULT_MAX_SIZE, 1, _count_candidates(length))
    return (minimize_power_under_delay_scalar(*args),
            minimize_power_under_delay_batch(*args))


class TestOptimizeBuffering:
    @pytest.mark.parametrize("weight", [1.0, 0.0])
    def test_pure_objectives_bit_equal(self, model, weight):
        scalar, kernel = _both_optimize(model, mm(5), weight)
        assert scalar == kernel

    def test_weighted_objective_within_tolerance(self, model):
        scalar, kernel = _both_optimize(model, mm(5), 0.5)
        assert kernel.num_repeaters == scalar.num_repeaters
        assert kernel.repeater_size == pytest.approx(
            scalar.repeater_size, rel=RTOL)
        assert kernel.objective == pytest.approx(
            scalar.objective, rel=RTOL)

    def test_auto_dispatch_matches_explicit(self, model):
        auto = optimize_buffering(model, mm(3), counts=COUNTS)
        explicit = optimize_buffering_batch(
            model, mm(3), COUNTS, 0.5, DEFAULT_INPUT_SLEW,
            DEFAULT_MAX_SIZE, 1)
        assert auto == explicit


class TestMinimizePowerUnderDelay:
    @pytest.mark.parametrize("max_delay_ps", [300.0, 500.0, 1000.0])
    def test_feasible_bounds_bit_equal(self, model, max_delay_ps):
        scalar, kernel = _both_minimize(model, mm(5), ps(max_delay_ps))
        assert scalar is not None
        assert scalar == kernel

    def test_lanes_meeting_the_bound_at_minimum_size(self, model):
        """At 1 mm and 780 ps, size 1 already meets the bound on the
        1- and 2-repeater lanes but not on the 3- and 4-repeater
        lanes, so both the keep-the-minimum and the bisection branch
        run in one search."""
        length, max_delay = mm(1), ps(780)
        at_minimum = [model.evaluate(length, count, 1.0,
                                     DEFAULT_INPUT_SLEW).delay
                      <= max_delay for count in (1, 2, 3, 4)]
        assert at_minimum == [True, True, False, False]
        scalar, kernel = _both_minimize(model, length, max_delay)
        assert scalar is not None
        assert scalar == kernel

    def test_infeasible_bound_is_none_for_both(self, model):
        scalar, kernel = _both_minimize(model, mm(5), ps(150))
        assert scalar is None
        assert kernel is None


@dataclass(frozen=True)
class _ScalarOnly(BufferedInterconnectModel):
    """The plain model under another type, so no array path serves it
    and every search takes the scalar reference."""


class TestMaxFeasibleLength:
    def test_kernel_and_scalar_agree(self, model):
        max_delay = model.tech.clock_period()
        scalar_only = _ScalarOnly(model.tech, model.calibration,
                                  model.config, model.activity_factor)
        assert max_feasible_length(model, max_delay) == \
            max_feasible_length(scalar_only, max_delay)


class TestDispatchValidation:
    @pytest.fixture(scope="class")
    def slew_aware(self, suite90):
        from repro.models.extensions import SlewAwareInterconnectModel
        return SlewAwareInterconnectModel(
            suite90.tech, suite90.proposed.calibration,
            suite90.proposed.config)

    def test_forcing_kernels_on_unsupported_model_raises(self,
                                                         slew_aware):
        with pytest.raises(TypeError):
            optimize_buffering_batch(slew_aware, mm(5), COUNTS, 0.5,
                                     DEFAULT_INPUT_SLEW,
                                     DEFAULT_MAX_SIZE, 1)

    def test_unsupported_model_auto_falls_back(self, slew_aware):
        solution = optimize_buffering(slew_aware, mm(5))
        assert solution == optimize_buffering_scalar(
            slew_aware, mm(5), COUNTS, 0.5, DEFAULT_INPUT_SLEW,
            DEFAULT_MAX_SIZE, 1)
