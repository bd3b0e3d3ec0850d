"""Lockstep batched searches vs the scalar reference searches.

The lockstep searches follow the scalar trajectory step for step, so
pure delay / pure power objectives must return the *identical*
solution object contents; only the fractional weighted product may
differ by one ulp of ``pow`` and gets a 1e-9 tolerance.
"""

import math
from dataclasses import dataclass

import pytest

from repro.buffering.optimizer import (
    DEFAULT_INPUT_SLEW,
    DEFAULT_MAX_SIZE,
    _count_candidates,
    max_feasible_length,
    minimize_power_under_delay,
    minimize_power_under_delay_scalar,
    optimize_buffering,
    optimize_buffering_scalar,
)
from repro.experiments.suite import ModelSuite
from repro.kernels import (
    minimize_power_under_delay_batch,
    optimize_buffering_batch,
)
from repro.models.interconnect import BufferedInterconnectModel
from repro.tech import DesignStyle
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

    @pytest.mark.parametrize("length_mm", [1.0, 2.0, 3.0, 4.0, 5.0,
                                           6.0, 7.0, 8.0])
    def test_link_sweep_at_the_clock_period_bit_equal(
            self, suite90, model, length_mm):
        """The min-power link-design sweep (1-8 mm under one clock
        period): both searches pick the same design, bit for bit."""
        scalar, kernel = _both_minimize(model, mm(length_mm),
                                        suite90.tech.clock_period())
        assert scalar is not None
        assert scalar == kernel

    @pytest.mark.parametrize("length_mm", [15.0, 18.0])
    def test_lut_query_off_the_grid_takes_the_scalar_search(
            self, lut90, length_mm):
        """Past the grid's 14 mm edge no cell crossing serves the
        query, and the dispatched search returns the lockstep one's
        solution."""
        length = mm(length_mm)
        max_delay = 1.25 * lut90.tech.clock_period()
        scalar, kernel = _both_minimize(lut90, length, max_delay)
        assert scalar is not None
        assert scalar == kernel == minimize_power_under_delay(
            lut90, length, max_delay)


@dataclass(frozen=True)
class _ScalarOnly(BufferedInterconnectModel):
    """The plain model under another type, so no array path serves it
    and every search takes the scalar reference."""


def _serial_max_feasible_length(model, max_delay,
                                upper_bound=30e-3,
                                max_size=DEFAULT_MAX_SIZE):
    """Reference bisection: one midpoint per step, each probe an
    ``optimize_buffering`` call, so the model picks the search."""
    def feasible(length):
        solution = optimize_buffering(
            model, length, delay_weight=1.0,
            input_slew=DEFAULT_INPUT_SLEW, max_size=max_size,
            counts=_count_candidates(length))
        return solution.delay <= max_delay

    low = 0.1e-3
    if not feasible(low):
        return 0.0
    high = upper_bound
    if feasible(high):
        return high
    for _ in range(30):
        mid = 0.5 * (low + high)
        if feasible(mid):
            low = mid
        else:
            high = mid
    return low


@pytest.fixture(scope="module", params=[
    ("90nm", DesignStyle.SWSS), ("90nm", DesignStyle.SHIELDED),
    ("45nm", DesignStyle.SWSS), ("45nm", DesignStyle.SHIELDED)],
    ids=lambda case: f"{case[0]}-{case[1].value}")
def proposed(request):
    node, style = request.param
    return ModelSuite.for_node(node, style=style).proposed


@pytest.fixture(scope="module", params=[
    ("90nm", "bakoglu"), ("90nm", "pamunuwa"),
    ("45nm", "bakoglu"), ("45nm", "pamunuwa")],
    ids=lambda case: f"{case[0]}-{case[1]}")
def baseline(request):
    node, name = request.param
    return getattr(ModelSuite.for_node(node), name)


@pytest.fixture(scope="module")
def pamunuwa32():
    return ModelSuite.for_node("32nm", style=DesignStyle.SWSS).pamunuwa


def _fastest_delay(model, length, max_size=DEFAULT_MAX_SIZE):
    return optimize_buffering_scalar(
        model, length, _count_candidates(length), 1.0,
        DEFAULT_INPUT_SLEW, max_size, 1).delay


class TestMaxFeasibleLength:
    """``max_feasible_length`` returns, bit for bit, what probing every
    midpoint with the model's own search (lockstep for the proposed
    and LUT models) returns, although it skips the probes whose
    verdict its regula-falsi bracket and the count candidate lists
    let it infer.  The inference assumes the fastest delay never
    falls as the length grows within one candidate list; these cases
    check it, including LUT cases where that assumption fails."""

    def test_kernel_and_scalar_agree(self, model):
        max_delay = model.tech.clock_period()
        scalar_only = _ScalarOnly(model.tech, model.calibration,
                                  model.config, model.activity_factor)
        assert max_feasible_length(model, max_delay) == \
            max_feasible_length(scalar_only, max_delay)

    @pytest.mark.parametrize("periods", [0.5, 1.0, 3.0])
    def test_equals_serial_bisection(self, proposed, periods):
        max_delay = periods * proposed.tech.clock_period()
        assert max_feasible_length(proposed, max_delay) == \
            _serial_max_feasible_length(proposed, max_delay)

    @pytest.mark.parametrize("periods", [0.5, 1.0, 3.0])
    def test_equals_serial_bisection_on_baselines(self, baseline,
                                                  periods):
        max_delay = periods * baseline.tech.clock_period()
        assert max_feasible_length(baseline, max_delay) == \
            _serial_max_feasible_length(baseline, max_delay)

    def test_feasibility_returns_past_the_edge(self, pamunuwa32):
        """32 nm SWSS Pamunuwa at 0.7 clock periods fails from about
        4.228 mm, then passes again from about 4.25 mm, where 17
        repeaters join the candidate counts.  A bracket that trusted
        its ends across candidate lists would return the second edge
        near 4.258 mm; the serial bisection returns the first."""
        max_delay = 0.7 * pamunuwa32.tech.clock_period()
        assert _fastest_delay(pamunuwa32, mm(4.249)) > max_delay
        assert _fastest_delay(pamunuwa32, mm(4.252)) <= max_delay
        assert _count_candidates(mm(4.249)) != \
            _count_candidates(mm(4.252))
        longest = max_feasible_length(pamunuwa32, max_delay)
        assert longest == _serial_max_feasible_length(pamunuwa32,
                                                      max_delay)
        assert mm(4.2) < longest < mm(4.249)

    @pytest.mark.parametrize("periods", [0.5, 0.95, 1.0, 1.25])
    def test_equals_serial_bisection_on_lut_model(self, lut90, periods):
        """The crossings (about 7.4, 14.5 and 19.1 mm at 0.5, 0.95 and
        1.25 periods) fall on both sides of the grid's 14 mm edge."""
        max_delay = periods * lut90.tech.clock_period()
        assert max_feasible_length(lut90, max_delay) == \
            _serial_max_feasible_length(lut90, max_delay)

    def test_lut_grid_edge_step(self, lut90):
        """Past the grid's 14 mm edge the LUT falls back to the closed
        form, about 9 ps faster there than the interpolated delay.
        With the bound inside that step the line fails just below the
        edge and passes again just above it.  The edge is also where
        56 repeaters join the candidate counts, so the bisection
        probes across the step instead of inferring over it."""
        edge = lut90.artifact.spec.lengths[-1]
        below = math.nextafter(edge, 0.0)
        above = edge * (1.0 + 1e-9)
        max_delay = 0.5 * (_fastest_delay(lut90, below)
                           + _fastest_delay(lut90, above))
        assert _fastest_delay(lut90, below) > max_delay
        assert _fastest_delay(lut90, above) <= max_delay
        assert _count_candidates(below) != _count_candidates(above)
        longest = max_feasible_length(lut90, max_delay)
        assert longest == _serial_max_feasible_length(lut90, max_delay)
        assert mm(13.5) < longest < edge

    def test_lut_length_node_spike(self, lut90):
        """With ``max_size`` 1.5 the fastest delay exactly at the
        8.08 mm length node, where the validity mask changes, is about
        27 ps above its value 1 um either side, inside one candidate
        list.  The inferred verdicts assume that cannot happen; the
        bisection still matches probing every midpoint because none
        lands on the node."""
        node = lut90.artifact.spec.lengths[8]
        near = (node - mm(0.001), node + mm(0.001))
        max_delay = 0.5 * (_fastest_delay(lut90, node, 1.5)
                           + _fastest_delay(lut90, near[1], 1.5))
        assert _fastest_delay(lut90, node, 1.5) > max_delay
        for length in near:
            assert _fastest_delay(lut90, length, 1.5) <= max_delay
            assert _count_candidates(length) == _count_candidates(node)
        longest = max_feasible_length(lut90, max_delay, max_size=1.5)
        assert longest == _serial_max_feasible_length(
            lut90, max_delay, max_size=1.5)
        assert node < longest < mm(8.25)

    def test_equals_serial_bisection_with_custom_bounds(self, model):
        max_delay = model.tech.clock_period()
        custom = max_feasible_length(model, max_delay,
                                     upper_bound=mm(17.3), max_size=40.0)
        assert custom == _serial_max_feasible_length(
            model, max_delay, upper_bound=mm(17.3), max_size=40.0)
        assert custom < max_feasible_length(model, max_delay) < mm(17.3)

    def test_unreachable_budget_exits_at_zero(self, model):
        assert max_feasible_length(model, ps(1)) == 0.0
        assert _serial_max_feasible_length(model, ps(1)) == 0.0

    def test_generous_budget_exits_at_upper_bound(self, model):
        max_delay = model.tech.clock_period()
        assert max_feasible_length(model, max_delay,
                                   upper_bound=mm(2)) == mm(2)
        assert _serial_max_feasible_length(
            model, max_delay, upper_bound=mm(2)) == mm(2)


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
