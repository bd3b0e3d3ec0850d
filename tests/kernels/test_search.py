"""Lockstep batched searches vs the scalar reference searches.

The lockstep searches follow the scalar trajectory step for step, so
pure delay / pure power objectives must return the *identical*
solution object contents; only the fractional weighted product may
differ by one ulp of ``pow`` and gets a 1e-9 tolerance.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from repro.buffering.optimizer import (
    DEFAULT_INPUT_SLEW,
    DEFAULT_MAX_SIZE,
    _best_size_for_count,
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
    search,
)
from repro.models.interconnect import BufferedInterconnectModel
from repro.tech import DesignStyle, available_nodes
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


def _assert_dispatch_is_scalar(model):
    max_delay = model.tech.clock_period()
    feasible = 0
    for length_mm in (1.0, 4.0, 9.0):
        length = mm(length_mm)
        solution = minimize_power_under_delay(model, length, max_delay)
        assert solution == minimize_power_under_delay_scalar(
            model, length, max_delay, DEFAULT_INPUT_SLEW,
            DEFAULT_MAX_SIZE, 1, _count_candidates(length))
        if solution is not None:
            assert solution.delay <= max_delay
            feasible += 1
    assert feasible >= 2


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


#: A (delay, power) pair that ties every objective comparison.
FLAT_DELAY, FLAT_POWER = ps(200), 1e-3


class _FlatModel:
    """Every buffering of every line costs the same."""

    def evaluate(self, length, count, size, input_slew, bus_width=1):
        return SimpleNamespace(delay=FLAT_DELAY, total_power=FLAT_POWER)


class TestTieBreak:
    """A flat objective ties every golden-section comparison, so the
    lockstep search lands on the scalar search's size only if it
    breaks ties the same way (``f1 <= f2`` keeps the lower probe)."""

    @pytest.mark.parametrize("weight", [1.0, 0.5, 0.0])
    def test_flat_objective_picks_the_scalar_size(self, monkeypatch,
                                                  weight):
        def flat(model, length, counts, sizes, input_slew, bus_width):
            return (np.full(sizes.shape, FLAT_DELAY),
                    np.full(sizes.shape, FLAT_POWER))

        monkeypatch.setattr(search, "_evaluate", flat)
        counts = np.arange(1, 9)
        sizes, _, _ = search._best_sizes_for_counts(
            None, mm(5), counts, DEFAULT_INPUT_SLEW, weight,
            DEFAULT_MAX_SIZE, 1)
        scalar = [_best_size_for_count(
            _FlatModel(), mm(5), int(count), DEFAULT_INPUT_SLEW, weight,
            DEFAULT_MAX_SIZE, 1).repeater_size for count in counts]
        assert sizes.tolist() == scalar


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

    def test_dispatcher_is_the_scalar_search(self, proposed):
        """``minimize_power_under_delay`` returns the scalar search's
        solution, bit for bit, for the proposed model at both nodes
        and styles."""
        _assert_dispatch_is_scalar(proposed)

    def test_dispatcher_is_the_scalar_search_on_baselines(self,
                                                          baseline):
        _assert_dispatch_is_scalar(baseline)


@pytest.fixture(scope="module", params=available_nodes())
def node_model(request):
    return ModelSuite.for_node(request.param).proposed


class TestEveryNode:
    """The lockstep searches hold the scalar searches' bits at every
    node, not only at 90 nm."""

    def test_link_sweep_at_the_clock_period_bit_equal(self,
                                                      node_model):
        max_delay = node_model.tech.clock_period()
        feasible = 0
        for length_mm in range(1, 9):
            scalar, kernel = _both_minimize(node_model, mm(length_mm),
                                            max_delay)
            assert scalar == kernel
            feasible += scalar is not None
        assert feasible >= 1

    @pytest.mark.parametrize("weight", [1.0, 0.0])
    def test_pure_objectives_bit_equal(self, node_model, weight):
        for length_mm in (1.0, 5.0):
            scalar, kernel = _both_optimize(node_model, mm(length_mm),
                                            weight)
            assert scalar == kernel


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
    model) returns, although it skips the probes whose verdict its
    regula-falsi bracket and the count candidate lists let it infer.
    The inference assumes the fastest delay never falls as the length
    grows within one candidate list; these cases check it, including
    one (32 nm SWSS Pamunuwa) where a new count makes a longer line
    feasible again."""

    def test_kernel_and_scalar_agree(self, model):
        max_delay = model.tech.clock_period()
        scalar_only = _ScalarOnly(model.tech, model.calibration,
                                  model.config, model.activity_factor)
        assert max_feasible_length(model, max_delay) == \
            max_feasible_length(scalar_only, max_delay)

    @pytest.mark.parametrize("periods", [0.5, 0.95, 1.0, 1.25, 3.0])
    def test_equals_serial_bisection(self, proposed, periods):
        """At 90 nm SWSS the 0.95- and 1.25-period crossings lie near
        14.5 and 19.1 mm."""
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
