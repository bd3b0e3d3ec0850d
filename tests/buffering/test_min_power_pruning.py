"""The min-power search's cuts, held ``==`` to the search without them.

:func:`~repro.buffering.optimizer.minimize_power_under_delay_scalar`
skips a repeater count whose size-1 design costs no less than the best
design so far, and stops a count's size bisection at a midpoint that
misses the delay bound and costs no less than the best.  Both rest on
one premise: at a fixed count, total power never falls as the repeater
size grows.

* ``test_power_never_falls_as_size_grows`` checks the premise on every
  shipped model: the proposed, slew-aware, staggered, Bakoglu and
  Pamunuwa models, inverter and buffer calibrations, SWSS and shielded
  wires, at all six nodes.
* ``test_pruned_search_equals_the_reference`` holds every
  ``BufferingSolution`` ``==`` to :func:`reference_search`, a copy of
  the loop without the cuts, over the same models at 0.5-12 mm, 0.5, 1
  and 2 clock periods and bus widths 1 and 32, and asserts that the
  cuts save ``evaluate`` calls.
"""

from __future__ import annotations

import itertools

import pytest

from repro.buffering.optimizer import (
    DEFAULT_INPUT_SLEW,
    DEFAULT_MAX_SIZE,
    BufferingSolution,
    _best_size_for_count,
    _count_candidates,
    minimize_power_under_delay,
)
from repro.characterization import RepeaterKind
from repro.experiments.suite import ModelSuite
from repro.models.extensions import SlewAwareInterconnectModel
from repro.tech import DesignStyle, available_nodes
from repro.units import mm

LENGTHS_MM = (0.5, 1.5, 3.0, 5.0, 8.0, 12.0)
PERIODS = (0.5, 1.0, 2.0)
BUS_WIDTHS = (1, 32)

#: Repeater sizes of the premise grid: geometric steps of 6% from 1,
#: then the size cap.
SIZES = tuple(1.06**step for step in range(84)) + (DEFAULT_MAX_SIZE,)


def shipped_models(node: str):
    """(label, model) for every shipped model at ``node``."""
    for style in (DesignStyle.SWSS, DesignStyle.SHIELDED):
        for kind in (RepeaterKind.INVERTER, RepeaterKind.BUFFER):
            suite = ModelSuite.for_node(node, style=style, kind=kind)
            proposed = suite.proposed
            prefix = f"{node} {style.value} {kind.value}"
            yield f"{prefix} proposed", proposed
            yield f"{prefix} slew-aware", SlewAwareInterconnectModel(
                proposed.tech, proposed.calibration, proposed.config,
                proposed.activity_factor)
            yield f"{prefix} staggered", proposed.staggered()
        # The baselines take no calibration: either suite's will do.
        yield f"{node} {style.value} bakoglu", suite.bakoglu
        yield f"{node} {style.value} pamunuwa", suite.pamunuwa


def reference_search(model, length, max_delay, input_slew, max_size,
                     bus_width, counts):
    """The min-power search without its cuts: every count gets its
    golden-section search and a full size bisection."""
    best = None
    for count in counts:
        fastest = _best_size_for_count(
            model, length, count, input_slew, 1.0, max_size, bus_width)
        if fastest.delay > max_delay:
            continue
        low, high = 1.0, fastest.repeater_size
        high_est = fastest.estimate
        low_est = model.evaluate(length, count, low, input_slew,
                                 bus_width=bus_width)
        if low_est.delay <= max_delay:
            chosen, chosen_est = low, low_est
        else:
            for _ in range(40):
                if high - low < 0.25:
                    break
                mid = 0.5 * (low + high)
                estimate = model.evaluate(length, count, mid, input_slew,
                                          bus_width=bus_width)
                if estimate.delay <= max_delay:
                    high, high_est = mid, estimate
                else:
                    low = mid
            chosen, chosen_est = high, high_est
        candidate = BufferingSolution(
            count, chosen, chosen_est, chosen_est.total_power)
        if best is None or candidate.estimate.total_power < best.power:
            best = candidate
    return best


class CountingModel:
    """Forwards ``evaluate`` to a model and counts the calls."""

    def __init__(self, model):
        self.model = model
        self.calls = 0

    def evaluate(self, *args, **kwargs):
        self.calls += 1
        return self.model.evaluate(*args, **kwargs)


@pytest.mark.parametrize("node", available_nodes())
def test_power_never_falls_as_size_grows(node):
    for label, model in shipped_models(node):
        for length_mm, count, bus_width in itertools.product(
                (0.5, 3.0, 9.0), (1, 3, 12), BUS_WIDTHS):
            powers = [model.evaluate(mm(length_mm), count, size,
                                     DEFAULT_INPUT_SLEW,
                                     bus_width=bus_width).total_power
                      for size in SIZES]
            falls = [SIZES[i + 1] for i in range(len(SIZES) - 1)
                     if powers[i + 1] < powers[i]]
            assert not falls, (label, length_mm, count, bus_width,
                               falls)


@pytest.mark.parametrize("node", available_nodes())
def test_pruned_search_equals_the_reference(node):
    pruned_calls = reference_calls = feasible = 0
    cases = itertools.product(shipped_models(node), PERIODS, BUS_WIDTHS)
    for index, ((label, model), periods, bus_width) in enumerate(cases):
        max_delay = periods * model.tech.clock_period()
        # Two lengths per case, half the list apart, rotating through
        # all of them.
        for offset in (0, len(LENGTHS_MM) // 2):
            length = mm(LENGTHS_MM[(index + offset) % len(LENGTHS_MM)])
            pruned = CountingModel(model)
            reference = CountingModel(model)
            actual = minimize_power_under_delay(
                pruned, length, max_delay, bus_width=bus_width)
            expected = reference_search(
                reference, length, max_delay, DEFAULT_INPUT_SLEW,
                DEFAULT_MAX_SIZE, bus_width, _count_candidates(length))
            assert actual == expected, (label, length, periods,
                                        bus_width)
            pruned_calls += pruned.calls
            reference_calls += reference.calls
            feasible += expected is not None
    assert feasible > 0
    assert pruned_calls < reference_calls
