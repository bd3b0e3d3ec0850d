"""Pinned bits of the two searches synthesis runs.

``TestMaxFeasibleLength`` and ``TestMinimizePowerUnderDelay`` compare
two searches over one model's ``evaluate``, so a change that moves a
model's last bits moves both sides alike and passes them.  These
fingerprints pin the answers themselves: a sha256 over ``float.hex``
of every value, recorded before the models cached their per-instance
wire views and hoisted the stage invariants out of their stage loops.

* :func:`max_feasible_length` on a 54-case matrix: the proposed,
  Bakoglu and Pamunuwa models x 90/65/45 nm x SWSS/shielded x 0.5, 1
  and 3 clock periods.
* :func:`minimize_power_under_delay` (count, size and every estimate
  field) on a 0.5-8 mm sweep in 0.5 mm steps at one clock period, for
  the proposed and Bakoglu models at 90 and 45 nm.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.buffering.optimizer import (
    max_feasible_length,
    minimize_power_under_delay,
)
from repro.experiments.suite import ModelSuite
from repro.tech import DesignStyle
from repro.units import mm

#: sha256 of the 54 ``max_feasible_length`` answers, in matrix order.
MAX_LENGTH_FINGERPRINT = \
    "380a1f166c3c4aeb9d7776d3060f124e818fcf3ceea0e5e6e597e98870c84994"

#: sha256 of the 64 ``minimize_power_under_delay`` answers.
MIN_POWER_FINGERPRINT = \
    "2c00952ed0fe01ae135a3a9038820b0a84e65ced32b2b040369938d86c5eccfe"


def _hex(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return "(" + ",".join(_hex(entry) for entry in value) + ")"
    return str(value)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def max_length_lines():
    """One line per matrix case: its name and ``float.hex`` answer."""
    for node in ("90nm", "65nm", "45nm"):
        for style in (DesignStyle.SWSS, DesignStyle.SHIELDED):
            suite = ModelSuite.for_node(node, style=style)
            period = suite.tech.clock_period()
            for name in ("proposed", "bakoglu", "pamunuwa"):
                model = getattr(suite, name)
                for periods in (0.5, 1.0, 3.0):
                    longest = max_feasible_length(model,
                                                  periods * period)
                    yield (f"{node} {style.value} {name} {periods} "
                           f"{_hex(longest)}")


def min_power_lines():
    """One line per sweep point: count, size and every estimate field
    of the cheapest design, or ``None``."""
    for node in ("90nm", "45nm"):
        suite = ModelSuite.for_node(node)
        period = suite.tech.clock_period()
        for name in ("proposed", "bakoglu"):
            model = getattr(suite, name)
            for step in range(1, 17):
                length = mm(0.5 * step)
                solution = minimize_power_under_delay(model, length,
                                                      period)
                if solution is None:
                    fields = "None"
                else:
                    estimate = solution.estimate
                    fields = ",".join(
                        [_hex(solution.num_repeaters),
                         _hex(solution.repeater_size)]
                        + [_hex(getattr(estimate, field))
                           for field in estimate._fields])
                yield f"{node} {name} {_hex(length)} {fields}"


@pytest.mark.parametrize("lines, expected", [
    (max_length_lines, MAX_LENGTH_FINGERPRINT),
    (min_power_lines, MIN_POWER_FINGERPRINT),
], ids=["max_feasible_length", "minimize_power_under_delay"])
def test_search_answers_are_pinned(lines, expected):
    assert _digest(lines()) == expected
