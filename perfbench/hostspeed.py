"""Host-speed calibration: time an operation at a fixed reference speed.

The shared host's own speed drifts by tens of percent within a minute
and between minutes, and CPU time tracks wall time, so the drift is not
preemption that a minimum over repeats could filter out.  A fixed loop
of small dense solves -- the kind of work a golden transient step does
-- is timed right before and right after an operation, and the
operation's seconds are scaled to the speed at which the loop takes
``NOMINAL_S``.  The loop runs no program code, so a change to the
program moves the scaled time by its own factor and a change of host
speed barely moves it.

On the 2-core host where the benchmark was defined, the medians of
20-s windows of the loop and of a workload's operations correlated at
0.92-0.97 over 4 minutes, but the operations slowed less than the loop:
their log-log slope against it was 0.63-0.87 (0.75 on average over
``table2``, ``synth`` and ``mc_tail``), so the scale is the loop's
speed-up to the power ``EXPONENT``.  That cut the windows' spread from
9-15% to 3-5%.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Tuple

import numpy as np

ITERATIONS = 2000
#: The loop's time at the reference speed: about its median on the
#: host where the benchmark was defined.
NOMINAL_S = 0.015
#: How an operation's time follows the loop's (see the module doc).
EXPONENT = 0.75

_random = np.random.default_rng(12)
_MATRIX = _random.standard_normal((12, 12)) + 12.0 * np.eye(12)
_VECTOR = _random.standard_normal(12)


def loop_seconds() -> float:
    """Seconds the calibration loop takes now."""
    solution = np.linalg.solve(_MATRIX, _VECTOR)     # untimed warm-up
    started = time.perf_counter()
    for _ in range(ITERATIONS):
        solution = np.linalg.solve(_MATRIX, _VECTOR + 1e-3 * solution)
    return time.perf_counter() - started


def scale(seconds: float, loop_before: float, loop_after: float) -> float:
    """``seconds`` at the reference speed, given the loop's time on
    either side of them."""
    speedup = 2.0 * NOMINAL_S / (loop_before + loop_after)
    return seconds * speedup ** EXPONENT


def timed(run: Callable[[], Any]) -> Tuple[Any, Tuple[float, float]]:
    """(result, (seconds, reference seconds)) of one call of ``run``."""
    before = loop_seconds()
    started = time.perf_counter()
    result = run()
    seconds = time.perf_counter() - started
    return result, (seconds, scale(seconds, before, loop_seconds()))
