"""Vectorized NumPy lanes over the closed-form models.

The hot paths evaluate the paper's closed forms thousands of times
with different arguments — Monte-Carlo variation draws, repeater-count
x size candidate grids, length sweeps.  The equations themselves live
once, in :mod:`repro.models`, and accept floats or arrays; this package
runs them as NumPy broadcasting over lanes, so one call replaces
thousands of scalar invocations:

* :mod:`repro.kernels.line` — the composed buffered-line delay/power
  over ``(count, size, length)`` lanes
  (:func:`~repro.kernels.line.evaluate_line_batch`), and
  :func:`~repro.kernels.line.array_path`, which says whether a model
  takes the closed-form lane or the scalar paths;
* :mod:`repro.kernels.search` — lockstep golden-section / bisection
  searches over all repeater-count lanes at once, reproducing the
  scalar optimizer's trajectory decision-for-decision;
* :mod:`repro.kernels.variation` — perturbed line delay over a whole
  Monte-Carlo factor matrix in one call.

Contracts:

* **Equivalence** — the lanes call the models' own functions and keep
  the scalar paths' accumulation order (sequential, not ``np.sum``),
  so every lane is bit-identical to the matching scalar call; the
  tests compare them with ``==``.  The one exception is the fractional
  weighted search objective, where ``pow`` may differ by one ulp.
* **No RNG** — kernels are pure array transforms.  All random draws
  happen in the caller (which owns the ``SeedSequence`` streams) and
  arrive as arrays; ``repro lint`` enforces this.
* **Observability** — batch entry points record the
  ``kernels.batches`` / ``kernels.batch_size`` counters and the
  ``kernels.batch`` timer, from which the ``--stats`` footer derives
  ``kernels.throughput``, and open ``trace.span`` spans.
"""

from __future__ import annotations

from repro.kernels.line import (
    LineBatch,
    array_path,
    evaluate_line_batch,
)
from repro.kernels.search import (
    minimize_power_under_delay_batch,
    optimize_buffering_batch,
)
from repro.kernels.variation import line_delay_batch

__all__ = [
    "LineBatch",
    "array_path",
    "evaluate_line_batch",
    "line_delay_batch",
    "minimize_power_under_delay_batch",
    "optimize_buffering_batch",
]
