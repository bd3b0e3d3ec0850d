"""The classic unweighted Monte-Carlo estimator.

Exactly the historical :func:`monte_carlo_line_delay` flow — stream 0
is the nominal, streams 1..N the draws, on whichever engine was
requested — wrapped to return the extended result type.  The sample
vector is bit-identical to what the pre-estimator code produced, which
the equivalence tests rely on; the other estimators are judged against
this one.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.runtime import spawn_seed_sequences
from repro.signoff.estimators import engines
from repro.signoff.estimators.base import (
    EstimatedVariationResult,
    EstimationRequest,
    EstimatorReport,
)


def run(request: EstimationRequest) -> EstimatedVariationResult:
    """Plain Monte Carlo: one engine evaluation per draw, equal
    weights (delays in seconds)."""
    streams = spawn_seed_sequences(request.seed, request.samples + 1)
    # Stream 0 is the nominal: a sigma-0 draw is the all-ones row.
    nominal = float(engines.evaluate_factors(
        request.engine, request.model, request.line,
        request.input_slew, engines.nominal_factors(request.stages),
        workers=1)[0])
    z = engines.standard_normal_rows(streams[1:], request.dimensions)
    # Draw i is row i, so a TaskError names the diverging draw.
    draws: List[float] = engines.evaluate_factors(
        request.engine, request.model, request.line,
        request.input_slew,
        engines.factor_matrix(z, request.variation, request.stages),
        workers=request.workers).tolist()
    values = np.asarray(draws)
    error = float(np.std(values, ddof=1) / np.sqrt(len(values)))
    golden = len(values) if request.engine == "golden" else 0
    report = EstimatorReport(
        estimator="plain",
        standard_error=error,
        ess=float(len(values)),
        golden_evals=golden,
        model_evals=0 if golden else len(values),
    )
    return EstimatedVariationResult(samples=tuple(draws),
                                    nominal_delay=nominal,
                                    report=report)
