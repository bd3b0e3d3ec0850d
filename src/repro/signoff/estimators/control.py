"""Control variates: correct the golden mean with the cheap model.

Evaluate the golden engine Y and the closed-form model X on *common
random numbers* (the very same factor rows), then exploit that X's
expectation is knowable to near-arbitrary precision from cheap model
draws alone:

    ``estimate = mean(Y) - beta * (mean(X) - E[X])``

Because ``E[mean(X) - E[X]] = 0``, the correction is unbiased for any
fixed ``beta``; ``beta = cov(X, Y) / var(X)`` (estimated online by
default) minimizes the variance, shrinking it by the squared
X-Y correlation — and PR 4's model tracks the golden simulator
closely, which is exactly the ISLE observation that a good proxy is
worth more as a variance reducer than as a replacement.

The reference expectation ``E[X]`` comes from ``prepass_samples``
model draws on a labeled stream family; its residual standard error
is folded into the reported error in quadrature.  When the *main*
engine is itself the closed form (``"model"``), X == Y would make the
correction degenerate, so the control variate is instead a linear
z-space surrogate fitted on the reference draws — its expectation is
the fit intercept, exactly (E[z] = 0).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.runtime import spawn_labeled_sequences, \
    spawn_seed_sequences
from repro.signoff.estimators import engines
from repro.signoff.estimators.base import (
    EstimatedVariationResult,
    EstimationRequest,
    EstimatorReport,
)


def _reference_draws(request: EstimationRequest
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """(z, model delays) of the labeled reference pre-pass."""
    root = spawn_labeled_sequences(request.seed, "mc.control", 1)[0]
    z = np.random.default_rng(root).standard_normal(
        (request.prepass_samples, request.dimensions))
    factors = engines.factor_matrix(z, request.variation,
                                    request.stages)
    delays = engines.evaluate_factors(
        "model", request.model, request.line, request.input_slew,
        factors, workers=1)
    return z, delays


def run(request: EstimationRequest) -> EstimatedVariationResult:
    """Control-variate corrected mean delay (seconds)."""
    streams = spawn_seed_sequences(request.seed, request.samples + 1)
    z = engines.standard_normal_rows(streams[1:], request.dimensions)
    factors = engines.factor_matrix(z, request.variation,
                                    request.stages)
    y = engines.evaluate_factors(
        request.engine, request.model, request.line,
        request.input_slew, factors, workers=request.workers)
    nominal = float(engines.evaluate_factors(
        request.engine, request.model, request.line,
        request.input_slew, engines.nominal_factors(request.stages),
        workers=1)[0])

    z_ref, x_ref = _reference_draws(request)
    draws = len(y)
    if request.engine == "golden":
        # The control is the model engine on the same factor rows.
        x = engines.evaluate_factors(
            "model", request.model, request.line, request.input_slew,
            factors, workers=1)
        control_mean = float(np.mean(x_ref))
        control_error = float(np.std(x_ref, ddof=1)
                              / np.sqrt(len(x_ref)))
        model_evals = request.prepass_samples + draws
        golden = draws
    else:
        # Closed-form main engine: X == Y would degenerate, so use a
        # linear z-space surrogate whose expectation is exact.
        design = np.column_stack([np.ones(len(z_ref)), z_ref])
        coefficients = np.linalg.lstsq(design, x_ref, rcond=None)[0]
        x = coefficients[0] + z @ coefficients[1:]
        control_mean = float(coefficients[0])
        control_error = 0.0
        model_evals = request.prepass_samples + draws
        golden = 0

    if request.beta is not None:
        beta = request.beta
    else:
        variance = float(np.var(x, ddof=1))
        if variance > 0.0:
            beta = float(np.cov(x, y, ddof=1)[0, 1] / variance)
        else:
            beta = 0.0

    estimate = float(np.mean(y)
                     - beta * (np.mean(x) - control_mean))
    residual = y - beta * x
    error = float(np.sqrt(np.var(residual, ddof=1) / draws
                          + (beta * control_error) ** 2))
    y_variance = float(np.var(y, ddof=1))
    residual_variance = float(np.var(residual, ddof=1))
    reduction = (y_variance / residual_variance
                 if residual_variance > 0.0 else 1.0)
    report = EstimatorReport(
        estimator="control-variate",
        standard_error=error,
        ess=float(draws),
        golden_evals=golden,
        model_evals=model_evals,
        beta=float(beta),
        control_mean=control_mean,
        variance_reduction=float(reduction),
    )
    return EstimatedVariationResult(
        samples=tuple(float(v) for v in y),
        nominal_delay=nominal,
        estimate=estimate,
        report=report)
