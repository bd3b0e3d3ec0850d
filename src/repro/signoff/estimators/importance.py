"""Importance sampling steered by the closed-form model.

The ISLE recipe (Bayrakci, Demir & Tasiran): a cheap proxy locates the
failure region, the expensive engine samples *there*, and
likelihood-ratio weights restore unbiasedness under the nominal
measure.  Here the proxy is the ``"model"`` engine (the paper's
closed-form model): a pre-pass of ``prepass_samples`` model draws
finds the z-vectors whose model delay crosses the critical threshold
(``critical_delay``, or the model's own mean + 3 sigma when none is
given), and their centroid becomes the mean shift ``mu`` of the
sampling distribution.  The model only has to point in roughly the
right direction — any proxy error is absorbed by the weights, never
biasing the estimate, only costing a little variance.

Main pass: draw ``z`` from the per-draw task streams (the determinism
contract is untouched — same streams, any ``workers`` count), evaluate
the requested engine at ``z' = z + mu``, and weight each draw by

    ``w = phi(z') / phi(z' - mu) = exp(|mu|^2 / 2 - mu . z')``

Two estimators share the machinery: ``"importance"`` is the unbiased
likelihood-ratio form ``mean(w * y)``; ``"importance-sn"`` is the
self-normalized ratio ``sum(w * y) / sum(w)`` — slightly biased at
finite N but often lower-variance, with a delta-method standard
error.  Both report Kong's effective sample size
``(sum w)^2 / sum w^2``.
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

#: Fewest pre-pass tail points the shift may be estimated from; below
#: this the threshold exceedances are topped up with the worst draws.
MIN_TAIL_POINTS = 16


def shift_vector(request: EstimationRequest, engine_nominal: float
                 ) -> "Tuple[np.ndarray, float]":
    """The importance shift ``mu`` in z-space (sigmas, dimensionless)
    and the engine-space tail threshold it targets (seconds).

    A model-engine pre-pass on its own labeled stream family (so the
    per-draw task streams stay untouched) ranks ``prepass_samples``
    cheap draws against the critical threshold (``critical_delay``,
    or the model's pre-pass mean + 3 sigma); ``mu`` is the centroid
    of the exceeding z-vectors.

    The proxy is only *correlated* with the target engine, not equal:
    the closed-form model carries a systematic delay offset against
    the golden simulator, so an absolute golden-space threshold can
    land on the wrong side of the model's distribution.  The pre-pass
    therefore aligns the two scales by the nominal-delay gap —
    ``engine_nominal`` (seconds) is the requesting engine's nominal
    delay, and the selection happens at ``critical_delay +
    (model_nominal - engine_nominal)`` in model space.  Residual
    proxy error only costs variance, never bias: the weights are what
    keep the estimate honest.
    """
    if request.variation.drive_sigma == 0.0 \
            and request.variation.vth_sigma == 0.0:
        # Zero variation: delay is constant in z, nothing to steer.
        return (np.zeros(request.dimensions),
                request.critical_delay or 0.0)
    model_nominal = float(engines.evaluate_factors(
        "model", request.model, request.line, request.input_slew,
        engines.nominal_factors(request.stages), workers=1)[0])
    offset = model_nominal - engine_nominal
    root = spawn_labeled_sequences(request.seed, "mc.prepass", 1)[0]
    z = np.random.default_rng(root).standard_normal(
        (request.prepass_samples, request.dimensions))
    factors = engines.factor_matrix(z, request.variation,
                                    request.stages)
    delays = engines.evaluate_factors(
        "model", request.model, request.line, request.input_slew,
        factors, workers=1)
    if request.critical_delay is not None:
        threshold = request.critical_delay + offset
    else:
        threshold = float(np.mean(delays) + 3.0 * np.std(delays))
    exceeding = delays >= threshold
    if int(np.sum(exceeding)) < MIN_TAIL_POINTS:
        worst = np.argsort(delays)[-MIN_TAIL_POINTS:]
        exceeding = np.zeros(len(delays), dtype=bool)
        exceeding[worst] = True
    return z[exceeding].mean(axis=0), threshold - offset


def _weighted_run(request: EstimationRequest,
                  self_normalized: bool) -> EstimatedVariationResult:
    nominal = float(engines.evaluate_factors(
        request.engine, request.model, request.line,
        request.input_slew, engines.nominal_factors(request.stages),
        workers=1)[0])
    mu, threshold = shift_vector(request, nominal)
    streams = spawn_seed_sequences(request.seed, request.samples + 1)
    z = engines.standard_normal_rows(streams[1:], request.dimensions)
    shifted = z + mu
    weights = np.exp(0.5 * float(mu @ mu) - shifted @ mu)
    factors = engines.factor_matrix(shifted, request.variation,
                                    request.stages)
    y = engines.evaluate_factors(
        request.engine, request.model, request.line,
        request.input_slew, factors, workers=request.workers)

    draws = len(y)
    weight_sum = float(np.sum(weights))
    ess = weight_sum ** 2 / float(weights @ weights)
    if self_normalized:
        estimate = float(weights @ y) / weight_sum
        residual = weights * (y - estimate)
        error = float(np.sqrt(residual @ residual) / weight_sum)
        name = "importance-sn"
    else:
        terms = weights * y
        estimate = float(np.mean(terms))
        error = float(np.std(terms, ddof=1) / np.sqrt(draws))
        name = "importance"

    golden = draws if request.engine == "golden" else 0
    model_evals = request.prepass_samples + (0 if golden else draws)
    report = EstimatorReport(
        estimator=name,
        standard_error=error,
        ess=float(ess),
        golden_evals=golden,
        model_evals=model_evals,
        shift_norm=float(np.linalg.norm(mu)),
        critical_delay=threshold,
    )
    return EstimatedVariationResult(
        samples=tuple(float(v) for v in y),
        nominal_delay=nominal,
        estimate=estimate,
        weights=tuple(float(w) for w in weights),
        report=report)


def run(request: EstimationRequest) -> EstimatedVariationResult:
    """Unbiased likelihood-ratio importance sampling (seconds)."""
    return _weighted_run(request, self_normalized=False)


def run_self_normalized(request: EstimationRequest
                        ) -> EstimatedVariationResult:
    """Self-normalized importance sampling (seconds): the ratio
    estimator trades an O(1/N) bias for lower weight-noise variance."""
    return _weighted_run(request, self_normalized=True)
