"""Randomized quasi-Monte Carlo: scrambled-Sobol lanes.

A Sobol sequence covers z-space far more evenly than iid draws, so for
the smooth delay integrand the mean converges near O(1/N) instead of
O(1/sqrt(N)).  Determinism and error estimation both come from *lane*
structure: ``lanes`` independently scrambled Sobol sequences (Owen
scrambling, each keyed by its own labeled ``SeedSequence`` child via
:func:`repro.runtime.spawn_labeled_sequences`) each produce an
unbiased lane mean, the estimate is the average of the lane means, and
the standard error is their between-lane spread.  Every lane's points
are generated up front from its own seed, so the sample vector is
bit-identical for any ``workers`` count — the evaluation fan-out goes
through the same order-preserving ``parallel_map``/model batch as
every other estimator.

With ``lanes=1`` there is no between-lane spread to estimate, so the
run degenerates — by construction, bit-for-bit — to the plain
estimator on the requested engine.
"""

from __future__ import annotations

import math

import numpy as np

from repro.runtime import spawn_labeled_sequences
from repro.signoff.estimators import engines, plain
from repro.signoff.estimators.base import (
    EstimatedVariationResult,
    EstimationRequest,
    EstimatorReport,
)

#: Uniform draws are clipped into [EPS, 1 - EPS] before the inverse
#: normal CDF so a scrambled point landing on an interval edge cannot
#: map to an infinite z.
EPS = 1e-12


def _sobol_normal_rows(stream: np.random.SeedSequence,
                       exponent: int, dimensions: int) -> np.ndarray:
    """``2**exponent`` scrambled-Sobol standard-normal rows."""
    try:
        from scipy.special import ndtri
        from scipy.stats import qmc
    except ImportError as exc:  # pragma: no cover - scipy is a dep
        raise RuntimeError(
            "the 'qmc' estimator needs scipy (scipy.stats.qmc); "
            "install scipy or pick another estimator") from exc
    sobol = qmc.Sobol(d=dimensions, scramble=True,
                      seed=np.random.default_rng(stream))
    uniform = sobol.random_base2(exponent)
    return ndtri(np.clip(uniform, EPS, 1.0 - EPS))


def run(request: EstimationRequest) -> EstimatedVariationResult:
    """Scrambled-Sobol quasi-Monte Carlo mean delay (seconds).

    The requested ``samples`` are rounded up so each of the ``lanes``
    evaluates the same power-of-two point count (Sobol sequences lose
    their balance at non-power-of-two lengths); the report records the
    actual ``lanes x per_lane`` budget spent.
    """
    if request.lanes == 1:
        # One lane has no between-lane error estimate; the honest
        # degenerate case is the plain estimator itself.
        return plain.run(request)
    per_lane = max(2, math.ceil(request.samples / request.lanes))
    exponent = max(1, math.ceil(math.log2(per_lane)))
    per_lane = 2 ** exponent
    lane_streams = spawn_labeled_sequences(request.seed, "mc.qmc",
                                           request.lanes)
    z = np.vstack([
        _sobol_normal_rows(stream, exponent, request.dimensions)
        for stream in lane_streams])
    factors = engines.factor_matrix(z, request.variation,
                                    request.stages)
    y = engines.evaluate_factors(
        request.engine, request.model, request.line,
        request.input_slew, factors, workers=request.workers)
    nominal = float(engines.evaluate_factors(
        request.engine, request.model, request.line,
        request.input_slew, engines.nominal_factors(request.stages),
        workers=1)[0])

    lane_means = y.reshape(request.lanes, per_lane).mean(axis=1)
    estimate = float(np.mean(lane_means))
    error = float(np.std(lane_means, ddof=1)
                  / np.sqrt(request.lanes))
    draws = len(y)
    golden = draws if request.engine == "golden" else 0
    report = EstimatorReport(
        estimator="qmc",
        standard_error=error,
        ess=float(draws),
        golden_evals=golden,
        model_evals=0 if golden else draws,
        lanes=request.lanes,
        per_lane=per_lane,
    )
    return EstimatedVariationResult(
        samples=tuple(float(v) for v in y),
        nominal_delay=nominal,
        estimate=estimate,
        report=report)
