"""Shared request/result types of the pluggable Monte-Carlo estimators.

Every estimator is a callable ``run(request) -> EstimatedVariationResult``
where :class:`EstimationRequest` bundles the full sampling problem
(line, slew, draw count, variation magnitudes, seed, engine, model,
estimator knobs).  The result subclasses the classic
:class:`repro.signoff.variation.VariationResult`, so every consumer of
the plain Monte-Carlo flow keeps working, and adds the statistical
bookkeeping variance reduction needs: the (possibly weighted) point
estimate, the likelihood-ratio weights, and an
:class:`EstimatorReport` carrying the standard error, the effective
sample size and the evaluation budget actually spent per engine.

Accounting convention: ``golden_evals``/``model_evals`` count the
Monte-Carlo *draw* evaluations an estimator spent on each engine.  The
single nominal-delay evaluation is excluded — every estimator pays
exactly one, so including it would only blur budget comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.signoff.extraction import ExtractedLine
from repro.signoff.variation import VariationModel, VariationResult

#: z of the two-sided 95% confidence interval, used for CI half-widths.
CI_Z = 1.96


@dataclass(frozen=True)
class EstimationRequest:
    """One Monte-Carlo estimation problem, estimator-agnostic.

    ``input_slew``, ``critical_delay`` and ``target_ci`` are in
    seconds; ``samples``, ``lanes`` and ``prepass_samples`` are counts;
    ``beta`` is the dimensionless control-variate coefficient (``None``
    = estimate it online).
    """

    line: ExtractedLine
    input_slew: float
    samples: int
    variation: VariationModel
    seed: int
    workers: Optional[int]
    engine: str
    model: object = None
    critical_delay: Optional[float] = None
    lanes: int = 8
    beta: Optional[float] = None
    prepass_samples: int = 4096

    @property
    def stages(self) -> int:
        """Number of repeater stages in the line (count)."""
        return len(self.line.stages)

    @property
    def dimensions(self) -> int:
        """Dimension of the z-space sampled per draw (count): four
        perturbation factors per stage."""
        return 4 * self.stages


@dataclass(frozen=True)
class EstimatorReport:
    """Statistical bookkeeping of one estimator run.

    ``standard_error`` is in seconds (the error of the mean-delay
    estimate); ``ess`` is the effective sample size (count-valued,
    fractional); ``golden_evals``/``model_evals`` count engine draw
    evaluations; ``beta`` and ``variance_reduction`` are
    dimensionless; ``shift_norm`` is the Euclidean norm of the
    importance shift in z-space (sigmas); ``control_mean`` is the
    control variate's known expectation in seconds;
    ``critical_delay`` (seconds) is the tail threshold the estimator
    actually targeted (0.0 when the estimator targets none).
    """

    estimator: str
    standard_error: float
    ess: float
    golden_evals: int
    model_evals: int
    lanes: int = 0
    per_lane: int = 0
    beta: float = 0.0
    shift_norm: float = 0.0
    control_mean: float = 0.0
    variance_reduction: float = 1.0
    critical_delay: float = 0.0

    def format(self) -> str:
        parts = [f"estimator {self.estimator}: se "
                 f"{self.standard_error * 1e12:.3f} ps, ess "
                 f"{self.ess:.1f}, evals golden={self.golden_evals} "
                 f"model={self.model_evals}"]
        if self.lanes:
            parts.append(f"{self.lanes} lanes x {self.per_lane}")
        if self.shift_norm:
            parts.append(f"shift {self.shift_norm:.2f} sigma")
        if self.estimator.startswith("control"):
            parts.append(f"beta {self.beta:.3f}, variance /"
                         f"{self.variance_reduction:.1f}")
        return ", ".join(parts)


@dataclass(frozen=True)
class TailEstimate:
    """One tail-yield estimate: P(delay > threshold).

    ``threshold`` is in seconds; ``probability`` and
    ``standard_error`` are probabilities (dimensionless); ``draws``
    and ``golden_evals`` are counts.
    """

    threshold: float
    probability: float
    standard_error: float
    draws: int
    golden_evals: int

    @property
    def ci_half_width(self) -> float:
        """Half-width of the 95% confidence interval on the tail
        probability (dimensionless)."""
        return CI_Z * self.standard_error

    @property
    def plain_equivalent_evals(self) -> float:
        """Plain Monte-Carlo draws (count) needed for the same
        standard error: a binomial estimate of probability ``p`` needs
        ``p * (1 - p) / se**2`` draws to match ``se``."""
        if self.standard_error <= 0.0:
            return float("inf") if self.probability > 0.0 else 0.0
        p = min(max(self.probability, 0.0), 1.0)
        return p * (1.0 - p) / self.standard_error ** 2

    def format(self) -> str:
        return (f"P(delay > {self.threshold * 1e12:.1f} ps) = "
                f"{self.probability:.2e} +/- {self.ci_half_width:.2e} "
                f"(95% CI) from {self.golden_evals or self.draws} "
                f"evals; plain MC would need "
                f"{self.plain_equivalent_evals:.0f}")


@dataclass(frozen=True)
class EstimatedVariationResult(VariationResult):
    """A :class:`VariationResult` with estimator bookkeeping.

    ``samples`` still holds the raw engine evaluations (seconds) — for
    importance sampling those are draws under the *shifted* measure,
    so the inherited ``sigma`` describes the sampling distribution,
    not the nominal one.  ``estimate`` (seconds) is the estimator's
    corrected mean; when set it overrides the unweighted ``mean``.
    ``weights`` are the likelihood ratios (dimensionless, one per
    sample) when the estimator reweights.
    """

    estimate: Optional[float] = None
    weights: Optional[Tuple[float, ...]] = None
    report: Optional[EstimatorReport] = None

    @property
    def mean(self) -> float:
        """Estimated mean delay in seconds: the estimator's corrected
        estimate when one is recorded, the plain sample mean
        otherwise."""
        if self.estimate is not None:
            return self.estimate
        return float(np.mean(self.samples))

    @property
    def standard_error(self) -> float:
        """Standard error of the mean estimate, in seconds."""
        if self.report is not None:
            return self.report.standard_error
        draws = np.asarray(self.samples)
        return float(np.std(draws, ddof=1) / np.sqrt(len(draws)))

    @property
    def ess(self) -> float:
        """Effective sample size (count; equals ``len(samples)`` for
        unweighted estimators, Kong's ``(sum w)^2 / sum w^2`` for
        weighted ones)."""
        if self.report is not None:
            return self.report.ess
        return float(len(self.samples))

    def tail_threshold(self, critical: Optional[float]) -> float:
        """The delay (seconds) a tail query asks about: ``critical``
        when given, else the threshold the estimator targeted, else
        the 3-sigma delay."""
        if critical is not None:
            return critical
        if self.report is not None and self.report.critical_delay:
            return self.report.critical_delay
        return self.three_sigma_delay()

    def tail_probability(self, threshold: float) -> TailEstimate:
        """Estimate P(delay > ``threshold`` seconds) from this run.

        Importance-sampled runs use the likelihood-ratio form
        ``mean(w * 1{y > t})`` — the whole point of shifting toward
        the failure region is that this indicator mean resolves rare
        tails from few draws.  Lane-structured (QMC) runs use the
        between-lane spread of the per-lane tail fractions.  Plain
        runs fall back to the binomial estimate.
        """
        y = np.asarray(self.samples)
        indicator = (y > threshold).astype(float)
        draws = len(y)
        golden = self.report.golden_evals if self.report else 0
        if self.weights is not None:
            w = np.asarray(self.weights)
            terms = w * indicator
            probability = float(np.mean(terms))
            error = float(np.std(terms, ddof=1) / np.sqrt(draws))
        elif self.report is not None and self.report.lanes > 1:
            lanes = self.report.lanes
            lane_p = indicator.reshape(lanes, -1).mean(axis=1)
            probability = float(np.mean(lane_p))
            error = float(np.std(lane_p, ddof=1) / np.sqrt(lanes))
        else:
            probability = float(np.mean(indicator))
            error = float(np.sqrt(probability * (1.0 - probability)
                                  / draws))
        return TailEstimate(threshold=threshold,
                            probability=probability,
                            standard_error=error,
                            draws=draws,
                            golden_evals=golden)
