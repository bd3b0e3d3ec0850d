"""Variance-reduction estimator validation.

Three layers of assurance, mirroring what each estimator actually
promises:

* **Statistical correctness** — every estimator's output is an
  unbiased estimate of the brute-force ``yield_reference`` truth,
  checked by :func:`tests.signoff.statistical.assert_unbiased`
  (repeated independent replications, two-sided z-test at
  ``alpha = 0.01``).  Importance sampling is validated on the tail
  probability it exists to resolve; the self-normalized variant on the
  mean under the mild shift where its O(1/N) bias is negligible.
* **Determinism** — bit-identical sample vectors for any ``workers``
  count, and for repeated runs of the same seed.
* **Structure** — report bookkeeping (ESS bounds, lane layout,
  evaluation accounting, metrics counters), ``target_ci`` escalation,
  and the argument-validation ordering regression.
"""

import dataclasses

import numpy as np
import pytest

from repro.runtime import METRICS
from repro.signoff.estimators import (
    CI_Z,
    ESTIMATORS,
    EstimatedVariationResult,
    EstimatorReport,
)
from repro.signoff.variation import MAX_TARGET_ROUNDS, \
    monte_carlo_line_delay
from repro.units import ps
from tests.signoff.statistical import assert_unbiased, stat_reps

#: Draws per replication in the unbiasedness tests (count).
DRAWS = 256

#: Default replications per unbiasedness assertion (count; the CI
#: smoke job caps this via REPRO_STAT_REPS).
REPS = 24


def run_model(line, model, seed, estimator, samples=DRAWS, **kwargs):
    """One model-engine estimator run on the reference line."""
    return monte_carlo_line_delay(line, ps(100), samples=samples,
                                  seed=seed, workers=1,
                                  engine="model", model=model,
                                  estimator=estimator, **kwargs)


# ---------------------------------------------------------------------------
# Argument validation ordering (regression)
# ---------------------------------------------------------------------------

class TestValidationOrder:
    """A typo'd name must be reported as a typo'd name, even when the
    line geometry or the missing model would *also* be invalid."""

    @pytest.fixture()
    def nonuniform_line(self, estimator_line):
        stages = list(estimator_line.stages)
        stages[-1] = dataclasses.replace(stages[-1], driver_size=8.0)
        return dataclasses.replace(estimator_line,
                                   stages=tuple(stages))

    def test_bad_estimator_on_nonuniform_line_names_the_estimator(
            self, nonuniform_line):
        with pytest.raises(ValueError, match="unknown estimator "
                                             "'importnace'"):
            monte_carlo_line_delay(nonuniform_line, ps(100),
                                   samples=4, engine="model",
                                   estimator="importnace")

    def test_bad_engine_on_nonuniform_line_names_the_engine(
            self, nonuniform_line):
        with pytest.raises(ValueError, match="unknown engine"):
            monte_carlo_line_delay(nonuniform_line, ps(100),
                                   samples=4, engine="goldenn")

    def test_model_backed_estimator_requires_model_on_golden(
            self, estimator_line):
        with pytest.raises(ValueError, match="model-backed"):
            monte_carlo_line_delay(estimator_line, ps(100), samples=4,
                                   engine="golden",
                                   estimator="importance")

    def test_lanes_validated(self, estimator_line, suite90):
        with pytest.raises(ValueError, match="lanes"):
            run_model(estimator_line, suite90.proposed, 1, "qmc",
                      samples=4, lanes=0)

    def test_prepass_validated(self, estimator_line, suite90):
        with pytest.raises(ValueError, match="prepass_samples"):
            run_model(estimator_line, suite90.proposed, 1,
                      "importance", samples=4, prepass_samples=1)

    def test_target_ci_validated(self, estimator_line, suite90):
        with pytest.raises(ValueError, match="target_ci"):
            run_model(estimator_line, suite90.proposed, 1, "plain",
                      samples=4, target_ci=0.0)


# ---------------------------------------------------------------------------
# Unbiasedness against the million-draw reference
# ---------------------------------------------------------------------------

class TestUnbiasedness:
    """z-tests at alpha = 0.01 against ``yield_reference``."""

    def test_plain_mean_unbiased(self, estimator_line, suite90,
                                 yield_reference):
        assert_unbiased(
            lambda seed: run_model(estimator_line, suite90.proposed,
                                   seed, "plain").mean,
            yield_reference.mean, n_reps=stat_reps(REPS),
            truth_se=yield_reference.mean_se, label="plain mean")

    def test_qmc_mean_unbiased(self, estimator_line, suite90,
                               yield_reference):
        assert_unbiased(
            lambda seed: run_model(estimator_line, suite90.proposed,
                                   seed, "qmc").mean,
            yield_reference.mean, n_reps=stat_reps(REPS),
            truth_se=yield_reference.mean_se, label="qmc mean")

    def test_control_variate_mean_unbiased(self, estimator_line,
                                           suite90, yield_reference):
        assert_unbiased(
            lambda seed: run_model(estimator_line, suite90.proposed,
                                   seed, "control-variate").mean,
            yield_reference.mean, n_reps=stat_reps(REPS),
            truth_se=yield_reference.mean_se,
            label="control-variate mean")

    def test_importance_tail_unbiased(self, estimator_line, suite90,
                                      yield_reference):
        threshold = yield_reference.threshold

        def tail(seed):
            result = run_model(estimator_line, suite90.proposed,
                               seed, "importance",
                               critical_delay=threshold)
            return result.tail_probability(threshold).probability

        assert_unbiased(tail, yield_reference.tail_probability,
                        n_reps=stat_reps(REPS),
                        truth_se=yield_reference.tail_se,
                        label="importance 3-sigma tail")

    def test_self_normalized_mean_unbiased_mild_shift(
            self, estimator_line, suite90, yield_reference):
        # The SN ratio estimator carries an O(1/N) bias that grows
        # with the shift; under a mild 1-sigma shift it is far below
        # the detection threshold (the aggressive-shift bias is pinned
        # by test_self_normalized_bias_shrinks instead).
        mild = yield_reference.mean + yield_reference.sigma
        assert_unbiased(
            lambda seed: run_model(estimator_line, suite90.proposed,
                                   seed, "importance-sn",
                                   critical_delay=mild).mean,
            yield_reference.mean, n_reps=stat_reps(REPS),
            truth_se=yield_reference.mean_se,
            label="importance-sn mean (1-sigma shift)")


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

class TestDeterminism:
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_bit_identical_across_worker_counts(self, estimator_line,
                                                suite90, estimator):
        def run(workers):
            return monte_carlo_line_delay(
                estimator_line, ps(100), samples=8, seed=2010,
                workers=workers, engine="model",
                model=suite90.proposed, estimator=estimator,
                lanes=2, prepass_samples=64)

        serial = run(1)
        for workers in (2, 4):
            pooled = run(workers)
            assert pooled.samples == serial.samples, \
                f"{estimator} diverged at workers={workers}"
            assert pooled.mean == serial.mean
            assert pooled.weights == serial.weights

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_same_seed_reproduces(self, estimator_line, suite90,
                                  estimator):
        first = run_model(estimator_line, suite90.proposed, 7,
                          estimator, samples=16, lanes=2,
                          prepass_samples=64)
        second = run_model(estimator_line, suite90.proposed, 7,
                           estimator, samples=16, lanes=2,
                           prepass_samples=64)
        assert first.samples == second.samples
        assert first.mean == second.mean


# ---------------------------------------------------------------------------
# target_ci escalation
# ---------------------------------------------------------------------------

class TestTargetCI:
    def test_doubles_until_interval_met(self, estimator_line,
                                        suite90):
        target = ps(0.4)
        result = run_model(estimator_line, suite90.proposed, 2010,
                           "plain", samples=8, target_ci=target)
        assert len(result.samples) > 8
        assert CI_Z * result.report.standard_error <= target

    def test_keeps_samples_when_already_met(self, estimator_line,
                                            suite90):
        result = run_model(estimator_line, suite90.proposed, 2010,
                           "plain", samples=8, target_ci=ps(100))
        assert len(result.samples) == 8

    def test_rounds_are_bounded(self, estimator_line, suite90):
        result = run_model(estimator_line, suite90.proposed, 2010,
                           "plain", samples=4, target_ci=1e-18)
        assert len(result.samples) <= 4 * 2 ** MAX_TARGET_ROUNDS


# ---------------------------------------------------------------------------
# Report structure and bookkeeping
# ---------------------------------------------------------------------------

class TestReports:
    def test_importance_weights_positive_and_ess_bounded(
            self, estimator_line, suite90, yield_reference):
        result = run_model(estimator_line, suite90.proposed, 2010,
                           "importance",
                           critical_delay=yield_reference.threshold)
        weights = np.asarray(result.weights)
        assert np.all(weights > 0.0)
        assert 0.0 < result.report.ess <= len(result.samples)
        assert result.report.shift_norm > 0.0

    def test_importance_reports_engine_space_threshold(
            self, estimator_line, suite90, yield_reference):
        # The model engine IS the proxy, so the offset is exactly
        # zero and the reported threshold is the requested one.
        result = run_model(estimator_line, suite90.proposed, 2010,
                           "importance",
                           critical_delay=yield_reference.threshold)
        assert result.report.critical_delay == pytest.approx(
            yield_reference.threshold, rel=1e-12)

    def test_importance_tail_beats_plain_budget(self, estimator_line,
                                                suite90,
                                                yield_reference):
        threshold = yield_reference.threshold
        result = run_model(estimator_line, suite90.proposed, 2010,
                           "importance", critical_delay=threshold)
        tail = result.tail_probability(threshold)
        # The acceptance bar: the same tail CI would cost plain MC
        # at least 10x the draws the IS run spent.
        assert tail.plain_equivalent_evals >= 10 * len(result.samples)

    def test_qmc_lane_structure(self, estimator_line, suite90):
        result = run_model(estimator_line, suite90.proposed, 2010,
                           "qmc", samples=100, lanes=8)
        report = result.report
        assert report.lanes == 8
        assert report.per_lane >= 2
        assert report.per_lane & (report.per_lane - 1) == 0
        assert len(result.samples) == report.lanes * report.per_lane
        assert report.ess == len(result.samples)

    def test_qmc_tighter_than_plain(self, estimator_line, suite90):
        plain = run_model(estimator_line, suite90.proposed, 2010,
                          "plain")
        qmc = run_model(estimator_line, suite90.proposed, 2010,
                        "qmc")
        assert qmc.report.standard_error \
            < plain.report.standard_error

    def test_control_variate_reduces_variance(self, estimator_line,
                                              suite90):
        result = run_model(estimator_line, suite90.proposed, 2010,
                           "control-variate")
        assert result.report.variance_reduction > 5.0
        assert result.report.standard_error > 0.0

    def test_control_variate_golden_accounting(self, estimator_line,
                                               suite90):
        result = monte_carlo_line_delay(
            estimator_line, ps(100), samples=4, seed=2010, workers=1,
            engine="golden", model=suite90.proposed,
            estimator="control-variate", prepass_samples=256)
        report = result.report
        assert report.golden_evals == 4
        assert report.model_evals == 256 + 4
        assert result.mean == pytest.approx(result.nominal_delay,
                                            rel=0.1)

    def test_metrics_counters(self, estimator_line, suite90):
        METRICS.reset()
        run_model(estimator_line, suite90.proposed, 2010,
                  "importance", samples=16, prepass_samples=64)
        counters = METRICS.counters
        assert counters["mc.estimator.importance"] == 1
        assert counters["mc.ess"] >= 1
        assert counters["mc.model_evals"] >= 16
        assert counters["mc.golden_evals"] == 0


class TestTailThreshold:
    """The one rule ``repro mc`` and the serve ``mc`` op share."""

    def _result(self, targeted=0.0):
        report = EstimatorReport(estimator="plain", standard_error=0.0,
                                 ess=4.0, golden_evals=0,
                                 model_evals=4, critical_delay=targeted)
        return EstimatedVariationResult(
            samples=(ps(100), ps(110), ps(120), ps(130)),
            nominal_delay=ps(100), report=report)

    def test_explicit_critical_delay_wins(self):
        assert self._result(ps(125)).tail_threshold(ps(105)) == ps(105)

    def test_targeted_threshold_when_none_is_given(self):
        assert self._result(ps(125)).tail_threshold(None) == ps(125)

    def test_three_sigma_when_nothing_is_targeted(self):
        result = self._result()
        assert result.tail_threshold(None) \
            == result.mean + 3.0 * result.sigma
        unreported = dataclasses.replace(result, report=None)
        assert unreported.tail_threshold(None) \
            == result.mean + 3.0 * result.sigma


# ---------------------------------------------------------------------------
# Known finite-sample behaviour
# ---------------------------------------------------------------------------

class TestSelfNormalizedConsistency:
    def test_self_normalized_bias_shrinks(self, estimator_line,
                                          suite90, yield_reference):
        """The SN estimator is consistent: its aggressive-shift bias
        must shrink as N grows (averaged over replications)."""
        threshold = yield_reference.threshold
        seeds = [90210 + 7919 * index
                 for index in range(stat_reps(12))]

        def mean_bias(samples):
            estimates = [
                run_model(estimator_line, suite90.proposed, seed,
                          "importance-sn", samples=samples,
                          critical_delay=threshold).mean
                for seed in seeds]
            return abs(float(np.mean(estimates))
                       - yield_reference.mean)

        assert mean_bias(1024) < mean_bias(64)
