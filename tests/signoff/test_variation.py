"""Monte-Carlo within-die variation."""

import numpy as np
import pytest

from repro.signoff.estimators import ESTIMATORS
from repro.signoff.extraction import extract_buffered_line
from repro.signoff.variation import (
    VariationModel,
    monte_carlo_line_delay,
)
from repro.units import mm, ps


@pytest.fixture(scope="module")
def short_line(tech90, swss90):
    return extract_buffered_line(tech90, swss90, mm(2), 2, 24.0)


class TestVariationModel:
    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            VariationModel(drive_sigma=-0.1)

    def test_zero_sigma_is_identity(self, tech90):
        rng = np.random.default_rng(1)
        model = VariationModel(0.0, 0.0)
        perturbed = model.perturb_technology(tech90, rng)
        assert perturbed.nmos.k_sat == tech90.nmos.k_sat
        assert perturbed.pmos.vth == tech90.pmos.vth

    def test_perturbation_changes_devices(self, tech90):
        rng = np.random.default_rng(1)
        model = VariationModel(0.1, 0.05)
        perturbed = model.perturb_technology(tech90, rng)
        assert perturbed.nmos.k_sat != tech90.nmos.k_sat

    def test_deterministic_given_seed(self, tech90):
        model = VariationModel()
        a = model.perturb_technology(tech90,
                                     np.random.default_rng(7))
        b = model.perturb_technology(tech90,
                                     np.random.default_rng(7))
        assert a.nmos.k_sat == b.nmos.k_sat

    def test_perturbed_devices_hold_python_floats(self, tech90):
        # numpy.float64 subclasses float, so compare exact types.
        perturbed = VariationModel().perturb_technology(
            tech90, np.random.default_rng(3))
        for device in (perturbed.nmos, perturbed.pmos):
            assert type(device.k_sat) is float
            assert type(device.vth) is float


class TestMonteCarlo:
    @pytest.fixture(scope="class")
    def result(self, short_line):
        return monte_carlo_line_delay(short_line, ps(100), samples=12,
                                      seed=42)

    def test_sigma_positive_and_small(self, result):
        assert result.sigma > 0
        # Per-stage 5% drive sigma averages down over the chain.
        assert result.sigma_over_mean < 0.10

    def test_mean_near_nominal(self, result):
        assert result.mean == pytest.approx(result.nominal_delay,
                                            rel=0.1)

    def test_reproducible(self, short_line):
        a = monte_carlo_line_delay(short_line, ps(100), samples=5,
                                   seed=3)
        b = monte_carlo_line_delay(short_line, ps(100), samples=5,
                                   seed=3)
        assert a.samples == b.samples

    def test_three_sigma_exceeds_mean(self, result):
        assert result.three_sigma_delay() > result.mean

    def test_sample_count_validation(self, short_line):
        with pytest.raises(ValueError):
            monte_carlo_line_delay(short_line, ps(100), samples=1)

    def test_format(self, result):
        assert "sigma" in result.format()


class TestClosedFormEngines:
    """The closed-form "model" engine: deterministic and
    workers-invariant."""

    @pytest.fixture(scope="class")
    def model90(self, suite90):
        return suite90.proposed

    @pytest.fixture(scope="class")
    def line90(self, suite90):
        model = suite90.proposed
        return extract_buffered_line(model.tech, model.config, mm(5),
                                     10, 40.0)

    def test_model_nominal_is_the_closed_form_delay(self, model90,
                                                    line90):
        result = monte_carlo_line_delay(line90, ps(100), samples=5,
                                        seed=1, engine="model",
                                        model=model90)
        estimate = model90.evaluate(line90.length, 10, 40.0, ps(100))
        assert result.nominal_delay == estimate.delay

    def test_model_engine_workers_invariant(self, model90, line90):
        serial = monte_carlo_line_delay(line90, ps(100), samples=8,
                                        seed=4, workers=1,
                                        engine="model", model=model90)
        pooled = monte_carlo_line_delay(line90, ps(100), samples=8,
                                        seed=4, workers=2,
                                        engine="model", model=model90)
        assert serial.samples == pooled.samples

    def test_model_engine_deterministic(self, model90, line90):
        a = monte_carlo_line_delay(line90, ps(100), samples=16, seed=2,
                                   engine="model", model=model90)
        b = monte_carlo_line_delay(line90, ps(100), samples=16, seed=2,
                                   engine="model", model=model90)
        assert a.samples == b.samples

    def test_unknown_engine_rejected(self, line90, model90):
        with pytest.raises(ValueError):
            monte_carlo_line_delay(line90, ps(100), samples=4,
                                   engine="spice", model=model90)

    def test_closed_form_engines_require_a_model(self, line90):
        with pytest.raises(ValueError):
            monte_carlo_line_delay(line90, ps(100), samples=4,
                                   engine="model")

    def test_kernel_is_not_an_api_engine(self, line90, model90):
        with pytest.raises(ValueError):
            monte_carlo_line_delay(line90, ps(100), samples=4,
                                   engine="kernel", model=model90)

    def test_subclassed_model_rejected(self, suite90, line90):
        from repro.models.extensions import SlewAwareInterconnectModel
        slew_aware = SlewAwareInterconnectModel(
            suite90.tech, suite90.proposed.calibration,
            suite90.proposed.config)
        with pytest.raises(TypeError):
            monte_carlo_line_delay(line90, ps(100), samples=4,
                                   engine="model", model=slew_aware)

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_subclassed_model_named_by_every_estimator(
            self, suite90, line90, estimator):
        """Every estimator on the model engine refuses a model no
        closed-form lane serves, before drawing a sample, and names
        its class."""
        from repro.models.extensions import SlewAwareInterconnectModel
        slew_aware = SlewAwareInterconnectModel(
            suite90.tech, suite90.proposed.calibration,
            suite90.proposed.config)
        with pytest.raises(TypeError) as refused:
            monte_carlo_line_delay(line90, ps(100), samples=4,
                                   engine="model", model=slew_aware,
                                   estimator=estimator)
        assert str(refused.value) == (
            "the model engine and estimators evaluate the plain "
            "BufferedInterconnectModel formula; got "
            "SlewAwareInterconnectModel")

    def test_non_uniform_line_rejected(self, model90, tech90, swss90):
        from dataclasses import replace
        line = extract_buffered_line(tech90, swss90, mm(2), 2, 24.0)
        stages = list(line.stages)
        stages[1] = replace(stages[1],
                            driver_size=stages[1].driver_size * 2)
        uneven = replace(line, stages=tuple(stages))
        with pytest.raises(ValueError):
            monte_carlo_line_delay(uneven, ps(100), samples=4,
                                   engine="model", model=model90)


class TestAveragingEffect:
    def test_longer_chains_have_smaller_relative_sigma(self, tech90,
                                                       swss90):
        """Independent per-stage variation averages out over the chain:
        the relative sigma of a 4-stage line sits clearly below a
        single stage's (ideal iid scaling would be 1/2; wire delay is
        variation-free and the sigma estimator is noisy at this sample
        count, so assert a conservative gap)."""
        short = extract_buffered_line(tech90, swss90, mm(1), 1, 24.0)
        long_ = extract_buffered_line(tech90, swss90, mm(4), 4, 24.0)
        sigma_short = monte_carlo_line_delay(
            short, ps(100), samples=20, seed=11).sigma_over_mean
        sigma_long = monte_carlo_line_delay(
            long_, ps(100), samples=20, seed=11).sigma_over_mean
        assert sigma_long < 0.9 * sigma_short
