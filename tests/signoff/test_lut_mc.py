"""Monte Carlo on a LUT-served model runs its closed-form base."""

from __future__ import annotations

import pytest

from repro.signoff.extraction import extract_buffered_line
from repro.signoff.variation import monte_carlo_line_delay
from repro.units import mm, ps


def _served_line(model):
    """A line the coarse artifact's tables cover."""
    return extract_buffered_line(model.tech, model.config, mm(5.0),
                                 12, 24.0)


class TestEngineRouting:
    @pytest.mark.parametrize("estimator", ["plain", "importance"])
    def test_model_engine_unwraps_to_base(self, suite90, lut90,
                                          estimator):
        """The model engine replays the exact stage chain — a LUT
        wrapper must hand it the calibrated base, bit-for-bit."""
        line = _served_line(suite90.proposed)
        kwargs = dict(samples=100, seed=2010, engine="model",
                      estimator=estimator)
        wrapped = monte_carlo_line_delay(line, ps(100), model=lut90,
                                         **kwargs)
        base = monte_carlo_line_delay(line, ps(100),
                                      model=suite90.proposed, **kwargs)
        assert wrapped.samples == base.samples
        assert wrapped.weights == base.weights
        assert wrapped.nominal_delay == base.nominal_delay
        assert wrapped.estimate == base.estimate

    def test_uncovered_line_runs_the_base(self, suite90, lut90):
        """A line outside the grid gives exactly the closed-form run
        as well."""
        spec = lut90.artifact.spec
        model = suite90.proposed
        line = extract_buffered_line(model.tech, model.config,
                                     1.5 * spec.lengths[-1], 12,
                                     24.0)
        lut_run = monte_carlo_line_delay(line, ps(100), samples=50,
                                         seed=2010, engine="model",
                                         model=lut90)
        base_run = monte_carlo_line_delay(line, ps(100), samples=50,
                                          seed=2010, engine="model",
                                          model=model)
        assert lut_run.samples == base_run.samples
