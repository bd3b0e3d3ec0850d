"""Fixtures for the signoff estimator suite.

``yield_reference`` is the ground truth the statistical tests compare
against: a brute-force model-engine Monte Carlo of one million draws
on the reference line, computed once per session.  The batched model
engine makes this affordable (a couple of seconds); every unbiasedness
test then z-tests its estimator's replications against this mean /
tail probability, with the reference's own standard error folded in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.signoff.estimators import engines
from repro.signoff.extraction import extract_buffered_line
from repro.signoff.variation import VariationModel
from repro.units import mm, ps

#: Draws in the brute-force reference (count).
REFERENCE_DRAWS = 1_000_000

#: Seed of the reference generator — deliberately unrelated to any
#: estimator seed so the truth and the tested runs are independent.
REFERENCE_SEED = 20_100_604


@dataclass(frozen=True)
class YieldReference:
    """Brute-force ground truth for the reference line.

    ``mean``/``sigma``/``threshold`` are in seconds, ``mean_se`` is
    the reference mean's own standard error in seconds;
    ``tail_probability``/``tail_se`` are dimensionless;
    ``draws`` is a count.
    """

    mean: float
    mean_se: float
    sigma: float
    threshold: float
    tail_probability: float
    tail_se: float
    draws: int


@pytest.fixture(scope="session")
def estimator_line(suite90):
    """The bench reference line: 2 mm, 2 repeaters of size 24 at
    90 nm, extracted with the proposed model's wire configuration."""
    model = suite90.proposed
    return extract_buffered_line(model.tech, model.config, mm(2), 2,
                                 24.0)


@pytest.fixture(scope="session")
def yield_reference(suite90, estimator_line) -> YieldReference:
    """One-million-draw plain model-engine Monte Carlo of the reference
    line: the unbiasedness truth for mean delay and 3-sigma tail."""
    model = suite90.proposed
    variation = VariationModel()
    stages = len(estimator_line.stages)
    rng = np.random.default_rng(REFERENCE_SEED)
    z = rng.standard_normal((REFERENCE_DRAWS, 4 * stages))
    factors = engines.factor_matrix(z, variation, stages)
    delays = engines.evaluate_factors("model", model, estimator_line,
                                      ps(100), factors, workers=1)
    mean = float(np.mean(delays))
    sigma = float(np.std(delays, ddof=1))
    threshold = mean + 3.0 * sigma
    tail = float(np.mean(delays > threshold))
    return YieldReference(
        mean=mean,
        mean_se=sigma / float(np.sqrt(REFERENCE_DRAWS)),
        sigma=sigma,
        threshold=threshold,
        tail_probability=tail,
        tail_se=float(np.sqrt(tail * (1.0 - tail)
                              / REFERENCE_DRAWS)),
        draws=REFERENCE_DRAWS,
    )
