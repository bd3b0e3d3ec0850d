"""Scalar-vs-kernel micro-benchmarks with equivalence asserts.

Each benchmark times one vectorized hot path and, where a scalar
reference exists, first checks the kernel agrees with it bit-for-bit
(``EQUIVALENCE_RTOL`` is 0), so a perf regression hunt can never
silently trade away correctness.  The Monte-Carlo ``"model"`` engine
has no scalar twin; its answer is pinned by
``benchmarks/results/kernel_monte_carlo.txt``.  These isolate the
kernel calls for pytest-benchmark's statistics.
"""

import numpy as np
import pytest

from repro.bench import EQUIVALENCE_RTOL
from repro.units import mm, ps

SAMPLES = 2000


@pytest.fixture(scope="module")
def line90(suite90):
    from repro.signoff.extraction import extract_buffered_line
    model = suite90.proposed
    return extract_buffered_line(model.tech, model.config, mm(10), 20,
                                 40.0)


def test_line_batch_matches_scalar(benchmark, suite90):
    """One batched call over a size sweep == per-size scalar calls."""
    from repro.kernels import evaluate_line_batch
    model = suite90.proposed
    sizes = np.linspace(4.0, 96.0, 512)
    batch = evaluate_line_batch(model, mm(5), 8, sizes, ps(100))
    scalar = np.array([model.evaluate(mm(5), 8, size, ps(100)).delay
                       for size in sizes])
    np.testing.assert_allclose(batch.delay, scalar,
                               rtol=EQUIVALENCE_RTOL)

    benchmark(evaluate_line_batch, model, mm(5), 8, sizes, ps(100))


def test_monte_carlo_kernel_engine(benchmark, suite90, line90,
                                   save_artifact):
    """The closed-form MC engine: every draw a lane of one call."""
    from repro.signoff.variation import monte_carlo_line_delay
    model = suite90.proposed

    def model_mc():
        return monte_carlo_line_delay(line90, ps(100), samples=SAMPLES,
                                      seed=2010, workers=1,
                                      engine="model", model=model)

    save_artifact("kernel_monte_carlo", model_mc().format())

    benchmark(model_mc)


def test_batched_power_search(benchmark, suite90):
    """Batched min-power search returns the scalar search's answer."""
    from repro.buffering.optimizer import (
        DEFAULT_INPUT_SLEW,
        DEFAULT_MAX_SIZE,
        _count_candidates,
        minimize_power_under_delay_scalar,
    )
    from repro.kernels import minimize_power_under_delay_batch
    args = (suite90.proposed, mm(5), suite90.tech.clock_period(),
            DEFAULT_INPUT_SLEW, DEFAULT_MAX_SIZE, 1,
            _count_candidates(mm(5)))
    assert minimize_power_under_delay_scalar(*args) == \
        minimize_power_under_delay_batch(*args)

    benchmark(minimize_power_under_delay_batch, *args)
