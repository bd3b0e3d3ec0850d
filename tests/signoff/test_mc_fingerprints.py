"""Pinned bits of every closed-form Monte-Carlo estimator.

Each estimator runs on the ``"model"`` engine over one uniform line;
the fingerprint is a sha256 over the ``float.hex`` of the samples, the
weights, the nominal delay and the estimate.  The pins were recorded
before the closed-form engines were merged into one batched lane, so
any change to a single bit of a closed-form answer fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.signoff.extraction import extract_buffered_line
from repro.signoff.variation import monte_carlo_line_delay
from repro.units import mm, ps

#: sha256 of each estimator's answer on the 90 nm, 5 mm,
#: 10-repeater, size-40 line (64 draws, seed 2010).
FINGERPRINTS = {
    "plain":
        "c80593afb1259d660dce3f42666365daedcd49499e51cb3ae1ec9a49bafa677a",
    "importance":
        "a8e6808b932eb5512599faed1c35f0f0045303c8e76368f0c687714348b77bb4",
    "importance-sn":
        "eb510f2e56081c02ba691e0e9c61362012955c9b1f7c06fec04fcf60b31a6d38",
    "qmc":
        "18bf905fa0b16f115c6c28398d6b2da0c4b30fb6dbfc6b6e9283cce0e5e2d94b",
    "control-variate":
        "6b674a790416d04b0a822d3b3143bf035b18972d50ab7c7ab82fdcefcfda615d",
}


def fingerprint(result) -> str:
    """sha256 over the ``float.hex`` of one result's samples, weights,
    nominal delay and estimate (an absent field hashes as ``-``)."""
    sections = [
        ",".join(float(value).hex() for value in result.samples),
        ("-" if result.weights is None else
         ",".join(float(value).hex() for value in result.weights)),
        float(result.nominal_delay).hex(),
        ("-" if result.estimate is None
         else float(result.estimate).hex()),
    ]
    return hashlib.sha256("|".join(sections).encode("ascii")) \
        .hexdigest()


@pytest.fixture(scope="module")
def fingerprint_line(suite90):
    model = suite90.proposed
    return extract_buffered_line(model.tech, model.config, mm(5), 10,
                                 40.0)


@pytest.mark.parametrize("estimator", sorted(FINGERPRINTS))
def test_model_engine_answer_is_pinned(suite90, fingerprint_line,
                                       estimator):
    result = monte_carlo_line_delay(
        fingerprint_line, ps(100), samples=64, seed=2010, workers=1,
        engine="model", model=suite90.proposed, estimator=estimator)
    assert fingerprint(result) == FINGERPRINTS[estimator]
