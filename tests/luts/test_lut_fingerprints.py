"""Pinned bits of LUT-served answers on the coarse and default grids.

The fingerprint is a sha256 over the ``float.hex`` of every answer a
LUT-served 90 nm model gives across a link-design workload: 90
min-power searches (9 lengths x 10 delay bounds), ``max_feasible_length``
at four clock-period multiples, and 120 direct ``evaluate`` lookups
spread over the grid interior.  The pins were recorded while the
scalar lookup still read nested-tuple copies of the tables, so a
change to one bit of a served answer fails here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.buffering.optimizer import (
    max_feasible_length,
    minimize_power_under_delay,
)
from repro.units import mm

FINGERPRINTS = {
    "coarse":
        "f79be2f3ed04b3ffe6b224a50f3263549790c1a8572c3249f1de859ab67f8b79",
    "default":
        "08b6eb86325bbcb4525dec80354cb87e94d3d6e085057146f627feb35004a1ed",
}

LENGTHS_MM = (0.5, 1.0, 2.0, 3.0, 4.5, 6.0, 8.0, 10.0, 13.0)
PERIOD_FACTORS = (0.4, 0.5, 0.6, 0.7, 0.8, 1.0, 1.25, 1.5, 2.0, 3.0)


def _answers(lut):
    period = lut.tech.clock_period()
    for length in LENGTHS_MM:
        for factor in PERIOD_FACTORS:
            design = minimize_power_under_delay(lut, mm(length),
                                                factor * period)
            if design is None:
                yield None
                continue
            yield design.num_repeaters
            yield from (design.repeater_size, design.delay,
                        design.power, design.estimate.output_slew)
    for factor in (0.5, 0.7, 1.0, 1.5):
        yield max_feasible_length(lut, factor * period)
    spec = lut.artifact.spec
    sizes = np.geomspace(spec.sizes[0] * 1.07, spec.sizes[-1] / 1.07, 40)
    lengths = np.geomspace(spec.lengths[0] * 1.13,
                           spec.lengths[-1] / 1.13, 40)
    for size, length in zip(sizes, lengths):
        for count in (spec.counts[0], spec.counts[0] + 3,
                      spec.counts[-1]):
            estimate = lut.evaluate(float(length), int(count),
                                    float(size), spec.input_slew)
            yield from (estimate.delay, estimate.output_slew,
                        estimate.total_power)


def fingerprint(lut) -> str:
    """sha256 over the answers, floats as ``float.hex``."""
    text = ",".join(value.hex() if isinstance(value, float)
                    else str(value) for value in _answers(lut))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.fixture(scope="module")
def lut90_default(suite90):
    from repro.luts.build import build_artifact
    from repro.luts.grid import DEFAULT_GRID
    from repro.luts.model import serve
    artifact = build_artifact(suite90.proposed, "90nm", DEFAULT_GRID,
                              workers=2)
    return serve(suite90.proposed, artifact)


def test_coarse_grid_answers_are_pinned(lut90):
    assert fingerprint(lut90) == FINGERPRINTS["coarse"]


def test_default_grid_answers_are_pinned(lut90_default):
    assert fingerprint(lut90_default) == FINGERPRINTS["default"]
