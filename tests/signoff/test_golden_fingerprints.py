"""Pinned bits of the golden engine.

Table II and the golden Monte-Carlo estimators read their reference
delays from the golden engine, so a moved last ulp there moves every
accuracy figure.  Each fingerprint is a sha256 over ``float.hex``
values, recorded before the stage simulations stopped where their
output settles:

* a buffered line's stage timings (delay, output slew, input slew and
  edge of every stage, then the total delay and output slew), on two
  Table II lines at their Table II buffering;
* the golden ``importance`` answer on the perfbench ``mc_tail`` line,
  hashed as ``test_mc_fingerprints`` hashes the closed-form answers.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.suite import ModelSuite
from repro.experiments.table2 import INPUT_SLEW
from repro.signoff.extraction import extract_buffered_line
from repro.signoff.golden import evaluate_buffered_line
from repro.signoff.variation import monte_carlo_line_delay
from repro.tech.design_styles import DesignStyle
from repro.units import mm, ps
from tests.signoff.test_mc_fingerprints import fingerprint

#: (node, SWSS length in mm, repeaters, size as ``float.hex``: the
#: Table II buffering) -> sha256 of the golden stage timings.  The
#: 15 mm line reuses its periodic stages.
LINE_FINGERPRINTS = {
    ("90nm", 15.0, 9, "0x1.8b5525429b5d9p+5"):
        "3f53b9e7814b11329e15206ec1d314a9d3a8a7009492598037bc516a5f1aa6e5",
    ("45nm", 1.0, 2, "0x1.3328e618d0aa8p+5"):
        "df3f9ec6800e363a504e561e8dd6e83b8ca989c788582d801f34855be390f75d",
}

#: sha256 of the golden importance answer on the ``mc_tail`` line
#: (90 nm, 2 mm, 2 repeaters of size 24, 100 ps; 8 draws, seed 7001).
MC_TAIL_FINGERPRINT = \
    "d2d7d86141d42684d07ca3ff355c635d6655bba1987409d48bb9d61d3e193510"


def stage_fingerprint(result) -> str:
    """sha256 over the ``float.hex`` of every stage timing of a
    :class:`~repro.signoff.golden.GoldenResult`, then its total delay
    and output slew."""
    sections = [
        ",".join((timing.delay.hex(), timing.output_slew.hex(),
                  timing.input_slew.hex(), str(timing.rising_input)))
        for timing in result.stage_timings]
    sections += [result.total_delay.hex(), result.output_slew.hex()]
    return hashlib.sha256("|".join(sections).encode("ascii")) \
        .hexdigest()


@pytest.mark.parametrize("key", sorted(LINE_FINGERPRINTS))
def test_golden_stage_timings_are_pinned(key):
    node, length_mm, repeaters, size_hex = key
    suite = ModelSuite.for_node(node, style=DesignStyle.SWSS)
    line = extract_buffered_line(suite.tech, suite.config, mm(length_mm),
                                 repeaters, float.fromhex(size_hex))
    result = evaluate_buffered_line(line, INPUT_SLEW)
    assert stage_fingerprint(result) == LINE_FINGERPRINTS[key]


def test_golden_importance_answer_is_pinned(suite90):
    model = suite90.proposed
    line = extract_buffered_line(model.tech, model.config, mm(2), 2, 24.0)
    result = monte_carlo_line_delay(
        line, ps(100), samples=8, seed=7001, workers=1, engine="golden",
        model=model, estimator="importance")
    assert fingerprint(result) == MC_TAIL_FINGERPRINT
