"""Pinned bits of the transient measurements outside the golden stage.

Table I's coefficients are fitted to characterization points, A2
checks the Miller abstraction against explicit three-line crosstalk
runs, and the full-line reference judges the stage decomposition.
Each fingerprint is a sha256 over ``float.hex`` values, recorded
while these runs still simulated their whole stop-time window, before
they stopped where their output settles:

* ``_measure_point`` (delay, output slew) on an inverter and a buffer
  cell at 90 nm and 16 nm: both output edges, two input slews and two
  loads each;
* ``crosstalk_delay_bracket`` (delay, output slew of each activity) on
  the A2 stage: 90 nm, 1.5 mm, size 24, 20 fF, 100 ps;
* ``evaluate_full_line`` (total delay, output slew, node count) on a
  90 nm, 5 mm line of six size-24 repeaters at Miller factors 0, 1,
  1.9 and the configuration's default.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import pytest

from repro.characterization.cells import RepeaterCell, RepeaterKind
from repro.characterization.harness import _measure_point
from repro.signoff.crosstalk import crosstalk_delay_bracket
from repro.signoff.extraction import extract_buffered_line
from repro.signoff.fullline import evaluate_full_line
from repro.tech import get_technology
from repro.units import fF, mm, ps

#: (node, cell kind) -> sha256 of ``_measure_point`` at size 16 over
#: output edge x input slew (30, 250 ps) x load (3x, 20x the cell's
#: input capacitance), in that nesting order.
CELL_FINGERPRINTS = {
    ("90nm", "inverter"):
        "8374fd3c6c15e13cbc13841db3c90b2242e1e44ec1911d33548cae869b67acd3",
    ("90nm", "buffer"):
        "166b29f0aa923a40d3bc1524e3652931f22830ee634479a48c8b524e490c42ec",
    ("16nm", "inverter"):
        "200f205fcd989a65fde78039850f652293515ef60d0ef3a9abe4e7bd8e09ad8c",
    ("16nm", "buffer"):
        "7c169e645b964535488801b5387cc14f630c36e4121e1a85b2915edf88761214",
}

#: sha256 of the A2 stage's (best, quiet, worst) bracket.
CROSSTALK_FINGERPRINT = \
    "5e8c686f03bfc6c766954792dbce3ebdc9110157db037c5d4549db1ad5568165"

#: Miller factor -> sha256 of the 90 nm SWSS, 5 mm, six-repeater full
#: line.  ``None`` takes the configuration's default, which is 1.9 on
#: SWSS, so it pins the default's resolution to the 1.9 bits.
FULL_LINE_FINGERPRINTS = {
    None: "fbf5ea4a18e0610a5ea5f4685c2afbaa532183fcf1a207170623c6360c2fe99d",
    0.0: "a2d31bc7ab085ab4b610ee40086bfc20e478b5573cb71cd8bbd53c352edf4c37",
    1.0: "60e7b0e1509ea22b2e08044995047353eb4165c4d290461cbe2e9015f812d13f",
    1.9: "fbf5ea4a18e0610a5ea5f4685c2afbaa532183fcf1a207170623c6360c2fe99d",
}


def _sha256(values: Iterable[float]) -> str:
    text = ",".join(float(value).hex() for value in values)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("key", sorted(CELL_FINGERPRINTS))
def test_characterization_points_are_pinned(key):
    node, kind = key
    cell = RepeaterCell(tech=get_technology(node), kind=RepeaterKind(kind),
                        size=16.0)
    c_in = cell.input_capacitance()
    values = []
    for rising_output in (True, False):
        for input_slew in (ps(30), ps(250)):
            for factor in (3.0, 20.0):
                values += _measure_point(cell, input_slew, factor * c_in,
                                         rising_output)
    assert _sha256(values) == CELL_FINGERPRINTS[key]


def test_crosstalk_bracket_is_pinned(suite90):
    length = mm(1.5)
    config = suite90.config
    bracket = crosstalk_delay_bracket(
        suite90.tech, 24.0, config.resistance_per_meter() * length,
        config.ground_capacitance_per_meter() * length,
        config.coupling_capacitance_per_meter() * length, fF(20),
        ps(100))
    values = []
    for result in bracket:
        values += (result.delay, result.output_slew)
    assert _sha256(values) == CROSSTALK_FINGERPRINT


@pytest.mark.parametrize("miller", [None, 0.0, 1.0, 1.9])
def test_full_line_is_pinned(suite90, miller):
    line = extract_buffered_line(suite90.tech, suite90.config, mm(5), 6,
                                 24.0)
    result = evaluate_full_line(line, ps(100), miller)
    assert _sha256((result.total_delay, result.output_slew,
                    result.node_count)) == FULL_LINE_FINGERPRINTS[miller]
