"""Pinned bits of Table III synthesis.

The committed ``table3_noc_synthesis.txt`` rounds its numbers, so a
last-ulp move in a power or area sum does not show there.  Each
fingerprint is a sha256 over every field of the three reports of one
``table3.run_case("DVOPD", ...)`` cell (floats as ``float.hex``),
recorded while the topology was still a ``networkx.DiGraph``:

* ``original_self`` — the original model's topology under itself;
* ``original_accurate`` — the same topology under the proposed model;
* ``proposed_self`` — the proposed model's topology under itself.

The link sums iterate ``NocTopology.links()``, so the order in which
links are visited is part of what is pinned.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.experiments import table3
from repro.noc.testcases import dual_vopd

#: node -> sha256 of the DVOPD reports.
FINGERPRINTS = {
    "90nm":
        "ec303b72c93d225c26c39d13281f850fa177fd02ae80b56ccd41aa42beb55ea9",
    "45nm":
        "885f9a6983e4cf5c98ef213359798a60ac2763dd7ba9b4e5ceff8e2a7266fc96",
}

REPORTS = ("original_self", "original_accurate", "proposed_self")


def report_fingerprint(case) -> str:
    """sha256 over every field of the three reports of a
    :class:`~repro.experiments.table3.Table3Case`."""
    sections = []
    for label in REPORTS:
        report = getattr(case, label)
        sections.append(",".join(
            value.hex() if isinstance(value, float) else str(value)
            for value in (getattr(report, field.name)
                          for field in dataclasses.fields(report))))
    return hashlib.sha256("|".join(sections).encode("ascii")) \
        .hexdigest()


@pytest.mark.parametrize("node", sorted(FINGERPRINTS))
def test_dvopd_reports_are_pinned(node):
    case = table3.run_case("DVOPD", dual_vopd, node, workers=1)
    assert report_fingerprint(case) == FINGERPRINTS[node]
