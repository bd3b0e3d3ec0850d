"""Golden sign-off evaluation (the PrimeTime SI substitute).

The paper validates its closed-form models against an industry sign-off
timer running on extracted layout parasitics.  This package provides the
equivalent reference flow:

* :mod:`repro.signoff.extraction` — builds the parasitics of a placed
  buffered line (uniformly spaced repeaters, per-segment distributed RC
  with lateral coupling) straight from the technology geometry, playing
  the role of the SOC Encounter place/route/extract step.
* :mod:`repro.signoff.awe` — RC-tree moment computation and a two-pole
  AWE delay estimate (the family of methods sign-off timers use).
* :mod:`repro.signoff.golden` — the golden delay/slew evaluation:
  stage-by-stage nonlinear transient simulation of the full line.
"""

from repro.signoff.extraction import (
    ExtractedLine,
    StageParasitics,
    WireSegmentParasitics,
    extract_buffered_line,
)
from repro.signoff.golden import GoldenResult, evaluate_buffered_line
from repro.signoff.awe import (
    RCTree,
    elmore_delay,
    rc_tree_moments,
    two_pole_delay,
)

__all__ = [
    "ExtractedLine",
    "StageParasitics",
    "WireSegmentParasitics",
    "extract_buffered_line",
    "GoldenResult",
    "evaluate_buffered_line",
    "RCTree",
    "elmore_delay",
    "rc_tree_moments",
    "two_pole_delay",
]
