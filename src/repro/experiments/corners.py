"""Corner sensitivity and guard-band measurement.

The paper's introduction argues accurate early models "reduce design
guard band".  This experiment quantifies the guard band for a concrete
link: a buffered interconnect is designed once at the typical corner,
then its *actual* delay and leakage are measured (golden simulation —
no model in the loop) at the slow, typical and fast corners.  The
slow/typical delay ratio is the timing margin a designer must carry;
the fast/typical leakage ratio is the power margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.buffering.optimizer import optimize_buffering
from repro.characterization.cells import RepeaterCell, RepeaterKind
from repro.experiments.suite import ModelSuite
from repro.signoff.extraction import extract_buffered_line
from repro.signoff.golden import evaluate_buffered_line
from repro.tech.corners import ProcessCorner, apply_corner, guard_band
from repro.tech.design_styles import WireConfiguration
from repro.units import mm, ps, to_ps


@dataclass(frozen=True)
class CornerRow:
    corner: ProcessCorner
    vdd: float
    delay: float
    leakage_power: float    # of one repeater of the design's size


@dataclass(frozen=True)
class CornerResult:
    node: str
    length: float
    num_repeaters: int
    repeater_size: float
    rows: Dict[ProcessCorner, CornerRow]

    def delay_guard_band(self) -> float:
        return guard_band(self.rows[ProcessCorner.SLOW].delay,
                          self.rows[ProcessCorner.TYPICAL].delay)

    def leakage_ratio(self) -> float:
        return (self.rows[ProcessCorner.FAST].leakage_power
                / self.rows[ProcessCorner.TYPICAL].leakage_power)

    def format(self) -> str:
        lines = [
            f"Corner sensitivity ({self.node}, "
            f"{self.length * 1e3:.0f} mm link, "
            f"{self.num_repeaters} repeaters x{self.repeater_size:.0f})",
            f"{'corner':<8} {'vdd':>6} {'delay ps':>9} {'leak nW':>9}",
        ]
        for corner in (ProcessCorner.SLOW, ProcessCorner.TYPICAL,
                       ProcessCorner.FAST):
            row = self.rows[corner]
            lines.append(f"{corner.value:<8} {row.vdd:6.2f} "
                         f"{to_ps(row.delay):9.1f} "
                         f"{row.leakage_power * 1e9:9.1f}")
        lines.append("")
        lines.append(
            f"timing guard band (slow vs typical): "
            f"{self.delay_guard_band() * 100:+.1f}%")
        lines.append(
            f"leakage spread (fast vs typical): "
            f"{self.leakage_ratio():.2f}x")
        return "\n".join(lines)


def run(node: str = "90nm", length: float = mm(5)) -> CornerResult:
    """Design at typical, measure at every corner (golden simulation)."""
    suite = ModelSuite.for_node(node)
    solution = optimize_buffering(suite.proposed, length,
                                  delay_weight=0.5)
    count, size = solution.num_repeaters, solution.repeater_size

    rows: Dict[ProcessCorner, CornerRow] = {}
    for corner in ProcessCorner:
        cornered = apply_corner(suite.tech, corner)
        config = WireConfiguration.for_style(cornered.global_layer,
                                             suite.config.style)
        line = extract_buffered_line(cornered, config, length, count,
                                     size)
        golden = evaluate_buffered_line(line, ps(100))
        cell = RepeaterCell(tech=cornered, kind=RepeaterKind.INVERTER,
                            size=size)
        rows[corner] = CornerRow(
            corner=corner,
            vdd=cornered.vdd,
            delay=golden.total_delay,
            leakage_power=cell.leakage_power(),
        )
    return CornerResult(
        node=node,
        length=length,
        num_repeaters=count,
        repeater_size=size,
        rows=rows,
    )
