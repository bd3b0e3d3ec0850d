"""Section IV: accuracy of the leakage-power and area models.

The paper checks its linear leakage model against the Liberty cell
leakage values (max error < 11%) and its area model against the
Liberty cell areas (max error < 8%) for the INVD4..INVD20 drive
strengths.  ``run()`` repeats the check: the models are calibrated on
the standard size grid and then evaluated on the paper's size set,
comparing against freshly characterized reference values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.characterization.cells import RepeaterCell, RepeaterKind
from repro.characterization.harness import _measure_leakage
from repro.experiments.suite import ModelSuite
from repro.models.area import regression_repeater_area
from repro.models.power import repeater_leakage_power

#: The INVD4..INVD20 drive strengths of the paper's check.
DEFAULT_SIZES = (4.0, 6.0, 8.0, 12.0, 16.0, 20.0)


@dataclass(frozen=True)
class LeakageAreaRow:
    size: float
    leakage_reference: float
    leakage_model: float
    area_reference: float
    area_model: float

    @property
    def leakage_error(self) -> float:
        return (self.leakage_model - self.leakage_reference) \
            / self.leakage_reference

    @property
    def area_error(self) -> float:
        return (self.area_model - self.area_reference) \
            / self.area_reference


@dataclass(frozen=True)
class LeakageAreaResult:
    node: str
    rows: Tuple[LeakageAreaRow, ...]

    def max_leakage_error(self) -> float:
        return max(abs(row.leakage_error) for row in self.rows)

    def max_area_error(self) -> float:
        return max(abs(row.area_error) for row in self.rows)

    def format(self) -> str:
        lines = [
            f"Leakage/area model accuracy ({self.node})",
            f"{'size':>5} {'leak ref nW':>12} {'leak mod nW':>12} "
            f"{'err %':>7}  {'area ref um2':>13} {'area mod um2':>13} "
            f"{'err %':>7}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.size:5.0f} {row.leakage_reference * 1e9:12.1f} "
                f"{row.leakage_model * 1e9:12.1f} "
                f"{row.leakage_error * 100:+7.1f}  "
                f"{row.area_reference * 1e12:13.3f} "
                f"{row.area_model * 1e12:13.3f} "
                f"{row.area_error * 100:+7.1f}")
        lines.append("")
        lines.append(
            f"max |leakage error| = {self.max_leakage_error() * 100:.1f}% "
            f"(paper < 11%); max |area error| = "
            f"{self.max_area_error() * 100:.1f}% (paper < 8%)")
        return "\n".join(lines)


def run(node: str = "90nm",
        sizes: Sequence[float] = DEFAULT_SIZES) -> LeakageAreaResult:
    """Compare model leakage/area against characterized references."""
    suite = ModelSuite.for_node(node)
    rows = []
    for size in sizes:
        cell = RepeaterCell(tech=suite.tech, kind=RepeaterKind.INVERTER,
                            size=size)
        leak_high, leak_low = _measure_leakage(cell)
        leakage_reference = 0.5 * (leak_high + leak_low)
        area_reference = cell.layout_area()

        leakage_model = repeater_leakage_power(
            suite.tech, suite.calibration, size)
        wn, _ = suite.tech.inverter_widths(size)
        area_model = regression_repeater_area(suite.calibration, wn)

        rows.append(LeakageAreaRow(
            size=size,
            leakage_reference=leakage_reference,
            leakage_model=leakage_model,
            area_reference=area_reference,
            area_model=area_model,
        ))
    return LeakageAreaResult(node=node, rows=tuple(rows))
