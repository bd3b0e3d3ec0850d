"""Table I: fitting coefficients of the predictive models per node.

The paper's Table I lists the fitted coefficients of the repeater
models for six technologies.  ``run()`` produces the same table from
our calibration pipeline, plus the fit-quality numbers that back the
functional-form claims (intrinsic delay quadratic in slew, drive
resistance inverse in size, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.characterization.cells import RepeaterKind
from repro.models.calibration import (
    CalibratedTechnology,
    OutputSlewForm,
    describe_coefficients,
    load_calibration,
)
from repro.tech.nodes import available_nodes, get_technology

#: The six nodes of the paper's Table I.
DEFAULT_NODES = ("90nm", "65nm", "45nm", "32nm", "22nm", "16nm")


@dataclass(frozen=True)
class Table1Result:
    """Calibrations per node plus rendering."""

    kind: RepeaterKind
    slew_form: OutputSlewForm
    calibrations: Dict[str, CalibratedTechnology]

    def format(self) -> str:
        lines = [
            "Table I — fitting coefficients for the predictive models",
            f"(repeater kind: {self.kind.value}, slew form: "
            f"{self.slew_form.value})",
            "",
        ]
        for node, calibration in self.calibrations.items():
            lines.append(describe_coefficients(calibration))
            lines.append("")
        return "\n".join(lines)

    def fit_quality_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-node R^2 of each regression (for assertions/reporting)."""
        summary: Dict[str, Dict[str, float]] = {}
        for node, calibration in self.calibrations.items():
            summary[node] = {
                "intrinsic_rise": calibration.rise.intrinsic_r2,
                "intrinsic_fall": calibration.fall.intrinsic_r2,
                "drive_rise": calibration.rise.drive_r2,
                "drive_fall": calibration.fall.drive_r2,
                "slew_rise": calibration.rise.slew_r2,
                "slew_fall": calibration.fall.slew_r2,
                "leakage": calibration.leakage_r2,
                "area": calibration.area_r2,
            }
        return summary


def run(
    nodes: Optional[Sequence[str]] = None,
    kind: RepeaterKind = RepeaterKind.INVERTER,
    slew_form: OutputSlewForm = OutputSlewForm.PAPER,
) -> Table1Result:
    """Calibrate (or load) the coefficient table for the given nodes."""
    if nodes is None:
        nodes = [n for n in DEFAULT_NODES if n in available_nodes()]
    calibrations = {
        node: load_calibration(get_technology(node), kind, slew_form)
        for node in nodes
    }
    return Table1Result(kind=kind, slew_form=slew_form,
                        calibrations=calibrations)
