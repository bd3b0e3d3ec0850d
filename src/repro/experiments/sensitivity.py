"""Sensitivity of system-level decisions to model accuracy.

The paper's introduction observes that "there has not been any study of
the sensitivity of system-level decisions to the accuracy of these
models" — and then demonstrates only the two endpoints (classic vs
proposed).  This experiment fills in the curve: the calibrated model's
drive-resistance coefficients are scaled by controlled factors
(optimistic < 1 < pessimistic), the NoC is re-synthesized with each
perturbed model, and every resulting architecture is costed under the
*unperturbed* accurate model.

The reported "regret" — how much more the perturbed-model architecture
truly costs than the accurate-model architecture — is the price of
model error at the system level.  Feasibility violations (links the
perturbed model accepted that the accurate model rejects) are counted
separately: those are not merely expensive but unbuildable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.experiments.suite import ModelSuite
from repro.models.calibration import (
    CalibratedTechnology,
    DirectionCoefficients,
)
from repro.models.interconnect import BufferedInterconnectModel
from repro.noc.evaluation import NocReport, evaluate_topology
from repro.noc.spec import CommunicationSpec
from repro.noc.synthesis import synthesize
from repro.noc.testcases import dual_vopd
from repro.noc.topology import NocTopology

DEFAULT_SCALES = (0.6, 0.8, 1.0, 1.25, 1.6)


def perturb_calibration(calibration: CalibratedTechnology,
                        drive_scale: float) -> CalibratedTechnology:
    """Scale the drive-resistance coefficients of both directions.

    ``drive_scale < 1`` models an optimistic characterization (wires
    look easier to drive than they are), ``> 1`` a pessimistic one.
    """
    if drive_scale <= 0:
        raise ValueError("drive_scale must be positive")

    def scale_direction(direction: DirectionCoefficients
                        ) -> DirectionCoefficients:
        b0, b1 = direction.drive
        return dataclasses.replace(
            direction, drive=(b0 * drive_scale, b1 * drive_scale))

    return dataclasses.replace(
        calibration,
        rise=scale_direction(calibration.rise),
        fall=scale_direction(calibration.fall),
    )


from repro.tech.design_styles import WireConfiguration


@dataclass(frozen=True)
class PerturbedWireConfiguration(WireConfiguration):
    """A wire view whose parasitics are off by a controlled factor.

    ``parasitic_scale < 1`` is an optimistic model (Bakoglu-direction
    error: wires look lighter and less resistive than reality);
    ``> 1`` is pessimistic.  The physical wires are unchanged — only
    what the *model* believes about them.
    """

    parasitic_scale: float = 1.0

    def resistance_per_meter(self) -> float:
        return (super().resistance_per_meter()
                * self.parasitic_scale)

    def ground_capacitance_per_meter(self) -> float:
        return (super().ground_capacitance_per_meter()
                * self.parasitic_scale)

    def coupling_capacitance_per_meter(self) -> float:
        return (super().coupling_capacitance_per_meter()
                * self.parasitic_scale)


def perturb_wire_view(config: WireConfiguration,
                      parasitic_scale: float
                      ) -> PerturbedWireConfiguration:
    """The same wires as ``config`` seen through an erroneous model."""
    if parasitic_scale <= 0:
        raise ValueError("parasitic_scale must be positive")
    return PerturbedWireConfiguration(
        layer=config.layer,
        style=config.style,
        delay_miller=config.delay_miller,
        power_miller=config.power_miller,
        include_scattering=config.include_scattering,
        include_barrier=config.include_barrier,
        parasitic_scale=parasitic_scale,
    )


def _link_set(topology: NocTopology) -> Set[Tuple[str, str]]:
    return {(a[1], b[1]) for a, b, _ in topology.links()
            if a[0] == "router" and b[0] == "router"}


@dataclass(frozen=True)
class SensitivityRow:
    """Outcome of synthesizing with one perturbed model."""

    scale: float
    believed: NocReport      # the perturbed model's own cost estimate
    actual: NocReport        # the accurate model's cost of the result
    topology_similarity: float   # Jaccard vs the accurate architecture
    regret: float            # actual power / accurate-optimal power - 1

    @property
    def estimation_error(self) -> float:
        """How far off the perturbed model believed its own cost was."""
        return self.believed.total_power / self.actual.total_power - 1.0


@dataclass(frozen=True)
class SensitivityResult:
    node: str
    design: str
    rows: Tuple[SensitivityRow, ...]

    def format(self) -> str:
        lines = [
            f"Decision sensitivity to model error "
            f"({self.design} @ {self.node}; wire parasitics scaled)",
            f"{'scale':>6} {'believed mW':>12} {'actual mW':>10} "
            f"{'est.err %':>10} {'regret %':>9} {'topo sim':>9} "
            f"{'infeas':>7}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.scale:6.2f} "
                f"{row.believed.total_power * 1e3:12.2f} "
                f"{row.actual.total_power * 1e3:10.2f} "
                f"{row.estimation_error * 100:+10.1f} "
                f"{row.regret * 100:+9.2f} "
                f"{row.topology_similarity:9.2f} "
                f"{row.actual.infeasible_links:7d}")
        lines.append("")
        lines.append(
            "scale < 1 = optimistic wire model (Bakoglu direction); "
            "est.err = the model's self-estimate vs true cost; regret = "
            "true cost of its architecture vs the accurate-model "
            "architecture; infeas = accepted links that are "
            "unbuildable.")
        return "\n".join(lines)

    def baseline_row(self) -> SensitivityRow:
        for row in self.rows:
            if row.scale == 1.0:
                return row
        raise ValueError("no unit-scale row in the sweep")


def run(
    node: str = "90nm",
    spec_factory: Callable[..., CommunicationSpec] = dual_vopd,
    scales: Sequence[float] = DEFAULT_SCALES,
    design_name: Optional[str] = None,
) -> SensitivityResult:
    """Sweep wire-parasitic scales and measure decision regret."""
    suite = ModelSuite.for_node(node)
    spec = spec_factory(suite.tech)
    if design_name is None:
        design_name = spec.name

    accurate_topology = synthesize(spec, suite.proposed, suite.tech)
    accurate_links = _link_set(accurate_topology)
    accurate_report = evaluate_topology(
        accurate_topology, suite.proposed, suite.tech, label="accurate")

    rows: List[SensitivityRow] = []
    for scale in scales:
        perturbed_model = BufferedInterconnectModel(
            tech=suite.tech,
            calibration=suite.calibration,
            config=perturb_wire_view(suite.config, scale),
            activity_factor=suite.proposed.activity_factor,
        )
        topology = synthesize(spec, perturbed_model, suite.tech)
        believed = evaluate_topology(topology, perturbed_model,
                                     suite.tech,
                                     label=f"scale {scale:g}/self")
        actual = evaluate_topology(topology, suite.proposed, suite.tech,
                                   label=f"scale {scale:g}/actual")
        links = _link_set(topology)
        union = accurate_links | links
        similarity = (len(accurate_links & links) / len(union)
                      if union else 1.0)
        regret = (actual.total_power / accurate_report.total_power
                  - 1.0)
        rows.append(SensitivityRow(
            scale=scale,
            believed=believed,
            actual=actual,
            topology_similarity=similarity,
            regret=regret,
        ))
    return SensitivityResult(node=node, design=design_name,
                             rows=tuple(rows))
