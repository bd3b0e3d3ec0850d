"""Flit-width exploration: a COSI-OCC design-space axis.

The data width of a NoC trades link area and repeater cost against
serialization: a narrower bus needs fewer wires (less lateral-coupling
capacitance and routing area) but runs at higher utilization and pays
more router energy per transported byte (more flits per packet).

:func:`explore_widths` synthesizes the same specification at several
candidate widths, re-expressing each flow's bandwidth at the candidate
width's serialization overhead, and reports the full cost of each
design point — the sweep a system architect runs before committing to
a flit width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.noc.evaluation import NocReport, evaluate_topology
from repro.noc.spec import CommunicationSpec
from repro.noc.synthesis import SynthesisConfig, SynthesisError, \
    synthesize
from repro.runtime import parallel_map, span
from repro.tech.parameters import TechnologyParameters

#: Packet header (routing/addressing) bits, paid once per packet.
HEADER_BITS = 32

#: Payload bits per packet used for the serialization model.
PACKET_PAYLOAD_BITS = 512

#: Sideband control bits each flit carries (type/VC), lost to payload.
FLIT_CONTROL_BITS = 2


@dataclass(frozen=True)
class WidthDesignPoint:
    """Outcome of synthesizing at one candidate width."""

    width: int
    report: Optional[NocReport]
    feasible: bool
    serialization_overhead: float   # > 1: flits per payload ratio

    @property
    def total_power(self) -> float:
        """Total NoC power in watts (inf when infeasible)."""
        if self.report is None:
            return float("inf")
        return self.report.total_power


@dataclass(frozen=True)
class WidthExploration:
    points: Tuple[WidthDesignPoint, ...]

    def best(self) -> WidthDesignPoint:
        feasible = [p for p in self.points if p.feasible]
        if not feasible:
            raise ValueError("no feasible width in the exploration")
        return min(feasible, key=lambda p: p.total_power)

    def format(self) -> str:
        lines = [
            "Flit-width exploration",
            f"{'width':>6} {'ser.ovh':>8} {'total mW':>9} "
            f"{'dyn mW':>8} {'area mm2':>9} {'hops':>6}",
        ]
        for point in self.points:
            if not point.feasible or point.report is None:
                lines.append(f"{point.width:6d} "
                             f"{point.serialization_overhead:8.3f} "
                             f"{'infeasible':>9}")
                continue
            report = point.report
            lines.append(
                f"{point.width:6d} {point.serialization_overhead:8.3f} "
                f"{report.total_power * 1e3:9.2f} "
                f"{report.dynamic_power * 1e3:8.2f} "
                f"{report.total_area * 1e6:9.3f} "
                f"{report.avg_hops:6.2f}")
        best = self.best()
        lines.append(f"best width: {best.width} bits "
                     f"({best.total_power * 1e3:.2f} mW)")
        return "\n".join(lines)


def serialization_overhead(width: int) -> float:
    """Raw-bits-per-payload-bit inflation at a given flit width.

    Two opposing effects create a sweet spot: narrow flits repeat the
    per-flit control bits many times per packet, wide flits waste bits
    to internal fragmentation (the last flit and the padded header).
    """
    import math
    if width <= FLIT_CONTROL_BITS:
        raise ValueError(
            f"width must exceed the {FLIT_CONTROL_BITS} control bits")
    effective = width - FLIT_CONTROL_BITS
    flits = math.ceil((PACKET_PAYLOAD_BITS + HEADER_BITS) / effective)
    return flits * width / PACKET_PAYLOAD_BITS


def respecify_width(spec: CommunicationSpec,
                    width: int) -> CommunicationSpec:
    """The same traffic demanded at a different flit width.

    Bandwidths inflate by the serialization overhead: narrower flits
    carry proportionally more header beats per payload.
    """
    overhead = serialization_overhead(width)
    adjusted = CommunicationSpec(
        name=f"{spec.name}@w{width}", data_width=width)
    for core in spec.cores.values():
        adjusted.add_core(core.name, core.x, core.y)
    for flow in spec.flows:
        adjusted.add_flow(flow.source, flow.dest,
                          flow.bandwidth * overhead,
                          max_hops=flow.max_hops)
    return adjusted


def _explore_one(task: "Tuple[CommunicationSpec, object, "
                 "TechnologyParameters, int, Optional[SynthesisConfig]]"
                 ) -> WidthDesignPoint:
    """Synthesize and cost one candidate width (pool-safe)."""
    spec, model, tech, width, config = task
    overhead = serialization_overhead(width)
    adjusted = respecify_width(spec, width)
    with span("widths.point", width=width, design=spec.name) as sp:
        try:
            topology = synthesize(adjusted, model, tech, config=config)
        except SynthesisError:
            sp.annotate(feasible=False)
            return WidthDesignPoint(
                width=width, report=None, feasible=False,
                serialization_overhead=overhead)
        report = evaluate_topology(topology, model, tech,
                                   label=f"w{width}")
        sp.annotate(feasible=True, total_power=report.total_power)
    return WidthDesignPoint(
        width=width, report=report, feasible=True,
        serialization_overhead=overhead)


def explore_widths(
    spec: CommunicationSpec,
    model,
    tech: TechnologyParameters,
    widths: Sequence[int] = (32, 64, 128, 256),
    config: Optional[SynthesisConfig] = None,
    workers: Optional[int] = None,
) -> WidthExploration:
    """Synthesize and cost the specification at each candidate width.

    Each width is an independent synthesis problem, so the sweep
    parallelizes per width without changing any design point.  Within
    each point, synthesis and evaluation each design every distinct
    link length once (:meth:`repro.noc.link.LinkDesigner.design_batch`);
    with the disk cache on, evaluation reads synthesis's designs.
    """
    tasks = [(spec, model, tech, width, config) for width in widths]
    with span("experiment.widths", design=spec.name,
              widths=len(widths)):
        points: List[WidthDesignPoint] = parallel_map(
            _explore_one, tasks, workers=workers, chunk=1,
            label="noc.width_point")
    return WidthExploration(points=tuple(points))
