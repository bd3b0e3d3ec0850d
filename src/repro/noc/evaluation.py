"""NoC evaluation: the numbers reported in Table III.

Given a synthesized topology and an interconnect model, recompute every
link's buffering and cost under that model and aggregate:

* interconnect dynamic power (links at their routed loads),
* leakage power (link repeaters + router ports),
* router dynamic power (traversal energy times traffic),
* area (repeaters + wires + routers),
* hop statistics and worst link delay,
* the number of links that are *infeasible* under the evaluating model
  (nonzero when a topology synthesized with an optimistic model is
  re-evaluated under an accurate one — the paper's "excessively long
  wires" observation).

Because the evaluating model can differ from the model used during
synthesis, this module supports the cross-evaluation experiments: what
does the accurate model say about the optimistic model's architecture?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.buffering.optimizer import optimize_buffering
from repro.noc.link import LINK_INPUT_SLEW, LinkDesigner
from repro.noc.router import RouterParameters
from repro.noc.topology import NocTopology
from repro.tech.parameters import TechnologyParameters
from repro.units import to_mm, to_mw, to_ns


@dataclass(frozen=True)
class NocReport:
    """Aggregated metrics of one (topology, model) evaluation."""

    name: str
    tech_name: str
    num_routers: int
    num_links: int
    dynamic_power: float          # W: link switching at routed loads
    leakage_power: float          # W: link repeaters + router ports
    router_dynamic_power: float   # W: router traversal energy
    repeater_area: float          # m^2
    wire_area: float              # m^2
    router_area: float            # m^2
    avg_hops: float
    max_hops: int
    max_link_delay: float         # s (feasible links only)
    max_link_length: float        # m
    infeasible_links: int

    @property
    def total_power(self) -> float:
        """Link plus router power, in watts."""
        return (self.dynamic_power + self.leakage_power
                + self.router_dynamic_power)

    @property
    def total_area(self) -> float:
        """Repeater, wire and router area, in square meters."""
        return self.repeater_area + self.wire_area + self.router_area

    def row(self) -> str:
        """One Table III-style row."""
        return (f"{self.name:<22} {to_mw(self.dynamic_power):8.2f} "
                f"{to_mw(self.leakage_power):8.2f} "
                f"{to_mw(self.router_dynamic_power):8.2f} "
                f"{self.total_area * 1e6:8.3f} "
                f"{self.avg_hops:6.2f} {self.max_hops:4d} "
                f"{to_ns(self.max_link_delay):7.3f} "
                f"{to_mm(self.max_link_length):6.2f} "
                f"{self.infeasible_links:5d}")

    @staticmethod
    def header() -> str:
        return (f"{'configuration':<22} {'dyn mW':>8} {'leak mW':>8} "
                f"{'rtr mW':>8} {'area mm2':>8} {'hops':>6} {'max':>4} "
                f"{'dly ns':>7} {'Lmax':>6} {'infs':>5}")


def evaluate_topology(
    topology: NocTopology,
    model,
    tech: TechnologyParameters,
    router_params: Optional[RouterParameters] = None,
    utilization: float = 0.75,
    label: Optional[str] = None,
) -> NocReport:
    """Evaluate a topology's cost under an interconnect model.

    Every directed link is (re)designed under ``model``.  Links longer
    than the model's feasible maximum are counted as infeasible; their
    power/area are still estimated from the delay-optimal buffering so
    the totals remain comparable.
    """
    spec = topology.spec
    if router_params is None:
        router_params = RouterParameters.for_technology(
            tech, flit_width=spec.data_width)
    designer = LinkDesigner(model, tech, spec.data_width,
                            utilization=utilization)
    # Design every distinct link length once, in one span; the loop
    # below then finds each link's design in the memo.
    designer.design_batch(sorted({data["length"]
                                  for _, _, data in topology.links()}))

    dynamic = 0.0
    leakage = 0.0
    repeater_area = 0.0
    wire_area = 0.0
    max_delay = 0.0
    max_length = 0.0
    infeasible = 0

    for a, b, data in topology.links():
        length = data["length"]
        load = data["load"]
        max_length = max(max_length, length)
        design = designer.design(length)
        if design is None:
            infeasible += 1
            # Estimate with the fastest practical buffering so the
            # aggregate cost still reflects this link.
            solution = optimize_buffering(
                model, length, delay_weight=1.0,
                input_slew=LINK_INPUT_SLEW)
            estimate = model.evaluate(
                length, solution.num_repeaters, solution.repeater_size,
                LINK_INPUT_SLEW, bus_width=spec.data_width)
            activity_ref = getattr(model, "activity_factor", 0.15)
            switched = estimate.dynamic_power / (
                activity_ref * tech.vdd**2 * tech.clock_frequency)
            activity = load / (spec.data_width * tech.clock_frequency)
            dynamic += (activity * switched * tech.vdd**2
                        * tech.clock_frequency)
            leakage += estimate.leakage_power
            repeater_area += estimate.repeater_area
            wire_area += estimate.wire_area
        else:
            dynamic += design.dynamic_power(load, tech.vdd,
                                            tech.clock_frequency)
            leakage += design.leakage_power
            repeater_area += design.repeater_area
            wire_area += design.wire_area
            max_delay = max(max_delay, design.delay)

    router_area = 0.0
    router_dynamic = 0.0
    for router in topology.routers():
        ports = topology.router_degree(router)
        leakage += router_params.leakage_power(ports)
        router_area += router_params.area(ports)
    for index in topology.routes:
        bandwidth = spec.flows[index].bandwidth
        hops = topology.hop_count(index)
        router_dynamic += hops * router_params.dynamic_power(bandwidth)

    avg_hops, max_hops = topology.hop_statistics()
    return NocReport(
        name=label or spec.name,
        tech_name=tech.name,
        num_routers=len(topology.routers()),
        num_links=topology.graph.number_of_edges(),
        dynamic_power=dynamic,
        leakage_power=leakage,
        router_dynamic_power=router_dynamic,
        repeater_area=repeater_area,
        wire_area=wire_area,
        router_area=router_area,
        avg_hops=avg_hops,
        max_hops=max_hops,
        max_link_delay=max_delay,
        max_link_length=max_length,
        infeasible_links=infeasible,
    )
