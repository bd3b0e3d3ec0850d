"""Post-synthesis improvement: rip-up and re-route.

The greedy constructive synthesis routes flows in bandwidth order, so
early flows commit links without knowing what later flows will need.
The classic remedy is an improvement loop: repeatedly remove one flow
from the network, re-route it against the *final* residual network
(where sharing opportunities are now visible), and keep the change if
the total cost dropped.

The loop is deterministic (flows are revisited in a fixed order),
monotone (a pass never increases the evaluated power), and terminates
when a full pass makes no improvement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.noc.evaluation import evaluate_topology
from repro.noc.link import LinkDesigner
from repro.noc.router import RouterParameters
from repro.noc.spec import CommunicationSpec
from repro.noc.synthesis import (
    SynthesisConfig,
    _candidate_edges,
    _commit_path,
    _hop_budget,
    _route_one_flow,
)
from repro.noc.topology import NocTopology, NodeId
from repro.runtime import METRICS, span
from repro.tech.parameters import TechnologyParameters


@dataclass(frozen=True)
class ImprovementResult:
    """Outcome of the rip-up-and-re-route loop."""

    topology: NocTopology
    initial_power: float
    final_power: float
    passes: int
    reroutes: int

    @property
    def improvement(self) -> float:
        """Fractional power reduction achieved (0.03 = 3%)."""
        if self.initial_power <= 0:
            return 0.0
        return 1.0 - self.final_power / self.initial_power


def _rebuild_without_flow(topology: NocTopology, skip_index: int
                          ) -> NocTopology:
    """A copy of the topology with one flow's route (and its load)
    removed; links that become unused are pruned."""
    spec = topology.spec
    rebuilt = NocTopology(spec=spec)
    for index, path in topology.routes.items():
        if index == skip_index:
            continue
        for node in path:
            if node[0] == "core":
                rebuilt.add_core_node(node[1])
            else:
                x = topology.graph.nodes[node]["x"]
                y = topology.graph.nodes[node]["y"]
                rebuilt.add_router(node[1], x, y)
        for a, b in zip(path, path[1:]):
            rebuilt.add_link(a, b, topology.edge_length(a, b))
    for index, path in topology.routes.items():
        if index != skip_index:
            rebuilt.route_flow(index, path)
    return rebuilt


def improve_topology(
    topology: NocTopology,
    model,
    tech: TechnologyParameters,
    router_params: Optional[RouterParameters] = None,
    config: Optional[SynthesisConfig] = None,
    max_passes: int = 3,
) -> ImprovementResult:
    """Rip-up-and-re-route until a full pass yields no improvement.

    Each candidate change is accepted only if the *evaluated* total
    power (same metric as :func:`~repro.noc.evaluation.evaluate_topology`)
    strictly decreases, so the result is never worse than the input.
    """
    spec = topology.spec
    if config is None:
        config = SynthesisConfig()
    if router_params is None:
        router_params = RouterParameters.for_technology(
            tech, flit_width=spec.data_width)

    designer = LinkDesigner(model, tech, spec.data_width,
                            utilization=config.utilization)
    capacity = designer.capacity()
    adjacency = _candidate_edges(spec, config, designer)

    def power_of(candidate: NocTopology) -> float:
        return evaluate_topology(candidate, model, tech,
                                 router_params=router_params,
                                 utilization=config.utilization
                                 ).total_power

    current = topology
    initial_power = power_of(current)
    current_power = initial_power

    with span("noc.improve", design=spec.name,
              flows=len(current.routes)) as improving, \
            METRICS.timer("noc.improve"):
        passes, reroutes, current, current_power = _improvement_passes(
            spec, adjacency, router_params, capacity, config, tech,
            power_of, current, current_power, max_passes)
        improving.annotate(passes=passes, reroutes=reroutes)

    return ImprovementResult(
        topology=current,
        initial_power=initial_power,
        final_power=current_power,
        passes=passes,
        reroutes=reroutes,
    )


def _improvement_passes(spec, adjacency, router_params, capacity,
                        config, tech, power_of, current, current_power,
                        max_passes):
    """The rip-up/re-route pass loop; returns the final state."""
    reroutes = 0
    passes = 0
    for _pass in range(max_passes):
        passes += 1
        improved_this_pass = False
        for index in sorted(current.routes):
            flow = spec.flows[index]
            stripped = _rebuild_without_flow(current, index)
            hop_budget = _hop_budget(flow.max_hops,
                                     config.max_flow_hops)
            routed = _route_one_flow(
                flow.source, flow.dest, flow.bandwidth, adjacency,
                stripped, router_params, capacity, config, tech,
                hop_budget=hop_budget)
            if routed is None:
                continue
            path, _marginal_power = routed
            if path == current.routes[index]:
                continue
            _commit_path(stripped, spec, path, adjacency)
            stripped.route_flow(index, path)
            candidate_power = power_of(stripped)
            if candidate_power < current_power * (1.0 - 1e-9):
                current = stripped
                current_power = candidate_power
                reroutes += 1
                improved_this_pass = True
        if not improved_this_pass:
            break

    return passes, reroutes, current, current_power
