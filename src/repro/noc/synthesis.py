"""Constraint-driven NoC synthesis (the COSI-OCC algorithm substitute).

The synthesis problem: given a communication specification, build a
network of routers and buffered links that routes every flow, respects
link capacity, router degree and wire-length feasibility constraints,
and minimizes total interconnect power.

The algorithm is the greedy incremental-cost formulation used by
constraint-driven synthesis tools:

1. One candidate router site per core (at the core's position); cores
   attach to their own router through a short access link.
2. Candidate router-router channels exist between every pair of sites
   whose Manhattan distance is *feasible* — i.e., an optimally buffered
   bus of that length can traverse it in one clock period under the
   active interconnect model.  This is where model accuracy bites: an
   optimistic model admits longer candidate links.
3. Flows are routed one at a time in decreasing bandwidth order, each
   along its minimum *marginal power* path (Dijkstra): reusing an
   installed link costs only the added dynamic power, while installing
   a new link pays its leakage and the new router ports too.
4. Installing a path commits its links, loads and routers.

The output topology depends on the interconnect model through the
candidate-edge feasibility and every edge weight — exactly the
mechanism by which Table III's "original" and "proposed" columns end up
with different architectures.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.noc.link import LinkDesign, LinkDesigner
from repro.noc.router import RouterParameters
from repro.noc.spec import CommunicationSpec, flows_by_bandwidth
from repro.noc.topology import NocTopology, NodeId, core_node, router_node
from repro.runtime import METRICS, span
from repro.tech.parameters import TechnologyParameters
from repro.units import um


@dataclass(frozen=True)
class SynthesisConfig:
    """Synthesis knobs.

    ``access_length`` is the physical core-to-router (network
    interface) wire length.  ``utilization`` derates raw link bandwidth
    to usable payload capacity.  ``max_flow_hops`` is a global latency
    constraint (maximum router traversals per flow); individual flows
    can tighten it further via ``Flow.max_hops``.
    """

    access_length: float = um(200)
    utilization: float = 0.75
    max_ports: int = 8
    max_flow_hops: Optional[int] = None

    def __post_init__(self) -> None:
        if self.access_length <= 0:
            raise ValueError("access_length must be positive")
        if not 0.0 < self.utilization <= 1.0:
            raise ValueError("utilization must lie in (0, 1]")
        if self.max_flow_hops is not None and self.max_flow_hops < 2:
            raise ValueError("max_flow_hops must be at least 2")


class SynthesisError(RuntimeError):
    """Raised when a flow cannot be routed under the constraints."""


@dataclass(frozen=True)
class _Candidate:
    """A candidate directed edge in the synthesis search graph, with
    the link design of its length (``None`` when timing cannot
    close)."""

    source: NodeId
    dest: NodeId
    length: float
    design: Optional[LinkDesign]


def _candidate_edges(spec: CommunicationSpec, config: SynthesisConfig,
                     designer: LinkDesigner) -> Dict[NodeId,
                                                     List[_Candidate]]:
    """Adjacency of the candidate graph keyed by source node.

    Every distinct candidate length is designed once, in one
    ``design_batch`` call, and each candidate carries its design, so
    routing's edge relaxations never go back to the designer.
    """
    edges: List[Tuple[NodeId, NodeId, float]] = []
    names = sorted(spec.cores)
    for name in names:
        edges.append((core_node(name), router_node(name),
                      config.access_length))
        edges.append((router_node(name), core_node(name),
                      config.access_length))
    max_link_length = designer.max_length()
    for a in names:
        core_a = spec.cores[a]
        for b in names:
            if a == b:
                continue
            distance = core_a.distance_to(spec.cores[b])
            length = max(distance, config.access_length)
            if length <= max_link_length:
                edges.append((router_node(a), router_node(b), length))

    lengths = sorted({length for _, _, length in edges})
    designs = dict(zip(lengths, designer.design_batch(lengths)))
    adjacency: Dict[NodeId, List[_Candidate]] = {}
    for source, dest, length in edges:
        adjacency.setdefault(source, []).append(
            _Candidate(source, dest, length, designs[length]))
    return adjacency


def synthesize(
    spec: CommunicationSpec,
    model,
    tech: TechnologyParameters,
    router_params: Optional[RouterParameters] = None,
    config: Optional[SynthesisConfig] = None,
) -> NocTopology:
    """Synthesize a NoC for ``spec`` under the given interconnect model.

    ``model`` is any object with the ``evaluate(...)`` interconnect
    interface (proposed or baseline).  Raises :class:`SynthesisError`
    if some flow cannot be routed within the constraints.
    """
    spec.validate()
    if config is None:
        config = SynthesisConfig()
    if router_params is None:
        router_params = RouterParameters.for_technology(
            tech, flit_width=spec.data_width)

    with span("noc.synthesize", design=spec.name, node=tech.name,
              width=spec.data_width, flows=len(spec.flows)) as synth, \
            METRICS.timer("noc.synthesize"):
        designer = LinkDesigner(model, tech, spec.data_width,
                                utilization=config.utilization)
        capacity = designer.capacity()
        adjacency = _candidate_edges(spec, config, designer)
        lengths = {(candidate.source, candidate.dest): candidate.length
                   for candidates in adjacency.values()
                   for candidate in candidates}

        topology = NocTopology(spec=spec)
        flow_order = flows_by_bandwidth(spec.flows)
        index_of = {id(flow): i for i, flow in enumerate(spec.flows)}

        for flow in flow_order:
            hop_budget = _hop_budget(flow.max_hops,
                                     config.max_flow_hops)
            with span("noc.route_flow", source=flow.source,
                      dest=flow.dest,
                      bandwidth=flow.bandwidth) as routing:
                routed = _route_one_flow(
                    flow.source, flow.dest, flow.bandwidth, adjacency,
                    topology, router_params, capacity, tech,
                    hop_budget=hop_budget)
                if routed is None:
                    routing.annotate(routed=False)
                    constraint = (f" within {hop_budget} hops"
                                  if hop_budget is not None else "")
                    raise SynthesisError(
                        f"flow {flow.source} -> {flow.dest} "
                        f"({flow.bandwidth:.3g} b/s) cannot be routed"
                        f"{constraint}")
                path, marginal_power = routed
                routing.annotate(routed=True, hops=len(path) - 1,
                                 marginal_power=marginal_power)
                METRICS.count("synth.flows_routed")
                _commit_path(topology, spec, path, lengths)
                topology.route_flow(index_of[id(flow)], path)
        synth.annotate(routers=len(topology.routers()),
                       links=topology.graph.number_of_edges())
    return topology


def _hop_budget(flow_limit: Optional[int],
                global_limit: Optional[int]) -> Optional[int]:
    """The binding hop constraint for one flow, or ``None``."""
    limits = [limit for limit in (flow_limit, global_limit)
              if limit is not None]
    return min(limits) if limits else None


def _edge_weight(candidate: _Candidate, bandwidth: float,
                 topology: NocTopology,
                 router_params: RouterParameters, capacity: float,
                 tech: TechnologyParameters) -> Optional[float]:
    """Marginal power (W) of pushing ``bandwidth`` over a candidate edge.

    Returns ``None`` for inadmissible edges (capacity exhausted, degree
    limit, infeasible length); each rejection reason is counted under
    ``synth.reject.*`` so a trace/stats footer explains *why* candidate
    links were discarded.  The caller counts the calls as
    ``synth.edges_evaluated``.  Routing never weighs an edge into a
    state it has settled, so both counters cover only relaxations
    into unsettled states.  Every weight is a sum of powers, so it is
    never negative, which that skip relies on.

    The weight is summed in one fixed order: link dynamic power, the
    head router's traversal power, then, for a link not yet installed,
    its leakage and one port's leakage per endpoint router that gains
    a neighbour.  Routes, and so every synthesized bit, depend on it.
    ``DiGraph.has_edge`` is also false for a node not yet in the graph.
    """
    graph = topology.graph
    source, dest = candidate.source, candidate.dest
    installed = graph.has_edge(source, dest)
    if installed:
        load = topology.edge_load(source, dest)
        if load + bandwidth > capacity:
            METRICS.count("synth.reject.capacity")
            return None
    design = candidate.design
    if design is None:
        METRICS.count("synth.reject.infeasible_length")
        return None

    weight = design.dynamic_power(bandwidth, tech.vdd,
                                  tech.clock_frequency)
    # Router traversal energy at the edge head (if it is a router).
    if dest[0] == "router":
        weight += router_params.dynamic_power(bandwidth)

    if not installed:
        weight += design.leakage_power
        # New ports: each endpoint router gains a neighbour unless the
        # reverse direction already exists.
        if graph.has_edge(dest, source):
            return weight
        for this in (source, dest):
            if this[0] != "router":
                continue
            degree = (topology.router_degree(this)
                      if this in graph else 0)
            if degree + 1 > router_params.max_ports:
                METRICS.count("synth.reject.ports")
                return None
            weight += router_params.leakage_per_port
    return weight


def _route_one_flow(source: str, dest: str, bandwidth: float,
                    adjacency: Dict[NodeId, List[_Candidate]],
                    topology: NocTopology,
                    router_params: RouterParameters, capacity: float,
                    tech: TechnologyParameters,
                    hop_budget: Optional[int] = None,
                    ) -> Optional[Tuple[List[NodeId], float]]:
    """Dijkstra over the candidate graph with marginal-power weights.

    Returns the path together with its total marginal power (W), or
    ``None`` when no admissible path exists.  With a hop budget the
    search runs over (node, hops-used) states, so a node may be
    revisited with fewer hops spent — the standard
    resource-constrained shortest-path relaxation.

    An edge into a settled state is never weighed.  Weights are
    powers, never negative, so a settled state's cost is at most the
    popped cost, which no weight lowers: the strict ``<`` could not
    fire, and a NaN weight never updates either.  The relaxations into
    unsettled states are counted once per flow, as
    ``synth.edges_evaluated``.
    """
    start = core_node(source)
    goal = core_node(dest)
    State = Tuple[NodeId, int]
    start_state: State = (start, 0)
    best: Dict[State, float] = {start_state: 0.0}
    parent: Dict[State, State] = {}
    heap: List[Tuple[float, State]] = [(0.0, start_state)]
    visited = set()
    evaluated = 0
    routed = None

    while heap:
        cost, state = heapq.heappop(heap)
        if state in visited:
            continue
        visited.add(state)
        node, hops = state
        if node == goal:
            path = [node]
            cursor = state
            while cursor != start_state:
                cursor = parent[cursor]
                path.append(cursor[0])
            routed = list(reversed(path)), cost
            break
        for candidate in adjacency.get(node, ()):  # sorted construction
            next_hops = hops + (1 if candidate.dest[0] == "router"
                                else 0)
            if hop_budget is not None and next_hops > hop_budget:
                continue
            next_state: State = (candidate.dest,
                                 next_hops if hop_budget is not None
                                 else 0)
            if next_state in visited:
                continue
            evaluated += 1
            weight = _edge_weight(candidate, bandwidth, topology,
                                  router_params, capacity, tech)
            if weight is None:
                continue
            new_cost = cost + weight
            if new_cost < best.get(next_state, float("inf")):
                best[next_state] = new_cost
                parent[next_state] = state
                heapq.heappush(heap, (new_cost, next_state))
    METRICS.count("synth.edges_evaluated", evaluated)
    return routed


def _commit_path(topology: NocTopology, spec: CommunicationSpec,
                 path: List[NodeId],
                 lengths: Dict[Tuple[NodeId, NodeId], float]) -> None:
    """Install the path's nodes and links into the topology;
    ``lengths`` maps each candidate (source, dest) to its length."""
    for node in path:
        if node[0] == "core":
            topology.add_core_node(node[1])
        else:
            core = spec.cores[node[1]]
            topology.add_router(node[1], core.x, core.y)
    for a, b in zip(path, path[1:]):
        topology.add_link(a, b, lengths[(a, b)])
