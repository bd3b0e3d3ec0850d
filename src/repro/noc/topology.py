"""The synthesized network: routers, links, and flow routes.

Nodes are ``("core", name)`` or ``("router", name)``; edges are
directed links carrying a physical length.  A bidirectional physical
channel is represented as two directed links, the standard NoC
convention.  Router degree counts *distinct neighbours* (one physical
port serves both directions of a channel).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, \
    Set, Tuple

from repro.noc.spec import CommunicationSpec

NodeId = Tuple[str, str]


class DiGraph:
    """An insertion-ordered directed graph with per-node and per-edge
    attribute dicts.

    It keeps the subset of ``networkx.DiGraph`` this package uses, with
    the same iteration order: ``nodes`` in insertion order, and
    ``edges(data=True)`` source-major: sources in node insertion order,
    then each source's successors in edge insertion order.  The link
    power and area sums iterate that order, so their last bits depend
    on it.
    """

    def __init__(self) -> None:
        self.nodes: Dict[Hashable, Dict[str, Any]] = {}
        self._succ: Dict[Hashable, Dict[Hashable, Dict[str, Any]]] = {}
        self._pred: Dict[Hashable, Dict[Hashable, None]] = {}
        self.edges = _Edges(self._succ)

    def __contains__(self, node: Hashable) -> bool:
        return node in self.nodes

    def add_node(self, node: Hashable, **attrs: Any) -> None:
        """Add ``node`` (if new) and update its attributes."""
        if node not in self.nodes:
            self.nodes[node] = {}
            self._succ[node] = {}
            self._pred[node] = {}
        self.nodes[node].update(attrs)

    def add_edge(self, source: Hashable, dest: Hashable,
                 **attrs: Any) -> None:
        """Add the edge (and any missing endpoint), then update its
        attributes."""
        self.add_node(source)
        self.add_node(dest)
        self._succ[source].setdefault(dest, {}).update(attrs)
        self._pred[dest][source] = None

    def has_edge(self, source: Hashable, dest: Hashable) -> bool:
        return dest in self._succ.get(source, ())

    def successors(self, node: Hashable) -> Iterator[Hashable]:
        return iter(self._succ[node])

    def predecessors(self, node: Hashable) -> Iterator[Hashable]:
        return iter(self._pred[node])

    def neighbours(self, node: Hashable) -> Set[Hashable]:
        """The nodes ``node`` has an edge to or from."""
        return self._pred[node].keys() | self._succ[node].keys()

    def number_of_nodes(self) -> int:
        return len(self.nodes)

    def number_of_edges(self) -> int:
        return sum(len(successors) for successors in self._succ.values())


class _Edges:
    """``graph.edges[source, dest]`` is that edge's attribute dict;
    ``graph.edges(data=...)`` iterates the edges source-major."""

    def __init__(self, succ: Dict[Hashable, Dict[Hashable, Dict]]):
        self._succ = succ

    def __getitem__(self, edge: Tuple[Hashable, Hashable]
                    ) -> Dict[str, Any]:
        source, dest = edge
        return self._succ[source][dest]

    def __call__(self, data: bool = False) -> Iterator[Tuple]:
        for source, successors in self._succ.items():
            for dest, attrs in successors.items():
                yield (source, dest, attrs) if data else (source, dest)


def core_node(name: str) -> NodeId:
    return ("core", name)


def router_node(name: str) -> NodeId:
    return ("router", name)


@dataclass
class NocTopology:
    """A synthesized NoC: graph + per-flow routes + link loads."""

    spec: CommunicationSpec
    graph: DiGraph = field(default_factory=DiGraph)
    routes: Dict[int, List[NodeId]] = field(default_factory=dict)

    # -- construction ------------------------------------------------------

    def add_router(self, name: str, x: float, y: float) -> NodeId:
        """Add a router placed at ``(x, y)`` meters (idempotent)."""
        node = router_node(name)
        if node not in self.graph:
            self.graph.add_node(node, x=x, y=y)
        return node

    def add_core_node(self, name: str) -> NodeId:
        core = self.spec.cores[name]
        node = core_node(name)
        if node not in self.graph:
            self.graph.add_node(node, x=core.x, y=core.y)
        return node

    def add_link(self, source: NodeId, dest: NodeId,
                 length: float) -> None:
        """Install a directed link of ``length`` meters (idempotent)."""
        if source not in self.graph or dest not in self.graph:
            raise KeyError("both link endpoints must exist")
        if not self.graph.has_edge(source, dest):
            self.graph.add_edge(source, dest, length=length, load=0.0)

    def route_flow(self, flow_index: int, path: List[NodeId]) -> None:
        """Record a flow's path and add its load to every edge."""
        if flow_index in self.routes:
            raise ValueError(f"flow {flow_index} is already routed")
        flow = self.spec.flows[flow_index]
        if path[0] != core_node(flow.source):
            raise ValueError("path must start at the flow's source core")
        if path[-1] != core_node(flow.dest):
            raise ValueError("path must end at the flow's dest core")
        for a, b in zip(path, path[1:]):
            if not self.graph.has_edge(a, b):
                raise KeyError(f"path uses uninstalled link {a} -> {b}")
        for a, b in zip(path, path[1:]):
            self.graph.edges[a, b]["load"] += flow.bandwidth
        self.routes[flow_index] = list(path)

    # -- queries -----------------------------------------------------------

    def routers(self) -> List[NodeId]:
        return [node for node in self.graph.nodes if node[0] == "router"]

    def links(self) -> Iterable[Tuple[NodeId, NodeId, Dict]]:
        return self.graph.edges(data=True)

    def router_degree(self, node: NodeId) -> int:
        """Distinct physical neighbours (ports) of a router."""
        return len(self.graph.neighbours(node))

    def edge_load(self, source: NodeId, dest: NodeId) -> float:
        """Routed traffic on one link, bits/s."""
        return self.graph.edges[source, dest]["load"]

    def hop_count(self, flow_index: int) -> int:
        """Router traversals of one routed flow."""
        path = self.routes[flow_index]
        return sum(1 for node in path if node[0] == "router")

    def hop_statistics(self) -> Tuple[float, int]:
        """(average, maximum) router hops over all routed flows."""
        if not self.routes:
            return 0.0, 0
        hops = [self.hop_count(index) for index in self.routes]
        return sum(hops) / len(hops), max(hops)

    def max_link_length(self) -> float:
        """Longest link in meters (0.0 when there are no links)."""
        lengths = [data["length"] for _, _, data in self.links()]
        return max(lengths) if lengths else 0.0

    def router_link_count(self) -> int:
        """Number of directed router-to-router links."""
        return sum(1 for a, b, _ in self.links()
                   if a[0] == "router" and b[0] == "router")

    # -- validation ----------------------------------------------------------

    def validate(self, capacity: float,
                 max_ports: Optional[int] = None) -> List[str]:
        """Structural and constraint checks against a per-link
        ``capacity`` in bits/s; returns human-readable violations
        (empty list when clean)."""
        problems: List[str] = []
        for index, _flow in enumerate(self.spec.flows):
            if index not in self.routes:
                problems.append(f"flow {index} is unrouted")
        for a, b, data in self.links():
            if data["load"] > capacity * (1.0 + 1e-9):
                problems.append(
                    f"link {a} -> {b} overloaded: "
                    f"{data['load']:.3g} > {capacity:.3g} bits/s")
        if max_ports is not None:
            for router in self.routers():
                degree = self.router_degree(router)
                if degree > max_ports:
                    problems.append(
                        f"router {router[1]} has {degree} ports "
                        f"(max {max_ports})")
        # Loads must equal the sum of routed flows per edge.
        recomputed: Dict[Tuple[NodeId, NodeId], float] = {}
        for index, path in self.routes.items():
            bandwidth = self.spec.flows[index].bandwidth
            for a, b in zip(path, path[1:]):
                recomputed[(a, b)] = recomputed.get((a, b), 0.0) + bandwidth
        for a, b, data in self.links():
            expected = recomputed.get((a, b), 0.0)
            if abs(expected - data["load"]) > 1e-6 * max(expected, 1.0):
                problems.append(
                    f"link {a} -> {b} load {data['load']:.6g} does not "
                    f"match routed flows {expected:.6g}")
        return problems

    # -- rendering ----------------------------------------------------------

    def summary(self) -> str:
        avg_hops, max_hops = self.hop_statistics()
        return (f"{self.spec.name}: {len(self.routers())} routers, "
                f"{self.graph.number_of_edges()} links "
                f"({self.router_link_count()} router-router), "
                f"hops avg {avg_hops:.2f} max {max_hops}, "
                f"longest link {self.max_link_length() * 1e3:.2f} mm")
