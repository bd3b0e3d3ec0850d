"""Deadlock analysis of routed NoCs.

Wormhole networks deadlock when the channel dependency graph (CDG) has
a cycle: a packet holding channel A while waiting for channel B creates
a dependency A -> B, and a cyclic chain of such dependencies can stall
forever.  The classical result (Dally & Seitz): a routing function is
deadlock-free iff its CDG is acyclic.

This module builds the CDG induced by a topology's *actual routes* (the
dependencies real traffic can create, not all that the topology could
express) and checks it for cycles.  XY mesh routing is provably acyclic;
the greedy synthesizer's routes must be verified, and the checker also
reports offending cycles so a designer can add virtual channels or
re-route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Set, Tuple

from repro.noc.topology import DiGraph, NocTopology, NodeId

Channel = Tuple[NodeId, NodeId]


@dataclass(frozen=True)
class DeadlockReport:
    """Outcome of a channel-dependency analysis."""

    channel_count: int
    dependency_count: int
    cycles: Tuple[Tuple[Channel, ...], ...]

    @property
    def deadlock_free(self) -> bool:
        return not self.cycles

    def summary(self) -> str:
        verdict = ("deadlock-free" if self.deadlock_free
                   else f"{len(self.cycles)} dependency cycle(s)")
        return (f"{self.channel_count} channels, "
                f"{self.dependency_count} dependencies: {verdict}")


def channel_dependency_graph(topology: NocTopology) -> DiGraph:
    """CDG induced by the routed flows.

    Nodes are directed channels (links); an edge A -> B exists when
    some routed flow traverses channel A immediately before channel B.
    """
    cdg = DiGraph()
    for a, b, _data in topology.links():
        cdg.add_node((a, b))
    for path in topology.routes.values():
        channels = list(zip(path, path[1:]))
        for held, wanted in zip(channels, channels[1:]):
            cdg.add_edge(held, wanted)
    return cdg


def dependency_cycles(graph: DiGraph, max_cycles: int
                      ) -> List[Tuple[Hashable, ...]]:
    """Up to ``max_cycles`` cycles of ``graph``, one per back edge of
    an iterative depth-first search.

    The search starts from each unvisited node in insertion order and
    takes successors in insertion order, so the answer is
    deterministic.  Each back edge contributes the one simple cycle it
    closes along the search path, starting at the node it returns to;
    other cycles through the same back edge are not listed.  Every
    cycle of a graph contains a back edge of any depth-first search,
    so an empty answer proves the graph acyclic.
    """
    cycles: List[Tuple[Hashable, ...]] = []
    finished: Set[Hashable] = set()
    for root in graph.nodes:
        if root in finished:
            continue
        path = [root]
        depth: Dict[Hashable, int] = {root: 0}
        pending = [graph.successors(root)]
        while pending:
            for node in pending[-1]:
                if node in depth:
                    cycles.append(tuple(path[depth[node]:]))
                    if len(cycles) >= max_cycles:
                        return cycles
                elif node not in finished:
                    depth[node] = len(path)
                    path.append(node)
                    pending.append(graph.successors(node))
                    break
            else:
                pending.pop()
                done = path.pop()
                del depth[done]
                finished.add(done)
    return cycles


def analyze_deadlock(topology: NocTopology,
                     max_cycles: int = 10) -> DeadlockReport:
    """Check the routed topology for potential wormhole deadlock."""
    cdg = channel_dependency_graph(topology)
    return DeadlockReport(
        channel_count=cdg.number_of_nodes(),
        dependency_count=cdg.number_of_edges(),
        cycles=tuple(dependency_cycles(cdg, max_cycles)),
    )


def assert_deadlock_free(topology: NocTopology) -> None:
    """Raise ``RuntimeError`` with the offending cycle when unsafe."""
    report = analyze_deadlock(topology, max_cycles=1)
    if not report.deadlock_free:
        cycle = report.cycles[0]
        pretty = " -> ".join(f"{a[1]}>{b[1]}" for a, b in cycle)
        raise RuntimeError(f"channel dependency cycle: {pretty}")
