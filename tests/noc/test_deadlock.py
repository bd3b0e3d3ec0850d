"""Channel-dependency deadlock analysis."""

import sys

import numpy as np
import pytest

from repro.noc.deadlock import (
    analyze_deadlock,
    assert_deadlock_free,
    channel_dependency_graph,
    dependency_cycles,
)
from repro.noc.mesh import build_mesh
from repro.noc.spec import CommunicationSpec
from repro.noc.synthesis import synthesize
from repro.noc.testcases import dual_vopd, vproc
from repro.noc.topology import DiGraph, NocTopology, core_node, \
    router_node
from repro.units import mm


def ring_topology():
    """A hand-built topology whose routes form a dependency cycle."""
    spec = CommunicationSpec(name="ring", data_width=8)
    positions = [(0, 0), (2, 0), (2, 2), (0, 2)]
    for index, (x, y) in enumerate(positions):
        spec.add_core(f"c{index}", mm(x), mm(y))
    # Each flow goes two hops clockwise around the ring.
    for index in range(4):
        spec.add_flow(f"c{index}", f"c{(index + 2) % 4}", 1e8)

    topology = NocTopology(spec=spec)
    for index, (x, y) in enumerate(positions):
        topology.add_core_node(f"c{index}")
        topology.add_router(f"r{index}", mm(x), mm(y))
        topology.add_link(core_node(f"c{index}"),
                          router_node(f"r{index}"), mm(0.2))
        topology.add_link(router_node(f"r{index}"),
                          core_node(f"c{index}"), mm(0.2))
    for index in range(4):
        topology.add_link(router_node(f"r{index}"),
                          router_node(f"r{(index + 1) % 4}"), mm(2))
    for index in range(4):
        path = [core_node(f"c{index}"),
                router_node(f"r{index}"),
                router_node(f"r{(index + 1) % 4}"),
                router_node(f"r{(index + 2) % 4}"),
                core_node(f"c{(index + 2) % 4}")]
        topology.route_flow(index, path)
    return topology


class TestCdgConstruction:
    def test_channels_are_nodes(self, suite90):
        spec = dual_vopd(suite90.tech)
        topology = synthesize(spec, suite90.proposed, suite90.tech)
        cdg = channel_dependency_graph(topology)
        assert cdg.number_of_nodes() == \
            topology.graph.number_of_edges()

    def test_dependencies_follow_routes(self):
        topology = ring_topology()
        cdg = channel_dependency_graph(topology)
        held = (router_node("r0"), router_node("r1"))
        wanted = (router_node("r1"), router_node("r2"))
        assert cdg.has_edge(held, wanted)


class TestCycleDetection:
    def test_ring_routes_deadlock(self):
        report = analyze_deadlock(ring_topology())
        assert not report.deadlock_free
        assert len(report.cycles) >= 1
        assert "cycle" in report.summary()

    def test_assert_raises_on_ring(self):
        with pytest.raises(RuntimeError, match="dependency cycle"):
            assert_deadlock_free(ring_topology())

    def test_xy_mesh_is_deadlock_free(self, suite90):
        spec = vproc(suite90.tech)
        mesh = build_mesh(spec)
        report = analyze_deadlock(mesh)
        assert report.deadlock_free, report.summary()

    def test_synthesized_testcases_are_deadlock_free(self, suite90):
        for factory in (dual_vopd, vproc):
            spec = factory(suite90.tech)
            topology = synthesize(spec, suite90.proposed, suite90.tech)
            report = analyze_deadlock(topology)
            assert report.deadlock_free, (spec.name, report.summary())


def graph_of(nodes, edges):
    """A :class:`DiGraph` with ``nodes`` added first, in order, then
    ``edges``, in order."""
    graph = DiGraph()
    for node in nodes:
        graph.add_node(node)
    for source, dest in edges:
        graph.add_edge(source, dest)
    return graph


def chain_topology(routers):
    """One flow routed through ``routers`` routers in a line."""
    spec = CommunicationSpec(name="chain", data_width=8)
    spec.add_core("src", 0.0, 0.0)
    spec.add_core("dst", mm(routers), 0.0)
    spec.add_flow("src", "dst", 1e8)
    topology = NocTopology(spec=spec)
    path = [topology.add_core_node("src")]
    topology.add_core_node("dst")
    for index in range(routers):
        path.append(topology.add_router(f"r{index}", mm(index), 0.0))
    path.append(core_node("dst"))
    for a, b in zip(path, path[1:]):
        topology.add_link(a, b, mm(1))
    topology.route_flow(0, path)
    return topology


def is_acyclic(graph):
    """Kahn's algorithm: every node can be peeled off in-degree 0."""
    indegree = {node: 0 for node in graph.nodes}
    for _, dest in graph.edges():
        indegree[dest] += 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    peeled = 0
    while ready:
        node = ready.pop()
        peeled += 1
        for dest in graph.successors(node):
            indegree[dest] -= 1
            if indegree[dest] == 0:
                ready.append(dest)
    return peeled == graph.number_of_nodes()


class TestCycleSearch:
    def test_disjoint_cycles_are_both_found(self):
        graph = graph_of("abcdef", ["ab", "bc", "ca", "de", "ef", "fd"])
        assert dependency_cycles(graph, max_cycles=10) == \
            [("a", "b", "c"), ("d", "e", "f")]
        assert dependency_cycles(graph, max_cycles=1) == \
            [("a", "b", "c")]

    def test_self_loop_is_a_cycle(self):
        assert dependency_cycles(graph_of("a", ["aa"]), 10) == [("a",)]

    def test_long_acyclic_chain_needs_no_recursion(self):
        routers = 5000
        assert routers > sys.getrecursionlimit()
        report = analyze_deadlock(chain_topology(routers))
        assert report.deadlock_free
        assert report.channel_count == routers + 1
        assert report.dependency_count == routers

    def test_order_follows_insertion(self):
        # Roots in node insertion order; at b, successor c was added
        # before successor a, so the longer cycle comes first.
        edges = ["ab", "bc", "ca", "ba", "de", "ed"]
        assert dependency_cycles(graph_of("abcde", edges), 10) == \
            [("a", "b", "c"), ("a", "b"), ("d", "e")]
        # Add b -> a before b -> c, and d, e before a, b, c.
        edges = ["ab", "ba", "bc", "ca", "de", "ed"]
        assert dependency_cycles(graph_of("deabc", edges), 10) == \
            [("d", "e"), ("a", "b"), ("a", "b", "c")]

    def test_random_graphs_against_topological_sort(self):
        rng = np.random.default_rng(2004)
        for _ in range(300):
            size = int(rng.integers(1, 10))
            density = rng.uniform(0.05, 0.4)
            edges = [(a, b) for a in range(size) for b in range(size)
                     if rng.random() < density]
            graph = graph_of(range(size), edges)
            cycles = dependency_cycles(graph, max_cycles=size * size)
            assert (cycles == []) == is_acyclic(graph)
            for cycle in cycles:
                assert len(set(cycle)) == len(cycle)
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    assert graph.has_edge(a, b)
            assert len(set(cycles)) == len(cycles)
            assert len(dependency_cycles(graph, max_cycles=1)) == \
                min(1, len(cycles))
