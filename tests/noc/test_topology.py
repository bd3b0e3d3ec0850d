"""NoC topology graph."""

import numpy as np
import pytest

from repro.noc.spec import CommunicationSpec
from repro.noc.topology import DiGraph, NocTopology, core_node, \
    router_node
from repro.units import mm


@pytest.fixture
def spec():
    spec = CommunicationSpec(name="t", data_width=32)
    spec.add_core("a", 0.0, 0.0)
    spec.add_core("b", mm(2), 0.0)
    spec.add_core("c", mm(4), 0.0)
    spec.add_flow("a", "c", 1e9)
    spec.add_flow("b", "c", 2e9)
    return spec


@pytest.fixture
def topology(spec):
    topo = NocTopology(spec=spec)
    for name in ("a", "b", "c"):
        topo.add_core_node(name)
        core = spec.cores[name]
        topo.add_router(f"r_{name}", core.x, core.y)
        topo.add_link(core_node(name), router_node(f"r_{name}"),
                      mm(0.2))
        topo.add_link(router_node(f"r_{name}"), core_node(name),
                      mm(0.2))
    topo.add_link(router_node("r_a"), router_node("r_b"), mm(2))
    topo.add_link(router_node("r_b"), router_node("r_c"), mm(2))
    return topo


class TestConstruction:
    def test_add_link_requires_nodes(self, spec):
        topo = NocTopology(spec=spec)
        with pytest.raises(KeyError):
            topo.add_link(core_node("a"), router_node("r"), mm(1))

    def test_add_link_idempotent(self, topology):
        before = topology.graph.number_of_edges()
        topology.add_link(router_node("r_a"), router_node("r_b"), mm(2))
        assert topology.graph.number_of_edges() == before


class TestLinkOrder:
    def test_links_are_source_major(self, spec):
        # The power and area sums iterate links() in this order, so it
        # is part of every synthesized bit: sources in node insertion
        # order, then each source's links in installation order.
        topo = NocTopology(spec=spec)
        a, b, c = (topo.add_core_node(name) for name in "abc")
        installed = [(b, c), (a, c), (b, a), (a, b), (c, a)]
        for index, (source, dest) in enumerate(installed):
            topo.add_link(source, dest, mm(index + 1))
        order = [(source, dest) for source, dest, _ in topo.links()]
        assert order == [(a, c), (a, b), (b, c), (b, a), (c, a)]
        assert order != installed
        assert [data["length"] for _, _, data in topo.links()] == \
            [mm(2), mm(4), mm(1), mm(3), mm(5)]


class TestDiGraph:
    @pytest.fixture
    def graph(self):
        graph = DiGraph()
        graph.add_node("n", x=1.0)
        graph.add_edge("s", "n", length=2.0)
        graph.add_edge("n", "t")
        graph.add_edge("s", "t")
        return graph

    def test_nodes_in_insertion_order(self, graph):
        assert list(graph.nodes) == ["n", "s", "t"]
        assert graph.nodes["n"] == {"x": 1.0}
        assert "t" in graph and "u" not in graph
        assert graph.number_of_nodes() == 3

    def test_neighbours_in_insertion_order(self, graph):
        assert list(graph.successors("s")) == ["n", "t"]
        assert list(graph.predecessors("t")) == ["n", "s"]
        assert list(graph.edges()) == [("n", "t"), ("s", "n"), ("s", "t")]
        assert graph.number_of_edges() == 3

    def test_edge_attributes(self, graph):
        assert graph.edges["s", "n"] == {"length": 2.0}
        graph.add_edge("s", "n", load=1.0)
        assert graph.edges["s", "n"] == {"length": 2.0, "load": 1.0}
        assert graph.number_of_edges() == 3
        with pytest.raises(KeyError):
            graph.edges["n", "s"]

    def test_has_edge_is_directed_and_total(self, graph):
        assert graph.has_edge("s", "n")
        assert not graph.has_edge("n", "s")
        assert not graph.has_edge("u", "s")


class TestRouting:
    def test_route_flow_accumulates_load(self, topology):
        path = [core_node("a"), router_node("r_a"), router_node("r_b"),
                router_node("r_c"), core_node("c")]
        topology.route_flow(0, path)
        assert topology.edge_load(router_node("r_a"),
                                  router_node("r_b")) == 1e9
        path_b = [core_node("b"), router_node("r_b"),
                  router_node("r_c"), core_node("c")]
        topology.route_flow(1, path_b)
        assert topology.edge_load(router_node("r_b"),
                                  router_node("r_c")) == pytest.approx(
            3e9)

    def test_route_must_match_endpoints(self, topology):
        with pytest.raises(ValueError):
            topology.route_flow(0, [core_node("b"),
                                    router_node("r_b"),
                                    core_node("c")])

    def test_route_requires_installed_links(self, topology):
        with pytest.raises(KeyError):
            topology.route_flow(0, [core_node("a"),
                                    router_node("r_c"),
                                    core_node("c")])

    def test_double_route_rejected(self, topology):
        path = [core_node("a"), router_node("r_a"), router_node("r_b"),
                router_node("r_c"), core_node("c")]
        topology.route_flow(0, path)
        with pytest.raises(ValueError):
            topology.route_flow(0, path)

    def test_hop_count(self, topology):
        path = [core_node("a"), router_node("r_a"), router_node("r_b"),
                router_node("r_c"), core_node("c")]
        topology.route_flow(0, path)
        assert topology.hop_count(0) == 3

    def test_hop_statistics(self, topology):
        topology.route_flow(0, [core_node("a"), router_node("r_a"),
                                router_node("r_b"), router_node("r_c"),
                                core_node("c")])
        topology.route_flow(1, [core_node("b"), router_node("r_b"),
                                router_node("r_c"), core_node("c")])
        avg, worst = topology.hop_statistics()
        assert avg == pytest.approx(2.5)
        assert worst == 3


class TestQueries:
    def test_router_degree_counts_distinct_neighbours(self, topology):
        # r_b touches: core b (both directions), r_a, r_c.
        assert topology.router_degree(router_node("r_b")) == 3

    def test_router_degree_matches_set_union_of_random_links(self,
                                                             spec):
        """Seeded random links, in both directions and repeated,
        against the set union of each node's link ends."""
        rng = np.random.default_rng(2028)
        topo = NocTopology(spec=spec)
        nodes = [topo.add_core_node(name) for name in "abc"]
        nodes += [topo.add_router(f"r{index}", 0.0, 0.0)
                  for index in range(7)]
        installed = []
        for _ in range(80):
            first, second = rng.choice(len(nodes), size=2, replace=False)
            source, dest = nodes[first], nodes[second]
            topo.add_link(source, dest, mm(1))
            installed.append((source, dest))
            for node in nodes:
                expected = ({b for a, b in installed if a == node}
                            | {a for a, b in installed if b == node})
                assert topo.graph.neighbours(node) == expected
                assert topo.router_degree(node) == len(expected)
        assert len(set(installed)) < len(installed)
        assert any((dest, source) in installed
                   for source, dest in installed)

    def test_max_link_length(self, topology):
        assert topology.max_link_length() == pytest.approx(mm(2))

    def test_router_link_count(self, topology):
        assert topology.router_link_count() == 2

    def test_summary(self, topology):
        assert "3 routers" in topology.summary()


class TestValidation:
    def full_routes(self, topology):
        topology.route_flow(0, [core_node("a"), router_node("r_a"),
                                router_node("r_b"), router_node("r_c"),
                                core_node("c")])
        topology.route_flow(1, [core_node("b"), router_node("r_b"),
                                router_node("r_c"), core_node("c")])

    def test_clean_topology_validates(self, topology):
        self.full_routes(topology)
        assert topology.validate(capacity=1e12) == []

    def test_unrouted_flow_detected(self, topology):
        problems = topology.validate(capacity=1e12)
        assert any("unrouted" in p for p in problems)

    def test_overload_detected(self, topology):
        self.full_routes(topology)
        problems = topology.validate(capacity=2.5e9)
        assert any("overloaded" in p for p in problems)

    def test_port_limit_detected(self, topology):
        self.full_routes(topology)
        problems = topology.validate(capacity=1e12, max_ports=2)
        assert any("ports" in p for p in problems)

    def test_load_consistency_detected(self, topology):
        self.full_routes(topology)
        # Corrupt a load behind the API's back.
        topology.graph.edges[router_node("r_b"),
                             router_node("r_c")]["load"] *= 2
        problems = topology.validate(capacity=1e12)
        assert any("does not match" in p for p in problems)
