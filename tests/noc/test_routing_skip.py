"""Routing never weighs an edge into a settled state, and no route moves.

``_route_one_flow`` skips a relaxation whose target state Dijkstra has
already settled.  Weights are powers, never negative, so such a
relaxation could not lower the settled cost.  Here every call of the
real search during :func:`synthesize` is checked against
:func:`reference_route_one_flow`, a copy that weighs every edge, on
DVOPD and VPROC at 90, 65 and 45 nm under both Table III models, with
no hop limit and with the tightest limit each design routes under:
2 hops for DVOPD (the smallest allowed) and 3 for VPROC, whose
unconstrained routes take up to 8.
"""

from __future__ import annotations

import heapq

import pytest

from repro.experiments.suite import ModelSuite
from repro.noc import synthesis, testcases
from repro.noc.synthesis import SynthesisConfig, _edge_weight, synthesize
from repro.noc.topology import core_node
from repro.runtime import METRICS

#: Design -> (spec factory, binding hop limit).
DESIGNS = {
    "DVOPD": (testcases.dual_vopd, 2),
    "VPROC": (testcases.vproc, 3),
}


def reference_route_one_flow(source, dest, bandwidth, adjacency, topology,
                             router_params, capacity, tech,
                             hop_budget=None):
    """Dijkstra that weighs every edge, settled target or not.

    Returns ``(routed, relaxations)``: what ``_route_one_flow``
    returns, and the number of ``_edge_weight`` calls made.
    """
    start = core_node(source)
    goal = core_node(dest)
    start_state = (start, 0)
    best = {start_state: 0.0}
    parent = {}
    heap = [(0.0, start_state)]
    visited = set()
    relaxations = 0
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
            return (list(reversed(path)), cost), relaxations
        for candidate in adjacency.get(node, ()):
            next_hops = hops + (1 if candidate.dest[0] == "router"
                                else 0)
            if hop_budget is not None and next_hops > hop_budget:
                continue
            relaxations += 1
            weight = _edge_weight(candidate, bandwidth, topology,
                                  router_params, capacity, tech)
            if weight is None:
                continue
            next_state = (candidate.dest,
                          next_hops if hop_budget is not None else 0)
            new_cost = cost + weight
            if new_cost < best.get(next_state, float("inf")):
                best[next_state] = new_cost
                parent[next_state] = state
                heapq.heappush(heap, (new_cost, next_state))
    return None, relaxations


@pytest.mark.parametrize("node", ["90nm", "65nm", "45nm"])
@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_routes_equal_the_reference(monkeypatch, design, node):
    factory, limit = DESIGNS[design]
    suite = ModelSuite.for_node(node)
    spec = factory(suite.tech)
    real = synthesis._route_one_flow
    seen = {"flows": 0, "real": 0, "reference": 0}

    def checked(*args, **kwargs):
        before = METRICS.counters.get("synth.edges_evaluated", 0)
        routed = real(*args, **kwargs)
        seen["real"] += (METRICS.counters["synth.edges_evaluated"]
                         - before)
        expected, relaxations = reference_route_one_flow(*args,
                                                         **kwargs)
        seen["reference"] += relaxations
        seen["flows"] += 1
        assert routed == expected
        return routed

    monkeypatch.setattr(synthesis, "_route_one_flow", checked)
    for model in (suite.bakoglu, suite.proposed):
        for max_flow_hops in (None, limit):
            synthesize(spec, model, suite.tech,
                       config=SynthesisConfig(max_flow_hops=max_flow_hops))
    assert seen["flows"] == 4 * len(spec.flows)
    assert seen["real"] < seen["reference"]
