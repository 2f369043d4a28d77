"""The Dijkstra flow engine: dual certificates, agreement with the
Bellman-Ford reference and with networkx, and the warm start."""

from __future__ import annotations

import random

import pytest

from structsys import (
    Bigraph,
    Flow,
    FlowNetwork,
    Matching,
    extremal_weight_max_matching,
    min_cost_max_flow,
)
from support import bellman_ford_min_cost_max_flow


def rand_network(rnd: random.Random, nodes: int, arcs: int, costs: tuple[int, ...]) -> FlowNetwork:
    """Random network that may hold parallel arcs, self-loops and arcs into
    the source; arc costs come from ``costs``, so ties are frequent."""
    out = tuple(
        (rnd.randrange(nodes), rnd.randrange(nodes), rnd.randint(0, 3), rnd.choice(costs))
        for _ in range(arcs)
    )
    return FlowNetwork(nodes, out, 0, nodes - 1)


def residual_reaches_sink(net: FlowNetwork, flow: Flow) -> bool:
    adj: list[list[int]] = [[] for _ in range(net.nodes)]
    for f, (u, v, cap, _) in zip(flow.arc_flow, net.arcs):
        if f < cap:
            adj[u].append(v)
        if f > 0:
            adj[v].append(u)
    seen, stack = {net.source}, [net.source]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return net.sink in seen


COST_SETS = ((0,), (0, 0, 1), (2, 2, 5), (0, 1, 2, 3))


def test_potentials_certify_every_residual_arc():
    rnd = random.Random(31)
    for trial in range(120):
        costs = COST_SETS[trial % len(COST_SETS)]
        net = rand_network(rnd, rnd.randint(2, 14), rnd.randint(1, 45), costs)
        flow = min_cost_max_flow(net)
        pot = flow.potentials
        assert len(pot) == net.nodes
        for f, (u, v, cap, cost) in zip(flow.arc_flow, net.arcs):
            reduced = cost + pot[u] - pot[v]
            if f < cap:
                assert reduced >= 0
            if f > 0:
                assert reduced <= 0
        assert not residual_reaches_sink(net, flow)


def test_value_and_cost_match_bellman_ford_reference():
    rnd = random.Random(32)
    for trial in range(120):
        costs = COST_SETS[trial % len(COST_SETS)]
        net = rand_network(rnd, rnd.randint(2, 12), rnd.randint(1, 40), costs)
        ours = min_cost_max_flow(net)
        ref = bellman_ford_min_cost_max_flow(net)
        assert (ours.value, ours.cost) == (ref.value, ref.cost)


def test_value_and_cost_match_networkx():
    nx = pytest.importorskip("networkx")
    rnd = random.Random(33)
    for nodes in (5, 20, 60, 150, 300):
        for _ in range(3):
            pairs = {
                (rnd.randrange(nodes), rnd.randrange(nodes)) for _ in range(4 * nodes)
            }
            arcs = tuple(
                (u, v, rnd.randint(1, 4), rnd.choice((0, 0, 1, 2, 3)))
                for u, v in sorted(pairs)
                if u != v
            )
            net = FlowNetwork(nodes, arcs, 0, nodes - 1)
            g = nx.DiGraph()
            g.add_nodes_from(range(nodes))
            for u, v, cap, cost in arcs:
                g.add_edge(u, v, capacity=cap, weight=cost)
            ref = nx.max_flow_min_cost(g, 0, nodes - 1)
            ref_value = sum(ref[0].values()) - sum(ref[u].get(0, 0) for u in ref)
            flow = min_cost_max_flow(net)
            assert flow.value == ref_value
            assert flow.cost == nx.cost_of_flow(g, ref)


def test_zero_start_equals_cold_start():
    rnd = random.Random(34)
    for _ in range(30):
        net = rand_network(rnd, rnd.randint(2, 10), rnd.randint(1, 30), (0, 1, 2))
        zero = Flow((0,) * len(net.arcs), 0, 0, (0,) * net.nodes)
        cold = min_cost_max_flow(net)
        warm = min_cost_max_flow(net, zero)
        assert warm == cold and warm.potentials == cold.potentials


def test_start_flow_is_checked():
    net = FlowNetwork(3, ((0, 1, 1, 2), (1, 2, 1, 0)), 0, 2)
    bad = (
        Flow((0,), 0, 0, (0, 0, 0)),  # too few arc values
        Flow((2, 2), 2, 4, (0, 0, 0)),  # over capacity
        Flow((1, 0), 1, 2, (0, 2, 2)),  # not conserved at node 1
        Flow((0, 0), 0, 0, (0, 3, 3)),  # arc 0 reduced cost -1 while unsaturated
    )
    for start in bad:
        with pytest.raises(ValueError):
            min_cost_max_flow(net, start)


def cold_extremal(g: Bigraph, sense: str) -> Matching:
    """The extremal matching from a cold-started flow on the same network."""
    total = sum(c for _, _, c in g.edges)
    sink = g.right + g.left + 1
    arcs = [(0, r, 1, 0) for r in range(1, g.right + 1)]
    arcs += [
        (r, g.right + l, 1, c if sense == "minimize" else total + 1 - c) for r, l, c in g.edges
    ]
    arcs += [(g.right + l, sink, 1, 0) for l in range(1, g.left + 1)]
    flow = min_cost_max_flow(FlowNetwork(sink + 1, tuple(arcs), 0, sink))
    base = g.right
    return Matching(
        frozenset((r, l) for k, (r, l, _) in enumerate(g.edges) if flow.arc_flow[base + k])
    )


def test_warm_start_matches_cold_start():
    rnd = random.Random(35)
    for trial in range(80):
        right, left = rnd.randint(1, 9), rnd.randint(1, 9)
        costs = COST_SETS[trial % len(COST_SETS)]
        edges = tuple(
            (r, l, rnd.choice(costs))
            for r in range(1, right + 1)
            for l in range(1, left + 1)
            if rnd.random() < 0.4
        )
        g = Bigraph(left, right, edges)
        for sense in ("minimize", "maximize"):
            warm = extremal_weight_max_matching(g, sense)
            cold = cold_extremal(g, sense)
            assert warm.size == cold.size
            assert g.weight(warm) == g.weight(cold)
