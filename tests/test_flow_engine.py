"""The primal-dual flow engine: dual certificates, and agreement with the
Bellman-Ford reference and with networkx, on random networks and on
networks shaped like the cactus and linking networks; and agreement with
the Dijkstra-first reference engine, flow, potentials and search counts,
on random networks and on every network the benchmark systems build."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from structsys import Matching, identity_pattern
from structsys.cli import load_system
from structsys.combinat import Flow, FlowNetwork, extremal_weight_max_matching, min_cost_max_flow
from structsys.combinat import matching_network as library_matching_network
from structsys.combinat import _residual, flow_matching, residual_distances
from structsys.core import Bigraph
from structsys.diag import loop_augmented_bigraph
from structsys.grank import cactus_bigraph, linking_network
from structsys.soc import input_reachable_restriction
from support import (
    bellman_ford_min_cost_max_flow,
    bench_family_networks,
    count_searches,
    fixture_path,
    rand_pattern,
    reference_cactus_bigraph,
    reference_min_cost_max_flow,
    reference_residual,
)


def rand_network(
    rnd: random.Random, nodes: int, arcs: int, costs: tuple[int, ...], cap: int = 3
) -> FlowNetwork:
    """Random network that may hold parallel arcs, self-loops and arcs into
    the source, with capacities 0..``cap``; arc costs come from ``costs``, so
    ties are frequent."""
    out = tuple(
        (rnd.randrange(nodes), rnd.randrange(nodes), rnd.randint(0, cap), rnd.choice(costs))
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
    # the networks the bench systems build, where the capacity-bound stop
    # ends every cactus and diag solve and every SOC-true linking
    kinds, stopped = Counter(), 0
    for kind, net in bench_family_networks():
        flow = min_cost_max_flow(net)
        assert_certified(net, flow)
        kinds[kind] += 1
        into_sink = sum(cap for _, v, cap, _ in net.arcs if v == net.sink)
        stopped += kind == "linking 0" and flow.value == into_sink
    assert set(kinds.values()) == {200} and len(kinds) == 10
    assert stopped >= 50


def assert_certified(net: FlowNetwork, flow: Flow) -> None:
    """Every residual arc has a non-negative reduced cost under the flow's
    potentials, and no augmenting path is left."""
    pot = flow.potentials
    assert len(pot) == net.nodes
    for f, (u, v, cap, cost) in zip(flow.arc_flow, net.arcs):
        reduced = cost + pot[u] - pot[v]
        assert f == cap or reduced >= 0
        assert f == 0 or reduced <= 0
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
            flow = min_cost_max_flow(net)
            assert (flow.value, flow.cost) == networkx_value_and_cost(nx, net)


def matching_network(g: Bigraph, sense: str) -> FlowNetwork:
    """The unit-capacity network that extremal_weight_max_matching solves
    on a bigraph: arcs source -> right, the edges in order, then left ->
    sink."""
    total = sum(c for _, _, c in g.edges)
    sink = g.right + g.left + 1
    arcs = [(0, r, 1, 0) for r in range(1, g.right + 1)]
    arcs += [
        (r, g.right + l, 1, c if sense == "minimize" else total + 1 - c) for r, l, c in g.edges
    ]
    arcs += [(g.right + l, sink, 1, 0) for l in range(1, g.left + 1)]
    return FlowNetwork(sink + 1, tuple(arcs), 0, sink)


def test_extremal_matching_matches_bellman_ford():
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
            ours, _ = extremal_weight_max_matching(g, sense)
            ref = bellman_ford_min_cost_max_flow(matching_network(g, sense))
            used = Matching(
                frozenset((r, l) for (r, l, _), f in zip(edges, ref.arc_flow[right:]) if f)
            )
            assert ours.size == used.size == ref.value
            assert g.weight(ours) == g.weight(used)


@st.composite
def networks(draw) -> FlowNetwork:
    """Small networks with parallel arcs, self-loops and arcs into the
    source, capacities 0-3 and 1-3 distinct arc costs."""
    nodes = draw(st.integers(2, 8))
    costs = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True))
    end = st.integers(0, nodes - 1)
    arc = st.tuples(end, end, st.integers(0, 3), st.sampled_from(costs))
    return FlowNetwork(nodes, tuple(draw(st.lists(arc, max_size=30))), 0, nodes - 1)


@given(networks())
def test_flow_is_certified_and_matches_bellman_ford(net):
    flow = min_cost_max_flow(net)
    pot = flow.potentials
    for f, (u, v, cap, cost) in zip(flow.arc_flow, net.arcs):
        reduced = cost + pot[u] - pot[v]
        assert 0 <= f <= cap
        assert f == cap or reduced >= 0
        assert f == 0 or reduced <= 0
    assert not residual_reaches_sink(net, flow)
    ref = bellman_ford_min_cost_max_flow(net)
    assert (flow.value, flow.cost) == (ref.value, ref.cost)


def bellman_ford_residual_distances(net: FlowNetwork, flow: Flow, origin: int) -> list[int | None]:
    """Cheapest residual path costs from ``origin`` by Bellman-Ford; the
    residual network of a minimum-cost flow has no negative cycle."""
    residual = []
    for f, (u, v, cap, cost) in zip(flow.arc_flow, net.arcs):
        if f < cap:
            residual.append((u, v, cost))
        if f > 0:
            residual.append((v, u, -cost))
    dist: list[int | None] = [None] * net.nodes
    dist[origin] = 0
    for _ in range(net.nodes):
        for u, v, cost in residual:
            if dist[u] is not None and (dist[v] is None or dist[u] + cost < dist[v]):
                dist[v] = dist[u] + cost
    return dist


@given(networks(), st.data())
def test_residual_distances_match_bellman_ford(net, data):
    flow = min_cost_max_flow(net)
    pot = flow.potentials
    for f, (u, v, cap, cost) in zip(flow.arc_flow, net.arcs):
        if f < cap:
            assert cost + pot[u] - pot[v] >= 0
        if f > 0:
            assert -cost + pot[v] - pot[u] >= 0
    origin = data.draw(st.integers(0, net.nodes - 1))
    ours = residual_distances(net, flow, origin)
    assert ours == bellman_ford_residual_distances(net, flow, origin)


def networkx_value_and_cost(nx, net: FlowNetwork) -> tuple[int, int]:
    """Value and cost of networkx's maximum flow of minimum cost; the
    network must have no parallel arcs."""
    g = nx.DiGraph()
    g.add_nodes_from(range(net.nodes))
    for u, v, cap, cost in net.arcs:
        g.add_edge(u, v, capacity=cap, weight=cost)
    ref = nx.max_flow_min_cost(g, net.source, net.sink)
    value = sum(ref[net.source].values()) - sum(ref[u].get(net.source, 0) for u in ref)
    return value, nx.cost_of_flow(g, ref)


def cactus_shaped(rnd: random.Random, n: int, p: int) -> FlowNetwork:
    """Unit-capacity source -> right -> left -> sink network on n + p
    vertices a side, with edge costs from {0, 1, p + 1} like the cactus
    network: sparse state edges, a loop on every vertex and a dense block
    of zero-cost return edges from the p output vertices to the n states."""
    k = n + p
    sink = 2 * k + 1
    arcs = [(0, r, 1, 0) for r in range(1, k + 1)]
    for r in range(1, k + 1):
        left = {r: 0}
        if r <= n:
            for l in rnd.sample(range(1, k + 1), 3):
                left.setdefault(l, rnd.choice((0, 1, p + 1)))
        else:
            left.update((l, 0) for l in range(1, n + 1))
        arcs += [(r, k + l, 1, cost) for l, cost in sorted(left.items())]
    arcs += [(k + l, sink, 1, 0) for l in range(1, k + 1)]
    return FlowNetwork(sink + 1, tuple(arcs), 0, sink)


@pytest.mark.parametrize("n, p", [(20, 4), (150, 15), (950, 12)])
def test_cactus_shaped_networks_match_networkx(n, p):
    nx = pytest.importorskip("networkx")
    net = cactus_shaped(random.Random(n), n, p)
    flow = min_cost_max_flow(net)
    assert (flow.value, flow.cost) == networkx_value_and_cost(nx, net)


@pytest.mark.parametrize("n, p", [(20, 4), (20, 10), (150, 15), (400, 200)])
def test_states_only_cactus_networks_match_networkx(n, p):
    # the cactus network as built, with the states alone on the right: the
    # same flow value and cost as networkx, and a decoded matching as heavy
    # as the optimum of the listed bigraph; the flow costs of the two differ,
    # since their maximize transforms sum different edge sets
    nx = pytest.importorskip("networkx")
    rnd = random.Random(n + p)
    a = rand_pattern(rnd, n, n, 3 / n)
    c = rand_pattern(rnd, p, n, 2 / n)
    g, _ = cactus_bigraph(a, c)
    listed, _ = reference_cactus_bigraph(a, c)
    for sense in ("minimize", "maximize"):
        net = library_matching_network(g, sense)
        assert (net.nodes, len(net.arcs)) == (2 * n + p + 2, 2 * n + p + len(g.edges))
        flow = min_cost_max_flow(net)
        assert (flow.value, flow.cost) == networkx_value_and_cost(nx, net)
        assert flow.value == n
        ours, weight = flow_matching(g, flow)
        best = listed.weight(extremal_weight_max_matching(listed, sense)[0])
        assert listed.weight(ours) == g.weight(ours) == weight == best


@pytest.mark.parametrize("n, p", [(20, 4), (120, 12), (300, 30)])
def test_linking_shaped_networks_match_networkx(n, p):
    # the actuator network: one candidate input per state at cost 1
    nx = pytest.importorskip("networkx")
    rnd = random.Random(n)
    a = rand_pattern(rnd, n, n, 3 / n)
    c = rand_pattern(rnd, p, n, 2 / n)
    net = linking_network(a, identity_pattern(n), c, input_cost=1)
    flow = min_cost_max_flow(net)
    assert (flow.value, flow.cost) == networkx_value_and_cost(nx, net)


def assert_same_as_reference(net: FlowNetwork, ours: list, theirs: list) -> None:
    """The engine gives the reference engine's flow, value, cost and
    potentials, in no more Dijkstra searches; both search lists are then
    emptied."""
    flow, ref = min_cost_max_flow(net), reference_min_cost_max_flow(net)
    assert (flow.arc_flow, flow.value, flow.cost) == (ref.arc_flow, ref.value, ref.cost), net
    assert flow.potentials == ref.potentials, net
    assert len(ours) <= len(theirs), net
    ours.clear()
    theirs.clear()


def test_engine_equals_the_reference_engine_on_random_networks(monkeypatch):
    # self-loops, parallel arcs, arcs into the source and out of the sink,
    # capacities 0-7, and zero-cost cycles wherever the costs hold a 0
    ours, theirs = count_searches(monkeypatch)
    rnd, seen = random.Random(37), Counter()
    for trial in range(20000):
        costs = COST_SETS[trial % len(COST_SETS)]
        net = rand_network(rnd, rnd.randint(2, 9), rnd.randint(0, 24), costs, cap=7)
        pairs = {(u, v) for u, v, _, _ in net.arcs}
        seen["self-loop"] += any(u == v for u, v in pairs)
        seen["parallel"] += len(pairs) < len(net.arcs)
        seen["into source"] += any(v == net.source for _, v in pairs)
        seen["out of sink"] += any(u == net.sink for u, _ in pairs)
        free = {(u, v) for u, v, cap, cost in net.arcs if cap and not cost}
        seen["zero-cost cycle"] += any((v, u) in free for u, v in free)
        assert_same_as_reference(net, ours, theirs)
    assert min(seen.values()) >= 1000 and len(seen) == 5, seen


def test_engine_equals_the_reference_engine_on_the_bench_networks(monkeypatch):
    ours, theirs = count_searches(monkeypatch)
    kinds = Counter()
    for kind, net in bench_family_networks():
        assert_same_as_reference(net, ours, theirs)
        kinds[kind] += 1
    assert set(kinds.values()) == {200} and len(kinds) == 10


def test_residual_equals_the_reference_residual():
    # every network the bench systems build, each equal to the network its
    # arcs give; then random ones with self-loops, parallel arcs, arcs into
    # the source and out of the sink, arcs of capacity 0 and no arcs at all
    kinds = Counter()
    for kind, net in bench_family_networks():
        rebuilt = FlowNetwork(net.nodes, net.arcs, net.source, net.sink)
        assert rebuilt == net and hash(rebuilt) == hash(net), kind
        assert _residual(net) == reference_residual(net), kind
        kinds[kind] += 1
    assert set(kinds.values()) == {200} and len(kinds) == 10
    rnd, seen = random.Random(41), Counter()
    for trial in range(3000):
        costs = COST_SETS[trial % len(COST_SETS)]
        net = rand_network(rnd, rnd.randint(2, 9), rnd.randint(0, 24), costs, cap=7)
        arcs = net.arcs
        seen["self-loop"] += any(u == v for u, v, _, _ in arcs)
        seen["parallel"] += len({(u, v) for u, v, _, _ in arcs}) < len(arcs)
        seen["into source"] += any(v == net.source for _, v, _, _ in arcs)
        seen["out of sink"] += any(u == net.sink for u, _, _, _ in arcs)
        seen["capacity 0"] += any(cap == 0 for _, _, cap, _ in arcs)
        seen["no arcs"] += not arcs
        assert _residual(net) == reference_residual(net), net
    assert min(seen.values()) >= 100 and len(seen) == 6, seen


def test_residual_distances_reject_a_foreign_flow_or_origin():
    net = FlowNetwork(3, ((0, 1, 1, 0), (1, 2, 1, 0)), 0, 2)
    flow = min_cost_max_flow(net)
    assert residual_distances(net, flow, 2) == [0, 0, 0]
    with pytest.raises(ValueError, match="^flow of 1 arcs and 3 potentials does not fit the network$"):
        residual_distances(net, Flow((1,), 1, 0, flow.potentials), 2)
    with pytest.raises(ValueError, match="^flow of 2 arcs and 0 potentials does not fit the network$"):
        residual_distances(net, Flow(flow.arc_flow, 1, 0), 2)
    for origin in (-1, 3):
        with pytest.raises(ValueError, match=f"^origin {origin} out of range$"):
            residual_distances(net, flow, origin)


def test_engine_skips_the_searches_that_cannot_move_the_flow(monkeypatch):
    # the worked SOC example: its linking is all zero-cost and fills the
    # two outputs, and its diag network has a zero-cost path from the start
    sys_pat = load_system(fixture_path("example_soc"))
    a, b, c = sys_pat.A, sys_pat.B, sys_pat.C
    linking = linking_network(input_reachable_restriction(a, b)[1], b, c)
    diag = library_matching_network(loop_augmented_bigraph(a), "minimize")
    ours, theirs = count_searches(monkeypatch)
    for net, searches, reference in ((linking, 0, 2), (diag, 2, 4)):
        min_cost_max_flow(net)
        reference_min_cost_max_flow(net)
        assert (len(ours), len(theirs)) == (searches, reference)
        ours.clear()
        theirs.clear()
