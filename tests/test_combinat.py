"""Matching, flow, SCC and reachability engines."""

from __future__ import annotations

import itertools
import random

import pytest

from structsys import (
    Bigraph,
    Flow,
    FlowNetwork,
    Pattern,
    SystemPattern,
    extremal_weight_max_matching,
    identity_pattern,
    max_matching,
    min_cost_max_flow,
    pattern_bigraph,
    reachable,
    scc,
    state_digraph,
    system_digraph,
)
from structsys.grank import linking_network, loop_augmented_bigraph
from support import COUNTER_A, rand_pattern


def all_matchings(g: Bigraph):
    """Every matching of a small bigraph, by edge-subset recursion."""
    edges = [(r, l) for r, l, _ in g.edges]

    def rec(idx, used_r, used_l, acc):
        if idx == len(edges):
            yield frozenset(acc)
            return
        yield from rec(idx + 1, used_r, used_l, acc)
        r, l = edges[idx]
        if r not in used_r and l not in used_l:
            yield from rec(idx + 1, used_r | {r}, used_l | {l}, acc + [(r, l)])

    return list(rec(0, set(), set(), []))


def maximum_matchings(g: Bigraph):
    ms = all_matchings(g)
    best = max(len(m) for m in ms)
    return [m for m in ms if len(m) == best]


def weight_of(g: Bigraph, edges) -> int:
    return sum(g.cost(r, l) for r, l in edges)


# ---------------------------------------------------------------------------
# max_matching


def test_max_matching_empty():
    assert max_matching(Bigraph(3, 3, ())).size == 0


def test_max_matching_counterexample_state_graph():
    assert max_matching(pattern_bigraph(COUNTER_A)).size == 1


def test_max_matching_complete():
    edges = tuple((r, l, 0) for r in (1, 2, 3) for l in (1, 2, 3))
    assert max_matching(Bigraph(3, 3, edges)).size == 3


def test_max_matching_is_valid_and_maximum():
    rnd = random.Random(3)
    for _ in range(40):
        g = pattern_bigraph(rand_pattern(rnd, rnd.randint(1, 5), rnd.randint(1, 5), 0.45))
        m = max_matching(g)
        assert m.size == max(len(x) for x in all_matchings(g))
        assert m.edges <= {(r, l) for r, l, _ in g.edges}


def min_vertex_cover_size(g: Bigraph) -> int:
    vertices = [("r", i) for i in range(1, g.right + 1)] + [
        ("l", i) for i in range(1, g.left + 1)
    ]
    for k in range(len(vertices) + 1):
        for combo in itertools.combinations(vertices, k):
            chosen = set(combo)
            if all(("r", r) in chosen or ("l", l) in chosen for r, l, _ in g.edges):
                return k
    raise AssertionError("all vertices always cover")


def test_max_matching_equals_min_vertex_cover():
    # on bipartite graphs the two optima coincide
    rnd = random.Random(4)
    for _ in range(25):
        p = rand_pattern(rnd, rnd.randint(1, 4), rnd.randint(1, 4), 0.4)
        g = pattern_bigraph(p)
        assert min_vertex_cover_size(g) == max_matching(g).size
    for _ in range(8):  # a few instances at the full size
        p = rand_pattern(rnd, 8, 8, rnd.uniform(0.1, 0.3))
        g = pattern_bigraph(p)
        assert min_vertex_cover_size(g) == max_matching(g).size


# ---------------------------------------------------------------------------
# extremal_weight_max_matching


def test_extremal_single_edge():
    g = Bigraph(1, 1, ((1, 1, 5),))
    m = extremal_weight_max_matching(g, "minimize")
    assert m.edges == {(1, 1)} and g.weight(m) == 5


def test_extremal_counterexample_loop_graph():
    # one real self-loop at state 4, synthetic loops elsewhere: the only
    # maximum matching takes all four diagonal slots, weight 3
    g = loop_augmented_bigraph(COUNTER_A)
    weights = sorted(weight_of(g, m) for m in maximum_matchings(g))
    assert weights == [3]
    m = extremal_weight_max_matching(g, "minimize")
    assert g.weight(m) == 3 == COUNTER_A.rows - 1


def test_extremal_two_parallel_matchings():
    g = Bigraph(2, 2, ((1, 1, 1), (2, 2, 1), (1, 2, 3), (2, 1, 4)))
    lo = extremal_weight_max_matching(g, "minimize")
    hi = extremal_weight_max_matching(g, "maximize")
    assert g.weight(lo) == 2 and lo.edges == {(1, 1), (2, 2)}
    assert g.weight(hi) == 7 and hi.edges == {(1, 2), (2, 1)}


def test_extremal_matches_enumeration():
    rnd = random.Random(5)
    for _ in range(40):
        n = rnd.randint(1, 5)
        edges = tuple(
            (r, l, rnd.randint(0, 6))
            for r in range(1, n + 1)
            for l in range(1, n + 1)
            if rnd.random() < 0.5
        )
        if not edges:
            continue
        g = Bigraph(n, n, edges)
        ms = maximum_matchings(g)
        lo = extremal_weight_max_matching(g, "minimize")
        hi = extremal_weight_max_matching(g, "maximize")
        assert len(lo.edges) == len(ms[0]) == len(hi.edges)
        assert g.weight(lo) == min(weight_of(g, m) for m in ms)
        assert g.weight(hi) == max(weight_of(g, m) for m in ms)


def test_extremal_rejects_unknown_sense():
    with pytest.raises(ValueError):
        extremal_weight_max_matching(Bigraph(1, 1, ((1, 1, 0),)), "maximise")


# ---------------------------------------------------------------------------
# min_cost_max_flow


def test_flow_single_arc():
    net = FlowNetwork(2, ((0, 1, 1, 0),), 0, 1)
    f = min_cost_max_flow(net)
    assert f == Flow((1,), 1, 0)


def test_flow_diamond_saturates_both_paths():
    arcs = ((0, 1, 1, 1), (1, 3, 1, 0), (0, 2, 1, 0), (2, 3, 1, 0))
    f = min_cost_max_flow(FlowNetwork(4, arcs, 0, 3))
    assert f.value == 2 and f.cost == 1


def test_flow_rejects_bad_network():
    with pytest.raises(ValueError):
        FlowNetwork(2, (), 0, 0)
    with pytest.raises(ValueError):
        FlowNetwork(2, ((0, 5, 1, 0),), 0, 1)
    with pytest.raises(ValueError):
        FlowNetwork(2, ((0, 1, -1, 0),), 0, 1)


def brute_force_path_systems(A: Pattern, C: Pattern):
    """All vertex-disjoint source-to-output path systems of the two-layer
    actuator graph, maximizing count then minimizing candidate-input paths."""
    n = A.rows
    candidates = []  # (uses_input, source, middle, output)
    for i in range(1, n + 1):
        for j, k in C.nonzeros:
            if k == i:
                candidates.append((1, ("u", i), i, j))
    for k, i in A.nonzeros:  # x_i^2 -> x_k^1
        for j, kk in C.nonzeros:
            if kk == k:
                candidates.append((0, ("x2", i), k, j))
    best = (0, 0)  # (count, -inputs) maximized lexicographically
    for size in range(len(candidates), -1, -1):
        for combo in itertools.combinations(candidates, size):
            sources = [c[1] for c in combo]
            middles = [c[2] for c in combo]
            outs = [c[3] for c in combo]
            if len(set(sources)) < size or len(set(middles)) < size or len(set(outs)) < size:
                continue
            inputs = sum(c[0] for c in combo)
            cand = (size, -inputs)
            if cand > best:
                best = cand
        if best[0] == size:
            break
    return best[0], -best[1]


def test_flow_actuator_network_self_loop_diagonal():
    # three self-loops measured by a dedicated output apiece: all flow runs
    # through the state layer and no candidate input is needed
    a = Pattern(3, 3, {(1, 1), (2, 2), (3, 3)})
    c = Pattern(3, 3, {(1, 1), (2, 2), (3, 3)})
    net = linking_network(a, identity_pattern(3), c, input_cost=1)
    f = min_cost_max_flow(net)
    assert (f.value, f.cost) == (3, 0)
    count, inputs = brute_force_path_systems(a, c)
    assert (count, inputs) == (3, 0)


def test_flow_matches_matching_reduction():
    rnd = random.Random(6)
    for _ in range(30):
        p = rand_pattern(rnd, rnd.randint(1, 5), rnd.randint(1, 5), 0.4)
        g = pattern_bigraph(p)
        source, sink = 0, g.right + g.left + 1
        arcs = [(0, r, 1, 0) for r in range(1, g.right + 1)]
        arcs += [(r, g.right + l, 1, 0) for r, l, _ in g.edges]
        arcs += [(g.right + l, sink, 1, 0) for l in range(1, g.left + 1)]
        f = min_cost_max_flow(FlowNetwork(sink + 1, tuple(arcs), source, sink))
        assert f.value == max_matching(g).size


def test_flow_deterministic():
    rnd = random.Random(7)
    for _ in range(10):
        n = rnd.randint(2, 6)
        arcs = tuple(
            (rnd.randint(0, n - 2), rnd.randint(1, n - 1), rnd.randint(0, 2), rnd.randint(0, 3))
            for _ in range(10)
        )
        net = FlowNetwork(n, arcs, 0, n - 1)
        assert min_cost_max_flow(net) == min_cost_max_flow(net)


def brute_best_flow(net: FlowNetwork) -> tuple[int, int]:
    """(max value, min cost among max flows) by enumerating every feasible
    integral flow of a tiny network."""
    best = (0, 0)

    def feasible(assign):
        for node in range(net.nodes):
            if node in (net.source, net.sink):
                continue
            inflow = sum(f for f, (u, v, _, _) in zip(assign, net.arcs) if v == node)
            outflow = sum(f for f, (u, v, _, _) in zip(assign, net.arcs) if u == node)
            if inflow != outflow:
                return False
        return True

    def rec(idx, assign):
        nonlocal best
        if idx == len(net.arcs):
            if not feasible(assign):
                return
            value = sum(f for f, (u, _, _, _) in zip(assign, net.arcs) if u == net.source)
            value -= sum(f for f, (_, v, _, _) in zip(assign, net.arcs) if v == net.source)
            cost = sum(f * a[3] for f, a in zip(assign, net.arcs))
            if value > best[0] or (value == best[0] and cost < best[1]):
                best = (value, cost)
            return
        for f in range(net.arcs[idx][2] + 1):
            rec(idx + 1, assign + [f])

    rec(0, [])
    return best


def test_flow_cost_minimal_among_maximum_flows():
    rnd = random.Random(17)
    for _ in range(40):
        n = rnd.randint(3, 5)
        arcs = []
        for _ in range(rnd.randint(3, 7)):
            u = rnd.randint(0, n - 2)
            v = rnd.randint(1, n - 1)
            if u == v:
                continue
            arcs.append((u, v, rnd.randint(0, 2), rnd.randint(0, 3)))
        if not arcs:
            continue
        net = FlowNetwork(n, tuple(arcs), 0, n - 1)
        flow = min_cost_max_flow(net)
        assert (flow.value, flow.cost) == brute_best_flow(net)


def test_flow_result_invariants():
    # per-arc bounds, conservation, and the value/cost accounting
    rnd = random.Random(18)
    for _ in range(20):
        n = rnd.randint(3, 6)
        arcs = tuple(
            (rnd.randint(0, n - 2), rnd.randint(1, n - 1), rnd.randint(0, 3), rnd.randint(0, 4))
            for _ in range(12)
        )
        net = FlowNetwork(n, arcs, 0, n - 1)
        flow = min_cost_max_flow(net)
        for f, (_, _, cap, _) in zip(flow.arc_flow, net.arcs):
            assert 0 <= f <= cap
        for node in range(1, n - 1):
            inflow = sum(f for f, (u, v, _, _) in zip(flow.arc_flow, arcs) if v == node)
            outflow = sum(f for f, (u, v, _, _) in zip(flow.arc_flow, arcs) if u == node)
            assert inflow == outflow
        assert flow.cost == sum(f * a[3] for f, a in zip(flow.arc_flow, arcs))


# ---------------------------------------------------------------------------
# scc / reachable


def chain_graph():
    return state_digraph(Pattern(3, 3, {(2, 1), (3, 2)}))


def test_scc_acyclic_chain():
    comps = scc(chain_graph())
    assert [sorted(c) for c in comps] == [[("x", 3)], [("x", 2)], [("x", 1)]]


def test_scc_two_cycle():
    g = state_digraph(Pattern(2, 2, {(1, 2), (2, 1)}))
    comps = scc(g)
    assert len(comps) == 1 and comps[0] == {("x", 1), ("x", 2)}


def test_scc_counterexample_partition():
    comps = scc(state_digraph(COUNTER_A))
    assert sorted(sorted(c) for c in comps) == [
        [("x", 1)], [("x", 2)], [("x", 3)], [("x", 4)],
    ]


def test_scc_properties_random():
    rnd = random.Random(8)
    for _ in range(30):
        n = rnd.randint(1, 7)
        a = rand_pattern(rnd, n, n, 0.35)
        g = state_digraph(a)
        comps = scc(g)
        seen = [v for c in comps for v in c]
        assert sorted(seen) == sorted(g.vertices)  # disjoint cover
        index = {v: k for k, c in enumerate(comps) for v in c}
        for tail, head in g.edges:
            # reverse topological: cross edges point to earlier components
            assert index[tail] >= index[head]
        for c in comps:  # each component is strongly connected
            for v in c:
                assert c <= reachable(g, [v], "forward")


def test_reachable_chain_backward():
    assert reachable(chain_graph(), [("x", 3)], "backward") == {
        ("x", 1), ("x", 2), ("x", 3),
    }


def test_reachable_isolated_vertex():
    g = state_digraph(Pattern(1, 1))
    assert reachable(g, [("x", 1)], "forward") == {("x", 1)}


def test_reachable_soc_example_input_set():
    a = Pattern(5, 5, {(2, 1), (3, 2), (4, 1), (4, 5)})
    b = Pattern(5, 1, {(1, 1)})
    g = system_digraph(SystemPattern(A=a, B=b))
    hit = reachable(g, [("u", 1)], "forward")
    assert {i for kind, i in hit if kind == "x"} == {1, 2, 3, 4}


def test_reachable_rejects_foreign_seed():
    with pytest.raises(ValueError):
        reachable(chain_graph(), [("x", 9)], "forward")
    with pytest.raises(ValueError):
        reachable(chain_graph(), [("x", 1)], "sideways")


def test_max_matching_long_augmenting_path():
    # the greedy pass matches column r to row r for r < n and leaves column
    # n, whose only row is 1, to one augmenting path through every column
    n = 5000
    edges = [(r, r, 0) for r in range(1, n)] + [(r, r + 1, 0) for r in range(1, n)]
    m = max_matching(Bigraph(n, n, tuple(edges + [(n, 1, 0)])))
    assert m.size == n
    assert m.edges == {(r, r + 1) for r in range(1, n)} | {(n, 1)}
