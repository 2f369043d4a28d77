"""Matching, flow, SCC and reachability engines."""

from __future__ import annotations

import itertools
import random

import pytest

from structsys import (
    Matching,
    Pattern,
    hstack,
    identity_pattern,
    reachable,
    scc,
    stack,
)
from structsys.cli import parse_system
from structsys.combinat import (
    Flow,
    FlowNetwork,
    extremal_weight_max_matching,
    hopcroft_karp,
    max_matching,
    min_cost_max_flow,
)
from structsys.core import Bigraph, pattern_bigraph
from structsys.diag import loop_augmented_bigraph
from structsys.grank import linking_network, output_reachable_states, rank_raising_columns
from structsys.soc import input_reachable_restriction
from support import (
    COUNTER_A,
    COUNTER_C,
    bench_gen,
    rand_pattern,
    reference_rank_raising_columns,
)


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


def test_max_matching_matches_networkx():
    nx = pytest.importorskip("networkx")
    rnd = random.Random(91)
    for _ in range(300):
        left, right = rnd.randint(0, 40), rnd.randint(0, 40)
        density = rnd.choice((0.02, 0.05, 0.1, 0.3)) if left and right else 0.0
        g = pattern_bigraph(rand_pattern(rnd, left, right, density))
        m = max_matching(g)
        ref = nx.Graph()
        ref.add_nodes_from(("r", r) for r in range(1, right + 1))
        ref.add_nodes_from(("l", l) for l in range(1, left + 1))
        ref.add_edges_from((("r", r), ("l", l)) for r, l, _ in g.edges)
        top = {("r", r) for r in range(1, right + 1)}
        expected = nx.bipartite.maximum_matching(ref, top_nodes=top)
        assert m.size == len(expected) // 2  # networkx lists each pair both ways
        assert m.edges <= {(r, l) for r, l, _ in g.edges}


# ---------------------------------------------------------------------------
# hopcroft_karp


def bench_family_graphs(doc: dict) -> list[Pattern]:
    """A, [A; C], [A; C; F], [A_r, B] and C of one bench system."""
    sys_pat = parse_system(doc)
    _, a_r = input_reachable_restriction(sys_pat.A, sys_pat.B)
    ac = stack(sys_pat.A, sys_pat.C)
    return [sys_pat.A, ac, stack(ac, sys_pat.F), hstack(a_r, sys_pat.B), sys_pat.C]


def test_hopcroft_karp_equals_the_per_root_search_references():
    rnd = random.Random(19)
    patterns = []
    for trial in range(2000):
        small, large = rnd.randint(0, 6), rnd.randint(7, 14)
        shapes = ((0, large), (large, 0), (small, large), (large, small), (large, large))
        rows, cols = shapes[trial % 5]
        patterns.append(rand_pattern(rnd, rows, cols, rnd.uniform(0.05, 0.6)))
    gen = bench_gen()
    for doc in gen.verdicts_family() + gen.placement_family():
        patterns += bench_family_graphs(doc)
    assert len(patterns) == 2000 + 5 * 200
    for M in patterns:
        g = pattern_bigraph(M)
        matching, raising = hopcroft_karp(g)
        assert (matching.size, raising) == reference_rank_raising_columns(M), M
        assert rank_raising_columns(M) == (matching.size, raising)
        assert matching.edges <= {(r, l) for r, l, _ in g.edges}
        assert max_matching(g) == matching


def assert_koenig_cover(g: Bigraph, matching: Matching, raising: frozenset[int]) -> None:
    """The right vertices outside ``raising`` and the left neighbours of
    ``raising`` cover every edge, and count as many vertices as the matching
    has edges, so both are optimal (König 1931). Reads the edges alone and
    calls no matching routine."""
    edges = {(r, l) for r, l, _ in g.edges}
    assert matching.edges <= edges
    rights = set(range(1, g.right + 1)) - raising
    lefts = {l for r, l in edges if r in raising}
    assert all(r in rights or l in lefts for r, l in edges)
    assert len(rights) + len(lefts) == matching.size


def test_hopcroft_karp_reports_a_koenig_cover_of_its_size():
    rnd = random.Random(23)
    for _ in range(600):
        left, right = rnd.randint(0, 30), rnd.randint(0, 30)
        g = pattern_bigraph(rand_pattern(rnd, left, right, rnd.choice((0.03, 0.08, 0.2, 0.5))))
        assert_koenig_cover(g, *hopcroft_karp(g))
    # [A_r, B] of a verdicts system at n=12800: 1,280 more columns than
    # rows, each of which a per-root search would start from afresh
    sys_pat = parse_system(bench_gen().verdict_system(random.Random(0), 12800))
    a_rb = hstack(input_reachable_restriction(sys_pat.A, sys_pat.B)[1], sys_pat.B)
    assert (a_rb.rows, a_rb.cols) == (12800, 14080)
    g = pattern_bigraph(a_rb)
    matching, raising = hopcroft_karp(g)
    assert matching.size == 12800 and len(raising) >= 1280
    assert_koenig_cover(g, matching, raising)


# ---------------------------------------------------------------------------
# extremal_weight_max_matching


def test_extremal_single_edge():
    g = Bigraph(1, 1, ((1, 1, 5),))
    m, _ = extremal_weight_max_matching(g, "minimize")
    assert m.edges == {(1, 1)} and g.weight(m) == 5


def test_extremal_counterexample_loop_graph():
    # one real self-loop at state 4, synthetic loops elsewhere: the only
    # maximum matching takes all four diagonal slots, weight 3
    g = loop_augmented_bigraph(COUNTER_A)
    weights = sorted(weight_of(g, m) for m in maximum_matchings(g))
    assert weights == [3]
    m, _ = extremal_weight_max_matching(g, "minimize")
    assert g.weight(m) == 3 == COUNTER_A.rows - 1


def test_extremal_two_parallel_matchings():
    g = Bigraph(2, 2, ((1, 1, 1), (2, 2, 1), (1, 2, 3), (2, 1, 4)))
    lo, _ = extremal_weight_max_matching(g, "minimize")
    hi, _ = extremal_weight_max_matching(g, "maximize")
    assert g.weight(lo) == 2 and lo.edges == {(1, 1), (2, 2)}
    assert g.weight(hi) == 7 and hi.edges == {(1, 2), (2, 1)}
    for sense in ("minimize", "maximize"):
        assert extremal_weight_max_matching(Bigraph(2, 2, ()), sense)[0].size == 0
        assert extremal_weight_max_matching(Bigraph(2, 2, ()), sense) == (Matching(()), 0)


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
        lo, _ = extremal_weight_max_matching(g, "minimize")
        hi, _ = extremal_weight_max_matching(g, "maximize")
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
    # of two faulty arcs, the first in arc order is the one named
    arcs = ((0, 1, 1, 0), (1, 2, -1, 0), (0, 3, 1, 0))
    with pytest.raises(ValueError, match=r"^arc \(1,2\) needs non-negative capacity and cost$"):
        FlowNetwork(3, arcs, 0, 2)


def test_flow_network_rejects_a_source_or_sink_out_of_range():
    with pytest.raises(ValueError, match=r"^source 0 or sink 5 out of range$"):
        FlowNetwork(2, (), 0, 5)
    with pytest.raises(ValueError, match=r"^source -1 or sink 1 out of range$"):
        FlowNetwork(2, ((0, 1, 1, 0),), -1, 1)
    with pytest.raises(ValueError, match=r"^source 0 or sink 2 out of range$"):
        FlowNetwork._from_columns(2, ((), (), (), ()), 0, 2)


def test_flow_networks_are_equal_exactly_when_their_arcs_and_ends_are():
    arcs = ((0, 1, 2, 3), (1, 2, 1, 0), (0, 2, 1, 5))
    net = FlowNetwork(3, arcs, 0, 2)
    assert net.arcs == arcs and net.columns == ((0, 1, 0), (1, 2, 2), (2, 1, 1), (3, 0, 5))
    same = FlowNetwork(3, [list(arc) for arc in arcs], 0, 2)
    assert same == net and hash(same) == hash(net) and len({net, same}) == 1
    assert FlowNetwork(2, (), 0, 1).arcs == ()
    for other in (
        FlowNetwork(4, arcs, 0, 2),
        FlowNetwork(3, arcs[:2], 0, 2),
        FlowNetwork(3, arcs[1:] + arcs[:1], 0, 2),
        FlowNetwork(3, ((0, 1, 2, 3), (1, 2, 1, 1), (0, 2, 1, 5)), 0, 2),
        FlowNetwork(3, arcs, 1, 2),
        FlowNetwork(3, arcs, 0, 1),
    ):
        assert other != net and len({net, other}) == 2


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


CHAIN = Pattern(3, 3, {(2, 1), (3, 2)})  # x1 -> x2 -> x3


def test_scc_acyclic_chain():
    assert scc(CHAIN) == [{3}, {2}, {1}]


def test_scc_takes_roots_and_successors_in_ascending_order():
    # the component ids that placement reports and scc_induced_diagonalizable
    # takes depend on this order
    assert scc(Pattern(2, 2)) == [{1}, {2}]
    assert scc(Pattern(3, 3, {(2, 1), (3, 1)})) == [{2}, {3}, {1}]  # x1 -> x2, x1 -> x3
    assert scc(Pattern(4, 4, {(1, 2), (2, 1), (4, 3)})) == [{1, 2}, {4}, {3}]


def test_scc_two_cycle():
    comps = scc(Pattern(2, 2, {(1, 2), (2, 1)}))
    assert len(comps) == 1 and comps[0] == {1, 2}


def test_scc_counterexample_partition():
    assert sorted(sorted(c) for c in scc(COUNTER_A)) == [[1], [2], [3], [4]]


def test_scc_properties_random():
    rnd = random.Random(8)
    for _ in range(30):
        n = rnd.randint(1, 7)
        a = rand_pattern(rnd, n, n, 0.35)
        comps = scc(a)
        seen = [v for c in comps for v in c]
        assert sorted(seen) == list(range(1, n + 1))  # disjoint cover
        index = {v: k for k, c in enumerate(comps) for v in c}
        for head, tail in a.nonzeros:
            # reverse topological: cross edges point to earlier components
            assert index[tail] >= index[head]
        for c in comps:  # each component is strongly connected
            for v in c:
                assert c <= reachable(a, [v], "forward")


def test_edge_direction_follows_the_pattern():
    # A[i, j] != 0 is the edge x_j -> x_i
    a = Pattern(2, 2, {(2, 1)})
    assert reachable(a, [1], "forward") == {1, 2}
    assert reachable(a, [2], "forward") == {2}
    assert reachable(a, [2], "backward") == {1, 2}
    assert reachable(a, [1], "backward") == {1}
    assert scc(a) == [{2}, {1}]
    # counterexample: x4 feeds every state and the outputs read x1..x3 and x4
    assert reachable(COUNTER_A, [4], "forward") == {1, 2, 3, 4}
    assert reachable(COUNTER_A, [1], "backward") == {1, 4}
    assert output_reachable_states(COUNTER_A, COUNTER_C) == {1, 2, 3, 4}
    assert output_reachable_states(COUNTER_A, Pattern(1, 4, {(1, 1)})) == {1, 4}
    assert output_reachable_states(COUNTER_A, Pattern(1, 4, {(1, 4)})) == {4}
    assert output_reachable_states(COUNTER_A, Pattern(0, 4)) == frozenset()


def test_reachable_chain_backward():
    assert reachable(CHAIN, [3], "backward") == {1, 2, 3}


def test_reachable_isolated_vertex():
    assert reachable(Pattern(1, 1), [1], "forward") == {1}


def test_reachable_soc_example_input_set():
    a = Pattern(5, 5, {(2, 1), (3, 2), (4, 1), (4, 5)})
    assert reachable(a, [1], "forward") == {1, 2, 3, 4}  # u1 drives x1


def test_reachable_rejects_foreign_seed():
    with pytest.raises(ValueError, match=r"state index 9 out of range 1\.\.3"):
        reachable(CHAIN, [9], "forward")
    with pytest.raises(ValueError):
        reachable(CHAIN, [0], "backward")
    with pytest.raises(ValueError):
        reachable(CHAIN, [1], "sideways")
    with pytest.raises(ValueError, match="A must be square"):
        scc(Pattern(2, 3))


def test_scc_and_reachable_match_networkx():
    nx = pytest.importorskip("networkx")
    rnd = random.Random(81)
    for trial in range(300):
        n = rnd.randint(0, 40)
        a = rand_pattern(rnd, n, n, rnd.choice((0.02, 0.05, 0.1, 0.3)) if n else 0.0)
        g = nx.DiGraph()
        g.add_nodes_from(range(1, n + 1))
        g.add_edges_from((j, i) for i, j in a.nonzeros)  # self-loops included
        comps = scc(a)
        assert set(comps) == {frozenset(c) for c in nx.strongly_connected_components(g)}
        index = {v: k for k, c in enumerate(comps) for v in c}
        assert all(index[tail] >= index[head] for tail, head in g.edges)
        if not n:
            assert reachable(a, [], "forward") == frozenset()
            continue
        seeds = rnd.sample(range(1, n + 1), rnd.randint(0, min(n, 3)))
        forward = set(seeds).union(*(nx.descendants(g, s) for s in seeds))
        backward = set(seeds).union(*(nx.ancestors(g, s) for s in seeds))
        assert reachable(a, seeds, "forward") == forward
        assert reachable(a, seeds, "backward") == backward


@pytest.mark.parametrize("closed", [False, True], ids=["chain", "cycle"])
def test_scc_and_reachable_on_a_long_path_need_no_recursion(closed):
    n = 20000
    edges = {(i + 1, i) for i in range(1, n)}  # x_i -> x_{i+1}
    if closed:
        edges.add((1, n))
    a = Pattern(n, n, edges)
    comps = scc(a)
    assert comps == ([frozenset(range(1, n + 1))] if closed else [{i} for i in range(n, 0, -1)])
    assert reachable(a, [1], "forward") == frozenset(range(1, n + 1))
    assert reachable(a, [n], "backward") == frozenset(range(1, n + 1))
    assert reachable(a, [n], "forward") == (frozenset(range(1, n + 1)) if closed else {n})


def test_max_matching_long_augmenting_path():
    # the greedy pass matches column r to row r for r < n and leaves column
    # n, whose only row is 1, to one augmenting path through every column
    n = 5000
    edges = [(r, r, 0) for r in range(1, n)] + [(r, r + 1, 0) for r in range(1, n)]
    m = max_matching(Bigraph(n, n, tuple(edges + [(n, 1, 0)])))
    assert m.size == n
    assert m.edges == {(r, r + 1) for r in range(1, n)} | {(n, 1)}
