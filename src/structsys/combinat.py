"""Combinatorial engines: bipartite matching, extremal-weight matching,
integral min-cost max-flow, strongly connected components, reachability.

Every engine is deterministic for a fixed input: adjacency is scanned in
canonical index order and ties never depend on hashing or iteration order
of unordered containers.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Literal

from .core import Bigraph, Digraph, Matching, Vertex

_INF = 1 << 60


@dataclass(frozen=True)
class FlowNetwork:
    """Arc-list flow network with integer capacities and costs."""

    nodes: int
    arcs: tuple[tuple[int, int, int, int], ...]  # (tail, head, capacity, cost)
    source: int
    sink: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "arcs", tuple(tuple(a) for a in self.arcs))
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        for tail, head, cap, cost in self.arcs:
            if not (0 <= tail < self.nodes and 0 <= head < self.nodes):
                raise ValueError(f"arc ({tail},{head}) endpoint out of range")
            if cap < 0 or cost < 0:
                raise ValueError(f"arc ({tail},{head}) needs non-negative capacity and cost")


@dataclass(frozen=True)
class Flow:
    """Integral flow: one value per arc plus the total value and cost.

    ``potentials`` holds one node potential per network node such that every
    residual arc has a non-negative reduced cost ``cost + pi[tail] - pi[head]``;
    together with the absence of an augmenting path this certifies the flow
    as a minimum-cost maximum flow in O(E). It is a certificate, not part of
    the flow, and does not take part in equality.
    """

    arc_flow: tuple[int, ...]
    value: int
    cost: int
    potentials: tuple[int, ...] = field(default=(), compare=False)


def min_cost_max_flow(net: FlowNetwork, start: Flow | None = None) -> Flow:
    """Maximum flow of minimum cost, by successive shortest augmenting paths.

    Each path comes from a Dijkstra search on reduced costs under node
    potentials (Edmonds-Karp 1972, Tomizawa 1971). The search stops once the
    sink is settled and every potential then grows by ``min(dist, dist[sink])``,
    which keeps all residual reduced costs non-negative. Input costs are
    non-negative, so the potentials start at zero; ``start`` may instead
    supply a minimum-cost flow of its value together with potentials under
    which its residual arcs have non-negative reduced costs, and augmentation
    continues from there (a start that breaks this raises ``ValueError``). Arcs are scanned in index order and the heap is
    keyed on ``(distance, node)``, so the result is deterministic.
    """
    arcs = net.arcs
    nodes, source, sink = net.nodes, net.source, net.sink
    # residual edge 2k is arc k forward, 2k + 1 its reverse
    head: list[int] = []
    rcap: list[int] = []
    rcost: list[int] = []
    adj: list[list[int]] = [[] for _ in range(nodes)]
    for k, (u, v, cap, cost) in enumerate(arcs):
        head += (v, u)
        rcap += (cap, 0)
        rcost += (cost, -cost)
        adj[u].append(2 * k)
        adj[v].append(2 * k + 1)
    if start is None:
        pot = [0] * nodes
    else:
        pot = _load_start(net, start, rcap)
    heappush, heappop = heapq.heappush, heapq.heappop
    while True:
        dist = [_INF] * nodes
        pred = [-1] * nodes
        dist[source] = 0
        heap = [(0, source)]
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            if u == sink:
                break
            base = d + pot[u]
            for e in adj[u]:
                if rcap[e]:
                    v = head[e]
                    nd = base + rcost[e] - pot[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        pred[v] = e
                        heappush(heap, (nd, v))
        reach = dist[sink]
        if reach >= _INF:
            break
        for v in range(nodes):
            dv = dist[v]
            pot[v] += dv if dv < reach else reach
        bottleneck = _INF
        v = sink
        while v != source:
            e = pred[v]
            if rcap[e] < bottleneck:
                bottleneck = rcap[e]
            v = head[e ^ 1]
        v = sink
        while v != source:
            e = pred[v]
            rcap[e] -= bottleneck
            rcap[e ^ 1] += bottleneck
            v = head[e ^ 1]
    flow = rcap[1::2]
    # net outflow of the source: flow on its out-arcs less flow on its in-arcs
    value = sum(rcap[e + 1] if e % 2 == 0 else -rcap[e] for e in adj[source])
    cost = sum(f * a[3] for f, a in zip(flow, arcs))
    return Flow(tuple(flow), value, cost, tuple(pot))


def _load_start(net: FlowNetwork, start: Flow, rcap: list[int]) -> list[int]:
    """Write a starting flow into the residual capacities and return its
    potentials, after checking bounds, conservation and reduced costs."""
    if len(start.arc_flow) != len(net.arcs) or len(start.potentials) != net.nodes:
        raise ValueError("start flow needs one value per arc and one potential per node")
    pot = list(start.potentials)
    excess = [0] * net.nodes
    for k, ((u, v, cap, cost), f) in enumerate(zip(net.arcs, start.arc_flow)):
        if not 0 <= f <= cap:
            raise ValueError(f"start flow on arc {k} outside [0, {cap}]")
        rcap[2 * k], rcap[2 * k + 1] = cap - f, f
        excess[u] -= f
        excess[v] += f
        reduced = cost + pot[u] - pot[v]
        if (f < cap and reduced < 0) or (f > 0 and reduced > 0):
            raise ValueError(f"start potentials give arc {k} a negative residual reduced cost")
    if any(x for node, x in enumerate(excess) if node not in (net.source, net.sink)):
        raise ValueError("start flow violates conservation")
    return pot


def max_matching(g: Bigraph) -> Matching:
    """Maximum-cardinality matching by augmenting paths.

    A greedy pass first matches each right vertex, in ascending order, to its
    first free left neighbour. Each right vertex left unmatched then starts
    an augmenting-path search, a depth-first search on an explicit stack
    that scans adjacency in ascending left order. Right vertices are taken
    in ascending order and the tie-breaking is fixed; no recursion is used,
    so path length is bounded only by memory.
    """
    adj: list[list[int]] = [[] for _ in range(g.right + 1)]
    for r, l, _ in g.edges:
        adj[r].append(l)
    match_r = _match(adj, g.left)
    return Matching(frozenset((r, l) for r, l in enumerate(match_r) if l))


def _match(adj: list[list[int]], left: int) -> list[int]:
    """The left partner of every right vertex (0 when unmatched) in a
    maximum matching of the bigraph with right adjacency ``adj[1:]``."""
    match_l = [0] * (left + 1)  # 0 marks a free vertex
    match_r = [0] * len(adj)
    for r in range(1, len(adj)):
        for l in adj[r]:
            if not match_l[l]:
                match_l[l], match_r[r] = r, l
                break
    seen = [0] * (left + 1)  # holds the root of the last search to visit
    for root in range(1, len(adj)):
        if match_r[root]:
            continue
        rights, cursors, lefts = [root], [0], []
        while rights:
            r, i = rights[-1], cursors[-1]
            nbrs = adj[r]
            while i < len(nbrs) and seen[nbrs[i]] == root:
                i += 1
            if i == len(nbrs):
                rights.pop()
                cursors.pop()
                if lefts:
                    lefts.pop()
                continue
            l = nbrs[i]
            cursors[-1] = i + 1
            seen[l] = root
            owner = match_l[l]
            lefts.append(l)
            if owner:
                rights.append(owner)
                cursors.append(0)
                continue
            for r, l in zip(rights, lefts):  # flip the alternating path
                match_l[l], match_r[r] = r, l
            break
    return match_r


def extremal_weight_max_matching(
    g: Bigraph, sense: Literal["minimize", "maximize"]
) -> Matching:
    """Maximum-cardinality matching of minimum or maximum total cost.

    Reduced to min-cost max-flow on the unit-capacity network; the max-flow
    phase pins the cardinality, so cost only discriminates among maximum
    matchings. For ``maximize`` each edge cost c is replaced by W + 1 - c
    with W the sum of all costs, keeping arc costs non-negative.

    The flow starts from a maximum-cardinality matching on the edges of the
    least arc cost c_min. That start is optimal for its value k, since every
    flow of value k costs at least k * c_min, and potentials c_min on the
    left part and the sink, 0 elsewhere, certify it.
    """
    if sense not in ("minimize", "maximize"):
        raise ValueError(f"unknown sense {sense!r}")
    if not g.edges:
        return Matching(frozenset())
    total = sum(c for _, _, c in g.edges)
    costs = [c if sense == "minimize" else total + 1 - c for _, _, c in g.edges]
    source = 0
    sink = g.right + g.left + 1
    arcs: list[tuple[int, int, int, int]] = []
    for r in range(1, g.right + 1):
        arcs.append((source, r, 1, 0))
    edge_base = len(arcs)
    for (r, l, _), cost in zip(g.edges, costs):
        arcs.append((r, g.right + l, 1, cost))
    sink_base = len(arcs)
    for l in range(1, g.left + 1):
        arcs.append((g.right + l, sink, 1, 0))
    net = FlowNetwork(sink + 1, tuple(arcs), source, sink)

    c_min = min(costs)
    cheapest: list[list[int]] = [[] for _ in range(g.right + 1)]
    for (r, l, _), cost in zip(g.edges, costs):
        if cost == c_min:
            cheapest[r].append(l)
    seed = _match(cheapest, g.left)
    arc_flow = [0] * len(arcs)
    for k, (r, l, _) in enumerate(g.edges):
        if seed[r] == l:
            arc_flow[r - 1] = arc_flow[edge_base + k] = arc_flow[sink_base + l - 1] = 1
    size = sum(1 for l in seed if l)
    potentials = [0] * (g.right + 1) + [c_min] * (g.left + 1)
    start = Flow(tuple(arc_flow), size, size * c_min, tuple(potentials))
    result = min_cost_max_flow(net, start)
    chosen = frozenset(
        (g.edges[k][0], g.edges[k][1])
        for k in range(len(g.edges))
        if result.arc_flow[edge_base + k] > 0
    )
    return Matching(chosen)


def scc(g: Digraph) -> list[frozenset[Vertex]]:
    """Strongly connected components, in reverse topological order of the
    condensation (every edge points from a later component to an earlier one).
    """
    order = {v: i for i, v in enumerate(g.vertices)}
    adj: dict[Vertex, list[Vertex]] = {v: [] for v in g.vertices}
    for tail, head in sorted(g.edges, key=lambda e: (order[e[0]], order[e[1]])):
        adj[tail].append(head)

    index: dict[Vertex, int] = {}
    lowlink: dict[Vertex, int] = {}
    on_stack: set[Vertex] = set()
    stack: list[Vertex] = []
    components: list[frozenset[Vertex]] = []
    counter = 0

    for root in g.vertices:
        if root in index:
            continue
        work: list[tuple[Vertex, int]] = [(root, 0)]
        while work:
            v, ptr = work[-1]
            if ptr == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            while ptr < len(adj[v]):
                w = adj[v][ptr]
                ptr += 1
                if w not in index:
                    work[-1] = (v, ptr)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                components.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return components


def reachable(
    g: Digraph, seeds: Iterable[Vertex], direction: Literal["forward", "backward"]
) -> frozenset[Vertex]:
    """Vertices connected to the seeds by a directed path, seeds included."""
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    vset = set(g.vertices)
    frontier = list(seeds)
    for s in frontier:
        if s not in vset:
            raise ValueError(f"seed {s} is not a vertex of the graph")
    adj: dict[Vertex, list[Vertex]] = {v: [] for v in g.vertices}
    for tail, head in g.edges:
        if direction == "forward":
            adj[tail].append(head)
        else:
            adj[head].append(tail)
    seen = set(frontier)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)
