"""Combinatorial engines: bipartite matching, extremal-weight matching,
integral min-cost max-flow, strongly connected components, reachability.

Every engine is deterministic for a fixed input: adjacency is scanned in
canonical index order and ties never depend on hashing or iteration order
of unordered containers.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Literal, Sequence

from .core import Bigraph, Matching, Pattern, check_shapes, check_states

_INF = 1 << 60


@dataclass(frozen=True, slots=True, init=False)
class FlowNetwork:
    """Flow network with integer capacities and costs, held as the arc
    columns ``(tails, heads, capacities, costs)``, arc k at index k, with no
    tuple per arc; ``arcs`` builds the ``(tail, head, capacity, cost)``
    tuples on demand, and equal arcs, nodes and ends make equal networks."""

    nodes: int
    columns: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    source: int
    sink: int

    def __init__(self, nodes: int, arcs: Iterable[tuple[int, ...]], source: int, sink: int) -> None:
        arcs = tuple(map(tuple, arcs))
        self._store(nodes, tuple(zip(*arcs)) or ((),) * 4, source, sink)
        for tail, head, cap, cost in arcs:
            if not (0 <= tail < nodes and 0 <= head < nodes):
                raise ValueError(f"arc ({tail},{head}) endpoint out of range")
            if cap < 0 or cost < 0:
                raise ValueError(f"arc ({tail},{head}) needs non-negative capacity and cost")

    @classmethod
    def _from_columns(cls, nodes: int, columns: tuple, source: int, sink: int) -> FlowNetwork:
        """Network over columns the caller guarantees valid: only the ends are checked."""
        net = object.__new__(cls)
        net._store(nodes, columns, source, sink)
        return net

    def _store(self, nodes: int, columns: tuple, source: int, sink: int) -> None:
        if source == sink:
            raise ValueError("source and sink must differ")
        if not (0 <= source < nodes and 0 <= sink < nodes):
            raise ValueError(f"source {source} or sink {sink} out of range")
        for name, value in (("nodes", nodes), ("columns", columns), ("source", source), ("sink", sink)):
            object.__setattr__(self, name, value)

    @property
    def arcs(self) -> tuple[tuple[int, int, int, int], ...]:
        return tuple(zip(*self.columns))


@dataclass(frozen=True, slots=True)
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


def _residual(net: FlowNetwork) -> tuple[list[int], list[int], list[int], list[list[int]]]:
    """Residual graph of the zero flow: residual edge 2k is arc k forward and
    2k + 1 its reverse, with their heads, capacities, costs, and per node the
    residual edges leaving it in index order: slice assignments from the arc
    columns and one append per residual edge, with no tuple per arc."""
    tails, heads, caps, costs = net.columns
    size = 2 * len(tails)
    head, rcap, rcost = [0] * size, [0] * size, [0] * size
    head[::2], head[1::2] = heads, tails
    rcap[::2] = caps
    rcost[::2], rcost[1::2] = costs, [-c for c in costs]
    tail = [0] * size  # residual edge e leaves the head of its partner e ^ 1
    tail[::2], tail[1::2] = tails, heads
    adj: list[list[int]] = [[] for _ in range(net.nodes)]
    for e, u in enumerate(tail):
        adj[u].append(e)
    return head, rcap, rcost, adj


def _dijkstra(
    head: list[int],
    rcap: list[int],
    rcost: list[int],
    adj: list[list[int]],
    pot: Sequence[int],
    origin: int,
    stop: int,
) -> list[int]:
    """Dijkstra search from ``origin`` on the residual edges with capacity
    left, under reduced costs ``cost + pot[tail] - pot[head]``, which must be
    non-negative. Returns the reduced distance of every node, ``_INF`` where
    none is known; the search ends once node ``stop`` is settled (pass -1 to
    settle every reachable node). The heap holds one int per entry,
    ``distance * nodes + node``, which orders as ``(distance, node)`` does
    without a tuple per push; edges are scanned in index order."""
    nodes = len(adj)
    dist = [_INF] * nodes
    dist[origin] = 0
    heap = [origin]
    heappush, heappop = heapq.heappush, heapq.heappop
    while heap:
        d, u = divmod(heappop(heap), nodes)
        if d > dist[u]:
            continue
        if u == stop:
            break
        base = d + pot[u]
        for e in adj[u]:
            if rcap[e]:
                v = head[e]
                nd = base + rcost[e] - pot[v]
                if nd < dist[v]:
                    dist[v] = nd
                    heappush(heap, nd * nodes + v)
    return dist


def min_cost_max_flow(net: FlowNetwork) -> Flow:
    """Maximum flow of minimum cost, by the primal-dual method.

    The run starts cold, from zero potentials (input costs are
    non-negative), and alternates two steps (Edmonds-Karp 1972, Tomizawa
    1971; Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 9):

    - Blocking flows on the arcs of zero reduced cost
      ``cost + pi[tail] - pi[head]``, until none reaches the sink (Hopcroft
      & Karp 1973): BFS levels from the source, then a search back from the
      sink along level-decreasing arcs, with a current-arc pointer per node
      and dead nodes dropped.
    - Then one Dijkstra search on reduced costs, which stops once the sink
      is settled; every potential grows by ``min(dist, dist[sink])``, which
      keeps all residual reduced costs non-negative and gives every shortest
      path reduced cost zero. A sink out of reach ends the run.

    Blocking flows come first because a search that finds the sink at
    distance 0 would leave the potentials as they are, so the first search
    runs only once no zero-cost path is left. The run also stops as soon as
    the flow value reaches the capacity out of the source or into the sink,
    whichever is smaller: no augmenting path can exist then, so the failing
    BFS and search that would close the run are skipped. Value and cost are
    summed as each path is pushed: its edges all have reduced cost 0, so it
    costs ``pi[sink] - pi[source]``, and no O(E) sum closes the run.

    The result is deterministic: arcs are scanned in index order, the heap
    orders by distance then node, and where several optima tie, the search
    back from the sink takes at every node the admissible arc of lowest
    index.
    """
    nodes, source, sink = net.nodes, net.source, net.sink
    head, rcap, rcost, adj = _residual(net)
    pot, value, cost = [0] * nodes, 0, 0
    # no flow exceeds the capacity leaving the source or entering the sink
    left = min(sum(rcap[e] for e in adj[source]), sum(rcap[e ^ 1] for e in adj[sink]))
    while left:
        level = [-1] * nodes  # BFS levels on the arcs of zero reduced cost
        level[source] = 0
        queue = [source]
        for u in queue:
            lu, pu = level[u] + 1, pot[u]
            for e in adj[u]:
                v = head[e]
                if rcap[e] and level[v] < 0 and rcost[e] + pu == pot[v]:
                    level[v] = lu
                    queue.append(v)
            if level[sink] >= 0:
                break
        else:  # the sink is out of reach: raise the potentials
            dist = _dijkstra(head, rcap, rcost, adj, pot, source, sink)
            reach = dist[sink]
            if reach >= _INF:
                break
            pot = [p + (d if d < reach else reach) for p, d in zip(pot, dist)]
            continue
        cursor = [0] * nodes
        path: list[int] = []  # edges from the current node back to the sink
        while True:
            v = head[path[-1] ^ 1] if path else sink
            if v == source:
                bottleneck = min(map(rcap.__getitem__, path))
                for e in path:
                    rcap[e] -= bottleneck
                    rcap[e ^ 1] += bottleneck
                value += bottleneck
                cost += bottleneck * (pot[sink] - pot[source])
                left -= bottleneck
                if not left:
                    break
                path = []
                continue
            out, i = adj[v], cursor[v]
            end, lu, pv = len(out), level[v] - 1, pot[v]
            while i < end:
                u, e = head[out[i]], out[i] ^ 1
                if rcap[e] and level[u] == lu and rcost[e] + pot[u] == pv:
                    break
                i += 1
            cursor[v] = i
            if i < end:
                path.append(e)
            elif path:  # dead end: drop the node and step back
                level[v] = -1
                path.pop()
            else:
                break
    return Flow(tuple(rcap[1::2]), value, cost, tuple(pot))


def residual_distances(net: FlowNetwork, flow: Flow, origin: int) -> list[int | None]:
    """Cost of a cheapest path from ``origin`` to every node in the residual
    network of ``flow``, or None where no path exists.

    ``flow`` must carry potentials under which every residual arc has a
    non-negative reduced cost, as every flow of :func:`min_cost_max_flow`
    does. The search is then one Dijkstra run, and a cheapest path closed by
    an added arc is the cheapest cycle through that arc: adding the arc
    lowers the optimum cost by exactly that cycle's cost when it is negative
    (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 9). A flow of
    another arc or node count, or an origin out of range, is a ValueError.
    """
    arc_flow, pot = flow.arc_flow, flow.potentials
    if (len(arc_flow), len(pot)) != (len(net.columns[0]), net.nodes):
        raise ValueError(f"flow of {len(arc_flow)} arcs and {len(pot)} potentials does not fit the network")
    if not 0 <= origin < net.nodes:
        raise ValueError(f"origin {origin} out of range")
    head, rcap, rcost, adj = _residual(net)
    rcap[::2] = [cap - f for cap, f in zip(net.columns[2], arc_flow)]
    rcap[1::2] = arc_flow
    dist = _dijkstra(head, rcap, rcost, adj, pot, origin, -1)
    shift = pot[origin]
    return [d - shift + pot[v] if d < _INF else None for v, d in enumerate(dist)]


def hopcroft_karp(g: Bigraph) -> tuple[Matching, frozenset[int]]:
    """Maximum-cardinality matching (Hopcroft & Karp 1973), and the right
    vertices that some maximum matching leaves unmatched.

    After a greedy pass, each phase levels the right vertices by one
    breadth-first search from the free ones along alternating paths, then
    augments along level-increasing paths, each found by a depth-first
    search on an explicit stack (a current-arc pointer per vertex; a vertex
    with no way on is dropped). The first search that reaches no free left
    vertex ends the run; the right vertices it reached are the second value
    (Dulmage & Mendelsohn 1958). Roots and adjacency go in ascending order.
    """
    adj: list[list[int]] = [[] for _ in range(g.right + 1)]
    for r, l, _ in g.edges:
        adj[r].append(l)
    match_l = [0] * (g.left + 1)  # 0 marks a free vertex
    match_r = [0] * len(adj)
    for r in range(1, len(adj)):
        for l in adj[r]:
            if not match_l[l]:
                match_l[l], match_r[r] = r, l
                break
    while True:
        free = [r for r in range(1, len(adj)) if not match_r[r]]
        level = [-1] * len(adj)
        for r in free:
            level[r] = 0
        layer, reached = free, False
        while layer and not reached:
            deeper = []
            for r in layer:
                up = level[r] + 1
                for l in adj[r]:
                    owner = match_l[l]
                    if not owner:
                        reached = True
                    elif level[owner] < 0:
                        level[owner] = up
                        deeper.append(owner)
            layer = deeper
        if not reached:
            return Matching.from_mates(match_r), frozenset(r for r, v in enumerate(level) if v >= 0)
        for r in layer:  # past the shortest augmenting paths
            level[r] = -1
        cursor = [0] * len(adj)
        for root in free:
            rights = [root]
            while rights:
                r = rights[-1]
                nbrs, i, up = adj[r], cursor[r], level[r] + 1
                while i < len(nbrs):
                    owner = match_l[nbrs[i]]
                    if not owner or level[owner] == up:
                        break
                    i += 1
                cursor[r] = i
                if i == len(nbrs):  # no way on: dropped for the phase
                    level[rights.pop()] = -1
                elif owner:
                    rights.append(owner)
                else:  # flip the path from its free end and drop its vertices
                    l = nbrs[i]
                    for r in reversed(rights):
                        match_l[l], match_r[r], l, level[r] = r, l, match_r[r], -1
                    break


def max_matching(g: Bigraph) -> Matching:
    """Maximum-cardinality matching: :func:`hopcroft_karp`'s matching."""
    return hopcroft_karp(g)[0]


def matching_network(g: Bigraph, sense: Literal["minimize", "maximize", "count"]) -> FlowNetwork:
    """Unit-capacity network whose minimum-cost maximum flows are the
    maximum matchings of g of minimum or maximum total cost, or for
    ``count`` with the most edges of positive cost.

    Node 0 is the source, node r the right vertex r, node ``g.right + l``
    the left vertex l, and node ``g.right + g.left + 1`` the sink. The arcs
    are the source arcs in right order, one arc per edge in edge order, then
    the sink arcs in left order. An edge of cost c costs c for ``minimize``;
    W + 1 - c for ``maximize``, with W the sum of all costs, which keeps arc
    costs non-negative; and for ``count`` 0 when c is positive and 1 when it
    is 0, so a flow's cost is the number of matched cost-0 edges. The
    max-flow phase pins the cardinality, so cost only discriminates among
    maximum matchings.
    """
    edges, right, left = g.edges, g.right, g.left
    if sense == "minimize":
        costs = [c for _, _, c in edges]
    elif sense == "maximize":
        top = sum(c for _, _, c in edges) + 1
        costs = [top - c for _, _, c in edges]
    elif sense == "count":
        costs = [0 if c else 1 for _, _, c in edges]
    else:
        raise ValueError(f"unknown sense {sense!r}")
    sink = right + left + 1
    tails = (*(0,) * right, *[r for r, _, _ in edges], *range(right + 1, sink))
    heads = (*range(1, right + 1), *[right + l for _, l, _ in edges], *(sink,) * left)
    costs = (*(0,) * right, *costs, *(0,) * left)
    return FlowNetwork._from_columns(sink + 1, (tails, heads, (1,) * len(costs), costs), 0, sink)


def flow_matching(g: Bigraph, flow: Flow) -> tuple[Matching, int]:
    """The matching a flow of :func:`matching_network` carries, the edges
    whose arcs hold flow, and its total cost in g."""
    mates = [0] * (g.right + 1)
    weight = 0
    for (r, l, c), f in zip(g.edges, flow.arc_flow[g.right :]):
        if f:
            mates[r] = l
            weight += c
    return Matching.from_mates(mates), weight


def extremal_weight_max_matching(
    g: Bigraph, sense: Literal["minimize", "maximize"]
) -> tuple[Matching, int]:
    """Maximum-cardinality matching of minimum or maximum total cost, from a
    minimum-cost maximum flow of :func:`matching_network`, and that total
    cost."""
    return flow_matching(g, min_cost_max_flow(matching_network(g, sense)))


def _successors(A: Pattern, reverse: bool = False) -> list[list[int]]:
    """Adjacency lists of the state graph of a square pattern, indexed by
    1-based state: ``A[i, j] != 0`` is the edge x_j -> x_i. Each list is in
    ascending order; ``reverse`` lists predecessors instead."""
    adj: list[list[int]] = [[] for _ in range(check_shapes(A) + 1)]
    for i, j in A.sorted_nonzeros():
        if reverse:
            adj[i].append(j)
        else:
            adj[j].append(i)
    return adj


def scc(A: Pattern) -> list[frozenset[int]]:
    """Strongly connected components of the state graph of a square pattern
    (Tarjan 1972, on an explicit stack), in reverse topological order of the
    condensation: every edge points from a later component to an earlier one.

    Roots are taken in ascending state order and successors in ascending
    order, so the component list is the same on every run.
    """
    adj = _successors(A)
    n = len(adj) - 1
    index = [0] * (n + 1)  # 0 marks an unvisited state
    lowlink = [0] * (n + 1)
    on_stack = [False] * (n + 1)
    stack: list[int] = []
    components: list[frozenset[int]] = []
    counter = 0

    for root in range(1, n + 1):
        if index[root]:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, ptr = work[-1]
            if ptr == 0:
                counter += 1
                index[v] = lowlink[v] = counter
                stack.append(v)
                on_stack[v] = True
            advanced = False
            succ = adj[v]
            while ptr < len(succ):
                w = succ[ptr]
                ptr += 1
                if not index[w]:
                    work[-1] = (v, ptr)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return components


def reachable(
    A: Pattern, seeds: Iterable[int], direction: Literal["forward", "backward"]
) -> frozenset[int]:
    """States joined to the seed states by a directed path of the state graph
    of a square pattern, seeds included: their descendants (``forward``) or
    their ancestors (``backward``)."""
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    n = check_shapes(A)
    frontier = check_states(n, seeds)
    adj = _successors(A, reverse=direction == "backward")
    seen = set(frontier)
    while frontier:
        for w in adj[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)
