"""Shared fixtures and random-instance generators for the test suite."""

from __future__ import annotations

import heapq
import importlib.util
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from typing import Any, Iterable, Iterator, Sequence

from structsys import (
    Linking,
    Matching,
    Pattern,
    PreconditionError,
    SensorPlacement,
    SfoReport,
    SystemPattern,
    cactus_size,
    functional_states,
    grank,
    identity_pattern,
    is_generically_diagonalizable,
    reachable,
    stack,
    unit_row,
)
from structsys.cli import _TOP_KEYS, MAX_DIMENSION, SystemFileError, parse_system
from structsys.combinat import (
    Flow,
    FlowNetwork,
    matching_network,
    min_cost_max_flow,
    residual_distances,
)
from structsys.core import Bigraph, check_shapes, pattern_bigraph
from structsys.diag import loop_augmented_bigraph
from structsys.grank import cactus_bigraph, linking_network, output_reachable_states
from structsys.placement import _matched_split
from structsys.soc import input_reachable_restriction

FIXTURES = Path(__file__).parent / "fixtures"
BENCH_GEN = Path(__file__).parents[1] / "bench" / "gen.py"


FIXTURE_NAMES = (
    "example_actuator",
    "example_alg1",
    "example_counter",
    "example_sensor_general",
    "example_soc",
    "zero",
)


def fixture_path(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


def fixture_meta(name: str) -> dict:
    with open(FIXTURES / f"{name}.meta.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


# the worked counterexample triple: one nonzero column in A, two mixing
# output rows plus a dedicated one, a single functional state
COUNTER_A = Pattern(4, 4, {(1, 4), (2, 4), (3, 4), (4, 4)})
COUNTER_C = Pattern(3, 4, {(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 4)})
COUNTER_F = Pattern(1, 4, {(1, 1)})

# its displayed numeric realization (functionally observable despite not SFO)
COUNTER_A_VALUES = {(1, 4): 1.0, (2, 4): 1.0, (3, 4): 1.0, (4, 4): 1.0}
COUNTER_C_VALUES = {
    (1, 1): 1.0, (1, 2): 1.0, (1, 3): 1.0,
    (2, 1): 2.0, (2, 2): 1.0, (2, 3): 1.0,
    (3, 4): 1.0,
}
COUNTER_F_VALUES = {(1, 1): 1.0}


def rand_pattern(rnd: random.Random, rows: int, cols: int, density: float) -> Pattern:
    nz = {
        (i, j)
        for i in range(1, rows + 1)
        for j in range(1, cols + 1)
        if rnd.random() < density
    }
    return Pattern(rows, cols, frozenset(nz))


def rand_square(rnd: random.Random, n: int, density: float | None = None) -> Pattern:
    return rand_pattern(rnd, n, n, density if density is not None else rnd.uniform(0.1, 0.6))


def rand_nonempty_rows(rnd: random.Random, rows: int, cols: int, density: float = 0.4) -> Pattern:
    entries = set()
    for i in range(1, rows + 1):
        row = [j for j in range(1, cols + 1) if rnd.random() < density]
        if not row:
            row = [rnd.randint(1, cols)]
        entries.update((i, j) for j in row)
    return Pattern(rows, cols, frozenset(entries))


def rand_gen_diag(rnd: random.Random, n: int) -> Pattern:
    """Random generically diagonalizable square pattern.

    Mixes three generators (self-loop rich, structurally symmetric, plain
    rejection) and falls back to adding every self-loop, which always
    qualifies.
    """
    for _ in range(200):
        mode = rnd.random()
        if mode < 0.35:
            nz = {(i, i) for i in range(1, n + 1) if rnd.random() < 0.85}
            nz |= rand_square(rnd, n, rnd.uniform(0.05, 0.3)).nonzeros
        elif mode < 0.6:
            nz = set()
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    if rnd.random() < rnd.uniform(0.1, 0.4):
                        nz.add((i, j))
                        nz.add((j, i))
        else:
            nz = rand_square(rnd, n).nonzeros
        cand = Pattern(n, n, frozenset(nz))
        if is_generically_diagonalizable(cand).verdict:
            return cand
    nz = set(rand_square(rnd, n, 0.2).nonzeros)
    nz.update((i, i) for i in range(1, n + 1))
    return Pattern(n, n, frozenset(nz))


def all_patterns(n: int):
    """Every n x n pattern, as a generator (2^(n^2) of them)."""
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for mask in range(1 << len(cells)):
        yield Pattern(n, n, frozenset(c for k, c in enumerate(cells) if mask >> k & 1))


def eye(n: int) -> Pattern:
    return identity_pattern(n)


# ---------------------------------------------------------------------------
# reference flow solver: the earlier engine, kept verbatim to check the
# Dijkstra engine against (one Bellman-Ford pass per augmentation)

_INF = 1 << 60


def bellman_ford_min_cost_max_flow(net: FlowNetwork) -> Flow:
    """Maximum flow of minimum cost, by successive shortest augmenting paths.

    Augmenting paths are found with Bellman-Ford over the residual arcs in
    arc-index order, so the result is deterministic. Costs must be
    non-negative on the input; residual arcs may go negative, which
    Bellman-Ford handles exactly.
    """
    arcs = net.arcs
    flow = [0] * len(arcs)
    while True:
        dist = [_INF] * net.nodes
        parent: list[tuple[int, int] | None] = [None] * net.nodes
        dist[net.source] = 0
        for _ in range(net.nodes):
            changed = False
            for idx, (u, v, cap, cost) in enumerate(arcs):
                du, dv = dist[u], dist[v]
                if flow[idx] < cap and du < _INF and du + cost < dist[v]:
                    dist[v] = du + cost
                    parent[v] = (idx, 1)
                    changed = True
                if flow[idx] > 0 and dv < _INF and dv - cost < dist[u]:
                    dist[u] = dv - cost
                    parent[u] = (idx, -1)
                    changed = True
            if not changed:
                break
        if dist[net.sink] >= _INF:
            break
        # bottleneck along the parent chain, then push
        bottleneck = _INF
        node = net.sink
        while node != net.source:
            idx, direction = parent[node]  # type: ignore[misc]
            u, v, cap, _ = arcs[idx]
            bottleneck = min(bottleneck, cap - flow[idx] if direction > 0 else flow[idx])
            node = u if direction > 0 else v
        node = net.sink
        while node != net.source:
            idx, direction = parent[node]  # type: ignore[misc]
            u, v, _, _ = arcs[idx]
            flow[idx] += direction * bottleneck
            node = u if direction > 0 else v
    value = sum(flow[i] for i, (u, _, _, _) in enumerate(arcs) if u == net.source) - sum(
        flow[i] for i, (_, v, _, _) in enumerate(arcs) if v == net.source
    )
    cost = sum(f * a[3] for f, a in zip(flow, arcs))
    return Flow(tuple(flow), value, cost)


# ---------------------------------------------------------------------------
# reference primal-dual engine: the Dijkstra-first loop with a tuple-keyed
# heap, kept verbatim so that the engine's flows, values, costs, potentials
# and Dijkstra search counts can be checked against it


def reference_dijkstra(
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
    settle every reachable node). The heap is keyed on ``(distance, node)``
    and edges are scanned in index order."""
    dist = [_INF] * len(adj)
    dist[origin] = 0
    heap = [(0, origin)]
    heappush, heappop = heapq.heappush, heapq.heappop
    while heap:
        d, u = heappop(heap)
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
                    heappush(heap, (nd, v))
    return dist


def reference_residual(net: FlowNetwork) -> tuple[list[int], list[int], list[int], list[list[int]]]:
    """Residual graph of the zero flow: residual edge 2k is arc k forward and
    2k + 1 its reverse, with their heads, capacities, costs, and per node the
    residual edges leaving it in arc order."""
    head: list[int] = []
    rcap: list[int] = []
    rcost: list[int] = []
    adj: list[list[int]] = [[] for _ in range(net.nodes)]
    for k, (u, v, cap, cost) in enumerate(net.arcs):
        head += (v, u)
        rcap += (cap, 0)
        rcost += (cost, -cost)
        adj[u].append(2 * k)
        adj[v].append(2 * k + 1)
    return head, rcap, rcost, adj


def reference_min_cost_max_flow(net: FlowNetwork) -> Flow:
    """Maximum flow of minimum cost, by the primal-dual method.

    Each phase runs one Dijkstra search on reduced costs under node
    potentials (Edmonds-Karp 1972, Tomizawa 1971). The search stops once the
    sink is settled and every potential then grows by ``min(dist, dist[sink])``,
    which keeps all residual reduced costs non-negative and gives every
    shortest path reduced cost zero. The phase then augments along paths of
    zero-reduced-cost arcs by blocking flows until none is left (Ahuja,
    Magnanti & Orlin, *Network Flows*, 1993, ch. 9; Hopcroft & Karp 1973):
    BFS levels from the source, then a search back from the sink along
    level-decreasing arcs, with a current-arc pointer per node and dead
    nodes dropped. Input costs are non-negative, so every run starts cold,
    from zero potentials; on a matching network the first phase already
    finds a maximum matching on the cheapest edge class.

    The result is deterministic: arcs are scanned in index order, the heap
    is keyed on ``(distance, node)``, and where several optima tie, the
    search back from the sink takes at every node the admissible arc of
    lowest index.
    """
    nodes, source, sink = net.nodes, net.source, net.sink
    head, rcap, rcost, adj = reference_residual(net)
    pot = [0] * nodes
    while True:
        dist = reference_dijkstra(head, rcap, rcost, adj, pot, source, sink)
        reach = dist[sink]
        if reach >= _INF:
            break
        for v in range(nodes):
            dv = dist[v]
            pot[v] += dv if dv < reach else reach
        while True:  # blocking flows on the arcs of zero reduced cost
            level = [-1] * nodes
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
            else:  # the sink is out of reach: the phase is over
                break
            cursor = [0] * nodes
            path: list[int] = []  # edges from the current node back to the sink
            while True:
                v = head[path[-1] ^ 1] if path else sink
                if v == source:
                    bottleneck = min(rcap[e] for e in path)
                    for e in path:
                        rcap[e] -= bottleneck
                        rcap[e ^ 1] += bottleneck
                    path = []
                    continue
                out, i = adj[v], cursor[v]
                lu, pv = level[v] - 1, pot[v]
                while i < len(out):
                    u, e = head[out[i]], out[i] ^ 1
                    if rcap[e] and level[u] == lu and rcost[e] + pot[u] == pv:
                        break
                    i += 1
                cursor[v] = i
                if i < len(out):
                    path.append(e)
                elif path:  # dead end: drop the node and step back
                    level[v] = -1
                    path.pop()
                else:
                    break
    flow = rcap[1::2]
    # net outflow of the source: flow on its out-arcs less flow on its in-arcs
    value = sum(rcap[e + 1] if e % 2 == 0 else -rcap[e] for e in adj[source])
    cost = sum(f * a[3] for f, a in zip(flow, net.arcs))
    return Flow(tuple(flow), value, cost, tuple(pot))



def count_searches(monkeypatch) -> tuple[list, list]:
    """Make every Dijkstra search of the engine and of
    :func:`reference_min_cost_max_flow` append its first argument to the
    first and to the second returned list."""
    real = reference_dijkstra
    reference: list = []

    def counting(*args):
        reference.append(args[0])
        return real(*args)

    monkeypatch.setattr(sys.modules[__name__], "reference_dijkstra", counting)
    return count_calls(monkeypatch, "_dijkstra"), reference

def count_calls(monkeypatch, engine: str, module: str = "combinat") -> list:
    """Make every call of the ``structsys.<module>`` function ``engine``
    append its first argument to the returned list. The package re-exports
    functions under its submodules' names (``structsys.grank`` is the
    function), so every alias of the engine is reached through
    ``sys.modules``."""
    real = getattr(sys.modules[f"structsys.{module}"], engine)
    calls: list = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("structsys") and getattr(module, engine, None) is real:
            monkeypatch.setattr(module, engine, counting)
    return calls


def count_flow_solves(monkeypatch) -> list[FlowNetwork]:
    """Make every flow solve append its network to the returned list."""
    return count_calls(monkeypatch, "min_cost_max_flow")


def chain_pattern(n: int) -> Pattern:
    """The chain {(r, r), (r+1, r)} plus (1, n): full generic rank n, and a
    matching search that meets one augmenting path through all n columns."""
    nz = {(r, r) for r in range(1, n + 1)} | {(r + 1, r) for r in range(1, n)} | {(1, n)}
    return Pattern(n, n, frozenset(nz))


# ---------------------------------------------------------------------------
# reference SFO decision: the earlier is_sfo, which re-solves a whole cactus
# per functional state when the verdict is false


def reference_is_sfo(A: Pattern, C: Pattern, F: Pattern) -> SfoReport:
    x_f = functional_states(F)
    d_ac = cactus_size(A, C).size
    if not x_f:
        return SfoReport(True, "general-cactus", x_f, frozenset(), d_ac, d_ac, frozenset())
    w = output_reachable_states(A, C)
    unreachable = x_f - w
    d_acf = cactus_size(A, stack(C, F)).size
    verdict = not unreachable and d_ac == d_acf
    failing: frozenset[int] = frozenset()
    if not verdict:
        failing = frozenset(
            i for i in x_f if cactus_size(A, stack(C, unit_row(A.cols, i))).size > d_ac
        )
    return SfoReport(verdict, "general-cactus", x_f, unreachable, d_ac, d_acf, failing)


# ---------------------------------------------------------------------------
# reference bare SFO verdict: the earlier sfo_feasible, which compares the
# cactus sizes of (A, C) and (A, [C; F]) in two full solves


def reference_sfo_feasible(A: Pattern, C: Pattern, F: Pattern) -> bool:
    x_f = functional_states(F)
    if not x_f:
        return True
    if x_f - output_reachable_states(A, C):
        return False
    return cactus_size(A, stack(C, F)).size == cactus_size(A, C).size


# ---------------------------------------------------------------------------
# reference sensor placement: the earlier min_sensors_iterative, which appends
# the functional-support row while the cactus gap of (A, [C; F]) over (A, C)
# is at least 1, re-solving both cacti for every candidate row count


def reference_min_sensors_iterative(A: Pattern, F: Pattern) -> SensorPlacement:
    x_f = functional_states(F)
    n = A.rows
    eta = Pattern(1, n, frozenset((1, i) for i in sorted(x_f)))
    c = Pattern(0, n, frozenset())
    for _ in range(len(x_f) + 1):
        if cactus_size(A, stack(c, F)).size - cactus_size(A, c).size < 1:
            break
        c = stack(c, eta)
    else:
        raise AssertionError("row appending failed to converge")
    optimal = len(x_f) == n or is_generically_diagonalizable(A).verdict
    return SensorPlacement(c, c.rows, "alg2", frozenset(), frozenset(), optimal)


# ---------------------------------------------------------------------------
# reference diagonalizable-case sensor placement: the earlier min_sensors_diag,
# whose minimize_links drops the round-robin entries one at a time in
# ascending state order, re-running a whole-graph backward search for each


def reference_min_sensors_diag(A: Pattern, F: Pattern, minimize_links: bool = False) -> SensorPlacement:
    x_s, x_f_u = _matched_split(A, functional_states(F))
    rows = max(1, len(x_f_u))
    entries: set[tuple[int, int]] = set()
    for k, state in enumerate(sorted(x_f_u)):
        entries.add((k + 1, state))
    shared = {}
    for idx, state in enumerate(sorted(x_s)):
        row = (idx % rows) + 1
        entries.add((row, state))
        shared[state] = row
    if minimize_links and x_s:
        entries = _drop_redundant_links(A, entries, shared, x_s)
    return SensorPlacement(Pattern(rows, A.rows, frozenset(entries)), rows, "alg1", x_f_u, x_s, True)


def _drop_redundant_links(
    A: Pattern, entries: set[tuple[int, int]], shared: dict[int, int], x_s: frozenset[int]
) -> set[tuple[int, int]]:
    kept = set(entries)
    for state in sorted(x_s):
        candidate = kept - {(shared[state], state)}
        if x_s <= reachable(A, {j for _, j in candidate}, "backward"):
            kept = candidate
    return kept


# ---------------------------------------------------------------------------
# reference cactus bigraph: the earlier (n+p)x(n+p) cactus_bigraph, whose
# output right vertices each take a loop and the zero-cost return edges
# y_j -> x_i to every state, all listed one by one


def reference_cactus_bigraph(A: Pattern, C: Pattern) -> tuple[Bigraph, int]:
    n, p = A.rows, C.rows
    q = p
    w = output_reachable_states(A, C)
    edges: list[tuple[int, int, int]] = []
    for i, j in A.sorted_nonzeros():  # A[i,j] != 0 <=> state edge x_j -> x_i
        edges.append((j, i, q + 1 if i in w else 0))
    for i, j in C.sorted_nonzeros():  # C[i,j] != 0 <=> output edge x_j -> y_i
        edges.append((j, n + i, q))
    present = {(r, l) for r, l, _ in edges}
    for v in range(1, n + p + 1):
        if (v, v) not in present:
            edges.append((v, v, 0))
    for j in range(1, p + 1):  # return edges close stems into matching cycles
        for i in range(1, n + 1):
            edges.append((n + j, i, 0))
    return Bigraph(n + p, n + p, tuple(edges)), q


# ---------------------------------------------------------------------------
# reference unit-row pricing: the earlier size-only cactus of (A, [C; 0]),
# whose empty output row y' is the origin of the residual search


def reference_cactus_count(A: Pattern, C: Pattern) -> tuple[int, FlowNetwork, Flow]:
    """Size of a maximum cactus of (A, C), with the optimal flow and the
    network it solves, without the stem count."""
    g, _ = cactus_bigraph(A, C)
    net = matching_network(g, "count")
    flow = min_cost_max_flow(net)
    return g.right - flow.cost, net, flow


@dataclass(frozen=True, slots=True)
class ReferenceSpareRowCactus:
    """A maximum cactus of (A, [C; 0]), solved once so that putting any unit
    row e_i in place of the empty row y' is priced by one search."""

    size: int
    reachable: frozenset[int]
    network: FlowNetwork
    flow: Flow

    def raising_states(self, states: Iterable[int]) -> frozenset[int]:
        wanted = frozenset(states)
        reached = wanted & self.reachable
        if not reached:
            return wanted
        # y' is the last left vertex, the node before the sink; node i of the
        # matching network is the right vertex x_i
        dist = residual_distances(self.network, self.flow, self.network.sink - 1)
        return (wanted - reached) | {i for i in reached if dist[i] is not None and dist[i] < 0}


def reference_spare_row_cactus(A: Pattern, C: Pattern) -> ReferenceSpareRowCactus:
    n = check_shapes(A, C=C)
    size, net, flow = reference_cactus_count(A, stack(C, Pattern(1, n)))
    return ReferenceSpareRowCactus(size, output_reachable_states(A, C), net, flow)


# ---------------------------------------------------------------------------
# reference linking network: the earlier two-layer network that splits every
# vertex (u, x^2, x^1 and y) into an in/out pair, with its offset decode


def reference_linking_network(
    A_r: Pattern, B: Pattern, C: Pattern, input_cost: int = 0
) -> FlowNetwork:
    n, m, p = A_r.rows, B.cols, C.rows

    def u_in(i: int) -> int:
        return 1 + 2 * (i - 1)

    def x2_in(i: int) -> int:
        return 1 + 2 * m + 2 * (i - 1)

    def x1_in(i: int) -> int:
        return 1 + 2 * (m + n) + 2 * (i - 1)

    def y_in(i: int) -> int:
        return 1 + 2 * (m + 2 * n) + 2 * (i - 1)

    sink = 1 + 2 * (m + 2 * n + p)
    # m + n source arcs, m + 2n + p split arcs, the B, A_r and C arcs in
    # sorted-nonzero order, p sink arcs
    arcs: list[tuple[int, int, int, int]] = []
    for i in range(1, m + 1):
        arcs.append((0, u_in(i), 1, 0))
    for i in range(1, n + 1):
        arcs.append((0, x2_in(i), 1, 0))
    for base, count in ((u_in, m), (x2_in, n), (x1_in, n), (y_in, p)):
        for i in range(1, count + 1):
            arcs.append((base(i), base(i) + 1, 1, 0))
    for j, i in B.sorted_nonzeros():  # u_i -> x_j^1
        arcs.append((u_in(i) + 1, x1_in(j), 1, input_cost))
    for j, i in A_r.sorted_nonzeros():  # x_i^2 -> x_j^1
        arcs.append((x2_in(i) + 1, x1_in(j), 1, 0))
    for j, i in C.sorted_nonzeros():  # x_i^1 -> y_j
        arcs.append((x1_in(i) + 1, y_in(j), 1, 0))
    for j in range(1, p + 1):
        arcs.append((y_in(j) + 1, sink, 1, 0))
    return FlowNetwork(sink + 1, tuple(arcs), 0, sink)


def reference_max_linking(
    A_r: Pattern, B: Pattern, C: Pattern, input_cost: int = 0
) -> tuple[Linking, Flow]:
    """The linking decoded from the all-split network by arc offsets, and
    that network's optimal flow."""
    flow = min_cost_max_flow(reference_linking_network(A_r, B, C, input_cost))
    n, m, p = A_r.rows, B.cols, C.rows
    k = (m + n) + (m + 2 * n + p)
    layers = []
    for M in (B, A_r, C):
        entries = M.sorted_nonzeros()
        used = flow.arc_flow[k : k + len(entries)]
        layers.append(tuple((i, j) for (j, i), f in zip(entries, used) if f))
        k += len(entries)
    return Linking(*layers), flow


def bench_gen():
    """The benchmark's seeded instance generators (``bench/gen.py``), loaded
    from their file without putting ``bench/`` on the import path."""
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH_GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_family_networks() -> Iterator[tuple[str, FlowNetwork]]:
    """Every flow network the 200 benchmark systems (``verdicts_family()``
    then ``placement_family()``) build, with its kind: the diag network, the
    cactus of (A, [C; F]), the base cactus of (A, C), the input cactus, each
    of these three also in the size-only ``count`` sense, the
    matched-split network of F's states, and the linking networks of SOC
    (input cost 0) and actuator placement (input cost 1). Networks are made
    one at a time, so none is held."""
    gen = bench_gen()
    for doc in gen.verdicts_family() + gen.placement_family():
        sys_pat = parse_system(doc)
        n, A, B, C, F = sys_pat.n, sys_pat.A, sys_pat.B, sys_pat.C, sys_pat.F
        yield "diag", matching_network(loop_augmented_bigraph(A), "minimize")
        for kind, g in (
            ("cactus", cactus_bigraph(A, stack(C, F))[0]),
            ("base cactus", cactus_bigraph(A, C)[0]),
            ("input cactus", cactus_bigraph(A.transpose(), B.transpose())[0]),
        ):
            yield kind, matching_network(g, "maximize")
            yield f"{kind} count", matching_network(g, "count")
        x_f = F.column_support()
        split = tuple((j, i, 1 if j in x_f else 0) for i, j in A.sorted_nonzeros())
        yield "split", matching_network(Bigraph(n, n, split), "minimize")
        yield "linking 0", linking_network(input_reachable_restriction(A, B)[1], B, C, 0)
        yield "linking 1", linking_network(A, identity_pattern(n), C, 1)


# ---------------------------------------------------------------------------
# reference pattern algebra: the earlier operations on a frozenset of
# (row, col) entries, which the flat-tuple ones must match


def reference_sorted_nonzeros(P: Pattern) -> list[tuple[int, int]]:
    return sorted(P.nonzeros)


def reference_column_support(P: Pattern) -> frozenset[int]:
    return frozenset(j for _, j in P.nonzeros)


def reference_transpose(P: Pattern) -> Pattern:
    return Pattern(P.cols, P.rows, frozenset((j, i) for i, j in P.nonzeros))


def reference_induced(P: Pattern, states: Iterable[int]) -> Pattern:
    if not P.is_square:
        raise ValueError("induced subpattern requires a square pattern")
    keep = sorted(set(states))
    for s in keep:
        if not 1 <= s <= P.rows:
            raise ValueError(f"state index {s} out of range 1..{P.rows}")
    pos = {s: k + 1 for k, s in enumerate(keep)}
    sub = frozenset((pos[i], pos[j]) for i, j in P.nonzeros if i in pos and j in pos)
    return Pattern(len(keep), len(keep), sub)


def reference_zeroed(P: Pattern, rows: Iterable[int] = (), cols: Iterable[int] = ()) -> Pattern:
    rkill, ckill = set(rows), set(cols)
    return Pattern(
        P.rows,
        P.cols,
        frozenset((i, j) for i, j in P.nonzeros if i not in rkill and j not in ckill),
    )


def reference_stack(top: Pattern, bottom: Pattern) -> Pattern:
    if top.cols != bottom.cols:
        raise ValueError(f"cannot stack {top.cols}-column over {bottom.cols}-column pattern")
    shifted = frozenset((i + top.rows, j) for i, j in bottom.nonzeros)
    return Pattern(top.rows + bottom.rows, top.cols, top.nonzeros | shifted)


def reference_hstack(left: Pattern, right: Pattern) -> Pattern:
    if left.rows != right.rows:
        raise ValueError(f"cannot place {right.rows}-row beside {left.rows}-row pattern")
    shifted = frozenset((i, j + left.cols) for i, j in right.nonzeros)
    return Pattern(left.rows, left.cols + right.cols, left.nonzeros | shifted)


# ---------------------------------------------------------------------------
# reference per-state rank test: the earlier is_sfo_diag and
# in_minimal_dilation, which compute one grank of [A; C; e_i] per state


def reference_in_minimal_dilation(A: Pattern, C: Pattern, i: int) -> bool:
    base = stack(A, C)
    return grank(stack(base, unit_row(A.cols, i))) > grank(base)


def reference_is_sfo_diag(A: Pattern, C: Pattern, F: Pattern, condition: str) -> SfoReport:
    if not is_generically_diagonalizable(A).verdict:
        raise PreconditionError("state pattern is not generically diagonalizable")
    method = {"b": "diag-rank", "c": "diag-per-state", "d": "diag-dilation"}[condition]
    x_f = functional_states(F)
    base = stack(A, C)
    gr_ac = grank(base)
    gr_acf = grank(stack(base, F))
    if not x_f:
        return SfoReport(True, method, x_f, frozenset(), gr_ac, gr_acf, frozenset())
    w = output_reachable_states(A, C)
    unreachable = x_f - w
    rank_holds = not unreachable and gr_ac == gr_acf
    failing: frozenset[int] = frozenset()
    if condition != "b" or not rank_holds:
        failing = frozenset(
            i for i in x_f if grank(stack(base, unit_row(A.cols, i))) > gr_ac
        )
    verdict = rank_holds if condition == "b" else not unreachable and not failing
    return SfoReport(verdict, method, x_f, unreachable, gr_ac, gr_acf, failing)


# ---------------------------------------------------------------------------
# reference matching search: the earlier max_matching, one depth-first
# augmenting-path search per right vertex the greedy pass left free, and the
# earlier rank_raising_columns, a second alternating search over its matching


def reference_max_matching(g: Bigraph) -> Matching:
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
    match_l = [0] * (g.left + 1)  # 0 marks a free vertex
    match_r = [0] * len(adj)
    for r in range(1, len(adj)):
        for l in adj[r]:
            if not match_l[l]:
                match_l[l], match_r[r] = r, l
                break
    seen = [0] * (g.left + 1)  # holds the root of the last search to visit
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
    return Matching.from_mates(match_r)


def reference_rank_raising_columns(M: Pattern) -> tuple[int, frozenset[int]]:
    """``grank(M)``, and the columns i for which appending the unit row e_i
    below M raises it.

    That happens exactly when some maximum matching leaves column i
    unmatched (Dulmage & Mendelsohn 1958): column i is unmatched in the one
    maximum matching found, or an alternating path reaches it from such a
    column, going column -> row by any entry and row -> its matched column.
    One matching and one search answer every column.
    """
    matching = reference_max_matching(pattern_bigraph(M))
    mate = [0] * (M.rows + 1)  # the column matched to each row, 0 if none
    for col, row in zip(matching.flat[::2], matching.flat[1::2]):
        mate[row] = col
    rows_of: list[list[int]] = [[] for _ in range(M.cols + 1)]
    for i, j in M.sorted_nonzeros():
        rows_of[j].append(i)
    matched = matching.right_matched()
    frontier = [j for j in range(1, M.cols + 1) if j not in matched]
    marked = set(frontier)
    while frontier:
        for row in rows_of[frontier.pop()]:
            # every row next to a marked column is matched, or the matching
            # would have an augmenting path
            col = mate[row]
            if col not in marked:
                marked.add(col)
                frontier.append(col)
    return matching.size, frozenset(marked)


# ---------------------------------------------------------------------------
# reference system-file parse: the per-entry loop that the C-level checks of
# structsys.cli.parse_system stand in for on well-formed arrays


def reference_parse_system(doc: Any) -> SystemPattern:
    if not isinstance(doc, dict):
        raise SystemFileError("top-level value must be an object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise SystemFileError(f"unknown key {key!r}")
    for key in _TOP_KEYS:
        if key not in doc:
            raise SystemFileError(f"missing key {key!r}")
    dims = {}
    for key in ("n", "m", "p", "r"):
        value = doc[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise SystemFileError(f"field {key!r} must be a non-negative integer")
        if value > MAX_DIMENSION:
            raise SystemFileError(f"field {key!r} must be at most {MAX_DIMENSION}")
        dims[key] = value
    if dims["n"] < 1:
        raise SystemFileError("field 'n' must be at least 1")

    def entries(key: str, rows: int, cols: int) -> frozenset[tuple[int, int]]:
        raw = doc[key]
        if not isinstance(raw, list):
            raise SystemFileError(f"field {key!r} must be an array of [row, col] pairs")
        out = set()
        for item in raw:
            if (
                not isinstance(item, list)
                or len(item) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)
            ):
                raise SystemFileError(f"field {key!r} holds a malformed entry {item!r}")
            i, j = item
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise SystemFileError(
                    f"field {key!r} entry [{i}, {j}] outside a {rows}x{cols} pattern"
                )
            out.add((i, j))
        return frozenset(out)

    def expect_empty(key: str) -> None:
        value = doc[key]
        if not isinstance(value, list) or value:
            raise SystemFileError(f"field {key!r} must be an empty array when its dimension is 0")
        return None

    n, m, p, r = dims["n"], dims["m"], dims["p"], dims["r"]
    a = Pattern(n, n, entries("A", n, n))
    b = Pattern(n, m, entries("B", n, m)) if m else expect_empty("B")
    c = Pattern(p, n, entries("C", p, n)) if p else expect_empty("C")
    f = Pattern(r, n, entries("F", r, n)) if r else expect_empty("F")
    return SystemPattern(A=a, B=b, C=c, F=f)
