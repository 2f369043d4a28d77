"""Generic-rank computations on sparsity patterns.

The generic rank of a pattern is the rank that almost every numeric
realization attains; it equals the maximum matching size of the pattern's
bipartite graph. The other quantities here are the graph-side counterparts
used by the observability and controllability analyses: the largest
vertex-disjoint cycle cover, the largest output cactus configuration, and
the largest vertex-disjoint linking through a two-layer product graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinat import (
    FlowNetwork,
    extremal_weight_max_matching,
    max_matching,
    min_cost_max_flow,
    reachable,
)
from .core import (
    Bigraph,
    Matching,
    Pattern,
    SystemPattern,
    pattern_bigraph,
    system_digraph,
)


def grank(M: Pattern) -> int:
    """Generic rank: size of a maximum matching of the pattern's bigraph."""
    return max_matching(pattern_bigraph(M)).size


def loop_augmented_bigraph(A: Pattern) -> Bigraph:
    """Bipartite graph of a square pattern plus a cost-1 loop on every state
    whose diagonal entry is zero; real edges keep cost 0.

    The identity is always a perfect matching here, and the minimum weight of
    a maximum matching counts how many synthetic loops are unavoidable.
    """
    if not A.is_square:
        raise ValueError(f"square pattern required, got {A.rows}x{A.cols}")
    edges = [(j, i, 0) for i, j in A.sorted_nonzeros()]
    edges += [(i, i, 1) for i in range(1, A.rows + 1) if (i, i) not in A.nonzeros]
    return Bigraph(A.rows, A.rows, tuple(edges))


def cycle_cover_max(A: Pattern) -> int:
    """Largest number of state vertices covered by vertex-disjoint cycles."""
    if not A.is_square:
        raise ValueError(f"square pattern required, got {A.rows}x{A.cols}")
    if A.rows == 0:
        return 0
    g = loop_augmented_bigraph(A)
    m = extremal_weight_max_matching(g, "minimize")
    return A.rows - g.weight(m)


@dataclass(frozen=True)
class CactusReport:
    """Size and shape of a maximum output cactus configuration.

    ``size`` counts the output-reachable state vertices covered by disjoint
    stems and cycles; ``stems`` counts the stems used; ``certificate`` is the
    perfect matching of the auxiliary bigraph that realizes the configuration.
    """

    size: int
    stems: int
    certificate: Matching


def output_reachable_states(A: Pattern, C: Pattern) -> frozenset[int]:
    """States with a directed path to some output."""
    sys = SystemPattern(A=A, C=C if C.rows else None)
    g = system_digraph(sys)
    seeds = [("y", j) for j in range(1, C.rows + 1)]
    hit = reachable(g, seeds, "backward") if seeds else frozenset()
    return frozenset(i for kind, i in hit if kind == "x")


def cactus_bigraph(A: Pattern, C: Pattern) -> tuple[Bigraph, int]:
    """Auxiliary weighted bigraph whose maximum-weight maximum matching
    encodes a maximum cactus configuration.

    Vertices 1..n are states and n+1..n+p outputs, mirrored on both parts.
    With q the number of outputs, state edges whose head is output-reachable
    cost q+1, output edges cost q, and the loops plus the dense output-to-
    state return edges cost 0. A configuration covering d states with s
    stems then weighs (q+1)d - s, and s never exceeds q, so the matching
    weight ranks configurations by covered states first and by fewer stems
    second.
    """
    if not A.is_square:
        raise ValueError(f"square pattern required, got {A.rows}x{A.cols}")
    if C.cols != A.cols:
        raise ValueError(f"output pattern needs {A.cols} columns, got {C.cols}")
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


def cactus_size(A: Pattern, C: Pattern) -> CactusReport:
    """Maximum number of output-reachable states covered by disjoint stems
    and cycles, with the stem count of the selected configuration."""
    g, q = cactus_bigraph(A, C)
    n = A.rows
    cert = extremal_weight_max_matching(g, "maximize")
    stems = sum(1 for r, l in cert.edges if r <= n < l)
    covered = stems + sum(
        1 for r, l in cert.edges if r <= n and l <= n and g.cost(r, l) == q + 1
    )
    return CactusReport(covered, stems, cert)


def input_cactus_size(A: Pattern, B: Pattern) -> int:
    """Maximum input cactus size, via transposition duality: input stems and
    cycles of (A, B) are output stems and cycles of (A^T, B^T)."""
    if B.rows != A.rows:
        raise ValueError(f"input pattern needs {A.rows} rows, got {B.rows}")
    return cactus_size(A.transpose(), B.transpose()).size


@dataclass(frozen=True)
class Linking:
    """The arcs a maximum vertex-disjoint linking of the two-layer graph uses.

    Arcs are (tail, head) index pairs in the network's arc order: ``inputs``
    u_i -> x_j^1, ``states`` x_i^2 -> x_j^1 and ``outputs`` x_i^1 -> y_j.
    Every linking path ends in exactly one output arc.
    """

    inputs: tuple[tuple[int, int], ...]
    states: tuple[tuple[int, int], ...]
    outputs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.outputs)


def linking_network(A_r: Pattern, B: Pattern, C: Pattern, input_cost: int = 0) -> FlowNetwork:
    """Unit-capacity node-split network whose max flow is the largest
    vertex-disjoint linking from the second layer (states and inputs) through
    the first state layer to the outputs.

    Input arcs cost ``input_cost`` and every other arc costs 0. With B the
    identity and cost 1 this is the actuator-placement network: a minimum
    cost maximum flow routes through the state dynamics wherever it can and
    feeds a state from its candidate input only where it must.
    """
    if not A_r.is_square:
        raise ValueError(f"square pattern required, got {A_r.rows}x{A_r.cols}")
    n = A_r.rows
    if B.rows != n:
        raise ValueError(f"input pattern needs {n} rows, got {B.rows}")
    if C.cols != n:
        raise ValueError(f"output pattern needs {n} columns, got {C.cols}")
    m, p = B.cols, C.rows

    # node ids: source, then in/out pairs for u_1..u_m, x^2, x^1, y
    def u_in(i: int) -> int:
        return 1 + 2 * (i - 1)

    def x2_in(i: int) -> int:
        return 1 + 2 * m + 2 * (i - 1)

    def x1_in(i: int) -> int:
        return 1 + 2 * (m + n) + 2 * (i - 1)

    def y_in(i: int) -> int:
        return 1 + 2 * (m + 2 * n) + 2 * (i - 1)

    sink = 1 + 2 * (m + 2 * n + p)
    # arc order, which max_linking decodes: m + n source arcs, m + 2n + p
    # split arcs, the B, A_r and C arcs in sorted-nonzero order, p sink arcs
    arcs: list[tuple[int, int, int, int]] = []
    for i in range(1, m + 1):
        arcs.append((0, u_in(i), 1, 0))
    for i in range(1, n + 1):
        arcs.append((0, x2_in(i), 1, 0))
    for base in (u_in, x2_in, x1_in, y_in):
        count = {u_in: m, x2_in: n, x1_in: n, y_in: p}[base]
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


def max_linking(A_r: Pattern, B: Pattern, C: Pattern, input_cost: int = 0) -> Linking:
    """A maximum vertex-disjoint linking, from a minimum-cost maximum flow of
    :func:`linking_network`; with ``input_cost`` 1 it uses the fewest input
    arcs among maximum linkings."""
    used = min_cost_max_flow(linking_network(A_r, B, C, input_cost)).arc_flow
    n, m, p = A_r.rows, B.cols, C.rows
    k = (m + n) + (m + 2 * n + p)
    layers = []
    for M in (B, A_r, C):
        entries = M.sorted_nonzeros()
        layers.append(tuple((i, j) for (j, i), f in zip(entries, used[k : k + len(entries)]) if f))
        k += len(entries)
    return Linking(*layers)


def linking_size(A_r: Pattern, B: Pattern, C: Pattern) -> int:
    """Largest vertex-disjoint linking; equals the generic rank of the
    product of the output pattern with [A_r, B]."""
    return min_cost_max_flow(linking_network(A_r, B, C)).value
