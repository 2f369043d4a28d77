"""Generic-rank computations on sparsity patterns.

The generic rank of a pattern is the rank that almost every numeric
realization attains; it equals the maximum matching size of the pattern's
bipartite graph. The other quantities here are the graph-side counterparts
used by the observability and controllability analyses: the largest output
cactus configuration and the largest vertex-disjoint linking through a
two-layer product graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .combinat import (
    Flow,
    FlowNetwork,
    extremal_weight_max_matching,
    hopcroft_karp,
    matching_network,
    max_matching,
    min_cost_max_flow,
    reachable,
    residual_distances,
)
from .core import (
    Bigraph,
    Entry,
    Matching,
    Pattern,
    _diagonal,
    _pairs,
    check_shapes,
    pattern_bigraph,
)


def grank(M: Pattern) -> int:
    """Generic rank: size of a maximum matching of the pattern's bigraph."""
    return max_matching(pattern_bigraph(M)).size


def rank_raising_columns(M: Pattern) -> tuple[int, frozenset[int]]:
    """``grank(M)``, and the columns i for which appending the unit row e_i
    below M raises it: those some maximum matching leaves unmatched, as
    :func:`structsys.combinat.hopcroft_karp` reports them."""
    matching, raising = hopcroft_karp(pattern_bigraph(M))
    return matching.size, raising


@dataclass(frozen=True, slots=True)
class CactusReport:
    """Size and shape of a maximum output cactus configuration.

    ``size`` counts the output-reachable state vertices covered by disjoint
    stems and cycles; ``stems`` counts the stems used; ``certificate`` is the
    matching of the auxiliary bigraph that realizes the configuration, one
    edge per state.
    """

    size: int
    stems: int
    certificate: Matching


def output_reachable_states(A: Pattern, C: Pattern) -> frozenset[int]:
    """States with a directed path to some output: the ancestors of the
    states that some output reads. Kept in A's memo for the last set of read
    states, which outputs of one support share (alg2's probes) and which
    is_sfo reads again after its solve."""
    check_shapes(A, C=C)
    read = tuple(sorted(C.column_support()))
    # held as tuples, at about a quarter of the size of two sets
    return frozenset(A._recall("reach", read, lambda: tuple(reachable(A, read, "backward"))))


def cactus_bigraph(A: Pattern, C: Pattern) -> tuple[Bigraph, int]:
    """Auxiliary weighted bigraph whose maximum-weight maximum matching
    encodes a maximum cactus configuration.

    The right vertices 1..n are the states; the left vertices are the
    states 1..n and then the outputs n+1..n+p. With q the number of
    outputs, state edges whose head is output-reachable cost q+1, output
    edges cost q, and a loop on each state without a diagonal entry costs
    0, so every maximum matching covers all n states. Each state is then
    matched to its successor in a cycle or stem, to an output where a stem
    ends, or to its own loop. A configuration covering d states with s
    stems weighs (q+1)d - s, and s never exceeds q, so the matching weight
    ranks configurations by covered states first and by fewer stems second.
    """
    n, p = check_shapes(A, C=C), C.rows
    q = p
    w = output_reachable_states(A, C)
    # A[i,j] != 0 <=> state edge x_j -> x_i; C[i,j] != 0 <=> output edge x_j -> y_i
    edges = [(j, i, q + 1 if i in w else 0) for i, j in _pairs(A.flat)]
    edges += [(j, n + i, q) for i, j in _pairs(C.flat)]
    diagonal = _diagonal(A.flat)
    edges += [(v, v, 0) for v in range(1, n + 1) if v not in diagonal]
    # one edge per entry and one loop per missing diagonal entry, all in range
    return Bigraph._from_sorted(n + p, n, tuple(sorted(edges))), q


def cactus_size(A: Pattern, C: Pattern) -> CactusReport:
    """Maximum number of output-reachable states covered by disjoint stems
    and cycles, with the stem count of the selected configuration."""
    g, q = cactus_bigraph(A, C)
    cert, weight = extremal_weight_max_matching(g, "maximize")
    # the matching weighs W = (q+1)d - s with 0 <= s <= q: d = ceil(W / (q+1))
    d = -(-weight // (q + 1))
    return CactusReport(d, (q + 1) * d - weight, cert)


@dataclass(frozen=True, slots=True)
class CactusCount:
    """Size of a maximum cactus of (A, C), with the optimal ``flow`` of the
    size-only ``network`` it was read from, but no stem count.

    The network is :func:`cactus_bigraph`'s in the ``count`` sense: an edge
    of positive cost (a covering state edge or an output edge) is an arc of
    cost 0, a loop or an edge into an output-unreachable head one of cost 1.
    Every maximum flow matches all n states and a configuration covering d
    states costs n - d, so the size is n less the optimal cost.
    """

    size: int
    network: FlowNetwork
    flow: Flow

    def raising_states(self, states: Iterable[int]) -> frozenset[int]:
        """The states i whose unit row e_i raises the cactus size of (A, C).

        An output-unreachable state always does: it becomes a one-state stem.
        Its arcs all cost 1, so its mate's sink arc and its matched arc,
        both reversed, give it a residual path of negative cost from the
        sink. For a reachable one, the networks of C and [C; e_i] differ by
        a new output y' alone: its arc to the sink and the cost-0 arc
        x_i -> y' close a cycle with the cheapest residual path from the
        sink to x_i. The optimum cost falls, and the size grows, exactly
        when that path's cost is negative. One residual search from the sink
        prices every state at once.
        """
        wanted = frozenset(states)
        if not wanted:
            return wanted
        # node i of the matching network is the right vertex x_i
        dist = residual_distances(self.network, self.flow, self.network.sink)
        return frozenset(i for i in wanted if dist[i] is not None and dist[i] < 0)


def cactus_count(A: Pattern, C: Pattern) -> CactusCount:
    """Solve the size-only cactus of (A, C) once and keep its optimal flow."""
    g, _ = cactus_bigraph(A, C)
    net = matching_network(g, "count")
    flow = min_cost_max_flow(net)
    return CactusCount(g.right - flow.cost, net, flow)


def input_cactus_size(A: Pattern, B: Pattern) -> int:
    """Maximum input cactus size, via transposition duality: input stems and
    cycles of (A, B) are output stems and cycles of (A^T, B^T). Only the
    size is solved for, not the stem count."""
    check_shapes(A, B)
    return cactus_count(A.transpose(), B.transpose()).size


@dataclass(frozen=True, slots=True, init=False)
class Linking:
    """The arcs a maximum vertex-disjoint linking of the two-layer graph uses.

    Arcs are (tail, head) index pairs in the network's arc order: ``inputs``
    u_i -> x_j^1, ``states`` x_i^2 -> x_j^1 and ``outputs`` x_i^1 -> y_j.
    Every linking path ends in exactly one output arc. Each layer is stored
    as one flat tuple ``tail1, head1, tail2, head2, ...``, so a held linking
    keeps no tuple per arc.
    """

    input_flat: tuple[int, ...]
    state_flat: tuple[int, ...]
    output_flat: tuple[int, ...]

    def __init__(
        self, inputs: Iterable[Entry], states: Iterable[Entry], outputs: Iterable[Entry]
    ) -> None:
        for name, arcs in (("input_flat", inputs), ("state_flat", states), ("output_flat", outputs)):
            pairs = tuple(arcs)
            if any(len(arc) != 2 for arc in pairs):
                raise ValueError("linking arcs must be (tail, head) pairs")
            object.__setattr__(self, name, tuple(v for arc in pairs for v in arc))

    @property
    def inputs(self) -> tuple[Entry, ...]:
        return tuple(_pairs(self.input_flat))

    @property
    def states(self) -> tuple[Entry, ...]:
        return tuple(_pairs(self.state_flat))

    @property
    def outputs(self) -> tuple[Entry, ...]:
        return tuple(_pairs(self.output_flat))

    @property
    def size(self) -> int:
        return len(self.output_flat) // 2


def linking_network(A_r: Pattern, B: Pattern, C: Pattern, input_cost: int = 0) -> FlowNetwork:
    """Unit-capacity network whose max flow is the largest vertex-disjoint
    linking from the second layer (states and inputs) through the first
    state layer to the outputs.

    Only x^1 is split into an in/out pair: u_i and x_i^2 have one in-arc (from
    the source) and y_j one out-arc (to the sink), each of capacity 1, so they
    carry at most one unit without a split. Nodes: source 0, u_i = i,
    x_i^2 = m + i, x_i^1 in at m + n - 1 + 2i and out at m + n + 2i,
    y_j = m + 3n + j, sink m + 3n + p + 1. Arcs, written as columns from the
    patterns' flat entries, in this order: the B, A_r and C arcs, each in
    sorted-nonzero order, so :func:`max_linking` reads their flow by
    position; then the m + n source, n x^1 split and p sink arcs.

    Input arcs cost ``input_cost`` and every other arc costs 0. With B the
    identity and cost 1 this is the actuator-placement network: a minimum
    cost maximum flow routes through the state dynamics wherever it can and
    feeds a state from its candidate input only where it must.
    """
    n, m, p = check_shapes(A_r, B, C), B.cols, C.rows
    x1 = m + n - 1  # x_i^1 enters at x1 + 2i and leaves at x1 + 2i + 1
    y = m + 3 * n
    sink = y + p + 1
    b, a, c = B.flat, A_r.flat, C.flat  # entry (j, i) at flat[2k], flat[2k + 1]
    tails = (*b[1::2], *[m + i for i in a[1::2]], *[x1 + 2 * i + 1 for i in c[1::2]])
    heads = (*[x1 + 2 * j for j in b[::2] + a[::2]], *[y + j for j in c[::2]])
    tails += (*(0,) * (m + n), *range(x1 + 2, y, 2), *range(y + 1, sink))
    heads += (*range(1, m + n + 1), *range(x1 + 3, y + 1, 2), *(sink,) * p)
    costs = (input_cost,) * (len(b) // 2) + (0,) * (len(tails) - len(b) // 2)
    return FlowNetwork._from_columns(sink + 1, (tails, heads, (1,) * len(tails), costs), 0, sink)


def max_linking(A_r: Pattern, B: Pattern, C: Pattern, input_cost: int = 0) -> Linking:
    """A maximum vertex-disjoint linking, from a minimum-cost maximum flow of
    :func:`linking_network`; with ``input_cost`` 1 it uses the fewest input
    arcs among maximum linkings."""
    used = iter(min_cost_max_flow(linking_network(A_r, B, C, input_cost)).arc_flow)
    # zip asks the entries first, so a layer ends without taking the next
    # layer's first flow value
    return Linking(
        *(tuple((i, j) for (j, i), f in zip(M.sorted_nonzeros(), used) if f) for M in (B, A_r, C))
    )


def linking_size(A_r: Pattern, B: Pattern, C: Pattern) -> int:
    """Largest vertex-disjoint linking; equals the generic rank of the
    product of the output pattern with [A_r, B]."""
    return max_linking(A_r, B, C).size
