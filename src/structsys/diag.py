"""Generic diagonalizability of square sparsity patterns.

A square pattern is generically diagonalizable when almost every numeric
realization is diagonalizable. The decision reduces to one comparison:
the generic rank must equal the largest vertex-disjoint cycle cover. The
weighted-matching certificate also exposes the witnessing cycle family.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import index
from typing import Iterable

from .combinat import extremal_weight_max_matching, scc
from .core import Bigraph, Matching, Pattern, _diagonal, check_shapes
from .grank import grank


def loop_augmented_bigraph(A: Pattern) -> Bigraph:
    """Bipartite graph of a square pattern plus a cost-1 loop on every state
    whose diagonal entry is zero; real edges keep cost 0.

    The identity is always a perfect matching here, and the minimum weight of
    a maximum matching counts how many synthetic loops are unavoidable;
    :func:`certificate_components` drops those loops again.
    """
    n, flat = check_shapes(A), A.flat
    edges = list(zip(flat[1::2], flat[::2], repeat(0)))
    diagonal = _diagonal(flat)
    edges += [(i, i, 1) for i in range(1, n + 1) if i not in diagonal]
    # one edge per entry and one loop per missing diagonal entry, all in range
    return Bigraph._from_sorted(n, n, tuple(sorted(edges)))


@dataclass(frozen=True, slots=True)
class DiagReport:
    """Verdict plus the quantities and certificate behind it.

    ``certificate`` is a minimum-weight maximum matching of the loop-augmented
    bigraph; its real (non-synthetic-loop) edges form the maximal disjoint
    cycle family.
    """

    verdict: bool
    grank_A: int
    v_A: int
    mwmm_weight: int
    certificate: Matching


def is_generically_diagonalizable(A: Pattern) -> DiagReport:
    """Decide generic diagonalizability of a square pattern.

    The verdict holds exactly when the generic rank equals the cycle-cover
    maximum, equivalently when the minimum weight of a maximum matching of
    the loop-augmented bigraph equals n minus the generic rank.

    The report is kept in ``A``'s memo, so a later call on the same pattern
    object returns it without solving again.
    """
    def solve() -> DiagReport:
        n = check_shapes(A)
        g = loop_augmented_bigraph(A)
        cert, weight = extremal_weight_max_matching(g, "minimize")
        v = n - weight
        gr = grank(A)
        return DiagReport(
            verdict=gr == v,
            grank_A=gr,
            v_A=v,
            mwmm_weight=weight,
            certificate=cert,
        )

    return A._recall("diag", None, solve)


def cycle_cover_max(A: Pattern) -> int:
    """Largest number of state vertices covered by vertex-disjoint cycles."""
    return is_generically_diagonalizable(A).v_A


def certificate_components(
    A: Pattern, certificate: Matching
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Decode a certificate into its cycle and path components.

    Synthetic loops (matching edges (i, i) with a zero diagonal entry) are
    dropped; the remaining real edges form a functional subgraph whose
    components are cycles and simple paths. Paths of nonzero length certify
    non-diagonalizability. Returns (cycles, paths) as vertex tuples; isolated
    vertices are omitted.
    """
    succ: dict[int, int] = {}
    diagonal = _diagonal(A.flat)
    for r, l in certificate.edges:
        if r == l and r not in diagonal:
            continue  # synthetic loop
        succ[r] = l
    preds = set(succ.values())
    cycles: list[tuple[int, ...]] = []
    paths: list[tuple[int, ...]] = []
    visited: set[int] = set()
    for start in sorted(succ):
        if start in visited or start in preds:
            continue
        chain = [start]
        visited.add(start)
        node = start
        while node in succ:
            node = succ[node]
            chain.append(node)
            visited.add(node)
        paths.append(tuple(chain))
    for start in sorted(succ):
        if start in visited:
            continue
        cyc = [start]
        visited.add(start)
        node = succ[start]
        while node != start:
            cyc.append(node)
            visited.add(node)
            node = succ[node]
        cycles.append(tuple(cyc))
    return cycles, paths


def scc_induced_diagonalizable(A: Pattern, scc_subset: Iterable[int]) -> bool:
    """Verdict on the subpattern induced by a union of strongly connected
    components of the state graph.

    ``scc_subset`` holds 0-based indices into the component list returned by
    :func:`structsys.combinat.scc` on ``A``. The empty union is
    diagonalizable.
    """
    comps = scc(A)
    indices = map(index, scc_subset)  # a non-iterable raises TypeError here
    try:
        chosen = sorted(set(indices))
    except TypeError as exc:
        raise ValueError(f"component indices must be integers: {exc}") from None
    for k in chosen:
        if not 0 <= k < len(comps):
            raise ValueError(f"component index {k} out of range 0..{len(comps) - 1}")
    states: set[int] = set()
    for k in chosen:
        states |= comps[k]
    if not states:
        return True
    return is_generically_diagonalizable(A.induced(states)).verdict
