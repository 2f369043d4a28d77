"""Generic diagonalizability of square sparsity patterns.

A square pattern is generically diagonalizable when almost every numeric
realization is diagonalizable. The decision reduces to one comparison:
the generic rank must equal the largest vertex-disjoint cycle cover. The
weighted-matching certificate also exposes the witnessing cycle family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .combinat import extremal_weight_max_matching, scc
from .core import Matching, Pattern, state_digraph
from .grank import grank, loop_augmented_bigraph


@dataclass(frozen=True)
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
    """
    if not A.is_square:
        raise ValueError(f"square pattern required, got {A.rows}x{A.cols}")
    n = A.rows
    g = loop_augmented_bigraph(A)
    cert = extremal_weight_max_matching(g, "minimize")
    weight = g.weight(cert)
    v = n - weight
    gr = grank(A)
    return DiagReport(
        verdict=gr == v,
        grank_A=gr,
        v_A=v,
        mwmm_weight=weight,
        certificate=cert,
    )


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
    for r, l in certificate.edges:
        if r == l and (r, r) not in A.nonzeros:
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
    :func:`structsys.combinat.scc` on the state graph. The empty union is
    diagonalizable.
    """
    if not A.is_square:
        raise ValueError(f"square pattern required, got {A.rows}x{A.cols}")
    comps = scc(state_digraph(A))
    chosen = sorted(set(scc_subset))
    for k in chosen:
        if not 0 <= k < len(comps):
            raise ValueError(f"component index {k} out of range 0..{len(comps) - 1}")
    states: set[int] = set()
    for k in chosen:
        states.update(i for _, i in comps[k])
    if not states:
        return True
    return is_generically_diagonalizable(A.induced(states)).verdict
