"""Structural output controllability.

The decision is exact whenever the generic rank of [A_r, B] matches the
maximum input cactus size, where A_r zeroes out the rows and columns of
input-unreachable states; under that precondition the system is output
controllable for almost all realizations exactly when a vertex-disjoint
linking as large as the output count exists. The precondition always holds
when the state pattern is generically diagonalizable. Outside it the
structural question is open and the verdict is reported as undecidable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Pattern, PreconditionError, check_shapes, hstack, shares_empty_sets
from .grank import Linking, grank, input_cactus_size, max_linking, output_reachable_states


@dataclass(frozen=True, slots=True)
@shares_empty_sets
class SocReport:
    """Verdict with its rank certificates; ``certificate`` is the maximum
    linking of (A_r, B, C) whose size is ``linking``."""

    verdict: str  # "soc" | "not-soc" | "undecidable"
    precondition_holds: bool
    grank_ArB: int
    grank_QAB: int
    linking: int
    input_unreachable: frozenset[int]
    certificate: Linking


def input_reachable_states(A: Pattern, B: Pattern) -> frozenset[int]:
    """States with a directed path from some input: by transposition
    duality, the states of (A^T, B^T) with a path to some output."""
    return output_reachable_states(A.transpose(), B.transpose())


def input_reachable_restriction(A: Pattern, B: Pattern) -> Pattern:
    """Copy of A with the rows and columns of input-unreachable states zeroed."""
    n = check_shapes(A, B)
    dead = set(range(1, n + 1)) - input_reachable_states(A, B)
    return A.zeroed(rows=dead, cols=dead)


def is_soc(A: Pattern, B: Pattern, C: Pattern) -> SocReport:
    """Structural output controllability verdict with its rank certificates.

    Requires at least one output row. When the rank precondition fails and
    the exact criterion is therefore unavailable, the verdict is
    "undecidable" and both rank certificates are reported so a caller can
    fall back to a randomized numeric check.
    """
    n, p = check_shapes(A, B, C), C.rows
    if p == 0:
        raise PreconditionError("output pattern has no rows; nothing to control")
    dead = frozenset(range(1, n + 1)) - input_reachable_states(A, B)
    a_r = A.zeroed(rows=dead, cols=dead)
    gr_arb = grank(hstack(a_r, B))
    gr_qab = input_cactus_size(A, B)
    link = max_linking(a_r, B, C)
    precondition = gr_arb == gr_qab
    if precondition:
        verdict = "soc" if link.size == p else "not-soc"
    else:
        verdict = "undecidable"
    return SocReport(
        verdict=verdict,
        precondition_holds=precondition,
        grank_ArB=gr_arb,
        grank_QAB=gr_qab,
        linking=link.size,
        input_unreachable=dead,
        certificate=link,
    )
