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

from .combinat import reachable
from .core import Pattern, PreconditionError, check_shapes, hstack, shares_empty_sets
from .grank import Linking, grank, input_cactus_size, max_linking


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
    """States with a directed path from some input: the descendants of the
    states that some input drives."""
    check_shapes(A, B)
    return reachable(A, B.flat[::2], "forward")


def input_reachable_restriction(A: Pattern, B: Pattern) -> tuple[frozenset[int], Pattern]:
    """The input-unreachable states, and A_r: a copy of A with their rows and
    columns zeroed."""
    n = check_shapes(A, B)
    dead = frozenset(range(1, n + 1)) - input_reachable_states(A, B)
    return dead, A.zeroed(rows=dead, cols=dead)


def is_soc(A: Pattern, B: Pattern, C: Pattern) -> SocReport:
    """Structural output controllability verdict with its rank certificates.

    Requires at least one output row. When the rank precondition fails and
    the exact criterion is therefore unavailable, the verdict is
    "undecidable" and both rank certificates are reported so a caller can
    fall back to a randomized numeric check.
    """
    check_shapes(A, B, C)
    p = C.rows
    if p == 0:
        raise PreconditionError("output pattern has no rows; nothing to control")
    dead, a_r = input_reachable_restriction(A, B)
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
