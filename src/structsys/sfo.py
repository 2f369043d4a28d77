"""Structural functional observability.

A triple of patterns (A, C, F) is structurally functionally observable (SFO)
when almost every numeric realization admits a functional observer for the
functional z = Fx. The general decision compares maximum cactus sizes with
and without the functional rows appended; for generically diagonalizable
state patterns three simpler rank and graph criteria apply and must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

from .core import Pattern, PreconditionError, check_shapes, shares_empty_sets, stack
from .diag import is_generically_diagonalizable
from .grank import (
    cactus_size,
    grank,
    output_reachable_states,
    rank_raising_columns,
    spare_row_cactus,
)

Condition = Literal["b", "c", "d"]


@dataclass(frozen=True, slots=True)
@shares_empty_sets
class SfoReport:
    """Verdict with the quantities the chosen method compared.

    For the general method ``d_AC``/``d_ACF`` are the cactus sizes without
    and with the functional rows; for the diagonalizable-case methods they
    are the generic ranks of the stacked patterns. ``failing_states`` lists
    the functional states whose dedicated-sensor test fails; it is empty
    whenever the verdict is true.
    """

    verdict: bool
    method: str
    functional_states: frozenset[int]
    unreachable_functional_states: frozenset[int]
    d_AC: int
    d_ACF: int
    failing_states: frozenset[int]


def functional_states(F: Pattern) -> frozenset[int]:
    """States carrying a nonzero column of the functional pattern."""
    return F.column_support()


def sfo_feasible(A: Pattern, C: Pattern, F: Pattern) -> bool:
    """Bare SFO verdict, skipping the per-state diagnosis of :func:`is_sfo`.

    Appending F keeps the cactus size of (A, C) exactly when no unit row e_i
    on a functional state i raises it: the row space of the observability
    matrix of (A, C) is A-invariant, and a generic row supported on a set S
    of states lies in it only when every e_i with i in S does. So one solve
    of the cactus of [C; 0] and one residual search
    (:meth:`structsys.grank.SpareRowCactus.raising_states`) decide it, and
    no solve runs when some functional state is output-unreachable.
    """
    check_shapes(A, C=C, F=F)
    x_f = functional_states(F)
    if not x_f:
        return True
    if x_f - output_reachable_states(A, C):
        return False
    return not spare_row_cactus(A, C).raising_states(x_f)


def is_sfo(A: Pattern, C: Pattern, F: Pattern) -> SfoReport:
    """General SFO decision via cactus sizes.

    True exactly when the functional states are all output-reachable and
    appending the functional rows leaves the maximum cactus size unchanged.
    An empty functional set is vacuously observable. When the verdict is
    false, ``failing_states`` holds the functional states whose own unit row
    raises the cactus size; one residual search of the solved cactus of
    [C; 0] finds them all (:class:`structsys.grank.SpareRowCactus`), so the
    call costs two cactus solves however many functional states there are.
    """
    check_shapes(A, C=C, F=F)
    x_f = functional_states(F)
    if not x_f:
        d_ac = cactus_size(A, C).size
        return SfoReport(True, "general-cactus", x_f, frozenset(), d_ac, d_ac, frozenset())
    base = spare_row_cactus(A, C)
    unreachable = x_f - base.reachable
    d_acf = cactus_size(A, stack(C, F)).size
    verdict = not unreachable and base.size == d_acf
    failing = frozenset() if verdict else base.raising_states(x_f)
    return SfoReport(verdict, "general-cactus", x_f, unreachable, base.size, d_acf, failing)


def in_minimal_dilation(A: Pattern, C: Pattern, i: int) -> bool:
    """Whether state i lies in a minimal dilation of the output graph.

    Decided by the equivalent rank test: appending a dedicated row on state i
    raises the generic rank of the stacked state/output pattern exactly when
    the state sits in some minimal dilation.
    """
    n = check_shapes(A, C=C)
    if not 1 <= i <= n:
        raise ValueError(f"state index {i} out of range 1..{n}")
    return i in rank_raising_columns(stack(A, C))[1]


def is_sfo_diag(A: Pattern, C: Pattern, F: Pattern, condition: Condition) -> SfoReport:
    """SFO decision for generically diagonalizable state patterns.

    ``condition`` picks the criterion: "b" compares the generic ranks of
    [A; C] and [A; C; F], "c" runs the rank test per functional state, and
    "d" tests minimal-dilation membership per functional state. All three
    agree with each other and with :func:`is_sfo` on diagonalizable inputs.
    One matching of [A; C] and one alternating search answer the per-state
    test for every state (:func:`structsys.grank.rank_raising_columns`).
    """
    check_shapes(A, C=C, F=F)
    if condition not in ("b", "c", "d"):
        raise ValueError(f"unknown condition {condition!r}")
    if not is_generically_diagonalizable(A).verdict:
        raise PreconditionError(
            "state pattern is not generically diagonalizable; "
            "the simplified criteria require that assumption (use is_sfo instead)"
        )
    method = {"b": "diag-rank", "c": "diag-per-state", "d": "diag-dilation"}[condition]
    x_f = functional_states(F)
    base = stack(A, C)
    gr_ac, raising = rank_raising_columns(base)
    gr_acf = grank(stack(base, F))
    if not x_f:
        return SfoReport(True, method, x_f, frozenset(), gr_ac, gr_acf, frozenset())
    w = output_reachable_states(A, C)
    unreachable = x_f - w
    rank_holds = not unreachable and gr_ac == gr_acf
    # the per-state rank test of c is also the minimal-dilation test of d
    # (see in_minimal_dilation) and b's diagnosis when its verdict is false
    failing: frozenset[int] = frozenset()
    if condition != "b" or not rank_holds:
        failing = x_f & raising
    verdict = rank_holds if condition == "b" else not unreachable and not failing
    return SfoReport(verdict, method, x_f, unreachable, gr_ac, gr_acf, failing)


def sfo_preserved_under_functional_edge_addition(
    A: Pattern,
    C: Pattern,
    F: Pattern,
    added_edges: Iterable[tuple[int, int]],
) -> bool:
    """SFO verdict after wiring functional states into existing sensors.

    Each added edge is a (state, output-row) pair; the state must be a
    functional state and the row must exist in C. Edges duplicating an
    existing entry are no-ops. Provided the original triple is SFO, the
    augmented triple stays SFO; this function recomputes the verdict rather
    than assuming it.
    """
    check_shapes(A, C=C, F=F)
    x_f = functional_states(F)
    entries = set(C.nonzeros)
    for state, row in added_edges:
        if state not in x_f:
            raise ValueError(
                f"added edge starts at x{state}, which is not a functional state"
            )
        if not 1 <= row <= C.rows:
            raise ValueError(f"output row {row} out of range 1..{C.rows}")
        entries.add((row, state))
    augmented = Pattern(C.rows, C.cols, frozenset(entries))
    return sfo_feasible(A, augmented, F)
