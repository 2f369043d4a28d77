"""Structural functional observability.

A triple of patterns (A, C, F) is structurally functionally observable (SFO)
when almost every numeric realization admits a functional observer for the
functional z = Fx. The general decision compares maximum cactus sizes with
and without the functional rows appended; for generically diagonalizable
state patterns three simpler rank and graph criteria apply and must agree.
Each is decided per state: appending F keeps the size (cactus size, or
generic rank of [A; C]) exactly when no unit row e_i on a functional state
i raises it. The generic row space of the observability matrix is
A-invariant, and a generic row on a set S of states lies in it only when
every e_i with i in S does (for the ranks, Dulmage & Mendelsohn 1958).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

from .core import Pattern, PreconditionError, check_shapes, check_states, shares_empty_sets, stack
from .diag import is_generically_diagonalizable
from .grank import cactus_count, grank, output_reachable_states, rank_raising_columns

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
    """Bare SFO verdict, skipping the report of :func:`is_sfo`: no solve when
    some functional state is output-unreachable, else one size-only cactus
    solve of (A, C) and one residual search from its sink
    (:meth:`structsys.grank.CactusCount.raising_states`).
    """
    check_shapes(A, C=C, F=F)
    x_f = functional_states(F)
    if not x_f:
        return True
    if x_f - output_reachable_states(A, C):
        return False
    return not cactus_count(A, C).raising_states(x_f)


def is_sfo(A: Pattern, C: Pattern, F: Pattern) -> SfoReport:
    """General SFO decision via cactus sizes.

    The ``failing_states`` are the functional states whose unit row raises
    the cactus size (output-unreachable ones always do), all found by one
    residual search from the sink of the size-only cactus of (A, C); the
    verdict is true when there are none. The size-only cactus of [C; F] is
    solved only to report ``d_ACF`` on a false verdict.
    """
    check_shapes(A, C=C, F=F)
    x_f = functional_states(F)
    base = cactus_count(A, C)
    # read before [C; F] replaces A's memo entry of C's read states
    unreachable = x_f - output_reachable_states(A, C)
    failing = base.raising_states(x_f)
    d_acf = cactus_count(A, stack(C, F)).size if failing else base.size
    return SfoReport(not failing, "general-cactus", x_f, unreachable, base.size, d_acf, failing)


def in_minimal_dilation(A: Pattern, C: Pattern, i: int) -> bool:
    """Whether state i lies in a minimal dilation of the output graph.

    Decided by the equivalent rank test: appending a dedicated row on state i
    raises the generic rank of the stacked state/output pattern exactly when
    the state sits in some minimal dilation.
    """
    check_states(check_shapes(A, C=C), [i])
    return i in rank_raising_columns(stack(A, C))[1]


def is_sfo_diag(A: Pattern, C: Pattern, F: Pattern, condition: Condition) -> SfoReport:
    """SFO decision for generically diagonalizable state patterns.

    ``condition`` picks the criterion: "b" compares the generic ranks of
    [A; C] and [A; C; F], "c" runs the rank test per functional state, and
    "d" tests minimal-dilation membership per functional state. The per-state
    test is the dilation test (:func:`in_minimal_dilation`) and fails on some
    functional state exactly when b's ranks differ, so all three give one
    report but for ``method``: one matching search of [A; C]
    (:func:`structsys.grank.rank_raising_columns`), plus a matching of
    [A; C; F] on a false verdict, kept in A's memo for the last (C, F).
    """
    check_shapes(A, C=C, F=F)
    if condition not in ("b", "c", "d"):
        raise ValueError(f"unknown condition {condition!r}")
    if not is_generically_diagonalizable(A).verdict:
        raise PreconditionError(
            "state pattern is not generically diagonalizable; "
            "the simplified criteria require that assumption (use is_sfo instead)"
        )

    def solve() -> tuple:
        x_f = functional_states(F)
        base = stack(A, C)
        gr_ac, raising = rank_raising_columns(base)
        failing = x_f & raising
        gr_acf = grank(stack(base, F)) if failing else gr_ac
        return x_f, x_f - output_reachable_states(A, C), gr_ac, gr_acf, failing

    x_f, unreachable, gr_ac, gr_acf, failing = A._recall("sfo", (C, F), solve)
    method = {"b": "diag-rank", "c": "diag-per-state", "d": "diag-dilation"}[condition]
    return SfoReport(not unreachable and not failing, method, x_f, unreachable, gr_ac, gr_acf, failing)


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
