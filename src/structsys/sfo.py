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

from .core import Pattern, PreconditionError, stack, unit_row
from .diag import is_generically_diagonalizable
from .grank import cactus_size, grank, output_reachable_states

Condition = Literal["b", "c", "d"]


@dataclass(frozen=True)
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


def _check_triple(A: Pattern, C: Pattern, F: Pattern) -> None:
    if not A.is_square:
        raise ValueError(f"square state pattern required, got {A.rows}x{A.cols}")
    if C.cols != A.cols:
        raise ValueError(f"output pattern needs {A.cols} columns, got {C.cols}")
    if F.cols != A.cols:
        raise ValueError(f"functional pattern needs {A.cols} columns, got {F.cols}")


def sfo_feasible(A: Pattern, C: Pattern, F: Pattern) -> bool:
    """Bare SFO verdict, skipping the per-state diagnosis of :func:`is_sfo`."""
    _check_triple(A, C, F)
    x_f = functional_states(F)
    if not x_f:
        return True
    w = output_reachable_states(A, C)
    if x_f - w:
        return False
    return cactus_size(A, stack(C, F)).size == cactus_size(A, C).size


def is_sfo(A: Pattern, C: Pattern, F: Pattern) -> SfoReport:
    """General SFO decision via cactus sizes.

    True exactly when the functional states are all output-reachable and
    appending the functional rows leaves the maximum cactus size unchanged.
    An empty functional set is vacuously observable.
    """
    _check_triple(A, C, F)
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


def in_minimal_dilation(A: Pattern, C: Pattern, i: int) -> bool:
    """Whether state i lies in a minimal dilation of the output graph.

    Decided by the equivalent rank test: appending a dedicated row on state i
    raises the generic rank of the stacked state/output pattern exactly when
    the state sits in some minimal dilation.
    """
    if not A.is_square:
        raise ValueError(f"square state pattern required, got {A.rows}x{A.cols}")
    if C.cols != A.cols:
        raise ValueError(f"output pattern needs {A.cols} columns, got {C.cols}")
    if not 1 <= i <= A.rows:
        raise ValueError(f"state index {i} out of range 1..{A.rows}")
    base = stack(A, C)
    return grank(stack(base, unit_row(A.cols, i))) > grank(base)


def is_sfo_diag(A: Pattern, C: Pattern, F: Pattern, condition: Condition) -> SfoReport:
    """SFO decision for generically diagonalizable state patterns.

    ``condition`` picks the criterion: "b" compares the generic ranks of
    [A; C] and [A; C; F], "c" runs the rank test per functional state, and
    "d" tests minimal-dilation membership per functional state. All three
    agree with each other and with :func:`is_sfo` on diagonalizable inputs.
    """
    _check_triple(A, C, F)
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
    gr_ac = grank(base)
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
        failing = frozenset(
            i for i in x_f if grank(stack(base, unit_row(A.cols, i))) > gr_ac
        )
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
    _check_triple(A, C, F)
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
