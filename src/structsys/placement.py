"""Minimal sensor and actuator placement.

Sensor placement asks for the fewest output rows making a triple SFO; for
generically diagonalizable state patterns a weighted-matching construction
attains the closed-form optimum. For general patterns two constructions
(an iterative one and a direct weighted-matching one) deliver the same row
count, which is minimal among output patterns whose sensors touch only
functional states. Actuator placement asks for the fewest input columns
making a triple SOC; for generically diagonalizable patterns a min-cost
flow on the node-split two-layer graph attains the closed-form optimum.

Every free tie in the constructions is resolved deterministically:
round-robin row assignment, row 1, smallest state index, column 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinat import extremal_weight_max_matching, reachable, scc
from .core import (
    Bigraph,
    Pattern,
    PreconditionError,
    dedicated_rows,
    identity_pattern,
    stack,
    state_digraph,
)
from .diag import is_generically_diagonalizable
from .grank import cactus_size, grank, max_linking, output_reachable_states
from .sfo import functional_states


@dataclass(frozen=True)
class SensorPlacement:
    """An output pattern achieving SFO together with how it was built.

    ``X_F_unmatched`` and ``X_S`` partition the functional states for the
    weighted-matching method (empty for the other two). ``optimal`` records
    whether the row count is provably minimal rather than an upper bound.
    """

    C_out: Pattern
    p_star: int
    method: str  # "alg1" | "alg2" | "alg3"
    X_F_unmatched: frozenset[int]
    X_S: frozenset[int]
    optimal: bool


@dataclass(frozen=True)
class ActuatorPlacement:
    """An input pattern achieving SOC together with the flow-derived sets."""

    B_out: Pattern
    m_star: int
    X_f1: frozenset[int]
    X_f2: frozenset[int]
    scc_connections: tuple[tuple[int, int, int], ...]  # (scc id, state, column)


def _require_functional(A: Pattern, F: Pattern) -> frozenset[int]:
    if not A.is_square:
        raise ValueError(f"square state pattern required, got {A.rows}x{A.cols}")
    if F.cols != A.cols:
        raise ValueError(f"functional pattern needs {A.cols} columns, got {F.cols}")
    x_f = functional_states(F)
    if not x_f:
        raise PreconditionError("functional pattern has no nonzero column; nothing to estimate")
    return x_f


def min_sensors_diag(A: Pattern, F: Pattern, minimize_links: bool = False) -> SensorPlacement:
    """Provably minimal sensor placement for a generically diagonalizable
    state pattern.

    Costs 1 every state edge leaving a functional state, takes a
    minimum-weight maximum matching, gives each right-unmatched functional
    state a dedicated row, and wires the remaining functional states into
    those rows round-robin. With ``minimize_links`` the round-robin entries
    are greedily dropped while every one of those states stays
    output-reachable.
    """
    x_f = _require_functional(A, F)
    if not is_generically_diagonalizable(A).verdict:
        raise PreconditionError(
            "state pattern is not generically diagonalizable; "
            "use min_sensors_iterative or min_sensors_matching instead"
        )
    n = A.rows
    edges = tuple(
        (j, i, 1 if j in x_f else 0) for i, j in A.sorted_nonzeros()
    )
    matching = extremal_weight_max_matching(Bigraph(n, n, edges), "minimize")
    matched_right = matching.right_matched()
    x_s = frozenset(x_f & matched_right)
    x_f_u = frozenset(x_f - x_s)
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
        entries = _drop_redundant_links(A, n, rows, entries, shared, x_s)
    c_out = Pattern(rows, n, frozenset(entries))
    return SensorPlacement(
        C_out=c_out,
        p_star=rows,
        method="alg1",
        X_F_unmatched=x_f_u,
        X_S=x_s,
        optimal=True,
    )


def _drop_redundant_links(
    A: Pattern,
    n: int,
    rows: int,
    entries: set[tuple[int, int]],
    shared: dict[int, int],
    x_s: frozenset[int],
) -> set[tuple[int, int]]:
    kept = set(entries)
    for state in sorted(x_s):
        candidate = kept - {(shared[state], state)}
        c_try = Pattern(rows, n, frozenset(candidate))
        if x_s <= output_reachable_states(A, c_try):
            kept = candidate
    return kept


def min_sensors_iterative(A: Pattern, F: Pattern) -> SensorPlacement:
    """Feasible sensor placement for any state pattern by repeated row
    appending.

    Appends copies of the row supported exactly on the functional states
    while doing so still leaves a cactus-size gap to close. Minimal among
    output patterns whose sensors touch only functional states.
    """
    x_f = _require_functional(A, F)
    n = A.rows
    eta = Pattern(1, n, frozenset((1, i) for i in sorted(x_f)))
    c = Pattern(0, n, frozenset())
    for _ in range(len(x_f) + 1):
        if cactus_size(A, stack(c, F)).size - cactus_size(A, c).size < 1:
            break
        c = stack(c, eta)
    else:
        raise AssertionError("row appending failed to converge")
    return SensorPlacement(
        C_out=c,
        p_star=c.rows,
        method="alg2",
        X_F_unmatched=frozenset(),
        X_S=frozenset(),
        optimal=_general_case_optimal(A, x_f),
    )


def _general_case_optimal(A: Pattern, x_f: frozenset[int]) -> bool:
    # Provably minimal when the state pattern is generically diagonalizable
    # or when every state is functional (the sensor-support constraint is
    # vacuous then); otherwise only an upper bound is claimed.
    return len(x_f) == A.rows or is_generically_diagonalizable(A).verdict


def min_sensors_matching(A: Pattern, F: Pattern) -> SensorPlacement:
    """Feasible sensor placement for any state pattern, without iteration.

    Runs the maximum-weight matching behind the cactus computation on the
    dedicated-sensor graph of the functional states; the states matched into
    outputs receive dedicated rows, and any functional state that cannot
    reach one of them gets an extra entry in row 1. Same row count as
    :func:`min_sensors_iterative`.
    """
    x_f = _require_functional(A, F)
    n = A.rows
    i_xf = dedicated_rows(n, x_f)
    report = cactus_size(A, i_xf)
    x_h = sorted(r for r, l in report.certificate.edges if r <= n < l)
    rows = max(1, len(x_h))
    entries = {(k + 1, state) for k, state in enumerate(x_h)}
    g = state_digraph(A)
    anchors = set(x_h)
    for state in sorted(x_f - anchors):
        fwd = reachable(g, [("x", state)], "forward")
        if not anchors & {i for _, i in fwd}:
            entries.add((1, state))
    c_out = Pattern(rows, n, frozenset(entries))
    return SensorPlacement(
        C_out=c_out,
        p_star=rows,
        method="alg3",
        X_F_unmatched=frozenset(),
        X_S=frozenset(),
        optimal=_general_case_optimal(A, x_f),
    )


def min_actuators_diag(A: Pattern, C: Pattern) -> ActuatorPlacement:
    """Provably minimal actuator placement for a generically diagonalizable
    state pattern whose output pattern has full generic row rank.

    The states fed by their candidate input in the minimum-cost maximum flow
    get dedicated columns; every strongly connected component carrying flow
    in the second state layer additionally gets one entry (smallest state,
    column 1) so those flow paths start input-reachable.
    """
    if not A.is_square:
        raise ValueError(f"square state pattern required, got {A.rows}x{A.cols}")
    if C.cols != A.cols:
        raise ValueError(f"output pattern needs {A.cols} columns, got {C.cols}")
    n, p = A.rows, C.rows
    if p == 0:
        raise PreconditionError("output pattern has no rows; nothing to control")
    if not is_generically_diagonalizable(A).verdict:
        raise PreconditionError("state pattern is not generically diagonalizable")
    if grank(C) != p:
        raise PreconditionError(
            f"output pattern must have full generic row rank {p}, got {grank(C)}"
        )
    # one candidate input per state, each costing 1
    linking = max_linking(A, identity_pattern(n), C, input_cost=1)
    x_f1 = frozenset(j for _, j in linking.inputs)
    x_f2 = frozenset(i for i, _ in linking.states)
    m_star = max(1, len(x_f1))
    entries = {(state, k + 1) for k, state in enumerate(sorted(x_f1))}
    connections: list[tuple[int, int, int]] = []
    comps = scc(state_digraph(A))
    for comp_id, comp in enumerate(comps):
        states = {i for _, i in comp}
        if states & x_f2:
            chosen = min(states)
            entries.add((chosen, 1))
            connections.append((comp_id, chosen, 1))
    return ActuatorPlacement(
        B_out=Pattern(n, m_star, frozenset(entries)),
        m_star=m_star,
        X_f1=x_f1,
        X_f2=x_f2,
        scc_connections=tuple(connections),
    )
