"""Minimal sensor and actuator placement.

Sensor placement asks for the fewest output rows making a triple SFO; for
generically diagonalizable state patterns a weighted-matching construction
attains the closed-form optimum. For general patterns two constructions
(copies of the row on the functional states, and dedicated sensors from a
weighted matching) deliver the same row count, which is minimal among
output patterns whose sensors touch only functional states. Actuator
placement asks for the fewest input columns making a triple SOC; for
generically diagonalizable patterns a min-cost flow on the two-layer graph,
with a unit capacity on each first-layer state, attains the closed-form
optimum.

Every free tie in the constructions is resolved deterministically:
round-robin row assignment, row 1, smallest state index, column 1.

Each sensor placement makes a fixed number of flow solves, whatever its row
count. The matching of the diagonalizable-case construction and the
dedicated-sensor cactus are kept in the state pattern's memo for the
functional states last asked about, so both variants of the former share one
matching, and the two general constructions share one cactus solve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinat import extremal_weight_max_matching, reachable, scc
from .core import (
    Bigraph,
    Pattern,
    PreconditionError,
    check_shapes,
    dedicated_rows,
    identity_pattern,
    shares_empty_sets,
)
from .diag import is_generically_diagonalizable
from .grank import cactus_size, grank, max_linking
from .sfo import functional_states, sfo_feasible


@dataclass(frozen=True, slots=True)
@shares_empty_sets
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


@dataclass(frozen=True, slots=True)
@shares_empty_sets
class ActuatorPlacement:
    """An input pattern achieving SOC together with the flow-derived sets."""

    B_out: Pattern
    m_star: int
    X_f1: frozenset[int]
    X_f2: frozenset[int]
    scc_connections: tuple[tuple[int, int, int], ...]  # (scc id, state, column)


def _require_functional(A: Pattern, F: Pattern) -> frozenset[int]:
    check_shapes(A, F=F)
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
    those rows round-robin. With ``minimize_links`` a round-robin state keeps
    its entry only when it is the largest one in its strongly connected
    component, and that component holds no dedicated state and reaches no
    other state with an entry.
    """
    x_f = _require_functional(A, F)
    if not is_generically_diagonalizable(A).verdict:
        raise PreconditionError(
            "state pattern is not generically diagonalizable; "
            "use min_sensors_iterative or min_sensors_matching instead"
        )
    n = A.rows
    x_s, x_f_u = A._recall("split", x_f, lambda: _matched_split(A, x_f))
    rows = max(1, len(x_f_u))
    linked = _linked_shared_states(A, x_f_u, x_s) if minimize_links and x_s else x_s
    entries = {(k + 1, state) for k, state in enumerate(sorted(x_f_u))}
    entries |= {(idx % rows + 1, state) for idx, state in enumerate(sorted(x_s)) if state in linked}
    c_out = Pattern(rows, n, frozenset(entries))
    return SensorPlacement(
        C_out=c_out,
        p_star=rows,
        method="alg1",
        X_F_unmatched=x_f_u,
        X_S=x_s,
        optimal=True,
    )


def _matched_split(A: Pattern, x_f: frozenset[int]) -> tuple[frozenset[int], frozenset[int]]:
    """(X_S, X_F_unmatched): the functional states a minimum-weight maximum
    matching of A, costing 1 on every edge leaving a functional state,
    matches on the right, and the rest."""
    n = A.rows
    # one edge per entry of a square pattern, so only the sort is left
    edges = tuple(sorted((j, i, 1 if j in x_f else 0) for i, j in A.sorted_nonzeros()))
    matching, _ = extremal_weight_max_matching(Bigraph._from_sorted(n, n, edges), "minimize")
    x_s = x_f & matching.right_matched()
    return x_s, x_f - x_s


def _stem_states(A: Pattern, x_f: frozenset[int]) -> tuple[int, ...]:
    """The states, ascending, whose stems end in an output in the maximum
    cactus of A with one dedicated row per functional state. Kept in A's
    memo for the last x_f."""
    def stems() -> tuple[int, ...]:
        n = A.rows
        cert = cactus_size(A, dedicated_rows(n, x_f)).certificate.flat
        # the certificate lists its edges by ascending right vertex (state)
        return tuple(r for r, l in zip(cert[::2], cert[1::2]) if l > n)

    return A._recall("stems", x_f, stems)


def _linked_shared_states(A: Pattern, x_f_u: frozenset[int], x_s: frozenset[int]) -> frozenset[int]:
    """The states of X_S left with an entry when the entries are dropped one
    at a time in ascending order while X_S stays output-reachable: s keeps
    its entry exactly when it reaches no other state holding one, so when it
    is the largest of X_S in its component, which holds no dedicated state
    and has no edge out into an ancestor of a state with an entry."""
    comp = {state: k for k, states in enumerate(scc(A)) for state in states}
    anchored = reachable(A, x_f_u | x_s, "backward")
    # A[i, j] != 0 is the edge x_j -> x_i
    blocked = {comp[j] for i, j in A.sorted_nonzeros() if comp[i] != comp[j] and i in anchored}
    blocked.update(comp[state] for state in x_f_u)
    largest = {comp[state]: state for state in sorted(x_s)}
    return frozenset(state for k, state in largest.items() if k not in blocked)


def min_sensors_iterative(A: Pattern, F: Pattern) -> SensorPlacement:
    """Feasible sensor placement for any state pattern from copies of one
    row: the fewest copies of the row η supported exactly on the functional
    states that make the triple (A, C, F) SFO.

    SFO never breaks when rows are appended, so k copies are the fewest once
    η^k passes :func:`sfo_feasible` and η^(k-1) fails it. The candidate k is
    the row count of :func:`min_sensors_matching` (its stem count, at least
    1), read from the cactus solve the two share, and the two checks certify
    it, so the call makes at most three flow solves besides the
    diagonalizability solve, whatever k is. Minimal among output patterns
    whose sensors touch only functional states.
    """
    x_f = _require_functional(A, F)
    n = A.rows
    k = max(1, len(_stem_states(A, x_f)))
    eta = sorted(x_f)
    flat = tuple(v for row in range(1, k + 1) for i in eta for v in (row, i))
    if not sfo_feasible(A, Pattern._from_flat(k, n, flat), F):
        raise AssertionError(f"{k} copies of the functional row do not make the triple SFO")
    fewer = flat[: 2 * (k - 1) * len(eta)]
    if k > 1 and sfo_feasible(A, Pattern._from_flat(k - 1, n, fewer), F):
        raise AssertionError(f"{k - 1} copies of the functional row already make the triple SFO")
    return SensorPlacement(
        # a pattern of its own, so the result keeps no column set a probe cached
        C_out=Pattern._from_flat(k, n, flat),
        p_star=k,
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
    x_h = _stem_states(A, x_f)
    rows = max(1, len(x_h))
    entries = {(k + 1, state) for k, state in enumerate(x_h)}
    anchored = reachable(A, x_h, "backward")  # states with a path to some x_h state
    entries |= {(1, state) for state in x_f - anchored}
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
    n, p = check_shapes(A, C=C), C.rows
    if p == 0:
        raise PreconditionError("output pattern has no rows; nothing to control")
    if not is_generically_diagonalizable(A).verdict:
        raise PreconditionError("state pattern is not generically diagonalizable")
    rank = grank(C)
    if rank != p:
        raise PreconditionError(f"output pattern must have full generic row rank {p}, got {rank}")
    # one candidate input per state, each costing 1
    linking = max_linking(A, identity_pattern(n), C, input_cost=1)
    x_f1 = frozenset(j for _, j in linking.inputs)
    x_f2 = frozenset(i for i, _ in linking.states)
    m_star = max(1, len(x_f1))
    entries = {(state, k + 1) for k, state in enumerate(sorted(x_f1))}
    connections: list[tuple[int, int, int]] = []
    for comp_id, comp in enumerate(scc(A)):
        if comp & x_f2:
            chosen = min(comp)
            entries.add((chosen, 1))
            connections.append((comp_id, chosen, 1))
    return ActuatorPlacement(
        B_out=Pattern(n, m_star, frozenset(entries)),
        m_star=m_star,
        X_f1=x_f1,
        X_f2=x_f2,
        scc_connections=tuple(connections),
    )
