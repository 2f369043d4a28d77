"""The system-shape contract: every entry point checks (A, B, C, F) through
``core.check_shapes`` and an absent matrix is a zero-dimension pattern."""

from __future__ import annotations

import pytest

from structsys import (
    Pattern,
    PreconditionError,
    SystemPattern,
    cycle_cover_max,
    in_minimal_dilation,
    input_cactus_size,
    input_reachable_restriction,
    is_generically_diagonalizable,
    is_sfo,
    is_sfo_diag,
    is_soc,
    min_actuators_diag,
    min_sensors_diag,
    min_sensors_iterative,
    min_sensors_matching,
    numeric_obs_rank,
    OracleConfig,
    scc_induced_diagonalizable,
    sfo_feasible,
    sfo_preserved_under_functional_edge_addition,
)
from structsys.cli import parse_system
from structsys.diag import loop_augmented_bigraph
from structsys.grank import cactus_bigraph, linking_network

N = 3

# each entry point with the matrices of (A, B, C, F) it takes
ENTRY_POINTS = {
    "SystemPattern": (lambda A, B, C, F: SystemPattern(A, B, C, F), "ABCF"),
    "loop_augmented_bigraph": (lambda A, B, C, F: loop_augmented_bigraph(A), "A"),
    "cycle_cover_max": (lambda A, B, C, F: cycle_cover_max(A), "A"),
    "cactus_bigraph": (lambda A, B, C, F: cactus_bigraph(A, C), "AC"),
    "input_cactus_size": (lambda A, B, C, F: input_cactus_size(A, B), "AB"),
    "linking_network": (lambda A, B, C, F: linking_network(A, B, C), "ABC"),
    "is_generically_diagonalizable": (lambda A, B, C, F: is_generically_diagonalizable(A), "A"),
    "scc_induced_diagonalizable": (lambda A, B, C, F: scc_induced_diagonalizable(A, [0]), "A"),
    "is_sfo": (lambda A, B, C, F: is_sfo(A, C, F), "ACF"),
    "sfo_feasible": (lambda A, B, C, F: sfo_feasible(A, C, F), "ACF"),
    "is_sfo_diag": (lambda A, B, C, F: is_sfo_diag(A, C, F, "b"), "ACF"),
    "sfo_preserved": (
        lambda A, B, C, F: sfo_preserved_under_functional_edge_addition(A, C, F, []),
        "ACF",
    ),
    "in_minimal_dilation": (lambda A, B, C, F: in_minimal_dilation(A, C, 1), "AC"),
    "input_reachable_restriction": (lambda A, B, C, F: input_reachable_restriction(A, B), "AB"),
    "is_soc": (lambda A, B, C, F: is_soc(A, B, C), "ABC"),
    "min_sensors_diag": (lambda A, B, C, F: min_sensors_diag(A, F), "AF"),
    "min_sensors_iterative": (lambda A, B, C, F: min_sensors_iterative(A, F), "AF"),
    "min_sensors_matching": (lambda A, B, C, F: min_sensors_matching(A, F), "AF"),
    "min_actuators_diag": (lambda A, B, C, F: min_actuators_diag(A, C), "AC"),
    "numeric_obs_rank": (lambda A, B, C, F: numeric_obs_rank(A, C, F, OracleConfig(trials=1)), "ACF"),
}

# one broken condition each; the other matrices keep their valid shapes
BROKEN = {
    "A": ("A", Pattern(N, N + 1), "A must be square, got 3x4"),
    "B": ("B", Pattern(N + 1, 1), "B must have 3 rows, got 4"),
    "C": ("C", Pattern(1, N + 1), "C must have 3 columns, got 4"),
    "F": ("F", Pattern(1, N + 1), "F must have 3 columns, got 4"),
}


def _valid() -> dict[str, Pattern]:
    # a single self-loop keeps every diagonalizable-only entry point past
    # its precondition, so only the shape can be what fails
    return {
        "A": Pattern(N, N, {(1, 1), (2, 2), (3, 3)}),
        "B": Pattern(N, 1, {(1, 1)}),
        "C": Pattern(1, N, {(1, 1)}),
        "F": Pattern(1, N, {(1, 2)}),
    }


@pytest.mark.parametrize(
    "entry, broken",
    [(e, m) for e, (_, used) in ENTRY_POINTS.items() for m in used],
)
def test_every_entry_point_raises_one_shape_error(entry, broken):
    call, _ = ENTRY_POINTS[entry]
    mats = _valid()
    call(**mats)  # the valid system passes
    key, bad, message = BROKEN[broken]
    mats[key] = bad
    with pytest.raises(ValueError) as info:
        call(**mats)
    assert not isinstance(info.value, PreconditionError)
    assert str(info.value) == message


def test_zero_state_shortcut_still_checks_the_shape():
    with pytest.raises(ValueError, match="A must be square, got 0x3"):
        cycle_cover_max(Pattern(0, 3))
    assert cycle_cover_max(Pattern(0, 0)) == 0


def test_absent_matrices_are_zero_dimension_patterns():
    a = Pattern(2, 2, {(1, 2)})
    explicit = SystemPattern(A=a, B=Pattern(2, 0), C=Pattern(0, 2), F=Pattern(0, 2))
    assert SystemPattern(A=a) == explicit
    assert (explicit.n, explicit.m, explicit.p, explicit.r) == (2, 0, 0, 0)
    doc = {"n": 2, "m": 0, "p": 0, "r": 0, "A": [[1, 2]], "B": [], "C": [], "F": []}
    assert parse_system(doc) == explicit
    assert SystemPattern(A=Pattern(0, 0)).B == Pattern(0, 0)
