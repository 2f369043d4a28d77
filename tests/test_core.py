"""Domain types: patterns, stacks and graph views."""

from __future__ import annotations

import dataclasses
import gc
import random
import re
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from structsys import (
    Matching,
    Pattern,
    SystemPattern,
    dedicated_rows,
    hstack,
    is_generically_diagonalizable,
    min_sensors_diag,
    min_sensors_matching,
    reachable,
    stack,
    unit_row,
)
from structsys.core import Bigraph, check_states, pattern_bigraph
from structsys.diag import loop_augmented_bigraph
from structsys.grank import cactus_bigraph
from structsys.placement import _matched_split
from structsys.sfo import in_minimal_dilation
from support import (
    COUNTER_A,
    COUNTER_C,
    count_calls,
    rand_pattern,
    reference_column_support,
    reference_hstack,
    reference_induced,
    reference_sorted_nonzeros,
    reference_stack,
    reference_transpose,
    reference_zeroed,
)


def test_stack_shifts_bottom_rows():
    top = Pattern(1, 2, {(1, 1)})
    bottom = Pattern(1, 2, {(1, 2)})
    out = stack(top, bottom)
    assert out.rows == 2 and out.cols == 2
    assert out.nonzeros == {(1, 1), (2, 2)}


def test_stack_counterexample_dimensions():
    out = stack(COUNTER_A, COUNTER_C)
    assert (out.rows, out.cols) == (7, 4)
    assert len(out.nonzeros) == 11


def test_stack_zero_row_identity():
    p = Pattern(2, 3, {(1, 1), (2, 3)})
    assert stack(p, Pattern(0, 3)) == p
    assert stack(Pattern(0, 3), p) == p


def test_stack_rejects_column_mismatch():
    with pytest.raises(ValueError):
        stack(Pattern(1, 2), Pattern(1, 3))


def test_stack_associative():
    rnd = random.Random(0)
    for _ in range(50):
        cols = rnd.randint(1, 5)
        a = rand_pattern(rnd, rnd.randint(0, 3), cols, 0.4)
        b = rand_pattern(rnd, rnd.randint(0, 3), cols, 0.4)
        c = rand_pattern(rnd, rnd.randint(0, 3), cols, 0.4)
        assert stack(stack(a, b), c) == stack(a, stack(b, c))


def test_hstack_shifts_right_columns():
    left = Pattern(2, 1, {(1, 1)})
    right = Pattern(2, 2, {(2, 2)})
    assert hstack(left, right).nonzeros == {(1, 1), (2, 3)}
    with pytest.raises(ValueError):
        hstack(Pattern(1, 1), Pattern(2, 1))


def test_pattern_validation():
    with pytest.raises(ValueError):
        Pattern(2, 2, {(3, 1)})
    with pytest.raises(ValueError):
        Pattern(-1, 2)
    assert Pattern(2, 2).nonzeros == frozenset()  # all-zero pattern is legal


def test_pattern_indices_are_plain_ints():
    # numpy integers and bools pass operator.index and are stored as int; a
    # float, a string or a non-pair, one without a length among them, is
    # refused here, not later in grank
    np = pytest.importorskip("numpy")
    P = Pattern(np.int64(2), 2, {(np.int64(1), np.int32(2)), (True, 1)})
    assert P == Pattern(2, 2, {(1, 2), (1, 1)})
    assert all(type(v) is int for v in (P.rows, P.cols, *P.flat))
    assert is_generically_diagonalizable(P).grank_A == 1
    for bad in ((1.5, 1), (1, "2"), (1, 2, 3), "12", 5):
        with pytest.raises(ValueError, match=re.escape(f"pattern nonzero {bad!r} is not a (row, col)")):
            Pattern(2, 2, {bad})
    with pytest.raises(ValueError, match=re.escape("dimensions must be integers, got 2.0x2")):
        Pattern(2.0, 2)


def test_state_indices_are_plain_ints():
    # states go through operator.index as pattern entries do: a float or a
    # string is refused, not matched to no state or compared with an int
    np = pytest.importorskip("numpy")
    a, c = Pattern(2, 2, {(1, 2), (2, 1)}), Pattern(1, 2, {(1, 1)})
    calls = (
        lambda: a.induced([1.5]),
        lambda: in_minimal_dilation(a, c, 1.5),
        lambda: reachable(a, [2.0], "forward"),
        lambda: reachable(a, ["1"], "backward"),
    )
    for call in calls:
        with pytest.raises(ValueError, match="state indices must be integers"):
            call()
    ordered = check_states(2, [np.int64(2), True, 2])
    assert ordered == [1, 2] and all(type(s) is int for s in ordered)
    assert reachable(a, [np.int64(1)], "forward") == {1, 2}


def test_column_support_is_computed_once_and_not_compared():
    a, b = Pattern(2, 3, {(1, 1), (2, 3)}), Pattern(2, 3, {(1, 1), (2, 3)})
    assert a.column_support() is a.column_support() == frozenset({1, 3})
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_memo_is_made_on_first_use_and_not_compared():
    a, b = Pattern(3, 3, {(1, 2), (2, 1), (3, 3)}), Pattern(3, 3, {(1, 2), (2, 1), (3, 3)})
    assert a._memo is None
    min_sensors_diag(a, Pattern(1, 3, {(1, 1), (1, 3)}))
    min_sensors_matching(a, Pattern(1, 3, {(1, 2)}))
    assert set(a._memo) == {"diag", "split", "stems", "reach"}
    assert b._memo is None
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    # an equal key gives back the kept object without computing it again
    kept = a._recall("probe", (1, 2), lambda: [1])
    assert a._recall("probe", (1, 2), lambda: pytest.fail("recomputed")) is kept
    assert is_generically_diagonalizable(a) is is_generically_diagonalizable(a)
    # another key computes and replaces the entry: one entry per name
    assert a._recall("probe", (3,), lambda: [2]) == [2] and a._memo["probe"] == ((3,), [2])
    assert a._recall("probe", (1, 2), lambda: [3]) == [3]
    assert set(a._memo) == {"diag", "split", "stems", "reach", "probe"}
    # an equal twin keeps its own memo
    assert b._recall("probe", (1, 2), lambda: [4]) == [4] and a._memo["probe"] == ((1, 2), [3])
    assert b._memo == {"probe": ((1, 2), [4])}
    assert is_generically_diagonalizable(b) is not is_generically_diagonalizable(a)


def test_pattern_bigraph_diagonal():
    g = pattern_bigraph(Pattern(3, 3, {(1, 1), (2, 2), (3, 3)}))
    assert {(r, l) for r, l, _ in g.edges} == {(1, 1), (2, 2), (3, 3)}


def test_pattern_bigraph_counterexample():
    g = pattern_bigraph(COUNTER_A)
    assert len(g.edges) == 4
    assert all(r == 4 for r, _, _ in g.edges)


def test_pattern_bigraph_zero():
    assert pattern_bigraph(Pattern(2, 3)).edges == ()


def test_bigraph_pattern_round_trip():
    rnd = random.Random(1)
    for _ in range(50):
        p = rand_pattern(rnd, rnd.randint(1, 5), rnd.randint(1, 5), 0.4)
        g = pattern_bigraph(p)
        # rows on the left, columns on the right, one zero-cost edge per entry
        assert (g.left, g.right) == (p.rows, p.cols)
        assert g.edges == tuple(sorted((j, i, 0) for i, j in p.nonzeros))
        assert Pattern(g.left, g.right, frozenset((l, r) for r, l, _ in g.edges)) == p


def test_bigraph_rejects_duplicates_and_negative_cost():
    with pytest.raises(ValueError):
        Bigraph(2, 2, ((1, 1, 0), (1, 1, 3)))
    with pytest.raises(ValueError):
        Bigraph(2, 2, ((1, 1, -1),))
    with pytest.raises(ValueError):
        Bigraph(2, 2, ((3, 1, 0),))


def test_matching_rejects_shared_endpoints():
    with pytest.raises(ValueError):
        Matching(frozenset({(1, 1), (1, 2)}))
    with pytest.raises(ValueError):
        Matching(frozenset({(1, 1), (2, 1)}))
    assert Matching(frozenset({(1, 2), (2, 1)})).size == 2


def test_system_pattern_validation():
    a = Pattern(2, 2)
    with pytest.raises(ValueError):
        SystemPattern(A=Pattern(2, 3))
    with pytest.raises(ValueError):
        SystemPattern(A=a, B=Pattern(3, 1))
    with pytest.raises(ValueError):
        SystemPattern(A=a, C=Pattern(1, 3))
    sys_pat = SystemPattern(A=a, B=Pattern(2, 1), C=Pattern(1, 2), F=Pattern(1, 2))
    assert (sys_pat.n, sys_pat.m, sys_pat.p, sys_pat.r) == (2, 1, 1, 1)


def test_induced_and_zeroed():
    a = Pattern(3, 3, {(1, 2), (2, 1), (3, 3)})
    assert a.induced([1, 2]) == Pattern(2, 2, {(1, 2), (2, 1)})
    assert a.induced([3]) == Pattern(1, 1, {(1, 1)})
    # a state that does not exist is an error, not an isolated state
    for bad, first in (([0, 2, 99], 0), ([1, 2, 99], 99), ([1, 5, 7], 5)):
        with pytest.raises(ValueError, match=re.escape(f"state index {first} out of range 1..3")):
            a.induced(bad)
    with pytest.raises(ValueError, match="out of range"):
        is_generically_diagonalizable(a.induced([1, 2, 7]))
    with pytest.raises(ValueError, match="requires a square pattern"):
        Pattern(2, 3).induced([1])
    assert a.zeroed(rows=[3], cols=[3]) == Pattern(3, 3, {(1, 2), (2, 1)})


def test_unit_and_dedicated_rows_check_their_indices():
    assert unit_row(3, 2) == Pattern(1, 3, {(1, 2)})
    assert dedicated_rows(3, [3, 1, 3]) == Pattern(2, 3, {(1, 1), (2, 3)})
    for bad in (0, 4):
        with pytest.raises(ValueError, match=re.escape(f"unit row index {bad} out of range 1..3")):
            unit_row(3, bad)
        with pytest.raises(ValueError, match=re.escape(f"state index {bad} out of range 1..3")):
            dedicated_rows(3, [2, bad])


def test_matching_is_a_value_over_flat_pairs():
    m = Matching(frozenset({(3, 1), (1, 2)}))
    assert m.flat == (1, 2, 3, 1)
    assert m.edges == {(1, 2), (3, 1)} and m.size == 2 and m.right_matched() == {1, 3}
    same = Matching.from_mates([0, 2, 0, 1])
    assert same == m and hash(same) == hash(m) and same == Matching([(3, 1), (1, 2)])
    assert m != Matching({(1, 2)}) and len({m, same}) == 1
    assert Matching(()).size == 0 == Matching.from_mates([0, 0]).size
    with pytest.raises(ValueError):
        Matching.from_mates([0, 1, 1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.flat = ()


def test_bigraph_cost_finds_every_edge_and_only_those():
    g = Bigraph(3, 3, ((2, 3, 7), (1, 1, 0), (2, 1, 4), (3, 3, 1)))
    assert [g.cost(r, l) for r, l, _ in g.edges] == [c for _, _, c in g.edges] == [0, 4, 7, 1]
    assert g.weight(Matching({(1, 1), (2, 3)})) == 7
    for missing in ((1, 2), (2, 2), (3, 1), (4, 1), (4, 3), (3, 4), (3, 0), (0, 1), (0, 0)):
        with pytest.raises(KeyError):
            g.cost(*missing)


def test_held_diag_reports_stay_small():
    # a report's matching is one flat tuple of small ints, not one tuple per
    # edge in a frozenset: 100 held reports on n = 64 keep under 2 KiB each
    rnd = random.Random(3)
    patterns = [
        Pattern(64, 64, frozenset((rnd.randint(1, 64), rnd.randint(1, 64)) for _ in range(192)))
        for _ in range(100)
    ]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = [is_generically_diagonalizable(a) for a in patterns]
        gc.collect()
        per_report = (tracemalloc.get_traced_memory()[0] - before) / len(held)
    finally:
        tracemalloc.stop()
    assert per_report < 2048, per_report


# ---------------------------------------------------------------------------
# the flat-tuple pattern algebra against the earlier frozenset one


@st.composite
def patterns(draw, rows: int | None = None, cols: int | None = None) -> Pattern:
    """A pattern of at most 6 x 6, zero dimensions included."""
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = draw(st.integers(0, 6)) if cols is None else cols
    cells = [(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)]
    chosen = draw(st.sets(st.sampled_from(cells))) if cells else set()
    return Pattern(rows, cols, chosen)


indices = st.lists(st.integers(0, 7), max_size=8)


@given(patterns(), st.randoms(use_true_random=False))
def test_pattern_is_a_value_over_its_entries(P, rnd):
    entries = list(P.nonzeros)
    rnd.shuffle(entries)
    again = Pattern(P.rows, P.cols, entries + entries[:2])
    assert again == P == Pattern(P.rows, P.cols, P.nonzeros)
    assert hash(again) == hash(P) and repr(again) == repr(P)
    assert len(P.flat) == 2 * len(P.nonzeros)
    assert P.sorted_nonzeros() == reference_sorted_nonzeros(P)
    assert P.column_support() == reference_column_support(P)
    assert P.transpose() == reference_transpose(P)
    assert P.transpose().transpose() == P


@given(patterns())
def test_pattern_bigraph_matches_the_validated_bigraph(P):
    # pattern_bigraph skips Bigraph's checks; the checked constructor, which
    # sorts the edges itself, must build the very same graph
    assert pattern_bigraph(P) == Bigraph(P.rows, P.cols, tuple((j, i, 0) for i, j in P.nonzeros))


def test_library_bigraphs_equal_the_validated_bigraph(monkeypatch):
    # cactus_bigraph, loop_augmented_bigraph and the matched-split bigraph
    # skip Bigraph's checks too; the checked constructor must build the same
    # graph, and that graph is the one the set-based construction gave
    split = count_calls(monkeypatch, "extremal_weight_max_matching")
    rnd = random.Random(53)
    for _ in range(300):
        n = rnd.randint(0, 9)
        a = rand_pattern(rnd, n, n, rnd.uniform(0.05, 0.6))
        c = rand_pattern(rnd, rnd.randint(0, 4), n, rnd.uniform(0.05, 0.5))
        x_f = frozenset(rnd.sample(range(1, n + 1), rnd.randint(0, n)))
        _matched_split(a, x_f)
        built = (cactus_bigraph(a, c)[0], loop_augmented_bigraph(a), split.pop())
        for g in built:
            assert Bigraph(g.left, g.right, g.edges) == g
        nonzeros = a.nonzeros
        loops = [(i, i, 1) for i in range(1, n + 1) if (i, i) not in nonzeros]
        assert built[1] == Bigraph(n, n, [(j, i, 0) for i, j in nonzeros] + loops)
        assert built[2] == Bigraph(n, n, [(j, i, int(j in x_f)) for i, j in nonzeros])


@given(st.data())
def test_stack_and_hstack_match_the_set_versions(data):
    top = data.draw(patterns())
    bottom = data.draw(patterns(cols=top.cols))
    assert stack(top, bottom) == reference_stack(top, bottom)
    beside = data.draw(patterns(rows=top.rows))
    assert hstack(top, beside) == reference_hstack(top, beside)
    other = data.draw(patterns())
    for ours, reference, fits in (
        (stack, reference_stack, other.cols == top.cols),
        (hstack, reference_hstack, other.rows == top.rows),
    ):
        if fits:
            assert ours(top, other) == reference(top, other)
            continue
        with pytest.raises(ValueError) as expected:
            reference(top, other)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            ours(top, other)


@given(st.integers(0, 6).flatmap(lambda n: patterns(n, n)), indices, indices, indices)
def test_induced_and_zeroed_match_the_set_versions(P, states, rows, cols):
    assert P.zeroed(rows, cols) == reference_zeroed(P, rows, cols)
    try:
        expected = reference_induced(P, states)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            P.induced(states)
    else:
        assert P.induced(states) == expected


@given(patterns(), st.integers(-2, 8), st.integers(-2, 8))
def test_out_of_range_entries_keep_their_wording(P, i, j):
    if 1 <= i <= P.rows and 1 <= j <= P.cols:
        return
    with pytest.raises(ValueError, match=re.escape(f"nonzero ({i},{j}) outside a {P.rows}x{P.cols} pattern")):
        Pattern(P.rows, P.cols, P.nonzeros | {(i, j)})
    rows = min(i, -1)
    with pytest.raises(ValueError, match=re.escape(f"pattern dimensions must be non-negative, got {rows}x{P.cols}")):
        Pattern(rows, P.cols, P.nonzeros)
