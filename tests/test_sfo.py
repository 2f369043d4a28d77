"""Structural functional observability decisions."""

from __future__ import annotations

import random

import pytest

from structsys import (
    OracleConfig,
    Pattern,
    PreconditionError,
    brute_force,
    cactus_size,
    functional_states,
    in_minimal_dilation,
    is_generically_diagonalizable,
    is_sfo,
    is_sfo_diag,
    is_soc,
    numeric_obs_rank,
    sfo_feasible,
    sfo_preserved_under_functional_edge_addition,
    unit_row,
)
from structsys.grank import cactus_count, output_reachable_states
from support import (
    COUNTER_A,
    COUNTER_C,
    COUNTER_F,
    FIXTURE_NAMES,
    count_calls,
    count_flow_solves,
    eye,
    fixture_path,
    rand_gen_diag,
    rand_pattern,
    rand_square,
    reference_in_minimal_dilation,
    reference_is_sfo,
    reference_is_sfo_diag,
    reference_sfo_feasible,
)


def test_functional_states():
    assert functional_states(COUNTER_F) == {1}
    assert functional_states(Pattern(2, 4)) == frozenset()
    assert functional_states(eye(3)) == {1, 2, 3}


def test_counterexample_is_not_sfo():
    rep = is_sfo(COUNTER_A, COUNTER_C, COUNTER_F)
    assert not rep.verdict
    assert (rep.d_AC, rep.d_ACF) == (3, 4)
    assert rep.functional_states == {1}
    assert not rep.unreachable_functional_states
    assert rep.failing_states == {1}


def test_empty_functional_set_is_sfo():
    rep = is_sfo(COUNTER_A, COUNTER_C, Pattern(1, 4))
    assert rep.verdict and rep.method == "general-cactus"
    assert not rep.failing_states


def test_full_measurement_is_sfo():
    rnd = random.Random(30)
    for _ in range(25):
        n = rnd.randint(1, 5)
        a = rand_square(rnd, n)
        f = rand_pattern(rnd, rnd.randint(1, 2), n, 0.5)
        rep = is_sfo(a, eye(n), f)
        assert rep.verdict
        assert rep.d_AC == n
        # exhaustive stem/cycle search agrees that nothing can grow
        assert brute_force("cactus", a, eye(n))[0] == n


def test_is_sfo_rejects_mismatch():
    with pytest.raises(ValueError):
        is_sfo(COUNTER_A, Pattern(1, 3), COUNTER_F)


def test_zero_state_system_is_decided():
    z = Pattern(0, 0)
    assert is_sfo(z, z, z).verdict == is_sfo_diag(z, z, z, "b").verdict
    assert sfo_feasible(z, z, z)
    assert cactus_size(z, z).size == 0
    assert is_soc(z, Pattern(0, 1), Pattern(1, 0)).verdict == "not-soc"


def test_diag_condition_b_counterexample():
    rep = is_sfo_diag(COUNTER_A, COUNTER_C, COUNTER_F, "b")
    assert not rep.verdict
    assert rep.method == "diag-rank"
    assert (rep.d_AC, rep.d_ACF) == (3, 4)


def test_diag_single_state_system():
    a = Pattern(1, 1, {(1, 1)})
    row = Pattern(1, 1, {(1, 1)})
    for cond in ("b", "c", "d"):
        assert is_sfo_diag(a, row, row, cond).verdict


def test_diag_methods_require_diagonalizable_state_pattern():
    chain = Pattern(2, 2, {(2, 1)})
    with pytest.raises(PreconditionError, match="not generically diagonalizable"):
        is_sfo_diag(chain, Pattern(1, 2, {(1, 1)}), Pattern(1, 2, {(1, 2)}), "b")
    with pytest.raises(ValueError):
        is_sfo_diag(COUNTER_A, COUNTER_C, COUNTER_F, "e")


def test_diag_methods_agree_with_general():
    rnd = random.Random(31)
    seen_true = seen_false = 0
    for _ in range(150):
        n = rnd.randint(2, 6)
        a = rand_gen_diag(rnd, n)
        c = rand_pattern(rnd, rnd.randint(1, 3), n, 0.4)
        f = rand_pattern(rnd, rnd.randint(1, 2), n, 0.4)
        general = is_sfo(a, c, f).verdict
        for cond in ("b", "c", "d"):
            assert is_sfo_diag(a, c, f, cond).verdict == general
        seen_true += general
        seen_false += not general
    assert seen_true > 10 and seen_false > 10


def test_in_minimal_dilation_counterexample():
    assert in_minimal_dilation(COUNTER_A, COUNTER_C, 1)
    assert not in_minimal_dilation(COUNTER_A, COUNTER_C, 4)


def test_in_minimal_dilation_full_measurement():
    rnd = random.Random(32)
    for _ in range(10):
        n = rnd.randint(1, 5)
        a = rand_square(rnd, n)
        for i in range(1, n + 1):
            assert not in_minimal_dilation(a, eye(n), i)


def test_in_minimal_dilation_matches_enumeration():
    rnd = random.Random(33)
    for _ in range(40):
        n = rnd.randint(1, 5)
        a = rand_square(rnd, n)
        c = rand_pattern(rnd, rnd.randint(0, 3), n, 0.4)
        members, _minimal = brute_force("min-dilation", a, c)
        for i in range(1, n + 1):
            assert in_minimal_dilation(a, c, i) == (i in members)


def test_in_minimal_dilation_rejects_bad_index():
    with pytest.raises(ValueError):
        in_minimal_dilation(COUNTER_A, COUNTER_C, 0)
    with pytest.raises(ValueError):
        in_minimal_dilation(COUNTER_A, COUNTER_C, 5)


def test_per_state_conjunction_matches_triple():
    # the triple is SFO exactly when each functional state alone is
    rnd = random.Random(34)
    for _ in range(60):
        n = rnd.randint(2, 5)
        a = rand_square(rnd, n)
        c = rand_pattern(rnd, rnd.randint(1, 2), n, 0.4)
        f = rand_pattern(rnd, 1, n, 0.5)
        states = functional_states(f)
        per_state = all(is_sfo(a, c, unit_row(n, i)).verdict for i in states)
        assert is_sfo(a, c, f).verdict == per_state


def test_preserved_no_edges_added():
    a = Pattern(2, 2)
    c = Pattern(1, 2, {(1, 1)})
    f = Pattern(1, 2, {(1, 1)})
    assert sfo_preserved_under_functional_edge_addition(a, c, f, []) == is_sfo(a, c, f).verdict


def test_preserved_duplicate_edge_is_noop():
    a = Pattern(2, 2)
    c = Pattern(1, 2, {(1, 1)})
    f = Pattern(1, 2, {(1, 1)})
    assert sfo_preserved_under_functional_edge_addition(a, c, f, [(1, 1)])


def test_preserved_rejects_non_functional_tail():
    a = Pattern(2, 2)
    c = Pattern(1, 2, {(1, 1)})
    f = Pattern(1, 2, {(1, 1)})
    with pytest.raises(ValueError):
        sfo_preserved_under_functional_edge_addition(a, c, f, [(2, 1)])
    with pytest.raises(ValueError):
        sfo_preserved_under_functional_edge_addition(a, c, f, [(1, 2)])


def test_preserved_random_augmentations():
    rnd = random.Random(35)
    trials = draws = 0
    # 303 draws reach the 200 trials; the cap fails a regression instead of hanging
    while trials < 200 and draws < 400:
        draws += 1
        n = rnd.randint(2, 6)
        a = rand_square(rnd, n)
        c = rand_pattern(rnd, rnd.randint(1, 3), n, 0.4)
        f = rand_pattern(rnd, 1, n, 0.5)
        states = sorted(functional_states(f))
        if not states or not is_sfo(a, c, f).verdict:
            continue
        adds = [
            (rnd.choice(states), rnd.randint(1, c.rows))
            for _ in range(rnd.randint(1, 3))
        ]
        assert sfo_preserved_under_functional_edge_addition(a, c, f, adds)
        trials += 1
    assert trials == 200, draws


def test_sfo_feasible_matches_report():
    rnd = random.Random(36)
    for _ in range(60):
        n = rnd.randint(1, 5)
        a = rand_square(rnd, n)
        c = rand_pattern(rnd, rnd.randint(0, 2), n, 0.4)
        f = rand_pattern(rnd, 1, n, 0.5)
        assert sfo_feasible(a, c, f) == is_sfo(a, c, f).verdict


def test_oracle_agreement_sample():
    rnd = random.Random(37)
    for k in range(60):
        n = rnd.randint(2, 6)
        a = rand_square(rnd, n)
        c = rand_pattern(rnd, rnd.randint(1, 3), n, 0.4)
        f = rand_pattern(rnd, 1, n, 0.5)
        cfg = OracleConfig(seed=8800 + k, trials=3)
        rank_oc, rank_ocf = numeric_obs_rank(a, c, f, cfg)
        assert is_sfo(a, c, f).verdict == (rank_oc == rank_ocf)


def test_pbh_oracle_agreement_on_diagonalizable_instances():
    # eigenvalue-wise float test agrees with the structural verdict on
    # diagonalizable realizations in at least 95% of trials
    from structsys import numeric_diagonalizable, numeric_pbh_functional, sample_real_realization

    rnd = random.Random(38)
    agree = total = 0
    for k in range(80):
        n = rnd.randint(2, 6)
        a = rand_gen_diag(rnd, n)
        c = rand_pattern(rnd, rnd.randint(1, 3), n, 0.4)
        f = rand_pattern(rnd, 1, n, 0.5)
        verdict = is_sfo(a, c, f).verdict
        cfg = OracleConfig(seed=4300 + k, trials=1)
        for t in range(4):
            a_real = sample_real_realization(a, cfg, t, stream=1)
            if not numeric_diagonalizable(a_real, cfg):
                continue  # the test characterizes only diagonalizable realizations
            c_real = sample_real_realization(c, cfg, t, stream=2)
            f_real = sample_real_realization(f, cfg, t, stream=3)
            total += 1
            agree += numeric_pbh_functional(a_real, c_real, f_real, cfg) == verdict
    assert total > 100
    assert agree / total >= 0.95


def test_diag_failing_states_are_the_minimal_dilation_members():
    rnd = random.Random(35)
    seen = 0
    for _ in range(100):
        n = rnd.randint(2, 6)
        a = rand_gen_diag(rnd, n)
        c = rand_pattern(rnd, rnd.randint(1, 3), n, 0.4)
        f = rand_pattern(rnd, rnd.randint(1, 2), n, 0.4)
        members = frozenset(i for i in functional_states(f) if in_minimal_dilation(a, c, i))
        reps = {cond: is_sfo_diag(a, c, f, cond) for cond in ("b", "c", "d")}
        assert reps["c"].failing_states == reps["d"].failing_states == members
        assert reps["b"].failing_states == (frozenset() if reps["b"].verdict else members)
        seen += bool(members)
    assert seen > 10


def test_is_sfo_equals_the_per_state_reference_on_fixtures():
    from structsys.cli import load_system

    for name in FIXTURE_NAMES:
        sys_pat = load_system(fixture_path(name))
        assert is_sfo(sys_pat.A, sys_pat.C, sys_pat.F) == reference_is_sfo(
            sys_pat.A, sys_pat.C, sys_pat.F
        ), name


def rand_sfo_instance(rnd: random.Random, kind: int) -> tuple[Pattern, Pattern, Pattern]:
    """Random (A, C, F) of one of five kinds: plain, no outputs (p = 0), dense
    outputs (p >= n/2), every self-loop present, and isolated states."""
    n = rnd.randint(1, 10)
    A = rand_square(rnd, n, rnd.uniform(0.05, 0.45))
    p = rnd.randint(1, 3)
    if kind == 1:
        p = 0
    elif kind == 2:
        p = rnd.randint((n + 1) // 2, n)
    elif kind == 3:
        A = Pattern(n, n, A.nonzeros | {(i, i) for i in range(1, n + 1)})
    elif kind == 4:
        lonely = rnd.sample(range(1, n + 1), rnd.randint(1, n))
        A = A.zeroed(rows=lonely, cols=lonely)
    C = rand_pattern(rnd, p, n, rnd.uniform(0.05, 0.5))
    F = rand_pattern(rnd, rnd.randint(1, 3), n, rnd.uniform(0.1, 0.5))
    return A, C, F


def test_is_sfo_equals_the_per_state_reference_on_random_instances():
    # one residual search must report what one cactus solve per state did
    rnd = random.Random(71)
    seen = {"not sfo": 0, "p = 0": 0, "unreachable": 0, "dense C": 0, "self-loops": 0, "isolated": 0}
    for trial in range(2000):
        kind = trial % 5
        A, C, F = rand_sfo_instance(rnd, kind)
        ours = is_sfo(A, C, F)
        assert ours == reference_is_sfo(A, C, F), (A, C, F)
        # a false verdict always names a failing state, and a true one none
        assert ours.verdict == (not ours.failing_states), (A, C, F)
        n = A.rows
        seen["not sfo"] += not ours.verdict
        seen["p = 0"] += C.rows == 0
        seen["unreachable"] += bool(ours.unreachable_functional_states)
        seen["dense C"] += 2 * C.rows >= n
        seen["self-loops"] += all((i, i) in A.nonzeros for i in range(1, n + 1))
        seen["isolated"] += any(
            all((i, j) not in A.nonzeros and (j, i) not in A.nonzeros for j in range(1, n + 1))
            for i in range(1, n + 1)
        )
    assert min(seen.values()) >= 200, seen


def test_is_sfo_makes_one_flow_solve_when_sfo_and_two_when_not(monkeypatch):
    # one for the cactus of (A, C), and one for [C; F] only to report its
    # size on a false verdict; the per-state diagnosis is a residual search,
    # however many functional states there are
    solves = count_flow_solves(monkeypatch)
    n = 6
    everything = Pattern(1, n, frozenset((1, j) for j in range(1, n + 1)))
    rep = is_sfo(Pattern(n, n), Pattern(1, n, {(1, 1)}), everything)
    assert not rep.verdict and rep.failing_states == frozenset(range(2, n + 1))
    assert len(solves) == 2
    solves.clear()
    assert not is_sfo(COUNTER_A, COUNTER_C, COUNTER_F).verdict
    assert len(solves) == 2
    solves.clear()
    rep = is_sfo(Pattern(n, n), eye(n), everything)
    assert rep.verdict and rep.d_AC == rep.d_ACF == n
    assert len(solves) == 1


def test_sfo_feasible_equals_the_two_cactus_reference_on_random_instances():
    # no functional unit row raising the cactus must mean what equal cactus
    # sizes with and without F meant, diagonalizable or not, with p = 0 too
    rnd = random.Random(72)
    seen = {"sfo": 0, "not sfo": 0, "reachable, not sfo": 0, "not diagonalizable": 0}
    for trial in range(3000):
        A, C, F = rand_sfo_instance(rnd, trial % 5)
        ours = sfo_feasible(A, C, F)
        assert ours == reference_sfo_feasible(A, C, F), (A, C, F)
        seen["sfo" if ours else "not sfo"] += 1
        seen["reachable, not sfo"] += not ours and functional_states(F) <= output_reachable_states(A, C)
        seen["not diagonalizable"] += not is_generically_diagonalizable(A).verdict
    # the verdicts the size-only solve decides, past the reachability exit
    assert seen["reachable, not sfo"] >= 100 and min(seen.values()) >= 100, seen


def test_sfo_feasible_equals_the_two_cactus_reference_on_every_functional_row_count():
    # the probes of sensor placement: C is k copies of the row on the
    # functional states, for every k from 0 to the number of those states
    rnd = random.Random(73)
    probes = flips = 0
    for trial in range(800):
        A, _, F = rand_sfo_instance(rnd, trial % 5)
        n, x_f = A.rows, sorted(functional_states(F))
        verdicts = []
        for k in range(len(x_f) + 1):
            C = Pattern(k, n, {(row, i) for row in range(1, k + 1) for i in x_f})
            verdicts.append(sfo_feasible(A, C, F))
            assert verdicts[-1] == reference_sfo_feasible(A, C, F), (A, C, F)
        probes += len(verdicts)
        # never lost once reached (monotone in k), and always reached
        assert verdicts[-1] and verdicts == sorted(verdicts), (A, F, verdicts)
        flips += verdicts.index(True) >= 2
    assert probes >= 2800 and flips >= 150, (probes, flips)


def test_sfo_feasible_makes_one_flow_solve_and_none_when_a_state_is_unreachable(monkeypatch):
    solves = count_flow_solves(monkeypatch)
    n = 6
    everything = Pattern(1, n, frozenset((1, j) for j in range(1, n + 1)))
    # x1 alone is read; the other states are isolated, so unreachable
    assert not sfo_feasible(Pattern(n, n), Pattern(1, n, {(1, 1)}), everything)
    assert len(solves) == 0
    assert not sfo_feasible(COUNTER_A, COUNTER_C, COUNTER_F)
    assert len(solves) == 1
    solves.clear()
    assert sfo_feasible(Pattern(n, n), eye(n), everything)
    assert len(solves) == 1


def test_cactus_count_makes_one_reachability_search_and_sfo_feasible_one(monkeypatch):
    # A keeps its last search in its memo, so each part starts from a fresh copy
    searches = count_calls(monkeypatch, "reachable")
    a = Pattern(4, 4, COUNTER_A.nonzeros)
    cactus_count(a, COUNTER_C)
    assert len(searches) == 1
    assert output_reachable_states(a, COUNTER_C) == {1, 2, 3, 4}
    assert len(searches) == 1
    searches.clear()
    # every functional state is reachable, so the size-only solve runs
    a = Pattern(4, 4, COUNTER_A.nonzeros)
    assert not sfo_feasible(a, COUNTER_C, COUNTER_F)
    assert len(searches) == 1
    # outputs reading the same states, as alg2's two probes do, reuse it
    sfo_feasible(a, Pattern(1, 4, {(1, 1), (1, 2), (1, 3), (1, 4)}), COUNTER_F)
    assert len(searches) == 1
    # is_sfo reads C's states before the [C; F] solve replaces the memo entry
    searches.clear()
    a = Pattern(4, 4, COUNTER_A.nonzeros)
    rep = is_sfo(a, Pattern(1, 4, {(1, 4)}), COUNTER_F)
    assert rep.unreachable_functional_states == rep.failing_states == {1}
    assert len(searches) == 2


def test_sfo_feasible_and_is_sfo_stack_no_rows_on_a_true_triple(monkeypatch):
    # the unit rows are priced on the network of (A, C) itself, so no padded
    # [C; 0] is stacked; is_sfo stacks [C; F] only on a false verdict
    stacks = count_calls(monkeypatch, "stack", "core")
    n = 6
    everything = Pattern(1, n, frozenset((1, j) for j in range(1, n + 1)))
    assert sfo_feasible(Pattern(n, n), eye(n), everything)
    assert is_sfo(Pattern(n, n), eye(n), everything).verdict
    assert sfo_feasible(COUNTER_A, COUNTER_C, Pattern(1, 4, {(1, 4)}))
    assert is_sfo(COUNTER_A, COUNTER_C, Pattern(1, 4, {(1, 4)})).verdict
    assert len(stacks) == 0
    assert not is_sfo(COUNTER_A, COUNTER_C, COUNTER_F).verdict
    assert len(stacks) == 1


def test_is_sfo_diag_matches_f_only_on_a_false_verdict_and_shares_c_with_d(monkeypatch):
    # on an A whose diagonalizability is known: one matching of [A; C], a
    # second of [A; C; F] only when the verdict is false, and none for "d"
    # after "c", which reports the very sets "c" built
    matchings = count_calls(monkeypatch, "hopcroft_karp")
    n = 4
    A = Pattern(n, n)
    assert is_generically_diagonalizable(A).verdict
    everything = Pattern(1, n, frozenset((1, j) for j in range(1, n + 1)))
    first = Pattern(1, n, {(1, 1)})
    matchings.clear()
    assert is_sfo_diag(A, eye(n), everything, "b").verdict
    assert len(matchings) == 1
    matchings.clear()
    c = is_sfo_diag(A, first, everything, "c")
    assert not c.verdict and c.failing_states == {2, 3, 4} and (c.d_AC, c.d_ACF) == (1, 2)
    assert len(matchings) == 2
    matchings.clear()
    # an equal pattern is the same input
    d = is_sfo_diag(A, Pattern(1, n, {(1, 1)}), everything, "d")
    assert len(matchings) == 0 and d.method == "diag-dilation"
    assert d.functional_states is c.functional_states and d.failing_states is c.failing_states
    assert d.unreachable_functional_states is c.unreachable_functional_states
    assert (d.verdict, d.d_AC, d.d_ACF) == (c.verdict, c.d_AC, c.d_ACF)
    assert is_sfo_diag(A, first, first, "d").verdict
    assert len(matchings) == 1


def assert_diag_criteria_match_the_per_state_reference(A: Pattern, C: Pattern, F: Pattern) -> None:
    for cond in ("b", "c", "d"):
        assert is_sfo_diag(A, C, F, cond) == reference_is_sfo_diag(A, C, F, cond), (A, C, F, cond)
    for i in range(1, A.rows + 1):
        assert in_minimal_dilation(A, C, i) == reference_in_minimal_dilation(A, C, i), (A, C, i)


def test_diag_criteria_equal_the_per_state_reference_on_fixtures():
    from structsys.cli import load_system

    checked = 0
    for name in FIXTURE_NAMES:
        sys_pat = load_system(fixture_path(name))
        if is_generically_diagonalizable(sys_pat.A).verdict:
            assert_diag_criteria_match_the_per_state_reference(sys_pat.A, sys_pat.C, sys_pat.F)
            checked += 1
    assert checked >= 3


def test_diag_criteria_equal_the_per_state_reference_on_the_acceptance_draws():
    # the draws of acceptance criterion 5 (its seed and generators)
    rnd = random.Random(888)
    for _ in range(300):
        n = rnd.randint(2, 8)
        a = rand_gen_diag(rnd, n)
        c = rand_pattern(rnd, rnd.randint(1, 3), n, rnd.uniform(0.2, 0.6))
        f = rand_pattern(rnd, rnd.randint(1, 2), n, rnd.uniform(0.2, 0.5))
        assert_diag_criteria_match_the_per_state_reference(a, c, f)


def test_diag_criteria_equal_the_per_state_reference_on_random_instances():
    # one matching and one alternating search must report what one grank
    # per functional state did, on 500 diagonalizable instances of up to 24
    # states, with no outputs, sparse and dense outputs, and wide F
    rnd = random.Random(97)
    failing = unreachable = 0
    for trial in range(500):
        n = rnd.randint(1, 24)
        A = rand_gen_diag(rnd, n)
        p = (0, rnd.randint(1, 3), rnd.randint(n // 2, n))[trial % 3]
        C = rand_pattern(rnd, p, n, rnd.uniform(0.02, 0.3))
        F = rand_pattern(rnd, rnd.randint(1, 4), n, rnd.uniform(0.05, 0.4))
        assert_diag_criteria_match_the_per_state_reference(A, C, F)
        rep = is_sfo_diag(A, C, F, "c")
        failing += bool(rep.failing_states)
        unreachable += bool(rep.unreachable_functional_states)
    assert failing >= 40 and unreachable >= 100, (failing, unreachable)
