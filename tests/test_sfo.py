"""Structural functional observability decisions."""

from __future__ import annotations

import random

import pytest

from structsys import (
    OracleConfig,
    Pattern,
    PreconditionError,
    brute_force,
    functional_states,
    in_minimal_dilation,
    is_sfo,
    is_sfo_diag,
    numeric_obs_rank,
    sfo_feasible,
    sfo_preserved_under_functional_edge_addition,
    unit_row,
)
from support import (
    COUNTER_A,
    COUNTER_C,
    COUNTER_F,
    eye,
    rand_gen_diag,
    rand_pattern,
    rand_square,
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
    trials = 0
    while trials < 200:
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
