"""Numeric and exhaustive oracles."""

from __future__ import annotations

import random

import numpy as np
import pytest

from structsys import (
    OracleConfig,
    Pattern,
    Realization,
    brute_force,
    numeric_diagonalizable,
    numeric_grank,
    numeric_obs_rank,
    numeric_output_controllable,
    numeric_pbh_functional,
    sample_field_realization,
    sample_real_realization,
    stack,
)
from support import (
    COUNTER_A,
    COUNTER_A_VALUES,
    COUNTER_C,
    COUNTER_C_VALUES,
    COUNTER_F,
    COUNTER_F_VALUES,
    eye,
    rand_square,
)


def realize(pattern: Pattern, values: dict) -> Realization:
    return Realization(pattern, tuple(values.items()))


def dense_realization(rows: list[list[float]]) -> Realization:
    nrows, ncols = len(rows), len(rows[0])
    nz = {(i + 1, j + 1): rows[i][j] for i in range(nrows) for j in range(ncols) if rows[i][j]}
    return realize(Pattern(nrows, ncols, frozenset(nz)), nz)


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(trials=0)
    assert OracleConfig().modulus == 2**31 - 1


def test_config_rejects_non_integer_seed_and_trials():
    # each would fail later in range(cfg.trials) or cfg.seed & ...
    for kwargs in ({"trials": 1.5}, {"seed": 1.5}, {"trials": "3"}, {"seed": "0"}):
        with pytest.raises(ValueError, match="must be an integer"):
            OracleConfig(**kwargs)
    with pytest.raises(ValueError, match="at least one trial is required"):
        OracleConfig(trials=0)
    cfg = OracleConfig(seed=True, trials=3)
    assert (type(cfg.seed), cfg.seed, cfg.trials) == (int, 1, 3)


def test_realization_validation():
    p = Pattern(1, 2, {(1, 1)})
    with pytest.raises(ValueError):
        Realization(p, ())  # missing value
    with pytest.raises(ValueError):
        Realization(p, (((1, 1), 0.0),))  # zero on a free entry
    with pytest.raises(ValueError):
        Realization(p, (((1, 2), 1.0),))  # value on a fixed zero
    assert realize(p, {(1, 1): 3.0}).dense() == [[3.0, 0]]


def test_numeric_grank_examples():
    cfg = OracleConfig(seed=1, trials=3)
    assert numeric_grank(stack(COUNTER_A, COUNTER_C), cfg) == 3
    assert numeric_grank(Pattern(3, 3), cfg) == 0
    assert numeric_grank(eye(5), cfg) == 5


def test_numeric_obs_rank_counterexample():
    cfg = OracleConfig(seed=2, trials=3)
    rank_oc, rank_ocf = numeric_obs_rank(COUNTER_A, COUNTER_C, COUNTER_F, cfg)
    assert (rank_oc, rank_ocf) == (3, 4)


def test_numeric_obs_rank_full_measurement():
    cfg = OracleConfig(seed=3, trials=2)
    rnd = random.Random(70)
    for _ in range(10):
        n = rnd.randint(1, 5)
        a = rand_square(rnd, n)
        rank_oc, _ = numeric_obs_rank(a, eye(n), None, cfg)
        assert rank_oc == n


def test_numeric_obs_rank_duplicated_row_pattern_is_still_independent():
    # F copying C's row pattern carries fresh parameters, so the stacked rank
    # generically grows: a cautionary case, not a no-op
    a = Pattern(2, 2)
    c = Pattern(1, 2, {(1, 1), (1, 2)})
    f = Pattern(1, 2, {(1, 1), (1, 2)})
    cfg = OracleConfig(seed=4, trials=3)
    assert numeric_obs_rank(a, c, f, cfg) == (1, 2)


def test_numeric_diagonalizable_block_example():
    # two zero rows, four identical mixing rows: diagonalizable as a whole
    row = [1.0, 1.0, 1.0, 1.0, 0.0, 0.0]
    full = dense_realization([[0.0] * 6, [0.0] * 6, row, row, row, row])
    cfg = OracleConfig()
    assert numeric_diagonalizable(full, cfg)
    # its submatrix on the first and third 2x2 blocks is nilpotent
    sub = dense_realization(
        [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]]
    )
    assert not numeric_diagonalizable(sub, cfg)


def test_block_example_realization_is_a_measure_zero_exception():
    # the all-ones realization above is diagonalizable even though its
    # pattern is generically non-diagonalizable: the structural verdict
    # speaks about almost all realizations, not every single one
    from structsys import (
        cycle_cover_max,
        diagonalizable_majority,
        grank,
        is_generically_diagonalizable,
    )

    pattern = Pattern(
        6, 6, frozenset((i, j) for i in range(3, 7) for j in range(1, 5))
    )
    assert grank(pattern) == 4 and cycle_cover_max(pattern) == 2
    assert not is_generically_diagonalizable(pattern).verdict
    assert not diagonalizable_majority(pattern, OracleConfig(seed=123, trials=20))


def test_numeric_diagonalizable_symmetric():
    rnd = random.Random(71)
    cfg = OracleConfig()
    for _ in range(10):
        n = rnd.randint(2, 5)
        m = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                if rnd.random() < 0.5:
                    m[i, j] = m[j, i] = rnd.uniform(1.0, 2.0)
        if not m.any():
            continue
        assert numeric_diagonalizable(dense_realization(m.tolist()), cfg)


def test_numeric_pbh_counterexample_realization():
    # the displayed realization is functionally observable even though the
    # triple is not SFO: the second output row minus the first reproduces
    # the functional row
    cfg = OracleConfig()
    a = realize(COUNTER_A, COUNTER_A_VALUES)
    c = realize(COUNTER_C, COUNTER_C_VALUES)
    f = realize(COUNTER_F, COUNTER_F_VALUES)
    assert numeric_diagonalizable(a, cfg)
    assert numeric_pbh_functional(a, c, f, cfg)
    # a generic perturbation of the same pattern loses the property
    c_generic = realize(
        COUNTER_C,
        {pos: v for pos, v in zip(sorted(COUNTER_C_VALUES), (1.0, 1.3, 2.7, 0.6, 1.9, 0.8, 1.1))},
    )
    assert not numeric_pbh_functional(a, c_generic, f, cfg)


def test_numeric_pbh_trivial_cases():
    cfg = OracleConfig()
    a = realize(COUNTER_A, COUNTER_A_VALUES)
    c = realize(COUNTER_C, COUNTER_C_VALUES)
    f_zero = Realization(Pattern(1, 4), ())
    assert numeric_pbh_functional(a, c, f_zero, cfg)
    c_full = realize(eye(4), {(i, i): 1.0 for i in range(1, 5)})
    f = realize(COUNTER_F, COUNTER_F_VALUES)
    assert numeric_pbh_functional(a, c_full, f, cfg)


def test_numeric_output_controllable_trivia():
    cfg = OracleConfig(seed=6, trials=1)
    n = 3
    ident = realize(eye(n), {(i, i): 1.0 for i in range(1, n + 1)})
    a_zero = Realization(Pattern(n, n), ())
    b_zero = Realization(Pattern(n, 1), ())
    c_row = realize(Pattern(1, n, {(1, 1)}), {(1, 1): 2.0})
    assert numeric_output_controllable(a_zero, ident, ident, cfg)
    assert not numeric_output_controllable(a_zero, b_zero, c_row, cfg)


def test_numeric_output_controllable_works_over_the_prime_field_only():
    cfg = OracleConfig(seed=6, trials=1)
    a, b, c = COUNTER_A, eye(4), COUNTER_C
    field = [sample_field_realization(M, cfg, 0, stream=k) for k, M in enumerate((a, b, c))]
    assert numeric_output_controllable(*field, cfg)
    real_a = sample_real_realization(a, cfg, 0)
    assert any(not float(v).is_integer() for _, v in real_a.values)
    with pytest.raises(ValueError, match="prime-field"):
        numeric_output_controllable(real_a, *field[1:], cfg)


def test_brute_force_counterexample_values():
    assert brute_force("v", COUNTER_A)[0] == 1
    assert brute_force("min-sensors", COUNTER_A, COUNTER_F)[0] == 1
    assert brute_force("cactus", COUNTER_A, COUNTER_C)[0] == 3


def test_brute_force_caps_and_kinds():
    big = Pattern(7, 7)
    with pytest.raises(ValueError, match="capped"):
        brute_force("v", big)
    with pytest.raises(ValueError, match="capped"):
        brute_force("min-sensors", Pattern(6, 6), Pattern(1, 6, {(1, 1)}))
    with pytest.raises(ValueError, match="kind"):
        brute_force("widgets", COUNTER_A)


def test_field_samples_are_trial_indexed_and_reproducible():
    cfg = OracleConfig(seed=9, trials=4)
    first = sample_field_realization(COUNTER_A, cfg, 0)
    again = sample_field_realization(COUNTER_A, cfg, 0)
    other = sample_field_realization(COUNTER_A, cfg, 1)
    assert first == again
    assert first != other
    real = sample_real_realization(COUNTER_A, cfg, 0)
    assert real == sample_real_realization(COUNTER_A, cfg, 0)
    assert all(v != 0 for _, v in real.values)


def test_numeric_grank_order_insensitive():
    # aggregate is a max over per-trial streams, so trial order cannot matter
    cfg = OracleConfig(seed=10, trials=5)
    rnd = random.Random(72)
    for _ in range(5):
        p = rand_square(rnd, 4)
        values = [
            numeric_grank(p, OracleConfig(seed=10, trials=k)) for k in range(1, 6)
        ]
        assert values[-1] == numeric_grank(p, cfg)
        assert sorted(values) == values  # monotone in the trial budget
