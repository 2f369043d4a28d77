"""Structural output controllability decisions."""

from __future__ import annotations

import random

import pytest

from structsys import (
    OracleConfig,
    Pattern,
    PreconditionError,
    input_reachable_restriction,
    is_generically_diagonalizable,
    is_soc,
    numeric_output_controllable,
    sample_field_realization,
    unit_row,
)
from support import eye, rand_gen_diag, rand_pattern, rand_square

SOC_A = Pattern(5, 5, {(2, 1), (3, 2), (4, 1), (4, 5)})
SOC_B = Pattern(5, 1, {(1, 1)})
SOC_C = Pattern(2, 5, {(1, 3), (2, 4)})


def test_restriction_all_reachable_is_identity():
    a = Pattern(3, 3, {(2, 1), (3, 2), (1, 3)})
    b = Pattern(3, 1, {(1, 1)})
    assert input_reachable_restriction(a, b) == a


def test_restriction_no_inputs_zeroes_everything():
    a = Pattern(3, 3, {(2, 1), (3, 2)})
    assert input_reachable_restriction(a, Pattern(3, 2)) == Pattern(3, 3)


def test_restriction_soc_example():
    restricted = input_reachable_restriction(SOC_A, SOC_B)
    assert restricted == Pattern(5, 5, {(2, 1), (3, 2), (4, 1)})


def test_restriction_rejects_mismatch():
    with pytest.raises(ValueError):
        input_reachable_restriction(SOC_A, Pattern(4, 1))


def test_soc_example_verdict():
    rep = is_soc(SOC_A, SOC_B, SOC_C)
    assert rep.verdict == "soc"
    assert rep.precondition_holds
    assert (rep.grank_ArB, rep.grank_QAB, rep.linking) == (3, 3, 2)
    assert rep.input_unreachable == {5}


def test_soc_single_driven_measured_state():
    a = Pattern(1, 1)
    rep = is_soc(a, unit_row(1, 1).transpose(), unit_row(1, 1))
    assert rep.verdict == "soc"


def test_soc_more_outputs_than_states():
    n = 2
    c = Pattern(3, n, {(1, 1), (2, 2)})
    rep = is_soc(Pattern(n, n), eye(n), c)
    assert rep.verdict == "not-soc"
    assert rep.linking <= n < c.rows


def test_soc_rejects_zero_outputs():
    with pytest.raises(PreconditionError):
        is_soc(SOC_A, SOC_B, Pattern(0, 5))


def test_diagonalizable_state_pattern_always_satisfies_precondition():
    rnd = random.Random(40)
    for _ in range(2000):
        n = rnd.randint(1, 8)
        a = rand_gen_diag(rnd, n)
        b = rand_pattern(rnd, n, rnd.randint(0, 3), 0.4)
        c = rand_pattern(rnd, rnd.randint(1, 3), n, 0.4)
        rep = is_soc(a, b, c)
        assert rep.precondition_holds
        assert rep.verdict in ("soc", "not-soc")


def test_precondition_violation_is_undecidable():
    # one input feeding a branching tree: the matrix matching packs both
    # branches as paths but a single input can root only one stem
    a = Pattern(5, 5, {(2, 1), (4, 1), (3, 2), (5, 4)})
    b = Pattern(5, 1, {(1, 1)})
    c = Pattern(1, 5, {(1, 3)})
    rep = is_soc(a, b, c)
    assert not rep.precondition_holds
    assert rep.grank_ArB == 4 and rep.grank_QAB == 3
    assert rep.verdict == "undecidable"
    assert not is_generically_diagonalizable(a).verdict


def test_decided_verdict_matches_linking_count():
    rnd = random.Random(43)
    for _ in range(200):
        n = rnd.randint(2, 6)
        a = rand_square(rnd, n)
        b = rand_pattern(rnd, n, rnd.randint(1, 2), 0.4)
        c = rand_pattern(rnd, rnd.randint(1, 3), n, 0.4)
        rep = is_soc(a, b, c)
        if rep.verdict != "undecidable":
            assert (rep.verdict == "soc") == (rep.linking == c.rows)


def test_undecidable_only_without_precondition():
    rnd = random.Random(41)
    seen = 0
    for _ in range(400):
        n = rnd.randint(3, 6)
        # sparse loop-free dynamics driven by one input favor the violating shape
        a = Pattern(
            n, n,
            frozenset(
                (i, j)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if i != j and rnd.random() < 1.8 / n
            ),
        )
        b = Pattern(n, 1, {(rnd.randint(1, n), 1)})
        c = rand_pattern(rnd, rnd.randint(1, 2), n, 0.3)
        rep = is_soc(a, b, c)
        if rep.verdict == "undecidable":
            assert not rep.precondition_holds
            assert not is_generically_diagonalizable(a).verdict
            seen += 1
    assert seen > 0


def test_verdict_invariant_under_unreachable_permutation():
    # swapping the two input-unreachable states cannot change the verdict
    a = Pattern(4, 4, {(2, 1), (3, 3), (4, 4), (3, 4)})
    b = Pattern(4, 1, {(1, 1)})
    c = Pattern(1, 4, {(1, 2)})
    rep = is_soc(a, b, c)
    assert rep.input_unreachable == {3, 4}

    def swap(i):
        return {3: 4, 4: 3}.get(i, i)

    a2 = Pattern(4, 4, frozenset((swap(i), swap(j)) for i, j in a.nonzeros))
    c2 = Pattern(1, 4, frozenset((i, swap(j)) for i, j in c.nonzeros))
    assert is_soc(a2, b, c2).verdict == rep.verdict


def test_oracle_agreement_sample():
    rnd = random.Random(42)
    checked = 0
    while checked < 60:
        n = rnd.randint(2, 6)
        a = rand_square(rnd, n)
        b = rand_pattern(rnd, n, rnd.randint(1, 2), 0.4)
        c = rand_pattern(rnd, rnd.randint(1, 2), n, 0.4)
        rep = is_soc(a, b, c)
        if rep.verdict == "undecidable":
            continue
        cfg = OracleConfig(seed=9300 + checked, trials=3)
        numeric = any(
            numeric_output_controllable(
                sample_field_realization(a, cfg, t, stream=1),
                sample_field_realization(b, cfg, t, stream=2),
                sample_field_realization(c, cfg, t, stream=3),
                cfg,
            )
            for t in range(cfg.trials)
        )
        assert (rep.verdict == "soc") == numeric
        checked += 1


def _check_linking(rep, a, b, c):
    # linear-time certificate check: every arc is an edge of the two-layer
    # graph of (A_r, B, C), no node is used twice in its layer, every
    # first-layer state entered is left, and the size is the reported one
    a_r = input_reachable_restriction(a, b)
    cert = rep.certificate
    assert all((j, i) in b.nonzeros for i, j in cert.inputs)
    assert all((j, i) in a_r.nonzeros for i, j in cert.states)
    assert all((j, i) in c.nonzeros for i, j in cert.outputs)
    entered = [j for _, j in cert.inputs + cert.states]
    left = [i for i, _ in cert.outputs]
    layers = (
        [i for i, _ in cert.inputs],
        [i for i, _ in cert.states],
        entered,
        left,
        [j for _, j in cert.outputs],
    )
    assert all(len(set(layer)) == len(layer) for layer in layers)
    assert set(entered) == set(left)
    assert cert.size == rep.linking


def test_certificate_is_a_valid_linking():
    rnd = random.Random(45)
    arcs_seen = {"inputs": 0, "states": 0}
    for _ in range(300):
        n = rnd.randint(1, 7)
        a = rand_square(rnd, n)
        b = rand_pattern(rnd, n, rnd.randint(0, 3), 0.3)
        c = rand_pattern(rnd, rnd.randint(1, 4), n, 0.4)
        rep = is_soc(a, b, c)
        _check_linking(rep, a, b, c)
        arcs_seen["inputs"] += len(rep.certificate.inputs)
        arcs_seen["states"] += len(rep.certificate.states)
    assert min(arcs_seen.values()) > 50
    _check_linking(is_soc(SOC_A, SOC_B, SOC_C), SOC_A, SOC_B, SOC_C)
