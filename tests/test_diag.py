"""Generic diagonalizability decisions."""

from __future__ import annotations

import random

import pytest

from structsys import (
    OracleConfig,
    Pattern,
    brute_force,
    certificate_components,
    diagonalizable_majority,
    grank,
    is_generically_diagonalizable,
    scc,
    scc_induced_diagonalizable,
    state_digraph,
)
from support import COUNTER_A, all_patterns, rand_square


def test_counterexample_state_pattern_is_diagonalizable():
    rep = is_generically_diagonalizable(COUNTER_A)
    assert rep.verdict
    assert (rep.grank_A, rep.v_A, rep.mwmm_weight) == (1, 1, 3)


def test_acyclic_chain_is_not():
    rep = is_generically_diagonalizable(Pattern(2, 2, {(2, 1)}))
    assert not rep.verdict


def test_symmetric_pattern_is():
    rep = is_generically_diagonalizable(Pattern(3, 3, {(1, 2), (2, 1), (2, 3), (3, 2)}))
    assert rep.verdict


def test_all_self_loops_is():
    rep = is_generically_diagonalizable(Pattern(2, 2, {(1, 1), (2, 2), (2, 1)}))
    assert rep.verdict


def test_zero_pattern_is():
    assert is_generically_diagonalizable(Pattern(3, 3)).verdict


def test_rejects_non_square():
    with pytest.raises(ValueError):
        is_generically_diagonalizable(Pattern(2, 3))


def test_report_invariants_random():
    rnd = random.Random(20)
    for _ in range(100):
        a = rand_square(rnd, rnd.randint(1, 7))
        rep = is_generically_diagonalizable(a)
        n = a.rows
        assert rep.v_A <= rep.grank_A
        assert rep.mwmm_weight == n - rep.v_A
        assert rep.verdict == (rep.grank_A == rep.v_A)
        assert rep.verdict == (rep.mwmm_weight == n - rep.grank_A)
        # shortcut classes must agree with the general verdict
        loops = all((i, i) in a.nonzeros for i in range(1, n + 1))
        symmetric = all((j, i) in a.nonzeros for i, j in a.nonzeros)
        acyclic = all(i != j for i, j in a.nonzeros) and all(
            len(c) == 1 for c in scc(state_digraph(a))
        )
        if loops or symmetric:
            assert rep.verdict
        if a.nonzeros and acyclic:
            assert not rep.verdict


def test_certificate_components_decodes_plain_matchings_too():
    # a maximum matching of a chain decomposes into one nonzero-length path
    from structsys import max_matching, pattern_bigraph

    chain = Pattern(3, 3, {(2, 1), (3, 2)})
    m = max_matching(pattern_bigraph(chain))
    cycles, paths = certificate_components(chain, m)
    assert cycles == []
    assert paths == [(1, 2, 3)]


def test_certificate_decodes_to_cycles_when_diagonalizable():
    rnd = random.Random(21)
    checked = 0
    for _ in range(200):
        a = rand_square(rnd, rnd.randint(1, 6))
        rep = is_generically_diagonalizable(a)
        cycles, paths = certificate_components(a, rep.certificate)
        if rep.verdict:
            # a maximum matching made of cycles and isolated vertices exists,
            # and the certificate exhibits it
            assert not paths
            assert sum(len(c) for c in cycles) == rep.grank_A
            checked += 1
        else:
            assert sum(len(c) for c in cycles) == rep.v_A < rep.grank_A
    assert checked > 20


def test_three_characterizations_agree_exhaustive_n2():
    for a in all_patterns(2):
        rep = is_generically_diagonalizable(a)
        v_brute = brute_force("v", a)[0]
        assert rep.v_A == v_brute
        assert rep.verdict == (grank(a) == v_brute)


def test_scc_induced_full_subset_matches_whole():
    rnd = random.Random(22)
    for _ in range(30):
        a = rand_square(rnd, rnd.randint(1, 6))
        comps = scc(state_digraph(a))
        assert scc_induced_diagonalizable(a, range(len(comps))) == (
            is_generically_diagonalizable(a).verdict
        )


def test_scc_induced_acyclic_pair_certifies_failure():
    # 2-cycle on x1, x2 plus a lone edge x3 -> x4: the subgraph induced by
    # the two singleton components is acyclic and nonzero
    a = Pattern(4, 4, {(1, 2), (2, 1), (4, 3)})
    comps = scc(state_digraph(a))
    singletons = [k for k, c in enumerate(comps) if c <= {("x", 3), ("x", 4)}]
    assert len(singletons) == 2
    assert not scc_induced_diagonalizable(a, singletons)
    assert not is_generically_diagonalizable(a).verdict


def test_scc_induced_empty_subset_true():
    assert scc_induced_diagonalizable(COUNTER_A, [])


def test_scc_induced_rejects_bad_index():
    with pytest.raises(ValueError):
        scc_induced_diagonalizable(COUNTER_A, [99])


def test_scc_heredity_sample():
    # diagonalizable patterns stay diagonalizable on every component union
    rnd = random.Random(23)
    from support import rand_gen_diag

    for _ in range(25):
        a = rand_gen_diag(rnd, rnd.randint(2, 6))
        comps = scc(state_digraph(a))
        count = len(comps)
        for mask in range(1 << min(count, 6)):
            subset = [k for k in range(min(count, 6)) if mask >> k & 1]
            assert scc_induced_diagonalizable(a, subset)


def test_numeric_dichotomy_sample():
    rnd = random.Random(24)
    for k in range(40):
        a = rand_square(rnd, rnd.randint(2, 5))
        verdict = is_generically_diagonalizable(a).verdict
        cfg = OracleConfig(seed=7000 + k, trials=11)
        assert diagonalizable_majority(a, cfg) == verdict


def test_numeric_majority_agreement_up_to_n8():
    rnd = random.Random(25)
    agree = 0
    total = 150
    for k in range(total):
        a = rand_square(rnd, rnd.randint(2, 8))
        verdict = is_generically_diagonalizable(a).verdict
        agree += diagonalizable_majority(a, OracleConfig(seed=7600 + k, trials=20)) == verdict
    assert agree / total >= 0.99


def test_numeric_dichotomy_is_sharp():
    # not merely a majority: almost every realization falls on the verdict's
    # side, so 20 trials land at least 19 together
    from structsys import numeric_diagonalizable, sample_real_realization

    rnd = random.Random(26)
    for k in range(60):
        a = rand_square(rnd, rnd.randint(2, 6))
        verdict = is_generically_diagonalizable(a).verdict
        cfg = OracleConfig(seed=7900 + k, trials=20)
        yes = sum(
            numeric_diagonalizable(sample_real_realization(a, cfg, t), cfg)
            for t in range(20)
        )
        assert yes >= 19 if verdict else yes <= 1
