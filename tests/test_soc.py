"""Structural output controllability decisions."""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from structsys import (
    Linking,
    OracleConfig,
    Pattern,
    PreconditionError,
    identity_pattern,
    input_reachable_restriction,
    is_generically_diagonalizable,
    is_soc,
    max_linking,
    numeric_output_controllable,
    sample_field_realization,
    unit_row,
)
from structsys.cli import parse_system
from structsys.combinat import min_cost_max_flow
from structsys.grank import linking_network, output_reachable_states
from structsys.soc import input_reachable_states
from support import (
    bench_gen,
    eye,
    rand_gen_diag,
    rand_pattern,
    rand_square,
    reference_max_linking,
)

SOC_A = Pattern(5, 5, {(2, 1), (3, 2), (4, 1), (4, 5)})
SOC_B = Pattern(5, 1, {(1, 1)})
SOC_C = Pattern(2, 5, {(1, 3), (2, 4)})


def test_input_reachable_states_is_forward_reachability_from_the_inputs():
    rnd = random.Random(53)
    for _ in range(300):
        n, m = rnd.randint(1, 7), rnd.randint(0, 3)
        a = rand_square(rnd, n)
        b = rand_pattern(rnd, n, m, rnd.uniform(0.0, 0.5))
        # by transposition duality, the states of (A^T, B^T) with a path to some output
        assert input_reachable_states(a, b) == output_reachable_states(a.transpose(), b.transpose())


def test_restriction_all_reachable_is_identity():
    a = Pattern(3, 3, {(2, 1), (3, 2), (1, 3)})
    b = Pattern(3, 1, {(1, 1)})
    assert input_reachable_restriction(a, b) == (frozenset(), a)


def test_restriction_no_inputs_zeroes_everything():
    a = Pattern(3, 3, {(2, 1), (3, 2)})
    assert input_reachable_restriction(a, Pattern(3, 2)) == ({1, 2, 3}, Pattern(3, 3))


def test_restriction_soc_example():
    dead, restricted = input_reachable_restriction(SOC_A, SOC_B)
    assert dead == {5} and restricted == Pattern(5, 5, {(2, 1), (3, 2), (4, 1)})


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
    checked = draws = 0
    # 60 draws reach the 60 checks; the cap fails a regression instead of hanging
    while checked < 60 and draws < 100:
        draws += 1
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
    assert checked == 60, draws


def _check_linking(rep, a, b, c):
    # linear-time certificate check: every arc is an edge of the two-layer
    # graph of (A_r, B, C), no node is used twice in its layer, every
    # first-layer state entered is left, and the size is the reported one
    dead, a_r = input_reachable_restriction(a, b)
    assert dead == rep.input_unreachable
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


def test_linking_stores_flat_layers_and_reads_back_pairs():
    link = Linking(inputs=[(1, 2)], states=((3, 4), (5, 6)), outputs=[(2, 1), (4, 2)])
    assert (link.input_flat, link.state_flat, link.output_flat) == ((1, 2), (3, 4, 5, 6), (2, 1, 4, 2))
    assert link.inputs == ((1, 2),) and link.states == ((3, 4), (5, 6))
    assert link.outputs == ((2, 1), (4, 2)) and link.size == 2
    assert link == Linking([(1, 2)], [(3, 4), (5, 6)], [(2, 1), (4, 2)]) != Linking((), (), ())
    assert hash(link) == hash(Linking([(1, 2)], [(3, 4), (5, 6)], [(2, 1), (4, 2)]))


def test_linking_refuses_arcs_that_are_not_pairs():
    with pytest.raises(ValueError, match="pairs"):
        Linking([(1, 2, 3)], [], [(4,)])
    with pytest.raises(ValueError, match="pairs"):
        Linking([], [(1, 2), (3,)], [])
    with pytest.raises(ValueError, match="pairs"):
        Linking([], [], [(1, 2), ()])


def _assert_linking_matches_reference(a_r, b, c, input_cost):
    ref, ref_flow = reference_max_linking(a_r, b, c, input_cost)
    flow = min_cost_max_flow(linking_network(a_r, b, c, input_cost))
    link = max_linking(a_r, b, c, input_cost)
    assert (link.inputs, link.states, link.outputs) == (ref.inputs, ref.states, ref.outputs)
    assert (flow.value, flow.cost) == (ref_flow.value, ref_flow.cost)


def test_linking_matches_the_all_split_reference_on_the_bench_systems():
    # the SOC restriction and the actuator network of every bench system
    gen = bench_gen()
    docs = gen.verdicts_family() + gen.placement_family()
    assert len(docs) == 200
    for doc in docs:
        sys_pat = parse_system(doc)
        a, b, c = sys_pat.A, sys_pat.B, sys_pat.C
        _, a_r = input_reachable_restriction(a, b)
        _assert_linking_matches_reference(a_r, b, c, 0)
        _assert_linking_matches_reference(a, identity_pattern(sys_pat.n), c, 1)


def test_linking_matches_the_all_split_reference_on_random_instances():
    rnd = random.Random(67)
    seen = {"m = 0": 0, "p = 0": 0, "n = 0": 0, "C = 0": 0}
    for trial in range(480):
        n, m, p = rnd.randint(0, 8), rnd.randint(0, 4), rnd.randint(0, 5)
        if trial % 4 == 0:
            m = 0
        elif trial % 4 == 1:
            p = 0
        elif trial % 4 == 2:
            n = 0
        a = rand_square(rnd, n, rnd.uniform(0.05, 0.6))
        b = rand_pattern(rnd, n, m, rnd.uniform(0.05, 0.6))
        c = rand_pattern(rnd, p, n, 0.0 if trial % 4 == 3 else rnd.uniform(0.05, 0.6))
        seen["m = 0"] += m == 0
        seen["p = 0"] += p == 0
        seen["n = 0"] += n == 0
        seen["C = 0"] += not c.nonzeros
        for input_cost in (0, 1):
            _assert_linking_matches_reference(a, b, c, input_cost)
    assert min(seen.values()) >= 100, seen


def test_linking_network_splits_only_the_first_state_layer():
    # m + n source arcs, n x^1 split arcs, p sink arcs and one arc per entry
    # of B, A_r and C; the all-split network had m + n + p more of each
    gen = bench_gen()
    for doc, actuator, arcs, nodes in (
        (gen.verdict_system(random.Random(0), 800), False, 5118, 2562),
        (gen.placement_system(random.Random(0), 800), True, 4799, 3282),
    ):
        sys_pat = parse_system(doc)
        n, c = sys_pat.n, sys_pat.C
        if actuator:
            a, b = sys_pat.A, identity_pattern(n)
        else:
            a, b = input_reachable_restriction(sys_pat.A, sys_pat.B)[1], sys_pat.B
        m, p = b.cols, c.rows
        net = linking_network(a, b, c, int(actuator))
        entries = len(b.flat) // 2 + len(a.flat) // 2 + len(c.flat) // 2
        assert n == 800
        assert len(net.arcs) == m + 2 * n + p + entries == arcs
        assert net.nodes == m + 3 * n + p + 2 == nodes


def test_held_soc_reports_stay_small():
    # each linking layer is one flat tuple of small ints, not one tuple per
    # arc: 100 held reports on n = 64 with 6 inputs and 6 outputs keep under
    # 640 bytes each (one tuple per arc took about 1 KiB)
    rnd = random.Random(3)

    def rows(r: int, c: int, k: int) -> frozenset:
        return frozenset((i, rnd.randint(1, c)) for i in range(1, r + 1) for _ in range(k))

    systems = [
        (Pattern(64, 64, rows(64, 64, 3)), Pattern(64, 6, rows(64, 6, 1)), Pattern(6, 64, rows(6, 64, 2)))
        for _ in range(100)
    ]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = [is_soc(*system) for system in systems]
        gc.collect()
        per_report = (tracemalloc.get_traced_memory()[0] - before) / len(held)
    finally:
        tracemalloc.stop()
    assert sum(h.linking for h in held) >= 500
    assert per_report < 640, per_report
