"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance and trial count is pinned here.
"""

from __future__ import annotations

import random
import time

from structsys import (
    OracleConfig,
    Pattern,
    Realization,
    brute_force,
    certificate_components,
    dedicated_rows,
    diagonalizable_majority,
    functional_states,
    grank,
    is_generically_diagonalizable,
    is_sfo,
    is_sfo_diag,
    is_soc,
    linking_size,
    min_actuators_diag,
    min_sensors_diag,
    min_sensors_iterative,
    min_sensors_matching,
    numeric_diagonalizable,
    numeric_obs_rank,
    numeric_output_controllable,
    numeric_pbh_functional,
    sample_field_realization,
    scc,
    sfo_preserved_under_functional_edge_addition,
    stack,
)
from structsys.cli import load_system
from structsys.grank import cactus_bigraph, cactus_size
from structsys.oracle import brute_min_sensors_constrained
from support import (
    COUNTER_A,
    COUNTER_A_VALUES,
    COUNTER_C,
    COUNTER_C_VALUES,
    COUNTER_F,
    COUNTER_F_VALUES,
    all_patterns,
    fixture_meta,
    fixture_path,
    rand_gen_diag,
    rand_pattern,
    rand_square,
)


def report(num: int, ok: bool, desc: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status} {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


def test_criterion_01_counterexample_regression():
    t0 = time.time()
    ok = grank(COUNTER_A) == 1
    ok &= grank(stack(COUNTER_A, COUNTER_C)) == 3
    ok &= grank(stack(stack(COUNTER_A, COUNTER_C), COUNTER_F)) == 4
    ok &= is_generically_diagonalizable(COUNTER_A).verdict
    ok &= not is_sfo(COUNTER_A, COUNTER_C, COUNTER_F).verdict
    cfg = OracleConfig()
    a = Realization(COUNTER_A, tuple(COUNTER_A_VALUES.items()))
    c = Realization(COUNTER_C, tuple(COUNTER_C_VALUES.items()))
    f = Realization(COUNTER_F, tuple(COUNTER_F_VALUES.items()))
    ok &= numeric_diagonalizable(a, cfg)
    ok &= numeric_pbh_functional(a, c, f, cfg)
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(1, ok, "worked counterexample: ranks 1/3/4, diagonalizable, not SFO, "
                  "displayed realization functionally observable",
           f"{elapsed:.2f}s")


def _all_max_matchings_cycle_only(a: Pattern) -> bool:
    """Condition: some maximum matching whose matched rights equal its
    matched lefts (its components are then cycles and isolated vertices)."""
    edges = [(j, i) for i, j in a.sorted_nonzeros()]
    best = grank(a)
    found = False

    def rec(idx, used_r, used_l, acc):
        nonlocal found
        if found:
            return
        if idx == len(edges):
            if len(acc) == best and {r for r, _ in acc} == {l for _, l in acc}:
                found = True
            return
        if len(acc) + (len(edges) - idx) < best:
            return
        r, l = edges[idx]
        if r not in used_r and l not in used_l:
            rec(idx + 1, used_r | {r}, used_l | {l}, acc + [(r, l)])
        rec(idx + 1, used_r, used_l, acc)

    rec(0, set(), set(), [])
    return found


def test_criterion_02_diagonalizability_equivalence():
    t0 = time.time()
    failures = 0
    # exhaustive at n = 3, with both conditions checked by enumeration
    for a in all_patterns(3):
        rep = is_generically_diagonalizable(a)
        cond_b = grank(a) == brute_force("v", a)[0]
        cond_c = _all_max_matchings_cycle_only(a)
        cond_mwmm = rep.mwmm_weight == 3 - rep.grank_A
        if not (cond_b == cond_c == cond_mwmm == rep.verdict):
            failures += 1
    # randomized at n in 4..8: the certificate witnesses condition (c) and
    # the permutation enumeration validates v up to n = 5
    rnd = random.Random(2024)
    for _ in range(5000):
        n = rnd.randint(4, 8)
        a = rand_square(rnd, n)
        rep = is_generically_diagonalizable(a)
        cond_mwmm = rep.mwmm_weight == n - rep.grank_A
        cycles, paths = certificate_components(a, rep.certificate)
        if rep.verdict:
            witness_ok = not paths and sum(len(c) for c in cycles) == rep.grank_A
        else:
            witness_ok = rep.v_A < rep.grank_A
        if cond_mwmm != rep.verdict or not witness_ok:
            failures += 1
        if n <= 5 and brute_force("v", a)[0] != rep.v_A:
            failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 60.0
    report(2, ok, "cycle-cover, witness-matching and minimum-weight criteria agree "
                  "on 512 exhaustive + 5000 random patterns",
           f"failures={failures}, {elapsed:.1f}s")


def test_criterion_03_numeric_dichotomy():
    t0 = time.time()
    agree = 0
    total = 500
    rnd = random.Random(777)
    for k in range(total):
        n = rnd.randint(2, 6)
        a = rand_square(rnd, n)
        verdict = is_generically_diagonalizable(a).verdict
        cfg = OracleConfig(seed=31_000 + k, trials=20)
        agree += diagonalizable_majority(a, cfg) == verdict
    elapsed = time.time() - t0
    rate = agree / total
    ok = rate >= 0.99 and elapsed < 300.0
    report(3, ok, "structural verdict matches the 20-trial numeric majority on "
                  "500 random patterns",
           f"agreement={rate:.1%}, {elapsed:.1f}s")


def test_criterion_04_scc_heredity():
    t0 = time.time()
    violations = 0
    rnd = random.Random(321)
    for _ in range(1000):
        n = rnd.randint(2, 8)
        a = rand_gen_diag(rnd, n)
        comps = scc(a)
        count = len(comps)
        if count > 10:
            continue
        for mask in range(1 << count):
            states: set[int] = set()
            for k in range(count):
                if mask >> k & 1:
                    states |= comps[k]
            if states and not is_generically_diagonalizable(a.induced(states)).verdict:
                violations += 1
    elapsed = time.time() - t0
    ok = violations == 0
    report(4, ok, "every component-union subgraph of 1000 diagonalizable patterns "
                  "is diagonalizable (exhaustive subsets)",
           f"violations={violations}, {elapsed:.1f}s")


def test_criterion_05_sfo_equivalence_suite():
    t0 = time.time()
    method_failures = 0
    oracle_agree = 0
    total = 2000
    rnd = random.Random(888)
    for k in range(total):
        n = rnd.randint(2, 8)
        a = rand_gen_diag(rnd, n)
        c = rand_pattern(rnd, rnd.randint(1, 3), n, rnd.uniform(0.2, 0.6))
        f = rand_pattern(rnd, rnd.randint(1, 2), n, rnd.uniform(0.2, 0.5))
        general = is_sfo(a, c, f).verdict
        if any(is_sfo_diag(a, c, f, cond).verdict != general for cond in ("b", "c", "d")):
            method_failures += 1
        cfg = OracleConfig(seed=55_000 + k, trials=2)
        rank_oc, rank_ocf = numeric_obs_rank(a, c, f, cfg)
        oracle_agree += general == (rank_oc == rank_ocf)
    elapsed = time.time() - t0
    rate = oracle_agree / total
    ok = method_failures == 0 and rate >= 0.99
    report(5, ok, "general and simplified SFO criteria agree on 2000 diagonalizable "
                  "triples and match the prime-field oracle",
           f"method_failures={method_failures}, oracle_agreement={rate:.1%}, {elapsed:.1f}s")


def test_criterion_06_sensor_optimality():
    t0 = time.time()
    failures = 0
    rnd = random.Random(1606)
    done = 0
    while done < 300:
        n = rnd.randint(2, 5)
        a = rand_gen_diag(rnd, n)
        f = rand_pattern(rnd, rnd.randint(1, 2), n, rnd.uniform(0.3, 0.7))
        if not functional_states(f):
            continue
        placement = min_sensors_diag(a, f)
        best, _ = brute_force("min-sensors", a, f)
        feasible = is_sfo(a, placement.C_out, f).verdict
        if placement.p_star != best or not feasible:
            failures += 1
        done += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 600.0
    report(6, ok, "weighted-matching sensor placement equals the exhaustive optimum "
                  "on 300 diagonalizable instances",
           f"failures={failures}, {elapsed:.1f}s")


def test_criterion_07_general_case_bound():
    t0 = time.time()
    failures = 0
    rnd = random.Random(1707)
    done = 0
    while done < 300:
        n = rnd.randint(2, 5)
        a = rand_square(rnd, n)
        f = rand_pattern(rnd, rnd.randint(1, 2), n, rnd.uniform(0.3, 0.7))
        if not functional_states(f):
            continue
        iterative = min_sensors_iterative(a, f)
        matching = min_sensors_matching(a, f)
        best, _ = brute_min_sensors_constrained(a, f)
        ok_one = (
            iterative.p_star == matching.p_star == best
            and is_sfo(a, iterative.C_out, f).verdict
            and is_sfo(a, matching.C_out, f).verdict
        )
        failures += not ok_one
        done += 1
    elapsed = time.time() - t0
    ok = failures == 0
    report(7, ok, "iterative and matching-based sensor placements agree and are "
                  "minimal under the functional-support constraint on 300 instances",
           f"failures={failures}, {elapsed:.1f}s")


def test_criterion_08_actuator_optimality():
    t0 = time.time()
    failures = 0
    rnd = random.Random(1808)
    done = 0
    while done < 300:
        n = rnd.randint(2, 5)
        a = rand_gen_diag(rnd, n)
        p = rnd.randint(1, min(3, n))
        c = rand_pattern(rnd, p, n, rnd.uniform(0.3, 0.7))
        if grank(c) != p:
            continue
        placement = min_actuators_diag(a, c)
        closed_form = max(1, p - linking_size(a, Pattern(n, 0), c))
        best, _ = brute_force("min-actuators", a, c)
        soc_ok = is_soc(a, placement.B_out, c).verdict == "soc"
        if placement.m_star != closed_form or placement.m_star != best or not soc_ok:
            failures += 1
        done += 1
    elapsed = time.time() - t0
    ok = failures == 0
    report(8, ok, "flow-based actuator placement equals the closed form and the "
                  "exhaustive optimum on 300 diagonalizable instances",
           f"failures={failures}, {elapsed:.1f}s")


def test_criterion_09_soc_oracle_agreement():
    t0 = time.time()
    agree = 0
    total = 2000
    rnd = random.Random(1909)
    done = 0
    while done < total:
        n = rnd.randint(2, 8)
        a = rand_gen_diag(rnd, n) if rnd.random() < 0.5 else rand_square(rnd, n)
        b = rand_pattern(rnd, n, rnd.randint(1, 3), rnd.uniform(0.2, 0.6))
        c = rand_pattern(rnd, rnd.randint(1, 3), n, rnd.uniform(0.2, 0.6))
        rep = is_soc(a, b, c)
        if not rep.precondition_holds:
            continue
        cfg = OracleConfig(seed=77_000 + done, trials=2)
        numeric = any(
            numeric_output_controllable(
                sample_field_realization(a, cfg, t, stream=1),
                sample_field_realization(b, cfg, t, stream=2),
                sample_field_realization(c, cfg, t, stream=3),
                cfg,
            )
            for t in range(cfg.trials)
        )
        agree += (rep.verdict == "soc") == numeric
        done += 1
    elapsed = time.time() - t0
    rate = agree / total
    ok = rate >= 0.99
    report(9, ok, "decided SOC verdicts match the numeric controllability-product "
                  "rank on 2000 triples",
           f"agreement={rate:.1%}, {elapsed:.1f}s")


def test_criterion_10_monotonicity():
    t0 = time.time()
    falsified = 0
    rnd = random.Random(2010)
    done = 0
    while done < 1000:
        n = rnd.randint(2, 6)
        a = rand_square(rnd, n)
        f = rand_pattern(rnd, 1, n, rnd.uniform(0.3, 0.7))
        states = sorted(functional_states(f))
        if not states:
            continue
        # start from a known-SFO output: the matching-based placement, or a
        # rejection-sampled random one
        if rnd.random() < 0.7:
            c = min_sensors_matching(a, f).C_out
        else:
            c = rand_pattern(rnd, rnd.randint(1, 3), n, rnd.uniform(0.3, 0.7))
            if not is_sfo(a, c, f).verdict:
                continue
        adds = [
            (rnd.choice(states), rnd.randint(1, c.rows))
            for _ in range(rnd.randint(1, 4))
        ]
        if not sfo_preserved_under_functional_edge_addition(a, c, f, adds):
            falsified += 1
        done += 1
    elapsed = time.time() - t0
    ok = falsified == 0
    report(10, ok, "wiring functional states into existing sensors never destroys "
                   "SFO over 1000 randomized additions",
           f"falsified={falsified}, {elapsed:.1f}s")


def test_criterion_11_reconstructed_fixtures():
    failures = []

    soc_meta = fixture_meta("example_soc")
    sys_soc = load_system(fixture_path("example_soc"))
    rep = is_soc(sys_soc.A, sys_soc.B, sys_soc.C)
    if not (
        soc_meta["reconstruction"]
        and rep.verdict == "soc"
        and rep.grank_ArB == 3
        and rep.grank_QAB == 3
        and rep.linking == 2
        and sorted(frozenset(range(1, 6)) - rep.input_unreachable) == [1, 2, 3, 4]
    ):
        failures.append("soc")

    sensor_meta = fixture_meta("example_sensor_general")
    sys_sen = load_system(fixture_path("example_sensor_general"))
    ixf = dedicated_rows(6, functional_states(sys_sen.F))
    g, q = cactus_bigraph(sys_sen.A, ixf)
    cactus = cactus_size(sys_sen.A, ixf)
    alg3 = min_sensors_matching(sys_sen.A, sys_sen.F)
    if not (
        sensor_meta["reconstruction"]
        and not is_generically_diagonalizable(sys_sen.A).verdict
        and g.weight(cactus.certificate) == 14
        and alg3.C_out.nonzeros == {(1, 3), (2, 4)}
        and min_sensors_iterative(sys_sen.A, sys_sen.F).p_star == 2
        and brute_force("min-sensors", sys_sen.A, sys_sen.F, cap=6)[0] == 2
        and max(grank(stack(sys_sen.A, ixf)) - grank(sys_sen.A), 1) == 1
    ):
        failures.append("sensor-general")

    act_meta = fixture_meta("example_actuator")
    sys_act = load_system(fixture_path("example_actuator"))
    placement = min_actuators_diag(sys_act.A, sys_act.C)
    if not (
        act_meta["reconstruction"]
        and placement.m_star == 1
        and placement.X_f1 == {2}
        and placement.X_f2 == {2, 4}
        and placement.B_out == Pattern(5, 1, {(2, 1)})
    ):
        failures.append("actuator")

    alg1_meta = fixture_meta("example_alg1")
    sys_alg1 = load_system(fixture_path("example_alg1"))
    placement1 = min_sensors_diag(sys_alg1.A, sys_alg1.F)
    if not (
        alg1_meta["reconstruction"]
        and placement1.p_star == 1
        and placement1.X_S == {2, 4}
        and placement1.X_F_unmatched == {6}
    ):
        failures.append("alg1")

    counter_meta = fixture_meta("example_counter")
    if counter_meta["reconstruction"]:  # this one is verbatim, not rebuilt
        failures.append("counter-meta")

    ok = not failures
    report(11, ok, "figure-based examples are shipped as flagged reconstructions "
                   "matching every reported aggregate",
           f"failures={failures}" if failures else "4 reconstructions + 1 verbatim")
