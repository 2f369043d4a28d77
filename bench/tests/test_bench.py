"""Tests of the benchmark's own code.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import random
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402


def test_generators_are_deterministic_per_seed():
    assert gen.verdicts_family() == gen.verdicts_family()
    assert gen.placement_family() == gen.placement_family()
    family = gen.verdicts_family()
    assert gen.relabelled(family, "verdicts", 3) == gen.relabelled(family, "verdicts", 3)
    assert gen.relabelled(family, "verdicts", 3) != gen.relabelled(family, "verdicts", 4)


def test_verdicts_family_follows_its_definition():
    family = gen.verdicts_family()
    assert len(family) == gen.VERDICT_POOL
    for k, doc in enumerate(family):
        n = doc["n"]
        assert gen.VERDICT_N[0] <= n <= gen.VERDICT_N[1]
        assert doc["m"] == doc["r"] == max(1, n // 10)
        dense = k % gen.DENSE_EVERY == gen.DENSE_EVERY - 1
        assert doc["p"] == (max(1, n // 2) if dense else max(1, n // 10))
        if k % gen.SELF_LOOP_EVERY == 2:
            assert all([i, i] in doc["A"] for i in range(1, n + 1))


def test_sizes_are_spread_over_every_prefix():
    order = gen.prefix_balanced(64)
    assert sorted(order) == list(range(64))
    for prefix in (2, 8, 32):
        assert sorted(order[:prefix]) == list(range(0, 64, 64 // prefix))
    sizes = gen.spread_sizes(random.Random(1), 64, 16, 80)
    assert all(16 <= n <= 80 for n in sizes) and sorted(sizes) == sorted(
        gen.spread_sizes(random.Random(1), 64, 16, 80)
    )


def test_relabel_is_an_isomorphism():
    doc = gen.verdict_system(random.Random(5), 30)
    new, perm = gen.relabel(doc, random.Random(6))
    assert sorted(perm[1:]) == list(range(1, 31))
    assert {k: new[k] for k in "nmpr"} == {k: doc[k] for k in "nmpr"}
    assert sorted([perm[i], perm[j]] for i, j in doc["A"]) == new["A"]
    for key in "BCF":
        assert len(new[key]) == len(doc[key])


def test_placement_systems_are_diagonalizable_by_construction():
    from structsys import Pattern, grank, is_generically_diagonalizable

    for doc in gen.placement_family():
        n, p = doc["n"], doc["p"]
        A = Pattern(n, n, frozenset(map(tuple, doc["A"])))
        C = Pattern(p, n, frozenset(map(tuple, doc["C"])))
        rep = is_generically_diagonalizable(A)
        assert rep.verdict and rep.grank_A == round(0.7 * n)
        assert grank(C) == p


def test_self_time_subtracts_the_time_children_cover():
    spans_ = [
        ["op", 0.0, 10.0, -1, 0, None],
        ["a", 1.0, 3.0, 0, 0, None],
        ["b", 5.0, 6.0, 0, 0, None],
        ["c", 1.5, 2.5, 1, 0, None],
    ]
    assert spans.self_times(spans_) == [7.0, 1.0, 1.0, 1.0]
    overlapping = [["op", 0.0, 10.0, -1, 0, None], ["a", 1.0, 4.0, 0, 0, None], ["b", 3.0, 12.0, 0, 0, None]]
    assert spans.self_times(overlapping)[0] == 1.0


def test_percentile_rule():
    values = [random.Random(k).random() for k in range(100)]
    ordered = sorted(values)
    assert run.percentile(values, 50) == statistics.median(values)
    assert abs(run.percentile(values, 90) - statistics.quantiles(values, n=10, method="inclusive")[-1]) < 1e-12
    # 100 samples are the fewest that leave ten beyond the 90th percentile
    assert run.beyond(values, run.percentile(values, 90)) == run.TAIL
    assert run.beyond(values[:90], run.percentile(values[:90], 90)) < run.TAIL
    hd = run.hd_percentile(values, 90)
    assert ordered[85] < hd < ordered[94]
    assert run.hd_percentile([0.5] * 7, 90) == 0.5
    symmetric = [k / 100 for k in range(101)]
    assert abs(run.hd_percentile(symmetric, 50) - 0.5) < 1e-9
    assert run.hd_percentile(values, 50) < hd


def test_tracer_patches_every_alias_and_restores_them():
    import structsys.cli
    from structsys import Pattern

    # ``structsys.grank`` is the function the package re-exports, not the module
    aliases = [sys.modules[f"structsys.{name}"] for name in ("combinat", "grank", "cli")]
    original = aliases[0].min_cost_max_flow
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod in aliases:
            assert mod.min_cost_max_flow is not original
        op = tracer.begin(spans.OP)
        sys.modules["structsys"].cactus_size(Pattern(2, 2, {(1, 2), (2, 1)}), Pattern(1, 2, {(1, 1)}))
        tracer.end(op)
    finally:
        tracer.uninstall()
    for mod in aliases:
        assert mod.min_cost_max_flow is original
    names = [s[0] for s in tracer.spans]
    assert "combinat.min_cost_max_flow" in names and "core.Pattern.__post_init__" in names
    flow = names.index("combinat.min_cost_max_flow")
    chain = []
    idx = flow
    while idx >= 0:
        chain.append(tracer.spans[idx][0])
        idx = tracer.spans[idx][3]
    assert chain == [
        "combinat.min_cost_max_flow",
        "combinat.extremal_weight_max_matching",
        "grank.cactus_size",
        spans.OP,
    ]
    metrics = spans.layer_metrics(tracer.spans, 1, ())
    assert metrics["combinat.min_cost_max_flow.calls"] == 1
    assert 0 < metrics["combinat.share"] < 1


def test_sfo_ratios_count_per_state_solves():
    s = [["sfo.is_sfo", 0.0, 1.0, -1, 0, {"failing": 1}]]
    s += [["grank.cactus_size", 0.1 * k, 0.1 * k + 0.05, 0, 0, None] for k in range(5)]
    metrics = spans.layer_metrics(s, 1, ())
    assert metrics["sfo.is_sfo.cactus_solves_per_call"] == 5
    assert metrics["sfo.is_sfo.failing_hit_ratio"] == 1 / 3


def test_speed_factors_use_the_samples_around_each_op():
    samples = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    f = [x / speed.NOMINAL_S for x in speed.factors(samples)]
    # op k ran between samples k and k+1; WINDOW samples on each side count
    assert len(f) == len(samples) - 1
    assert f[0] == 1.0 and f[2] == 1 / 1.5 and f[5] == 0.5
