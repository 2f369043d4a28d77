"""Generic rank, cycle covers, cactus configurations and linkings."""

from __future__ import annotations

import random

import pytest

from structsys import (
    OracleConfig,
    Pattern,
    brute_force,
    cactus_size,
    cycle_cover_max,
    grank,
    hstack,
    input_cactus_size,
    is_sfo,
    linking_size,
    numeric_grank,
    numeric_obs_rank,
    stack,
    unit_row,
)
from structsys.cli import parse_system
from structsys.combinat import extremal_weight_max_matching, matching_network
from structsys.grank import cactus_bigraph, cactus_count, output_reachable_states
from structsys.oracle import field_rank, sample_field_realization
from support import (
    COUNTER_A,
    COUNTER_C,
    COUNTER_F,
    FIXTURE_NAMES,
    bench_gen,
    chain_pattern,
    count_searches,
    eye,
    fixture_path,
    rand_pattern,
    rand_square,
    reference_cactus_bigraph,
    reference_spare_row_cactus,
)

SOC_A = Pattern(5, 5, {(2, 1), (3, 2), (4, 1), (4, 5)})
SOC_B = Pattern(5, 1, {(1, 1)})
SOC_C = Pattern(2, 5, {(1, 3), (2, 4)})
SOC_A_R = Pattern(5, 5, {(2, 1), (3, 2), (4, 1)})


def test_grank_counterexample_stacks():
    assert grank(stack(COUNTER_A, COUNTER_C)) == 3
    assert grank(stack(stack(COUNTER_A, COUNTER_C), COUNTER_F)) == 4
    assert grank(Pattern(3, 3)) == 0


def test_cycle_cover_counterexample():
    assert cycle_cover_max(COUNTER_A) == 1
    assert brute_force("v", COUNTER_A) == (1, ((4,),))


def test_cycle_cover_trivia():
    assert cycle_cover_max(Pattern(2, 2, {(2, 1)})) == 0  # acyclic chain
    assert cycle_cover_max(Pattern(2, 2, {(1, 2), (2, 1)})) == 2
    with pytest.raises(ValueError):
        cycle_cover_max(Pattern(2, 3))


def test_cycle_cover_matches_enumeration():
    rnd = random.Random(9)
    for _ in range(60):
        a = rand_square(rnd, rnd.randint(1, 5))
        assert cycle_cover_max(a) == brute_force("v", a)[0]


def test_cycle_cover_bounded_by_grank():
    rnd = random.Random(10)
    for _ in range(60):
        a = rand_square(rnd, rnd.randint(1, 7))
        assert cycle_cover_max(a) <= grank(a)


def test_cactus_counterexample():
    rep = cactus_size(COUNTER_A, COUNTER_C)
    assert (rep.size, rep.stems) == (3, 2)
    size, (stems, _config) = brute_force("cactus", COUNTER_A, COUNTER_C)
    assert (size, stems) == (3, 2)


def test_cactus_identity_output_covers_all():
    rnd = random.Random(11)
    for _ in range(20):
        n = rnd.randint(1, 6)
        a = rand_square(rnd, n)
        assert cactus_size(a, eye(n)).size == n


def test_cactus_empty_output():
    assert cactus_size(COUNTER_A, Pattern(0, 4)).size == 0
    assert cactus_size(COUNTER_A, Pattern(0, 4)).stems == 0


def test_cactus_rejects_mismatch():
    with pytest.raises(ValueError):
        cactus_size(COUNTER_A, Pattern(1, 3))


def test_cactus_matches_enumeration():
    rnd = random.Random(12)
    for _ in range(30):
        n = rnd.randint(1, 5)
        a = rand_square(rnd, n)
        c = rand_pattern(rnd, rnd.randint(0, 2), n, 0.4)
        rep = cactus_size(a, c)
        size, (stems, _config) = brute_force("cactus", a, c)
        assert (rep.size, rep.stems) == (size, stems)


def test_input_cactus_soc_example():
    assert input_cactus_size(SOC_A, SOC_B) == 3


def test_input_cactus_trivia():
    n = 4
    assert input_cactus_size(Pattern(n, n), eye(n)) == n
    assert input_cactus_size(COUNTER_A, Pattern(4, 1)) == 0
    with pytest.raises(ValueError):
        input_cactus_size(COUNTER_A, Pattern(3, 1))


def test_linking_soc_example():
    assert linking_size(SOC_A_R, SOC_B, SOC_C) == 2


def test_linking_trivia():
    n = 3
    a = Pattern(n, n, {(1, 2)})
    assert linking_size(a, Pattern(n, 1), Pattern(2, n)) == 0  # zero C
    assert linking_size(a, eye(n), eye(n)) == n
    with pytest.raises(ValueError):
        linking_size(a, Pattern(2, 1), eye(n))


# ---------------------------------------------------------------------------
# oracle cross-checks


def test_grank_matches_field_rank():
    # one prime-field realization almost always attains the generic rank
    rnd = random.Random(13)
    cfg = OracleConfig(seed=77, trials=1)
    agree = 0
    total = 0
    for k in range(50):
        p = rand_pattern(rnd, rnd.randint(1, 8), rnd.randint(1, 8), rnd.uniform(0.1, 0.7))
        g = grank(p)
        for t in range(20):
            real = sample_field_realization(p, cfg, 1000 * k + t)
            r = field_rank(real.dense(), cfg.modulus)
            assert r <= g  # realization rank never exceeds the generic rank
            total += 1
            agree += r == g
    assert agree / total >= 0.999


def test_cactus_matches_numeric_observability_rank():
    rnd = random.Random(14)
    agree = 0
    total = 0
    for k in range(100):
        n = rnd.randint(1, 6)
        a = rand_square(rnd, n)
        c = rand_pattern(rnd, rnd.randint(1, 3), n, 0.4)
        d = cactus_size(a, c).size
        for t in range(5):
            cfg = OracleConfig(seed=300 + 31 * k + t, trials=1)
            rank_oc, _ = numeric_obs_rank(a, c, None, cfg)
            assert rank_oc <= d
            total += 1
            agree += rank_oc == d
    assert agree / total >= 0.999


def test_linking_matches_numeric_product_rank():
    rnd = random.Random(15)
    cfg = OracleConfig(seed=400, trials=1)

    def matmul(x, y, q):
        cols = list(zip(*y))
        return [[sum(a * b for a, b in zip(row, col)) % q for col in cols] for row in x]

    agree = 0
    total = 0
    for k in range(120):
        n = rnd.randint(1, 6)
        a_r = rand_square(rnd, n)
        b = rand_pattern(rnd, n, rnd.randint(0, 2), 0.4)
        c = rand_pattern(rnd, rnd.randint(1, 3), n, 0.4)
        link = linking_size(a_r, b, c)
        arb = hstack(a_r, b)
        c_real = sample_field_realization(c, cfg, k, stream=1).dense()
        arb_real = sample_field_realization(arb, cfg, k, stream=2).dense()
        product = matmul(c_real, arb_real, cfg.modulus)
        r = field_rank(product, cfg.modulus)
        assert r <= link
        total += 1
        agree += r == link
    assert agree / total >= 0.99


def test_numeric_grank_counterexample():
    cfg = OracleConfig(seed=5, trials=3)
    assert numeric_grank(stack(COUNTER_A, COUNTER_C), cfg) == 3


def test_grank_long_augmenting_chain():
    # an augmenting path through 2000 columns once overflowed the recursion
    assert grank(chain_pattern(2000)) == 2000


def test_cactus_shape_is_decoded_from_the_certificate_edges():
    # the weight decode gives what counting stem and covering edges gives
    rnd = random.Random(13)
    for _ in range(300):
        n = rnd.randint(1, 8)
        a = rand_square(rnd, n, rnd.uniform(0.05, 0.5))
        c = rand_pattern(rnd, rnd.randint(0, 4), n, rnd.uniform(0.05, 0.6))
        rep = cactus_size(a, c)
        g, q = cactus_bigraph(a, c)
        stems = sum(1 for r, l in rep.certificate.edges if r <= n < l)
        covering = sum(
            1 for r, l in rep.certificate.edges if r <= n and l <= n and g.cost(r, l) == q + 1
        )
        assert (rep.size, rep.stems) == (stems + covering, stems)


def test_cactus_count_prices_every_unit_row():
    # one residual search from the sink finds the states whose unit row
    # raises the size, reachable or not, as one cactus solve per state does
    rnd = random.Random(14)
    raised_some = 0
    for trial in range(400):
        n = rnd.randint(1, 9)
        a = rand_square(rnd, n, rnd.uniform(0.05, 0.5))
        p = rnd.randint(0, 3) if trial % 2 else rnd.randint((n + 1) // 2, n)
        c = rand_pattern(rnd, p, n, rnd.uniform(0.05, 0.5))
        d = cactus_size(a, c).size
        base = cactus_count(a, c)
        assert (base.size, base.network.sink) == (d, 2 * n + p + 1)
        expected = frozenset(
            i for i in range(1, n + 1) if cactus_size(a, stack(c, unit_row(n, i))).size > d
        )
        assert base.raising_states(range(1, n + 1)) == expected
        assert base.raising_states(()) == frozenset()
        raised_some += bool(expected & output_reachable_states(a, c))
    assert raised_some >= 20


def _prices_as_the_spare_row(a: Pattern, c: Pattern, seen: dict[str, int]) -> None:
    """cactus_count(a, c) against the solve of (a, [c; 0]) searched from its
    empty row y': the same size and raising states, and the same flow and
    potentials on the arcs and nodes the two networks share."""
    ours, ref = cactus_count(a, c), reference_spare_row_cactus(a, c)
    states = range(1, a.rows + 1)
    raising = ours.raising_states(states)
    assert (ours.size, raising) == (ref.size, ref.raising_states(states))
    # [c; 0] adds y' as the node before the sink and its sink arc as the last arc
    assert ref.flow.arc_flow == ours.flow.arc_flow + (0,)
    assert ref.flow.potentials[:-2] + ref.flow.potentials[-1:] == ours.flow.potentials
    reach = output_reachable_states(a, c)
    seen["unreachable raising"] += len(raising - reach)
    seen["reachable raising"] += len(raising & reach)
    seen["raising nothing"] += not raising


def test_sink_search_prices_as_the_spare_row_search():
    from structsys.cli import load_system

    seen = {"unreachable raising": 0, "reachable raising": 0, "raising nothing": 0}
    for name in FIXTURE_NAMES:
        s = load_system(fixture_path(name))
        for c in (s.C, stack(s.C, s.F)):
            _prices_as_the_spare_row(s.A, c, seen)
    gen = bench_gen()
    for doc in gen.verdicts_family() + gen.placement_family():
        s = parse_system(doc)
        for c in (s.C, stack(s.C, s.F)):
            _prices_as_the_spare_row(s.A, c, seen)
    rnd = random.Random(16)
    shapes = {"n = 0": 0, "p = 0": 0}
    for trial in range(3000):
        n = rnd.randint(0, 10) if trial % 20 else 0
        p = rnd.randint(0, 4) if trial % 7 else 0
        a = rand_square(rnd, n, rnd.uniform(0.05, 0.5))
        c = rand_pattern(rnd, p, n, rnd.uniform(0.05, 0.5))
        shapes["n = 0"] += n == 0
        shapes["p = 0"] += p == 0
        _prices_as_the_spare_row(a, c, seen)
    assert min(shapes.values()) >= 150, shapes
    assert seen["unreachable raising"] >= 4000 and seen["reachable raising"] >= 500, seen
    assert seen["raising nothing"] >= 600, seen


def _reference_cactus(a: Pattern, c: Pattern) -> tuple[int, int, int]:
    """(weight, size, stems) of a maximum-weight maximum matching of the
    cactus bigraph with its p·n return edges listed one by one."""
    g, q = reference_cactus_bigraph(a, c)
    weight = g.weight(extremal_weight_max_matching(g, "maximize")[0])
    size = -(-weight // (q + 1))
    return weight, size, (q + 1) * size - weight


def test_states_only_cactus_equals_the_listed_reference():
    # cactus_size, input_cactus_size and cactus_count against the
    # materialised block, on n = 0..9 with p = 0, p >= n/2 and all-zero rows
    rnd = random.Random(15)
    seen = {"p = 0": 0, "n = 0": 0, "p >= n/2": 0, "zero row": 0}
    for trial in range(1200):
        n = rnd.randint(0, 9) if trial % 10 else 0
        a = rand_square(rnd, n, rnd.uniform(0.05, 0.5))
        p = (0, rnd.randint(1, 3), rnd.randint((n + 1) // 2, n + 1))[trial % 3]
        c = rand_pattern(rnd, p, n, rnd.uniform(0.05, 0.5))
        if trial % 4 == 3:
            c = c.zeroed(rows=rnd.sample(range(1, p + 1), p // 2))
        seen["p = 0"] += p == 0
        seen["n = 0"] += n == 0
        seen["p >= n/2"] += 2 * p >= n > 0
        seen["zero row"] += p > len({i for i, _ in c.nonzeros})

        g, q = cactus_bigraph(a, c)
        ref, ref_q = reference_cactus_bigraph(a, c)
        # the states alone are right vertices: the listed bigraph less its
        # output right vertices, their loops and their return edges
        assert (g.right, g.left, q) == (n, n + p, ref_q)
        assert g.edges == tuple(e for e in ref.edges if e[0] <= n)
        weight, size, stems = _reference_cactus(a, c)
        rep = cactus_size(a, c)
        assert (rep.size, rep.stems) == (size, stems)
        # the certificate is a matching of the listed bigraph (cost raises
        # KeyError on a pair that is not an edge of it), of the same weight
        assert ref.weight(rep.certificate) == g.weight(rep.certificate) == weight
        assert rep.certificate.size == n

        m = rnd.randint(0, 3)
        b = rand_pattern(rnd, n, m, rnd.uniform(0.05, 0.5))
        assert input_cactus_size(a, b) == _reference_cactus(a.transpose(), b.transpose())[1]

        count = cactus_count(a, c)
        _, size0, _ = _reference_cactus(a, stack(c, Pattern(1, n)))
        assert (count.size, count.flow.cost) == (size0, n - size0) and size0 == size
        assert count.network.sink == 2 * n + p + 1
        raising = frozenset(
            i for i in range(1, n + 1) if _reference_cactus(a, stack(c, unit_row(n, i)))[1] > size
        )
        assert count.raising_states(range(1, n + 1)) == raising
    assert min(seen.values()) >= 100, seen


def test_size_only_cactus_equals_cactus_size_on_the_bench_systems():
    # the 0/1-cost solve against the stem-counting one, for [C; 0], [C; F]
    # and the input cactus (A^T, B^T), on every benchmark system
    gen = bench_gen()
    for doc in gen.verdicts_family() + gen.placement_family():
        s = parse_system(doc)
        a, b, c, f = s.A, s.B, s.C, s.F
        for left, right in (
            (a, stack(c, Pattern(1, s.n))),
            (a, stack(c, f)),
            (a.transpose(), b.transpose()),
        ):
            assert cactus_count(left, right).size == cactus_size(left, right).size
        assert cactus_count(a, c).size == cactus_size(a, c).size
        assert input_cactus_size(a, b) == cactus_size(a.transpose(), b.transpose()).size


def test_size_only_solves_take_few_searches(monkeypatch):
    # Dijkstra searches, residual ones included, on fresh patterns of the
    # unrelabelled benchmark families; the stem-counting solves took 557 and
    # 531 for is_sfo and 234 for the verdicts family's input cactus
    gen = bench_gen()
    searches, _ = count_searches(monkeypatch)
    for family, sfo_bound, input_bound in (
        (gen.verdicts_family(), 266, 11),
        (gen.placement_family(), 233, None),
    ):
        sfo = inputs = 0
        for doc in family:
            s = parse_system(doc)
            searches.clear()
            is_sfo(s.A, s.C, s.F)
            sfo += len(searches)
            s = parse_system(doc)
            searches.clear()
            input_cactus_size(s.A, s.B)
            inputs += len(searches)
        assert sfo <= sfo_bound
        assert input_bound is None or inputs <= input_bound


def test_states_only_cactus_network_has_one_arc_per_edge_and_vertex():
    # n = 800, p = 80: n source arcs, one arc per edge and n + p sink arcs,
    # 5033 in all, where the listed return block gives 69193
    gen = bench_gen()
    doc = gen.verdict_system(random.Random(0), 800)
    n, p = doc["n"], doc["p"]
    a = Pattern(n, n, frozenset(map(tuple, doc["A"])))
    c = Pattern(p, n, frozenset(map(tuple, doc["C"])))
    g, _ = cactus_bigraph(a, c)
    net = matching_network(g, "maximize")
    assert (n, p) == (800, 80)
    assert len(net.arcs) == 2 * n + p + len(g.edges) == 5033
    assert net.nodes == 2 * n + p + 2
