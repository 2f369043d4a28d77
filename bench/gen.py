"""Seeded instance generators for the benchmark workloads.

Every generator returns a system in the on-disk document format of
``structsys.cli`` (``n m p r`` plus 1-based ``[row, col]`` entry lists) and
never imports the library, so generation time does not depend on analysis
speed. The same seed always gives the same systems.

Each workload's systems are drawn once, from ``FAMILY_SEED``; the run seed
relabels them (a random permutation of the states and of the input, output
and functional rows) and nothing else. Fresh draws per seed would change
the work mix: a verdicts system that fails SFO re-solves the cactus once
per functional state, and among 120 fresh systems 41 to 52 failed,
depending on the seed. Relabelling keeps the work equal up to isomorphism
while changing every index the engines scan in, and makes each run a
metamorphic check: verdicts, sizes and failing states mapped back through
the permutation must equal the stored digest.
"""

from __future__ import annotations

import random

FAMILY_SEED = 0
VERDICT_N = (16, 80)
PLACEMENT_N = (20, 64)
CLI_GRANK_N = (1000, 2000, 4000)
CLI_SMALL_N = (60, 150)
CHAIN_N = 2000

VERDICT_POOL = 120
DENSE_EVERY = 5  # one verdicts system in five has p = n/2 outputs
SELF_LOOP_EVERY = 20  # one in twenty has every diagonal entry of A
PLACEMENT_POOL = 80


def _doc(n: int, A, B=(), C=(), F=(), m: int = 0, p: int = 0, r: int = 0) -> dict:
    def arr(entries) -> list[list[int]]:
        return [list(e) for e in sorted(set(map(tuple, entries)))]

    return {"n": n, "m": m, "p": p, "r": r, "A": arr(A), "B": arr(B), "C": arr(C), "F": arr(F)}


def _draw_rows(rnd: random.Random, rows: int, cols: int, draws: int) -> set[tuple[int, int]]:
    return {(i, rnd.randint(1, cols)) for i in range(1, rows + 1) for _ in range(draws)}


def verdict_system(rnd: random.Random, n: int, dense_output: bool = False, self_loops: bool = False) -> dict:
    """The baseline family: A with 3 column draws per row, C and F with n/10
    rows of 2 draws, B n x (n/10) with 1 draw per row. A dense-output system
    has n/2 output rows instead; an all-self-loop one adds every diagonal
    entry to A."""
    k = max(1, n // 10)
    p = max(1, n // 2) if dense_output else k
    a = _draw_rows(rnd, n, n, 3)
    if self_loops:
        a |= {(i, i) for i in range(1, n + 1)}
    b = _draw_rows(rnd, n, k, 1)
    c = _draw_rows(rnd, p, n, 2)
    f = _draw_rows(rnd, k, n, 2)
    return _doc(n, a, b, c, f, m=k, p=p, r=k)


def placement_system(rnd: random.Random, n: int) -> dict:
    """A generically diagonalizable system by construction.

    A random permutation of a random 70 % state subset S is a cycle cover of
    S; every column outside S is zero and n extra entries have their column
    in S, so grank(A) = v_A = |S|. C has n/10 rows, each with its own
    dedicated column plus one draw, so it has full generic row rank. F has
    n/8 rows of 2 draws.
    """
    s = sorted(rnd.sample(range(1, n + 1), round(0.7 * n)))
    image = s[:]
    rnd.shuffle(image)
    a = {(image[k], j) for k, j in enumerate(s)}
    a |= {(rnd.randint(1, n), rnd.choice(s)) for _ in range(n)}
    p, r = max(1, n // 10), max(1, n // 8)
    dedicated = rnd.sample(range(1, n + 1), p)
    c = {(i, dedicated[i - 1]) for i in range(1, p + 1)} | _draw_rows(rnd, p, n, 1)
    f = _draw_rows(rnd, r, n, 2)
    return _doc(n, a, C=c, F=f, p=p, r=r)


def chain_system(n: int) -> dict:
    """The chain {(r, r), (r+1, r)} plus (1, n): one long augmenting path."""
    a = {(i, i) for i in range(1, n + 1)} | {(i + 1, i) for i in range(1, n)} | {(1, n)}
    return _doc(n, a)


def spread_sizes(rnd: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` sizes drawn uniformly from lo..hi, one per equal-width
    stratum, listed in ``prefix_balanced`` order: a run that stops part way
    through the list still sees small and large systems in proportion."""
    width = (hi - lo + 1) / count
    sizes = [lo + int((k + rnd.random()) * width) for k in range(count)]
    return [sizes[k] for k in prefix_balanced(count)]


def prefix_balanced(count: int) -> list[int]:
    """0..count-1 in bit-reversed order: for count a power of two, the first
    2^j entries are the multiples of count / 2^j."""
    bits = max(1, (count - 1).bit_length())
    order = sorted(range(1 << bits), key=lambda k: int(f"{k:0{bits}b}"[::-1], 2))
    return [k for k in order if k < count]


def relabel(doc: dict, rnd: random.Random) -> tuple[dict, list[int]]:
    """The same system under random permutations of states, inputs, outputs
    and functional rows. Returns the new document and the state map
    ``perm`` (old state i is new state ``perm[i]``; ``perm[0]`` unused)."""
    n, m, p, r = doc["n"], doc["m"], doc["p"], doc["r"]

    def shuffled(size: int) -> list[int]:
        image = list(range(1, size + 1))
        rnd.shuffle(image)
        return [0] + image

    x, u, y, z = shuffled(n), shuffled(m), shuffled(p), shuffled(r)
    out = _doc(
        n,
        ((x[i], x[j]) for i, j in doc["A"]),
        ((x[i], u[j]) for i, j in doc["B"]),
        ((y[i], x[j]) for i, j in doc["C"]),
        ((z[i], x[j]) for i, j in doc["F"]),
        m=m,
        p=p,
        r=r,
    )
    return out, x


def verdicts_family() -> list[dict]:
    rnd = random.Random(f"verdicts/{FAMILY_SEED}")
    sizes = spread_sizes(rnd, VERDICT_POOL, *VERDICT_N)
    return [
        verdict_system(
            rnd,
            n,
            dense_output=k % DENSE_EVERY == DENSE_EVERY - 1,
            self_loops=k % SELF_LOOP_EVERY == 2,
        )
        for k, n in enumerate(sizes)
    ]


def placement_family() -> list[dict]:
    rnd = random.Random(f"placement/{FAMILY_SEED}")
    return [placement_system(rnd, n) for n in spread_sizes(rnd, PLACEMENT_POOL, *PLACEMENT_N)]


def relabelled(family: list[dict], workload: str, seed: int) -> list[tuple[dict, list[int]]]:
    rnd = random.Random(f"{workload}/relabel/{seed}")
    return [relabel(doc, rnd) for doc in family]
