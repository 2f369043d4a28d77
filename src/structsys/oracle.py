"""Independent ground truth for the structural analyses.

Two kinds of oracle live here. Randomized numeric realizations check rank
statements exactly over a prime field (no tolerance tuning, with the usual
polynomial-identity failure bound) and check eigenstructure statements in
floating point. Exhaustive searchers certify the small-instance optima that
the placement algorithms claim.

Random streams are derived per trial from (seed, trial index), so trials are
order-independent and aggregate results do not depend on execution order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import index
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:  # numpy is imported inside the numeric oracles that use it
    import numpy as np

from .core import Pattern, check_shapes
from .grank import output_reachable_states
from .sfo import functional_states, sfo_feasible
from .soc import is_soc


@dataclass(frozen=True, slots=True)
class OracleConfig:
    seed: int = 0
    trials: int = 20
    modulus: ClassVar[int] = (1 << 31) - 1  # a prime
    float_tolerance: ClassVar[float] = 1e-8

    def __post_init__(self) -> None:
        for name in ("seed", "trials"):
            value = getattr(self, name)
            try:
                number = index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, not {value!r}") from None
            object.__setattr__(self, name, number)
        if self.trials < 1:
            raise ValueError("at least one trial is required")


@dataclass(frozen=True, slots=True)
class Realization:
    """Numeric values assigned to the free entries of a pattern.

    Pattern zeros stay exactly zero; every free entry carries a nonzero
    sample (a prime-field residue or a real number).
    """

    pattern: Pattern
    values: tuple[tuple[tuple[int, int], float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(sorted(self.values)))
        positions = {pos for pos, _ in self.values}
        if positions != set(self.pattern.nonzeros):
            raise ValueError("realization must assign exactly the free entries")
        if any(v == 0 for _, v in self.values):
            raise ValueError("free entries must receive nonzero values")

    def dense(self) -> list[list[float]]:
        out = [[0] * self.pattern.cols for _ in range(self.pattern.rows)]
        for (i, j), v in self.values:
            out[i - 1][j - 1] = v
        return out

    def array(self) -> np.ndarray:
        import numpy as np
        return np.array(self.dense(), dtype=float)


def sample_field_realization(M: Pattern, cfg: OracleConfig, trial: int, stream: int = 0) -> Realization:
    import numpy as np
    rng = np.random.default_rng((cfg.seed & (1 << 64) - 1, trial, stream))
    vals = rng.integers(1, cfg.modulus, size=len(M.nonzeros))
    return Realization(M, tuple(zip(M.sorted_nonzeros(), (int(v) for v in vals))))


def sample_real_realization(M: Pattern, cfg: OracleConfig, trial: int, stream: int = 0) -> Realization:
    import numpy as np
    rng = np.random.default_rng((cfg.seed & (1 << 64) - 1, trial, 1000 + stream))
    mags = rng.uniform(1.0, 2.0, size=len(M.nonzeros))
    signs = rng.choice((-1.0, 1.0), size=len(M.nonzeros))
    vals = mags * signs
    return Realization(M, tuple(zip(M.sorted_nonzeros(), (float(v) for v in vals))))


def field_rank(rows: list[list[int]], q: int) -> int:
    """Exact rank over GF(q) by Gaussian elimination with modular inverses."""
    mat = [[int(x) % q for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if mat[r][col] % q != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], q - 2, q)
        mat[rank] = [(x * inv) % q for x in mat[rank]]
        for r in range(nrows):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [(a - factor * b) % q for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def _field_matmul(X: list[list[int]], Y: list[list[int]], q: int) -> list[list[int]]:
    cols = list(zip(*Y))
    return [[sum(a * b for a, b in zip(row, col)) % q for col in cols] for row in X]


def numeric_grank(M: Pattern, cfg: OracleConfig) -> int:
    """Largest exact prime-field rank over random realizations.

    Equals the generic rank except with probability bounded by the
    polynomial-identity (degree over field size) argument per trial.
    """
    best = 0
    for t in range(cfg.trials):
        real = sample_field_realization(M, cfg, t)
        best = max(best, field_rank(real.dense(), cfg.modulus))
        if best == min(M.rows, M.cols):
            break
    return best


def _observability_rows(A: list[list[int]], C: list[list[int]], q: int) -> list[list[int]]:
    rows: list[list[int]] = []
    block = C
    n = len(A)
    for _ in range(n):
        rows.extend(block)
        block = _field_matmul(block, A, q)
    return rows


def numeric_obs_rank(
    A: Pattern, C: Pattern, F: Pattern | None, cfg: OracleConfig
) -> tuple[int, int]:
    """Exact prime-field ranks of the observability matrix and of that matrix
    with the functional rows appended, each maximized over trials."""
    check_shapes(A, C=C, F=F)
    best_oc, best_ocf = 0, 0
    for t in range(cfg.trials):
        a = sample_field_realization(A, cfg, t, stream=1).dense()
        c = sample_field_realization(C, cfg, t, stream=2).dense()
        obs = _observability_rows(a, c, cfg.modulus) if C.rows else []
        rank_oc = field_rank(obs, cfg.modulus) if obs else 0
        if F is not None and F.rows:
            f = sample_field_realization(F, cfg, t, stream=3).dense()
            rank_ocf = field_rank(obs + f, cfg.modulus)
        else:
            rank_ocf = rank_oc
        best_oc, best_ocf = max(best_oc, rank_oc), max(best_ocf, rank_ocf)
    return best_oc, best_ocf


def _float_rank(M: np.ndarray, threshold: float) -> int:
    import numpy as np
    if M.size == 0:
        return 0
    sv = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(sv > threshold))


def _eig_clusters(w: np.ndarray, gap: float) -> list[np.ndarray]:
    import numpy as np
    order = np.lexsort((w.imag, w.real))
    sorted_w = w[order]
    clusters: list[list[complex]] = []
    for val in sorted_w:
        placed = False
        for cluster in clusters:
            if abs(val - cluster[0]) <= gap:
                cluster.append(val)
                placed = True
                break
        if not placed:
            clusters.append([val])
    return [np.array(c) for c in clusters]


def numeric_diagonalizable(A_real: Realization, cfg: OracleConfig) -> bool:
    """Whether a single real realization is numerically diagonalizable.

    Eigenvalues are clustered with an absolute gap scaled by the spectral
    radius (square root of the configured tolerance, since defective
    eigenvalues scatter far beyond working precision); each cluster must
    have a rank deficiency of A - lambda*I equal to its size.
    """
    import numpy as np
    if A_real.pattern.rows != A_real.pattern.cols:
        raise ValueError("square realization required")
    a = A_real.array()
    n = a.shape[0]
    if n == 0:
        return True
    w = np.linalg.eigvals(a)
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    gap = scale * cfg.float_tolerance**0.5
    for cluster in _eig_clusters(w, gap):
        lam = complex(np.mean(cluster))
        shifted = a - lam * np.eye(n)
        sv_max = float(np.linalg.norm(shifted, 2)) if n else 0.0
        geo = n - _float_rank(shifted, cfg.float_tolerance * max(1.0, sv_max))
        if geo != len(cluster):
            return False
    return True


def diagonalizable_majority(A: Pattern, cfg: OracleConfig) -> bool:
    """Majority vote of :func:`numeric_diagonalizable` over random real
    realizations; failed eigensolves are resampled a bounded number of times."""
    import numpy as np
    yes = 0
    for t in range(cfg.trials):
        for retry in range(3):
            try:
                real = sample_real_realization(A, cfg, t, stream=retry)
                if numeric_diagonalizable(real, cfg):
                    yes += 1
                break
            except np.linalg.LinAlgError:
                continue
    return 2 * yes > cfg.trials


def numeric_pbh_functional(
    A_real: Realization, C_real: Realization, F_real: Realization, cfg: OracleConfig
) -> bool:
    """Eigenvalue-wise rank test for functional observability of a numeric
    triple.

    At every eigenvalue cluster of A (and at one point off the spectrum,
    where equality is automatic) the stacked matrix with the functional rows
    must have the same rank as the one without. The test characterizes
    functional observability only for diagonalizable A; otherwise it is
    merely necessary.
    """
    import numpy as np
    a = A_real.array()
    c = C_real.array()
    f = F_real.array()
    n = a.shape[0]
    w = np.linalg.eigvals(a) if n else np.array([])
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    gap = scale * cfg.float_tolerance**0.5
    probes = [complex(np.mean(cl)) for cl in _eig_clusters(w, gap)]
    probes.append(complex(2.0 * scale + 1.0))  # off-spectrum sanity point
    eye = np.eye(n)
    for lam in probes:
        base = np.vstack([a - lam * eye, c]) if c.size else a - lam * eye
        full = np.vstack([base, f]) if f.size else base
        sv_max = float(np.linalg.norm(full, 2)) if full.size else 0.0
        threshold = cfg.float_tolerance * max(1.0, sv_max)
        if _float_rank(full, threshold) != _float_rank(base, threshold):
            return False
    return True


def numeric_output_controllable(
    A_real: Realization, B_real: Realization, C_real: Realization, cfg: OracleConfig
) -> bool:
    """Whether rank C [B, AB, ..., A^(n-1) B] equals the output count for one
    prime-field realization, computed exactly over GF(modulus). Raises
    ``ValueError`` on a realization with a non-integral value."""
    if not all(
        float(v).is_integer() for real in (A_real, B_real, C_real) for _, v in real.values
    ):
        raise ValueError("the output-controllability check needs integer (prime-field) values")
    p = C_real.pattern.rows
    n = A_real.pattern.rows
    q = cfg.modulus
    a, b, c = A_real.dense(), B_real.dense(), C_real.dense()
    blocks: list[list[int]] = [[] for _ in range(p)]
    cb = _field_matmul(c, b, q)
    for _ in range(n):
        for r in range(p):
            blocks[r].extend(cb[r])
        b = _field_matmul(a, b, q)
        cb = _field_matmul(c, b, q)
    return field_rank(blocks, q) == p


# ---------------------------------------------------------------------------
# exhaustive searchers


_DEFAULT_CAPS = {
    "v": 6,
    "cactus": 6,
    "min-dilation": 6,
    "min-sensors": 5,
    "min-actuators": 5,
}


def brute_force(kind: str, *args, cap: int | None = None):
    """Exhaustive search for the small-instance ground truth.

    kind "v"             (A,)        -> (cover size, cycles)
    kind "cactus"        (A, C)      -> (size, (stems, cycles))
    kind "min-dilation"  (A, C)      -> (member states, minimal dilations)
    kind "min-sensors"   (A, F)      -> (row count, witness output pattern)
    kind "min-actuators" (A, C)      -> (column count, witness input pattern)
    """
    if kind not in _DEFAULT_CAPS:
        raise ValueError(f"unknown brute-force kind {kind!r}")
    limit = cap if cap is not None else _DEFAULT_CAPS[kind]
    n = args[0].rows
    if n > limit:
        raise ValueError(f"brute force capped at n = {limit}, got n = {n}")
    if kind == "v":
        return _brute_cycle_cover(args[0])
    if kind == "cactus":
        return _brute_cactus(args[0], args[1])
    if kind == "min-dilation":
        return _brute_min_dilations(args[0], args[1])
    if kind == "min-sensors":
        return _brute_min_sensors(args[0], args[1])
    return _brute_min_actuators(args[0], args[1])


def _brute_cycle_cover(A: Pattern) -> tuple[int, tuple[tuple[int, ...], ...]]:
    n = A.rows
    states = list(range(1, n + 1))
    best, best_perm = 0, {}
    nonzeros = A.nonzeros
    for size in range(n, 0, -1):
        if size <= best:
            break
        for subset in itertools.combinations(states, size):
            for perm in itertools.permutations(subset):
                # cycle cover of the subset: edge x_j -> x_perm[j] for each j
                if all(
                    (perm[k], subset[k]) in nonzeros for k in range(size)
                ):
                    best, best_perm = size, dict(zip(subset, perm))
                    break
            if best == size:
                break
    cycles: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for start in sorted(best_perm):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        node = best_perm[start]
        while node != start:
            cyc.append(node)
            seen.add(node)
            node = best_perm[node]
        cycles.append(tuple(cyc))
    return best, tuple(cycles)


def _out_neighbours(A: Pattern, C: Pattern) -> dict[int, list]:
    nbrs: dict[int, list] = {i: [] for i in range(1, A.rows + 1)}
    for i, j in sorted(A.nonzeros):
        nbrs[j].append(("x", i))
    for i, j in sorted(C.nonzeros):
        nbrs[j].append(("y", i))
    return nbrs


def _brute_cactus(A: Pattern, C: Pattern):
    """Enumerate every disjoint assignment of one outgoing edge per covered
    state and keep the valid stem/cycle families of maximum size."""
    n = A.rows
    w = output_reachable_states(A, C)
    nbrs = _out_neighbours(A, C)
    best = {"size": 0, "stems": 0, "config": None}

    def evaluate(assign: dict[int, tuple]) -> None:
        covered = set(assign)
        # targets inside the state set must themselves be covered
        for tgt in assign.values():
            if tgt[0] == "x" and tgt[1] not in covered:
                return
        targeted = {t[1] for t in assign.values() if t[0] == "x"}
        stems, cycles = [], []
        seen: set[int] = set()
        for s in sorted(covered - targeted):  # heads of stems
            chain, node = [s], s
            seen.add(s)
            while True:
                tgt = assign[node]
                if tgt[0] == "y":
                    stems.append(tuple(chain) + (("y", tgt[1]),))
                    break
                node = tgt[1]
                chain.append(node)
                seen.add(node)
        for s in sorted(covered - seen):  # the rest are cycles
            if s in seen:
                continue
            cyc, node = [s], assign[s][1]
            seen.add(s)
            while node != s:
                cyc.append(node)
                seen.add(node)
                node = assign[node][1]
            cycles.append(tuple(cyc))
        for cyc in cycles:
            if any(s not in w for s in cyc):
                return
        size = len(covered)
        if size > best["size"] or (size == best["size"] and len(stems) < best["stems"]):
            best.update(size=size, stems=len(stems), config=(tuple(stems), tuple(cycles)))

    def extend(state: int, assign: dict[int, tuple], used: set) -> None:
        if state > n:
            evaluate(dict(assign))
            return
        extend(state + 1, assign, used)  # leave the state uncovered
        for tgt in nbrs[state]:
            if tgt in used:
                continue
            assign[state] = tgt
            used.add(tgt)
            extend(state + 1, assign, used)
            used.discard(tgt)
            del assign[state]

    extend(1, {}, set())
    return best["size"], (best["stems"], best["config"])


def _dilations(A: Pattern, C: Pattern):
    n = A.rows
    nbrs = _out_neighbours(A, C)
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            out = set()
            for s in subset:
                out.update(nbrs[s])
            if len(out) < size:
                yield frozenset(subset)


def _brute_min_dilations(A: Pattern, C: Pattern):
    all_dilations = list(_dilations(A, C))
    dilation_set = set(all_dilations)
    minimal = []
    for d in all_dilations:
        proper_sub = False
        for size in range(1, len(d)):
            for sub in itertools.combinations(sorted(d), size):
                if frozenset(sub) in dilation_set:
                    proper_sub = True
                    break
            if proper_sub:
                break
        if not proper_sub:
            minimal.append(d)
    members = frozenset().union(*minimal) if minimal else frozenset()
    return members, tuple(sorted(minimal, key=sorted))


def _row_candidates(n: int, allowed: frozenset[int] | None = None):
    cols = sorted(allowed) if allowed is not None else list(range(1, n + 1))
    out = []
    for size in range(1, len(cols) + 1):
        out.extend(itertools.combinations(cols, size))
    return out


def _brute_min_sensors(A: Pattern, F: Pattern, allowed: frozenset[int] | None = None):
    n = A.rows
    x_f = functional_states(F)
    if not x_f:
        raise ValueError("functional pattern has no nonzero column")
    rows = _row_candidates(n, allowed)
    upper = max(1, len(x_f))
    for k in range(1, upper + 1):
        for combo in itertools.combinations_with_replacement(rows, k):
            entries = frozenset(
                (r + 1, col) for r, row in enumerate(combo) for col in row
            )
            cand = Pattern(k, n, entries)
            if sfo_feasible(A, cand, F):
                return k, cand
    raise AssertionError("dedicated measurement of the functional states must be feasible")


def brute_min_sensors_constrained(A: Pattern, F: Pattern, cap: int | None = None):
    """Exhaustive sensor minimum when sensors may touch functional states only."""
    limit = cap if cap is not None else _DEFAULT_CAPS["min-sensors"]
    if A.rows > limit:
        raise ValueError(f"brute force capped at n = {limit}, got n = {A.rows}")
    return _brute_min_sensors(A, F, allowed=functional_states(F))


def _brute_min_actuators(A: Pattern, C: Pattern):
    n = A.rows
    cols = _row_candidates(n)
    for k in range(1, n + 1):
        for combo in itertools.combinations_with_replacement(cols, k):
            entries = frozenset(
                (row, c + 1) for c, col in enumerate(combo) for row in col
            )
            cand = Pattern(n, k, entries)
            if is_soc(A, cand, C).verdict == "soc":
                return k, cand
    raise AssertionError("actuating every state must be feasible when grank C = p")
