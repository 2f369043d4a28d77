"""Sparsity patterns of structured linear systems and their bipartite views.

A pattern records which entries of a matrix are free parameters; every
analysis in this package works from that zero/nonzero information alone.
Indices are 1-based throughout, including the on-disk file format.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, fields
from itertools import chain, compress, repeat
from operator import eq, index
from typing import Callable, Iterable, Iterator, Sequence, TypeVar


class PreconditionError(ValueError):
    """An analysis was invoked outside its stated precondition."""


Entry = tuple[int, int]
T = TypeVar("T")


@dataclass(frozen=True, slots=True, init=False)
class Pattern:
    """Zero/nonzero structure of a matrix.

    ``Pattern(rows, cols, nonzeros)`` takes the 1-based ``(row, col)``
    positions of the free parameters. Dimensions and indices go through
    ``operator.index``, so numpy integers are stored as ``int`` and a float
    or a string raises ``ValueError``. The positions are stored as one flat
    tuple ``flat`` = ``r1, c1, r2, c2, ...`` in ascending row-major order, so
    equal patterns are equal tuples and a pattern holds no tuple per entry;
    ``nonzeros`` builds the set of positions anew on each access. Zero-row
    and zero-column patterns are legal; so is the all-zero pattern.

    Two private slots, neither compared nor shown: ``_columns`` keeps
    :meth:`column_support`, and ``_memo`` holds what analyses of this object
    keep for another call on it, read and written only by :meth:`_recall`.
    """

    rows: int
    cols: int
    flat: tuple[int, ...]
    _columns: frozenset[int] | None = field(repr=False, compare=False)
    _memo: dict | None = field(repr=False, compare=False)

    def __init__(self, rows: int, cols: int, nonzeros: Iterable[Entry] = ()) -> None:
        try:
            rows, cols = index(rows), index(cols)
        except TypeError:
            raise ValueError(f"pattern dimensions must be integers, got {rows!r}x{cols!r}") from None
        pairs = frozenset(nonzeros)
        if not _int_pairs(pairs):
            pairs = frozenset(map(_index_pair, pairs))
        self._store(rows, cols, _flatten(sorted(pairs)))

    @classmethod
    def _from_flat(cls, rows: int, cols: int, flat: tuple[int, ...]) -> "Pattern":
        """Pattern over a flat tuple that is already sorted and free of
        duplicates, so no set and no sort is needed."""
        pattern = object.__new__(cls)
        pattern._store(rows, cols, flat)
        return pattern

    def _store(self, rows: int, cols: int, flat: tuple[int, ...]) -> None:
        slots = (("rows", rows), ("cols", cols), ("flat", flat), ("_columns", None), ("_memo", None))
        for name, value in slots:
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        rows, cols, flat = self.rows, self.cols, self.flat
        if rows < 0 or cols < 0:
            raise ValueError(f"pattern dimensions must be non-negative, got {rows}x{cols}")
        if flat and not (
            1 <= min(flat[::2]) and max(flat[::2]) <= rows
            and 1 <= min(flat[1::2]) and max(flat[1::2]) <= cols
        ):
            for i, j in _pairs(flat):
                if not (1 <= i <= rows and 1 <= j <= cols):
                    raise ValueError(f"nonzero ({i},{j}) outside a {rows}x{cols} pattern")

    @property
    def nonzeros(self) -> frozenset[Entry]:
        """The ``(row, col)`` positions, as a new set on each access."""
        return frozenset(_pairs(self.flat))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def sorted_nonzeros(self) -> list[Entry]:
        return list(_pairs(self.flat))

    def transpose(self) -> "Pattern":
        flat = self.flat
        return Pattern._from_flat(self.cols, self.rows, _flatten(sorted(zip(flat[1::2], flat[::2]))))

    def column_support(self) -> frozenset[int]:
        """Indices of columns holding at least one free entry, computed once
        per pattern, so reports on the same pattern share one set."""
        if self._columns is None:
            object.__setattr__(self, "_columns", frozenset(self.flat[1::2]))
        return self._columns

    def _recall(self, name: str, key: object, compute: Callable[[], T]) -> T:
        """What ``compute()`` gave when analysis ``name`` last ran on this
        object for an equal ``key``; otherwise ``compute()``, kept as the one
        entry under ``name``. The memo dict is made on first use."""
        if self._memo is None:
            object.__setattr__(self, "_memo", {})
        kept = self._memo.get(name)
        if kept is None or kept[0] != key:
            kept = self._memo[name] = (key, compute())
        return kept[1]

    def induced(self, states: Iterable[int]) -> "Pattern":
        """Square subpattern on the given row/column indices, reindexed to 1..k."""
        if not self.is_square:
            raise ValueError("induced subpattern requires a square pattern")
        keep = check_states(self.rows, states)
        pos = {s: k + 1 for k, s in enumerate(keep)}
        # the renumbering keeps order, so the filtered entries stay sorted
        sub = _flatten(
            (pos[i], pos[j]) for i, j in _pairs(self.flat) if i in pos and j in pos
        )
        return Pattern._from_flat(len(keep), len(keep), sub)

    def zeroed(self, rows: Iterable[int] = (), cols: Iterable[int] = ()) -> "Pattern":
        """Copy with all entries in the given rows and columns removed."""
        rkill, ckill = set(rows), set(cols)
        kept = _flatten((i, j) for i, j in _pairs(self.flat) if i not in rkill and j not in ckill)
        return Pattern._from_flat(self.rows, self.cols, kept)


def _int_pairs(pairs: frozenset) -> bool:
    """Whether every entry is a pair of plain ints. Only C-level maps run, so
    the common case makes no Python call per entry."""
    try:
        return set(map(len, pairs)) <= {2} and set(map(type, chain.from_iterable(pairs))) <= {int}
    except TypeError:  # an entry without a length
        return False


def _index_pair(entry: Entry) -> Entry:
    """A nonzero position as two plain ints."""
    try:
        i, j = entry
        return index(i), index(j)
    except (TypeError, ValueError):
        raise ValueError(f"pattern nonzero {entry!r} is not a (row, col) pair of integers") from None


def _pairs(flat: tuple[int, ...]) -> Iterator[Entry]:
    return zip(flat[::2], flat[1::2])


def _flatten(pairs: Iterable[Entry]) -> tuple[int, ...]:
    return tuple(chain.from_iterable(pairs))


def _diagonal(flat: tuple[int, ...]) -> set[int]:
    """The i with an entry (i, i) among a flat tuple's positions."""
    rows = flat[::2]
    return set(compress(rows, map(eq, rows, flat[1::2])))


_NO_ELEMENTS: frozenset = frozenset()


def shares_empty_sets(cls: type) -> type:
    """Class decorator, placed under ``@dataclass``: every empty frozenset
    field of a new instance becomes one shared empty set. CPython builds each
    empty frozenset anew, at 216 bytes, and a caller may keep many reports."""

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) == _NO_ELEMENTS:
                object.__setattr__(self, f.name, _NO_ELEMENTS)

    cls.__post_init__ = __post_init__
    return cls


def stack(top: Pattern, bottom: Pattern) -> Pattern:
    """Vertical composite: ``bottom`` appended below ``top``."""
    if top.cols != bottom.cols:
        raise ValueError(f"cannot stack {top.cols}-column over {bottom.cols}-column pattern")
    # every bottom row follows every top row, so the joined tuple stays sorted
    shifted = list(bottom.flat)
    shifted[::2] = [i + top.rows for i in bottom.flat[::2]]
    return Pattern._from_flat(top.rows + bottom.rows, top.cols, top.flat + tuple(shifted))


def hstack(left: Pattern, right: Pattern) -> Pattern:
    """Horizontal composite: ``right`` appended after ``left``."""
    if left.rows != right.rows:
        raise ValueError(f"cannot place {right.rows}-row beside {left.rows}-row pattern")
    shifted = zip(right.flat[::2], [j + left.cols for j in right.flat[1::2]])
    pairs = sorted(chain(_pairs(left.flat), shifted))
    return Pattern._from_flat(left.rows, left.cols + right.cols, _flatten(pairs))


def unit_row(n: int, i: int) -> Pattern:
    """1 x n pattern with a single free entry in column ``i``."""
    if not 1 <= i <= n:
        raise ValueError(f"unit row index {i} out of range 1..{n}")
    return Pattern(1, n, frozenset({(1, i)}))


def identity_pattern(n: int) -> Pattern:
    return Pattern(n, n, frozenset((i, i) for i in range(1, n + 1)))


def dedicated_rows(n: int, states: Iterable[int]) -> Pattern:
    """One dedicated row per state in ``states`` (ascending), each with one entry."""
    ordered = check_states(n, states)
    return Pattern(len(ordered), n, frozenset((k + 1, s) for k, s in enumerate(ordered)))


def check_states(n: int, states: Iterable[int]) -> list[int]:
    """The distinct states as ints, ascending; ``ValueError`` on a non-integer or one outside 1..n."""
    indices = map(index, states)  # a non-iterable raises TypeError here
    try:
        ordered = sorted(set(indices))
    except TypeError as exc:
        raise ValueError(f"state indices must be integers: {exc}") from None
    for s in ordered:
        if not 1 <= s <= n:
            raise ValueError(f"state index {s} out of range 1..{n}")
    return ordered


def check_shapes(
    A: Pattern, B: Pattern | None = None, C: Pattern | None = None, F: Pattern | None = None
) -> int:
    """The state dimension n of a system (A, B, C, F): A must be n x n, B must
    have n rows, and C and F must have n columns. An omitted matrix is not
    checked. Raises ``ValueError`` naming the first broken condition."""
    n = A.rows
    if A.cols != n:
        raise ValueError(f"A must be square, got {A.rows}x{A.cols}")
    if B is not None and B.rows != n:
        raise ValueError(f"B must have {n} rows, got {B.rows}")
    for name, M in (("C", C), ("F", F)):
        if M is not None and M.cols != n:
            raise ValueError(f"{name} must have {n} columns, got {M.cols}")
    return n


@dataclass(frozen=True, slots=True)
class SystemPattern:
    """Bundle of the state, input, output and functional patterns of one system.

    An absent matrix may be passed as ``None``; it is stored as a
    zero-dimension pattern: B as n x 0, C and F as 0 x n.
    """

    A: Pattern
    B: Pattern | None = None
    C: Pattern | None = None
    F: Pattern | None = None

    def __post_init__(self) -> None:
        n = check_shapes(self.A, self.B, self.C, self.F)
        for name, empty in (("B", Pattern(n, 0)), ("C", Pattern(0, n)), ("F", Pattern(0, n))):
            if getattr(self, name) is None:
                object.__setattr__(self, name, empty)

    @property
    def n(self) -> int:
        return self.A.rows

    @property
    def m(self) -> int:
        return self.B.cols

    @property
    def p(self) -> int:
        return self.C.rows

    @property
    def r(self) -> int:
        return self.F.rows


@dataclass(frozen=True, slots=True)
class Bigraph:
    """Bipartite graph with non-negative integer edge costs.

    Edges are oriented right part to left part and stored canonically sorted,
    one edge at most per (right, left) slot.
    """

    left: int
    right: int
    edges: tuple[tuple[int, int, int], ...]  # (right, left, cost)

    def __post_init__(self) -> None:
        canon = tuple(sorted(self.edges))
        object.__setattr__(self, "edges", canon)
        last_r = last_l = 0
        for r, l, c in canon:
            if not (1 <= r <= self.right and 1 <= l <= self.left):
                raise ValueError(f"edge ({r},{l}) outside parts of sizes {self.right}/{self.left}")
            if c < 0:
                raise ValueError(f"edge ({r},{l}) has negative cost {c}")
            if r == last_r and l == last_l:  # sorted, so a duplicate follows its twin
                raise ValueError(f"duplicate edge ({r},{l})")
            last_r, last_l = r, l

    @classmethod
    def _from_sorted(cls, left: int, right: int, edges: tuple[tuple[int, int, int], ...]) -> "Bigraph":
        """Bigraph over edges the caller guarantees canonical: sorted, inside
        both parts, one per slot and of non-negative cost. Nothing is checked
        again."""
        g = object.__new__(cls)
        for name, value in (("left", left), ("right", right), ("edges", edges)):
            object.__setattr__(g, name, value)
        return g

    def cost(self, r: int, l: int) -> int:
        """Cost of edge (r, l), by binary search on the sorted edges."""
        edges = self.edges
        k = bisect_left(edges, (r, l))
        if k < len(edges) and edges[k][0] == r and edges[k][1] == l:
            return edges[k][2]
        raise KeyError((r, l))

    def weight(self, matching: "Matching") -> int:
        flat = matching.flat
        return sum(self.cost(r, l) for r, l in zip(flat[::2], flat[1::2]))


@dataclass(frozen=True, slots=True, init=False)
class Matching:
    """Set of bipartite edges, no two sharing an endpoint on either side.

    The edges are stored as one flat tuple ``r1, l1, r2, l2, ...`` of
    (right, left) pairs in ascending right order, so equal matchings are
    equal tuples and a matching holds no tuple per edge.
    """

    flat: tuple[int, ...]

    def __init__(self, edges: Iterable[Entry]) -> None:
        pairs = sorted(edges)
        rights = [r for r, _ in pairs]
        if len(set(rights)) != len(rights):
            raise ValueError("matching edges share an endpoint")
        self._store(rights, [l for _, l in pairs])

    @classmethod
    def from_mates(cls, mates: Sequence[int]) -> "Matching":
        """Matching that pairs each right vertex r with ``mates[r]``, where 0
        marks an unmatched vertex (so ``mates[0]`` is 0); no sort is needed."""
        rights = [r for r, l in enumerate(mates) if l]
        matching = object.__new__(cls)
        matching._store(rights, [mates[r] for r in rights])
        return matching

    def _store(self, rights: list[int], lefts: list[int]) -> None:
        if len(set(lefts)) != len(lefts):
            raise ValueError("matching edges share an endpoint")
        flat = [0] * (2 * len(rights))
        flat[::2], flat[1::2] = rights, lefts
        object.__setattr__(self, "flat", tuple(flat))

    @property
    def edges(self) -> frozenset[Entry]:
        """The (right, left) pairs."""
        return frozenset(zip(self.flat[::2], self.flat[1::2]))

    @property
    def size(self) -> int:
        return len(self.flat) // 2

    def right_matched(self) -> frozenset[int]:
        return frozenset(self.flat[::2])


def pattern_bigraph(M: Pattern) -> Bigraph:
    """Bipartite view of a pattern: rows on the left, columns on the right,
    a zero-cost edge (j, i) for every nonzero M[i, j]."""
    # a pattern holds each entry once and in range, so only the sort is left
    edges = tuple(sorted(zip(M.flat[1::2], M.flat[::2], repeat(0))))
    return Bigraph._from_sorted(M.rows, M.cols, edges)
