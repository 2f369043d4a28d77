"""Machine-speed reference that operation times are normalised by.

On a 2-vCPU virtual machine shared with other tenants (CPython 3.11), the
speed of the cores moved a lot: the CPU time of the same 20 verdicts
operations grew by 52 % within 20 seconds, and by 35 % between two passes
half an hour apart. Raw times there cannot tell a 10 % regression from a
busy neighbour.

``reference`` is a fixed pure-Python kernel shaped like the library's inner
loops: Bellman-Ford relaxation over an arc list, then frozenset, sort and
dict building over index pairs. It is timed between operations; an
operation's CPU time is scaled by ``NOMINAL_S`` over the median reference
time around it. Across those same passes the ratio of operation time to
reference time moved by 7 % where the raw time moved by 52 %. The results
are CPU seconds at the speed at which ``reference`` takes ``NOMINAL_S``;
raw CPU and wall times are printed alongside. The kernel and its inputs are
part of the benchmark and must not change, or the unit changes with them.
"""

from __future__ import annotations

import random
import statistics
import time

NOMINAL_S = 0.012
WINDOW = 3  # reference samples taken on each side of an operation

_rnd = random.Random(0)
_NODES = 200
_ARCS = tuple((_rnd.randrange(_NODES), _rnd.randrange(_NODES), 1, _rnd.randrange(5)) for _ in range(1200))
_PAIRS = tuple((_rnd.randint(1, 60), _rnd.randint(1, 60)) for _ in range(3000))


def reference() -> int:
    dist = [1 << 60] * _NODES
    dist[0] = 0
    for _ in range(90):
        for u, v, cap, cost in _ARCS:
            du = dist[u]
            if cap and du < dist[v] - cost:
                dist[v] = du + cost
    by_row: dict[int, list[int]] = {}
    for i, j in sorted(frozenset(_PAIRS)):
        by_row.setdefault(i, []).append(j)
    return len(by_row) + sum(d for d in dist if d < 1 << 60)


def sample() -> float:
    """CPU seconds of one ``reference`` call."""
    start = time.process_time()
    reference()
    return time.process_time() - start


def factors(samples: list[float]) -> list[float]:
    """Scale factor for each of the ``len(samples) - 1`` operations that
    ran between consecutive samples: ``NOMINAL_S`` over the median of the
    ``WINDOW`` samples on each side."""
    out = []
    for k in range(len(samples) - 1):
        near = samples[max(0, k + 1 - WINDOW): k + 1 + WINDOW]
        out.append(NOMINAL_S / statistics.median(near))
    return out
