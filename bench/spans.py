"""Span tracing of the library's layers, from outside the library.

``Tracer.install`` wraps the public functions of each traced module and
rebinds every name that refers to them in every loaded ``structsys`` module:
``structsys.grank.min_cost_max_flow`` and ``structsys.cli.min_cost_max_flow``
are the same function as ``structsys.combinat.min_cost_max_flow``, and
patching the defining module alone would miss calls made through those
names. Spans are kept in memory and written out when the run ends;
``layer_metrics`` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time
import types
from typing import Any, Callable

LAYERS = ("cli", "core", "combinat", "grank", "diag", "sfo", "soc", "placement")

# Data-model validation is part of the core layer wherever the class lives.
VALIDATED_CLASSES = (
    ("core", "Pattern"),
    ("core", "SystemPattern"),
    ("core", "Bigraph"),
    ("core", "Matching"),
    ("core", "Digraph"),
    ("combinat", "FlowNetwork"),
)

# Private cli helpers that build or print reports; with the public
# ``*_dict`` and ``dot_*`` functions they form the emission group.
CLI_PRIVATE = ("_emit", "_linking_certificate")
EMIT_PREFIXES = ("cli._emit", "cli.dot_")
EMIT_SUFFIX = "_dict"

OP = "bench.op"
IMPORT = "import"


def _result_counts(name: str, args: tuple, result: Any) -> dict[str, int] | None:
    """Work counts recorded on a span, read from its arguments and result."""
    if name == "combinat.min_cost_max_flow":
        net = args[0]
        return {"arcs": len(net.arcs), "nodes": net.nodes, "flow_value": result.value}
    if name in ("combinat.max_matching", "combinat.extremal_weight_max_matching"):
        return {"edges": len(args[0].edges)}
    if name == "grank.cactus_bigraph":
        A, C = args[0], args[1]
        return {"edges": len(result[0].edges), "return_edges": A.rows * C.rows}
    if name == "grank.linking_network":
        return {"arcs": len(result.arcs)}
    if name == "sfo.is_sfo":
        return {"failing": len(result.failing_states)}
    return None


class Tracer:
    """Records one span per call of a wrapped function.

    A span is ``[name, start, end, parent, op, counts]``; ``parent`` is the
    index of the enclosing span or -1, ``op`` the id of the benchmark
    operation it belongs to.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._open: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def span(self, name: str, fn: Callable) -> Callable:
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.op, None]
            spans.append(span)
            open_.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            counts = _result_counts(name, args, result)
            if counts:
                span[5] = counts
            return result

        return traced

    def record(self, name: str, start: float, end: float) -> int:
        """Add a span measured elsewhere; returns its index."""
        self.spans.append([name, start, end, self._open[-1] if self._open else -1, self.op, None])
        return len(self.spans) - 1

    def begin(self, name: str) -> int:
        """Open a span that encloses every span recorded until ``end``."""
        idx = self.record(name, time.perf_counter(), 0.0)
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.remove(idx)

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under ``parent``.
        ``time.perf_counter`` reads the system-wide monotonic clock on Linux,
        so child and parent timestamps are comparable."""
        base = len(self.spans)
        for name, start, end, up, _op, counts in spans:
            self.spans.append([name, start, end, up + base if up >= 0 else parent, self.op, counts])

    def install(self) -> None:
        """Wrap every traced function and rebind each name bound to it."""
        loaded = [m for k, m in sys.modules.items() if k == "structsys" or k.startswith("structsys.")]
        swaps: dict[int, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"structsys.{layer}")
            if mod is None:
                continue
            for attr, value in vars(mod).items():
                if not isinstance(value, types.FunctionType) or value.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and not (layer == "cli" and attr in CLI_PRIVATE):
                    continue
                swaps[id(value)] = self.span(f"{layer}.{attr}", value)
        for m in loaded:
            for attr, value in list(vars(m).items()):
                wrapped = swaps.get(id(value))
                if wrapped is not None:
                    self._patched.append((m, attr, value))
                    setattr(m, attr, wrapped)
        for layer, cls_name in VALIDATED_CLASSES:
            mod = sys.modules.get(f"structsys.{layer}")
            cls = getattr(mod, cls_name, None) if mod else None
            if cls is None or "__post_init__" not in vars(cls):
                continue
            original = vars(cls)["__post_init__"]
            self._patched.append((cls, "__post_init__", original))
            cls.__post_init__ = self.span(f"core.{cls_name}.__post_init__", original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        opener = gzip.open if path.endswith(".gz") else open
        with opener(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    @staticmethod
    def load(path: str) -> list[list]:
        opener = gzip.open if path.endswith(".gz") else open
        with opener(path, "rt", encoding="utf-8") as fh:
            return [json.loads(line) for line in fh]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans: list[list], idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: list[list], ops: int, incl_names: tuple[str, ...]) -> dict[str, float]:
    """Per-layer figures from one traced run of ``ops`` operations.

    Times and counts are per operation. ``<layer>.share`` is the layer's self
    time as a share of the operations' wall time (the ``bench.op`` spans).
    """
    selfs = self_times(spans)
    per = 1.0 / max(1, ops)
    by_name: dict[str, list[int]] = {}
    for idx, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(idx)

    def self_sum(pred: Callable[[str], bool]) -> float:
        return sum(s for span, s in zip(spans, selfs) if pred(span[0]))

    def count_sum(name: str, key: str) -> float:
        return sum((spans[i][5] or {}).get(key, 0) for i in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def children_named(parent_name: str, child_name: str) -> list[int]:
        parents = set(by_name.get(parent_name, ()))
        per_parent = {p: 0 for p in parents}
        for i in by_name.get(child_name, ()):
            if spans[i][3] in per_parent:
                per_parent[spans[i][3]] += 1
        return list(per_parent.values())

    op_wall = sum(spans[i][2] - spans[i][1] for i in by_name.get(OP, ()))
    out: dict[str, float] = {}
    for layer in LAYERS:
        s = self_sum(lambda n, p=f"{layer}.": n.startswith(p))
        out[f"{layer}.self_s"] = s * per
        out[f"{layer}.share"] = s / op_wall if op_wall else 0.0
    for name in incl_names:
        durations = [spans[i][2] - spans[i][1] for i in by_name.get(name, ())]
        out[f"{name}.incl_p50_s"] = statistics.median(durations) if durations else 0.0

    mcmf = "combinat.min_cost_max_flow"
    out[f"{mcmf}.calls"] = calls(mcmf) * per
    out[f"{mcmf}.self_s"] = self_sum(lambda n: n == mcmf) * per
    for key in ("arcs", "nodes", "flow_value"):
        out[f"{mcmf}.{key}"] = count_sum(mcmf, key) * per
    ewmm = "combinat.extremal_weight_max_matching"
    out[f"{ewmm}.self_s"] = self_sum(lambda n: n == ewmm) * per
    mm = "combinat.max_matching"
    out[f"{mm}.calls"] = calls(mm) * per
    out[f"{mm}.self_s"] = self_sum(lambda n: n == mm) * per
    out[f"{mm}.edges"] = count_sum(mm, "edges") * per
    for name in ("combinat.scc", "combinat.reachable"):
        out[f"{name}.calls"] = calls(name) * per
        out[f"{name}.self_s"] = self_sum(lambda n, x=name: n == x) * per

    out["grank.cactus_bigraph.edges"] = count_sum("grank.cactus_bigraph", "edges") * per
    out["grank.cactus_bigraph.return_edges"] = count_sum("grank.cactus_bigraph", "return_edges") * per
    out["grank.cactus_size.calls"] = calls("grank.cactus_size") * per
    out["grank.linking_network.arcs"] = count_sum("grank.linking_network", "arcs") * per

    # is_sfo solves the cactus once without and once with F, then once per
    # functional state when the verdict is false
    solves = children_named("sfo.is_sfo", "grank.cactus_size")
    per_state = sum(max(0, c - 2) for c in solves)
    out["sfo.is_sfo.cactus_solves_per_call"] = sum(solves) / len(solves) if solves else 0.0
    out["sfo.is_sfo.failing_hit_ratio"] = (
        count_sum("sfo.is_sfo", "failing") / per_state if per_state else 0.0
    )
    iterative = children_named("placement.min_sensors_iterative", "grank.cactus_size")
    out["placement.min_sensors_iterative.cactus_solves_per_call"] = (
        sum(iterative) / len(iterative) if iterative else 0.0
    )
    for fn in ("min_sensors_diag", "min_sensors_iterative", "min_sensors_matching", "min_actuators_diag"):
        out[f"placement.{fn}.self_s"] = self_sum(lambda n, x=f"placement.{fn}": n == x) * per

    soc_calls = calls("soc.is_soc")
    soc_flows = sum(1 for i in by_name.get(mcmf, ()) if _has_ancestor(spans, i, "soc.is_soc"))
    out["soc.is_soc.flow_solves_per_call"] = soc_flows / soc_calls if soc_calls else 0.0
    cli_flows = sum(1 for i in by_name.get(mcmf, ()) if _has_ancestor(spans, i, "cli.main"))
    out["cli.flow_solves_per_op"] = cli_flows * per
    imports = [spans[i][2] - spans[i][1] for i in by_name.get(IMPORT, ())]
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0
    out["cli.parse_system.self_s"] = self_sum(lambda n: n == "cli.parse_system") * per
    out["cli.load_system.self_s"] = self_sum(lambda n: n == "cli.load_system") * per
    out["cli.emit.self_s"] = self_sum(
        lambda n: n.startswith(EMIT_PREFIXES) or (n.startswith("cli.") and n.endswith(EMIT_SUFFIX))
    ) * per
    return out
