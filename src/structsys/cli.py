"""Command-line front end and the on-disk system format.

A system file is a JSON object with integer fields ``n``, ``m``, ``p``, ``r``
and arrays ``A``, ``B``, ``C``, ``F`` of 1-based ``[row, col]`` nonzero
positions. Absent matrices are encoded as empty arrays with their dimension
field set to 0; unknown keys are rejected.

Exit codes: 0 the analysis ran (the verdict is in the report), 2 a
precondition was violated, 1 an I/O, usage or parse error occurred or the
analysis ran out of memory or recursion depth.

Each subcommand imports the analysis modules it runs when it runs, so a
process that computes one generic rank compiles neither the SFO, SOC and
placement procedures nor the numeric oracles.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from importlib import import_module
from itertools import chain, islice
from operator import eq
from typing import Any, get_origin, get_type_hints

# min_cost_max_flow is not called here, but bench/spans.py traces flow solves
# through every module name bound to it and its tests expect this one
from .combinat import max_matching, min_cost_max_flow  # noqa: F401
from .core import (
    Matching,
    Pattern,
    PreconditionError,
    SystemPattern,
    _flatten,
    identity_pattern,
    pattern_bigraph,
    stack,
)
from .diag import is_generically_diagonalizable
from .grank import Linking, grank, max_linking

_TOP_KEYS = ("n", "m", "p", "r", "A", "B", "C", "F")
# largest n, m, p or r a system file may declare; checked before any pattern
# of that size is built, so a hostile dimension exits 1 instead of allocating
MAX_DIMENSION = 10**6


class SystemFileError(ValueError):
    """The document does not parse to a valid system."""


# ---------------------------------------------------------------------------
# system file format


def parse_system(doc: Any) -> SystemPattern:
    if not isinstance(doc, dict):
        raise SystemFileError("top-level value must be an object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise SystemFileError(f"unknown key {key!r}")
    for key in _TOP_KEYS:
        if key not in doc:
            raise SystemFileError(f"missing key {key!r}")
    dims = {}
    for key in ("n", "m", "p", "r"):
        value = doc[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise SystemFileError(f"field {key!r} must be a non-negative integer")
        if value > MAX_DIMENSION:
            raise SystemFileError(f"field {key!r} must be at most {MAX_DIMENSION}")
        dims[key] = value
    if dims["n"] < 1:
        raise SystemFileError("field 'n' must be at least 1")

    def entries(key: str, rows: int, cols: int) -> Pattern:
        raw = doc[key]
        if not isinstance(raw, list):
            raise SystemFileError(f"field {key!r} must be an array of [row, col] pairs")
        # C-level checks accept every well-formed array without a Python call
        # per entry; the loop below runs only when one fails, to name the fault
        if set(map(type, raw)) <= {list} and set(map(len, raw)) <= {2}:
            flat = list(chain.from_iterable(raw))
            row, col = flat[::2], flat[1::2]
            if not flat or (
                set(map(type, flat)) <= {int}
                and 1 <= min(row) and max(row) <= rows and 1 <= min(col) and max(col) <= cols
            ):
                pairs = sorted(map(tuple, raw))  # in linear time when the file is sorted
                if any(map(eq, pairs, islice(pairs, 1, None))):  # a repeated entry
                    pairs = sorted(set(pairs))
                return Pattern._from_flat(rows, cols, _flatten(pairs))
        out = set()
        for item in raw:
            if (
                not isinstance(item, list)
                or len(item) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)
            ):
                raise SystemFileError(f"field {key!r} holds a malformed entry {item!r}")
            i, j = item
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise SystemFileError(
                    f"field {key!r} entry [{i}, {j}] outside a {rows}x{cols} pattern"
                )
            out.add((i, j))
        return Pattern(rows, cols, frozenset(out))

    n, m, p, r = dims["n"], dims["m"], dims["p"], dims["r"]
    a = entries("A", n, n)
    b = entries("B", n, m) if m else _expect_empty(doc, "B")
    c = entries("C", p, n) if p else _expect_empty(doc, "C")
    f = entries("F", r, n) if r else _expect_empty(doc, "F")
    return SystemPattern(A=a, B=b, C=c, F=f)


def _expect_empty(doc: dict, key: str) -> None:
    value = doc[key]
    if not isinstance(value, list) or value:
        raise SystemFileError(f"field {key!r} must be an empty array when its dimension is 0")
    return None


def system_to_doc(sys_pat: SystemPattern) -> dict:
    def arr(M: Pattern) -> list[list[int]]:
        return [[i, j] for i, j in M.sorted_nonzeros()]

    return {
        "n": sys_pat.n,
        "m": sys_pat.m,
        "p": sys_pat.p,
        "r": sys_pat.r,
        "A": arr(sys_pat.A),
        "B": arr(sys_pat.B),
        "C": arr(sys_pat.C),
        "F": arr(sys_pat.F),
    }


def load_system(path: str) -> SystemPattern:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SystemFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"{path} is not valid JSON: {exc}") from exc
    return parse_system(doc)


def save_system(sys_pat: SystemPattern, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(system_to_doc(sys_pat), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# report serialization


# report kind -> (module, class); a report class is imported only to read a
# report of its kind back, so writing one loads no other analysis module
_KINDS = {
    "diag": ("diag", "DiagReport"),
    "sfo": ("sfo", "SfoReport"),
    "soc": ("soc", "SocReport"),
    "sensor-placement": ("placement", "SensorPlacement"),
    "actuator-placement": ("placement", "ActuatorPlacement"),
}


def _plain(value: Any) -> Any:
    """JSON form of one report field."""
    if isinstance(value, Pattern):
        return {"rows": value.rows, "cols": value.cols, "nonzeros": _plain(value.nonzeros)}
    if isinstance(value, Matching):
        flat = value.flat  # ascending right vertex, so already in sorted order
        return [[r, l] for r, l in zip(flat[::2], flat[1::2])]
    if isinstance(value, Linking):
        return _linking_list(value)
    if isinstance(value, frozenset):
        value = sorted(value)
    if isinstance(value, (list, tuple)):
        return [list(v) if isinstance(v, tuple) else v for v in value]
    return value


def _typed(hint: Any, value: Any) -> Any:
    """Inverse of ``_plain`` for a field annotated ``hint``."""
    if hint is Pattern:
        return Pattern(value["rows"], value["cols"], frozenset(map(tuple, value["nonzeros"])))
    if hint is Matching:
        return Matching(frozenset(map(tuple, value)))
    if hint is Linking:
        return _linking_from_list(value)
    if get_origin(hint) is frozenset:
        return frozenset(value)
    if get_origin(hint) is tuple:
        return tuple(map(tuple, value))
    return value


def report_dict(rep: Any) -> dict:
    """JSON form of a report: its ``kind``, then every field in declaration
    order. Sets become sorted lists, patterns ``{rows, cols, nonzeros}``,
    matchings sorted pairs and linkings their labelled arcs."""
    cls = type(rep)
    where = {(f"{__package__}.{module}", name): kind for kind, (module, name) in _KINDS.items()}
    kind = where[cls.__module__, cls.__qualname__]
    return {"kind": kind, **{f.name: _plain(getattr(rep, f.name)) for f in fields(rep)}}


def report_from_dict(obj: dict) -> Any:
    """The report ``report_dict`` wrote; keys that are not fields of the
    report named by ``kind`` are ignored."""
    where = _KINDS.get(obj.get("kind"))
    if where is None:
        raise ValueError(f"unknown report kind {obj.get('kind')!r}")
    cls = getattr(import_module(f"{__package__}.{where[0]}"), where[1])
    hints = get_type_hints(cls)
    return cls(**{f.name: _typed(hints[f.name], obj[f.name]) for f in fields(cls)})


def _linking_list(link: Linking) -> list[list[str]]:
    """Arcs of a linking as [tail, head] labels such as ["x2^2", "x3^1"]."""
    return (
        [[f"u{i}", f"x{j}^1"] for i, j in link.inputs]
        + [[f"x{i}^2", f"x{j}^1"] for i, j in link.states]
        + [[f"x{i}^1", f"y{j}"] for i, j in link.outputs]
    )


def _linking_from_list(arcs: list[list[str]]) -> Linking:
    layers: dict[str, list[tuple[int, int]]] = {"inputs": [], "states": [], "outputs": []}
    for tail, head in arcs:
        kind = "inputs" if tail[0] == "u" else "outputs" if head[0] == "y" else "states"
        layers[kind].append((int(tail[1:].partition("^")[0]), int(head[1:].partition("^")[0])))
    return Linking(**{kind: tuple(pairs) for kind, pairs in layers.items()})


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    for key, value in report.items():
        if key == "kind":
            continue
        print(f"{key}: {value}")


# ---------------------------------------------------------------------------
# helpers shared by commands


def _require(sys_pat: SystemPattern, field: str) -> Pattern:
    value = getattr(sys_pat, field)
    if not (value.rows and value.cols):  # n >= 1 in a file, so m, p or r is 0
        raise PreconditionError(f"matrix {field} is absent (its dimension field is 0)")
    return value


def _stack_which(sys_pat: SystemPattern, which: str) -> Pattern:
    if which == "A":
        return sys_pat.A
    if which in ("B", "C", "F"):
        return _require(sys_pat, which)
    composite = stack(sys_pat.A, _require(sys_pat, "C"))
    if which == "ACF":
        composite = stack(composite, _require(sys_pat, "F"))
    return composite


# ---------------------------------------------------------------------------
# commands


def _cmd_grank(sys_pat: SystemPattern, args: argparse.Namespace) -> dict:
    target = _stack_which(sys_pat, args.which)
    cert = max_matching(pattern_bigraph(target))
    return {
        "kind": "grank",
        "which": args.which,
        "rows": target.rows,
        "cols": target.cols,
        "grank": cert.size,
        "certificate": _plain(cert),
    }


def _cmd_diag(sys_pat: SystemPattern, args: argparse.Namespace) -> dict:
    return report_dict(is_generically_diagonalizable(sys_pat.A))


def _cmd_sfo(sys_pat: SystemPattern, args: argparse.Namespace) -> dict:
    from .sfo import is_sfo, is_sfo_diag

    if args.method == "general":
        return report_dict(is_sfo(sys_pat.A, sys_pat.C, sys_pat.F))
    return report_dict(is_sfo_diag(sys_pat.A, sys_pat.C, sys_pat.F, args.method))


def _cmd_soc(sys_pat: SystemPattern, args: argparse.Namespace) -> dict:
    from .soc import is_soc

    return report_dict(is_soc(sys_pat.A, sys_pat.B, _require(sys_pat, "C")))


def _cmd_place_sensors(sys_pat: SystemPattern, args: argparse.Namespace) -> dict:
    from .placement import min_sensors_diag, min_sensors_iterative, min_sensors_matching
    from .sfo import is_sfo

    f = _require(sys_pat, "F")
    if args.method == "alg1":
        rep = min_sensors_diag(sys_pat.A, f, minimize_links=args.minimize_links)
    elif args.method == "alg2":
        rep = min_sensors_iterative(sys_pat.A, f)
    else:
        rep = min_sensors_matching(sys_pat.A, f)
    return {**report_dict(rep), "sfo_with_output": is_sfo(sys_pat.A, rep.C_out, f).verdict}


def _cmd_place_actuators(sys_pat: SystemPattern, args: argparse.Namespace) -> dict:
    from .placement import min_actuators_diag
    from .soc import is_soc

    c = _require(sys_pat, "C")
    rep = min_actuators_diag(sys_pat.A, c)
    return {**report_dict(rep), "soc_with_input": is_soc(sys_pat.A, rep.B_out, c).verdict}


def _cmd_oracle(sys_pat: SystemPattern, args: argparse.Namespace) -> dict:
    from .oracle import (
        OracleConfig,
        diagonalizable_majority,
        numeric_grank,
        numeric_obs_rank,
        numeric_output_controllable,
        sample_field_realization,
    )
    from .sfo import is_sfo
    from .soc import is_soc

    cfg = OracleConfig(seed=args.seed, trials=args.trials)
    extra: dict[str, Any] = {}
    if args.check == "grank":
        structural = grank(sys_pat.A)
        numeric = numeric_grank(sys_pat.A, cfg)
    elif args.check == "diag":
        structural = is_generically_diagonalizable(sys_pat.A).verdict
        numeric = diagonalizable_majority(sys_pat.A, cfg)
    elif args.check == "sfo":
        structural = is_sfo(sys_pat.A, sys_pat.C, sys_pat.F).verdict
        rank_oc, rank_ocf = numeric_obs_rank(sys_pat.A, sys_pat.C, sys_pat.F, cfg)
        numeric = rank_oc == rank_ocf
        extra = {"rank_OC": rank_oc, "rank_OCF": rank_ocf}
    else:  # soc
        b, c = sys_pat.B, _require(sys_pat, "C")
        structural = is_soc(sys_pat.A, b, c).verdict
        numeric = any(
            numeric_output_controllable(
                sample_field_realization(sys_pat.A, cfg, t, stream=1),
                sample_field_realization(b, cfg, t, stream=2),
                sample_field_realization(c, cfg, t, stream=3),
                cfg,
            )
            for t in range(cfg.trials)
        )
    if args.check != "soc":
        agree = structural == numeric
    else:
        agree = None if structural == "undecidable" else (structural == "soc") == numeric
    return {
        "kind": "oracle",
        "check": args.check,
        "trials": args.trials,
        "seed": args.seed,
        "structural": structural,
        "numeric": numeric,
        **extra,
        "agree": agree,
    }


# ---------------------------------------------------------------------------
# DOT export


def dot_system(sys_pat: SystemPattern) -> str:
    """System graph; the maximal disjoint cycle family of the state pattern
    (the diagonalizability certificate) is drawn bold red."""
    functional = sys_pat.F.column_support()
    diag = is_generically_diagonalizable(sys_pat.A)
    nonzeros = sys_pat.A.nonzeros
    cert_edges = {(r, l) for r, l in diag.certificate.edges if (l, r) in nonzeros}
    lines = ["digraph system {", "  rankdir=LR;"]
    for i in range(1, sys_pat.n + 1):
        style = ' style=filled fillcolor=gray80' if i in functional else ""
        lines.append(f'  "x{i}" [shape=circle{style}];')
    for i in range(1, sys_pat.m + 1):
        lines.append(f'  "u{i}" [shape=box style=filled fillcolor=lightblue];')
    for i in range(1, sys_pat.p + 1):
        lines.append(f'  "y{i}" [shape=box style=filled fillcolor=lightpink];')
    # M[j, i] != 0 is the edge tail_i -> head_j; input edges come first, then
    # each state's edges to states and to outputs, in ascending index order
    for i, j in sorted((i, j) for j, i in sys_pat.B.nonzeros):
        lines.append(f'  "u{i}" -> "x{j}";')
    state_edges = [(i, "x", j) for j, i in sys_pat.A.nonzeros]
    state_edges += [(i, "y", j) for j, i in sys_pat.C.nonzeros]
    for i, head, j in sorted(state_edges):
        attr = " [color=red penwidth=2]" if head == "x" and (i, j) in cert_edges else ""
        lines.append(f'  "x{i}" -> "{head}{j}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_two_layer(
    name: str, label: str, b: Pattern, a: Pattern, c: Pattern, linking: Linking, dashed: bool
) -> str:
    """Two-layer graph of (A, B, C) with the arcs of ``linking``
    drawn bold red; ``dashed`` draws every input arc dashed."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", f'  label="{label}";']
    lines += [f'  "u{i}" [shape=box style=filled fillcolor=lightblue];' for i in range(1, b.cols + 1)]
    lines += [f'  "x{i}_2" [shape=circle label="x{i}^2"];' for i in range(1, a.rows + 1)]
    lines += [f'  "x{i}_1" [shape=circle label="x{i}^1"];' for i in range(1, a.rows + 1)]
    lines += [f'  "y{j}" [shape=box style=filled fillcolor=lightpink];' for j in range(1, c.rows + 1)]
    # M[j, i] != 0 is the arc tail_i -> head_j
    layers = (
        ("u{}", "x{}_1", b, linking.inputs, dashed),
        ("x{}_2", "x{}_1", a, linking.states, False),
        ("x{}_1", "y{}", c, linking.outputs, False),
    )
    for tail, head, M, used, dash in layers:
        hot = set(used)
        for j, i in M.sorted_nonzeros():
            attrs = ["style=dashed"] * dash + ["color=red penwidth=2"] * ((i, j) in hot)
            suffix = f" [{' '.join(attrs)}]" if attrs else ""
            lines.append(f'  "{tail.format(i)}" -> "{head.format(j)}"{suffix};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_linking(sys_pat: SystemPattern) -> str:
    """Two-layer linking graph with a maximum linking drawn bold red."""
    from .soc import input_reachable_restriction

    b = sys_pat.B
    c = _require(sys_pat, "C")
    _, a_r = input_reachable_restriction(sys_pat.A, b)
    linking = max_linking(a_r, b, c)
    return _dot_two_layer("linking", f"maximum linking size {linking.size}", b, a_r, c, linking, False)


def dot_flow(sys_pat: SystemPattern) -> str:
    """Actuator-placement flow graph with the min-cost max flow drawn bold."""
    c = _require(sys_pat, "C")
    # one candidate input per state; only its (dashed) arcs cost 1, so the
    # flow's cost is the number of input arcs it uses
    b = identity_pattern(sys_pat.n)
    linking = max_linking(sys_pat.A, b, c, input_cost=1)
    label = f"max flow {linking.size}, min cost {len(linking.inputs)}"
    return _dot_two_layer("flow", label, b, sys_pat.A, c, linking, True)


def _cmd_export_dot(sys_pat: SystemPattern, args: argparse.Namespace) -> str:
    # looked up when it runs, so a writer rebound on the module is the one called
    return globals()[f"dot_{args.graph}"](sys_pat)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage errors exit 1, not 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="structsys", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="system file (JSON, 1-based indices)")
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.set_defaults(func=func)
        return p

    p = add("grank", _cmd_grank, "generic rank of a matrix or stack")
    p.add_argument("--which", choices=("A", "AC", "ACF", "B", "C", "F"), default="A")

    add("diag", _cmd_diag, "generic diagonalizability of A")

    p = add("sfo", _cmd_sfo, "structural functional observability of (A, C, F)")
    p.add_argument("--method", choices=("general", "b", "c", "d"), default="general")

    add("soc", _cmd_soc, "structural output controllability of (A, B, C)")

    p = add("place-sensors", _cmd_place_sensors, "minimal sensor placement for (A, F)")
    p.add_argument("--method", choices=("alg1", "alg2", "alg3"), required=True)
    p.add_argument(
        "--minimize-links",
        action="store_true",
        help="drop shared-sensor links that are not needed for reachability (alg1 only)",
    )

    add("place-actuators", _cmd_place_actuators, "minimal actuator placement for (A, C)")

    p = add("oracle", _cmd_oracle, "randomized numeric cross-check of a verdict")
    p.add_argument("--check", choices=("diag", "sfo", "soc", "grank"), required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = add("export-dot", _cmd_export_dot, "DOT rendering of a derived graph")
    p.add_argument("--graph", choices=("system", "linking", "flow"), required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = args.func(load_system(args.file), args)
        if isinstance(result, str):
            sys.stdout.write(result)
        else:
            _emit(result, args.json)
        return 0
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, MemoryError, RecursionError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
