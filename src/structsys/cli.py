"""Command-line front end and the on-disk system format.

A system file is a JSON object with integer fields ``n``, ``m``, ``p``, ``r``
and arrays ``A``, ``B``, ``C``, ``F`` of 1-based ``[row, col]`` nonzero
positions. Absent matrices are encoded as empty arrays with their dimension
field set to 0; unknown keys are rejected.

Exit codes: 0 the analysis ran (the verdict is in the report), 2 a
precondition was violated, 1 an I/O, usage or parse error occurred.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from . import placement as placement_mod
# min_cost_max_flow is not called here, but bench/spans.py traces flow solves
# through every module name bound to it and its tests expect this one
from .combinat import max_matching, min_cost_max_flow  # noqa: F401
from .core import (
    Matching,
    Pattern,
    PreconditionError,
    SystemPattern,
    identity_pattern,
    pattern_bigraph,
    stack,
    system_digraph,
)
from .diag import DiagReport, is_generically_diagonalizable
from .grank import Linking, grank, max_linking
from .oracle import (
    OracleConfig,
    diagonalizable_majority,
    numeric_grank,
    numeric_obs_rank,
    numeric_output_controllable,
    sample_field_realization,
)
from .sfo import SfoReport, is_sfo, is_sfo_diag
from .soc import SocReport, is_soc, input_reachable_restriction

_TOP_KEYS = ("n", "m", "p", "r", "A", "B", "C", "F")


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
        dims[key] = value
    if dims["n"] < 1:
        raise SystemFileError("field 'n' must be at least 1")

    def entries(key: str, rows: int, cols: int) -> frozenset[tuple[int, int]]:
        raw = doc[key]
        if not isinstance(raw, list):
            raise SystemFileError(f"field {key!r} must be an array of [row, col] pairs")
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
        return frozenset(out)

    n, m, p, r = dims["n"], dims["m"], dims["p"], dims["r"]
    a = Pattern(n, n, entries("A", n, n))
    b = Pattern(n, m, entries("B", n, m)) if m else _expect_empty(doc, "B")
    c = Pattern(p, n, entries("C", p, n)) if p else _expect_empty(doc, "C")
    f = Pattern(r, n, entries("F", r, n)) if r else _expect_empty(doc, "F")
    return SystemPattern(A=a, B=b, C=c, F=f)


def _expect_empty(doc: dict, key: str) -> None:
    value = doc[key]
    if not isinstance(value, list) or value:
        raise SystemFileError(f"field {key!r} must be an empty array when its dimension is 0")
    return None


def system_to_doc(sys_pat: SystemPattern) -> dict:
    def arr(M: Pattern | None) -> list[list[int]]:
        return [[i, j] for i, j in M.sorted_nonzeros()] if M is not None else []

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


def _pattern_dict(M: Pattern) -> dict:
    return {"rows": M.rows, "cols": M.cols, "nonzeros": [[i, j] for i, j in M.sorted_nonzeros()]}


def _pattern_from_dict(obj: dict) -> Pattern:
    return Pattern(obj["rows"], obj["cols"], frozenset((i, j) for i, j in obj["nonzeros"]))


def _matching_list(m: Matching) -> list[list[int]]:
    return [[r, l] for r, l in sorted(m.edges)]


def diag_report_dict(rep: DiagReport) -> dict:
    return {
        "kind": "diag",
        "verdict": rep.verdict,
        "grank_A": rep.grank_A,
        "v_A": rep.v_A,
        "mwmm_weight": rep.mwmm_weight,
        "certificate": _matching_list(rep.certificate),
    }


def diag_report_from_dict(obj: dict) -> DiagReport:
    return DiagReport(
        verdict=obj["verdict"],
        grank_A=obj["grank_A"],
        v_A=obj["v_A"],
        mwmm_weight=obj["mwmm_weight"],
        certificate=Matching(frozenset((r, l) for r, l in obj["certificate"])),
    )


def sfo_report_dict(rep: SfoReport) -> dict:
    return {
        "kind": "sfo",
        "verdict": rep.verdict,
        "method": rep.method,
        "functional_states": sorted(rep.functional_states),
        "unreachable_functional_states": sorted(rep.unreachable_functional_states),
        "d_AC": rep.d_AC,
        "d_ACF": rep.d_ACF,
        "failing_states": sorted(rep.failing_states),
    }


def sfo_report_from_dict(obj: dict) -> SfoReport:
    return SfoReport(
        verdict=obj["verdict"],
        method=obj["method"],
        functional_states=frozenset(obj["functional_states"]),
        unreachable_functional_states=frozenset(obj["unreachable_functional_states"]),
        d_AC=obj["d_AC"],
        d_ACF=obj["d_ACF"],
        failing_states=frozenset(obj["failing_states"]),
    )


def soc_report_dict(rep: SocReport) -> dict:
    return {
        "kind": "soc",
        "verdict": rep.verdict,
        "precondition_holds": rep.precondition_holds,
        "grank_ArB": rep.grank_ArB,
        "grank_QAB": rep.grank_QAB,
        "linking": rep.linking,
        "input_unreachable": sorted(rep.input_unreachable),
        "certificate": _linking_list(rep.certificate),
    }


def soc_report_from_dict(obj: dict) -> SocReport:
    return SocReport(
        verdict=obj["verdict"],
        precondition_holds=obj["precondition_holds"],
        grank_ArB=obj["grank_ArB"],
        grank_QAB=obj["grank_QAB"],
        linking=obj["linking"],
        input_unreachable=frozenset(obj["input_unreachable"]),
        certificate=_linking_from_list(obj["certificate"]),
    )


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


def sensor_placement_dict(rep: placement_mod.SensorPlacement) -> dict:
    return {
        "kind": "sensor-placement",
        "C_out": _pattern_dict(rep.C_out),
        "p_star": rep.p_star,
        "method": rep.method,
        "X_F_unmatched": sorted(rep.X_F_unmatched),
        "X_S": sorted(rep.X_S),
        "optimal": rep.optimal,
    }


def sensor_placement_from_dict(obj: dict) -> placement_mod.SensorPlacement:
    return placement_mod.SensorPlacement(
        C_out=_pattern_from_dict(obj["C_out"]),
        p_star=obj["p_star"],
        method=obj["method"],
        X_F_unmatched=frozenset(obj["X_F_unmatched"]),
        X_S=frozenset(obj["X_S"]),
        optimal=obj["optimal"],
    )


def actuator_placement_dict(rep: placement_mod.ActuatorPlacement) -> dict:
    return {
        "kind": "actuator-placement",
        "B_out": _pattern_dict(rep.B_out),
        "m_star": rep.m_star,
        "X_f1": sorted(rep.X_f1),
        "X_f2": sorted(rep.X_f2),
        "scc_connections": [list(t) for t in rep.scc_connections],
    }


def actuator_placement_from_dict(obj: dict) -> placement_mod.ActuatorPlacement:
    return placement_mod.ActuatorPlacement(
        B_out=_pattern_from_dict(obj["B_out"]),
        m_star=obj["m_star"],
        X_f1=frozenset(obj["X_f1"]),
        X_f2=frozenset(obj["X_f2"]),
        scc_connections=tuple(tuple(t) for t in obj["scc_connections"]),
    )


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
    if value is None:
        raise PreconditionError(f"matrix {field} is absent (its dimension field is 0)")
    return value


def _zero_rows(sys_pat: SystemPattern, field: str) -> Pattern:
    value = getattr(sys_pat, field)
    return value if value is not None else Pattern(0, sys_pat.n, frozenset())


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


def _cmd_grank(args: argparse.Namespace) -> int:
    sys_pat = load_system(args.file)
    target = _stack_which(sys_pat, args.which)
    cert = max_matching(pattern_bigraph(target))
    report = {
        "kind": "grank",
        "which": args.which,
        "rows": target.rows,
        "cols": target.cols,
        "grank": cert.size,
        "certificate": _matching_list(cert),
    }
    _emit(report, args.json)
    return 0


def _cmd_diag(args: argparse.Namespace) -> int:
    sys_pat = load_system(args.file)
    rep = is_generically_diagonalizable(sys_pat.A)
    _emit(diag_report_dict(rep), args.json)
    return 0


def _cmd_sfo(args: argparse.Namespace) -> int:
    sys_pat = load_system(args.file)
    c = _zero_rows(sys_pat, "C")
    f = _zero_rows(sys_pat, "F")
    if args.method == "general":
        rep = is_sfo(sys_pat.A, c, f)
    else:
        rep = is_sfo_diag(sys_pat.A, c, f, args.method)
    _emit(sfo_report_dict(rep), args.json)
    return 0


def _cmd_soc(args: argparse.Namespace) -> int:
    sys_pat = load_system(args.file)
    b = sys_pat.B if sys_pat.B is not None else Pattern(sys_pat.n, 0, frozenset())
    c = _require(sys_pat, "C")
    _emit(soc_report_dict(is_soc(sys_pat.A, b, c)), args.json)
    return 0


def _cmd_place_sensors(args: argparse.Namespace) -> int:
    sys_pat = load_system(args.file)
    f = _require(sys_pat, "F")
    if args.method == "alg1":
        rep = placement_mod.min_sensors_diag(sys_pat.A, f, minimize_links=args.minimize_links)
    elif args.method == "alg2":
        rep = placement_mod.min_sensors_iterative(sys_pat.A, f)
    else:
        rep = placement_mod.min_sensors_matching(sys_pat.A, f)
    report = sensor_placement_dict(rep)
    report["sfo_with_output"] = is_sfo(sys_pat.A, rep.C_out, f).verdict
    _emit(report, args.json)
    return 0


def _cmd_place_actuators(args: argparse.Namespace) -> int:
    sys_pat = load_system(args.file)
    c = _require(sys_pat, "C")
    rep = placement_mod.min_actuators_diag(sys_pat.A, c)
    report = actuator_placement_dict(rep)
    report["soc_with_input"] = is_soc(sys_pat.A, rep.B_out, c).verdict
    _emit(report, args.json)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    sys_pat = load_system(args.file)
    cfg = OracleConfig(seed=args.seed, trials=args.trials)
    report: dict[str, Any] = {
        "kind": "oracle",
        "check": args.check,
        "trials": args.trials,
        "seed": args.seed,
    }
    if args.check == "grank":
        structural = grank(sys_pat.A)
        numeric = numeric_grank(sys_pat.A, cfg)
        report.update(structural=structural, numeric=numeric, agree=structural == numeric)
    elif args.check == "diag":
        structural = is_generically_diagonalizable(sys_pat.A).verdict
        numeric = diagonalizable_majority(sys_pat.A, cfg)
        report.update(structural=structural, numeric=numeric, agree=structural == numeric)
    elif args.check == "sfo":
        c = _zero_rows(sys_pat, "C")
        f = _zero_rows(sys_pat, "F")
        structural = is_sfo(sys_pat.A, c, f).verdict
        rank_oc, rank_ocf = numeric_obs_rank(sys_pat.A, c, f, cfg)
        numeric = rank_oc == rank_ocf
        report.update(
            structural=structural,
            numeric=numeric,
            rank_OC=rank_oc,
            rank_OCF=rank_ocf,
            agree=structural == numeric,
        )
    else:  # soc
        b = sys_pat.B if sys_pat.B is not None else Pattern(sys_pat.n, 0, frozenset())
        c = _require(sys_pat, "C")
        rep = is_soc(sys_pat.A, b, c)
        numeric = False
        for t in range(cfg.trials):
            a_real = sample_field_realization(sys_pat.A, cfg, t, stream=1)
            b_real = sample_field_realization(b, cfg, t, stream=2)
            c_real = sample_field_realization(c, cfg, t, stream=3)
            if numeric_output_controllable(a_real, b_real, c_real, cfg):
                numeric = True
                break
        report.update(
            structural=rep.verdict,
            numeric=numeric,
            agree=None if rep.verdict == "undecidable" else (rep.verdict == "soc") == numeric,
        )
    _emit(report, args.json)
    return 0


# ---------------------------------------------------------------------------
# DOT export


def _dot_quote(name: str) -> str:
    return f'"{name}"'


def dot_system(sys_pat: SystemPattern) -> str:
    """System graph; the maximal disjoint cycle family of the state pattern
    (the diagonalizability certificate) is drawn bold red."""
    functional = sys_pat.F.column_support() if sys_pat.F is not None else frozenset()
    diag = is_generically_diagonalizable(sys_pat.A)
    cert_edges = {
        (("x", r), ("x", l))
        for r, l in diag.certificate.edges
        if (l, r) in sys_pat.A.nonzeros
    }
    lines = ["digraph system {", "  rankdir=LR;"]
    for i in range(1, sys_pat.n + 1):
        style = ' style=filled fillcolor=gray80' if i in functional else ""
        lines.append(f'  "x{i}" [shape=circle{style}];')
    for i in range(1, sys_pat.m + 1):
        lines.append(f'  "u{i}" [shape=box style=filled fillcolor=lightblue];')
    for i in range(1, sys_pat.p + 1):
        lines.append(f'  "y{i}" [shape=box style=filled fillcolor=lightpink];')
    g = system_digraph(sys_pat)
    for (tk, ti), (hk, hi) in sorted(g.edges):
        attr = " [color=red penwidth=2]" if ((tk, ti), (hk, hi)) in cert_edges else ""
        lines.append(f'  "{tk}{ti}" -> "{hk}{hi}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_arcs(link: Linking) -> set[tuple[str, str]]:
    return {(tail.replace("^", "_"), head.replace("^", "_")) for tail, head in _linking_list(link)}


def dot_linking(sys_pat: SystemPattern) -> str:
    """Two-layer linking graph with a maximum linking drawn bold red."""
    a = sys_pat.A
    b = sys_pat.B if sys_pat.B is not None else Pattern(sys_pat.n, 0, frozenset())
    c = _require(sys_pat, "C")
    a_r = input_reachable_restriction(a, b)
    n, m, p = a.rows, b.cols, c.rows
    b_entries = b.sorted_nonzeros()
    a_entries = a_r.sorted_nonzeros()
    c_entries = c.sorted_nonzeros()
    linking = max_linking(a_r, b, c)
    hot = _dot_arcs(linking)
    lines = [
        "digraph linking {",
        "  rankdir=LR;",
        f'  label="maximum linking size {linking.size}";',
    ]
    for i in range(1, m + 1):
        lines.append(f'  "u{i}" [shape=box style=filled fillcolor=lightblue];')
    for i in range(1, n + 1):
        lines.append(f'  "x{i}_2" [shape=circle label="x{i}^2"];')
    for i in range(1, n + 1):
        lines.append(f'  "x{i}_1" [shape=circle label="x{i}^1"];')
    for j in range(1, p + 1):
        lines.append(f'  "y{j}" [shape=box style=filled fillcolor=lightpink];')

    def edge(tail: str, head: str) -> str:
        attr = " [color=red penwidth=2]" if (tail, head) in hot else ""
        return f'  "{tail}" -> "{head}"{attr};'

    for j, i in b_entries:
        lines.append(edge(f"u{i}", f"x{j}_1"))
    for j, i in a_entries:
        lines.append(edge(f"x{i}_2", f"x{j}_1"))
    for j, i in c_entries:
        lines.append(edge(f"x{i}_1", f"y{j}"))
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_flow(sys_pat: SystemPattern) -> str:
    """Actuator-placement flow graph with the min-cost max flow drawn bold."""
    a = sys_pat.A
    c = _require(sys_pat, "C")
    n, p = a.rows, c.rows
    a_entries = a.sorted_nonzeros()
    c_entries = c.sorted_nonzeros()
    # one candidate input per state; only its arcs cost 1, so the flow's
    # cost is the number of input arcs it uses
    linking = max_linking(a, identity_pattern(n), c, input_cost=1)
    hot = _dot_arcs(linking)
    costly = {(f"u{i}", f"x{i}_1") for i in range(1, n + 1)}
    lines = [
        "digraph flow {",
        "  rankdir=LR;",
        f'  label="max flow {linking.size}, min cost {len(linking.inputs)}";',
    ]
    for i in range(1, n + 1):
        lines.append(f'  "u{i}" [shape=box style=filled fillcolor=lightblue];')
    for i in range(1, n + 1):
        lines.append(f'  "x{i}_2" [shape=circle label="x{i}^2"];')
    for i in range(1, n + 1):
        lines.append(f'  "x{i}_1" [shape=circle label="x{i}^1"];')
    for j in range(1, p + 1):
        lines.append(f'  "y{j}" [shape=box style=filled fillcolor=lightpink];')

    def edge(tail: str, head: str) -> str:
        attrs = []
        if (tail, head) in costly:
            attrs.append("style=dashed")
        if (tail, head) in hot:
            attrs.append("color=red penwidth=2")
        suffix = f" [{' '.join(attrs)}]" if attrs else ""
        return f'  "{tail}" -> "{head}"{suffix};'

    for i in range(1, n + 1):
        lines.append(edge(f"u{i}", f"x{i}_1"))
    for j, i in a_entries:
        lines.append(edge(f"x{i}_2", f"x{j}_1"))
    for j, i in c_entries:
        lines.append(edge(f"x{i}_1", f"y{j}"))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_export_dot(args: argparse.Namespace) -> int:
    sys_pat = load_system(args.file)
    if args.graph == "system":
        sys.stdout.write(dot_system(sys_pat))
    elif args.graph == "linking":
        sys.stdout.write(dot_linking(sys_pat))
    else:
        sys.stdout.write(dot_flow(sys_pat))
    return 0


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
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except (SystemFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
