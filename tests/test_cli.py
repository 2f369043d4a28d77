"""Command-line interface, file format and report schema."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from structsys import (
    PreconditionError,
    is_generically_diagonalizable,
    is_sfo,
    is_soc,
    min_actuators_diag,
    min_sensors_diag,
    min_sensors_iterative,
    min_sensors_matching,
)
from structsys.cli import (
    MAX_DIMENSION,
    SystemFileError,
    load_system,
    main,
    parse_system,
    report_dict,
    report_from_dict,
    save_system,
    system_to_doc,
)
from support import (
    chain_pattern,
    count_flow_solves,
    fixture_path,
    rand_gen_diag,
    rand_pattern,
    rand_square,
    reference_parse_system,
)

COUNTER = fixture_path("example_counter")
SOC = fixture_path("example_soc")
SENSOR = fixture_path("example_sensor_general")
ACTUATOR = fixture_path("example_actuator")
ALG1 = fixture_path("example_alg1")
ZERO = fixture_path("zero")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# file format


def test_round_trip_is_identity(tmp_path):
    for path in (COUNTER, SOC, SENSOR, ACTUATOR, ZERO):
        sys_pat = load_system(path)
        target = tmp_path / "copy.json"
        save_system(sys_pat, str(target))
        assert load_system(str(target)) == sys_pat
        assert parse_system(system_to_doc(sys_pat)) == sys_pat


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(extra=1), "unknown key"),
        (lambda d: d.pop("p"), "missing key"),
        (lambda d: d.update(n=-1), "non-negative"),
        (lambda d: d.update(n=0), "at least 1"),
        (lambda d: d.update(A=[[0, 1]]), "outside"),
        (lambda d: d.update(A=[[1]]), "malformed"),
        (lambda d: d.update(B=[[1, 1]]), "empty"),
        (lambda d: d.update(A={}), "array"),
        # one past the limit is refused by the parse alone, before any pattern
        (lambda d: d.update(n=MAX_DIMENSION + 1), "field 'n' must be at most 1000000"),
        (lambda d: d.update(m=MAX_DIMENSION + 1), "field 'm' must be at most 1000000"),
        (lambda d: d.update(p=MAX_DIMENSION + 1), "field 'p' must be at most 1000000"),
        (lambda d: d.update(r=MAX_DIMENSION + 1), "field 'r' must be at most 1000000"),
    ],
)
def test_parse_rejections_name_the_field(mutate, message):
    doc = json.loads(open(COUNTER).read())
    mutate(doc)
    with pytest.raises(ValueError, match=message):
        parse_system(doc)


class _Index(int):
    """An int subclass: valid in a document, but not a plain int."""


# each fault puts one odd value into a random array of a document
_FAULTS = {
    "bool": lambda rnd, entry, dims: [True, entry[1]],
    "float": lambda rnd, entry, dims: [float(entry[0]), entry[1]],
    "nested": lambda rnd, entry, dims: [entry, entry[1]],
    "tuple": lambda rnd, entry, dims: tuple(entry),
    "length 1": lambda rnd, entry, dims: entry[:1],
    "length 3": lambda rnd, entry, dims: entry + [1],
    "index 0": lambda rnd, entry, dims: [entry[0], 0],
    "row past the end": lambda rnd, entry, dims: [dims[0] + 1, entry[1]],
    "column past the end": lambda rnd, entry, dims: [entry[0], dims[1] + rnd.randint(1, 3)],
    "negative": lambda rnd, entry, dims: [-entry[0], entry[1]],
    "int subclass": lambda rnd, entry, dims: [_Index(entry[0]), entry[1]],
    "duplicate": lambda rnd, entry, dims: entry,
}


def _seeded_document(rnd: random.Random) -> tuple[dict, list[str]]:
    """A small system document, often with one or two faults."""
    n, m, p, r = rnd.randint(1, 5), rnd.randint(0, 3), rnd.randint(0, 3), rnd.randint(0, 3)
    shapes = {"A": (n, n), "B": (n, m), "C": (p, n), "F": (r, n)}
    doc: dict = {"n": n, "m": m, "p": p, "r": r}
    for key, (rows, cols) in shapes.items():
        doc[key] = [
            [rnd.randint(1, rows), rnd.randint(1, cols)]  # unsorted, repeats allowed
            for _ in range(rnd.randint(0, 6) if rows and cols else 0)
        ]
    clean = {key: list(doc[key]) for key in shapes}
    faults = rnd.sample(sorted(_FAULTS), rnd.choice((0, 1, 1, 2)))
    for fault in faults:
        key = rnd.choice("ABCF")
        entry = rnd.choice(clean[key]) if clean[key] else [1, 1]
        doc[key].insert(rnd.randint(0, len(doc[key])), _FAULTS[fault](rnd, list(entry), shapes[key]))
    if rnd.random() < 0.03:
        doc["A"], faults = {}, faults + ["A={}"]
    return doc, faults


def test_parse_system_matches_the_per_entry_loop():
    # every document gives the reference loop's system, or its message
    def outcome(parse, doc):
        try:
            return parse(doc)
        except SystemFileError as exc:
            return str(exc)

    rnd = random.Random(20)
    accepted, seen = 0, dict.fromkeys([*_FAULTS, "A={}"], 0)
    for _ in range(3000):
        doc, faults = _seeded_document(rnd)
        ours = outcome(parse_system, doc)
        assert ours == outcome(reference_parse_system, doc), (doc, ours)
        accepted += not isinstance(ours, str)
        for fault in faults:
            seen[fault] += 1
    assert accepted >= 600 and min(seen.values()) >= 30, (accepted, seen)


# ---------------------------------------------------------------------------
# exit status contract


def test_exit_zero_on_analyses(capsys):
    for argv in (
        ("grank", COUNTER, "--which", "AC"),
        ("diag", COUNTER),
        ("sfo", COUNTER),
        ("soc", SOC),
        ("place-sensors", SENSOR, "--method", "alg2"),
        ("place-sensors", SENSOR, "--method", "alg3"),
        ("place-actuators", ACTUATOR),
        ("oracle", COUNTER, "--check", "grank", "--trials", "2", "--seed", "1"),
        ("export-dot", SOC, "--graph", "system"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_exit_one_on_parse_and_usage_errors(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1, "m": 0, "p": 0, "r": 0, "A": [], "B": [], "C": [], "F": [], "zz": 1}')
    assert run(capsys, "diag", str(bad))[0] == 1
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert run(capsys, "diag", str(notjson))[0] == 1
    notobject = tmp_path / "notobject.json"
    notobject.write_text("[]")
    assert run(capsys, "diag", str(notobject)) == (
        1, "", "error: top-level value must be an object\n"
    )
    assert run(capsys, "diag", str(tmp_path / "missing.json"))[0] == 1
    assert run(capsys, "diag", COUNTER, "--frobnicate")[0] == 1  # unknown flag
    assert run(capsys, "grank", COUNTER, "--which", "Z")[0] == 1


@pytest.mark.parametrize(
    "error, message",
    [
        (MemoryError(), "error: MemoryError\n"),
        (RecursionError("maximum recursion depth exceeded"), "error: maximum recursion depth exceeded\n"),
    ],
)
def test_exit_one_when_the_analysis_runs_out_of_resources(capsys, monkeypatch, error, message):
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr("structsys.cli.is_generically_diagonalizable", exhausted)
    assert run(capsys, "diag", COUNTER) == (1, "", message)


def test_exit_two_on_precondition_violations(capsys):
    # alg1 needs a generically diagonalizable state pattern
    code, _, err = run(capsys, "place-sensors", SENSOR, "--method", "alg1")
    assert code == 2 and "diagonalizable" in err
    # the simplified criteria need it too
    code, _, err = run(capsys, "sfo", SENSOR, "--method", "b")
    assert code == 2
    # actuator placement needs outputs
    code, _, err = run(capsys, "place-actuators", SENSOR)
    assert code == 2
    # soc needs at least one output row
    code, _, err = run(capsys, "soc", ZERO)
    assert code == 2
    # requesting an absent matrix
    code, _, err = run(capsys, "grank", ZERO, "--which", "C")
    assert code == 2 and "absent" in err


# ---------------------------------------------------------------------------
# report values and schema round trips


def test_sfo_report_values(capsys):
    doc = run_json(capsys, "sfo", COUNTER)
    assert doc["verdict"] is False
    assert doc["d_AC"] == 3 and doc["d_ACF"] == 4
    sys_pat = load_system(COUNTER)
    direct = is_sfo(sys_pat.A, sys_pat.C, sys_pat.F)
    assert report_from_dict(doc) == direct


def test_diag_report_values(capsys):
    doc = run_json(capsys, "diag", COUNTER)
    assert doc["verdict"] is True
    assert doc["grank_A"] == 1 and doc["v_A"] == 1
    direct = is_generically_diagonalizable(load_system(COUNTER).A)
    assert report_from_dict(doc) == direct


def test_grank_zero_pattern(capsys):
    doc = run_json(capsys, "grank", ZERO, "--which", "A")
    assert doc["grank"] == 0 and doc["certificate"] == []


def test_grank_certificate_is_checkable(capsys):
    # the emitted matching must pair distinct columns with distinct rows,
    # every pair sitting on a free entry of the stacked pattern
    from structsys import stack

    doc = run_json(capsys, "grank", COUNTER, "--which", "ACF")
    sys_pat = load_system(COUNTER)
    target = stack(stack(sys_pat.A, sys_pat.C), sys_pat.F)
    cert = [(r, l) for r, l in doc["certificate"]]
    assert len(cert) == doc["grank"] == 4
    assert len({r for r, _ in cert}) == len(cert)
    assert len({l for _, l in cert}) == len(cert)
    assert all((l, r) in target.nonzeros for r, l in cert)


def test_soc_report_round_trip(capsys):
    doc = run_json(capsys, "soc", SOC)
    sys_pat = load_system(SOC)
    assert report_from_dict(doc) == is_soc(sys_pat.A, sys_pat.B, sys_pat.C)
    assert doc["verdict"] == "soc" and doc["linking"] == 2


def test_sensor_placement_round_trip(capsys):
    doc = run_json(capsys, "place-sensors", ALG1, "--method", "alg1")
    sys_pat = load_system(ALG1)
    assert report_from_dict(doc) == min_sensors_diag(sys_pat.A, sys_pat.F)
    assert doc["sfo_with_output"] is True
    assert doc["p_star"] == 1 and doc["X_S"] == [2, 4] and doc["X_F_unmatched"] == [6]
    doc = run_json(capsys, "place-sensors", SENSOR, "--method", "alg3")
    sys_pat = load_system(SENSOR)
    assert report_from_dict(doc) == min_sensors_matching(sys_pat.A, sys_pat.F)
    assert doc["method"] == "alg3" and doc["p_star"] == 2
    assert report_from_dict(doc).C_out.nonzeros == {(1, 3), (2, 4)}
    assert doc["sfo_with_output"] is True


def test_actuator_placement_round_trip(capsys):
    doc = run_json(capsys, "place-actuators", ACTUATOR)
    sys_pat = load_system(ACTUATOR)
    assert report_from_dict(doc) == min_actuators_diag(sys_pat.A, sys_pat.C)
    assert doc["soc_with_input"] == "soc"
    assert doc["m_star"] == 1 and doc["X_f1"] == [2] and doc["X_f2"] == [2, 4]


def test_sfo_simplified_methods_on_diagonalizable_input(capsys):
    for method in ("b", "c", "d"):
        doc = run_json(capsys, "sfo", COUNTER, "--method", method)
        assert doc["verdict"] is False
        assert doc["method"].startswith("diag-")


def test_place_sensors_minimize_links_flag(capsys):
    doc = run_json(capsys, "place-sensors", ALG1, "--method", "alg1", "--minimize-links")
    assert doc["sfo_with_output"] is True
    assert doc["p_star"] == 1


def test_oracle_subcommand_agreement(capsys):
    for check, path in (("diag", COUNTER), ("sfo", COUNTER), ("soc", SOC), ("grank", COUNTER)):
        doc = run_json(capsys, "oracle", path, "--check", check, "--trials", "3", "--seed", "7")
        assert doc["agree"] is True, (check, doc)


# ---------------------------------------------------------------------------
# DOT export


def test_dot_system_marks_functional_states(capsys):
    code, out, _ = run(capsys, "export-dot", COUNTER, "--graph", "system")
    assert code == 0
    assert out.startswith("digraph system {")
    assert '"x1" [shape=circle style=filled fillcolor=gray80];' in out
    assert '"x4" -> "y3";' in out
    # the cycle family certifying diagonalizability: the x4 self-loop
    assert '"x4" -> "x4" [color=red penwidth=2];' in out


DOT_SYSTEM_SMALL = """digraph system {
  rankdir=LR;
  "x1" [shape=circle];
  "x2" [shape=circle];
  "x3" [shape=circle style=filled fillcolor=gray80];
  "u1" [shape=box style=filled fillcolor=lightblue];
  "y1" [shape=box style=filled fillcolor=lightpink];
  "u1" -> "x2";
  "x1" -> "x2" [color=red penwidth=2];
  "x1" -> "y1";
  "x2" -> "x1" [color=red penwidth=2];
  "x3" -> "x3" [color=red penwidth=2];
  "x3" -> "y1";
}
"""


def test_dot_system_pinned(capsys, tmp_path):
    # input edges first, then per state its edges to states and to outputs
    path = tmp_path / "small.json"
    path.write_text(json.dumps({
        "n": 3, "m": 1, "p": 1, "r": 1, "A": [[2, 1], [1, 2], [3, 3]],
        "B": [[2, 1]], "C": [[1, 1], [1, 3]], "F": [[1, 3]],
    }))
    code, out, _ = run(capsys, "export-dot", str(path), "--graph", "system")
    assert code == 0
    assert out == DOT_SYSTEM_SMALL


def test_dot_linking_highlights_maximum_linking(capsys):
    code, out, _ = run(capsys, "export-dot", SOC, "--graph", "linking")
    assert code == 0
    assert "maximum linking size 2" in out
    assert out.count("color=red penwidth=2") == 4  # two paths of two arcs each


def test_dot_flow_reports_value_and_cost(capsys):
    code, out, _ = run(capsys, "export-dot", ACTUATOR, "--graph", "flow")
    assert code == 0
    assert "max flow 3, min cost 1" in out
    assert '"u2" -> "x2_1" [style=dashed color=red penwidth=2];' in out


def test_grank_long_chain_exits_zero(capsys, tmp_path):
    n = 2000
    A = chain_pattern(n)
    doc = {"n": n, "m": 0, "p": 0, "r": 0, "B": [], "C": [], "F": []}
    doc["A"] = [[i, j] for i, j in A.sorted_nonzeros()]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_json(capsys, "grank", str(path), "--which", "A")["grank"] == n


def test_cli_import_leaves_numpy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, structsys.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_imports_load_only_what_they_run():
    # the package loads the engine modules alone, the CLI adds diag, and every
    # export still binds; structsys.grank stays the function it re-exports
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "import sys\n"
        "def loaded():\n"
        "    print(sorted(m for m in sys.modules if m.startswith('structsys')))\n"
        "import structsys\n"
        "loaded()\n"
        "import structsys.cli\n"
        "loaded()\n"
        "names = {}\n"
        "exec('from structsys import *', names)\n"
        "print(sorted(set(structsys.__all__) - set(names)))\n"
        "import structsys.diag, structsys.grank, structsys.oracle, structsys.placement\n"
        "import structsys.sfo, structsys.soc\n"
        "print(type(structsys.grank).__name__, names['grank'] is structsys.grank)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    engine = ["structsys", "structsys.combinat", "structsys.core", "structsys.grank"]
    assert out.stdout.splitlines() == [
        str(engine),
        str(sorted(engine + ["structsys.cli", "structsys.diag"])),
        "[]",
        "function True",
    ]


def test_soc_certificate_pinned(capsys):
    doc = run_json(capsys, "soc", SOC)
    assert doc["certificate"] == [["x2^2", "x3^1"], ["x1^2", "x4^1"], ["x3^1", "y1"], ["x4^1", "y2"]]


def test_dot_flow_draws_the_pinned_flow(capsys):
    code, out, _ = run(capsys, "export-dot", ACTUATOR, "--graph", "flow")
    assert code == 0
    hot = sorted(line.strip() for line in out.splitlines() if "color=red" in line)
    assert hot == sorted([
        '"u2" -> "x2_1" [style=dashed color=red penwidth=2];',
        '"x2_2" -> "x4_1" [color=red penwidth=2];',
        '"x4_2" -> "x5_1" [color=red penwidth=2];',
        '"x4_1" -> "y1" [color=red penwidth=2];',
        '"x5_1" -> "y2" [color=red penwidth=2];',
        '"x2_1" -> "y3" [color=red penwidth=2];',
    ])


def test_soc_command_solves_two_flows(capsys, monkeypatch):
    # one flow for the input cactus, one for the linking; the emitted
    # certificate is the linking the report already holds
    solves = count_flow_solves(monkeypatch)
    assert run_json(capsys, "soc", SOC)["verdict"] == "soc"
    assert len(solves) == 2


def test_soc_report_dict_round_trip_keeps_the_certificate():
    # every report kind, certificates included, survives report_dict, JSON
    # and report_from_dict; the placements run where their preconditions hold
    rnd = random.Random(46)
    kinds, empty_sets, no_connections = set(), 0, 0
    for _ in range(100):
        n = rnd.randint(1, 6)
        a = rand_gen_diag(rnd, n) if rnd.random() < 0.5 else rand_square(rnd, n)
        b = rand_pattern(rnd, n, rnd.randint(0, 2), 0.4)
        c = rand_pattern(rnd, rnd.randint(1, 3), n, 0.4)
        f = rand_pattern(rnd, rnd.randint(1, 2), n, 0.4)
        reports = [is_generically_diagonalizable(a), is_sfo(a, c, f), is_soc(a, b, c)]
        for place in (
            lambda: min_sensors_diag(a, f),
            lambda: min_sensors_iterative(a, f),
            lambda: min_sensors_matching(a, f),
            lambda: min_actuators_diag(a, c),
        ):
            try:
                reports.append(place())
            except PreconditionError:
                pass
        for rep in reports:
            doc = report_dict(rep)
            assert report_from_dict(json.loads(json.dumps(doc))) == rep
            kinds.add(doc["kind"])
            empty_sets += any(getattr(rep, f.name) == frozenset() for f in fields(rep))
            no_connections += doc.get("scc_connections") == []
    assert kinds == {"diag", "sfo", "soc", "sensor-placement", "actuator-placement"}
    assert empty_sets and no_connections
    with pytest.raises(ValueError, match="unknown report kind"):
        report_from_dict({"kind": "grank", "grank": 0})


# ---------------------------------------------------------------------------
# pinned outputs: text mode prints a report's fields in dataclass order, and
# the DOT writers emit nodes and arcs in a fixed order


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ("diag", COUNTER),
            "verdict: True\n"
            "grank_A: 1\n"
            "v_A: 1\n"
            "mwmm_weight: 3\n"
            "certificate: [[1, 1], [2, 2], [3, 3], [4, 4]]\n",
        ),
        (
            ("sfo", COUNTER),
            "verdict: False\n"
            "method: general-cactus\n"
            "functional_states: [1]\n"
            "unreachable_functional_states: []\n"
            "d_AC: 3\n"
            "d_ACF: 4\n"
            "failing_states: [1]\n",
        ),
        (
            ("soc", SOC),
            "verdict: soc\n"
            "precondition_holds: True\n"
            "grank_ArB: 3\n"
            "grank_QAB: 3\n"
            "linking: 2\n"
            "input_unreachable: [5]\n"
            "certificate: [['x2^2', 'x3^1'], ['x1^2', 'x4^1'], ['x3^1', 'y1'], ['x4^1', 'y2']]\n",
        ),
        (
            ("place-sensors", ALG1, "--method", "alg1"),
            "C_out: {'rows': 1, 'cols': 6, 'nonzeros': [[1, 2], [1, 4], [1, 6]]}\n"
            "p_star: 1\n"
            "method: alg1\n"
            "X_F_unmatched: [6]\n"
            "X_S: [2, 4]\n"
            "optimal: True\n"
            "sfo_with_output: True\n",
        ),
        (
            ("place-actuators", ACTUATOR),
            "B_out: {'rows': 5, 'cols': 1, 'nonzeros': [[2, 1]]}\n"
            "m_star: 1\n"
            "X_f1: [2]\n"
            "X_f2: [2, 4]\n"
            "scc_connections: [[2, 2, 1]]\n"
            "soc_with_input: soc\n",
        ),
    ],
)
def test_text_reports_pinned(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected, "")


DOT_LINKING_SOC = """\
digraph linking {
  rankdir=LR;
  label="maximum linking size 2";
  "u1" [shape=box style=filled fillcolor=lightblue];
  "x1_2" [shape=circle label="x1^2"];
  "x2_2" [shape=circle label="x2^2"];
  "x3_2" [shape=circle label="x3^2"];
  "x4_2" [shape=circle label="x4^2"];
  "x5_2" [shape=circle label="x5^2"];
  "x1_1" [shape=circle label="x1^1"];
  "x2_1" [shape=circle label="x2^1"];
  "x3_1" [shape=circle label="x3^1"];
  "x4_1" [shape=circle label="x4^1"];
  "x5_1" [shape=circle label="x5^1"];
  "y1" [shape=box style=filled fillcolor=lightpink];
  "y2" [shape=box style=filled fillcolor=lightpink];
  "u1" -> "x1_1";
  "x1_2" -> "x2_1";
  "x2_2" -> "x3_1" [color=red penwidth=2];
  "x1_2" -> "x4_1" [color=red penwidth=2];
  "x3_1" -> "y1" [color=red penwidth=2];
  "x4_1" -> "y2" [color=red penwidth=2];
}
"""

DOT_FLOW_ACTUATOR = """\
digraph flow {
  rankdir=LR;
  label="max flow 3, min cost 1";
  "u1" [shape=box style=filled fillcolor=lightblue];
  "u2" [shape=box style=filled fillcolor=lightblue];
  "u3" [shape=box style=filled fillcolor=lightblue];
  "u4" [shape=box style=filled fillcolor=lightblue];
  "u5" [shape=box style=filled fillcolor=lightblue];
  "x1_2" [shape=circle label="x1^2"];
  "x2_2" [shape=circle label="x2^2"];
  "x3_2" [shape=circle label="x3^2"];
  "x4_2" [shape=circle label="x4^2"];
  "x5_2" [shape=circle label="x5^2"];
  "x1_1" [shape=circle label="x1^1"];
  "x2_1" [shape=circle label="x2^1"];
  "x3_1" [shape=circle label="x3^1"];
  "x4_1" [shape=circle label="x4^1"];
  "x5_1" [shape=circle label="x5^1"];
  "y1" [shape=box style=filled fillcolor=lightpink];
  "y2" [shape=box style=filled fillcolor=lightpink];
  "y3" [shape=box style=filled fillcolor=lightpink];
  "u1" -> "x1_1" [style=dashed];
  "u2" -> "x2_1" [style=dashed color=red penwidth=2];
  "u3" -> "x3_1" [style=dashed];
  "u4" -> "x4_1" [style=dashed];
  "u5" -> "x5_1" [style=dashed];
  "x4_2" -> "x2_1";
  "x2_2" -> "x4_1" [color=red penwidth=2];
  "x4_2" -> "x5_1" [color=red penwidth=2];
  "x4_1" -> "y1" [color=red penwidth=2];
  "x5_1" -> "y2" [color=red penwidth=2];
  "x2_1" -> "y3" [color=red penwidth=2];
}
"""


@pytest.mark.parametrize(
    "path, graph, expected",
    [(SOC, "linking", DOT_LINKING_SOC), (ACTUATOR, "flow", DOT_FLOW_ACTUATOR)],
)
def test_two_layer_dot_pinned(capsys, path, graph, expected):
    assert run(capsys, "export-dot", path, "--graph", graph) == (0, expected, "")
