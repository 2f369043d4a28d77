"""Command-line interface, file format and report schema."""

from __future__ import annotations

import json
import random

import pytest

from structsys import is_generically_diagonalizable, is_sfo, is_soc, min_actuators_diag, min_sensors_diag
from structsys.cli import (
    actuator_placement_from_dict,
    diag_report_from_dict,
    load_system,
    main,
    parse_system,
    save_system,
    sensor_placement_from_dict,
    sfo_report_from_dict,
    soc_report_dict,
    soc_report_from_dict,
    system_to_doc,
)
from support import chain_pattern, fixture_path, rand_pattern, rand_square

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
    ],
)
def test_parse_rejections_name_the_field(mutate, message):
    doc = json.loads(open(COUNTER).read())
    mutate(doc)
    with pytest.raises(ValueError, match=message):
        parse_system(doc)


# ---------------------------------------------------------------------------
# exit status contract


def test_exit_zero_on_analyses(capsys):
    for argv in (
        ("grank", COUNTER, "--which", "AC"),
        ("diag", COUNTER),
        ("sfo", COUNTER),
        ("soc", SOC),
        ("place-sensors", SENSOR, "--method", "alg2"),
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
    assert run(capsys, "diag", str(tmp_path / "missing.json"))[0] == 1
    assert run(capsys, "diag", COUNTER, "--frobnicate")[0] == 1  # unknown flag
    assert run(capsys, "grank", COUNTER, "--which", "Z")[0] == 1


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
    assert sfo_report_from_dict(doc) == direct


def test_diag_report_values(capsys):
    doc = run_json(capsys, "diag", COUNTER)
    assert doc["verdict"] is True
    assert doc["grank_A"] == 1 and doc["v_A"] == 1
    direct = is_generically_diagonalizable(load_system(COUNTER).A)
    assert diag_report_from_dict(doc) == direct


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
    assert soc_report_from_dict(doc) == is_soc(sys_pat.A, sys_pat.B, sys_pat.C)
    assert doc["verdict"] == "soc" and doc["linking"] == 2


def test_sensor_placement_round_trip(capsys):
    doc = run_json(capsys, "place-sensors", ALG1, "--method", "alg1")
    sys_pat = load_system(ALG1)
    assert sensor_placement_from_dict(doc) == min_sensors_diag(sys_pat.A, sys_pat.F)
    assert doc["sfo_with_output"] is True
    assert doc["p_star"] == 1 and doc["X_S"] == [2, 4] and doc["X_F_unmatched"] == [6]


def test_actuator_placement_round_trip(capsys):
    doc = run_json(capsys, "place-actuators", ACTUATOR)
    sys_pat = load_system(ACTUATOR)
    assert actuator_placement_from_dict(doc) == min_actuators_diag(sys_pat.A, sys_pat.C)
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
    # certificate is the linking the report already holds. The package
    # re-exports functions under its submodules' names (``structsys.grank``
    # is the function), so every alias is reached through ``sys.modules``.
    import sys

    real = sys.modules["structsys.combinat"].min_cost_max_flow
    solves = []

    def counting(*args, **kwargs):
        solves.append(args[0])
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("structsys") and getattr(module, "min_cost_max_flow", None) is real:
            monkeypatch.setattr(module, "min_cost_max_flow", counting)
    assert run_json(capsys, "soc", SOC)["verdict"] == "soc"
    assert len(solves) == 2


def test_soc_report_dict_round_trip_keeps_the_certificate():
    rnd = random.Random(46)
    for _ in range(100):
        n = rnd.randint(1, 6)
        a = rand_square(rnd, n)
        b = rand_pattern(rnd, n, rnd.randint(0, 2), 0.4)
        c = rand_pattern(rnd, rnd.randint(1, 3), n, 0.4)
        rep = is_soc(a, b, c)
        assert soc_report_from_dict(json.loads(json.dumps(soc_report_dict(rep)))) == rep
