"""Byte-for-byte pin of the command-line outputs.

Every subcommand variant runs through ``structsys.cli.main`` in process, in
text and ``--json`` modes, on the fixtures and on four small systems of the
benchmark's generators. Each run's exit code, stdout and stderr are hashed
together and compared with ``cli_outputs.json``. Regenerate that file only
for a change that means to move outputs:

    PYTHONPATH=src python tests/test_cli_outputs.py
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from structsys.cli import main
from support import FIXTURE_NAMES, bench_gen, fixture_path

PINS = Path(__file__).parent / "cli_outputs.json"

VARIANTS = (
    *(("grank", "--which", which) for which in ("A", "AC", "ACF", "B", "C", "F")),
    ("diag",),
    *(("sfo", "--method", method) for method in ("general", "b", "c", "d")),
    ("soc",),
    ("place-sensors", "--method", "alg1"),
    ("place-sensors", "--method", "alg1", "--minimize-links"),
    ("place-sensors", "--method", "alg2"),
    ("place-sensors", "--method", "alg3"),
    ("place-actuators",),
    *(("oracle", "--check", check, "--trials", "2") for check in ("diag", "sfo", "soc", "grank")),
    *(("export-dot", "--graph", graph) for graph in ("system", "linking", "flow")),
)


def _generated() -> dict[str, dict]:
    """Two verdicts-family and two placement-family systems, one of them
    with dense outputs."""
    gen = bench_gen()
    return {
        "verdict16": gen.verdict_system(random.Random("cli/verdict16"), 16),
        "verdict20dense": gen.verdict_system(random.Random("cli/verdict20"), 20, dense_output=True),
        "placement20": gen.placement_system(random.Random("cli/placement20"), 20),
        "placement30": gen.placement_system(random.Random("cli/placement30"), 30),
    }


def _digest(path: str, argv: tuple[str, ...]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([argv[0], path, *argv[1:]])
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def outputs(workdir: Path) -> dict[str, str]:
    """One digest per system, variant and mode; generated systems are written
    under ``workdir``."""
    paths = {name: fixture_path(name) for name in FIXTURE_NAMES}
    for name, doc in _generated().items():
        paths[name] = str(workdir / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")
    return {
        " ".join((name, *argv, *mode)): _digest(path, (*argv, *mode))
        for name, path in paths.items()
        for argv in VARIANTS
        for mode in ((), ("--json",))
    }


def test_every_cli_output_matches_its_pin(tmp_path):
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    assert len(pins) == 10 * len(VARIANTS) * 2
    got = outputs(tmp_path)
    assert [key for key in pins if got.get(key) != pins[key]] == []
    assert got.keys() == pins.keys()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        PINS.write_text(json.dumps(outputs(Path(tmp)), indent=1, sort_keys=True) + "\n", encoding="utf-8")
