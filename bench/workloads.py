"""The three benchmark workloads.

Each workload is closed-loop with one caller: the next operation starts
when the previous one has completed, and at most one child process runs at
a time. ``prepare`` is one set-up (inputs from the seed, warm-up), ``run``
performs the operation in slot k and returns its result, ``check``
verifies a result outside the timed region and returns an error message or
None, and ``invariants`` reduces a result to the label-free figures stored
in the digest. Library modules are imported only after ``run.py`` has put
the checkout's ``src`` on the import path.
"""

from __future__ import annotations

import json
import os
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen

LIBRARY_TIMEOUT_S = 30.0
CLI_TIMEOUT_S = 60.0


class OpTimeout(Exception):
    """An operation ran past its safety-net timeout."""


class OpFailed(Exception):
    """An operation raised, exited with an unexpected code or timed out."""


def _inverse(perm: list[int]) -> list[int]:
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old
    return inv


def _back(states, inv: list[int]) -> list[int]:
    return sorted(inv[s] for s in states)


def _patterns(doc: dict):
    from structsys import Pattern

    n = doc["n"]

    def pat(key: str, rows: int, cols: int) -> Pattern:
        return Pattern(rows, cols, frozenset(map(tuple, doc[key])))

    return pat("A", n, n), pat("B", n, doc["m"]), pat("C", doc["p"], n), pat("F", doc["r"], n)


def children_cpu_s() -> float:
    """CPU seconds of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class _Library:
    """A workload whose operations call the library in this process."""

    name = ""
    clock = staticmethod(time.process_time)

    def __init__(self, root: Path, seed: int) -> None:
        self.root, self.seed = root, seed
        self.items: list[tuple[dict, list[int]]] = []

    def prepare(self) -> None:
        """One set-up: import the library in a fresh interpreter, generate
        the systems, run one warm-up operation on the smallest."""
        subprocess.run([sys.executable, "-c", "import structsys"], env=child_env(self.root), check=True)
        self.items = self.generate()
        self.run(min(range(len(self.items)), key=lambda k: self.items[k][0]["n"]))

    def generate(self) -> list[tuple[dict, list[int]]]:
        raise NotImplementedError

    def run(self, k: int):
        def expire(signum, frame):
            raise OpTimeout(f"op {k} exceeded {LIBRARY_TIMEOUT_S} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, LIBRARY_TIMEOUT_S)
        try:
            return self.op(*_patterns(self.items[k][0]))
        except OpTimeout as exc:
            raise OpFailed(str(exc)) from exc
        except Exception as exc:  # any exception is a failed op
            raise OpFailed(f"{type(exc).__name__}: {exc}") from exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def op(self, A, B, C, F):
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    @property
    def count(self) -> int:
        return len(self.items)

    def digest_key(self, slot: int) -> str:
        return str(slot)


class Verdicts(_Library):
    """Diagonalizability, SFO and SOC verdicts on the baseline family."""

    name = "verdicts"

    def generate(self):
        return gen.relabelled(gen.verdicts_family(), self.name, self.seed)

    def op(self, A, B, C, F):
        from structsys import is_generically_diagonalizable, is_sfo, is_sfo_diag, is_soc

        diag = is_generically_diagonalizable(A)
        sfo = is_sfo(A, C, F)
        soc = is_soc(A, B, C)
        sfo_b = is_sfo_diag(A, C, F, "b") if diag.verdict else None
        return diag, sfo, soc, sfo_b

    def invariants(self, k: int, result) -> dict:
        diag, sfo, soc, sfo_b = result
        inv = _inverse(self.items[k][1])
        return {
            "n": self.items[k][0]["n"],
            "diag": [diag.verdict, diag.grank_A, diag.v_A],
            "sfo": [sfo.verdict, sfo.d_AC, sfo.d_ACF, _back(sfo.failing_states, inv)],
            "soc": [soc.verdict, soc.grank_ArB, soc.grank_QAB, soc.linking],
            "sfo_b": None if sfo_b is None else [sfo_b.verdict, _back(sfo_b.failing_states, inv)],
        }

    def check(self, k: int, result) -> str | None:
        from structsys import is_sfo_diag

        diag, sfo, soc, sfo_b = result
        if diag.verdict != (diag.grank_A == diag.v_A):
            return "diag verdict disagrees with grank_A == v_A"
        if sfo.verdict and sfo.failing_states:
            return "SFO verdict true with failing states"
        if not diag.verdict:
            return None
        if soc.verdict == "undecidable":
            return "SOC undecidable on a diagonalizable state pattern"
        A, _, C, F = _patterns(self.items[k][0])
        for rep in (sfo_b, is_sfo_diag(A, C, F, "c"), is_sfo_diag(A, C, F, "d")):
            if rep.verdict != sfo.verdict:
                return f"is_sfo {sfo.verdict} but is_sfo_diag {rep.method} {rep.verdict}"
        return None


class Placement(_Library):
    """Sensor and actuator placements on diagonalizable systems."""

    name = "placement"

    def generate(self):
        return gen.relabelled(gen.placement_family(), self.name, self.seed)

    def op(self, A, B, C, F):
        from structsys import (
            is_sfo_diag,
            min_actuators_diag,
            min_sensors_diag,
            min_sensors_iterative,
            min_sensors_matching,
        )

        sensors = (
            min_sensors_diag(A, F),
            min_sensors_diag(A, F, minimize_links=True),
            min_sensors_iterative(A, F),
            min_sensors_matching(A, F),
        )
        return sensors, min_actuators_diag(A, C), is_sfo_diag(A, C, F, "c"), is_sfo_diag(A, C, F, "d")

    def invariants(self, k: int, result) -> dict:
        sensors, actuators, sfo_c, sfo_d = result
        inv = _inverse(self.items[k][1])
        return {
            "n": self.items[k][0]["n"],
            "p_star": [s.p_star for s in sensors],
            "m_star": actuators.m_star,
            "sfo_c": [sfo_c.verdict, _back(sfo_c.failing_states, inv)],
            "sfo_d": [sfo_d.verdict, _back(sfo_d.failing_states, inv)],
        }

    def check(self, k: int, result) -> str | None:
        from structsys import is_sfo_diag, is_soc

        sensors, actuators, sfo_c, sfo_d = result
        if sensors[2].p_star != sensors[3].p_star:
            return f"alg2 p_star {sensors[2].p_star} != alg3 p_star {sensors[3].p_star}"
        if (sfo_c.verdict, sfo_c.failing_states) != (sfo_d.verdict, sfo_d.failing_states):
            return "is_sfo_diag c and d disagree"
        A, _, C, F = _patterns(self.items[k][0])
        for s in sensors:
            if not is_sfo_diag(A, s.C_out, F, "b").verdict:
                return f"{s.method} placement is not SFO"
        if is_soc(A, actuators.B_out, C).verdict != "soc":
            return "actuator placement is not SOC"
        return None


def child_env(root: Path) -> dict:
    """Environment of the library's child processes: the checkout's ``src``
    first on the import path, and one BLAS thread. No CLI path under test
    calls BLAS, but numpy's import starts a thread pool whose idle threads
    otherwise add CPU time that depends on what else runs on the machine."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    return env


# cli op mix: mostly flow-free grank on large systems, one small-n analysis
# every third op; each pass of the cycle uses the next small system of a kind
CLI_CYCLE = (
    ("grank", 1000), ("grank", 2000), ("soc", None),
    ("grank", 4000), ("grank", 1000), ("sfo-b", None),
    ("grank", 2000), ("grank", 1000), ("export-dot", None),
    ("grank", 4000), ("grank", 2000), ("place-sensors", None),
)
SMALL_PER_KIND = 4


class Cli:
    """One ``python -m structsys.cli`` child process per operation."""

    name = "cli"
    clock = staticmethod(children_cpu_s)

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        self.root, self.seed, self.workdir = root, seed, workdir
        self.env = child_env(root)
        self.files: dict[str, tuple[dict, list[int], Path]] = {}
        self.peak_kb = 0
        self.ops: list[tuple[str, str]] = []

    def prepare(self) -> None:
        """One set-up: generate and write the system files, then run one
        warm-up invocation."""
        self.files = {}
        rnd = random.Random(f"{self.name}/{gen.FAMILY_SEED}")
        relabel_rnd = random.Random(f"{self.name}/relabel/{self.seed}")
        family: dict[str, dict] = {f"grank-{n}": gen.verdict_system(rnd, n) for n in gen.CLI_GRANK_N}
        for kind in ("soc", "sfo-b", "export-dot", "place-sensors"):
            for k, n in enumerate(gen.spread_sizes(rnd, SMALL_PER_KIND, *gen.CLI_SMALL_N)):
                make = gen.placement_system if kind == "sfo-b" else gen.verdict_system
                family[f"{kind}-{k}"] = make(rnd, n)
        family["chain"] = gen.chain_system(gen.CHAIN_N)
        for key, doc in family.items():
            new, perm = (doc, list(range(doc["n"] + 1))) if key == "chain" else gen.relabel(doc, relabel_rnd)
            path = self.workdir / f"{key}.json"
            path.write_text(json.dumps(new), encoding="utf-8")
            self.files[key] = (new, perm, path)
        self.ops = [
            (kind, f"grank-{n}" if kind == "grank" else f"{kind}-{c}")
            for c in range(SMALL_PER_KIND)
            for kind, n in CLI_CYCLE
        ]
        self.invoke(("grank", "grank-1000"), None)

    @property
    def count(self) -> int:
        return len(self.ops)

    def digest_key(self, slot: int) -> str:
        return self.ops[slot][1]

    def argv(self, kind: str, key: str) -> list[str]:
        path = str(self.files[key][2])
        return {
            "grank": ["grank", path, "--which", "ACF", "--json"],
            "soc": ["soc", path, "--json"],
            "sfo-b": ["sfo", path, "--method", "b", "--json"],
            "export-dot": ["export-dot", path, "--graph", "linking"],
            "place-sensors": ["place-sensors", path, "--method", "alg3", "--json"],
            "chain": ["grank", path, "--which", "A", "--json"],
        }[kind]

    def invoke(self, op: tuple[str, str], spans_path: Path | None) -> tuple[int, str, str]:
        """Run one CLI child and wait for it; returns (exit code, stdout, stderr)."""
        kind, key = op
        if spans_path is None:
            cmd = [sys.executable, "-m", "structsys.cli", *self.argv(kind, key)]
        else:
            runner = str(Path(__file__).with_name("cli_runner.py"))
            cmd = [sys.executable, runner, str(spans_path), *self.argv(kind, key)]
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out, stderr=err)
            expired = threading.Event()
            timer = threading.Timer(CLI_TIMEOUT_S, lambda: (expired.set(), proc.kill()))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if expired.is_set():
            raise OpFailed(f"{kind} {key} exceeded {CLI_TIMEOUT_S} s")
        return (
            proc.returncode,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def run(self, k: int, spans_path: Path | None = None):
        code, out, err = self.invoke(self.ops[k], spans_path)
        if code != 0:
            tail = err.strip().splitlines()[-1:] or [""]
            raise OpFailed(f"{self.ops[k][0]} exited {code}: {tail[0]}")
        return out

    def invariants(self, k: int, result: str) -> dict:
        kind, key = self.ops[k]
        inv = _inverse(self.files[key][1])
        if kind == "export-dot":
            label = next((line for line in result.splitlines() if "maximum linking size" in line), "")
            return {"linking": int(label.split("size")[1].strip(' ";')) if label else None}
        doc = json.loads(result)
        if kind == "grank":
            return {"grank": doc["grank"]}
        if kind == "soc":
            return {"soc": [doc["verdict"], doc["linking"]]}
        if kind == "sfo-b":
            return {"sfo": [doc["verdict"], _back(doc["failing_states"], inv)]}
        return {"p_star": doc["p_star"], "sfo_with_output": doc["sfo_with_output"]}

    def check(self, k: int, result: str) -> str | None:
        from structsys import Pattern, is_sfo

        kind, key = self.ops[k]
        if kind == "export-dot":
            return None if result.startswith("digraph linking {") else "not a linking DOT graph"
        try:
            doc = json.loads(result)
        except json.JSONDecodeError as exc:
            return f"report is not JSON: {exc}"
        expected = {"grank": "grank", "soc": "soc", "sfo-b": "sfo", "place-sensors": "sensor-placement"}[kind]
        if doc.get("kind") != expected:
            return f"report kind {doc.get('kind')!r}, expected {expected!r}"
        if kind == "place-sensors":
            A, _, _, F = _patterns(self.files[key][0])
            c_out = doc["C_out"]
            C = Pattern(c_out["rows"], c_out["cols"], frozenset(map(tuple, c_out["nonzeros"])))
            if not is_sfo(A, C, F).verdict:
                return "sensor placement is not SFO"
        return None

    def chain_probe(self) -> str | None:
        """Run the known-failing chain grank once, untimed. Returns None when
        it reports the right rank, else a description of the failure."""
        try:
            code, out, err = self.invoke(("chain", "chain"), None)
        except OpFailed as exc:
            return str(exc)
        if code != 0:
            tail = err.strip().splitlines()[-1:] or [""]
            return f"exit {code}: {tail[0]}"
        if json.loads(out).get("grank") != gen.CHAIN_N:
            return "wrong rank"
        return None

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0


def make(name: str, root: Path, seed: int, workdir: Path):
    if name == "cli":
        return Cli(root, seed, workdir)
    return {"verdicts": Verdicts, "placement": Placement}[name](root, seed)


WORKLOADS = ("verdicts", "placement", "cli")
