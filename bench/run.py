"""Run one benchmark workload against the checkout's ``src/structsys``.

    python3 bench/run.py --workload verdicts --seed 1 --seconds 34 --trace 0

Workloads: ``verdicts``, ``placement`` and ``cli`` (see ``workloads.py``).
The run sets up ``SETUP_REPS`` times, then runs operations one after the
other until their summed time reaches ``--seconds``, then checks every
output. It prints one line per metric, with its unit and sample count, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.

Times are CPU seconds of the process doing the work: this process for the
library workloads, the CLI child for ``cli``. Each is then scaled to a fixed
machine speed by ``speed.py``: on a shared machine the speed of the cores
moved by 52 % within 20 s, and preemption by other tenants moved wall times
further. Raw CPU and wall-clock figures are printed alongside.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
the run first measures untraced for half of ``--seconds``, then replays the
same operations with span tracing on and reports the per-layer metrics;
``trace.overhead_ratio`` is the traced over the untraced CPU time of those
operations. Spans are written to ``.bench_work/trace-<workload>-<seed>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

import spans
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGEST = BENCH / "digest.json"
SETUP_REPS = 5
RAW_CAP = 1.15
TAIL = 10  # samples a reported percentile must have beyond it

INCL_NAMES = (
    "cli.main",
    "cli.load_system",
    "cli.parse_system",
    "core.stack",
    "core.pattern_bigraph",
    "core.system_digraph",
    "combinat.min_cost_max_flow",
    "combinat.max_matching",
    "combinat.extremal_weight_max_matching",
    "combinat.scc",
    "combinat.reachable",
    "grank.grank",
    "grank.cactus_bigraph",
    "grank.cactus_size",
    "grank.linking_size",
    "diag.is_generically_diagonalizable",
    "sfo.is_sfo",
    "sfo.is_sfo_diag",
    "soc.is_soc",
    "placement.min_sensors_diag",
    "placement.min_sensors_iterative",
    "placement.min_sensors_matching",
    "placement.min_actuators_diag",
)


def percentile(values: list[float], q: float) -> float:
    """The q-th sample percentile, interpolated between order statistics as
    ``statistics.quantiles(method="inclusive")`` does."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def hd_percentile(values: list[float], q: float, steps: int = 32) -> float:
    """Harrell-Davis estimate of the q-th percentile: a weighted mean of all
    order statistics, with weights from the Beta(q(n+1), (1-q)(n+1)) law.

    A run has 60 to 130 operations, and op costs are sparse in the tail (the
    verdicts ops around p90 differ by 20 % from one to the next), so the
    plain sample p90 jumps with which op lands at its rank; this estimate
    averages the neighbours. Weights come from a midpoint rule on the Beta
    density, renormalised to sum to 1.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = q / 100.0 * (n + 1), (1 - q / 100.0) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            mass += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(mass)
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, ordered)) / total


def beyond(values: list[float], threshold: float) -> int:
    return sum(1 for v in values if v > threshold)


def unit_of(name: str) -> str:
    if name.endswith((".share", "_ratio")):
        return "1"
    if name.endswith(".self_s"):
        return "s/op"
    if name.endswith(("_s", ".incl_p50_s")):
        return "s"
    if name.endswith("_per_call"):
        return "1/call"
    if name == "cli.known_failures":
        return "count"
    return "1/op"


class Record(NamedTuple):
    slot: int
    raw_s: float  # CPU time of the process doing the work
    result: object
    error: str | None
    wall_s: float
    norm_s: float = 0.0  # raw_s at the reference speed; the timed quantity


def cpu_now() -> float:
    """CPU seconds of this process and of every child it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def timed_loop(wl, seconds: float | None = None, ops: int | None = None, tracer=None, workdir=None):
    """Run operations back to back until their summed normalised time
    reaches ``seconds`` (or their raw time ``RAW_CAP`` times that, which
    bounds the run on a slow machine), or for ``ops`` operations. The speed
    reference is sampled before the first operation and after each one."""
    records: list[Record] = []
    samples = [speed.sample()]
    spent = raw_spent = 0.0
    while (spent < seconds and raw_spent < RAW_CAP * seconds) if ops is None else (len(records) < ops):
        slot = len(records) % wl.count
        span = None
        if tracer is not None:
            tracer.op = len(records)
            span = tracer.begin(spans.OP)
        spans_path = workdir / "spans.jsonl" if tracer is not None and wl.name == "cli" else None
        wall, raw = time.perf_counter(), wl.clock()
        try:
            result, error = (wl.run(slot, spans_path) if spans_path else wl.run(slot)), None
        except workloads.OpFailed as exc:
            result, error = None, str(exc)
        raw, wall = wl.clock() - raw, time.perf_counter() - wall
        if span is not None:
            tracer.end(span)
            if spans_path is not None and spans_path.exists():
                tracer.adopt(spans.Tracer.load(str(spans_path)), span)
                spans_path.unlink()
        records.append(Record(slot, raw, result, error, wall))
        samples.append(speed.sample())
        raw_spent += raw
        spent += raw * speed.NOMINAL_S / statistics.median(samples[-2 * speed.WINDOW:])
    return [r._replace(norm_s=r.raw_s * f) for r, f in zip(records, speed.factors(samples))]


def verify(wl, records: list[Record], digest: dict) -> tuple[int, list[str]]:
    """Check every result and compare its invariants with the digest.
    Returns the number of wrong results and one message per failure."""
    wrong, messages, seen = 0, [], {}
    for rec in records:
        if rec.error is not None:
            messages.append(f"op slot {rec.slot}: {rec.error}")
            continue
        if rec.slot in seen and seen[rec.slot][0] == rec.result:
            problem = seen[rec.slot][1]
        else:
            problem = wl.check(rec.slot, rec.result)
            key = wl.digest_key(rec.slot)
            if problem is None:
                got = wl.invariants(rec.slot, rec.result)
                if got != digest.get(key):
                    problem = f"invariants {got} differ from digest {digest.get(key)}"
            seen[rec.slot] = (rec.result, problem)
        if problem is not None:
            wrong += 1
            messages.append(f"op slot {rec.slot}: wrong result: {problem}")
    return wrong, messages


def end_to_end(records: list[Record], setup_times: list[float], peak_mb: float) -> tuple[dict, list[str]]:
    done = [r for r in records if r.error is None]
    latencies = [r.norm_s for r in done] or [0.0]  # every op failed: no latency to report
    spent = sum(r.norm_s for r in records)
    failed = len(records) - len(done)
    p50, p90 = hd_percentile(latencies, 50), hd_percentile(latencies, 90)
    tail = beyond(latencies, p90)
    values = {
        "ops_per_s": (len(done) / spent, "op/s"),
        "op_p50_s": (p50, "s"),
        "op_p90_s": (p90, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }

    def raw(q: float) -> str:
        raw_q = hd_percentile([r.raw_s for r in done] or [0.0], q)
        return f"raw CPU {raw_q:.4f} s, wall {hd_percentile([r.wall_s for r in done] or [0.0], q):.4f} s"

    raw_total, wall_total = sum(r.raw_s for r in records), sum(r.wall_s for r in records)
    lines = [
        f"ops_per_s    {len(done) / spent:.4f} op/s  ({len(done)} ops in {spent:.2f} s;"
        f" raw CPU {len(done) / raw_total:.4f} op/s, wall {len(done) / wall_total:.4f} op/s)",
        f"op_p50_s     {p50:.4f} s  ({len(latencies)} samples; {raw(50)})",
        f"op_p90_s     {p90:.4f} s  ({len(latencies)} samples, {tail} beyond"
        + ("" if tail >= TAIL else f", fewer than {TAIL}")
        + f"; sample p90 {percentile(latencies, 90):.4f} s; {raw(90)})",
        f"failed_ratio {failed / len(records):.4f}  ({failed} of {len(records)} ops)",
        f"setup_s      {values['setup_s'][0]:.4f} s  (median of {len(setup_times)} set-ups)",
        f"peak_rss_mb  {peak_mb:.2f} MB",
    ]
    return values, lines


def measure(args, workdir: Path) -> int:
    digest = json.loads(DIGEST.read_text(encoding="utf-8"))[args.workload]
    wl = workloads.make(args.workload, ROOT, args.seed, workdir)
    setup_times = []
    for _ in range(SETUP_REPS):
        before = speed.sample()
        start = cpu_now()
        wl.prepare()
        used = cpu_now() - start
        setup_times.append(used * speed.NOMINAL_S / statistics.median([before, speed.sample()]))

    traced: list[Record] = []
    if not args.trace:
        records = timed_loop(wl, seconds=args.seconds)
        values, lines = end_to_end(records, setup_times, wl.peak_rss_mb())
    else:
        records = timed_loop(wl, seconds=args.seconds / 2)
        tracer = spans.Tracer()
        if wl.name != "cli":  # a cli child installs its own tracer
            tracer.install()
        try:
            traced = timed_loop(wl, ops=len(records), tracer=tracer, workdir=workdir)
        finally:
            tracer.uninstall()
        layer = spans.layer_metrics(tracer.spans, len(traced), INCL_NAMES)
        layer["trace.overhead_ratio"] = sum(r.norm_s for r in traced) / sum(r.norm_s for r in records)
        _, lines = end_to_end(records, setup_times, wl.peak_rss_mb())
        lines = ["untraced half:"] + lines
        values = {name: (value, unit_of(name)) for name, value in layer.items()}
        tracer.dump(str(ROOT / ".bench_work" / f"trace-{args.workload}-{args.seed}.jsonl.gz"))

    known = []
    if wl.name == "cli":
        probe = wl.chain_probe()
        if probe is not None:
            known.append(f"known failure, untimed probe: grank on chain n={workloads.gen.CHAIN_N}: {probe}")
    if args.trace:
        values["cli.known_failures"] = (float(len(known)), "count")
        lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in values.items()]
    wrong, messages = verify(wl, records, digest)
    wrong_traced, messages_traced = verify(wl, traced, digest)
    for line in lines + known + (messages + messages_traced)[:20]:
        print(line)
    result = {
        "correct": wrong + wrong_traced == 0,
        "attempted": len(records),
        "failed": sum(1 for r in records if r.error is not None) + wrong,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "structsys" / "__init__.py").is_file():
        print(f"error: no structsys package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
