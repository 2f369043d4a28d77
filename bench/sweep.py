"""Run every workload over several seeds and summarise the spread.

    python3 bench/sweep.py --seeds 1-10 [--out bench/baseline.json]

For each workload, runs ``run.py`` once per seed with the benchmark's
``run_seconds`` and reports, per end-to-end metric, the median and the
quartile spread (distance between the first and third quartile as a share
of the median, from ``statistics.quantiles(values, n=4)``) next to the
metric's bound. With ``--out`` it also makes one traced run per workload
and writes the medians, spreads, per-layer shares, ``nproc`` and the Python
version to that file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {"nproc": os.cpu_count(), "python": platform.python_version(),
                     "run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            res = one_run(workload, seed, bench["run_seconds"], 0)
            if not res["correct"] or res["failed"]:
                print(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}", file=sys.stderr)
                steady = False
            for name, metric in res["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v["value"], 4) for k, v in res["metrics"].items()}, flush=True)
        entry = summary["workloads"].setdefault(workload, {})
        for name, vals in values.items():
            q = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q[2] - q[0]) / median
            entry[name] = {"median": median, "spread": spread, "bound": bounds[name]}
            ok = name == "setup_s" or spread <= bounds[name] / 3
            steady &= ok
            print(f"  {name:12s} median {median:.4f}  spread {spread:.4f}  bound {bounds[name]}"
                  + ("" if ok else "  (above a third of the bound)"), flush=True)
        if args.out:
            traced = one_run(workload, args.seeds[0], bench["run_seconds"], 1)["metrics"]
            entry["layer_share"] = {k: v["value"] for k, v in traced.items() if k.endswith(".share")}
            entry["trace.overhead_ratio"] = traced["trace.overhead_ratio"]["value"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
