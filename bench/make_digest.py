"""Rewrite ``bench/digest.json``: the label-free invariants of every
operation of every workload (verdicts, sizes, failing states, p_star,
m_star), with the default seed.

    python3 bench/make_digest.py

Certificates are left out: equally optimal ones may differ. Regenerate only
when a change is meant to alter results, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    digest: dict[str, dict] = {}
    for name in workloads.WORKLOADS:
        workdir = run.ROOT / ".bench_work" / f"digest-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            wl = workloads.make(name, run.ROOT, 0, workdir)
            wl.prepare()
            entries = digest.setdefault(name, {})
            for slot in range(wl.count):
                key = wl.digest_key(slot)
                if key in entries:
                    continue
                result = wl.run(slot)
                problem = wl.check(slot, result)
                if problem is not None:
                    print(f"{name} {key}: {problem}", file=sys.stderr)
                    return 1
                entries[key] = wl.invariants(slot, result)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    blocks = []
    for name, entries in sorted(digest.items()):
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(entries.items()))
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    run.DIGEST.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
