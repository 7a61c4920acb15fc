"""Record the output digests that the benchmark checks every campaign against.

    python3 perfbench/record_digests.py --seeds 0..31

Runs one untraced campaign per workload and seed with the netcrit under
``src/``, checks that every command succeeded and every run conserves
packets, and rewrites ``digests/<workload>.sha256``. Record again only when
a change to netcrit's outputs is intended, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import guard
import run
import workloads


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="inclusive range a..b")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("..")
    seeds = range(int(lo), int(hi or lo) + 1)

    for workload in workloads.WORKLOADS:
        recorded = {}
        for seed in seeds:
            work = run.WORK / f"record-{workload}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            spec = workloads.build_spec(workload, seed, work)
            spec_path = work / "spec.json"
            spec_path.write_text(json.dumps(spec), encoding="utf-8")
            result, found, log_tail = run.run_campaign(spec_path, work, 0, traced=False)
            digests = {name: entry["sha256"] for name, entry in found.items()}
            ops = [op for command in spec["commands"] for op in command["ops"]]
            problems = [p for p in guard.check(ops, work / "campaign", found, digests) if p]
            if result is None or any(result["errors"]) or problems:
                print(f"error: {workload} seed {seed} failed: {problems[:3]}\n{log_tail}",
                      file=sys.stderr)
                return 1
            recorded[seed] = digests
            shutil.rmtree(work)
            print(f"{workload} seed {seed}: {len(digests)} files", file=sys.stderr)
        print(f"wrote {guard.save_recorded(workload, recorded)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
