#!/usr/bin/env python3
"""Full workflow for one built-in case study.

Computes the four centrality rankings, then simulates the stable scenario
plus the case's disturbance set (DoS on each router the case study singles
out, and its DDoS combinations where defined), and prints how every
disturbance shifted per-router delays relative to the stable baseline.
The per-run CSVs land under --out (bar-chart data = the summary files).

Example:
    python scripts/run_case_study.py --case 2 --seeds 1..5 --duration 2000 --out results/case2
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from statistics import fmean

from netcrit.cli import (
    RunManifest,
    core_edge_keys,
    execute_manifest,
    metric_rankings,
    parse_seeds,
)
from netcrit.metrics import edge_betweenness, rank_with_ties
from netcrit.reports import cluster_summary_text
from netcrit.simulator import Scenario
from netcrit.topology import builtin_case, natural_key

# Disturbance sets studied per case: DoS on the simulation-critical routers,
# plus the DDoS pairs/triples tied to the top-ranked edges.
CASE_SCENARIOS = {
    1: ("dos:5", "dos:9", "dos:11", "ddos:5,7,11"),
    2: ("dos:3", "dos:6", "ddos:1,3", "ddos:2,6"),
    3: ("dos:2", "dos:6", "dos:10", "dos:14"),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", type=int, choices=(1, 2, 3), required=True)
    ap.add_argument("--seeds", default="1..5")
    ap.add_argument("--duration", type=float, default=2000.0)
    ap.add_argument("--out", default="results")
    args = ap.parse_args()

    t = builtin_case(args.case)
    routers = sorted(t.router_ids, key=natural_key)

    rankings = metric_rankings(t, directed=False, tie_epsilon=1e-9)
    rankings["edge_betweenness"] = rank_with_ties(edge_betweenness(t),
                                                  subset=core_edge_keys(t))
    print(cluster_summary_text(f"{t.name}: centrality rankings", rankings))

    scenarios = (Scenario.stable(),) + tuple(
        Scenario.from_string(s) for s in CASE_SCENARIOS[args.case]
    )
    manifest = RunManifest(
        topology=t,
        scenarios=scenarios,
        seeds=parse_seeds(args.seeds),
        duration=args.duration,
        out_dir=Path(args.out),
    )
    results = execute_manifest(manifest, echo=lambda line: print(line, file=sys.stderr))

    mean_delay = {
        label: {r: fmean(res.routers[r].final_delay for res in runs) for r in routers}
        for label, runs in results.items()
    }

    labels = [s.label for s in scenarios]
    width = max(len(lbl) for lbl in labels) + 2
    print(f"\n{t.name}: mean final delay per router (s), {len(manifest.seeds)} seeds, "
          f"duration {args.duration:g}s. '*' marks the attacked router(s).")
    print("router  " + "".join(f"{lbl:>{width}}" for lbl in labels))
    attacked = {s.label: set(s.targets) for s in scenarios}
    for r in routers:
        cells = []
        for lbl in labels:
            mark = "*" if r in attacked[lbl] else ""
            cells.append(f"{mean_delay[lbl][r]:>{width - 1}.1f}{mark or ' '}")
        print(f"{r:>6}  " + "".join(cells))

    table_path = Path(args.out) / "delay_by_scenario.csv"
    with table_path.open("w", newline="") as handle:
        w = csv.writer(handle, lineterminator="\n")
        w.writerow(["router_id"] + labels)
        for r in routers:
            w.writerow([r] + [repr(mean_delay[lbl][r]) for lbl in labels])
    print(f"\nwrote {table_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ValueError, OSError) as exc:
        sys.exit(f"error: {exc}")
