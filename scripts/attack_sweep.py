#!/usr/bin/env python3
"""DoS every router in turn and rank routers by the damage their loss causes.

For each router the script runs a DoS scenario over the given seeds and
measures network damage relative to the stable baseline: lost deliveries to
the sink and the delay shift across surviving routers. Routers are then
ranked by delivery loss, which is a simulation-side answer to "which router
is most critical?" that can be set against the centrality rankings.

Example:
    python scripts/attack_sweep.py --case 3 --seeds 1..5 --duration 1500 --out results/sweep3
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from statistics import fmean

from netcrit.cli import RunManifest, execute_manifest, parse_seeds
from netcrit.simulator import Scenario
from netcrit.topology import builtin_case, load_topology


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--case", type=int, choices=(1, 2, 3))
    group.add_argument("--topology", metavar="FILE")
    ap.add_argument("--seeds", default="1..5")
    ap.add_argument("--duration", type=float, default=1500.0)
    ap.add_argument("--out", default="results/sweep")
    args = ap.parse_args()

    t = builtin_case(args.case) if args.case else load_topology(args.topology)
    seeds = parse_seeds(args.seeds)
    scenarios = (Scenario.stable(),) + tuple(Scenario.dos(r) for r in t.router_ids)
    manifest = RunManifest(topology=t, scenarios=scenarios, seeds=seeds,
                           duration=args.duration, out_dir=Path(args.out))
    results = execute_manifest(manifest, echo=lambda line: print(line, file=sys.stderr))

    baseline = results["stable"]
    base_delivered = fmean(r.delivered_to_sink for r in baseline)
    base_delay = {
        router: fmean(r.routers[router].final_delay for r in baseline)
        for router in t.router_ids
    }

    rows = []
    for router in t.router_ids:
        runs = results[f"dos:{router}"]
        delivered = fmean(r.delivered_to_sink for r in runs)
        survivors = [x for x in t.router_ids if x != router]
        delay_shift = fmean(
            fmean(r.routers[x].final_delay for r in runs) - base_delay[x]
            for x in survivors
        )
        rows.append({
            "router_id": router,
            "delivered": delivered,
            "delivery_loss_pct": 100.0 * (base_delivered - delivered) / base_delivered,
            "survivor_delay_shift_s": delay_shift,
        })
    rows.sort(key=lambda row: -row["delivery_loss_pct"])

    print(f"\n{t.name}: DoS sweep over {len(t.router_ids)} routers, {len(seeds)} seeds, "
          f"duration {args.duration:g}s (stable delivered: {base_delivered:.0f})")
    print("rank  router  delivered  delivery_loss%  survivor_delay_shift_s")
    for i, row in enumerate(rows, start=1):
        print(f"{i:>4}  {row['router_id']:>6}  {row['delivered']:>9.0f}  "
              f"{row['delivery_loss_pct']:>13.1f}  {row['survivor_delay_shift_s']:>21.2f}")

    out_csv = Path(args.out) / "attack_sweep.csv"
    with out_csv.open("w", newline="") as handle:
        w = csv.writer(handle, lineterminator="\n")
        w.writerow(["rank", "router_id", "delivered", "delivery_loss_pct",
                    "survivor_delay_shift_s"])
        for i, row in enumerate(rows, start=1):
            w.writerow([i, row["router_id"], repr(row["delivered"]),
                        repr(row["delivery_loss_pct"]),
                        repr(row["survivor_delay_shift_s"])])
    print(f"\nwrote {out_csv}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ValueError, OSError) as exc:
        sys.exit(f"error: {exc}")
