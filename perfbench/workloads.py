"""The three benchmark workloads and the inputs each one gets from a seed.

Every workload is a batch job: one campaign of netcrit commands, run by one
client in a closed loop. A campaign spec lists the topologies the campaign
loads during set-up, the commands it runs, and the operations whose outputs
the guard checks. An operation is one simulation run or one CLI command;
its ``files`` are paths relative to the campaign's output directory.

Why these workloads:

* ``compare-mesh``: ``netcrit compare`` on the 18-router meshed case 1, the
  paper's headline workflow. The simulator kernel and timeseries writing
  do nearly all the work; metrics and analysis take under 1%.
* ``dos-sweep-tree``: the stable scenario plus DoS on each of case 2's 14
  routers, through ``RunManifest``/``execute_manifest`` as
  ``scripts/attack_sweep.py`` does. Many short runs, so per-run set-up
  (routing table, one PCG64 stream per actor), orchestration and held
  results weigh more; attacked routers drop on arrival and leaf routers
  take the forced-backtrack branch.
* ``metrics-large``: ``netcrit metrics`` on generated topologies of a few
  hundred routers. Topology parsing and the four metrics do all the work;
  the simulator is never called.

Sizes are fixed, so every seed costs about the same; only the simulation
seeds and the topology wiring change with the seed.
"""

from __future__ import annotations

import random
from pathlib import Path

import topogen

WORKLOADS = ("compare-mesh", "dos-sweep-tree", "metrics-large")

# Campaign sizes: full for measuring, tiny for the benchmark's own smoke test.
SIZES = {
    "full": {"compare_seeds": 10, "compare_duration": 400,
             "sweep_seeds": 3, "sweep_duration": 250,
             "topologies": 3, "routers": 250},
    "tiny": {"compare_seeds": 2, "compare_duration": 20,
             "sweep_seeds": 2, "sweep_duration": 20,
             "topologies": 2, "routers": 12},
}

RUN_FILES = ("timeseries.csv", "summary.csv", "accounting.csv")
METRICS_FILES = ("node_metrics.csv", "edge_metrics.csv", "rankings.csv")
CASE2_ROUTERS = tuple(str(r) for r in range(1, 15))


def _run_op(label: str, seed: int) -> dict:
    run_dir = f"runs/{label.replace(':', '-')}/{seed}"
    return {"name": f"run {label} seed {seed}",
            "files": [f"{run_dir}/{f}" for f in RUN_FILES],
            "accounting": f"{run_dir}/accounting.csv"}


def _distinct_seeds(rng: random.Random, count: int) -> list[int]:
    return sorted(rng.sample(range(1, 2**31), count))


def build_spec(workload: str, seed: int, workdir: Path, size: str = "full") -> dict:
    """Campaign spec for ``workload`` at ``seed``; writes any generated inputs to ``workdir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload '{workload}' (choose from {', '.join(WORKLOADS)})")
    sz = SIZES[size]
    rng = random.Random(f"perfbench/{workload}/{seed}")

    if workload == "compare-mesh":
        first = rng.randrange(1, 2**31)
        seeds = range(first, first + sz["compare_seeds"])
        argv = ["compare", "--case", "1", "--scenario", "stable",
                "--seeds", f"{seeds[0]}..{seeds[-1]}",
                "--duration", str(sz["compare_duration"]), "--out", "."]
        ops = [_run_op("stable", s) for s in seeds]
        ops.append({"name": "netcrit compare",
                    "files": ["compare/comparison.csv", "compare/report.txt"]})
        return {"workload": workload, "topologies": [{"case": 1}],
                "commands": [{"cli": argv, "ops": ops}]}

    if workload == "dos-sweep-tree":
        seeds = _distinct_seeds(rng, sz["sweep_seeds"])
        labels = ["stable"] + [f"dos:{r}" for r in CASE2_ROUTERS]
        ops = [_run_op(label, s) for label in labels for s in seeds]
        sweep = {"seeds": seeds, "duration": sz["sweep_duration"]}
        return {"workload": workload, "topologies": [{"case": 2}],
                "commands": [{"sweep": sweep, "ops": ops}]}

    topo_dir = workdir / "topologies"
    topo_dir.mkdir(parents=True, exist_ok=True)
    routers = sz["routers"]
    topologies, commands = [], []
    for i in range(sz["topologies"]):
        path = topo_dir / f"large{i}.topo"
        path.write_text(topogen.generate(rng.randrange(2**31), routers, routers // 2,
                                         max(1, routers // 10)), encoding="utf-8")
        topologies.append({"file": str(path)})
        out = f"t{i}"
        commands.append({"cli": ["metrics", "--topology", str(path), "--out", out],
                         "ops": [{"name": f"netcrit metrics {path.name}",
                                  "files": [f"{out}/metrics/{f}" for f in METRICS_FILES]}]})
    return {"workload": workload, "topologies": topologies, "commands": commands}
