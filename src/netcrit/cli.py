"""Command-line front end: metrics | simulate | compare | cases.

Output layout under --out (default ./out):
    metrics/                     node_metrics.csv, edge_metrics.csv, rankings.csv
    runs/<scenario>/<seed>/      timeseries.csv, summary.csv, accounting.csv
    compare/                     comparison.csv, report.txt
Scenario labels use '-' instead of ':' in directory names (dos:5 -> dos-5).
Diagnostics go to stderr; summaries to stdout; data to files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from . import reports
from .analysis import compare_rankings, rank_by_delay
from .metrics import (
    NOT_COMPUTABLE,
    Direction,
    PowerIterationError,
    betweenness_centrality,
    eccentricity_centrality,
    edge_betweenness,
    eigenvector_centrality,
    rank_with_ties,
)
from .simulator import Scenario, SimConfig, SimulationLimitError, run
from .topology import (
    BUILTIN_CASE_IDS,
    NodeRole,
    Topology,
    TopologyError,
    builtin_case,
    load_topology,
)


def _add_topology_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--topology", metavar="FILE", help="topology file to analyze")
    group.add_argument("--case", type=int, choices=BUILTIN_CASE_IDS,
                       help="built-in case study id")


def _add_sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seeds", "--seed", dest="seeds", default="0",
                   help="comma-separated list or inclusive range a..b (default: 0)")
    p.add_argument("--duration", type=float, required=True, help="simulated seconds")
    p.add_argument("--mean-packet-size", type=float, default=100.0)
    p.add_argument("--mean-interarrival", type=float, default=2.0)
    p.add_argument("--service-rate", type=float, default=2.2,
                   help="router service rate in packets/second")
    p.add_argument("--monitor-interval", type=float, default=0.5)
    p.add_argument("--ttl", type=int, default=0, help="hop budget (0 = unlimited)")
    p.add_argument("--attack-probability", type=float, default=0.01,
                   help="forwarding probability of attacked routers")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netcrit",
        description="Critical-router analysis: centrality metrics vs. packet simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", help="compute centrality metrics and rankings")
    _add_topology_args(p)
    p.add_argument("--out", default="out")
    p.add_argument("--directed", action="store_true",
                   help="treat generator and sink links as one-way for eccentricity")
    p.add_argument("--tie-epsilon", type=float, default=1e-9)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("simulate", help="run (scenario x seed) simulation sweeps")
    _add_topology_args(p)
    p.add_argument("--out", default="out")
    p.add_argument("--scenario", default="stable",
                   help='"stable" | "dos:<id>" | "ddos:<id>,<id>[,...]"')
    _add_sim_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="compare metric rankings against delay rankings")
    _add_topology_args(p)
    p.add_argument("--out", default="out")
    p.add_argument("--scenario", default="stable")
    p.add_argument("--k", type=int, default=3, help="top-k depth (default: 3)")
    p.add_argument("--tie-epsilon", type=float, default=1e-9)
    p.add_argument("--directed", action="store_true")
    _add_sim_args(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("cases", help="list built-in case studies")
    p.set_defaults(func=cmd_cases)

    return parser


def _load(args) -> Topology:
    if args.topology is not None:
        return load_topology(args.topology)
    return builtin_case(args.case)


def parse_seeds(text: str) -> tuple[int, ...]:
    """Parse "--seeds": a comma-separated list of distinct seeds or a range a..b."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            a, b = int(lo), int(hi)
        except ValueError:
            raise ValueError(f"bad seed range '{text}' (expected a..b)") from None
        if b < a:
            raise ValueError(f"seed range '{text}' ends before it starts")
        return tuple(range(a, b + 1))
    try:
        seeds = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ValueError(f"bad seeds '{text}' (expected a comma-separated list)") from None
    if not seeds:
        raise ValueError("no seeds given")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    return seeds


def core_edge_keys(t: Topology) -> list[tuple[str, str]]:
    """Edges between non-generator nodes (the infrastructure links)."""
    roles = t.roles
    return [e for e in t.edge_keys()
            if roles[e[0]] is not NodeRole.GENERATOR and roles[e[1]] is not NodeRole.GENERATOR]


def metric_rankings(t: Topology, directed: bool, tie_epsilon: float, subset=None):
    """All four metric rankings, restricted to routers (or a given subset)."""
    node_subset = list(subset) if subset is not None else list(t.router_ids)
    ecc = eccentricity_centrality(t, directed=directed)
    rankings = {
        "betweenness": rank_with_ties(betweenness_centrality(t),
                                      Direction.HIGHER_IS_CRITICAL, tie_epsilon, node_subset),
        "eccentricity": (NOT_COMPUTABLE if ecc is NOT_COMPUTABLE else
                         rank_with_ties(ecc, Direction.LOWER_IS_CRITICAL, tie_epsilon,
                                        node_subset)),
        "eigenvector": rank_with_ties(eigenvector_centrality(t),
                                      Direction.HIGHER_IS_CRITICAL, tie_epsilon, node_subset),
    }
    return rankings


def cmd_metrics(args) -> int:
    t = _load(args)
    bet = betweenness_centrality(t)
    eig = eigenvector_centrality(t)
    ecc = eccentricity_centrality(t, directed=args.directed)
    edges = edge_betweenness(t)

    out = Path(args.out) / "metrics"
    out.mkdir(parents=True, exist_ok=True)
    reports.write_node_metrics(out / "node_metrics.csv", t, bet, ecc, eig)
    reports.write_edge_metrics(out / "edge_metrics.csv", edges)

    rankings = metric_rankings(t, args.directed, args.tie_epsilon)
    rankings["edge_betweenness"] = rank_with_ties(
        edges, Direction.HIGHER_IS_CRITICAL, args.tie_epsilon, core_edge_keys(t)
    )
    reports.write_rankings(out / "rankings.csv", rankings)

    print(reports.cluster_summary_text(f"{t.name}: criticality rankings", rankings), end="")
    print(f"wrote {out}/node_metrics.csv edge_metrics.csv rankings.csv", file=sys.stderr)
    return 0


@dataclass(frozen=True)
class RunManifest:
    """One simulation campaign: topology, scenarios, seeds, config, output root."""

    topology: Topology
    scenarios: tuple[Scenario, ...]
    seeds: tuple[int, ...]
    duration: float
    out_dir: Path
    mean_packet_size: float = 100.0
    mean_interarrival: float = 2.0
    router_service_rate: float = 2.2
    monitor_interval: float = 0.5
    ttl: int = 0

    def __post_init__(self):
        if not self.scenarios:
            raise ValueError("manifest needs at least one scenario")
        if not self.seeds:
            raise ValueError("manifest needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        bad = [s for s in self.seeds if not 0 <= s < 2**64]
        if bad:
            raise ValueError(f"seeds must be unsigned 64-bit integers, got {bad[0]}")
        routers = set(self.topology.router_ids)
        for scenario in self.scenarios:
            missing = [r for r in scenario.targets if r not in routers]
            if missing:
                raise ValueError(f"scenario targets unknown routers: {', '.join(missing)}")

    def config_for(self, seed: int) -> SimConfig:
        return SimConfig(
            duration=self.duration,
            seed=seed,
            mean_packet_size=self.mean_packet_size,
            mean_interarrival=self.mean_interarrival,
            router_service_rate=self.router_service_rate,
            monitor_interval=self.monitor_interval,
            ttl=self.ttl,
        )


def execute_manifest(manifest: RunManifest, echo=None):
    """Run every (scenario x seed) combination, writing per-run CSV files.

    Returns {scenario label: [SimResult per seed]}. Run directories are
    unique per (scenario, seed), so campaigns never contend on paths.
    """
    by_scenario: dict[str, list] = {}
    for scenario in manifest.scenarios:
        label = scenario.label.replace(":", "-")
        results = []
        for seed in manifest.seeds:
            result = run(manifest.topology, manifest.config_for(seed), scenario)
            run_dir = manifest.out_dir / "runs" / label / str(seed)
            run_dir.mkdir(parents=True, exist_ok=True)
            reports.write_timeseries(run_dir / "timeseries.csv", result)
            reports.write_summary(run_dir / "summary.csv", result)
            reports.write_accounting(run_dir / "accounting.csv", result)
            if echo is not None:
                echo(f"[{manifest.topology.name}] {scenario.label} seed={seed}: "
                     f"generated={result.generated} delivered={result.delivered_to_sink} "
                     f"dropped_attack={result.dropped_by_attack} "
                     f"dropped_ttl={result.dropped_by_ttl} "
                     f"in_flight={result.in_flight_at_end} events={result.event_count}")
            results.append(result)
        by_scenario[scenario.label] = results
    return by_scenario


def _manifest_from_args(args, scenarios: tuple[Scenario, ...]) -> RunManifest:
    return RunManifest(
        topology=_load(args),
        scenarios=scenarios,
        seeds=parse_seeds(args.seeds),
        duration=args.duration,
        out_dir=Path(args.out),
        mean_packet_size=args.mean_packet_size,
        mean_interarrival=args.mean_interarrival,
        router_service_rate=args.service_rate,
        monitor_interval=args.monitor_interval,
        ttl=args.ttl,
    )


def _echo_stderr(line: str) -> None:
    print(line, file=sys.stderr)


def cmd_simulate(args) -> int:
    scenario = Scenario.from_string(args.scenario, args.attack_probability)
    manifest = _manifest_from_args(args, (scenario,))
    execute_manifest(manifest, echo=_echo_stderr)
    return 0


def cmd_compare(args) -> int:
    if args.k < 1:
        print("usage error: --k must be >= 1", file=sys.stderr)
        return 2
    scenario = Scenario.from_string(args.scenario, args.attack_probability)
    manifest = _manifest_from_args(args, (scenario,))
    t = manifest.topology
    results = execute_manifest(manifest, echo=_echo_stderr)[scenario.label]

    delay = rank_by_delay(results, t, k=args.k, tie_epsilon=args.tie_epsilon)
    universe = [r for r in t.router_ids if r not in delay.excluded]
    rankings = metric_rankings(t, args.directed, args.tie_epsilon, subset=universe)

    comparisons = {}
    for metric, rc in rankings.items():
        if rc is NOT_COMPUTABLE:
            print(f"note: {metric} not computable on this graph; skipped", file=sys.stderr)
            continue
        comparisons[metric] = compare_rankings(rc, delay, args.k)

    # Edge betweenness is projected onto routers as the heaviest
    # infrastructure link each router terminates, so it can be ranked
    # against per-router delays.
    edges = edge_betweenness(t)
    core = core_edge_keys(t)
    router_share = {
        router: max((edges[e] for e in core if router in e), default=0.0)
        for router in universe
    }
    edge_view = rank_with_ties(router_share, Direction.HIGHER_IS_CRITICAL,
                               args.tie_epsilon, universe)
    comparisons["edge_betweenness"] = compare_rankings(edge_view, delay, args.k)

    out = Path(args.out) / "compare"
    out.mkdir(parents=True, exist_ok=True)
    reports.write_comparison(out / "comparison.csv", comparisons)
    text = reports.comparison_report_text(
        f"{t.name}: {scenario.label} over seeds {args.seeds}, k={args.k}",
        comparisons, delay.excluded,
    )
    (out / "report.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_cases(args) -> int:
    print("id  name   nodes  routers  generators  edges  notes")
    notes = {1: "meshed WAN (approximate layout)",
             2: "radial binary tree",
             3: "five-router ring"}
    for case_id in BUILTIN_CASE_IDS:
        t = builtin_case(case_id)
        print(f"{case_id}   {t.name}  {len(t.nodes):>5}  {len(t.router_ids):>7}  "
              f"{len(t.generator_ids):>10}  {len(t.edges):>5}  {notes[case_id]}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (TopologyError, ValueError, OSError, SimulationLimitError,
            PowerIterationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
