"""Command-line front end: metrics | simulate | compare | case-study | sweep | cases.

Output layout under --out (default ./out; results for case-study,
results/sweep for sweep):
    metrics/                     node_metrics.csv, edge_metrics.csv, rankings.csv
    runs/<scenario>/<seed>/      timeseries.csv, summary.csv, accounting.csv
    compare/                     comparison.csv, report.txt
    delay_by_scenario.csv        case-study: mean final delay per router and scenario
    attack_sweep.csv             sweep: routers ranked by delivery loss under DoS
Scenario labels use '-' instead of ':' in directory names (dos:5 -> dos-5).
Diagnostics go to stderr; summaries to stdout; data to files.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import reports
from .analysis import (
    compare_rankings,
    mean_final_delays,
    outage_impacts,
    rank_by_delay,
    ranked_universe,
    stable_delivered,
)
from .metrics import (
    TIE_EPSILON,
    Direction,
    PowerIterationError,
    betweenness_centrality,
    eccentricity_centrality,
    edge_betweenness,
    eigenvector_centrality,
    rank_with_ties,
)
from .simulator import (
    RunRecord,
    Scenario,
    SimConfig,
    SimulationLimitError,
    check_run_inputs,
    run,
)
from .topology import (
    BUILTIN_CASE_IDS,
    NodeRole,
    Topology,
    builtin_case,
    clip,
    load_topology,
    natural_key,
)

# Upper bound on the seeds of one campaign, checked before a range is built.
MAX_SEEDS = 100_000

# A "--seeds" item or range end, stripped: int() alone takes "1_000" and
# non-ASCII digits.
_SEED = re.compile(r"-?[0-9]+")

# Most digits of a seed: 2**64 has 20, so a longer item is out of range, and
# it is rejected before int() has to parse it.
MAX_SEED_DIGITS = 20

# Most bytes of a run directory's name, a scenario label with ":" as "-":
# common file systems take no longer file name.
MAX_RUN_DIR_BYTES = 255

# Disturbance sets studied per case: DoS on the simulation-critical routers,
# plus the DDoS pairs/triples tied to the top-ranked edges.
CASE_SCENARIOS = {
    1: ("dos:5", "dos:9", "dos:11", "ddos:5,7,11"),
    2: ("dos:3", "dos:6", "ddos:1,3", "ddos:2,6"),
    3: ("dos:2", "dos:6", "dos:10", "dos:14"),
}


def _add_topology_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--topology", metavar="FILE", help="topology file to analyze")
    group.add_argument("--case", type=int, choices=BUILTIN_CASE_IDS,
                       help="built-in case study id")


def _add_sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seeds", default="0",
                   help="comma-separated list or inclusive range a..b (default: 0)")
    p.add_argument("--duration", type=float, required=True, help="simulated seconds")
    p.add_argument("--mean-interarrival", type=float, default=SimConfig.mean_interarrival)
    p.add_argument("--service-rate", type=float, default=SimConfig.router_service_rate,
                   help="router service rate in packets/second")
    p.add_argument("--monitor-interval", type=float, default=SimConfig.monitor_interval)
    p.add_argument("--ttl", type=int, default=SimConfig.ttl, help="hop budget (0 = unlimited)")
    p.add_argument("--attack-probability", type=float,
                   default=Scenario.attack_forwarding_probability,
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
    p.add_argument("--tie-epsilon", type=float, default=TIE_EPSILON)
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
    p.add_argument("--tie-epsilon", type=float, default=TIE_EPSILON)
    _add_sim_args(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("case-study", help="rankings plus the case's DoS/DDoS set as a "
                                          "per-router delay table")
    p.add_argument("--case", type=int, choices=BUILTIN_CASE_IDS, required=True)
    p.add_argument("--seeds", default="1..5")
    p.add_argument("--duration", type=float, default=2000.0)
    p.add_argument("--out", default="results")
    p.set_defaults(func=cmd_case_study)

    p = sub.add_parser("sweep", help="DoS every router in turn and rank routers by "
                                     "delivery loss")
    _add_topology_args(p)
    p.add_argument("--seeds", default="1..5")
    p.add_argument("--duration", type=float, default=1500.0)
    p.add_argument("--out", default="results/sweep")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cases", help="list built-in case studies")
    p.set_defaults(func=cmd_cases)

    return parser


def _load(args) -> Topology:
    if args.topology is not None:
        return load_topology(args.topology)
    return builtin_case(args.case)


def _check_digits(items: list[str]) -> None:
    """Reject an item of more than ``MAX_SEED_DIGITS`` digits before int()
    parses it: such a seed is out of range, and a long one would otherwise
    fail in int() itself or be echoed whole by ``SimConfig``."""
    for item in items:
        digits = len(item.lstrip("-"))
        if digits > MAX_SEED_DIGITS:
            raise ValueError(f"bad seed '{clip(item)}' has {digits} digits "
                             f"(at most {MAX_SEED_DIGITS})")


def parse_seeds(text: str) -> tuple[int, ...]:
    """Parse "--seeds": a comma-separated list or an inclusive range a..b of
    ``-?[0-9]+`` items of at most ``MAX_SEED_DIGITS`` digits. Checks only
    that syntax and the ``MAX_SEEDS`` count, before a range is built;
    ``RunManifest`` checks the seeds themselves.
    """
    text = text.strip()
    if ".." in text:
        lo, _, hi = (part.strip() for part in text.partition(".."))
        if not (_SEED.fullmatch(lo) and _SEED.fullmatch(hi)):
            raise ValueError(f"bad seed range '{clip(text)}' (expected a..b)")
        _check_digits([lo, hi])
        a, b = int(lo), int(hi)
        if b < a:
            raise ValueError(f"seed range '{clip(text)}' ends before it starts")
        if b - a >= MAX_SEEDS:
            raise ValueError(f"seed range '{clip(text)}' holds {b - a + 1} seeds "
                             f"(at most {MAX_SEEDS})")
        return tuple(range(a, b + 1))
    items = [p.strip() for p in text.split(",")]
    if not all(_SEED.fullmatch(p) for p in items):
        raise ValueError(f"bad seeds '{clip(text)}' (expected a comma-separated list)")
    if len(items) > MAX_SEEDS:
        raise ValueError(f"{len(items)} seeds given (at most {MAX_SEEDS})")
    _check_digits(items)
    return tuple(int(p) for p in items)


def _core_edge_keys(t: Topology, edges) -> list[tuple[str, str]]:
    """The keys of ``edges``, a mapping keyed by ``t``'s edges, that join two
    non-generator nodes (the infrastructure links)."""
    roles = t.roles
    return [e for e in edges
            if roles[e[0]] is not NodeRole.GENERATOR and roles[e[1]] is not NodeRole.GENERATOR]


def _core_edge_ids(t: Topology, edges) -> dict[str, float]:
    """``edges``' values on the infrastructure links, keyed by the id "u-v"
    that rankings and reports give an edge, built once per edge.

    Ranked by id, the links keep the order their keys (u, v) would give:
    ``rank_with_ties`` orders equal values and tied members by their text,
    and "u-v" sorts as ``str((u, v))`` does, because "-" and "'" sort before
    every character of a node id."""
    return {f"{u}-{v}": edges[u, v] for u, v in _core_edge_keys(t, edges)}


def _node_metrics(t: Topology) -> dict[str, dict[str, float]]:
    """The three node metrics of every node, each computed once, in report order."""
    return {
        "betweenness": betweenness_centrality(t),
        "eccentricity": eccentricity_centrality(t),
        "eigenvector": eigenvector_centrality(t),
    }


def _rankings(node_metrics, routers, edge_values, tie_epsilon: float) -> dict:
    """Rank ``routers`` by each node metric (a low eccentricity marks a
    critical node) and the keys of ``edge_values`` by their values as
    "edge_betweenness"."""
    rankings = {
        metric: rank_with_ties(values,
                               Direction.LOWER_IS_CRITICAL if metric == "eccentricity"
                               else Direction.HIGHER_IS_CRITICAL,
                               tie_epsilon, routers)
        for metric, values in node_metrics.items()
    }
    rankings["edge_betweenness"] = rank_with_ties(
        edge_values, Direction.HIGHER_IS_CRITICAL, tie_epsilon)
    return rankings


def cmd_metrics(args) -> int:
    t = _load(args)
    nodes = _node_metrics(t)
    edges = edge_betweenness(t)
    rankings = _rankings(nodes, t.router_ids, _core_edge_ids(t, edges), args.tie_epsilon)

    out = Path(args.out) / "metrics"
    out.mkdir(parents=True, exist_ok=True)
    reports.write_node_metrics(out / "node_metrics.csv", t, nodes["betweenness"],
                               nodes["eccentricity"], nodes["eigenvector"])
    reports.write_edge_metrics(out / "edge_metrics.csv", edges)
    reports.write_rankings(out / "rankings.csv", rankings)

    print(reports.cluster_summary_text(f"{t.name}: criticality rankings", rankings), end="")
    print(f"wrote {out}/node_metrics.csv edge_metrics.csv rankings.csv", file=sys.stderr)
    return 0


@dataclass(frozen=True)
class RunManifest:
    """One simulation campaign: topology, scenarios, seeds, config, output root.

    Building one checks the whole campaign before any run writes a file: it
    needs a scenario, distinct scenario labels (a label names its run
    directories and its entry in ``execute_manifest``'s result), each short
    enough to name a directory, and distinct seeds, builds each seed's
    ``SimConfig`` (seed bounds, parameters) and calls ``check_run_inputs``,
    as ``run`` does.
    """

    topology: Topology
    scenarios: tuple[Scenario, ...]
    seeds: tuple[int, ...]
    duration: float
    out_dir: Path
    mean_interarrival: float = SimConfig.mean_interarrival
    router_service_rate: float = SimConfig.router_service_rate
    monitor_interval: float = SimConfig.monitor_interval
    ttl: int = SimConfig.ttl

    def __post_init__(self):
        if not self.scenarios:
            raise ValueError("manifest needs at least one scenario")
        labels = [scenario.label for scenario in self.scenarios]
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            raise ValueError(f"scenarios must be distinct, got {clip(', '.join(repeated))} "
                             "more than once")
        if not self.seeds:
            raise ValueError("manifest needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        for seed in self.seeds:
            config = self.config_for(seed)
        for scenario in self.scenarios:
            check_run_inputs(self.topology, config, scenario)
            if len(_run_dir_name(scenario).encode()) > MAX_RUN_DIR_BYTES:
                raise ValueError(f"scenario '{clip(scenario.label)}' names a run directory "
                                 f"longer than {MAX_RUN_DIR_BYTES} bytes")

    def config_for(self, seed: int) -> SimConfig:
        return SimConfig(
            duration=self.duration,
            seed=seed,
            mean_interarrival=self.mean_interarrival,
            router_service_rate=self.router_service_rate,
            monitor_interval=self.monitor_interval,
            ttl=self.ttl,
        )


def _run_dir_name(scenario: Scenario) -> str:
    return scenario.label.replace(":", "-")


def execute_manifest(manifest: RunManifest, echo=None) -> dict[str, list[RunRecord]]:
    """Run every (scenario x seed) combination, writing per-run CSV files.

    Returns {scenario label: [RunRecord per seed]}: each run's per-router
    summary and accounting counters, not its tick columns, which are freed
    once its ``timeseries.csv`` is written. So a campaign holds
    O(runs x routers) in memory, and at most one run's tick columns at a
    time. Run directories are unique per (scenario, seed), so campaigns
    never contend on paths.
    """
    return {scenario.label: [_run_and_write(manifest, scenario, seed, echo)
                             for seed in manifest.seeds]
            for scenario in manifest.scenarios}


def _run_and_write(manifest: RunManifest, scenario: Scenario, seed: int, echo) -> RunRecord:
    """One run of the campaign: simulate, write its three CSVs, echo its
    counts, and return its record. The full result is local to this call,
    so its tick columns are freed before the next run starts."""
    result = run(manifest.topology, manifest.config_for(seed), scenario)
    run_dir = manifest.out_dir / "runs" / _run_dir_name(scenario) / str(seed)
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
    return result.record()


def _manifest_from_args(args, scenarios: tuple[Scenario, ...]) -> RunManifest:
    return RunManifest(
        topology=_load(args),
        scenarios=scenarios,
        seeds=parse_seeds(args.seeds),
        duration=args.duration,
        out_dir=Path(args.out),
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
    # Rank before the runs: a bad --k or --tie-epsilon, or a failing metric,
    # then stops the command before it writes anything.
    universe = ranked_universe(t, args.k)
    nodes = _node_metrics(t)
    # Edge betweenness is projected onto routers as the heaviest
    # infrastructure link each router terminates, so it can be ranked
    # against per-router delays.
    edges = edge_betweenness(t)
    core = _core_edge_keys(t, edges)
    router_share = {
        router: max((edges[e] for e in core if router in e), default=0.0)
        for router in universe
    }
    metric_ranks = _rankings(nodes, universe, router_share, args.tie_epsilon)

    results = execute_manifest(manifest, echo=_echo_stderr)[scenario.label]
    delay = rank_by_delay(results, t, tie_epsilon=args.tie_epsilon)
    comparisons = {metric: compare_rankings(rc, delay, args.k)
                   for metric, rc in metric_ranks.items()}

    out = Path(args.out) / "compare"
    out.mkdir(parents=True, exist_ok=True)
    reports.write_comparison(out / "comparison.csv", comparisons)
    text = reports.comparison_report_text(
        f"{t.name}: {scenario.label} over seeds {args.seeds}, k={args.k}",
        comparisons, t.sink_adjacent_routers(),
    )
    (out / "report.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_case_study(args) -> int:
    t = builtin_case(args.case)
    scenarios = (Scenario.stable(),) + tuple(
        Scenario.from_string(s) for s in CASE_SCENARIOS[args.case]
    )
    manifest = RunManifest(topology=t, scenarios=scenarios, seeds=parse_seeds(args.seeds),
                           duration=args.duration, out_dir=Path(args.out))
    rankings = _rankings(_node_metrics(t), t.router_ids, _core_edge_ids(t, edge_betweenness(t)),
                         TIE_EPSILON)
    print(reports.cluster_summary_text(f"{t.name}: centrality rankings", rankings))

    results = execute_manifest(manifest, echo=_echo_stderr)
    routers = sorted(t.router_ids, key=natural_key)
    mean_delay = {label: mean_final_delays(runs, routers) for label, runs in results.items()}
    title = (f"{t.name}: mean final delay per router (s), {len(manifest.seeds)} seeds, "
             f"duration {args.duration:g}s. '*' marks the attacked router(s).")
    attacked = {s.label: s.targets for s in scenarios}
    print("\n" + reports.delay_table_text(title, routers, mean_delay, attacked), end="")

    table = Path(args.out) / "delay_by_scenario.csv"
    reports.write_delay_table(table, routers, mean_delay)
    print(f"\nwrote {table}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    t = _load(args)
    scenarios = (Scenario.stable(),) + tuple(Scenario.dos(r) for r in t.router_ids)
    manifest = RunManifest(topology=t, scenarios=scenarios, seeds=parse_seeds(args.seeds),
                           duration=args.duration, out_dir=Path(args.out))
    # Run the stable scenario first: a baseline that delivers nothing fails
    # the sweep before any DoS run writes a file.
    results = execute_manifest(replace(manifest, scenarios=scenarios[:1]), _echo_stderr)
    stable_delivered(results["stable"])
    results |= execute_manifest(replace(manifest, scenarios=scenarios[1:]), _echo_stderr)
    base_delivered, impacts = outage_impacts(results, t)

    title = (f"{t.name}: DoS sweep over {len(t.router_ids)} routers, "
             f"{len(manifest.seeds)} seeds, duration {args.duration:g}s "
             f"(stable delivered: {base_delivered:.0f})")
    print("\n" + reports.attack_sweep_text(title, impacts), end="")

    table = Path(args.out) / "attack_sweep.csv"
    reports.write_attack_sweep(table, impacts)
    print(f"\nwrote {table}", file=sys.stderr)
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
    except OSError as exc:
        # The system's message, with each file name cut like any other input.
        message = exc.strerror or clip(str(exc))
        names = [f"'{clip(str(f))}'" for f in (exc.filename, exc.filename2) if f is not None]
        if names:
            message += ": " + " -> ".join(names)
        print(f"error: {message}", file=sys.stderr)
        return 1
    except (ValueError, SimulationLimitError, PowerIterationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
