"""Span recorder for traced campaigns.

``instrument`` swaps public functions of netcrit's modules for wrappers that
record one span per call: name, start, end, parent span and the simulation
run it belongs to (every ``sim.run`` span opens a new run id, which its child
spans share). Spans stay in memory and are written out when the campaign
ends. A span's self time is its duration minus the durations of its direct
children; campaigns are single-threaded, so children never overlap.

Only attributes are swapped, so the program's own code is unchanged. Calls
are intercepted where the caller looks them up: ``netcrit.cli`` imported the
metric, analysis and simulation functions by name, and the simulator looks
up ``build_routing_table`` and ``stream`` in its own namespace.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name)
TARGETS = (
    ("netcrit.cli", "main", "cli.main"),
    ("netcrit.cli", "execute_manifest", "cli.execute_manifest"),
    ("netcrit.cli", "run", "sim.run"),
    ("netcrit.simulator", "build_routing_table", "topology.routing_table"),
    ("netcrit.simulator", "stream", "rng.stream"),
    ("netcrit.topology", "load_topology", "topology.load"),
    ("netcrit.topology", "builtin_case", "topology.load"),
    ("netcrit.cli", "load_topology", "topology.load"),
    ("netcrit.cli", "builtin_case", "topology.load"),
    ("netcrit.reports", "write_timeseries", "reports.timeseries"),
    ("netcrit.reports", "write_summary", "reports.other_write"),
    ("netcrit.reports", "write_accounting", "reports.other_write"),
    ("netcrit.reports", "write_comparison", "reports.other_write"),
    ("netcrit.reports", "write_node_metrics", "reports.other_write"),
    ("netcrit.reports", "write_edge_metrics", "reports.other_write"),
    ("netcrit.reports", "write_rankings", "reports.other_write"),
    ("netcrit.cli", "betweenness_centrality", "metrics.betweenness"),
    ("netcrit.cli", "edge_betweenness", "metrics.edge_betweenness"),
    ("netcrit.cli", "eccentricity_centrality", "metrics.eccentricity"),
    ("netcrit.cli", "eigenvector_centrality", "metrics.eigenvector"),
    ("netcrit.cli", "rank_with_ties", "metrics.rank"),
    ("netcrit.cli", "rank_by_delay", "analysis.rank_by_delay"),
    ("netcrit.cli", "compare_rankings", "analysis.compare"),
)

_ID, _NAME, _START, _END, _PARENT, _RUN = range(6)


class Recorder:
    """In-memory spans plus the simulation counts read from each run's result."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._runs = 0
        self.sim = Counter()

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        run_id = parent[_RUN] if parent else None
        if name == "sim.run":
            self._runs += 1
            run_id = self._runs
        span = [len(self.spans), name, 0.0, 0.0, parent[_ID] if parent else None, run_id]
        self.spans.append(span)
        self._stack.append(span)
        span[_START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[_END] = time.perf_counter()
            self._stack.pop()
        if name == "sim.run":
            self.sim["events"] += result.event_count
            self.sim["generated"] += result.generated
            self.sim["delivered"] += result.delivered_to_sink
            self.sim["dropped_attack"] += result.dropped_by_attack
            self.sim["in_flight_end"] += result.in_flight_at_end
            self.sim["hops"] += sum(r.forwarded for r in result.routers.values())
        return result

    def instrument(self) -> None:
        """Swap every target attribute for a span-recording wrapper."""
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)

            @functools.wraps(original)
            def wrapper(*args, _fn=original, _name=span_name, **kwargs):
                return self.call(_name, _fn, args, kwargs)

            setattr(module, attr, wrapper)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({"id": s[_ID], "name": s[_NAME], "start": s[_START],
                                         "end": s[_END], "parent": s[_PARENT],
                                         "run": s[_RUN]}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the campaign, computed from its spans."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls = Counter()
        children: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[_PARENT] is not None:
                children[s[_PARENT]] += s[_END] - s[_START]
        for s in self.spans:
            d = s[_END] - s[_START]
            total[s[_NAME]] += d
            own[s[_NAME]] += d - children[s[_ID]]
            calls[s[_NAME]] += 1
        sim = self.sim
        return {
            "topology.load_s": total["topology.load"],
            "topology.routing_table_s": total["topology.routing_table"],
            "topology.routing_table_calls": calls["topology.routing_table"],
            "rng.stream_setup_s": total["rng.stream"],
            "rng.streams": calls["rng.stream"],
            "sim.self_s": own["sim.run"],
            "sim.events": sim["events"],
            "sim.events_per_s": sim["events"] / own["sim.run"] if own["sim.run"] else 0.0,
            "sim.hops": sim["hops"],
            "sim.delivered_ratio": sim["delivered"] / sim["generated"] if sim["generated"] else 0.0,
            "sim.dropped_attack": sim["dropped_attack"],
            "sim.in_flight_end": sim["in_flight_end"],
            "reports.timeseries_s": total["reports.timeseries"],
            "reports.other_write_s": total["reports.other_write"],
            "metrics.betweenness_s": total["metrics.betweenness"],
            "metrics.edge_betweenness_s": total["metrics.edge_betweenness"],
            "metrics.eccentricity_s": total["metrics.eccentricity"],
            "metrics.eigenvector_s": total["metrics.eigenvector"],
            "metrics.rank_s": total["metrics.rank"],
            "analysis.rank_by_delay_s": total["analysis.rank_by_delay"],
            "analysis.compare_s": total["analysis.compare"],
            "cli.orchestration_self_s": own["cli.main"] + own["cli.execute_manifest"],
            "cli.runs": calls["sim.run"],
        }
