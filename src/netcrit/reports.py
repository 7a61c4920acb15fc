"""CSV emitters and readers for metrics, runs, comparison and sweep reports.

Floats are written with repr() so files round-trip exactly and identical
runs produce byte-identical output.
"""

from __future__ import annotations

import csv
from array import array
from pathlib import Path
from typing import Collection, Mapping, Sequence

from .analysis import OutageImpact, RankingComparison
from .metrics import RankedClusters
from .simulator import SimResult
from .topology import Topology, natural_key

NODE_METRICS_COLUMNS = ["node_id", "role", "betweenness", "eccentricity", "eigenvector"]
EDGE_METRICS_COLUMNS = ["u", "v", "edge_betweenness"]
RANKINGS_COLUMNS = ["metric", "rank", "members", "value"]
TIMESERIES_COLUMNS = ["router_id", "time_s", "delay_s"]
SUMMARY_COLUMNS = ["router_id", "final_delay_s", "forwarded", "dropped_attack",
                   "attacked", "sink_adjacent"]
ACCOUNTING_COLUMNS = ["generated", "delivered_to_sink", "dropped_by_attack",
                      "dropped_by_ttl", "in_flight_at_end"]
COMPARISON_COLUMNS = ["metric", "k", "overlap", "spearman", "metric_topk", "delay_topk"]
ATTACK_SWEEP_COLUMNS = ["rank", "router_id", "delivered", "delivery_loss_pct",
                        "survivor_delay_shift_s"]
_MEMBER_SEP = ";"


def _writer(path: Path):
    handle = path.open("w", encoding="utf-8", newline="")
    return handle, csv.writer(handle, lineterminator="\n")


def _fmt(x: float) -> str:
    return repr(float(x))


def _members_text(members) -> str:
    return _MEMBER_SEP.join(
        m if isinstance(m, str) else "-".join(m)
        for m in sorted(members, key=lambda m: natural_key(str(m)))
    )


def write_node_metrics(path: str | Path, t: Topology, betweenness, eccentricity,
                       eigenvector) -> None:
    handle, w = _writer(Path(path))
    with handle:
        w.writerow(NODE_METRICS_COLUMNS)
        for nid, role in t.nodes:
            w.writerow([nid, role.value, _fmt(betweenness[nid]), int(eccentricity[nid]),
                        _fmt(eigenvector[nid])])


def read_node_metrics(path: str | Path) -> list[dict]:
    rows = []
    with Path(path).open(encoding="utf-8", newline="") as handle:
        for rec in csv.DictReader(handle):
            rows.append({
                "node_id": rec["node_id"],
                "role": rec["role"],
                "betweenness": float(rec["betweenness"]),
                "eccentricity": int(rec["eccentricity"]),
                "eigenvector": float(rec["eigenvector"]),
            })
    return rows


def write_edge_metrics(path: str | Path, edge_values: Mapping[tuple[str, str], float]) -> None:
    handle, w = _writer(Path(path))
    with handle:
        w.writerow(EDGE_METRICS_COLUMNS)
        for (u, v) in sorted(edge_values, key=lambda e: (natural_key(e[0]), natural_key(e[1]))):
            w.writerow([u, v, _fmt(edge_values[(u, v)])])


def read_edge_metrics(path: str | Path) -> dict[tuple[str, str], float]:
    out = {}
    with Path(path).open(encoding="utf-8", newline="") as handle:
        for rec in csv.DictReader(handle):
            out[(rec["u"], rec["v"])] = float(rec["edge_betweenness"])
    return out


def write_rankings(path: str | Path, rankings: Mapping[str, RankedClusters]) -> None:
    """One row per (metric, cluster)."""
    handle, w = _writer(Path(path))
    with handle:
        w.writerow(RANKINGS_COLUMNS)
        for metric, rc in rankings.items():
            for cluster in rc.clusters:
                w.writerow([metric, cluster.rank, _members_text(cluster.members),
                            _fmt(cluster.value)])


def read_rankings(path: str | Path) -> list[dict]:
    rows = []
    with Path(path).open(encoding="utf-8", newline="") as handle:
        for rec in csv.DictReader(handle):
            members = tuple(rec["members"].split(_MEMBER_SEP)) if rec["members"] else ()
            rows.append({"metric": rec["metric"], "rank": int(rec["rank"]),
                         "members": members, "value": float(rec["value"])})
    return rows


def write_timeseries(path: str | Path, result: SimResult) -> None:
    """One row per sample, byte for byte what ``csv.writer`` and ``_fmt`` write.

    Rows are built as plain strings, which is safe because router ids match
    ``[A-Za-z0-9_]+`` and ``repr`` of a float never needs quoting. The tick
    column is formatted once for all routers. A router's delay is formatted
    only when it changes; a zero delay never reuses the previous text, since
    ``0.0 == -0.0`` but their text differs. Each router's rows go out in one
    ``write``.
    """
    time_text = [f",{t!r}," for t in result.tick_times]
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(TIMESERIES_COLUMNS) + "\n")
        for router, delays in result.tick_delays.items():
            lines = []
            append = lines.append
            last = None
            for tt, delay_s in zip(time_text, delays):
                if delay_s != last or not delay_s:
                    last = delay_s
                    dt = f"{delay_s!r}\n"
                append(f"{router}{tt}{dt}")
            handle.write("".join(lines))


def read_timeseries(path: str | Path) -> dict[str, tuple[array, array]]:
    """``{router: (times, delays)}``, two ``array('d')`` columns per router."""
    out: dict[str, tuple[array, array]] = {}
    with Path(path).open(encoding="utf-8", newline="") as handle:
        for rec in csv.DictReader(handle):
            times, delays = out.setdefault(rec["router_id"], (array("d"), array("d")))
            times.append(float(rec["time_s"]))
            delays.append(float(rec["delay_s"]))
    return out


def write_summary(path: str | Path, result: SimResult) -> None:
    handle, w = _writer(Path(path))
    with handle:
        w.writerow(SUMMARY_COLUMNS)
        for router, rs in result.routers.items():
            w.writerow([router, _fmt(rs.final_delay), rs.forwarded, rs.dropped_attack,
                        int(rs.attacked), int(rs.sink_adjacent)])


def read_summary(path: str | Path) -> list[dict]:
    rows = []
    with Path(path).open(encoding="utf-8", newline="") as handle:
        for rec in csv.DictReader(handle):
            rows.append({
                "router_id": rec["router_id"],
                "final_delay_s": float(rec["final_delay_s"]),
                "forwarded": int(rec["forwarded"]),
                "dropped_attack": int(rec["dropped_attack"]),
                "attacked": bool(int(rec["attacked"])),
                "sink_adjacent": bool(int(rec["sink_adjacent"])),
            })
    return rows


def write_accounting(path: str | Path, result: SimResult) -> None:
    handle, w = _writer(Path(path))
    with handle:
        w.writerow(ACCOUNTING_COLUMNS)
        w.writerow([result.generated, result.delivered_to_sink, result.dropped_by_attack,
                    result.dropped_by_ttl, result.in_flight_at_end])


def read_accounting(path: str | Path) -> dict[str, int]:
    with Path(path).open(encoding="utf-8", newline="") as handle:
        rec = next(csv.DictReader(handle))
    return {k: int(v) for k, v in rec.items()}


def write_comparison(path: str | Path, comparisons: Mapping[str, RankingComparison]) -> None:
    handle, w = _writer(Path(path))
    with handle:
        w.writerow(COMPARISON_COLUMNS)
        for metric, c in comparisons.items():
            w.writerow([metric, c.k, _fmt(c.overlap), _fmt(c.spearman),
                        _MEMBER_SEP.join(c.metric_topk), _MEMBER_SEP.join(c.delay_topk)])


def read_comparison(path: str | Path) -> list[dict]:
    rows = []
    with Path(path).open(encoding="utf-8", newline="") as handle:
        for rec in csv.DictReader(handle):
            rows.append({
                "metric": rec["metric"],
                "k": int(rec["k"]),
                "overlap": float(rec["overlap"]),
                "spearman": float(rec["spearman"]),
                "metric_topk": tuple(rec["metric_topk"].split(_MEMBER_SEP)) if rec["metric_topk"] else (),
                "delay_topk": tuple(rec["delay_topk"].split(_MEMBER_SEP)) if rec["delay_topk"] else (),
            })
    return rows


def write_delay_table(path: str | Path, routers: Sequence[str],
                      mean_delay: Mapping[str, Mapping[str, float]]) -> None:
    """Mean final delay with one row per router and one column per scenario label."""
    handle, w = _writer(Path(path))
    with handle:
        w.writerow(["router_id", *mean_delay])
        for r in routers:
            w.writerow([r] + [_fmt(delays[r]) for delays in mean_delay.values()])


def write_attack_sweep(path: str | Path, impacts: Sequence[OutageImpact]) -> None:
    handle, w = _writer(Path(path))
    with handle:
        w.writerow(ATTACK_SWEEP_COLUMNS)
        for rank, i in enumerate(impacts, start=1):
            w.writerow([rank, i.router_id, _fmt(i.delivered), _fmt(i.delivery_loss_pct),
                        _fmt(i.survivor_delay_shift_s)])


def cluster_summary_text(title: str, rankings: Mapping[str, RankedClusters]) -> str:
    """Human-readable cluster table: one line per rank, tied members in parens."""
    lines = [title]
    width = max(len(m) for m in rankings) + 2
    for metric, rc in rankings.items():
        for cluster in rc.clusters:
            members = ", ".join(
                m if isinstance(m, str) else "-".join(m)
                for m in sorted(cluster.members, key=lambda m: natural_key(str(m)))
            )
            value = cluster.value
            value_text = str(int(value)) if float(value).is_integer() else f"{value:.4f}"
            lines.append(f"{metric:<{width}} {cluster.rank:<5} ({members})  {value_text}")
    return "\n".join(lines) + "\n"


def comparison_report_text(
    title: str,
    comparisons: Mapping[str, RankingComparison],
    excluded: Mapping[str, str],
) -> str:
    lines = [title]
    if excluded:
        excl = ", ".join(f"{r} ({reason})"
                         for r, reason in sorted(excluded.items(),
                                                 key=lambda kv: natural_key(kv[0])))
        lines.append(f"excluded from delay ranking: {excl}")
    width = max(len(m) for m in comparisons) + 2
    for metric, c in comparisons.items():
        lines.append(
            f"{metric:<{width}} overlap@{c.k}={c.overlap:.3f}  spearman={c.spearman:+.3f}  "
            f"metric_top{c.k}=({', '.join(c.metric_topk)})  "
            f"delay_top{c.k}=({', '.join(c.delay_topk)})"
        )
    return "\n".join(lines) + "\n"


def delay_table_text(title: str, routers: Sequence[str],
                     mean_delay: Mapping[str, Mapping[str, float]],
                     attacked: Mapping[str, Collection[str]]) -> str:
    """Per-router delay table, one column per scenario; '*' marks attacked routers."""
    width = max(len(label) for label in mean_delay) + 2
    lines = [title, "router  " + "".join(f"{label:>{width}}" for label in mean_delay)]
    for r in routers:
        cells = "".join(f"{delays[r]:>{width - 1}.1f}{'*' if r in attacked[label] else ' '}"
                        for label, delays in mean_delay.items())
        lines.append(f"{r:>6}  {cells}")
    return "\n".join(lines) + "\n"


def attack_sweep_text(title: str, impacts: Sequence[OutageImpact]) -> str:
    lines = [title, "rank  router  delivered  delivery_loss%  survivor_delay_shift_s"]
    for rank, i in enumerate(impacts, start=1):
        lines.append(f"{rank:>4}  {i.router_id:>6}  {i.delivered:>9.0f}  "
                     f"{i.delivery_loss_pct:>13.1f}  {i.survivor_delay_shift_s:>21.2f}")
    return "\n".join(lines) + "\n"
