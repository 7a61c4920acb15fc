"""CSV writers and one reader for metrics, runs, comparison and sweep reports.

Each CSV's columns are declared once, as a ``{column: type}`` table, and
every file is read back with ``read_csv`` from that table. ``csv.writer``
writes floats with repr(), so files round-trip exactly and identical runs
produce byte-identical output. A ``bool`` cell is written as 0/1 and an id
``tuple`` as its ids joined with ';'. Most files are written with ``_write``,
through ``csv.writer``. The metrics files and ``timeseries.csv``, the
largest, are formatted here row by row and streamed through ``_write_lines``,
byte for byte what ``csv.writer`` writes for the same cells: a float as its
repr(), an int as str() and a text cell through ``_field``.
"""

from __future__ import annotations

import csv
import io
import re
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

from .analysis import OutageImpact, RankingComparison
from .metrics import RankCluster
from .simulator import RunRecord, SimResult
from .topology import Topology, clip, natural_key

NODE_METRICS_COLUMNS = {"node_id": str, "role": str, "betweenness": float,
                        "eccentricity": int, "eigenvector": float}
EDGE_METRICS_COLUMNS = {"u": str, "v": str, "edge_betweenness": float}
RANKINGS_COLUMNS = {"metric": str, "rank": int, "members": tuple, "value": float}
TIMESERIES_COLUMNS = {"router_id": str, "time_s": float, "delay_s": float}
SUMMARY_COLUMNS = {"router_id": str, "final_delay_s": float, "forwarded": int,
                   "dropped_attack": int, "attacked": bool, "sink_adjacent": bool}
ACCOUNTING_COLUMNS = {"generated": int, "delivered_to_sink": int, "dropped_by_attack": int,
                      "dropped_by_ttl": int, "in_flight_at_end": int}
COMPARISON_COLUMNS = {"metric": str, "k": int, "overlap": float, "spearman": float,
                      "metric_topk": tuple, "delay_topk": tuple}
ATTACK_SWEEP_COLUMNS = {"rank": int, "router_id": str, "delivered": float,
                        "delivery_loss_pct": float, "survivor_delay_shift_s": float}
_ID_SEP = ";"
_TO_TEXT = {bool: int, tuple: _ID_SEP.join}
_FROM_TEXT = {bool: lambda text: bool(int(text)),
              tuple: lambda text: tuple(text.split(_ID_SEP)) if text else ()}


def _write(path: str | Path, columns: Mapping[str, type], rows: Iterable[Sequence]) -> None:
    """Write the header and one line per row, each cell converted by its column's
    type; rows go to ``csv.writer`` as they are when no column converts."""
    to_text = [_TO_TEXT.get(kind) for kind in columns.values()]
    if any(to_text):
        rows = ([cell if f is None else f(cell) for f, cell in zip(to_text, row)]
                for row in rows)
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        w = csv.writer(handle, lineterminator="\n")
        w.writerow(columns)
        w.writerows(rows)


def _write_lines(path: str | Path, columns: Mapping[str, type], lines: Iterable[str]) -> None:
    """Write the header and ``lines``, rows already formatted as ``csv.writer``
    writes them, as they come."""
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(columns) + "\n")
        handle.writelines(lines)


# Text that csv.writer writes as it is: no delimiter, quote, line break or
# NUL (which Python 3.10's csv.writer refuses).
_PLAIN = re.compile(r'[^,"\r\n\x00]*')


def _field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one of several cells: as it is
    unless it needs quoting. Node ids match ``[A-Za-z0-9_]+`` and never do."""
    if _PLAIN.fullmatch(text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def read_csv(path: str | Path, columns: Mapping[str, type]) -> list[dict]:
    """One dict per row of a file written here, each cell parsed by its column's type."""
    parse = {name: _FROM_TEXT.get(kind, kind) for name, kind in columns.items()}
    with Path(path).open(encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != list(columns):
            raise ValueError(f"{clip(str(path))}: header {clip(str(reader.fieldnames))}, "
                             f"expected {list(columns)}")
        return [{name: f(rec[name]) for name, f in parse.items()} for rec in reader]


def write_node_metrics(path: str | Path, t: Topology, betweenness, eccentricity,
                       eigenvector) -> None:
    """One row per node, in declaration order."""
    _write_lines(path, NODE_METRICS_COLUMNS,
                 (f"{_field(nid)},{role.value},{betweenness[nid]!r},{eccentricity[nid]},"
                  f"{eigenvector[nid]!r}\n" for nid, role in t.nodes))


def write_edge_metrics(path: str | Path, edge_values: Mapping[tuple[str, str], float]) -> None:
    """One row per edge, in natural order of (u, v); each node's sort key and
    text are built once."""
    nodes = {v for edge in edge_values for v in edge}
    order = {v: natural_key(v) for v in nodes}
    text = {v: _field(v) for v in nodes}
    _write_lines(path, EDGE_METRICS_COLUMNS,
                 (f"{text[u]},{text[v]},{edge_values[u, v]!r}\n"
                  for u, v in sorted(edge_values, key=lambda e: (order[e[0]], order[e[1]]))))


def write_rankings(path: str | Path, rankings: Mapping[str, Sequence[RankCluster]]) -> None:
    """One row per (metric, cluster); every member is an id."""

    def rows():
        for metric, ranking in rankings.items():
            name = _field(metric)
            for rank, cluster in enumerate(ranking, start=1):
                yield f"{name},{rank},{_field(_ID_SEP.join(cluster.members))},{cluster.value!r}\n"

    _write_lines(path, RANKINGS_COLUMNS, rows())


def write_timeseries(path: str | Path, result: SimResult) -> None:
    """One row per sample, byte for byte what ``csv.writer`` writes for these cells.

    Rows are built as plain strings, which is safe because router ids match
    ``[A-Za-z0-9_]+`` and ``repr`` of a float never needs quoting. The tick
    column is formatted once for all routers. A router's delay is formatted
    only when it changes; a zero delay never reuses the previous text, since
    ``0.0 == -0.0`` but their text differs. Each router's rows go out in one
    ``write``.
    """
    time_text = [f",{t!r}," for t in result.tick_times]

    def router_rows():
        for router, delays in result.tick_delays.items():
            lines = []
            append = lines.append
            last = None
            for tt, delay_s in zip(time_text, delays):
                if delay_s != last or not delay_s:
                    last = delay_s
                    dt = f"{delay_s!r}\n"
                append(f"{router}{tt}{dt}")
            yield "".join(lines)

    _write_lines(path, TIMESERIES_COLUMNS, router_rows())


def write_summary(path: str | Path, result: RunRecord) -> None:
    _write(path, SUMMARY_COLUMNS,
           ((router, rs.final_delay, rs.forwarded, rs.dropped_attack, rs.attacked,
             rs.sink_adjacent) for router, rs in result.routers.items()))


def write_accounting(path: str | Path, result: RunRecord) -> None:
    _write(path, ACCOUNTING_COLUMNS,
           [(result.generated, result.delivered_to_sink, result.dropped_by_attack,
             result.dropped_by_ttl, result.in_flight_at_end)])


def write_comparison(path: str | Path, comparisons: Mapping[str, RankingComparison]) -> None:
    _write(path, COMPARISON_COLUMNS,
           ((metric, c.k, c.overlap, c.spearman, c.metric_topk, c.delay_topk)
            for metric, c in comparisons.items()))


def write_delay_table(path: str | Path, routers: Sequence[str],
                      mean_delay: Mapping[str, Mapping[str, float]]) -> None:
    """Mean final delay with one row per router and one column per scenario label."""
    _write(path, {"router_id": str, **dict.fromkeys(mean_delay, float)},
           ((r, *(delays[r] for delays in mean_delay.values())) for r in routers))


def write_attack_sweep(path: str | Path, impacts: Sequence[OutageImpact]) -> None:
    _write(path, ATTACK_SWEEP_COLUMNS,
           ((rank, i.router_id, i.delivered, i.delivery_loss_pct, i.survivor_delay_shift_s)
            for rank, i in enumerate(impacts, start=1)))


def cluster_summary_text(title: str, rankings: Mapping[str, Sequence[RankCluster]]) -> str:
    """Human-readable cluster table, every member an id: one line per rank,
    tied members in parens."""
    lines = [title]
    width = max(len(m) for m in rankings) + 2
    for metric, ranking in rankings.items():
        name = f"{metric:<{width}}"
        for rank, cluster in enumerate(ranking, start=1):
            value = cluster.value
            value_text = str(int(value)) if float(value).is_integer() else f"{value:.4f}"
            lines.append(f"{name} {rank:<5} ({', '.join(cluster.members)})  {value_text}")
    return "\n".join(lines) + "\n"


def comparison_report_text(
    title: str,
    comparisons: Mapping[str, RankingComparison],
    sink_adjacent: Collection[str],
) -> str:
    """The compare report; it lists ``sink_adjacent`` as excluded from the delay ranking."""
    lines = [title]
    if sink_adjacent:
        excl = ", ".join(f"{r} (adjacent to sink)" for r in sorted(sink_adjacent, key=natural_key))
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
