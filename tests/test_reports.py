import csv
import dataclasses
import io
import math
import string
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MM1_TEXT
from netcrit import reports
from netcrit.metrics import RankCluster
from netcrit.simulator import Scenario, SimConfig, run
from netcrit.topology import NodeRole, Topology, natural_key, parse_topology

BASE = run(parse_topology(MM1_TEXT, name="mm1"), SimConfig(duration=5.0, seed=1),
           Scenario.stable())

# Values whose text is easy to get wrong, drawn often so that delays repeat
# within a router, as in real runs.
SPECIAL = [0.0, -0.0, 5e-324, 1e-05, 1e16, math.inf, math.nan, 0.5]
floats = st.one_of(st.sampled_from(SPECIAL), st.floats())
# Router ids match [A-Za-z0-9_]+.
router_ids = st.text(string.ascii_letters + string.digits + "_", min_size=1)


@st.composite
def tick_columns(draw):
    """One tick column and a delay column of the same length per router."""
    times = array("d", draw(st.lists(floats, max_size=40)))
    delays = st.lists(floats, min_size=len(times), max_size=len(times))
    return times, {router: array("d", d)
                   for router, d in draw(st.dictionaries(router_ids, delays, max_size=5)).items()}


def reference_text(tick_times, tick_delays) -> str:
    """The row loop write_timeseries replaced: csv.writer with repr() floats."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(reports.TIMESERIES_COLUMNS)
    for router, delays in tick_delays.items():
        for time_s, delay_s in zip(tick_times, delays):
            w.writerow([router, repr(float(time_s)), repr(float(delay_s))])
    return buf.getvalue()


@given(tick_columns())
@example((array("d", [0.0, -0.0, 0.0, 1.0]),
          {"r1": array("d", [0.0, -0.0, -0.0, 0.0]),
           "r2": array("d", [math.nan, 1.0, 1.0, -0.0])}))
@settings(max_examples=200)
def test_write_timeseries_matches_csv_writer(tmp_path_factory, columns):
    tick_times, tick_delays = columns
    path = tmp_path_factory.mktemp("ts") / "timeseries.csv"
    result = dataclasses.replace(BASE, tick_times=tick_times, tick_delays=tick_delays)
    reports.write_timeseries(path, result)
    assert path.read_bytes() == reference_text(tick_times, tick_delays).encode("utf-8")


def test_real_run_reads_back_exactly(tmp_path):
    path = tmp_path / "timeseries.csv"
    reports.write_timeseries(path, BASE)
    back = {}
    for row in reports.read_csv(path, reports.TIMESERIES_COLUMNS):
        times, delays = back.setdefault(row["router_id"], ([], []))
        times.append(row["time_s"])
        delays.append(row["delay_s"])
    assert back == {r: (list(BASE.tick_times), list(delays))
                    for r, delays in BASE.tick_delays.items()}
    assert all(type(x) is float for columns in back.values() for column in columns
               for x in column)


def csv_writer_text(columns, rows) -> str:
    """What csv.writer writes for the header and these cells."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    w.writerows(rows)
    return buf.getvalue()


# Ids as a validated topology has them, and now and then text that
# csv.writer must quote, which the metrics writers hand to it. No NUL:
# Python 3.10's csv.writer refuses it, and so do the writers there.
ids = st.one_of(router_ids, router_ids,
                st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")))
values = st.one_of(st.sampled_from(SPECIAL + [1e-300, 1e300, 2.5e-308]), st.floats())


@given(st.lists(st.tuples(ids, st.sampled_from(NodeRole), values, st.integers(), values),
                max_size=20, unique_by=lambda row: row[0]))
@settings(max_examples=100)
def test_write_node_metrics_matches_csv_writer(tmp_path_factory, rows):
    t = Topology("t", nodes=tuple((nid, role) for nid, role, *_ in rows), edges=())
    path = tmp_path_factory.mktemp("metrics") / "node_metrics.csv"
    reports.write_node_metrics(path, t, *({row[0]: row[i] for row in rows} for i in (2, 3, 4)))
    expected = [(nid, role.value, b, e, g) for nid, role, b, e, g in rows]
    assert path.read_bytes() == \
        csv_writer_text(reports.NODE_METRICS_COLUMNS, expected).encode("utf-8")


@given(st.dictionaries(st.tuples(ids, ids), values, max_size=20))
@settings(max_examples=100)
def test_write_edge_metrics_matches_csv_writer(tmp_path_factory, edge_values):
    path = tmp_path_factory.mktemp("metrics") / "edge_metrics.csv"
    reports.write_edge_metrics(path, edge_values)
    edges = sorted(edge_values, key=lambda e: (natural_key(e[0]), natural_key(e[1])))
    expected = [(u, v, edge_values[u, v]) for u, v in edges]
    assert path.read_bytes() == \
        csv_writer_text(reports.EDGE_METRICS_COLUMNS, expected).encode("utf-8")


# A ranking's clusters: one to three tied ids each, of nodes or of edges ("u-v").
member_ids = st.one_of(ids, st.builds(lambda u, v: f"{u}-{v}", router_ids, router_ids))
clusters = st.lists(st.tuples(st.lists(member_ids, min_size=1, max_size=3).map(tuple), values),
                    min_size=1, max_size=6)


@given(st.dictionaries(st.sampled_from(["betweenness", "eccentricity", "eigenvector",
                                        "edge_betweenness"]), clusters, min_size=1))
@example({"eccentricity": [(("1", "10"), 3.0), (("2",), 4.0)],
          "edge_betweenness": [(("1-2", "2-10"), -0.0), (("3-4",), 5e-324)]})
@settings(max_examples=100)
def test_write_rankings_matches_csv_writer(tmp_path_factory, drawn):
    rankings = {metric: tuple(RankCluster(members, value) for members, value in ranking)
                for metric, ranking in drawn.items()}
    path = tmp_path_factory.mktemp("metrics") / "rankings.csv"
    reports.write_rankings(path, rankings)
    expected = [(metric, rank, ";".join(members), value)
                for metric, ranking in drawn.items()
                for rank, (members, value) in enumerate(ranking, start=1)]
    assert path.read_bytes() == \
        csv_writer_text(reports.RANKINGS_COLUMNS, expected).encode("utf-8")


TABLES = sorted(name for name in dir(reports) if name.endswith("_COLUMNS"))
CELLS = {
    str: router_ids,
    float: floats,
    int: st.integers(),
    bool: st.booleans(),
    tuple: st.lists(router_ids, max_size=4).map(tuple),
}


def cell_text(value):
    """Floats compare by repr, so -0.0 differs from 0.0 and nan equals nan."""
    return repr(value) if isinstance(value, float) else value


@pytest.mark.parametrize("table", TABLES)
@given(data=st.data())
@settings(max_examples=50)
def test_every_table_round_trips(tmp_path_factory, table, data):
    columns = getattr(reports, table)
    rows = data.draw(st.lists(st.tuples(*(CELLS[kind] for kind in columns.values())),
                              max_size=10))
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    reports._write(path, columns, rows)
    back = reports.read_csv(path, columns)
    assert [[cell_text(row[name]) for name in columns] for row in back] == \
        [[cell_text(cell) for cell in row] for row in rows]
    assert all(type(row[name]) is kind for row in back for name, kind in columns.items())


def test_read_csv_rejects_another_files_header(tmp_path):
    path = tmp_path / "summary.csv"
    reports.write_summary(path, BASE)
    with pytest.raises(ValueError, match="header"):
        reports.read_csv(path, reports.ACCOUNTING_COLUMNS)


def test_read_csv_header_message_is_cut(tmp_path):
    # Both the path and the header it read are input.
    path = tmp_path / ("p" * 200 + ".csv")
    path.write_text(",".join(f"column{i}" for i in range(500)) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        reports.read_csv(path, reports.ACCOUNTING_COLUMNS)
    message = str(err.value)
    assert f": header ['column0', 'column1', '..., expected {list(reports.ACCOUNTING_COLUMNS)}" \
        in message
    assert len(message) < 200
