import csv
import dataclasses
import io
import math
from array import array

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MM1_TEXT
from netcrit import reports
from netcrit.simulator import Scenario, SimConfig, run
from netcrit.topology import parse_topology

BASE = run(parse_topology(MM1_TEXT, name="mm1"), SimConfig(duration=5.0, seed=1),
           Scenario.stable())

# Values whose text is easy to get wrong, drawn often so that delays repeat
# within a router, as in real runs.
SPECIAL = [0.0, -0.0, 5e-324, 1e-05, 1e16, math.inf, 0.5]
floats = st.one_of(st.sampled_from(SPECIAL), st.floats())
router_ids = st.from_regex(r"[A-Za-z0-9_]+", fullmatch=True)


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
    back = reports.read_timeseries(path)
    assert back == {r: (BASE.tick_times, delays) for r, delays in BASE.tick_delays.items()}
    assert all(column.typecode == "d" for columns in back.values() for column in columns)
