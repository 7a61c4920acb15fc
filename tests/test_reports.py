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

# Values whose text is easy to get wrong, drawn often so that times repeat
# across routers and delays repeat within a router, as in real runs.
SPECIAL = [0.0, -0.0, 5e-324, 1e-05, 1e16, math.inf, 0.5]
floats = st.one_of(st.sampled_from(SPECIAL), st.floats())
router_ids = st.from_regex(r"[A-Za-z0-9_]+", fullmatch=True)


def columns(pairs):
    return array("d", [t for t, _ in pairs]), array("d", [d for _, d in pairs])


# Each router with its own time column, as under exponential sampling.
own_columns = st.dictionaries(
    router_ids, st.lists(st.tuples(floats, floats), max_size=40).map(columns), max_size=5)


@st.composite
def shared_columns(draw):
    """Every router on one time column object, as on the fixed tick."""
    times = array("d", draw(st.lists(floats, max_size=40)))
    delays = st.lists(floats, min_size=len(times), max_size=len(times))
    return {router: (times, array("d", d))
            for router, d in draw(st.dictionaries(router_ids, delays, max_size=5)).items()}


def reference_text(samples) -> str:
    """The row loop write_timeseries replaced: csv.writer with repr() floats."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(reports.TIMESERIES_COLUMNS)
    for router, (times, delays) in samples.items():
        for time_s, delay_s in zip(times, delays):
            w.writerow([router, repr(float(time_s)), repr(float(delay_s))])
    return buf.getvalue()


SHARED_ZEROS = array("d", [0.0, -0.0, 0.0, 1.0])


@given(st.one_of(own_columns, shared_columns()))
# r2's time column equals r1's by value but not in the sign of its zeros.
@example({"r1": columns([(0.0, 0.0), (-0.0, -0.0), (0.0, 0.0), (1.0, -0.0)]),
          "r2": columns([(-0.0, 1.0), (0.0, 1.0), (-0.0, math.nan), (1.0, math.nan)])})
@example({"r1": (SHARED_ZEROS, array("d", [0.0, -0.0, -0.0, 0.0])),
          "r2": (SHARED_ZEROS, array("d", [math.nan, 1.0, 1.0, -0.0]))})
@settings(max_examples=200)
def test_write_timeseries_matches_csv_writer(tmp_path_factory, samples):
    path = tmp_path_factory.mktemp("ts") / "timeseries.csv"
    reports.write_timeseries(path, dataclasses.replace(BASE, samples=samples))
    assert path.read_bytes() == reference_text(samples).encode("utf-8")


def test_real_run_reads_back_exactly(tmp_path):
    path = tmp_path / "timeseries.csv"
    reports.write_timeseries(path, BASE)
    back = reports.read_timeseries(path)
    assert back == BASE.samples
    assert all(column.typecode == "d" for columns in back.values() for column in columns)
