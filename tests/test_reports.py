import csv
import dataclasses
import io
import math

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
samples = st.dictionaries(router_ids, st.lists(st.tuples(floats, floats), max_size=40),
                          max_size=5)


def reference_text(samples) -> str:
    """The row loop write_timeseries replaced: csv.writer with repr() floats."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(reports.TIMESERIES_COLUMNS)
    for router, series in samples.items():
        for time_s, delay_s in series:
            w.writerow([router, repr(float(time_s)), repr(float(delay_s))])
    return buf.getvalue()


@given(samples)
@example({"r1": [(0.0, 0.0), (-0.0, -0.0), (0.0, 0.0), (1.0, -0.0)],
          "r2": [(-0.0, 1.0), (0.0, 1.0), (math.nan, math.nan), (math.nan, math.nan)]})
@settings(max_examples=200)
def test_write_timeseries_matches_csv_writer(tmp_path_factory, samples):
    path = tmp_path_factory.mktemp("ts") / "timeseries.csv"
    reports.write_timeseries(path, dataclasses.replace(BASE, samples=samples))
    assert path.read_bytes() == reference_text(samples).encode("utf-8")


def test_real_run_reads_back_exactly(tmp_path):
    path = tmp_path / "timeseries.csv"
    reports.write_timeseries(path, BASE)
    assert reports.read_timeseries(path) == BASE.samples
