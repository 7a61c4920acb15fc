"""Golden outputs: SHA-256 of the per-run CSVs for a few tiny, fixed runs.

The runs cover the kernel branches the default configuration never takes:
a hop budget, exponential monitor sampling, truncated inter-arrivals, DDoS,
an attack whose admit probability is 1.0 (an admission draw still happens
on every arrival), and a generator linked to two routers. Any change to the
order or the conditions of the random draws changes these digests.
"""

import hashlib

import pytest

from netcrit import reports
from netcrit.simulator import Scenario, SimConfig, run
from netcrit.topology import builtin_case, parse_topology

TWO_HOMED = parse_topology(
    "node S sink\nnode A router\nnode B router\nnode C router\n"
    "node G generator\nnode H generator\n"
    "edge S A\nedge A B\nedge B C\nedge A C\nedge G B\nedge G C\nedge H C\n",
    name="twohomed",
)

RUNS = {
    "case3-stable-ttl": (lambda: builtin_case(3), SimConfig(duration=40.0, seed=11, ttl=3),
                         Scenario.stable()),
    "case2-dos-expsampling": (lambda: builtin_case(2),
                              SimConfig(duration=40.0, seed=5, exponential_sampling=True),
                              Scenario.dos("3")),
    "case1-stable-cap": (lambda: builtin_case(1),
                         SimConfig(duration=30.0, seed=2, interarrival_cap=1.0),
                         Scenario.stable()),
    "case2-ddos": (lambda: builtin_case(2), SimConfig(duration=60.0, seed=3),
                   Scenario.ddos(["2", "6"], attack_forwarding_probability=0.3)),
    "twohomed-dos-p1": (lambda: TWO_HOMED, SimConfig(duration=60.0, seed=8),
                        Scenario.dos("C", attack_forwarding_probability=1.0)),
}

GOLDEN = {
    "case1-stable-cap": {
        "timeseries.csv": "b0256e50e612e1269c051f441ffb944e8fbc1d60110712d4aef36470b134c8d8",
        "summary.csv": "e4c75063a253b8543de34ae52693318949ebac8f790956313c369a92ea59e540",
        "accounting.csv": "f7569ff4990f676513ad811831592fdf38a9077a517871fd900612d21a438206",
    },
    "case2-ddos": {
        "timeseries.csv": "a9fabf66bd18470c959bf4fb58862d10f47a315da0b04664ddd05db052321187",
        "summary.csv": "d94a7f9097c020074bc1b5f1e49b8223790e8dcaffcea2c08363c2dcf296d028",
        "accounting.csv": "ae09fe5c81f0aad499e7059cbb7a634b3e98ced0bc4a03d5c1e59a6103290a89",
    },
    "case2-dos-expsampling": {
        "timeseries.csv": "f734c1be265a57213f3d8ca78b17f180fcb09a01695148095a18f37e66af5994",
        "summary.csv": "10d868ceebe4a12c9f2bff0dfcf8ac91e28b2b55233d4a7e5b8265a8aefd2e06",
        "accounting.csv": "8da9c52d214755c30ce2f8c09fabc99e50c40bed64eacb89888744bafbd0de91",
    },
    "case3-stable-ttl": {
        "timeseries.csv": "8f0a26eefb5a8841af7a716358a1d0108aa7d817caa6eb96a57d56c815c334d3",
        "summary.csv": "d5d298d81d109bfb12e018759e6ec0b1c7790627a37275ff8d70114f3599a809",
        "accounting.csv": "6729d6f552eb9891f4893ea528628bc3f0cf4bd48a1723889b070979d714651b",
    },
    "twohomed-dos-p1": {
        "timeseries.csv": "0fbb6d9172f6686761340dd2f04bfcc3a87c6971a2fd688fa9667eb3d7493af3",
        "summary.csv": "d98a5593ad683f6265e0d1fb14cb0fb16bad27e47037658f069ea7d3320cdc28",
        "accounting.csv": "ed47163583a1bf42fd94e6880d17f8f23c6ba61155160129d46c1d4bc0be1c82",
    },
}

WRITERS = {
    "timeseries.csv": reports.write_timeseries,
    "summary.csv": reports.write_summary,
    "accounting.csv": reports.write_accounting,
}


def digests(name: str, tmp_path) -> dict[str, str]:
    make_topology, config, scenario = RUNS[name]
    result = run(make_topology(), config, scenario)
    out = {}
    for filename, write in WRITERS.items():
        path = tmp_path / filename
        write(path, result)
        out[filename] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden_digests(name, tmp_path):
    assert digests(name, tmp_path) == GOLDEN[name]
