"""Golden outputs: SHA-256 of the per-run CSVs for a few tiny, fixed runs.

The runs cover the default configuration on the meshed case (stable) and the
tree case (DoS), and the kernel branches the default configuration never
takes: a hop budget, DDoS, an attack whose admit probability is 1.0 (an
admission draw still happens on every arrival), and a generator linked to
two routers. Seven seeded random topologies add leaf routers that send
packets back, routers fed by several generators, generators linked to two
routers, and every scenario kind with and without a hop budget. Any change
to the order or the conditions of the random draws changes these digests.

It also pins the files and stdout of the metrics command on every built-in
case and on an 80-router chorded ring, and of the case-study and DoS-sweep
workflows at a short run, and the comparison files and stdout of the
compare command.
"""

import hashlib
import random
from pathlib import Path

import pytest
from conftest import chorded_ring_text, make_random_topology

from netcrit import reports
from netcrit.cli import main
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
    "case2-dos": (lambda: builtin_case(2), SimConfig(duration=40.0, seed=5), Scenario.dos("3")),
    "case1-stable": (lambda: builtin_case(1), SimConfig(duration=30.0, seed=2),
                     Scenario.stable()),
    "case2-ddos": (lambda: builtin_case(2), SimConfig(duration=60.0, seed=3),
                   Scenario.ddos(["2", "6"], attack_forwarding_probability=0.3)),
    "twohomed-dos-p1": (lambda: TWO_HOMED, SimConfig(duration=60.0, seed=8),
                        Scenario.dos("C", attack_forwarding_probability=1.0)),
}


def random_topology(seed: int, multihome_prob: float = 0.0):
    return lambda: make_random_topology(random.Random(seed), multihome_prob=multihome_prob)


# Topology seed -> scenario and hop budget. Seeds 6, 12, 19 and 35 have leaf
# routers; seeds 9, 12 and 21 have a router fed by several generators.
RANDOM_RUNS = {
    6: (Scenario.stable(), 0),
    19: (Scenario.dos("r2"), 0),
    12: (Scenario.ddos(["r1", "r2"], attack_forwarding_probability=0.2), 4),
    35: (Scenario.stable(), 3),
    9: (Scenario.dos("r0", attack_forwarding_probability=0.5), 0),
    21: (Scenario.ddos(["r0", "r1"], attack_forwarding_probability=0.6), 2),
}
for topo_seed, (scenario, ttl) in RANDOM_RUNS.items():
    RUNS[f"random{topo_seed}-{scenario.kind}-ttl{ttl}"] = (
        random_topology(topo_seed), SimConfig(duration=200.0, seed=topo_seed + 100, ttl=ttl),
        scenario)
# At multihome_prob 0.5, topology seed 20 links both of its generators to two
# routers each, so every injection takes the generator's routing draw.
RUNS["random20-multihome-dos-ttl0"] = (
    random_topology(20, multihome_prob=0.5), SimConfig(duration=200.0, seed=120),
    Scenario.dos("r3", attack_forwarding_probability=0.4))

GOLDEN = {
    "case1-stable": {
        "timeseries.csv": "65d7c4e7f0ffc48aecae4707a19453441e4a6ee80f5632db820aac5b3fba5880",
        "summary.csv": "94f422e4807ebfafc9cb4605ce4f9b79e347ebafa794680f42ef96d2b16e168c",
        "accounting.csv": "07d071c2d99baa26abee85ccf47d1da22ed94a02730b7e778cde5036f9d23174",
    },
    "case2-ddos": {
        "timeseries.csv": "a9fabf66bd18470c959bf4fb58862d10f47a315da0b04664ddd05db052321187",
        "summary.csv": "d94a7f9097c020074bc1b5f1e49b8223790e8dcaffcea2c08363c2dcf296d028",
        "accounting.csv": "ae09fe5c81f0aad499e7059cbb7a634b3e98ced0bc4a03d5c1e59a6103290a89",
    },
    "case2-dos": {
        "timeseries.csv": "2c9d1278973747c93ea84a01035208cca0b199fa24eceefe2bf68994866c11c0",
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
    "random12-ddos-ttl4": {
        "timeseries.csv": "2b19a90c5a28265d49afa9e1be365a0cb29a4fdf7c59b319b7e96c4e954c77ec",
        "summary.csv": "4f7ff45180e957d147eda28404fe4bcf2b2f33672edcf99be1e57d1a6c276bc7",
        "accounting.csv": "9afd803fef6b2a0901215aa5612433bca11bc32cb3c0c6a25d612c7076e50bc9",
    },
    "random19-dos-ttl0": {
        "timeseries.csv": "7ffe83678bb9696c864e29c60664cb990c1697a1a346c6e3e4b98155e25a1a53",
        "summary.csv": "e43baccbee3130f8f293065fd467fecbbe29ec0a5d7e48bcc8e380a6134b51b9",
        "accounting.csv": "abf56ec6eee6be5d05255c135d65c295918fefcf49e698c56e5c7137d731db8f",
    },
    "random21-ddos-ttl2": {
        "timeseries.csv": "f4e8f47027d30452aabbf34ec994d55db2d90dd382a74e9c96cbe270cfd1d379",
        "summary.csv": "5e985a0b88dbf90178e1d986cda0672feb07abffd71fb6e3cae1f21170846c1f",
        "accounting.csv": "1ec98f0474fe27947f4fecde470e8a68b8f78c5e1bcc542bb030ff54d68a2a2d",
    },
    "random20-multihome-dos-ttl0": {
        "timeseries.csv": "3b92b05f1a15500784aca9fd1d000fa39f9fccf54a8097a2541e615683412186",
        "summary.csv": "af473c27490fa8bad92928f1cd2635bcc11b0197a239db285d5737ab014c1356",
        "accounting.csv": "90b9e11673cb3ff8eff1c9cf3f350e25841d9314e43d9713a1634c8263488302",
    },
    "random35-stable-ttl3": {
        "timeseries.csv": "d40cd2d93fa5b5e1229e32f83a7c0c38999e18fa3bb22cb03443770ec074e16a",
        "summary.csv": "ac8f0b190ed8731ed3ecbce74e4910c7cfe70c4a339e87eb08d39311d363c472",
        "accounting.csv": "30541d4ff227f9171863296a01a035bb9b90c0c03c19ce881d547149dc4fe722",
    },
    "random6-stable-ttl0": {
        "timeseries.csv": "1efd3c9df5c66aa5145dada9922d1f5eefbe41745df76f54c0d9876c85808aa9",
        "summary.csv": "6906dfbe78bafc18b283477eba01b0c7a6e79d2336fba8ac665a3362d52e5276",
        "accounting.csv": "b2e5813c10ad41ae344bb20778b7f87872fef4be438cca1091165b676887c50d",
    },
    "random9-dos-ttl0": {
        "timeseries.csv": "09d4902d2e25123b6f07fb75d836645ea7e922e84ef3f54f7fc7511326a73e2b",
        "summary.csv": "2fd2fb8fac5a44e1c89f396d90f27b01702450c2ac0c9e57a04b3564b0fafc66",
        "accounting.csv": "a1df7348debfd4a6832af658def8b6989e023af9f66d50a992a2d6838bb48ea9",
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


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digest(root: Path) -> str:
    """One digest over every file under root: relative path plus content digest."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0"
                 + sha256(path.read_bytes()).encode() + b"\n")
    return h.hexdigest()


METRICS_GOLDEN = {
    1: {"node_metrics.csv": "f42fd87ab51d78128358eb7df2157c4c945e7627f46e871d12aa73b03392fdd6",
        "edge_metrics.csv": "89f049725f26b887807046c05198420501026baaa3d30c8b3fd7aaf30390ef15",
        "rankings.csv": "b51f13dc2c088ebc197deef2adf6d9a5b0922aa0e0ae317942c1cec90a1d59a4",
        "stdout": "f939d245100c0e6c7aa990c3f6fbe4d57372a7007b65585789e54b30341acc55"},
    2: {"node_metrics.csv": "515aa3f3f2fc238ea6d14eedce4344eec019dcf1719703adf53a9c911e7465da",
        "edge_metrics.csv": "bdde2e0e76c1ca6fe13af67f8d900a6cd26ac33b2a3e2221689d6d18c767cc3c",
        "rankings.csv": "c59c6feb7069f0c08ab5fdfed38657b675f66a71cdfe553ea38c6836cf3758e9",
        "stdout": "ef9f196d05dbde5fe311133c3905912f2a2d13a51697349a3f78adf2bc50a53e"},
    3: {"node_metrics.csv": "23c1e3dd6a6dc8cb9aebd8ce94605f6904691c2eacef63fdf6dc716968736586",
        "edge_metrics.csv": "f2f20334a603e6c127067fb581ea25cd20770f2e71d9ad831ce846af890120b4",
        "rankings.csv": "00fb8441addab87fb1a64d2095a84ddcd8fc9147bd88bdc5238139576cb8211a",
        "stdout": "8940848c458f6cac304f18a0a049baf0d601f7bbe258572eb9e7ee5f0f57f218"},
}


@pytest.mark.parametrize("case", sorted(METRICS_GOLDEN))
def test_metrics_outputs_match_golden_digests(case, tmp_path, capsys):
    assert main(["metrics", "--case", str(case), "--out", str(tmp_path)]) == 0
    found = {name: sha256((tmp_path / "metrics" / name).read_bytes())
             for name in ("node_metrics.csv", "edge_metrics.csv", "rankings.csv")}
    found["stdout"] = sha256(capsys.readouterr().out.encode())
    assert found == METRICS_GOLDEN[case]


CHORDED_RING_GOLDEN = {
    "node_metrics.csv": "7c60d60b956caf699c898bf6d7fb85fa12fac9eda6948e27b9b72b0ec4dbdba6",
    "edge_metrics.csv": "572ef7a52390880e1ecb9fadf76cef6b50266a00bc0b150eb55df69c61f97caf",
    "rankings.csv": "bb36e944c5b103a50eab6cd2d05a5108b0feeaa68cf44e319997a3aa11d9b1ee",
    "stdout": "12ab6ea51adaf77c1f2a09851901cf77d1d7fe04d4489feef62b121c3a08d1cc",
}


def test_metrics_on_chorded_ring_match_golden_digests(tmp_path, capsys):
    topo = tmp_path / "chorded.topo"
    topo.write_text(chorded_ring_text())
    assert main(["metrics", "--topology", str(topo), "--out", str(tmp_path)]) == 0
    found = {name: sha256((tmp_path / "metrics" / name).read_bytes())
             for name in ("node_metrics.csv", "edge_metrics.csv", "rankings.csv")}
    found["stdout"] = sha256(capsys.readouterr().out.encode())
    assert found == CHORDED_RING_GOLDEN


# (workflow, case) -> (its own CSV, digest of that CSV, tree digest of runs/, stdout digest),
# at seeds 1..2 and duration 20. Recorded from the experiment scripts these
# commands replaced.
WORKFLOW_GOLDEN = {
    ("case-study", 1): ("delay_by_scenario.csv",
                        "9335536c4285059335242d947810f6f52ff33e53e9466d2276d9471381cdf6ad",
                        "7270f3d832dfef0b650909b8cd19ee05339e6c17bd66d5e12126ec41dfb8abcf",
                        "987f3ebcb80e5653563baf802ec744c77f03beccf45e74f09398ceffa34efcd2"),
    ("case-study", 2): ("delay_by_scenario.csv",
                        "5b9d300fdd4463de5328cf4d102d83d4a62501529baa23cf509fdd2d77a9dedb",
                        "b747c4662d7626766a9258edb55c53c662a2479ced5fb956eb4c3bb7459be832",
                        "6261111944529d94f6ccf080b4078457804924e5122e2f4ae2c9258ef31d1e9e"),
    ("case-study", 3): ("delay_by_scenario.csv",
                        "ffc8e7b57b623d7d625a135a08fc2575122c31bc4dd58deb3df89dff62f068d0",
                        "ec26bd96940ce9b899303a78017e18d0b80f5248b4632611e9b1286ecfc20e8e",
                        "d5fc5a59bb1797953def336d05cd60e7e3cb55fc96ef1d3eebf0cd067d3f1611"),
    ("sweep", 2): ("attack_sweep.csv",
                   "60a129bd467fcf984239c5033854e747f944d60b4767b46588c5937ce4dbf839",
                   "5f958f1866dc4b68f96d0ac528440d9442b87930519e0da5a2ee88157d9e2591",
                   "79ead691046eb9a4203ae443a1371fb88f466d59d8a1829a607ebedf10e569ec"),
    ("sweep", 3): ("attack_sweep.csv",
                   "442cc679927b4c0a999c758514129c1a8b79780432f639a1051b446707006cfa",
                   "b50aa31869cfa267302580aa7ef06c9ffd47658c90358689479e1fa87a41a030",
                   "c82b40709221a4dcf0a5b2641de68bfd7cc0ca54d360744eb70b734d1856461a"),
}

@pytest.mark.parametrize("workflow,case", sorted(WORKFLOW_GOLDEN),
                         ids=[f"{w}-{c}" for w, c in sorted(WORKFLOW_GOLDEN)])
def test_workflow_outputs_match_golden_digests(workflow, case, tmp_path, capsys):
    assert main([workflow, "--case", str(case), "--seeds", "1..2",
                 "--duration", "20", "--out", str(tmp_path)]) == 0
    table, table_digest, runs_digest, stdout_digest = WORKFLOW_GOLDEN[workflow, case]
    assert sha256((tmp_path / table).read_bytes()) == table_digest
    assert tree_digest(tmp_path / "runs") == runs_digest
    assert sha256(capsys.readouterr().out.encode()) == stdout_digest


# netcrit compare --case 3 --seeds 1..2 --duration 20 --k 2
COMPARE_GOLDEN = {
    "comparison.csv": "43ae490815068125f54bd09a715637ea442eda7aa6ddcc8a7860139ddeec749c",
    "report.txt": "f59c4e0d4c099c0108722b1e929cc2e86cb7fcd8fda9b3235c86c43067a4379a",
    "stdout": "f59c4e0d4c099c0108722b1e929cc2e86cb7fcd8fda9b3235c86c43067a4379a",
}


def test_compare_outputs_match_golden_digests(tmp_path, capsys):
    assert main(["compare", "--case", "3", "--seeds", "1..2", "--duration", "20",
                 "--k", "2", "--out", str(tmp_path)]) == 0
    found = {name: sha256((tmp_path / "compare" / name).read_bytes())
             for name in ("comparison.csv", "report.txt")}
    found["stdout"] = sha256(capsys.readouterr().out.encode())
    assert found == COMPARE_GOLDEN
