"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Simulation-heavy criteria share one pool of runs (3 cases x {stable, dos} x
10 seeds) built once per session.
"""

import random
import time
from statistics import fmean

import numpy as np
import pytest

import oracles
from conftest import make_random_topology
from netcrit import reports
from netcrit.analysis import rank_by_delay, topk_members
from netcrit.metrics import (
    all_members,
    betweenness_centrality,
    eccentricity_centrality,
    edge_betweenness,
    eigenvector_centrality,
    rank_with_ties,
)
from netcrit.simulator import Scenario, SimConfig, run
from netcrit.topology import builtin_case, edge_key

# One attacked router per case, all named attack targets of the case studies,
# each inside the case's top metric clusters.
ATTACK_TARGETS = {1: "5", 2: "3", 3: "6"}
POOL_SEEDS = tuple(range(1, 11))
POOL_DURATION = 1200.0

CASE2_MIRROR = [("1", "2"), ("3", "5"), ("4", "6"), ("7", "11"), ("8", "12"),
                ("9", "13"), ("10", "14")]


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {num:>2}. {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def attack_pool():
    t0 = time.perf_counter()
    pool = {}
    for case_id, target in ATTACK_TARGETS.items():
        t = builtin_case(case_id)
        stable = [run(t, SimConfig(duration=POOL_DURATION, seed=s), Scenario.stable())
                  for s in POOL_SEEDS]
        attacked = [run(t, SimConfig(duration=POOL_DURATION, seed=s), Scenario.dos(target))
                    for s in POOL_SEEDS]
        pool[case_id] = {"topology": t, "target": target,
                         "stable": stable, "dos": attacked}
    pool["elapsed"] = time.perf_counter() - t0
    return pool


@pytest.fixture(scope="module")
def mm1_pack():
    from conftest import MM1_TEXT
    from netcrit.topology import parse_topology

    t = parse_topology(MM1_TEXT, name="mm1")
    t0 = time.perf_counter()
    result = run(t, SimConfig(duration=210_000.0, seed=42, monitor_interval=10_000.0),
                 Scenario.stable())
    return {"result": result, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def determinism_pack(tmp_path_factory):
    out = tmp_path_factory.mktemp("determinism")
    t0 = time.perf_counter()
    results = []
    identical = True
    for case_id in (1, 2, 3):
        t = builtin_case(case_id)
        for scenario in (Scenario.stable(), Scenario.dos(ATTACK_TARGETS[case_id])):
            cfg = SimConfig(duration=150.0, seed=11)
            first = run(t, cfg, scenario)
            second = run(t, cfg, scenario)
            a = out / f"{case_id}-{scenario.kind}-a.csv"
            b = out / f"{case_id}-{scenario.kind}-b.csv"
            reports.write_summary(a, first)
            reports.write_summary(b, second)
            identical = identical and a.read_bytes() == b.read_bytes()
            results.extend([first, second])
    return {"results": results, "identical": identical,
            "elapsed": time.perf_counter() - t0}


def test_criterion_01_eccentricity_case2_exact():
    t0 = time.perf_counter()
    ecc = eccentricity_centrality(builtin_case(2))
    elapsed = time.perf_counter() - t0
    expected = {"0": 4, "1": 5, "2": 5}
    expected.update({str(i): 6 for i in range(3, 7)})
    expected.update({str(i): 7 for i in range(7, 15)})
    ok = all(ecc[node] == value for node, value in expected.items()) and elapsed < 1.0
    report(1, "eccentricity exact on case 2", ok, f"{elapsed:.3f}s")


def test_criterion_02_eccentricity_case3_exact():
    t0 = time.perf_counter()
    t = builtin_case(3)
    ecc = eccentricity_centrality(t)
    elapsed = time.perf_counter() - t0
    ok = all(ecc[r] == 3 for r in t.router_ids) and elapsed < 1.0
    report(2, "eccentricity exact on case 3", ok, f"{elapsed:.3f}s")


def test_criterion_03_rank_order_reproduction():
    t2 = builtin_case(2)
    t3 = builtin_case(3)
    checks = []

    bet2 = rank_with_ties(betweenness_centrality(t2), subset=[str(i) for i in range(15)])
    checks.append([c.members for c in bet2] == [
        ("1", "2"), ("0",), ("3", "4", "5", "6"), tuple(str(i) for i in range(7, 15))])

    bet3 = rank_with_ties(betweenness_centrality(t3), subset=t3.router_ids)
    expected_ring = [("6", "10"), ("2", "14"), ("1",)]
    checks.append([c.members for c in bet3] == expected_ring)

    eig3 = rank_with_ties(eigenvector_centrality(t3), subset=t3.router_ids)
    checks.append([c.members for c in eig3] == expected_ring)

    core2 = [e for e in (edge_key(u, v) for u, v in t2.edges)
             if not (e[0].startswith("G") or e[1].startswith("G"))]
    edge2 = rank_with_ties(edge_betweenness(t2), subset=core2)
    # Edge members are in natural order of str(edge), so ('4', '10') precedes ('4', '9').
    leaf_edges = tuple(edge_key(str(p), str(c))
                       for p, c in [(3, 7), (3, 8), (4, 10), (4, 9), (5, 11), (5, 12),
                                    (6, 13), (6, 14)])
    checks.append([c.members for c in edge2] == [
        (edge_key("0", "1"), edge_key("0", "2")),
        (edge_key("1", "3"), edge_key("1", "4"), edge_key("2", "5"), edge_key("2", "6")),
        leaf_edges])

    ring_edges = [edge_key(*e) for e in
                  [("1", "2"), ("2", "6"), ("6", "10"), ("10", "14"), ("14", "1")]]
    edge3 = rank_with_ties(edge_betweenness(t3), subset=ring_edges)
    checks.append([c.members for c in edge3] == [
        (edge_key("6", "10"),),
        (edge_key("10", "14"), edge_key("2", "6")),
        (edge_key("1", "14"), edge_key("1", "2"))])

    report(3, "rank clusters match on cases 2 and 3", all(checks),
           f"{sum(checks)}/5 cluster structures")


def test_criterion_04_betweenness_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(20240)
    worst = 0.0
    for _ in range(200):
        t = make_random_topology(rng)  # <= 6 routers + sink + <= 3 generators
        adj = t.adjacency
        bet = betweenness_centrality(t)
        for node, expected in oracles.naive_betweenness(adj).items():
            worst = max(worst, abs(bet[node] - expected))
        eb = edge_betweenness(t)
        for edge, expected in oracles.naive_edge_betweenness(adj).items():
            worst = max(worst, abs(eb[edge] - expected))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    report(4, "Brandes equals naive enumeration on 200 random graphs", ok,
           f"max abs diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_eigenvector_residual_and_symmetry():
    t0 = time.perf_counter()

    def residual(t) -> float:
        eig = eigenvector_centrality(t)
        ids = [nid for nid, _ in t.nodes]
        index = {nid: i for i, nid in enumerate(ids)}
        a = np.zeros((len(ids), len(ids)))
        for u, v in t.edges:
            a[index[u], index[v]] = a[index[v], index[u]] = 1.0
        x = np.array([eig[nid] for nid in ids])
        lam = float(x @ (a @ x))
        return float(np.max(np.abs(a @ x - lam * x)))

    worst = max(residual(builtin_case(i)) for i in (1, 2, 3))
    rng = random.Random(5150)
    for _ in range(50):
        worst = max(worst, residual(make_random_topology(rng)))

    eig2 = eigenvector_centrality(builtin_case(2))
    pair_gap = max(abs(eig2[a] - eig2[b]) for a, b in CASE2_MIRROR)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and pair_gap <= 1e-9 and elapsed < 10.0
    report(5, "eigenvector residual and case-2 symmetry", ok,
           f"max residual {worst:.2e}, max pair gap {pair_gap:.2e}, {elapsed:.1f}s")


def test_criterion_06_simulation_determinism(determinism_pack):
    ok = determinism_pack["identical"] and determinism_pack["elapsed"] < 60.0
    report(6, "byte-identical summaries for repeated runs", ok,
           f"{determinism_pack['elapsed']:.1f}s for 12 runs")


def test_criterion_07_conservation(attack_pool, mm1_pack, determinism_pack):
    everything = [mm1_pack["result"]] + determinism_pack["results"]
    for case_id in ATTACK_TARGETS:
        everything += attack_pool[case_id]["stable"] + attack_pool[case_id]["dos"]
    violations = [
        r for r in everything
        if r.generated != (r.delivered_to_sink + r.dropped_by_attack
                           + r.dropped_by_ttl + r.in_flight_at_end)
    ]
    report(7, "packet conservation on every acceptance run", not violations,
           f"{len(everything)} runs checked")


def test_criterion_08_mm1_oracle(mm1_pack):
    result = mm1_pack["result"]
    sojourn = result.routers["R"].final_delay
    target = 1.0 / (2.2 - 0.5)
    ok = (result.routers["R"].forwarded >= 100_000
          and abs(sojourn - target) / target <= 0.10
          and mm1_pack["elapsed"] < 60.0)
    report(8, "M/M/1 sojourn within 10% of 0.5882s", ok,
           f"measured {sojourn:.4f}s over {result.routers['R'].forwarded} packets, "
           f"{mm1_pack['elapsed']:.1f}s")


def test_criterion_09_sampling_calibration(attack_pool):
    # The sizes and gaps are observable only by replaying the generators'
    # streams. Each pooled run, rerun with a tracer that must not change it,
    # must inject exactly the replay's packets: then the replay's draws are
    # the run's.
    t, stable = attack_pool[2]["topology"], attack_pool[2]["stable"]
    replayed, sizes, gaps = 0, [], []
    for seed, pooled in zip(POOL_SEEDS, stable):
        config = SimConfig(duration=POOL_DURATION, seed=seed)
        trace = []
        traced = run(t, config, Scenario.stable(), on_event=lambda *event: trace.append(event))
        replays = oracles.replay_generators(t, config)
        injected = [("arrive", at, router) for at, router in oracles.injection_order(replays)]
        replayed += traced == pooled and oracles.first_events(trace) == injected
        sizes += [size for g in replays.values() for size in g.sizes]
        gaps += [gap for g in replays.values() for gap in g.gaps]
    generated = sum(r.generated for r in stable)
    size_mean, inter_mean = fmean(sizes), fmean(gaps)
    ok = (replayed == len(stable)
          and generated == len(sizes) >= 10_000
          and abs(size_mean - 100.0) / 100.0 <= 0.05
          and abs(inter_mean - 2.0) / 2.0 <= 0.05)
    report(9, "packet size and inter-arrival calibration", ok,
           f"{replayed}/{len(stable)} runs match the replay, {generated} packets, "
           f"size {size_mean:.2f}B, inter-arrival {inter_mean:.4f}s")


def test_criterion_10_dos_collapse(attack_pool):
    details = []
    ok = True
    for case_id, target in ATTACK_TARGETS.items():
        stable_delay = fmean(r.routers[target].final_delay
                             for r in attack_pool[case_id]["stable"])
        attacked_delay = fmean(r.routers[target].final_delay
                               for r in attack_pool[case_id]["dos"])
        fractions = []
        for r in attack_pool[case_id]["dos"]:
            summary = r.routers[target]
            fractions.append(summary.dropped_attack
                             / (summary.dropped_attack + summary.forwarded))
        ok = ok and attacked_delay < stable_delay and min(fractions) >= 0.95
        details.append(f"case{case_id} {attacked_delay:.2f}s<{stable_delay:.2f}s "
                       f"drop>={min(fractions):.3f}")
    elapsed = attack_pool["elapsed"]
    ok = ok and elapsed < 300.0
    report(10, "DoS collapses attacked-router delay", ok,
           "; ".join(details) + f"; pool {elapsed:.0f}s")


def test_criterion_11_case2_stable_top_cluster(attack_pool):
    t = attack_pool[2]["topology"]
    ranking = rank_by_delay(attack_pool[2]["stable"], t)
    top = []
    for cluster in ranking:
        if len(top) >= 4:
            break
        top.extend(cluster.members)
    ok = set(top) == {"3", "4", "5", "6"}
    report(11, "case-2 stable delay top-4 is routers 3,4,5,6", ok,
           f"top={sorted(top, key=int)}")


def test_criterion_12_sink_adjacent_exclusion(attack_pool):
    ok = True
    checked = 0
    for case_id in ATTACK_TARGETS:
        t = attack_pool[case_id]["topology"]
        sink_adjacent = t.sink_adjacent_routers()
        for results in (attack_pool[case_id]["stable"], attack_pool[case_id]["dos"]):
            ranking = rank_by_delay(results, t)
            ok = ok and all_members(ranking) == set(t.router_ids) - sink_adjacent
            for k in range(1, len(all_members(ranking)) + 1):
                ok = ok and sink_adjacent.isdisjoint(topk_members(ranking, k))
            checked += 1
    report(12, "sink-adjacent routers never ranked", ok,
           f"{checked} rankings checked")
