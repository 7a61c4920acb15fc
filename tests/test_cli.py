import dataclasses
import filecmp
import gc
import os
import string
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chorded_ring_text, scenarios, topologies
import netcrit
from netcrit import cli, reports, simulator
from netcrit.analysis import mean_final_delays, outage_impacts, rank_by_delay
from netcrit.cli import MAX_SEEDS, RunManifest, main
from netcrit.metrics import PowerIterationError, RankCluster, edge_betweenness, rank_with_ties
from netcrit.simulator import MAX_MONITOR_SAMPLES, RunRecord, Scenario, run
from netcrit.topology import NodeRole, builtin_case, serialize_topology


# Node ids as a validated topology has them.
NODE_IDS = st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=4)


def run_cli(*argv) -> int:
    return main(list(argv))


def run_cli_process(*argv, **env) -> None:
    """Run the CLI in a fresh interpreter with ``env`` added to the environment."""
    src = Path(netcrit.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-m", "netcrit.cli", *argv],
                   env={**os.environ, **env, "PYTHONPATH": str(src)},
                   check=True, capture_output=True)


def assert_same_tree(left: Path, right: Path) -> list[Path]:
    """Assert both trees hold the same files with the same bytes; return
    their relative paths."""
    files = sorted(p.relative_to(left) for p in left.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(right) for p in right.rglob("*") if p.is_file())
    for name in files:
        assert (left / name).read_bytes() == (right / name).read_bytes(), name
    return files


class TestCases:
    def test_lists_builtins(self, capsys):
        assert run_cli("cases") == 0
        out = capsys.readouterr().out
        for token in ("case1", "case2", "case3"):
            assert token in out


class TestMetricsCommand:
    def test_case3_rankings(self, tmp_path, capsys):
        assert run_cli("metrics", "--case", "3", "--out", str(tmp_path)) == 0
        rows = reports.read_csv(tmp_path / "metrics" / "rankings.csv",
                                reports.RANKINGS_COLUMNS)
        top_bet = next(r for r in rows if r["metric"] == "betweenness" and r["rank"] == 1)
        assert set(top_bet["members"]) == {"6", "10"}
        nodes = reports.read_csv(tmp_path / "metrics" / "node_metrics.csv",
                                 reports.NODE_METRICS_COLUMNS)
        assert {r["node_id"] for r in nodes} >= {"1", "2", "6", "10", "14", "BA"}
        edges = {(r["u"], r["v"]): r["edge_betweenness"]
                 for r in reports.read_csv(tmp_path / "metrics" / "edge_metrics.csv",
                                           reports.EDGE_METRICS_COLUMNS)}
        assert ("6", "10") in edges
        assert "(6, 10)" in capsys.readouterr().out

    @given(st.dictionaries(st.tuples(NODE_IDS, NODE_IDS), st.sampled_from([0.0, -0.0, 0.5, 1.0]),
                           min_size=1, max_size=12))
    @settings(max_examples=200)
    def test_edge_ids_rank_as_their_keys(self, values):
        # The rankings rank each link by its id "u-v"; ties and tied members
        # must come out in the order the key (u, v) gives them.
        by_key = rank_with_ties(values)
        by_id = rank_with_ties({f"{u}-{v}": x for (u, v), x in values.items()})
        assert by_id == tuple(RankCluster(tuple(f"{u}-{v}" for u, v in c.members), c.value)
                              for c in by_key)

    @given(topologies(max_routers=8, multihome_prob=0.3))
    @settings(max_examples=40)
    def test_core_edge_ids_are_the_infrastructure_links(self, t):
        edges = edge_betweenness(t)
        ids = cli._core_edge_ids(t, edges)
        roles = t.roles
        assert ids == {f"{u}-{v}": x for (u, v), x in edges.items()
                       if NodeRole.GENERATOR not in (roles[u], roles[v])}

    def test_missing_topology_file(self, tmp_path, capsys):
        rc = run_cli("metrics", "--topology", str(tmp_path / "missing.topo"))
        assert rc != 0
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        pytest.param(("metrics", "--topology", "a/" * 3000), "a/" * 12,
                     id="6000-char-topology-path"),
        pytest.param(("metrics", "--case", "3", "--out", "d" * 3000), "d" * 24,
                     id="3000-char-out-dir"),
    ])
    def test_file_error_cuts_its_path(self, tmp_path, capsys, monkeypatch, argv, name):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f": '{name}...'\n")
        assert err.count("\n") == 1 and len(err.encode()) <= 200

    @pytest.mark.parametrize("argv", [
        ("metrics", "--case", "1"),
        ("compare", "--case", "3", "--seeds", "1", "--duration", "20"),
        ("case-study", "--case", "3", "--seeds", "1", "--duration", "20"),
    ], ids=lambda argv: argv[0])
    def test_each_metric_computed_once(self, tmp_path, monkeypatch, argv):
        calls = {}
        for name in ("betweenness_centrality", "eccentricity_centrality",
                     "eigenvector_centrality", "edge_betweenness"):
            def counted(t, _fn=getattr(cli, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(t)
            monkeypatch.setattr(cli, name, counted)
        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        assert calls == {"betweenness_centrality": 1, "eccentricity_centrality": 1,
                         "eigenvector_centrality": 1, "edge_betweenness": 1}

    def test_loads_no_simulation_only_modules(self, tmp_path):
        # hashlib (seeding, about 3.4 MB of libcrypto) and statistics are for
        # simulations; compare with what numpy itself loads, since numpy 1.x
        # imports numpy.random, and so hashlib, eagerly.
        script = ("import sys, numpy\n"
                  "base = set(sys.modules)\n"
                  "from netcrit import cli\n"
                  f"assert cli.main(['metrics', '--case', '2', '--out', {str(tmp_path)!r}]) == 0\n"
                  "added = {'hashlib', 'statistics'} & (set(sys.modules) - base)\n"
                  "print('added:', *sorted(added))\n")
        src = Path(netcrit.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                              capture_output=True, text=True)
        assert done.stdout.splitlines()[-1] == "added:"

    def test_metric_files_do_not_depend_on_blas_threads(self, tmp_path):
        # At 1,201 nodes OpenBLAS splits the eigenvector's matrix-vector
        # product over its threads, as it does not at a few hundred.
        topo = tmp_path / "ring1000.topo"
        topo.write_text(chorded_ring_text(1000), encoding="utf-8")
        for threads in ("1", "2"):
            run_cli_process("metrics", "--topology", str(topo), "--out", str(tmp_path / threads),
                            OPENBLAS_NUM_THREADS=threads)
        files = assert_same_tree(tmp_path / "1" / "metrics", tmp_path / "2" / "metrics")
        assert Path("node_metrics.csv") in files

    def test_non_finite_tie_epsilon_is_an_error(self, tmp_path, capsys):
        rc = run_cli("metrics", "--case", "3", "--tie-epsilon", "nan", "--out", str(tmp_path))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: tie_epsilon must be finite")
        assert not (tmp_path / "metrics").exists()

    def test_directed_option_removed(self, capsys):
        assert run_cli("metrics", "--case", "1", "--directed") == 2

    def test_invalid_topology_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.topo"
        bad.write_text("node S sink\nnode S router\n")
        assert run_cli("metrics", "--topology", str(bad)) == 1
        assert "duplicate node" in capsys.readouterr().err

    def test_forwarding_rule_holds_for_simulation_commands_only(self, tmp_path, capsys):
        # R2's only link is to generator G: the graph is valid, so the metrics
        # compute, but a packet at R2 has nowhere to go.
        topo = tmp_path / "stranded.topo"
        topo.write_text("node S sink\nnode R1 router\nnode G generator\nnode R2 router\n"
                        "edge S R1\nedge R1 G\nedge G R2\n")
        assert run_cli("metrics", "--topology", str(topo), "--out", str(tmp_path / "m")) == 0
        assert (tmp_path / "m" / "metrics" / "rankings.csv").exists()
        capsys.readouterr()
        for command in ("simulate", "compare", "sweep"):
            out = tmp_path / command
            assert run_cli(command, "--topology", str(topo), "--seeds", "1",
                           "--duration", "10", "--out", str(out)) == 1
            assert capsys.readouterr().err.startswith(
                "error: router 'R2' has no eligible forwarding neighbor")
            assert not out.exists()


class TestSimulateCommand:
    def test_deterministic_outputs(self, tmp_path):
        args = ("simulate", "--case", "3", "--scenario", "stable", "--seeds", "7",
                "--duration", "50")
        assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
        for name in ("timeseries.csv", "summary.csv", "accounting.csv"):
            left = tmp_path / "a" / "runs" / "stable" / "7" / name
            right = tmp_path / "b" / "runs" / "stable" / "7" / name
            assert filecmp.cmp(left, right, shallow=False), name

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_same_seed_same_bytes_random_topologies(self, tmp_path_factory, data):
        t = data.draw(topologies(multihome_prob=0.5))
        scenario = data.draw(scenarios(st.sampled_from(t.router_ids)))
        seed = data.draw(st.integers(0, 2**32))
        dirs = [tmp_path_factory.mktemp("run") for _ in range(2)]
        for out in dirs:
            cli.execute_manifest(RunManifest(topology=t, scenarios=(scenario,), seeds=(seed,),
                                             duration=30.0, out_dir=out))
        run_dir = Path("runs") / scenario.label.replace(":", "-") / str(seed)
        for name in ("timeseries.csv", "summary.csv", "accounting.csv"):
            left, right = (out / run_dir / name for out in dirs)
            assert left.read_bytes() == right.read_bytes(), name

    def test_dos_flags_target_in_every_summary(self, tmp_path):
        assert run_cli("simulate", "--case", "1", "--scenario", "dos:5",
                       "--seeds", "1,2,3", "--duration", "40",
                       "--out", str(tmp_path)) == 0
        for seed in ("1", "2", "3"):
            rows = reports.read_csv(tmp_path / "runs" / "dos-5" / seed / "summary.csv",
                                    reports.SUMMARY_COLUMNS)
            attacked = {r["router_id"] for r in rows if r["attacked"]}
            assert attacked == {"5"}

    def test_ddos_flags_both_targets(self, tmp_path):
        assert run_cli("simulate", "--case", "2", "--scenario", "ddos:2,6",
                       "--seeds", "1", "--duration", "40", "--out", str(tmp_path)) == 0
        rows = reports.read_csv(tmp_path / "runs" / "ddos-2,6" / "1" / "summary.csv",
                                reports.SUMMARY_COLUMNS)
        assert {r["router_id"] for r in rows if r["attacked"]} == {"2", "6"}

    def test_accounting_matches_result_identity(self, tmp_path):
        assert run_cli("simulate", "--case", "2", "--scenario", "stable",
                       "--seeds", "4", "--duration", "60", "--out", str(tmp_path)) == 0
        [acc] = reports.read_csv(tmp_path / "runs" / "stable" / "4" / "accounting.csv",
                                 reports.ACCOUNTING_COLUMNS)
        assert acc["generated"] == (acc["delivered_to_sink"] + acc["dropped_by_attack"]
                                    + acc["dropped_by_ttl"] + acc["in_flight_at_end"])

    @pytest.mark.parametrize("option, seeds", [(("--seed", "7"), ("7",)),
                                               (("--seed=1..2",), ("1", "2"))])
    def test_seed_prefix_means_seeds(self, tmp_path, option, seeds):
        # There is one spelling, --seeds; argparse takes the unambiguous prefix.
        assert run_cli("simulate", "--case", "3", *option, "--duration", "20",
                       "--out", str(tmp_path)) == 0
        assert sorted(p.name for p in (tmp_path / "runs" / "stable").iterdir()) == list(seeds)

    def test_seed_range_grammar(self, tmp_path):
        assert run_cli("simulate", "--case", "3", "--scenario", "stable",
                       "--seeds", "1..3", "--duration", "20", "--out", str(tmp_path)) == 0
        for seed in ("1", "2", "3"):
            assert (tmp_path / "runs" / "stable" / seed / "summary.csv").exists()

    @pytest.mark.parametrize("bad", ["dos:", "flood:1", "ddos:", "stable:"])
    def test_bad_scenario_grammar(self, tmp_path, capsys, bad):
        rc = run_cli("simulate", "--case", "3", "--scenario", bad,
                     "--seeds", "1", "--duration", "10", "--out", str(tmp_path))
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_unknown_target_router(self, tmp_path, capsys):
        rc = run_cli("simulate", "--case", "3", "--scenario", "dos:99",
                     "--seeds", "1", "--duration", "10", "--out", str(tmp_path))
        assert rc == 1
        assert "unknown routers" in capsys.readouterr().err

    def test_duplicate_seeds_rejected(self, tmp_path, capsys):
        rc = run_cli("simulate", "--case", "3", "--scenario", "stable",
                     "--seeds", "1,1", "--duration", "10", "--out", str(tmp_path))
        assert rc == 1
        assert "distinct" in capsys.readouterr().err

    def test_duplicate_ddos_targets_rejected(self, tmp_path, capsys):
        rc = run_cli("simulate", "--case", "2", "--scenario", "ddos:3,3",
                     "--duration", "2", "--out", str(tmp_path))
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: scenario targets must be distinct")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("scenario, message", [
        ("ddos:,3", "empty target"),
        ("ddos:3,", "empty target"),
        ("ddos:1,,2", "empty target"),
        ("dos:3,4", "dos scenario takes exactly one target"),
        ("ddos:²,1", "scenario targets unknown routers: ²"),  # '²' is a digit, not a decimal
    ])
    def test_malformed_targets_rejected(self, tmp_path, capsys, scenario, message):
        rc = run_cli("simulate", "--case", "2", "--scenario", scenario,
                     "--duration", "2", "--out", str(tmp_path))
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("option, field", [
        ("--duration", "duration"),
        ("--mean-interarrival", "mean_interarrival"),
        ("--service-rate", "router_service_rate"),
        ("--monitor-interval", "monitor_interval"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_parameter_is_an_error(self, tmp_path, capsys, option, field, value):
        # argparse keeps the last value, so this also covers --duration itself.
        rc = run_cli("simulate", "--case", "3", "--seeds", "1", "--out", str(tmp_path),
                     "--duration", "10", option, value)
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {field} must be finite")
        assert not (tmp_path / "runs").exists()

    def test_in_flight_cap_is_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(simulator, "MAX_IN_FLIGHT", 100)
        rc = run_cli("simulate", "--case", "3", "--seeds", "1", "--duration", "2000",
                     "--out", str(tmp_path))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: 101 packets in flight at t=")

    def test_timeseries_round_trips(self, tmp_path):
        assert run_cli("simulate", "--case", "3", "--scenario", "stable",
                       "--seeds", "2", "--duration", "30", "--out", str(tmp_path)) == 0
        rows = reports.read_csv(tmp_path / "runs" / "stable" / "2" / "timeseries.csv",
                                reports.TIMESERIES_COLUMNS)
        samples = Counter(row["router_id"] for row in rows)
        assert set(samples) == {"1", "2", "6", "10", "14"}
        assert len(set(samples.values())) == 1  # every router sampled on the same ticks
        assert all(type(row["time_s"]) is type(row["delay_s"]) is float for row in rows)

    def test_too_many_monitor_samples_fails_before_any_run(self, tmp_path, capsys):
        rc = run_cli("simulate", "--case", "3", "--duration", "1e12", "--out", str(tmp_path))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run would hold 10,000,000,000,000 monitor samples")
        assert f"cap of {MAX_MONITOR_SAMPLES:,}" in err
        assert not (tmp_path / "runs").exists()


class TestCompareCommand:
    def test_case3_produces_all_four_metrics(self, tmp_path, capsys):
        assert run_cli("compare", "--case", "3", "--scenario", "stable",
                       "--seeds", "1..3", "--duration", "120", "--k", "2",
                       "--out", str(tmp_path)) == 0
        rows = reports.read_csv(tmp_path / "compare" / "comparison.csv",
                                reports.COMPARISON_COLUMNS)
        assert {r["metric"] for r in rows} == {
            "betweenness", "eccentricity", "eigenvector", "edge_betweenness"}
        for row in rows:
            assert 0.0 <= row["overlap"] <= 1.0
            assert -1.0 <= row["spearman"] <= 1.0
            assert "1" not in row["delay_topk"]  # sink-adjacent router excluded
        report = (tmp_path / "compare" / "report.txt").read_text()
        assert "excluded from delay ranking: 1 (adjacent to sink)" in report

    def test_outputs_identical_across_hash_seeds(self, tmp_path):
        # Tie clusters straddle k here, so the order overlap@k adds its terms
        # in shows in the last bits; that order must not follow the string hash.
        for hash_seed in ("0", "4"):
            run_cli_process("compare", "--case", "3", "--seeds", "1..2", "--duration", "20",
                            "--k", "2", "--tie-epsilon", "0.5",
                            "--out", str(tmp_path / hash_seed), PYTHONHASHSEED=hash_seed)
        files = assert_same_tree(tmp_path / "0", tmp_path / "4")
        assert Path("compare", "comparison.csv") in files

    def test_case2_excluded_list(self, tmp_path):
        assert run_cli("compare", "--case", "2", "--scenario", "stable",
                       "--seeds", "1,2", "--duration", "80", "--k", "3",
                       "--out", str(tmp_path)) == 0
        report = (tmp_path / "compare" / "report.txt").read_text()
        assert "1 (adjacent to sink)" in report
        assert "2 (adjacent to sink)" in report

    def test_k_zero_is_usage_error(self, tmp_path, capsys):
        rc = run_cli("compare", "--case", "3", "--scenario", "stable",
                     "--seeds", "1", "--duration", "10", "--k", "0",
                     "--out", str(tmp_path))
        assert rc == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_tie_epsilon_fails_before_any_run(self, value, tmp_path, capsys):
        rc = run_cli("compare", "--case", "3", "--seeds", "1..2", "--duration", "10",
                     "--tie-epsilon", value, "--out", str(tmp_path))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: tie_epsilon must be finite")
        assert not (tmp_path / "runs").exists()

    def test_k_above_ranked_universe_fails_before_any_run(self, tmp_path, capsys):
        rc = run_cli("compare", "--case", "3", "--seeds", "1..2", "--duration", "10",
                     "--k", "10", "--out", str(tmp_path))
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: k=10 larger than ranked universe (4 routers)")
        assert not (tmp_path / "runs").exists()

    def test_all_sink_adjacent_fails_before_any_run(self, tmp_path, capsys):
        topo = tmp_path / "one.topo"
        topo.write_text("node S sink\nnode R router\nnode G generator\n"
                        "edge S R\nedge R G\n")
        rc = run_cli("compare", "--topology", str(topo), "--seeds", "1..2",
                     "--duration", "10", "--k", "1", "--out", str(tmp_path))
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: every router is sink-adjacent; nothing to rank")
        assert not (tmp_path / "runs").exists()


class TestRunManifest:
    def test_invariants(self, tmp_path):
        t = builtin_case(3)
        good = dict(topology=t, scenarios=(Scenario.stable(),), seeds=(1, 2),
                    duration=10.0, out_dir=Path(tmp_path))
        RunManifest(**good)
        with pytest.raises(ValueError, match="at least one scenario"):
            RunManifest(**{**good, "scenarios": ()})
        with pytest.raises(ValueError, match="at least one seed"):
            RunManifest(**{**good, "seeds": ()})
        with pytest.raises(ValueError, match="distinct"):
            RunManifest(**{**good, "seeds": (1, 1)})
        with pytest.raises(ValueError, match="unknown routers"):
            RunManifest(**{**good, "scenarios": (Scenario.dos("99"),)})
        with pytest.raises(ValueError, match="monitor samples"):
            RunManifest(**{**good, "duration": 1e12})
        for bad in ((1, -1), (2**64,)):
            with pytest.raises(ValueError, match="unsigned 64-bit"):
                RunManifest(**{**good, "seeds": bad})

    def test_bad_seed_fails_before_first_run(self, tmp_path, capsys):
        rc = run_cli("simulate", "--case", "3", "--seeds", "1,-1", "--duration", "10",
                     "--out", str(tmp_path))
        assert rc == 1
        assert "unsigned 64-bit integers, got -1" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


def _record_fields(result) -> dict:
    return {f.name: getattr(result, f.name) for f in dataclasses.fields(RunRecord)}


class TestRunRecords:
    """execute_manifest returns slim run records, not full SimResults."""

    @staticmethod
    def _sweep(tmp_path, seeds=(1, 2), duration=50.0):
        t = builtin_case(3)
        scenarios = (Scenario.stable(),) + tuple(Scenario.dos(r) for r in t.router_ids)
        manifest = RunManifest(topology=t, scenarios=scenarios, seeds=seeds,
                               duration=duration, out_dir=tmp_path)
        return manifest, cli.execute_manifest(manifest)

    def test_records_match_run_and_files(self, tmp_path):
        manifest, records = self._sweep(tmp_path)
        assert list(records) == [s.label for s in manifest.scenarios]
        for scenario in manifest.scenarios:
            for seed, record in zip(manifest.seeds, records[scenario.label], strict=True):
                assert type(record) is RunRecord
                full = run(manifest.topology, manifest.config_for(seed), scenario)
                assert _record_fields(record) == _record_fields(full)
                run_dir = tmp_path / "runs" / scenario.label.replace(":", "-") / str(seed)
                summary = reports.read_csv(run_dir / "summary.csv", reports.SUMMARY_COLUMNS)
                assert summary == [
                    {"router_id": r, "final_delay_s": rs.final_delay, "forwarded": rs.forwarded,
                     "dropped_attack": rs.dropped_attack, "attacked": rs.attacked,
                     "sink_adjacent": rs.sink_adjacent} for r, rs in record.routers.items()]
                [accounting] = reports.read_csv(run_dir / "accounting.csv",
                                                reports.ACCOUNTING_COLUMNS)
                assert accounting == {name: getattr(record, name)
                                      for name in reports.ACCOUNTING_COLUMNS}

    def test_analysis_same_on_records_and_results(self, tmp_path):
        manifest, records = self._sweep(tmp_path)
        t = manifest.topology
        full = {s.label: [run(t, manifest.config_for(seed), s) for seed in manifest.seeds]
                for s in manifest.scenarios}
        assert rank_by_delay(records["stable"], t) == rank_by_delay(full["stable"], t)
        for label in records:
            assert (mean_final_delays(records[label], t.router_ids)
                    == mean_final_delays(full[label], t.router_ids))
        assert outage_impacts(records, t) == outage_impacts(full, t)

    def test_held_memory_does_not_grow_with_duration(self, tmp_path):
        t = builtin_case(2)

        def retained(duration: float) -> int:
            """Bytes the campaign's return value holds, under tracemalloc."""
            manifest = RunManifest(topology=t, scenarios=(Scenario.stable(), Scenario.dos("3")),
                                   seeds=(1, 2), duration=duration,
                                   out_dir=tmp_path / str(duration))
            records = cli.execute_manifest(manifest)
            gc.collect()  # also empties the interpreter's free lists
            held = tracemalloc.get_traced_memory()[0]
            del records
            gc.collect()
            return held - tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            short, long = retained(50.0), retained(500.0)
        finally:
            tracemalloc.stop()
        # Tick columns would add 15 columns x 900 ticks x 8 bytes per run.
        assert long - short < 64 * 1024


class TestSeedBounds:
    @pytest.mark.parametrize("seeds", ["0..100000000000", f"0..{MAX_SEEDS}",
                                       f"{2**64 - 1}..{2**64}", "-3..2"])
    def test_out_of_bounds_range_is_an_error(self, tmp_path, capsys, seeds):
        rc = run_cli("simulate", "--case", "3", f"--seeds={seeds}", "--duration", "1",
                     "--out", str(tmp_path))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "runs").exists()

    def test_largest_range_is_accepted(self):
        assert len(cli.parse_seeds(f"{2**64 - MAX_SEEDS}..{2**64 - 1}")) == MAX_SEEDS

    def test_too_many_listed_seeds_is_an_error(self, tmp_path, capsys):
        seeds = ",".join(str(s) for s in range(MAX_SEEDS + 1))
        assert run_cli("simulate", "--case", "3", "--seeds", seeds, "--duration", "1",
                       "--out", str(tmp_path)) == 1
        assert f"at most {MAX_SEEDS}" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["1,,2", "1,", ",1", "", "1_000", "1_000..1_002",
                                       "\u0661,2", "+1", "1..", "..2"])
    def test_malformed_seeds_are_an_error(self, tmp_path, capsys, seeds):
        rc = run_cli("simulate", "--case", "3", f"--seeds={seeds}", "--duration", "1",
                     "--out", str(tmp_path))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: bad seed")
        assert not (tmp_path / "runs").exists()

    def test_spaces_and_sign_are_syntax(self):
        assert cli.parse_seeds(" 1 .. 3 ") == (1, 2, 3)
        assert cli.parse_seeds("1, -1") == (1, -1)  # RunManifest rejects -1


# Each rule that stops a campaign before its first run writes a file, with
# the start of its message. The seed rules hold for every campaign command.
_SEED_RULES = [("1,-1", "seeds must be unsigned 64-bit integers, got -1"),
               ("1,1", "seeds must be distinct"),
               ("1,,2", "bad seeds '1,,2'"),
               (f"1,{2**64}", f"seeds must be unsigned 64-bit integers, got {2**64}")]
_RUN_RULES = [(("--scenario", "dos:99"), "scenario targets unknown routers: 99"),
              (("--duration", "1e12"), "run would hold"),
              (("--monitor-interval", "1e-300"), "run would hold 5e+301 monitor samples ("),
              (("--mean-interarrival", "1e-9"), "run would generate"),
              (("--service-rate", "nan"), "router_service_rate must be finite"),
              (("--attack-probability", "2"), "attack_forwarding_probability must be in")]
_COMPARE_RULES = [(("--tie-epsilon", "nan"), "tie_epsilon must be finite"),
                  (("--k", "10"), "k=10 larger than ranked universe")]
# Scenario strings an error message must not echo whole, with a name for the test id.
_LONG_SCENARIOS = [
    ("3000-char-dos-target", "dos:" + "7" * 3000,
     "scenario targets unknown routers: " + "7" * 24 + "..."),
    ("2000-ddos-targets", "ddos:" + ",".join(f"x{i}" for i in range(2000)),
     "scenario targets unknown routers: x0, x1, x10, x100"),
    ("3000-char-kind", "flood" * 600, "unknown scenario kind 'floodflood"),
]
_FAIL_EARLY = (
    [pytest.param(command, ("--seeds", seeds), message, id=f"{command}-seeds={seeds}")
     for command in ("simulate", "compare", "case-study", "sweep")
     for seeds, message in _SEED_RULES]
    + [pytest.param(command, option, message, id=f"{command}{'='.join(option)}")
       for command in ("simulate", "compare") for option, message in _RUN_RULES]
    + [pytest.param("compare", option, message, id=f"compare{'='.join(option)}")
       for option, message in _COMPARE_RULES]
    + [pytest.param(command, ("--scenario", text), message, id=f"{command}-{name}")
       for command in ("simulate", "compare") for name, text, message in _LONG_SCENARIOS]
)


class TestFailBeforeFirstRun:
    @pytest.mark.parametrize("command, option, message", _FAIL_EARLY)
    def test_rule(self, tmp_path, capsys, command, option, message):
        # Without the rule, --seeds 1..2 would run and write runs/.
        rc = run_cli(command, "--case", "3", "--seeds", "1..2", "--duration", "10",
                     *option, "--out", str(tmp_path))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1 and len(err.encode()) <= 200
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["simulate", "compare", "case-study", "sweep"])
    @pytest.mark.parametrize("seeds", [
        pytest.param("1," + "9" * 300, id="300-digit-item"),
        pytest.param("1.." + "9" * 5000, id="5000-digit-range-end"),
    ])
    def test_long_seed(self, tmp_path, capsys, command, seeds):
        rc = run_cli(command, "--case", "3", "--duration", "10", "--seeds", seeds,
                     "--out", str(tmp_path))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad seed '99999999")
        assert f"digits (at most {cli.MAX_SEED_DIGITS})" in err
        assert err.count("\n") == 1 and len(err.encode()) <= 200
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command, scenario", [
        ("sweep", ()), ("simulate", ("--scenario", "dos:" + "R" * 300))], ids=["sweep", "simulate"])
    def test_run_directory_name_too_long(self, tmp_path, capsys, command, scenario):
        # A valid router id too long for "runs/dos-<id>": without the rule,
        # sweep writes its stable runs and simulate runs in full before the
        # file system refuses the name.
        topo = tmp_path / "long.topo"
        topo.write_text(f"node S sink\nnode A router\nnode {'R' * 300} router\n"
                        f"node G generator\nedge G A\nedge A {'R' * 300}\nedge {'R' * 300} S\n")
        rc = run_cli(command, "--topology", str(topo), *scenario, "--seeds", "1..2",
                     "--duration", "10", "--out", str(tmp_path))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenario 'dos:{'R' * 20}...' names a run directory "
                              "longer than 255 bytes")
        assert err.count("\n") == 1 and len(err.encode()) <= 200
        assert not (tmp_path / "runs").exists()

    def test_repeated_scenario_label(self, tmp_path):
        t = builtin_case(3)
        for repeated in ((Scenario.stable(), Scenario.stable()),
                         (Scenario.dos("2"), Scenario.stable(), Scenario.dos("2", 0.5)),
                         # one DDoS with its targets in two orders
                         (Scenario(kind="ddos", targets=("6", "2")), Scenario.ddos(["2", "6"]))):
            with pytest.raises(ValueError, match="scenarios must be distinct, got "):
                RunManifest(topology=t, scenarios=repeated, seeds=(1, 2), duration=10.0,
                            out_dir=tmp_path)
        assert not (tmp_path / "runs").exists()

    def test_compare_metric_failure(self, tmp_path, capsys, monkeypatch):
        def fail(t):
            raise PowerIterationError(1, 1.0)
        monkeypatch.setattr(cli, "eigenvector_centrality", fail)
        rc = run_cli("compare", "--case", "3", "--seeds", "1..2", "--duration", "10",
                     "--out", str(tmp_path))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: power iteration did not converge")
        assert not (tmp_path / "runs").exists()


class TestCaseStudyCommand:
    @pytest.mark.parametrize("seeds", ["5..1", "1,1", "1,-1"])
    def test_bad_seeds_exit_with_error(self, tmp_path, capsys, seeds):
        assert run_cli("case-study", "--case", "3", "--seeds", seeds, "--duration", "5",
                       "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "runs").exists()

    def test_prints_rankings_and_table(self, tmp_path, capsys):
        assert run_cli("case-study", "--case", "3", "--seeds", "1", "--duration", "20",
                       "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        for metric in ("betweenness", "eccentricity", "eigenvector", "edge_betweenness"):
            assert metric in out
        header = (tmp_path / "delay_by_scenario.csv").read_text().splitlines()[0]
        assert header == "router_id,stable,dos:2,dos:6,dos:10,dos:14"

    def test_takes_only_a_builtin_case(self):
        assert run_cli("case-study", "--topology", "x.topo") == 2


class TestSweepCommand:
    @pytest.mark.parametrize("seeds", ["5..1", "1,1", "1,-1"])
    def test_bad_seeds_exit_with_error(self, tmp_path, capsys, seeds):
        assert run_cli("sweep", "--case", "3", "--seeds", seeds, "--duration", "5",
                       "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "runs").exists()

    def test_ranks_every_router(self, tmp_path):
        assert run_cli("sweep", "--case", "3", "--seeds", "1", "--duration", "20",
                       "--out", str(tmp_path)) == 0
        lines = (tmp_path / "attack_sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + len(builtin_case(3).router_ids)

    def test_topology_file(self, tmp_path):
        topo = tmp_path / "ring.topo"
        topo.write_text(serialize_topology(builtin_case(3)))
        assert run_cli("sweep", "--topology", str(topo), "--seeds", "1", "--duration", "20",
                       "--out", str(tmp_path / "out")) == 0
        rows = (tmp_path / "out" / "attack_sweep.csv").read_text().splitlines()
        assert rows[0] == ",".join(reports.ATTACK_SWEEP_COLUMNS)
        assert len(rows) == 1 + len(builtin_case(3).router_ids)

    def test_one_router_has_no_survivors(self, tmp_path, capsys):
        # A DoS on the only router leaves no survivor delay to average: the
        # shift is reported as 0.0 instead of failing the sweep.
        topo = tmp_path / "one.topo"
        topo.write_text("node S sink\nnode R router\nnode G generator\nedge S R\nedge R G\n")
        assert run_cli("sweep", "--topology", str(topo), "--seeds", "1", "--duration", "50",
                       "--out", str(tmp_path / "out")) == 0
        rows = (tmp_path / "out" / "attack_sweep.csv").read_text().splitlines()
        assert rows[1:] == ["1,R,0.0,100.0,0.0"]
        assert "100.0" in capsys.readouterr().out

    @pytest.mark.parametrize("case,duration", [(3, "1"), (1, "3")])
    def test_empty_baseline_is_an_error(self, tmp_path, capsys, case, duration):
        assert run_cli("sweep", "--case", str(case), "--seeds", "1", "--duration", duration,
                       "--out", str(tmp_path)) == 1
        assert "error: stable baseline delivered no packets" in capsys.readouterr().err
        assert not (tmp_path / "attack_sweep.csv").exists()
        # The baseline is checked before any DoS run writes a file.
        assert [p.name for p in (tmp_path / "runs").iterdir()] == ["stable"]


class TestArgumentErrors:
    def test_unknown_case_rejected_by_parser(self, capsys):
        assert run_cli("metrics", "--case", "9") == 2

    def test_topology_and_case_mutually_exclusive(self, capsys):
        assert run_cli("metrics", "--case", "1", "--topology", "x.topo") == 2

    def test_missing_subcommand(self):
        assert run_cli() == 2
