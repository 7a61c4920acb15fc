import filecmp
import runpy
import sys
from pathlib import Path

import pytest

from netcrit import reports
from netcrit.cli import RunManifest, main
from netcrit.simulator import Scenario
from netcrit.topology import builtin_case


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_cli(*argv) -> int:
    return main(list(argv))


def run_script(monkeypatch, name, *argv):
    """Run an experiment script as __main__; return its exit code."""
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exc.value.code


class TestCases:
    def test_lists_builtins(self, capsys):
        assert run_cli("cases") == 0
        out = capsys.readouterr().out
        for token in ("case1", "case2", "case3"):
            assert token in out


class TestMetricsCommand:
    def test_case3_rankings(self, tmp_path, capsys):
        assert run_cli("metrics", "--case", "3", "--out", str(tmp_path)) == 0
        rows = reports.read_rankings(tmp_path / "metrics" / "rankings.csv")
        top_bet = next(r for r in rows if r["metric"] == "betweenness" and r["rank"] == 1)
        assert set(top_bet["members"]) == {"6", "10"}
        nodes = reports.read_node_metrics(tmp_path / "metrics" / "node_metrics.csv")
        assert {r["node_id"] for r in nodes} >= {"1", "2", "6", "10", "14", "BA"}
        edges = reports.read_edge_metrics(tmp_path / "metrics" / "edge_metrics.csv")
        assert ("6", "10") in edges
        assert "(6, 10)" in capsys.readouterr().out

    def test_missing_topology_file(self, tmp_path, capsys):
        rc = run_cli("metrics", "--topology", str(tmp_path / "missing.topo"))
        assert rc != 0
        assert "error:" in capsys.readouterr().err

    def test_directed_eccentricity_prints_x(self, tmp_path, capsys):
        assert run_cli("metrics", "--case", "1", "--directed", "--out", str(tmp_path)) == 0
        nodes = reports.read_node_metrics(tmp_path / "metrics" / "node_metrics.csv")
        assert all(r["eccentricity"] is None for r in nodes)
        assert "X" in capsys.readouterr().out
        rankings = reports.read_rankings(tmp_path / "metrics" / "rankings.csv")
        ecc_rows = [r for r in rankings if r["metric"] == "eccentricity"]
        assert ecc_rows == [{"metric": "eccentricity", "rank": None, "members": (),
                             "value": None}]

    def test_invalid_topology_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.topo"
        bad.write_text("node S sink\nnode S router\n")
        assert run_cli("metrics", "--topology", str(bad)) == 1
        assert "duplicate node" in capsys.readouterr().err


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

    def test_dos_flags_target_in_every_summary(self, tmp_path):
        assert run_cli("simulate", "--case", "1", "--scenario", "dos:5",
                       "--seeds", "1,2,3", "--duration", "40",
                       "--out", str(tmp_path)) == 0
        for seed in ("1", "2", "3"):
            rows = reports.read_summary(tmp_path / "runs" / "dos-5" / seed / "summary.csv")
            attacked = {r["router_id"] for r in rows if r["attacked"]}
            assert attacked == {"5"}

    def test_ddos_flags_both_targets(self, tmp_path):
        assert run_cli("simulate", "--case", "2", "--scenario", "ddos:2,6",
                       "--seeds", "1", "--duration", "40", "--out", str(tmp_path)) == 0
        rows = reports.read_summary(tmp_path / "runs" / "ddos-2,6" / "1" / "summary.csv")
        assert {r["router_id"] for r in rows if r["attacked"]} == {"2", "6"}

    def test_accounting_matches_result_identity(self, tmp_path):
        assert run_cli("simulate", "--case", "2", "--scenario", "stable",
                       "--seeds", "4", "--duration", "60", "--out", str(tmp_path)) == 0
        acc = reports.read_accounting(tmp_path / "runs" / "stable" / "4" / "accounting.csv")
        assert acc["generated"] == (acc["delivered_to_sink"] + acc["dropped_by_attack"]
                                    + acc["dropped_by_ttl"] + acc["in_flight_at_end"])

    def test_seed_range_grammar(self, tmp_path):
        assert run_cli("simulate", "--case", "3", "--scenario", "stable",
                       "--seeds", "1..3", "--duration", "20", "--out", str(tmp_path)) == 0
        for seed in ("1", "2", "3"):
            assert (tmp_path / "runs" / "stable" / seed / "summary.csv").exists()

    @pytest.mark.parametrize("bad", ["dos:", "flood:1", "ddos:"])
    def test_bad_scenario_grammar(self, tmp_path, capsys, bad):
        rc = run_cli("simulate", "--case", "3", "--scenario", bad,
                     "--seeds", "1", "--duration", "10", "--out", str(tmp_path))
        assert rc == 1
        assert "error:" in capsys.readouterr().err

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

    def test_timeseries_round_trips(self, tmp_path):
        assert run_cli("simulate", "--case", "3", "--scenario", "stable",
                       "--seeds", "2", "--duration", "30", "--out", str(tmp_path)) == 0
        series = reports.read_timeseries(tmp_path / "runs" / "stable" / "2" / "timeseries.csv")
        assert set(series) == {"1", "2", "6", "10", "14"}
        assert all(len(v) > 0 for v in series.values())


class TestCompareCommand:
    def test_case3_produces_all_four_metrics(self, tmp_path, capsys):
        assert run_cli("compare", "--case", "3", "--scenario", "stable",
                       "--seeds", "1..3", "--duration", "120", "--k", "2",
                       "--out", str(tmp_path)) == 0
        rows = reports.read_comparison(tmp_path / "compare" / "comparison.csv")
        assert {r["metric"] for r in rows} == {
            "betweenness", "eccentricity", "eigenvector", "edge_betweenness"}
        for row in rows:
            assert 0.0 <= row["overlap"] <= 1.0
            assert -1.0 <= row["spearman"] <= 1.0
            assert "1" not in row["delay_topk"]  # sink-adjacent router excluded
        report = (tmp_path / "compare" / "report.txt").read_text()
        assert "excluded from delay ranking: 1 (adjacent to sink)" in report

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
        for bad in ((1, -1), (2**64,)):
            with pytest.raises(ValueError, match="unsigned 64-bit"):
                RunManifest(**{**good, "seeds": bad})

    def test_bad_seed_fails_before_first_run(self, tmp_path, capsys):
        rc = run_cli("simulate", "--case", "3", "--seeds", "1,-1", "--duration", "10",
                     "--out", str(tmp_path))
        assert rc == 1
        assert "unsigned 64-bit integers, got -1" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()


class TestScripts:
    @pytest.mark.parametrize("script", ["attack_sweep.py", "run_case_study.py"])
    @pytest.mark.parametrize("seeds", ["5..1", "1,1", "1,-1"])
    def test_bad_seeds_exit_with_error(self, monkeypatch, tmp_path, script, seeds):
        code = run_script(monkeypatch, script, "--case", "3", "--seeds", seeds,
                          "--duration", "5", "--out", str(tmp_path))
        assert isinstance(code, str) and code.startswith("error: ")
        assert not (tmp_path / "runs").exists()

    def test_attack_sweep_ranks_every_router(self, monkeypatch, tmp_path):
        assert run_script(monkeypatch, "attack_sweep.py", "--case", "3", "--seeds", "1",
                          "--duration", "20", "--out", str(tmp_path)) == 0
        lines = (tmp_path / "attack_sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + len(builtin_case(3).router_ids)

    def test_run_case_study_prints_rankings_and_table(self, monkeypatch, tmp_path, capsys):
        assert run_script(monkeypatch, "run_case_study.py", "--case", "3", "--seeds", "1",
                          "--duration", "20", "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        for metric in ("betweenness", "eccentricity", "eigenvector", "edge_betweenness"):
            assert metric in out
        header = (tmp_path / "delay_by_scenario.csv").read_text().splitlines()[0]
        assert header == "router_id,stable,dos:2,dos:6,dos:10,dos:14"


class TestArgumentErrors:
    def test_unknown_case_rejected_by_parser(self, capsys):
        assert run_cli("metrics", "--case", "9") == 2

    def test_topology_and_case_mutually_exclusive(self, capsys):
        assert run_cli("metrics", "--case", "1", "--topology", "x.topo") == 2

    def test_missing_subcommand(self):
        assert run_cli() == 2
