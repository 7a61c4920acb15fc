"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import guard
import run
import topogen
import workloads

sys.path.insert(0, str(run.SRC))
from netcrit.topology import NodeRole, parse_topology  # noqa: E402


def _bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                  "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    declared = run.BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    report = "\n".join(lines[:-1])
    for m in declared:
        assert re.search(rf"^\s+{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}\s",
                         report, re.M), m["name"]
    assert re.search(r"^\s+fail_ratio\s+0\s+ratio", report, re.M)
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"commit", "src_sha256", "python", "numpy", "nproc", "cannot_measure"} <= set(env)


def test_digest_guard_trips_on_an_altered_copy(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    spec = workloads.build_spec("compare-mesh", 5, work, "tiny")
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result, found, log = run.run_campaign(spec_path, work, 0, traced=False)
    assert result is not None and not any(result["errors"]), log
    reference = {name: entry["sha256"] for name, entry in found.items()}
    ops = spec["commands"][0]["ops"]
    assert guard.check(ops, work / "campaign", found, reference) == [None] * len(ops)

    copy = tmp_path / "copy"
    shutil.copytree(work / "campaign", copy)
    altered = ops[0]["files"][0]
    path = copy / altered
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n", 1))
    problems = guard.check(ops, copy, guard.digest_outputs(copy), reference)
    assert problems[1:] == [None] * (len(ops) - 1)
    assert altered in problems[0] and "digest differs" in problems[0]

    accounting = copy / ops[1]["accounting"]
    header, row = accounting.read_text(encoding="utf-8").splitlines()
    fields = row.split(",")
    fields[0] = str(int(fields[0]) + 1)
    accounting.write_text(f"{header}\n{','.join(fields)}\n", encoding="utf-8")
    found = guard.digest_outputs(copy)
    same_digests = {name: entry["sha256"] for name, entry in found.items()}
    problem = guard.check(ops, copy, found, same_digests)[1]
    assert problem is not None and "breaks conservation" in problem


def test_a_failed_command_fails_all_its_operations(tmp_path):
    spec = {"commands": [{"ops": [{"name": "a", "files": []}, {"name": "b", "files": []}]}]}
    assert run.operation_problems(spec, {"errors": ["boom"]}, tmp_path, {}, {}) == [
        "a: command failed: boom", "b: command failed: boom"]
    assert run.operation_problems(spec, None, tmp_path, {}, {}) == [
        "a: command failed: campaign process failed",
        "b: command failed: campaign process failed"]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_generated_topologies_are_valid_and_reproducible(seed):
    text = topogen.generate(seed, routers=40, chords=20, generators=4)
    assert text == topogen.generate(seed, routers=40, chords=20, generators=4)
    t = parse_topology(text)
    assert all(re.fullmatch(r"[A-Za-z0-9_]+", nid) for nid in t.node_ids)
    assert len(t.router_ids) == 40 and len(t.generator_ids) == 4
    assert len(t.edges) == 40 - 1 + 20 + 2 + 4
    roles = t.roles
    for nid in (t.sink_id, *t.generator_ids):
        assert all(roles[n] is NodeRole.ROUTER for n in t.adjacency[nid])


def test_recorded_digests_cover_every_workload():
    for workload in workloads.WORKLOADS:
        recorded = guard.load_recorded(workload)
        assert 0 in recorded, workload
        assert all(len(files) == len(recorded[0]) for files in recorded.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "compare-mesh", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
