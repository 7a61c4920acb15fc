"""netcrit benchmark: run one workload for a fixed time, check its outputs, report metrics.

    python3 perfbench/run.py --workload compare-mesh --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it measures the netcrit under ``src/``
there. The workload (see ``workloads.py``) is a batch job driven by one
client in a closed loop: one campaign at a time, each in a fresh process
(``campaign.py``). Campaigns run until ``--seconds`` have passed.

Every campaign's outputs are checked against the recorded SHA-256 digests
(``guard.py``) and every run's ``accounting.csv`` against exact packet
conservation. An operation (one simulation run or one CLI command) fails if
its command raised or exited non-zero, or if one of its outputs is missing,
differs from its digest, or breaks conservation.

With ``--trace 0`` the result holds the end-to-end metrics: median wall time
of the workload, median set-up time (import netcrit, load and validate the
topologies) and median peak resident memory per campaign. With ``--trace 1``
campaigns alternate between traced (``spans.py``) and untraced; the result
holds the per-layer medians over the traced ones, and ``trace.overhead_s``
is the traced minus the untraced median wall time. Lines before the last
give every metric with its unit, the median's sample count, a tail
percentile, the failure ratio and an environment record. The last line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Outputs and a full record go under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import guard
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# A run ends within this many seconds even if a campaign hangs: no campaign
# starts unless the previous one's duration still fits, and each is killed
# at the limit.
RUN_LIMIT_S = 170
MIN_SAMPLES = 3


def run_campaign(spec_path: Path, work: Path, index: int, traced: bool,
                 timeout: float = RUN_LIMIT_S):
    """Run one campaign in a fresh process; return (result or None, outputs, log tail)."""
    out = work / "campaign"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result_path = work / f"campaign{index}.json"
    pythonpath = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    log_path = work / "campaign.log"
    with log_path.open("wb") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "campaign.py"), str(spec_path), str(result_path),
             "1" if traced else "0"],
            cwd=out, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
    result = None
    if code == 0 and result_path.is_file():
        result = json.loads(result_path.read_text(encoding="utf-8"))
    tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
    return result, guard.digest_outputs(out), tail


def operation_problems(spec: dict, result: dict | None, out: Path, found: dict,
                       reference: dict) -> list[str | None]:
    """One entry per operation of the campaign: None if it succeeded, else why not."""
    problems = []
    for i, command in enumerate(spec["commands"]):
        ops = command["ops"]
        error = "campaign process failed" if result is None else result["errors"][i]
        if error is None:
            problems += guard.check(ops, out, found, reference)
        else:
            problems += [f"{op['name']}: command failed: {error}" for op in ops]
    return problems


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it, or None below 11 samples."""
    n = len(values)
    if n <= 10:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def environment(numpy_version: str | None) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_digest = guard.tree_digest(SRC)
    nproc = len(os.sched_getaffinity(0))
    return {
        "commit": commit,
        "src_sha256": src_digest,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": nproc,
        "machine": platform.machine(),
        "cannot_measure": [
            f"scaling of parallel jobs beyond {nproc} cores",
            "noise from other tenants of a shared host, which medians damp but do not remove",
        ],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny campaigns with no recorded digests (the benchmark's smoke test)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "netcrit" / "__init__.py").is_file():
        print(f"error: no netcrit source at {SRC / 'netcrit'}; run from a checkout",
              file=sys.stderr)
        return 2

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    work = WORK / label
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = workloads.build_spec(args.workload, args.seed, work,
                                "tiny" if args.tiny else "full")
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1), encoding="utf-8")

    reference = None if args.tiny else guard.load_recorded(args.workload).get(args.seed)
    reference_source = "recorded" if reference else "first campaign of this run"

    attempted = failed = 0
    problems: list[str] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    numpy_version = None
    start = time.perf_counter()
    index = 0
    while True:
        is_traced = bool(args.trace) and index % 2 == 1
        t0 = time.perf_counter()
        result, found, log_tail = run_campaign(spec_path, work, index, is_traced,
                                               timeout=RUN_LIMIT_S - (t0 - start))
        if reference is None:
            reference = {name: entry["sha256"] for name, entry in found.items()}
        if result is None:
            problems.append(f"campaign {index} failed; log tail:\n{log_tail}")
        elif not Path(result["netcrit_file"]).resolve().is_relative_to(SRC.resolve()):
            print(f"error: netcrit was imported from {result['netcrit_file']}, not from {SRC}",
                  file=sys.stderr)
            return 2
        else:
            numpy_version = result["numpy"]
        op_problems = operation_problems(spec, result, work / "campaign", found, reference)
        attempted += len(op_problems)
        failed += sum(p is not None for p in op_problems)
        problems.extend(p for p in op_problems if p is not None)

        if result is not None and is_traced:
            csvs = [e for name, e in found.items() if name.endswith(".csv")]
            result["layers"]["reports.bytes"] = sum(e["bytes"] for e in csvs)
            result["layers"]["reports.rows"] = sum(e["rows"] for e in csvs)
            traced.append(result)
        elif result is not None:
            untraced.append(result)
        index += 1
        now = time.perf_counter()
        elapsed = now - start
        enough = len(untraced) + len(traced) >= MIN_SAMPLES
        if (elapsed >= args.seconds and enough) or elapsed + (now - t0) > RUN_LIMIT_S:
            break

    if not untraced or (args.trace and not traced):
        print("error: no campaign completed; nothing to report", file=sys.stderr)
        for p in problems[:5]:
            print(p, file=sys.stderr)
        return 1

    metrics, details = {}, {}

    def put(name: str, values: list[float], unit: str) -> None:
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        details[name] = {"n": len(values), "tail": tail_percentile(values)}

    if args.trace:
        overhead = (statistics.median([r["wall_s"] for r in traced])
                    - statistics.median([r["wall_s"] for r in untraced]))
        for m in BENCHMARK["per_layer"]:
            name = m["name"]
            values = ([overhead] if name == "trace.overhead_s"
                      else [r["layers"][name] for r in traced])
            put(name, values, m["unit"])
    else:
        for m in BENCHMARK["end_to_end"]:
            put(m["name"], [r[m["name"]] for r in untraced], m["unit"])

    env = environment(numpy_version)
    n_samples = len(untraced) + len(traced)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {n_samples} "
          f"campaigns in {time.perf_counter() - start:.1f} s")
    for name, m in metrics.items():
        d = details[name]
        tail = (f"p{d['tail'][0]}={d['tail'][1]:.6g}" if d["tail"]
                else "no tail percentile (needs 11+ samples)")
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']:<6} median of {d['n']}; {tail}")
    print(f"  {'fail_ratio':<30} {failed / attempted:>14.6g} ratio  "
          f"{failed} of {attempted} operations failed")
    print(f"  digests: {reference_source}; determinism and conservation checked on every "
          f"campaign")
    for p in problems[:10]:
        print(f"  FAIL {p}")
    print("env " + json.dumps(env))

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "tiny": args.tiny, "env": env, "metrics": metrics, "details": details,
              "fail_ratio": failed / attempted, "problems": problems,
              "digest_reference": reference_source,
              "campaigns": {"untraced": untraced, "traced": traced}}
    (work / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
