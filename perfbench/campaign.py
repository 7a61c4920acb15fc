"""One campaign in a fresh process: set up, run the workload's commands, report.

    python3 perfbench/campaign.py SPEC_JSON RESULT_JSON TRACE

Run with the campaign's output directory as the working directory and the
checkout's ``src`` first on ``PYTHONPATH``. Set-up is the time from the start
of this script through importing netcrit and loading and validating the
workload's topologies; the workload's wall time starts after it. With TRACE
``1`` the campaign records spans (see ``spans.py``) and writes them next to
RESULT_JSON.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _run_command(command: dict, topologies: list) -> str | None:
    """Run one command; return None on success, else what went wrong."""
    from netcrit import cli
    from netcrit.simulator import Scenario

    try:
        if "cli" in command:
            code = cli.main(command["cli"])
            return None if code == 0 else f"netcrit {command['cli'][0]} exited with {code}"
        sweep = command["sweep"]
        topology = topologies[0]  # the sweep's one topology, loaded during set-up
        scenarios = (Scenario.stable(),) + tuple(Scenario.dos(r) for r in topology.router_ids)
        manifest = cli.RunManifest(topology=topology, scenarios=scenarios,
                                   seeds=tuple(sweep["seeds"]), duration=sweep["duration"],
                                   out_dir=Path("."))
        cli.execute_manifest(manifest)
        return None
    except Exception:  # a failing command is counted as failed operations, not fatal
        return traceback.format_exc()


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    result_path = Path(argv[2])
    traced = argv[3] == "1"

    import netcrit
    from netcrit import cli, topology  # noqa: F401  (importing cli is part of set-up)

    recorder = None
    if traced:
        import spans

        recorder = spans.Recorder()
        recorder.instrument()
    topologies = [topology.builtin_case(t["case"]) if "case" in t
                  else topology.load_topology(t["file"]) for t in spec["topologies"]]
    setup_s = time.perf_counter() - T0

    rss_start = _rss_mb()
    start = time.perf_counter()
    errors = [_run_command(c, topologies) for c in spec["commands"]]
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import numpy

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "errors": errors,
        "netcrit_file": netcrit.__file__,
        "numpy": numpy.__version__,
    }
    if recorder is not None:
        result["layers"] = recorder.layer_metrics()
        result["layers"]["cli.rss_growth_mb"] = peak_rss_mb - rss_start
        recorder.write(result_path.with_suffix(".spans.jsonl"))
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
