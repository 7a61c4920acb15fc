"""The mutation table: each row breaks ``src/netcrit`` in one place and names
the independent tests that must catch it.

Run it from anywhere as ``python tests/mutations.py``.

The named tests must first pass on an unmutated copy of ``src/``. Then, for
each row, the runner copies ``src/`` to a temporary directory, replaces the
row's old text, which must occur exactly once in its file, with the new
text, and runs each of the row's tests against that copy, one pytest
subprocess at a time. A row holds when every one of its tests fails. A row
marked ``survives`` is a mutant no test catches yet, and holds only while
its tests still pass, so the table keeps the gap on record until a test
closes it. The runner exits 1 if any row does not hold.

pytest collects only ``test_*.py`` files, so tier-1 never runs this one.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]

FLUID = "tests/test_simulator.py::TestFluidOracle"
OVERLOAD = f"{FLUID}::test_overload_matches_simulation"


class Mutation(NamedTuple):
    name: str
    file: str  # under src/netcrit/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root
    survives: str = ""  # why every test passes anyway; empty if they must fail


BUSY_SERVICE = ("            if queue:\n"
                "                heappush(heap, (now - mean_service * log1p(-router_random[node]()), "
                "node))\n")

MUTATIONS = (
    Mutation("lifo-past-100", "simulator.py",
             "pid, came_from, hop_count, arrived_at = queue.popleft()",
             "pid, came_from, hop_count, arrived_at = "
             "queue.pop() if len(queue) > 100 else queue.popleft()",
             (f"{FLUID}::test_saturated_delay_matches_simulation",
              "tests/test_simulator.py::TestRun::test_fifo_order_holds_in_a_saturated_queue")),
    Mutation("gap-x1.001", "simulator.py",
             "heappush(heap, (now - config.mean_interarrival * log1p(-draw()), node))",
             "heappush(heap, (now - config.mean_interarrival * 1.001 * log1p(-draw()), node))",
             ("tests/test_simulator.py::TestGeneratorReplay",)),
    Mutation("no-size-draw", "simulator.py",
             "            size = 0.0\n"
             "            while size <= 0.0:  # sizes must be strictly positive\n"
             "                size = -MEAN_PACKET_SIZE * log1p(-draw())\n",
             "",
             ("tests/test_simulator.py::TestGeneratorReplay",)),
    Mutation("first-gap-log-u", "simulator.py",
             "heappush(heap, (-config.mean_interarrival * log1p(-draw()), sink + g))",
             "heappush(heap, (-config.mean_interarrival * math.log(draw()), sink + g))",
             ("tests/test_simulator.py::TestGeneratorReplay",)),
    Mutation("tick-mean-over-f-plus-1", "simulator.py",
             "column.append(s / f if f else 0.0)",
             "column.append(s / (f + 1) if f else 0.0)",
             ("tests/test_simulator.py::TestMonitorReplay",)),
    Mutation("busy-service-x1.03", "simulator.py", BUSY_SERVICE,
             BUSY_SERVICE.replace("mean_service *", "mean_service * 1.03 *"),
             ("tests/test_simulator.py::TestBusyPathService", OVERLOAD)),
    Mutation("busy-service-grows-with-queue", "simulator.py", BUSY_SERVICE,
             BUSY_SERVICE.replace("mean_service *", "(mean_service + len(queue) / 50_000) *"),
             (OVERLOAD,)),
    Mutation("backtrack-at-100", "simulator.py",
             "candidates = hops[node][came_from]",
             "candidates = hops[node][-1] if len(queue) >= 100 else hops[node][came_from]",
             (OVERLOAD,)),
    Mutation("arrival-past-1000-delivered", "simulator.py",
             "        queue = queues[node]\n        queue.append(",
             "        queue = queues[node]\n"
             "        if len(queue) > 1000:\n"
             "            delivered += 1\n"
             "            continue\n"
             "        queue.append(",
             (OVERLOAD,)),
    Mutation("walk-may-always-backtrack", "topology.py",
             "tuple(n for n in eligible if n != a) or (a,)",
             "tuple(eligible)",
             ("tests/test_simulator.py::TestNextHop::test_excludes_arrival_link",
              "tests/test_simulator.py::TestNetworkOracle::"
              "test_sojourn_and_throughput_match_jackson",
              FLUID)),
    Mutation("rank-ties-no-tiebreak", "metrics.py",
             "items.sort(key=lambda kv: ((-kv[1] if descending else kv[1]), str(kv[0])))",
             "items.sort(key=lambda kv: -kv[1] if descending else kv[1])",
             ("tests/test_metrics.py::TestRankWithTies::test_insertion_order_does_not_matter",)),
    Mutation("rank-ties-key-not-str", "metrics.py",
             "items.sort(key=lambda kv: ((-kv[1] if descending else kv[1]), str(kv[0])))",
             "items.sort(key=lambda kv: ((-kv[1] if descending else kv[1]), kv[0]))",
             ("tests/test_metrics.py::TestRankWithTies",),
             survives="equivalent for every caller: the package ranks only str ids, "
                      "for which str(key) is key, and no test ranks keys of another type"),
)


def copy_src(into: Path, mutation: Mutation | None = None) -> Path:
    """Copy ``src/`` under ``into`` and apply ``mutation``; return the copy."""
    src = Path(shutil.copytree(REPO / "src", into / "src"))
    if mutation is not None:
        path = src / "netcrit" / mutation.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutation.old) != 1:
            raise SystemExit(f"{mutation.name}: the old text occurs {text.count(mutation.old)} "
                             f"times in {mutation.file}, not once")
        path.write_text(text.replace(mutation.old, mutation.new), encoding="utf-8")
    return src


def pytest(src: Path, *ids: str) -> subprocess.CompletedProcess:
    """Run the tests ``ids`` on the package copy at ``src``, stopping at the
    first failure. The working directory is the copy's parent, so no test
    leaves a file in the repository."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-W", "error", "-p", "no:cacheprovider",
         *(str(REPO / test_id) for test_id in ids)],
        cwd=src.parent, env=env, capture_output=True, text=True)


def check_control() -> None:
    """Every named test must pass on the unmutated copy, importing it."""
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(Path(tmp))
        env = {**os.environ, "PYTHONPATH": str(src)}
        where = subprocess.run([sys.executable, "-c", "import netcrit; print(netcrit.__file__)"],
                               cwd=tmp, env=env, capture_output=True, text=True, check=True)
        if not Path(where.stdout.strip()).is_relative_to(src):
            raise SystemExit(f"netcrit imports from {where.stdout.strip()}, not the copy")
        ids = dict.fromkeys(test_id for row in MUTATIONS for test_id in row.tests)
        done = pytest(src, *ids)
        if done.returncode != 0:
            raise SystemExit(f"the named tests fail without a mutation:\n{done.stdout[-3000:]}")


def check(row: Mutation) -> bool:
    """Apply ``row`` and report whether it holds: each test fails, or each
    passes if the row survives."""
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(Path(tmp), row)
        holds = True
        for test_id in row.tests:
            done = pytest(src, test_id)
            if done.returncode not in (0, 1):  # interrupted, internal error or no test found
                raise SystemExit(f"{row.name}: pytest exited {done.returncode} on {test_id}:\n"
                                 f"{done.stdout[-3000:]}{done.stderr[-3000:]}")
            failed = done.returncode == 1
            if failed == bool(row.survives):
                holds = False
                print(f"  {test_id} {'failed' if failed else 'passed'}", flush=True)
        return holds


def main() -> int:
    start = time.perf_counter()
    check_control()
    print(f"control: the named tests pass unmutated ({time.perf_counter() - start:.1f} s)",
          flush=True)
    broken = 0
    for row in MUTATIONS:
        start = time.perf_counter()
        holds = check(row)
        broken += not holds
        outcome = "survives" if row.survives else "caught"
        print(f"{row.name}: {outcome if holds else 'DOES NOT HOLD'} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
