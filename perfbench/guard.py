"""Output guard: recorded SHA-256 digests and exact packet conservation.

netcrit's determinism contract says the same seeds give byte-identical
outputs. ``digests/<workload>.sha256`` holds, in ``sha256sum`` layout, the
digest of every CSV and ``report.txt`` file each workload writes for the
benchmark seeds recorded there (``<sha256>  <seed>/<path>``). A campaign's
outputs are checked against them, or, for a seed with no record, against
the first campaign of the same run.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

DIGEST_DIR = Path(__file__).resolve().parent / "digests"
_CHUNK = 1 << 20


def digest_outputs(root: Path) -> dict[str, dict]:
    """SHA-256, size and data-row count of every CSV and report.txt under ``root``."""
    out = {}
    for path in sorted(root.rglob("*")):
        if not (path.suffix == ".csv" or path.name == "report.txt") or not path.is_file():
            continue
        h = hashlib.sha256()
        lines = 0
        with path.open("rb") as handle:
            while chunk := handle.read(_CHUNK):
                h.update(chunk)
                lines += chunk.count(b"\n")
        out[path.relative_to(root).as_posix()] = {
            "sha256": h.hexdigest(), "bytes": path.stat().st_size, "rows": lines - 1}
    return out


def tree_digest(root: Path) -> str:
    """SHA-256 over the paths and contents of the source files under ``root``."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(root).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def conservation_error(path: Path) -> str | None:
    """None if the accounting file obeys generated = delivered + dropped + in flight."""
    try:
        with path.open(encoding="utf-8", newline="") as handle:
            rec = {k: int(v) for k, v in next(csv.DictReader(handle)).items()}
        lhs = rec["generated"]
        rhs = (rec["delivered_to_sink"] + rec["dropped_by_attack"] + rec["dropped_by_ttl"]
               + rec["in_flight_at_end"])
    except (OSError, StopIteration, KeyError, ValueError) as exc:
        return f"{path.name} unreadable: {exc!r}"
    if lhs != rhs:
        return f"{path.name} breaks conservation: generated {lhs} != {rhs}"
    return None


def check(ops: list[dict], root: Path, found: dict[str, dict],
          reference: dict[str, str]) -> list[str | None]:
    """One entry per operation: None if its outputs are correct, else the first problem."""
    problems = []
    for op in ops:
        problem = None
        for name in op["files"]:
            if name not in found:
                problem = f"{op['name']}: {name} missing"
            elif name not in reference:
                problem = f"{op['name']}: {name} has no reference digest"
            elif found[name]["sha256"] != reference[name]:
                problem = f"{op['name']}: {name} digest differs from the reference"
            if problem:
                break
        if problem is None and "accounting" in op:
            error = conservation_error(root / op["accounting"])
            if error:
                problem = f"{op['name']}: {error}"
        problems.append(problem)
    return problems


def load_recorded(workload: str) -> dict[int, dict[str, str]]:
    """{seed: {path: sha256}} from the workload's digest file, empty if none."""
    path = DIGEST_DIR / f"{workload}.sha256"
    recorded: dict[int, dict[str, str]] = {}
    if not path.is_file():
        return recorded
    for line in path.read_text(encoding="utf-8").splitlines():
        digest, _, name = line.partition("  ")
        seed, _, rel = name.partition("/")
        recorded.setdefault(int(seed), {})[rel] = digest
    return recorded


def save_recorded(workload: str, recorded: dict[int, dict[str, str]]) -> Path:
    DIGEST_DIR.mkdir(exist_ok=True)
    path = DIGEST_DIR / f"{workload}.sha256"
    lines = [f"{digest}  {seed}/{rel}"
             for seed in sorted(recorded) for rel, digest in sorted(recorded[seed].items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
