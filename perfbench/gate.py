"""Output gate: decides which benchmark operations produced a wrong answer.

A sweep operation is one grid point.  Its report row, projected onto the
seed columns, must hash to the digest pinned in ``pins.json`` for that row.
Columns added to reports later leave the projection, and so the gate,
unchanged.  A compare-large operation is one instance: both directions are
decided by four procedures and must agree with the known truth, which is
that the Poisson-binomial law precedes the pooled binomial law and not the
other way round.

Regenerate the pins (only when the grids in ``run.py`` change) with

    PYTHONPATH=src python3 perfbench/gate.py

which runs every sweep grid serially with two seeds and refuses to pin a
grid whose rows depend on the seed or fail the inequality anywhere.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

PINS = Path(__file__).resolve().parent / "pins.json"

SEED_COLUMNS = ("n", "m", "xs", "verdict_a", "verdict_b", "verdict_c", "min_form", "ok")


def row_digest(row: dict) -> str:
    projected = json.dumps([row.get(c) for c in SEED_COLUMNS], separators=(",", ":"))
    return hashlib.sha256(projected.encode()).hexdigest()[:16]


def sweep_failures(rows: list[dict] | None, exit_code: int, pins: list[str]) -> set[int]:
    """Grid points whose report row is wrong or missing; all of them on a bad exit."""
    if exit_code != 0 or rows is None:
        return set(range(len(pins)))
    failed = set(range(len(rows), len(pins)))
    failed |= {i for i, (row, pin) in enumerate(zip(rows, pins)) if row_digest(row) != pin}
    return failed


def compare_problems(record: dict) -> list[str]:
    """Everything wrong with one compare-large instance's decisions."""
    if "error" in record:
        return [f"exception: {record['error']}"]
    forward, reverse = record["decisions"]
    problems = []
    for proc in ("oracle", "levin_steckin", "szostok"):
        if forward[proc] is not True:
            problems.append(f"poisson-binomial <=cx binomial rejected by {proc}")
        if reverse[proc] is not False:
            problems.append(f"binomial <=cx poisson-binomial accepted by {proc}")
    if not reverse["witness_certified"]:
        problems.append(f"reverse witness {reverse['witness']} does not separate stop-loss")
    for label, d in (("forward", forward), ("reverse", reverse)):
        if d["ohlin_applies"] and not d["oracle"]:
            problems.append(f"{label}: ohlin applies but the oracle rejects")
    return problems


def compare_failures(records: list[dict] | None, expected: int) -> int:
    """Instances that are wrong or missing; all of them when the child crashed."""
    if records is None:
        return expected
    return abs(len(records) - expected) + sum(bool(compare_problems(r)) for r in records)


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle)


def pin_rows(spec: dict, seeds=(0, 1)) -> list[str]:
    """Digests of the serial (``--jobs 1``) report rows of a sweep grid."""
    from child import sweep_argv

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    digests = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, "-m", "convexorder", *sweep_argv(spec, seed, jobs=1)],
            capture_output=True, text=True, env=env, cwd=root, check=True,
        )
        rows = json.loads(proc.stdout)["rows"]
        if not all(r["ok"] and r["verdict_a"] and r["verdict_b"] and r["verdict_c"] for r in rows):
            raise SystemExit(f"{spec['name']}: a row fails; refusing to pin it")
        digests.append([row_digest(r) for r in rows])
    if any(d != digests[0] for d in digests):
        raise SystemExit(f"{spec['name']}: projected rows depend on the seed")
    return digests[0]


if __name__ == "__main__":
    from run import WORKLOADS

    pins = {
        name: pin_rows(spec)
        for name, spec in WORKLOADS.items()
        if spec["kind"] == "sweep"
    }
    with open(PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1)
        handle.write("\n")
