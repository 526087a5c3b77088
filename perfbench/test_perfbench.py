"""The benchmark's own tests, at toy sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
They prove that the gate counts a wrong answer as a failure and that one
run prints every metric by name with its unit.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

import run
from gate import compare_failures, compare_problems, pin_rows, row_digest, sweep_failures

TOY_SWEEPS = [
    {"name": "toy-m2", "kind": "sweep", "n": [1, 2], "m": 2, "denom": 3, "jobs": 1},
    {"name": "toy-m3-jobs2", "kind": "sweep", "n": [1, 1], "m": 3, "denom": 3, "jobs": 2},
]
TOY_COMPARE = {"name": "toy-compare", "kind": "compare", "sizes": [6, 9], "max_den": 5}


@pytest.fixture(scope="module", autouse=True)
def out_dir():
    run.OUT.mkdir(exist_ok=True)


def toy_rows(spec: dict) -> list[dict]:
    sample = run.Sample(run.cli_argv(*run.sweep_argv(spec, 0, spec["jobs"])))
    assert sample.exit_code == 0, sample.stderr
    return run.sweep_rows(sample)


def toy_records() -> list[dict]:
    sample = run.Sample(run.child_argv("compare", TOY_COMPARE, 0))
    assert sample.exit_code == 0, sample.stderr
    return sample.json()["records"]


def test_wrong_pinned_digest_is_a_failure():
    rows = toy_rows(TOY_SWEEPS[0])
    pins = [row_digest(r) for r in rows]
    assert sweep_failures(rows, 0, pins) == set()
    wrong = list(pins)
    wrong[3] = "0" * 16
    assert sweep_failures(rows, 0, wrong) == {3}
    assert sweep_failures(rows[:-2], 0, pins) == {len(pins) - 2, len(pins) - 1}
    assert len(sweep_failures(rows, 1, pins)) == len(pins)


def test_projection_ignores_added_columns():
    rows = toy_rows(TOY_SWEEPS[0])
    widened = [dict(r, certificate="angle(1/2)") for r in rows]
    assert [row_digest(r) for r in widened] == [row_digest(r) for r in rows]


def test_flipped_verdict_is_a_failure():
    records = toy_records()
    assert [compare_problems(r) for r in records] == [[], []]
    flips = [
        (0, "oracle", False),
        (0, "levin_steckin", False),
        (0, "szostok", False),
        (1, "oracle", True),
        (1, "levin_steckin", True),
        (1, "szostok", True),
        (1, "witness_certified", False),
    ]
    for direction, key, value in flips:
        bad = copy.deepcopy(records)
        bad[0]["decisions"][direction][key] = value
        assert compare_problems(bad[0]), (direction, key)
        assert compare_failures(bad, 2) == 1
    bad = copy.deepcopy(records)
    bad[1]["decisions"][0]["oracle"] = False
    bad[1]["decisions"][0]["ohlin_applies"] = True
    assert any("ohlin" in p for p in compare_problems(bad[1]))
    assert compare_failures([{"n": 6, "error": "boom"}], 2) == 2


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("spec", TOY_SWEEPS + [TOY_COMPARE], ids=lambda s: s["name"])
def test_toy_run_prints_every_metric_with_zero_failures(spec, traced):
    pins = pin_rows(spec) if spec["kind"] == "sweep" else None
    out = run.run(spec["name"], 5, 0.1, traced, spec=spec, pins=pins)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert out["values"]["fail_ratio"] == 0
    e2e, per_layer = run.declared_metrics()
    assert sorted(result["metrics"]) == sorted(per_layer if traced else e2e)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.UNITS[name]
        assert isinstance(metric["value"], (int, float))
    printed = "\n".join(out["lines"])
    for name in out["values"]:
        assert f"{name} " in printed and f" {run.UNITS[name]}" in printed
    if traced:
        untraced_only = {"ops_per_s", "cpu_ms_per_op", "setup_s", "peak_rss_mb", "host_speed"}
        expected = set(run.UNITS) - untraced_only
        assert set(out["values"]) == expected
    json.dumps(result)


def test_calibrated_sample_scales_by_host_speed():
    cpus = sorted(os.sched_getaffinity(0))[:1]
    plain = run.Sample([sys.executable, "-c", "sum(range(10**6))"])
    calibrated = run.Sample([sys.executable, "-c", "sum(range(10**6))"], cpus)
    assert plain.speed == 1.0
    assert calibrated.exit_code == 0 and calibrated.speed > 0
    assert calibrated.wall > 0 and calibrated.cpu > 0


def test_benchmark_json_units_match_the_harness():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert run.UNITS[metric["name"]] == metric["unit"]
    assert {w["name"] for w in declared["workloads"]} == set(run.WORKLOADS)
