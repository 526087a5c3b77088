"""The convexorder benchmark: end-to-end and per-layer metrics per workload.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-m2 --seed 1 --seconds 30 --trace 0

Every operation runs in a fresh child process, so import cost, cache fill
and peak memory are paid per run as a user pays them.  With ``--trace 0`` the
child is timed from outside and its CPU time and peak RSS come from
``os.wait4``, and a calibrator on each of its vCPUs (``calibrate.py``)
turns its times into seconds of a reference CPU; with ``--trace 1`` one
serial traced child rebuilds the workload from public calls and the
per-layer metrics come from its spans.
Every output is checked (see ``gate.py``); a wrong answer is a failed
operation, never a speed-up.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the metrics that
``BENCHMARK.json`` lists for the chosen trace mode.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import REFERENCE_CHUNK_S
from child import sweep_argv
from gate import compare_failures, compare_problems, load_pins, sweep_failures

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Why each workload exists is in perfbench/README.md.
WORKLOADS = {
    spec["name"]: spec
    for spec in (
        {"name": "sweep-m2", "kind": "sweep", "n": [1, 4], "m": 2, "denom": 7, "jobs": 1},
        {"name": "sweep-m3-jobs2", "kind": "sweep", "n": [1, 3], "m": 3, "denom": 5, "jobs": 2},
        {"name": "compare-large", "kind": "compare", "sizes": [60, 90, 120, 150], "max_den": 20},
    )
}

SETUPS_PER_SAMPLE = 2
MIN_SAMPLES = 3

UNITS = {
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
    "host_speed": "ratio",
    "rasa.form_s": "s",
    "rasa.form_calls": "count",
    "rasa.bernstein_cache_hit_ratio": "ratio",
    "rasa.bernstein_cache_hits": "count",
    "rasa.bernstein_cache_misses": "count",
    "distributions.law_s": "s",
    "distributions.calls": "count",
    "distributions.atoms_out": "count",
    "distributions.max_mass_bits": "bits",
    "cx_order.oracle_s": "s",
    "cx_order.oracle_calls": "count",
    "cx_order.oracle_grid_points": "count",
    "cx_order.witness_ratio": "ratio",
    "cx_order.levin_steckin_s": "s",
    "cx_order.szostok_s": "s",
    "cx_order.ohlin_s": "s",
    "sweep.tasks_s": "s",
    "sweep.points": "count",
    "sweep.parallel_efficiency": "ratio",
    "cli.report_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class HarnessError(Exception):
    """The benchmark itself cannot run; no result is printed."""


class Sample:
    """One finished child process: wall and CPU seconds, peak RSS, output.

    With ``cpus`` the child is pinned to those vCPUs and one calibrator
    (``calibrate.py``) is pinned to each of them for the child's lifetime.
    The times are then seconds of the reference CPU: the CPU time is scaled
    by the calibrators' speed, and so is the wall time, after halving it,
    because the child had half of each vCPU.  Without ``cpus`` the times are
    the host's own.
    """

    def __init__(self, argv: list[str], cpus: list[int] | None = None) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err, \
                Calibrators(cpus or []) as calibrators:
            started = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, cwd=ROOT, env=env,
                preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
            )
            # wait4 reports the child together with the workers it reaped.
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
            proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            self.stdout = out.read().decode()
            self.stderr = err.read().decode()
        cpu = usage.ru_utime + usage.ru_stime
        self.speed = calibrators.speed
        self.wall = (wall / 2 if cpus else wall) * self.speed
        self.cpu = cpu * self.speed
        self.rss_mb = usage.ru_maxrss / 1024

    def json(self):
        """The child's JSON output, or None when it crashed or printed garbage."""
        if self.exit_code != 0:
            return None
        try:
            return json.loads(self.stdout)
        except ValueError:
            return None


class Calibrators:
    """One ``calibrate.py`` process per vCPU, running while the block runs.

    ``speed`` is the reference chunk time over the mean measured chunk time:
    1 on the reference CPU, below 1 when the host is slower.  Without vCPUs
    there is no calibrator and ``speed`` stays 1.
    """

    def __init__(self, cpus: list[int]) -> None:
        self.cpus = cpus
        self.procs: list[subprocess.Popen] = []
        self.speed = 1.0

    def __enter__(self) -> "Calibrators":
        try:
            for cpu in self.cpus:
                proc = subprocess.Popen(
                    [sys.executable, str(BENCH / "calibrate.py"), str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                )
                self.procs.append(proc)
                if proc.stdout.readline().strip() != "ready":
                    raise HarnessError(f"calibrator on vCPU {cpu} did not start")
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        chunk_s = self._stop()
        if exc[0] is None and self.procs:
            if len(chunk_s) != len(self.procs):
                raise HarnessError("a calibrator failed")
            self.speed = REFERENCE_CHUNK_S / statistics.mean(chunk_s)

    def _stop(self) -> list[float]:
        """Close every calibrator's input, wait for it, and collect its chunk time."""
        chunk_s = []
        for proc in self.procs:
            out, _ = proc.communicate("")
            if proc.returncode == 0:
                chunk_s.append(json.loads(out)["chunk_s"])
        return chunk_s


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "convexorder", *args]


def child_argv(mode: str, spec: dict, seed: int) -> list[str]:
    return [sys.executable, str(BENCH / "child.py"), mode, json.dumps(spec), str(seed)]


def child_output(mode: str, spec: dict, seed: int) -> dict:
    """Output of a checking child; a crash there means no trustworthy trace."""
    sample = Sample(child_argv(mode, spec, seed))
    out = sample.json()
    if out is None:
        raise HarnessError(f"{mode} child failed: {sample.stderr[-2000:]}")
    return out


def sweep_rows(sample: Sample):
    report = sample.json()
    return None if report is None else report.get("rows")


def measure(spec: dict, seed: int, seconds: float, pins: list[str]) -> tuple[dict, int, int]:
    """Untraced run: fresh set-up and work children in turn until time is up."""
    if spec["kind"] == "sweep":
        setup_argv = cli_argv("--help")
        work_argv = cli_argv(*sweep_argv(spec, seed, spec["jobs"]))
        ops = len(pins)
    else:
        setup_argv = child_argv("setup", spec, seed)
        work_argv = child_argv("compare", spec, seed)
        ops = len(spec["sizes"])
    # The child may use `jobs` vCPUs; a calibrator shares each of them.
    cpus = sorted(os.sched_getaffinity(0))[: spec.get("jobs", 1)]
    samples: list[Sample] = []
    setups: list[Sample] = []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        # Set-up samples before each work sample, so that both see the same
        # stretches of machine speed.  A set-up child is short, so take more.
        for _ in range(SETUPS_PER_SAMPLE):
            setups.append(Sample(setup_argv, cpus[:1]))
            if setups[-1].exit_code != 0:
                raise HarnessError(f"set-up child failed: {setups[-1].stderr[-2000:]}")
        s = Sample(work_argv, cpus)
        samples.append(s)
        attempted += ops
        if spec["kind"] == "sweep":
            failed += len(sweep_failures(sweep_rows(s), s.exit_code, pins))
        else:
            out = s.json()
            failed += compare_failures(None if out is None else out["records"], ops)
        elapsed = time.perf_counter() - started
        if len(samples) >= MIN_SAMPLES and elapsed * (1 + 1 / len(samples)) > seconds:
            break

    metrics = {
        "ops_per_s": [ops / s.wall for s in samples],
        "cpu_ms_per_op": [1000 * s.cpu / ops for s in samples],
        "setup_s": [s.wall for s in setups],
        "peak_rss_mb": [s.rss_mb for s in samples],
        "host_speed": [s.speed for s in samples],
    }
    return metrics, attempted, failed


def trace(spec: dict, seed: int, pins: list[str]) -> tuple[dict, int, int]:
    """Traced run: one serial traced child plus the untraced runs it is checked against."""
    jobs = spec.get("jobs", 1)
    rs = cmp = {}
    if spec["kind"] == "sweep":
        cli = Sample(cli_argv(*sweep_argv(spec, seed, jobs)))
        efficiency_sample = cli
        rs = child_output("run-sweep", spec, seed)
    else:
        efficiency_sample = Sample(child_argv("compare", spec, seed))
        cmp = efficiency_sample.json()
        if cmp is None:
            raise HarnessError(f"compare child failed: {efficiency_sample.stderr[-2000:]}")
    tr = child_output("trace", spec, seed)

    if spec["kind"] == "sweep":
        attempted = len(pins)
        bad = sweep_failures(sweep_rows(cli), cli.exit_code, pins)
        # Recomposition check: traced rows == run_sweep rows == CLI JSON rows.
        bad |= sweep_failures(rs["cli_rows"], rs["cli_exit_code"], pins)
        reference = [rs["rows"], rs["cli_rows"]]
        bad |= {
            i for i in range(attempted)
            if i >= len(tr["rows"])
            or any(i >= len(other) or other[i] != tr["rows"][i] for other in reference)
        }
        failed = len(bad)
        untraced_s = rs["run_sweep_s"]
    else:
        attempted = len(spec["sizes"])
        records = cmp["records"]
        failed = sum(
            i >= len(records) or records[i] != rec or not same or bool(compare_problems(rec))
            for i, (rec, same) in enumerate(zip(tr["records"], tr["same_laws"]))
        )
        failed += abs(attempted - len(tr["records"]))
        untraced_s = cmp["ops_s"]

    st = tr["self_times"]

    def seconds(name: str) -> float:
        return st.get(name, (0.0, 0))[0]

    def calls(name: str) -> int:
        return st.get(name, (0.0, 0))[1]

    law = [v for k, v in st.items() if k.startswith("distributions.")]
    cache = tr["bernstein_cache"]
    lookups = cache["hits"] + cache["misses"]
    oracle_calls = calls("cx_order.cx_compare_oracle")
    counts = tr["counts"]
    metrics = {
        "rasa.form_s": seconds("rasa.rasa_form_general"),
        "rasa.form_calls": calls("rasa.rasa_form_general"),
        # Share of bernstein_vector calls served from its cache: 0 without one.
        "rasa.bernstein_cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "rasa.bernstein_cache_hits": cache["hits"],
        "rasa.bernstein_cache_misses": cache["misses"],
        "distributions.law_s": sum(s for s, _ in law),
        "distributions.calls": sum(c for _, c in law),
        "distributions.atoms_out": counts["distributions.atoms_out"],
        "distributions.max_mass_bits": counts["distributions.max_mass_bits"],
        "cx_order.oracle_s": seconds("cx_order.cx_compare_oracle"),
        "cx_order.oracle_calls": oracle_calls,
        "cx_order.oracle_grid_points": counts["cx_order.oracle_grid_points"],
        "cx_order.witness_ratio": (
            counts["cx_order.oracle_witnesses"] / oracle_calls if oracle_calls else 0.0
        ),
        "cx_order.levin_steckin_s": seconds("cx_order.levin_steckin_check"),
        "cx_order.szostok_s": seconds("cx_order.szostok_decision"),
        "cx_order.ohlin_s": seconds("cx_order.ohlin_check"),
        "sweep.tasks_s": seconds("sweep.grid_tasks"),
        "sweep.points": len(tr.get("rows", [])),
        "sweep.parallel_efficiency": efficiency_sample.cpu / (jobs * efficiency_sample.wall),
        "cli.report_s": rs.get("cli_report_s", 0.0),
        "cli.report_bytes": rs.get("cli_report_bytes", 0),
        "trace.overhead_ratio": tr["traced_s"] / untraced_s - 1,
    }
    return metrics, attempted, failed


def environment(workload: str, seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = proc.stdout.strip() or None
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def declared_metrics() -> tuple[list[str], list[str]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    return (
        [m["name"] for m in declared["end_to_end"]],
        [m["name"] for m in declared["per_layer"]],
    )


def report_lines(values: dict, samples: dict) -> list[str]:
    """One line per metric, by name with its unit; timings with sample counts."""
    lines = []
    for name, value in values.items():
        line = f"  {name:32s} {value:.6g} {UNITS[name]}"
        if name in samples:
            xs = samples[name]
            line += f"  (median of {len(xs)}"
            if len(xs) >= 2:
                q1, _, q3 = statistics.quantiles(xs, n=4)
                line += f", quartiles {q1:.6g}..{q3:.6g}"
            line += ")"
        lines.append(line)
    return lines


def run(workload: str, seed: int, seconds: float, traced: bool, spec: dict | None = None,
        pins: list[str] | None = None) -> dict:
    """Run one workload; returns the full result, the final JSON line included."""
    if not (SRC / "convexorder" / "__init__.py").is_file():
        raise HarnessError(f"no package source under {SRC}")
    spec = spec or WORKLOADS[workload]
    if pins is None and spec["kind"] == "sweep":
        pins = load_pins()[workload]
    OUT.mkdir(exist_ok=True)
    if traced:
        values, attempted, failed = trace(spec, seed, pins)
        samples = {}
    else:
        samples, attempted, failed = measure(spec, seed, seconds, pins)
        values = {name: statistics.median(xs) for name, xs in samples.items()}
    values["fail_ratio"] = failed / attempted
    e2e, per_layer = declared_metrics()
    wanted = per_layer if traced else e2e
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": UNITS[name]} for name in wanted},
    }
    return {
        "environment": environment(workload, seed),
        "values": values,
        "samples": samples,
        "lines": report_lines(values, samples),
        "result": line,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
    print(json.dumps({"environment": out["environment"]}))
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={out['result']['attempted']} failed={out['result']['failed']}")
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
