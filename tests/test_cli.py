import csv
import errno
import io
import json
import marshal
import math
import os
import signal
import subprocess
import sys
import threading
import time
from datetime import timedelta
from fractions import Fraction as F
from itertools import islice
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexorder import (
    binomial,
    build_counterexample,
    dirac,
    distribution_to_json_obj,
    mixture,
)
from convexorder import cli, sweep
from convexorder.cli import _json_rows, main
from convexorder._base import KNOWN_FUNCTION_GROUPS
from convexorder.exact import ParameterError
from convexorder.lattice import MAX_LATTICE_LENGTH
from convexorder.lawtext import MAX_ATOMS, MAX_LAW_BITS
from convexorder.rasa import MAX_POINT_BITS
from convexorder.sweep import RunConfig, run_sweep
from helpers import distribution_to_text
from test_distributions import (
    first_count_over_law_bits,
    prime_supports,
    primes,
    rational_distributions,
)
from test_report_bytes import spawn_cli

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

runner = CliRunner()


@pytest.fixture
def forked(monkeypatch):
    """The pids that ``os.fork`` returns to this process during the test."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def write_pair(tmp_path):
    lhs, rhs = build_counterexample()
    a = tmp_path / "lhs.txt"
    b = tmp_path / "rhs.txt"
    a.write_text(distribution_to_text(lhs))
    b.write_text(distribution_to_text(rhs))
    return str(a), str(b)


class TestVerifyRasa:
    def test_small_grid_passes(self):
        result = runner.invoke(
            main, ["verify-rasa", "--n", "1..2", "--m", "2", "--denom", "3"]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["ok"] is True
        assert payload["rows"][0]["xs"] == "0;0"
        assert all(row["verdict_a"] for row in payload["rows"])

    def test_m3_grid_passes(self):
        result = runner.invoke(
            main, ["verify-rasa", "--n", "1", "--m", "3", "--denom", "2"]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["ok"] is True

    def test_invalid_n_exits_2(self):
        result = runner.invoke(
            main, ["verify-rasa", "--n", "0", "--m", "2", "--denom", "5"]
        )
        assert result.exit_code == 2

    def test_invalid_denominator_exits_2(self):
        result = runner.invoke(
            main, ["verify-rasa", "--n", "1", "--m", "2", "--denom", "1"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "grid",
        [
            ["--n", "1", "--m", "4", "--denom", "30"],
            ["--n", "1", "--m", "2", "--denom", "1000000000"],
            ["--n", "1..10000000000", "--m", "2", "--denom", "2"],
            ["--n", "1", "--m", "2..10000000000", "--denom", "2"],
        ],
    )
    def test_oversized_grid_exits_2_before_building(self, grid):
        started = time.perf_counter()
        result = runner.invoke(main, ["verify-rasa", *grid])
        assert time.perf_counter() - started < 1
        assert result.exit_code == 2
        assert "the grid has at least " in result.output
        assert f"points, above the limit of {sweep.MAX_GRID_POINTS}" in result.output

    def test_denominator_past_digit_limit_exits_2_with_one_line(self):
        # A 4300-digit bound parses, but the grid's lower bound, one more
        # than it, has 4301 digits: too many to print as an int.
        argv = ["verify-rasa", "--n", "1", "--m", "2", "--denom", "9" * 4300]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2
        assert result.output == (
            "the grid has at least about 1.00000e4300 points, "
            f"above the limit of {sweep.MAX_GRID_POINTS}\n"
        )

    @pytest.mark.parametrize(
        "n_values, m_values, denominator",
        [
            ((1, 2, 3, 4), (2,), 7),
            ((1, 2, 3), (3,), 5),
            ((1, 2), (2, 3, 4), 6),
            ((10, 11, 12), (2,), 16),
        ],
    )
    def test_grid_size_counts_the_built_grid(self, n_values, m_values, denominator):
        config = RunConfig(n_values=n_values, m_values=m_values, denominator=denominator)
        assert sweep.grid_size(config) == len(sweep.grid_tasks(config))

    def test_bad_range_syntax_exits_2(self):
        result = runner.invoke(
            main, ["verify-rasa", "--n", "1--3", "--m", "2", "--denom", "5"]
        )
        assert result.exit_code == 2

    def test_range_bound_over_18_digits_exits_2(self):
        result = runner.invoke(
            main, ["verify-rasa", "--n", "1..1" + "0" * 18, "--m", "2", "--denom", "2"]
        )
        assert result.exit_code == 2
        assert "--n bounds have at most 18 digits" in result.output

    @pytest.mark.parametrize(
        "n_range, m_range, length",
        [
            ("999999999999999999", "2", 1999999999999999998),
            ("1..334", "3", 1002),
            ("1..51", "2..20", 1020),
        ],
    )
    def test_lattice_length_over_limit_exits_2_at_once(self, n_range, m_range, length):
        started = time.perf_counter()
        result = runner.invoke(
            main, ["verify-rasa", "--n", n_range, "--m", m_range, "--denom", "2"]
        )
        assert time.perf_counter() - started < 1
        assert result.exit_code == 2
        message = f"m * n reaches {length}, above the limit of {MAX_LATTICE_LENGTH}\n"
        assert message in result.output

    def test_lattice_length_at_limit_accepted(self):
        config = RunConfig(n_values=range(1, 501), m_values=range(2, 3), denominator=2)
        assert config.m_values[-1] * config.n_values[-1] == MAX_LATTICE_LENGTH

    @pytest.mark.parametrize(
        "n_values, m_values, name",
        [((700, 1), (2,), "n"), ((1,), (2, 1), "m"), ((1, 1), (2,), "n")],
    )
    def test_values_that_do_not_strictly_ascend_are_rejected(self, n_values, m_values, name):
        # (700, 1) would pass the m * n check on its last n and build m * n = 1400.
        with pytest.raises(ParameterError) as raised:
            RunConfig(n_values=n_values, m_values=m_values, denominator=2)
        assert str(raised.value) == f"{name} values must strictly ascend"

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        result = runner.invoke(
            main,
            [
                "verify-rasa", "--n", "1", "--m", "2", "--denom", "2",
                "--format", "csv", "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,m,xs,verdict_a,verdict_b,verdict_c,min_form,ok"
        assert lines[1] == "1,2,0;0,true,true,true,0,true"

    def test_failing_row_exits_1_with_the_bytes_of_json_dumps(self, monkeypatch):
        evaluate = sweep.evaluate_grid_point

        def failing(*point):
            row = evaluate(*point)
            if row[:3] == (2, 2, "1/3;1/2"):
                row = row[:5] + (False, "-1/7", False)
            return row

        monkeypatch.setattr(sweep, "evaluate_grid_point", failing)
        result = runner.invoke(main, ["verify-rasa", "--n", "1..2", "--m", "2", "--denom", "3"])
        assert result.exit_code == 1
        assert result.stderr == "verification failed at n=2 m=2 xs=1/3;1/2\n"
        rows, ok = run_sweep(RunConfig(n_values=(1, 2), m_values=(2,), denominator=3))
        assert not ok and sum(not row["ok"] for row in rows) == 1
        payload = {
            "command": "verify-rasa",
            "n": "1..2",
            "m": "2",
            "denominator": 3,
            "seed": 0,
            "functions": list(KNOWN_FUNCTION_GROUPS),
            "ok": False,
            "rows": rows,
        }
        assert result.stdout == json.dumps(payload, indent=2) + "\n"

    def test_jobs_do_not_change_output(self):
        args = ["verify-rasa", "--n", "1", "--m", "2", "--denom", "3", "--seed", "1"]
        serial = runner.invoke(main, args)
        parallel = runner.invoke(main, args + ["--jobs", "3"])
        assert serial.exit_code == parallel.exit_code == 0
        assert serial.output == parallel.output

    @pytest.mark.parametrize(
        "failure, cause",
        [
            ("fork", "fork failed: no processes"),
            ("raise", "the child raised RuntimeError: a point that only fails in the child"),
            ("kill", f"the child was killed by signal {int(signal.SIGKILL)}"),
            ("unreadable", "the child's rows are unreadable"),
            ("short", "the child's rows are short"),
        ],
    )
    def test_failed_stride_falls_back_to_serial(self, monkeypatch, capsys, failure, cause):
        config = RunConfig(n_values=(1, 2), m_values=(2,), denominator=3, seed=1, jobs=2)
        serial_rows, serial_ok = run_sweep(
            RunConfig(n_values=(1, 2), m_values=(2,), denominator=3, seed=1, jobs=1)
        )
        args = ["verify-rasa", "--n", "1..2", "--m", "2", "--denom", "3", "--seed", "1"]
        serial = runner.invoke(main, args)
        parent = os.getpid()
        evaluate = sweep.evaluate_grid_point

        def evaluate_or_fail(*point):
            """The child's first point raises or kills it; the parent's pass."""
            if os.getpid() != parent:
                if failure == "raise":
                    raise RuntimeError("a point that only fails in the child")
                os.kill(os.getpid(), signal.SIGKILL)
            return evaluate(*point)

        def no_fork():
            raise OSError("no processes")

        if failure == "fork":
            monkeypatch.setattr(os, "fork", no_fork)
        elif failure in ("raise", "kill"):
            monkeypatch.setattr(sweep, "evaluate_grid_point", evaluate_or_fail)
        else:
            damaged = {
                "unreadable": lambda rows: marshal.dumps(rows)[:-1],
                "short": lambda rows: marshal.dumps(rows[:-1]),
            }
            monkeypatch.setattr(
                sweep, "marshal", SimpleNamespace(dumps=damaged[failure], loads=marshal.loads)
            )
        monkeypatch.setattr(sweep, "_available_cpus", lambda: 2)
        assert run_sweep(config) == (serial_rows, serial_ok)
        line = f"convexorder: stride 1 of 2 evaluated in the parent: {cause}\n"
        assert capsys.readouterr().err == line
        result = runner.invoke(main, args + ["--jobs", "2"])
        assert result.exit_code == serial.exit_code == 0, result.output
        assert result.stdout == serial.stdout
        assert result.stderr == line

    @pytest.mark.parametrize(
        "jobs, cpus, clamped",
        [(8, 3, 3), (8, 64, 6), (2, 64, 2), (4, 1, 1), (1, 64, 1)],
    )
    def test_jobs_clamped_to_cpus_and_tasks(self, monkeypatch, forked, jobs, cpus, clamped):
        config = RunConfig(
            n_values=(1,), m_values=(2,), denominator=2, seed=1, jobs=jobs
        )
        assert len(sweep.grid_tasks(config)) == 6
        monkeypatch.setattr(sweep, "_available_cpus", lambda: cpus)
        serial = RunConfig(n_values=(1,), m_values=(2,), denominator=2, seed=1, jobs=1)
        assert run_sweep(config) == run_sweep(serial)
        assert len(forked) == clamped - 1

    def test_parent_evaluates_only_stride_zero(self, monkeypatch, capsys):
        config = RunConfig(n_values=(1, 2), m_values=(2, 3), denominator=3, seed=1, jobs=2)
        serial = run_sweep(
            RunConfig(n_values=(1, 2), m_values=(2, 3), denominator=3, seed=1, jobs=1)
        )
        evaluated = []
        evaluate = sweep.evaluate_grid_point

        def recording_evaluate(*point):
            # A child appends to its own copy of the list.
            row = evaluate(*point)
            evaluated.append(row[:3])
            return row

        monkeypatch.setattr(sweep, "evaluate_grid_point", recording_evaluate)
        monkeypatch.setattr(sweep, "_available_cpus", lambda: 2)
        assert run_sweep(config) == serial
        assert evaluated == [
            (n, m, ";".join(map(str, xs))) for n, m, xs in sweep.grid_tasks(config)[0::2]
        ]
        assert capsys.readouterr().err == ""

    def test_parent_error_closes_every_pipe_and_reaps_every_child(self, monkeypatch, forked):
        config = RunConfig(n_values=(1, 2), m_values=(2,), denominator=3, seed=1, jobs=3)
        parent = os.getpid()
        pipes = []
        pipe, evaluate = os.pipe, sweep.evaluate_grid_point

        def recording_pipe():
            pipes.extend(pipe())
            return pipes[-2:]

        def evaluate_or_fail(*point):
            if os.getpid() == parent:
                raise RuntimeError("the parent's stride fails")
            return evaluate(*point)

        monkeypatch.setattr(os, "pipe", recording_pipe)
        monkeypatch.setattr(sweep, "evaluate_grid_point", evaluate_or_fail)
        monkeypatch.setattr(sweep, "_available_cpus", lambda: 3)
        with pytest.raises(RuntimeError, match="the parent's stride fails"):
            run_sweep(config)
        assert len(forked) == 2 and len(pipes) == 4
        for pid in forked:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        for fd in pipes:
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_threaded_process_does_not_fork(self, monkeypatch, forked):
        config = RunConfig(n_values=(1,), m_values=(2,), denominator=3, seed=1, jobs=2)
        monkeypatch.setattr(sweep, "_available_cpus", lambda: 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            serial = RunConfig(n_values=(1,), m_values=(2,), denominator=3, seed=1, jobs=1)
            assert run_sweep(config) == run_sweep(serial)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert forked == []

    def test_out_in_missing_directory_exits_2(self, tmp_path):
        out = tmp_path / "missing" / "r.json"
        result = runner.invoke(
            main, ["verify-rasa", "--n", "1", "--m", "2", "--denom", "2", "--out", str(out)]
        )
        assert result.exit_code == 2
        assert result.output == (
            f"cannot write the report to {out}: No such file or directory\n"
        )

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONVEXORDER_OUT_DIR", str(tmp_path))
        result = runner.invoke(
            main,
            ["verify-rasa", "--n", "1", "--m", "2", "--denom", "2", "--out", "r.json"],
        )
        assert result.exit_code == 0
        assert (tmp_path / "r.json").exists()


# The grid --n 1 --m 2 --denom 2 has six points.
SIX_POINTS = ["verify-rasa", "--n", "1", "--m", "2", "--denom", "2"]


def _six_point_report(fmt: str, rows: list[dict], ok: bool) -> bytes:
    """The six-point report as ``json.dumps`` or the ``csv`` module writes it."""
    if fmt == "json":
        payload = {
            "command": "verify-rasa",
            "n": "1",
            "m": "2",
            "denominator": 2,
            "seed": 0,
            "functions": list(KNOWN_FUNCTION_GROUPS),
            "ok": ok,
            "rows": rows,
        }
        return (json.dumps(payload, indent=2) + "\n").encode()
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, sweep.ROW_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: str(v).lower() if type(v) is bool else v for k, v in row.items()})
    return buffer.getvalue().encode()


class TestReportChunks:
    """Reports written ``ROW_CHUNK`` rows at a time, at the chunk boundaries:
    the six rows fill one chunk but one, exactly one chunk, or one chunk and
    one row more.  A failing last row, in the last chunk, exits 1 after the
    whole report is written."""

    @pytest.mark.parametrize("chunk, failing", [(7, False), (6, False), (5, False), (5, True)])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_chunks_write_the_bytes_of_json_and_csv(
        self, monkeypatch, tmp_path, fmt, chunk, failing
    ):
        monkeypatch.setattr(cli, "ROW_CHUNK", chunk)
        monkeypatch.setattr(sweep, "_available_cpus", lambda: 2)
        if failing:
            evaluate = sweep.evaluate_grid_point

            def failing_last(*point):
                row = evaluate(*point)
                return row[:5] + (False, "-1/3", False) if row[2] == "1;1" else row

            monkeypatch.setattr(sweep, "evaluate_grid_point", failing_last)
        rows, ok = run_sweep(RunConfig(n_values=(1,), m_values=(2,), denominator=2))
        assert [row["ok"] for row in rows] == [True] * 5 + [not failing]
        expected = _six_point_report(fmt, rows, ok)
        code, err = (1, "verification failed at n=1 m=2 xs=1;1\n") if failing else (0, "")
        for jobs in ("1", "2"):
            args = [*SIX_POINTS, "--format", fmt, "--jobs", jobs]
            result = runner.invoke(main, args)
            assert (result.exit_code, result.stderr) == (code, err)
            assert result.stdout_bytes == expected
            out = tmp_path / f"report-{jobs}.{fmt}"
            result = runner.invoke(main, [*args, "--out", str(out)])
            assert (result.exit_code, result.output) == (code, err)
            assert out.read_bytes() == expected


class _FullStdout:
    """A stdout on a full disk: its ``fails_at``-th ``write`` raises, or with
    ``fails_at`` 0 its ``flush``."""

    def __init__(self, fails_at: int) -> None:
        self.writes = 0
        self.fails_at = fails_at

    def _full(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, text: str) -> int:
        self.writes += 1
        if self.writes == self.fails_at:
            self._full()
        return len(text)

    def flush(self) -> None:
        if not self.fails_at:
            self._full()


PSI_PATTERN = ["psi-pattern", "--n", "2", "1/3", "1/2"]
FULL_STDOUT = f"cannot write the report to stdout: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize(
    "argv, fails_at",
    [
        (SIX_POINTS, 1),
        (SIX_POINTS, 3),
        (SIX_POINTS, 0),
        ([*SIX_POINTS, "--format", "csv"], 2),
        (PSI_PATTERN, 1),
        (PSI_PATTERN, 0),
        (["--help"], 1),
        (["verify-rasa", "--help"], 1),
        (["verify-rasa", "--help"], 0),
    ],
)
def test_failed_stdout_write_exits_2_with_one_line(capsys, monkeypatch, argv, fails_at):
    monkeypatch.setattr(cli, "ROW_CHUNK", 2)
    stdout = _FullStdout(fails_at)
    with mock.patch.object(sys, "stdout", stdout), pytest.raises(SystemExit) as exit:
        main(argv)
    assert exit.value.code == 2
    assert stdout.writes >= fails_at
    assert capsys.readouterr().err == FULL_STDOUT


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        # The report fits stdout's buffer, so the flush fails ...
        SIX_POINTS,
        # ... and here a chunk's write does.
        ["verify-rasa", "--n", "1..2", "--m", "2", "--denom", "7"],
        PSI_PATTERN,
        # The command list and a command's help go out the same way.
        ["--help"],
        ["verify-rasa", "--help"],
    ],
)
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_full_device_as_stdout_exits_2_with_one_line(tmp_path, argv, unbuffered):
    exit_code, _, stderr = spawn_cli(
        tmp_path, argv, 120, stdout="/dev/full", env={"PYTHONUNBUFFERED": unbuffered}
    )
    assert exit_code == 2
    # One line: no traceback, and no "Exception ignored" from the flush at exit.
    assert stderr == FULL_STDOUT


# Runs one command in-process under ``tracemalloc`` in a fresh interpreter,
# its modules imported first, and prints its exit code, report size and peak.
_PEAK_PROBE = """
import csv, io, json, sys, tracemalloc
import convexorder.sweep
from convexorder.cli import main

class Sink:
    size = 0
    def write(self, text):
        self.size += len(text)
    def flush(self):
        pass

sys.stdout = sink = Sink()
code = 0
tracemalloc.start()
try:
    main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
peak = tracemalloc.get_traced_memory()[1]
sys.stdout = sys.__stdout__
print(code, sink.size, peak)
"""


@pytest.mark.parametrize(
    "fmt, report_bytes, bound_mb",
    [("json", 1_259_305, 4.0), ("csv", 258_649, 3.3)],
)
def test_sweep_peak_memory_stays_near_the_rows(fmt, report_bytes, bound_mb):
    """A 6900-point sweep traces a peak well under the report held as one
    string beside row dicts: that peaked at 7.0 MB (JSON) and 4.3 MB (CSV)
    on CPython 3.11, tuple rows written in chunks at 2.0 and 2.1 MB."""
    argv = ["verify-rasa", "--n", "1..3", "--m", "3", "--denom", "8", "--format", fmt]
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_PROBE, *argv],
        env=dict(os.environ, PYTHONPATH=SRC_DIR),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    code, size, peak = map(int, proc.stdout.split())
    assert (code, size) == (0, report_bytes)
    assert peak < bound_mb * 1e6, peak


class TestByteDeterminism:
    def test_two_subprocess_runs_byte_identical(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        outputs = []
        for name in ("one.json", "two.json"):
            out = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable, "-m", "convexorder", "verify-rasa",
                    "--n", "1..2", "--m", "2", "--denom", "5",
                    "--seed", "1", "--jobs", "4", "--out", str(out),
                ],
                env=env,
                capture_output=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestCxCompare:
    def test_counterexample_oracle_exits_1_with_witness(self, tmp_path):
        a, b = write_pair(tmp_path)
        result = runner.invoke(main, ["cx-compare", a, b, "--method", "oracle"])
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["holds"] is False
        assert payload["witness"] == "4"

    def test_identical_files_ohlin_exit_0(self, tmp_path):
        d = binomial(2, F(1, 2))
        path = tmp_path / "d.txt"
        path.write_text(distribution_to_text(d))
        result = runner.invoke(
            main, ["cx-compare", str(path), str(path), "--method", "ohlin"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["identical"] is True

    def test_levin_steckin_confirms_spread(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text(distribution_to_text(binomial(2, F(1, 2))))
        b.write_text(
            distribution_to_text(
                mixture([F(1, 2), F(1, 2)], [dirac(0), dirac(2)])
            )
        )
        result = runner.invoke(
            main, ["cx-compare", str(a), str(b), "--method", "levin-steckin"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["holds"] is True

    def test_unequal_means_ohlin_exit_3(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0 1\n")
        b.write_text("1 1\n")
        result = runner.invoke(main, ["cx-compare", str(a), str(b), "--method", "ohlin"])
        assert result.exit_code == 3

    def test_unequal_means_szostok_exit_3(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0 1\n")
        b.write_text("0 1/2\n1 1/2\n")
        result = runner.invoke(
            main, ["cx-compare", str(a), str(b), "--method", "szostok"]
        )
        assert result.exit_code == 3

    def test_parse_failure_exit_2(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0 1/2\n1 1/3\n")  # masses do not sum to 1
        b.write_text("0 1\n")
        result = runner.invoke(main, ["cx-compare", str(a), str(b)])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1\n0 -1/2\n1 1/2\n", "line 2: negative mass"),
            (
                '{"atoms": [["0", "1"], ["0", "-1/2"], ["1", "1/2"]]}',
                "negative mass in atom entry",
            ),
        ],
    )
    def test_negative_mass_exit_2(self, tmp_path, text, message):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text(text)
        b.write_text("0 1/2\n1 1/2\n")
        for args in ([str(a), str(b)], [str(b), str(a)]):
            result = runner.invoke(main, ["cx-compare", *args])
            assert result.exit_code == 2
            assert message in result.output

    @pytest.mark.parametrize("spelling", ["text", "json"])
    def test_too_many_atoms_exit_2(self, tmp_path, spelling):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        count = MAX_ATOMS + 1
        if spelling == "text":
            a.write_text("".join(f"{k} 1/{count}\n" for k in range(count)))
        else:
            a.write_text(json.dumps({"atoms": [[k, f"1/{count}"] for k in range(count)]}))
        b.write_text("0 1\n")
        result = runner.invoke(main, ["cx-compare", str(a), str(b)])
        assert result.exit_code == 2
        assert f"limit of {MAX_ATOMS}" in result.output

    @pytest.mark.parametrize("spelling", ["text", "json"])
    def test_denominators_over_limit_exit_2_at_once(self, tmp_path, spelling):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text(prime_supports(first_count_over_law_bits(), spelling))
        b.write_text("0 1\n")
        started = time.perf_counter()
        result = runner.invoke(main, ["cx-compare", str(a), str(b)])
        assert time.perf_counter() - started < 1
        assert result.exit_code == 2
        assert f"limit of {MAX_LAW_BITS} for atoms times denominator bits" in result.output

    @pytest.mark.parametrize(
        "method, key", [("levin-steckin", "holds"), ("szostok", "decision")]
    )
    def test_one_shared_atom_defaults_to_unit_interval(self, tmp_path, method, key):
        path = tmp_path / "d0.txt"
        path.write_text("0 1\n")
        result = runner.invoke(main, ["cx-compare", str(path), str(path), "--method", method])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)[key] is True
        result = runner.invoke(
            main,
            ["cx-compare", str(path), str(path), "--method", method, "--a", "0", "--b", "0"],
        )
        assert result.exit_code == 3
        assert "need a < b" in result.output

    def test_json_input_accepted(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.txt"
        a.write_text('{"atoms": [["0", "1/2"], ["2", "1/2"]]}')
        b.write_text("1 1\n")
        result = runner.invoke(main, ["cx-compare", str(b), str(a)])
        assert result.exit_code == 0  # dirac(1) <=_cx spread
        assert json.loads(result.output)["holds"] is True

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="no limit on int-to-string conversion in this Python",
    )
    def test_report_value_over_digit_limit_exits_2(self, tmp_path):
        # Both files pass the parse limits, but the mean gap's denominator,
        # the product of the first 1000 primes, has over 4300 digits.
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text(prime_supports(1000))
        b.write_text(
            "".join(
                f"{i + 1}/{p} 1/{500 * p}\n{i + 2}/{p} {p - 1}/{500 * p}\n"
                for i, p in enumerate(islice(primes(), 500))
            )
        )
        result = runner.invoke(main, ["cx-compare", str(a), str(b), "--method", "oracle"])
        assert result.exit_code == 2
        assert result.output == (
            f"cannot write the report: a value has more than "
            f"{sys.get_int_max_str_digits()} digits, Python's limit for converting "
            "an int to a string\n"
        )

    def test_mass_sum_over_digit_limit_exits_2(self, tmp_path):
        # Masses 1/p_k over the first 1800 primes: their sum, quoted by the
        # parse error, has a denominator of over 6000 digits.
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("".join(f"{k} 1/{p}\n" for k, p in zip(range(1800), primes())))
        b.write_text("0 1\n")
        result = runner.invoke(main, ["cx-compare", str(a), str(b)])
        assert result.exit_code == 2
        assert result.output == (
            "cannot parse distribution: masses must sum to 1 exactly, "
            "got about 2.52867e0 (a 22056-bit denominator)\n"
        )

    def test_szostok_total_over_digit_limit_exits_3(self, tmp_path):
        # The digit-limit pair above: unequal means whose gap, the total
        # integral Szostok's message quotes, has over 4300 digits.
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text(prime_supports(1000))
        b.write_text(
            "".join(
                f"{i + 1}/{p} 1/{500 * p}\n{i + 2}/{p} {p - 1}/{500 * p}\n"
                for i, p in enumerate(islice(primes(), 500))
            )
        )
        result = runner.invoke(main, ["cx-compare", str(a), str(b), "--method", "szostok"])
        assert result.exit_code == 3
        assert result.output == (
            "standing hypotheses unmet: total integral of the CDF difference is "
            "about -2.76248e-2 (a 16329-bit denominator), not 0\n"
        )

    @pytest.mark.parametrize(
        "kind, reason",
        [("missing", "No such file or directory"), ("directory", "Is a directory")],
    )
    def test_unreadable_file_exits_2_with_one_line(self, tmp_path, kind, reason):
        _, b = write_pair(tmp_path)
        path = tmp_path / "missing.txt" if kind == "missing" else tmp_path
        for args in ([str(path), b], [b, str(path)]):
            result = runner.invoke(main, ["cx-compare", *args])
            assert result.exit_code == 2
            assert result.output == f"cannot read {path}: {reason}\n"

    def test_negative_rational_endpoint_is_a_value(self, tmp_path):
        a, b = write_pair(tmp_path)
        args = ["cx-compare", a, b, "--method", "szostok"]
        spaced = runner.invoke(main, [*args, "--a", "-1/2", "--b", "9"])
        joined = runner.invoke(main, [*args, "--a=-1/2", "--b=9"])
        assert spaced.exit_code == joined.exit_code == 1, spaced.output
        assert spaced.stdout == joined.stdout

    def test_file_over_the_byte_limit_exits_2_with_one_line(self, tmp_path, monkeypatch):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0 1/2\n2 1/2\n")
        b.write_text("1 1\n")
        size = a.stat().st_size
        monkeypatch.setattr(cli, "MAX_FILE_BYTES", size)
        assert runner.invoke(main, ["cx-compare", str(b), str(a)]).exit_code == 0
        monkeypatch.setattr(cli, "MAX_FILE_BYTES", size - 1)
        for args in ([str(a), str(b)], [str(b), str(a)]):
            result = runner.invoke(main, ["cx-compare", *args])
            assert result.exit_code == 2
            assert result.output == f"cannot read {a}: more than the limit of {size - 1} bytes\n"

    @pytest.mark.parametrize("spelling", ["text", "json"])
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, spelling):
        # Windows editors may start a UTF-8 file with U+FEFF.
        lhs, rhs = build_counterexample()
        text = (
            distribution_to_text(lhs)
            if spelling == "text"
            else json.dumps(distribution_to_json_obj(lhs))
        )
        plain = tmp_path / "plain"
        marked = tmp_path / "marked"
        other = tmp_path / "other.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        other.write_text(distribution_to_text(rhs))
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()

        def report(method, *paths):
            result = runner.invoke(main, ["cx-compare", *map(str, paths), "--method", method])
            return result.exit_code, result.stdout

        for method in ("oracle", "ohlin"):
            assert report(method, plain, other)[0] in (0, 1)
            assert report(method, marked, other) == report(method, plain, other)
            assert report(method, other, marked) == report(method, other, plain)

    def test_file_holding_only_a_byte_order_mark_exits_2(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_bytes(b"\xef\xbb\xbf")
        b.write_text("0 1\n")
        result = runner.invoke(main, ["cx-compare", str(a), str(b)])
        assert result.exit_code == 2
        assert result.output == "cannot parse distribution: no atoms found in distribution text\n"

    def test_file_not_utf8_exits_2(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_bytes(b"\xff\xfe0 1\n")
        b.write_text("0 1\n")
        result = runner.invoke(main, ["cx-compare", str(a), str(b)])
        assert result.exit_code == 2
        assert result.output.startswith("cannot parse distribution: 'utf-8' codec")


@pytest.mark.skipif(sys.platform != "linux", reason="needs /dev/zero and RLIMIT_AS")
@pytest.mark.parametrize("source", ["/dev/zero", "lines"])
def test_huge_file_exits_2_in_bounded_memory(tmp_path, source):
    """An endless device, and a 20 MB file of 5 000 000 atom lines, each end
    with exit 2 and one stderr line under a 300 MB address-space limit."""
    one = tmp_path / "one.txt"
    one.write_text("0 1\n")
    if source == "lines":
        source = tmp_path / "lines.txt"
        source.write_text("0 1\n" * 5_000_000)
    limit = 300 << 20
    # The child limits its own address space, then runs the command.
    prelude = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
    exit_code, _, stderr = spawn_cli(tmp_path, ["cx-compare", str(source), str(one)], 20, prelude)
    assert exit_code is not None, "killed after 20 s"
    assert exit_code == 2, stderr[-500:]
    assert len(stderr.splitlines()) == 1, stderr[-500:]


# Hostile file contents: valid laws in both formats, atom lines and JSON
# documents built from good and bad values, and arbitrary text and bytes.
_values = st.one_of(
    st.integers(-3, 12).map(str),
    st.builds("{}/{}".format, st.integers(-3, 12), st.integers(0, 12)),
    st.sampled_from(["1e-3", "0.5", "-0", "1_0", "abc", "", "nan", "inf", "1e999999"]),
)
_lines = st.one_of(
    st.builds("{} {}".format, _values, _values),
    st.sampled_from(["", "# comment", "1", "1 2 3"]),
    st.text(max_size=12),
)
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-5, 5), st.floats(), _values),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["atoms", "x"]), children, max_size=2),
    max_leaves=8,
)
_file_contents = st.one_of(
    rational_distributions().map(distribution_to_text),
    rational_distributions().map(lambda d: json.dumps(distribution_to_json_obj(d))),
    st.lists(_lines, max_size=6).map("\n".join),
    st.lists(st.tuples(_values, _values).map(list), max_size=4).map(
        lambda atoms: json.dumps({"atoms": atoms})
    ),
    _json_values.map(json.dumps),
    st.text(max_size=40),
    st.binary(max_size=40),
)
_endpoints = st.lists(
    st.tuples(st.sampled_from(["--a", "--b"]), _values).map("=".join), max_size=2
)


@settings(max_examples=200, deadline=timedelta(seconds=2), derandomize=True)
@given(
    a=_file_contents,
    b=_file_contents,
    method=st.sampled_from(["oracle", "ohlin", "szostok", "levin-steckin"]),
    endpoints=_endpoints,
)
def test_cx_compare_fuzz_ends_with_a_defined_exit_code(tmp_path_factory, a, b, method, endpoints):
    folder = tmp_path_factory.getbasetemp() / "fuzz"
    folder.mkdir(exist_ok=True)
    paths = []
    for name, content in (("a", a), ("b", b)):
        path = folder / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        paths.append(str(path))
    result = runner.invoke(main, ["cx-compare", *paths, "--method", method, *endpoints])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    assert result.exit_code in {0, 1, 2, 3}, result.output


class TestCounterexampleCommand:
    def test_json_report(self):
        result = runner.invoke(main, ["counterexample"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["areas"] == ["1/8", "3/8", "3/8", "1/8"]
        assert payload["holds"] is False
        assert payload["sign_change_points"] == ["1", "4", "7"]

    def test_json_flag_alias(self):
        result = runner.invoke(main, ["counterexample", "--json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["holds"] is False

    def test_csv_format(self):
        result = runner.invoke(main, ["counterexample", "--format", "csv"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert "areas" in lines[0]
        assert "1/8;3/8;3/8;1/8" in lines[1]

    def test_scan(self):
        result = runner.invoke(
            main, ["counterexample", "--scan", "25", "--seed", "9"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["scan"]["pairs"] == 25

    def test_negative_scan_exits_2(self):
        result = runner.invoke(main, ["counterexample", "--scan", "-3"])
        assert result.exit_code == 2
        assert "--scan" in result.output

    def test_csv_with_scan_exits_2(self):
        result = runner.invoke(main, ["counterexample", "--format", "csv", "--scan", "3"])
        assert result.exit_code == 2
        assert "--scan is reported only in JSON" in result.output
        zero = runner.invoke(main, ["counterexample", "--format", "csv", "--scan", "0"])
        assert zero.exit_code == 0
        assert zero.output == runner.invoke(main, ["counterexample", "--format", "csv"]).output


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["counterexample", "--scan", str(cli.MAX_SCAN_PAIRS + 1)],
            f"--scan is {cli.MAX_SCAN_PAIRS + 1}, above the limit of {cli.MAX_SCAN_PAIRS}",
        ),
        (
            ["hoeffding", "--random", str(cli.MAX_RANDOM_INSTANCES + 1)],
            f"--random is {cli.MAX_RANDOM_INSTANCES + 1}, above the limit of "
            f"{cli.MAX_RANDOM_INSTANCES}",
        ),
        (
            ["hoeffding", "--random", "1", "--n-max", "1000000000"],
            f"--n-max is 1000000000, above the limit of {MAX_LATTICE_LENGTH}",
        ),
        (
            ["hoeffding", "--random", "1", "--n-max", str(MAX_LATTICE_LENGTH + 1)],
            f"--n-max is {MAX_LATTICE_LENGTH + 1}, above the limit of {MAX_LATTICE_LENGTH}",
        ),
        (
            ["hoeffding", "1/2", "--random", "1", "--denom", str(cli.MAX_HOEFFDING_DENOM + 1)],
            f"--denom is {cli.MAX_HOEFFDING_DENOM + 1}, above the limit of "
            f"{cli.MAX_HOEFFDING_DENOM}",
        ),
        (
            ["hoeffding", *["1/3"] * (MAX_LATTICE_LENGTH + 1)],
            f"{MAX_LATTICE_LENGTH + 1} probabilities given, above the limit of "
            f"{MAX_LATTICE_LENGTH}",
        ),
    ],
)
def test_size_argument_over_limit_exits_2_at_once(argv, message):
    started = time.perf_counter()
    result = runner.invoke(main, argv)
    assert time.perf_counter() - started < 1
    assert result.exit_code == 2
    assert message in result.output


@pytest.mark.parametrize(
    "argv, message",
    [
        (["counterexample", "--scan", "-1"], "--scan is -1, below the minimum of 0\n"),
        (
            ["counterexample", "--scan", str(cli.MAX_SCAN_PAIRS + 1)],
            f"--scan is {cli.MAX_SCAN_PAIRS + 1}, above the limit of {cli.MAX_SCAN_PAIRS}\n",
        ),
        (["hoeffding", "1/2", "--random", "-1"], "--random is -1, below the minimum of 0\n"),
        (
            ["hoeffding", "--random", str(cli.MAX_RANDOM_INSTANCES + 1)],
            f"--random is {cli.MAX_RANDOM_INSTANCES + 1}, above the limit of "
            f"{cli.MAX_RANDOM_INSTANCES}\n",
        ),
    ],
    ids=["scan-below", "scan-above", "random-below", "random-above"],
)
def test_count_option_out_of_range_exits_2_with_the_bounds_line(argv, message):
    # The one CLI bound check words every bound alike.
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == message


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["verify-rasa", "--n", "1", "--m", "2", "--denom", "3", "--seed", "-7"],
            "seed must be >= 0, got -7\n",
        ),
        (["hoeffding", "--random", "3", "--seed", "-7"], "--seed is -7, below the minimum of 0\n"),
        (
            ["counterexample", "--scan", "3", "--seed", "-7"],
            "--seed is -7, below the minimum of 0\n",
        ),
    ],
)
def test_negative_seed_exits_2(argv, message):
    # random.Random seeds from the absolute value, so -7 would draw as 7.
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == message


def test_negative_seed_of_4300_digits_is_quoted_in_one_short_line():
    result = runner.invoke(main, ["hoeffding", "--random", "3", "--seed", "-" + "9" * 4300])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "--seed is about -9.99999e4299, below the minimum of 0\n"


def test_n_max_of_4300_digits_is_quoted_in_one_short_line():
    result = runner.invoke(main, ["hoeffding", "--random", "1", "--n-max", "9" * 4300])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == (
        f"--n-max is about 9.99999e4299, above the limit of {MAX_LATTICE_LENGTH}\n"
    )


class TestHoeffdingCommand:
    def test_explicit_parameters(self):
        result = runner.invoke(main, ["hoeffding", "1/4", "3/4"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["all_hold"] is True
        assert payload["instances"][0]["ps"] == "1/4;3/4"

    def test_identical_parameters(self):
        result = runner.invoke(main, ["hoeffding", "1/2", "1/2"])
        assert result.exit_code == 0

    def test_explicit_parameters_up_to_the_limit(self):
        result = runner.invoke(main, ["hoeffding", *["1/3"] * MAX_LATTICE_LENGTH])
        assert result.exit_code == 0
        assert json.loads(result.output)["all_hold"] is True

    def test_random_batch(self):
        result = runner.invoke(
            main,
            ["hoeffding", "--random", "50", "--seed", "7", "--n-max", "8"],
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["all_hold"] is True

    def test_invalid_probability_exit_2(self):
        assert runner.invoke(main, ["hoeffding", "5/4"]).exit_code == 2
        assert runner.invoke(main, ["hoeffding", "0"]).exit_code == 2
        assert runner.invoke(main, ["hoeffding", "abc"]).exit_code == 2

    def test_no_input_exit_2(self):
        assert runner.invoke(main, ["hoeffding"]).exit_code == 2

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--n-max", "0"], "--n-max is 0, below the minimum of 1\n"),
            (["--denom", "1"], "--denom is 1, below the minimum of 2\n"),
        ],
    )
    def test_option_below_its_minimum_exits_2(self, option, message):
        result = runner.invoke(main, ["hoeffding", "--random", "2", *option])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == message

    def test_negative_random_exits_2(self):
        result = runner.invoke(main, ["hoeffding", "1/2", "1/3", "--random", "-2"])
        assert result.exit_code == 2
        assert "--random" in result.output

    def test_over_limit_rational_exit_2(self):
        result = runner.invoke(main, ["hoeffding", "1/2", "1e-999999"])
        assert result.exit_code == 2
        assert "limit of 10000 decimal digits" in result.output

    def test_parameter_over_digit_limit_exits_2(self):
        result = runner.invoke(main, ["hoeffding", "1/2", "1e4400"])
        assert result.exit_code == 2
        assert result.output == (
            "invalid probability: parameters must lie in (0, 1), got about 1.00000e4400\n"
        )

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="no limit on int-to-string conversion in this Python",
    )
    def test_report_parameter_over_digit_limit_exits_2(self):
        # 1e-5000 lies in (0, 1) and within the parse limit, but its
        # denominator has 5001 digits, too many to write into the report.
        result = runner.invoke(main, ["hoeffding", "1/2", "1e-5000"])
        assert result.exit_code == 2
        assert result.output == (
            f"cannot write the report: a value has more than "
            f"{sys.get_int_max_str_digits()} digits, Python's limit for converting "
            "an int to a string\n"
        )

    def test_out_is_a_directory_exits_2(self, tmp_path):
        result = runner.invoke(main, ["hoeffding", "1/2", "1/3", "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert result.output == f"cannot write the report to {tmp_path}: Is a directory\n"


POINT_BITS_MESSAGE = (
    "invalid input: m * n * bit_length(m * L), for L the parameters' common "
    f"denominator, is above the limit of {MAX_POINT_BITS}\n"
)


class TestPsiPatternCommand:
    def test_two_parameters(self):
        result = runner.invoke(main, ["psi-pattern", "--n", "1", "1/4", "3/4"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["values"] == ["1/16", "-1/16", "1/16"]
        assert payload["change_count"] == 2

    def test_degenerate_exit_2(self):
        result = runner.invoke(main, ["psi-pattern", "--n", "1", "1/2", "1/2"])
        assert result.exit_code == 2

    def test_boundary_exit_2(self):
        result = runner.invoke(main, ["psi-pattern", "--n", "1", "0", "1/2"])
        assert result.exit_code == 2

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="no limit on int-to-string conversion in this Python",
    )
    def test_value_over_digit_limit_exits_2(self):
        # A 3000-digit denominator, squared in psi's common denominator, would
        # give values past the digit limit: the point's bits bound it first.
        result = runner.invoke(main, ["psi-pattern", "--n", "1", "1/" + "7" * 3000, "1/2"])
        assert result.exit_code == 2
        assert result.output == POINT_BITS_MESSAGE

    def test_reciprocal_primes_over_the_bit_limit_exit_2_at_once(self):
        # 100 of them took 3.3 s and 200 of them 128 s to fail on the digit
        # limit; 300 ran past ten minutes.
        primes = [p for p in range(2, 2000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
        started = time.perf_counter()
        result = runner.invoke(
            main, ["psi-pattern", "--n", "1", *(f"1/{p}" for p in primes[:300])]
        )
        assert time.perf_counter() - started < 1
        assert result.exit_code == 2
        assert result.output == POINT_BITS_MESSAGE

    @pytest.mark.parametrize("n", ["999999999999999999", "501"])
    def test_lattice_length_over_limit_exits_2_at_once(self, n):
        started = time.perf_counter()
        result = runner.invoke(main, ["psi-pattern", "--n", n, "1/3", "2/3"])
        assert time.perf_counter() - started < 1
        assert result.exit_code == 2
        message = f"m * n is {2 * int(n)}, above the limit of {MAX_LATTICE_LENGTH}\n"
        assert message in result.output

    def test_lattice_length_past_digit_limit_exits_2_with_one_line(self):
        # A 4300-digit n parses, but m * n has 4301 digits.
        result = runner.invoke(main, ["psi-pattern", "--n", "9" * 4300, "1/2", "1/3"])
        assert result.exit_code == 2
        assert result.output == (
            "invalid input: m * n is about 1.99999e4300, "
            f"above the limit of {MAX_LATTICE_LENGTH}\n"
        )


COMMANDS = ["verify-rasa", "cx-compare", "counterexample", "hoeffding", "psi-pattern"]


@pytest.mark.parametrize("argv", [["--help"], *([name, "--help"] for name in COMMANDS)])
def test_help_exits_0(argv):
    result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert result.stdout.startswith("Usage:")


@pytest.mark.parametrize("argv", [["--help"], ["psi-pattern", "--help"], ["counterexample"]])
def test_commands_run_without_docstrings(argv):
    # ``python -OO`` strips the docstrings that the help text is built from.
    proc = subprocess.run(
        [sys.executable, "-OO", "-m", "convexorder", *argv],
        env=dict(os.environ, PYTHONPATH=SRC_DIR),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["no-such-command"],
        ["counterexample", "--no-such-option"],
        ["psi-pattern", "1/3", "1/2"],
        ["verify-rasa", "--n", "1", "--m", "2", "--denom", "two"],
        ["counterexample", "--format", "xml"],
        ["counterexample", "--scan", str(cli.MAX_SCAN_PAIRS + 1)],
    ],
    ids=["no-arguments", "unknown-command", "unknown-option", "missing-option", "bad-int",
         "bad-choice", "scan-over-limit"],
)
def test_usage_errors_exit_2(argv):
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr


@pytest.mark.parametrize("command", ["psi-pattern", "verify-rasa", "cx-compare"])
def test_unknown_option_is_named_before_missing_arguments(command):
    result = runner.invoke(main, [command, "--bogus"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.endswith(f"{command}: error: unrecognized arguments: --bogus\n")
    missing = runner.invoke(main, [command])
    assert missing.exit_code == 2
    assert "error: the following arguments are required: " in missing.stderr


@pytest.mark.parametrize("denom", ["30000000", "1000000000000"])
def test_m_below_two_exits_2_before_the_grid_is_counted(denom):
    started = time.perf_counter()
    result = runner.invoke(main, ["verify-rasa", "--n", "1", "--m", "0", "--denom", denom])
    assert time.perf_counter() - started < 1
    assert result.exit_code == 2
    assert result.output == "m values must be >= 2\n"


@pytest.mark.parametrize(
    "interspersed, contiguous",
    [
        (["psi-pattern", "1/3", "--n", "3", "1/2"], ["psi-pattern", "--n", "3", "1/3", "1/2"]),
        (["hoeffding", "1/2", "--seed", "3", "1/3"], ["hoeffding", "--seed", "3", "1/2", "1/3"]),
    ],
)
def test_positionals_may_stand_between_options(interspersed, contiguous):
    result = runner.invoke(main, interspersed)
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == runner.invoke(main, contiguous).stdout_bytes


# Each command's option names and a valid argv to build on, and the values
# an argv fuzz draws: small ints and ranges, rationals, choices, a law file,
# and hostile values: ints at Python's 4300-digit limit for int-to-string
# conversion, a rational past the parse limit, a negative int, an empty
# range, range bounds of 19 digits, the empty string, an unknown option, a
# missing file and a directory given as a file.  Every grid a draw can
# admit has n <= 3, m <= 3 and denominators <= 3.
_ARGV_OPTIONS = {
    "verify-rasa": [
        "--n", "--m", "--denom", "--seed", "--jobs", "--functions", "--format", "--out",
    ],
    "cx-compare": ["--method", "--a", "--b", "--out"],
    "counterexample": ["--format", "--json", "--out", "--scan", "--seed"],
    "hoeffding": ["--random", "--seed", "--n-max", "--denom", "--out"],
    "psi-pattern": ["--n", "--out"],
}
_ARGV_BASES = {
    "verify-rasa": ["--n", "1", "--m", "2", "--denom", "2"],
    "cx-compare": ["LAW", "LAW"],
    "counterexample": [],
    "hoeffding": ["1/2"],
    "psi-pattern": ["--n", "1", "1/3", "1/2"],
}
_ARGV_VALUES = st.one_of(
    st.integers(0, 3).map(str),
    st.sampled_from(
        ["1..2", "2..3", "1/2", "1/3", "2/3", "json", "csv", "oracle", "szostok", "angles", "LAW"]
    ),
    st.sampled_from(["9" * 4300, "-" + "9" * 4300]),
    st.sampled_from(
        [
            "1e-999999", "-1", "1..0", "1..1" + "0" * 18, "", "--no-such-option",
            "MISSING", "DIRECTORY",
        ]
    ),
)


@st.composite
def _argvs(draw):
    """A command, maybe its valid base argv, each of its options at most once
    with a value, and stray values, in a drawn order."""
    command = draw(st.sampled_from(sorted(_ARGV_OPTIONS)))
    parts = [[value] for value in draw(st.lists(_ARGV_VALUES, max_size=3))]
    for name in _ARGV_OPTIONS[command]:
        parts += [[name, value] for value in draw(st.lists(_ARGV_VALUES, max_size=1))]
    base = _ARGV_BASES[command] if draw(st.booleans()) else []
    order = draw(st.permutations(parts))
    return [command, *base, *(token for part in order for token in part)]


# The explicit examples, whose messages once quoted a 4301-digit int or whose
# m = 0 once sieved a Farey set of the whole bound, need a conjunction of
# draws that 300 examples seldom make.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_argvs())
@example(argv=["psi-pattern", "--n", "9" * 4300, "1/2", "1/3"])
@example(argv=["verify-rasa", "--n", "1", "--m", "2", "--denom", "9" * 4300])
@example(argv=["verify-rasa", "--n", "1", "--m", "0", "--denom", "30000000"])
@example(argv=["verify-rasa", "--n", "1", "--m", "0", "--denom", "1000000000000"])
def test_argv_fuzz_ends_with_a_defined_exit_code(tmp_path_factory, argv):
    folder = tmp_path_factory.getbasetemp() / "argv-fuzz"
    folder.mkdir(exist_ok=True)
    law = folder / "law.txt"
    law.write_text("0 1/2\n2 1/2\n")
    paths = {
        "LAW": str(law), "MISSING": str(folder / "missing" / "law.txt"), "DIRECTORY": str(folder),
    }
    argv = [paths.get(token, token) for token in argv]
    # Reports go under the folder, and no draw forks more than one child.
    with mock.patch.object(sweep, "_available_cpus", lambda: 2):
        result = runner.invoke(main, argv, env={"CONVEXORDER_OUT_DIR": str(folder)})
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        [token[:20] for token in argv], repr(result.exception)[:200]
    )
    assert result.exit_code in {0, 1, 2, 3}, result.output[-500:]
    assert "Traceback" not in result.stderr


# Row values of every kind the row template writes: ints past 64 bits and
# negative ones, and strings with quotes, backslashes, control characters,
# "%" and characters outside ASCII.
_row_values = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.text(max_size=8),
    st.sampled_from(['a"b', "back\\slash", "\x00\x1f\n\t", "%s%%", "\u00e9\u2028\U0001f600"]),
)


@st.composite
def _report_rows(draw):
    """A head without a "rows" key, field names and rows of their values."""
    keys = draw(st.lists(st.text(max_size=6), min_size=1, max_size=5, unique=True))
    rows = draw(
        st.lists(
            st.tuples(*[_row_values] * len(keys)),
            max_size=7,
        )
    )
    head = draw(st.dictionaries(st.text(max_size=6), _row_values, max_size=3))
    head.pop("rows", None)
    return head, tuple(keys), rows


def _dumped(head, fields, rows):
    rows = [dict(zip(fields, row)) for row in rows]
    return json.dumps({**head, "rows": rows}, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(_report_rows(), st.integers(1, 4))
def test_row_writer_matches_json_dumps(report, chunk):
    head, fields, rows = report
    with mock.patch.object(cli, "ROW_CHUNK", chunk):
        assert "".join(_json_rows(head, fields, rows)) == _dumped(head, fields, rows)


def test_row_writer_edge_values():
    head = {"command": "verify-rasa", "ok": False}
    fields = ("n", "m", "xs", "ok")
    rows = [
        (-3, 2**70, 'q"b\\c\x01\n\u00e9', False),
        (0, -(2**64) - 1, "", True),
    ]
    for part in ([], rows[:1], rows):
        assert "".join(_json_rows(head, fields, part)) == _dumped(head, fields, part)
