import json
import marshal
import os
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from convexorder import (
    binomial,
    build_counterexample,
    dirac,
    distribution_to_text,
    mixture,
)
from convexorder import cli, sweep
from convexorder.cli import main
from convexorder.distributions import MAX_ATOMS, MAX_LAW_BITS
from convexorder.rasa import MAX_LATTICE_LENGTH
from convexorder.sweep import RunConfig, run_sweep
from test_distributions import first_count_over_law_bits, prime_supports

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

        def evaluate_or_fail(task):
            """The child's first point raises or kills it; the parent's pass."""
            if os.getpid() != parent:
                if failure == "raise":
                    raise RuntimeError("a point that only fails in the child")
                os.kill(os.getpid(), signal.SIGKILL)
            return evaluate(task)

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

        def recording_evaluate(task):
            # A child appends to its own copy of the list.
            evaluated.append(task)
            return evaluate(task)

        monkeypatch.setattr(sweep, "evaluate_grid_point", recording_evaluate)
        monkeypatch.setattr(sweep, "_available_cpus", lambda: 2)
        assert run_sweep(config) == serial
        assert evaluated == sweep.grid_tasks(config)[0::2]
        assert capsys.readouterr().err == ""

    def test_parent_error_closes_every_pipe_and_reaps_every_child(self, monkeypatch, forked):
        config = RunConfig(n_values=(1, 2), m_values=(2,), denominator=3, seed=1, jobs=3)
        parent = os.getpid()
        pipes = []
        pipe, evaluate = os.pipe, sweep.evaluate_grid_point

        def recording_pipe():
            pipes.extend(pipe())
            return pipes[-2:]

        def evaluate_or_fail(task):
            if os.getpid() == parent:
                raise RuntimeError("the parent's stride fails")
            return evaluate(task)

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

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONVEXORDER_OUT_DIR", str(tmp_path))
        result = runner.invoke(
            main,
            ["verify-rasa", "--n", "1", "--m", "2", "--denom", "2", "--out", "r.json"],
        )
        assert result.exit_code == 0
        assert (tmp_path / "r.json").exists()


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
            f"0<=x<={cli.MAX_SCAN_PAIRS}",
        ),
        (
            ["hoeffding", "--random", str(cli.MAX_RANDOM_INSTANCES + 1)],
            f"0<=x<={cli.MAX_RANDOM_INSTANCES}",
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

    def test_negative_random_exits_2(self):
        result = runner.invoke(main, ["hoeffding", "1/2", "1/3", "--random", "-2"])
        assert result.exit_code == 2
        assert "--random" in result.output

    def test_over_limit_rational_exit_2(self):
        result = runner.invoke(main, ["hoeffding", "1/2", "1e-999999"])
        assert result.exit_code == 2
        assert "limit of 10000 decimal digits" in result.output


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

    @pytest.mark.parametrize("n", ["999999999999999999", "501"])
    def test_lattice_length_over_limit_exits_2_at_once(self, n):
        started = time.perf_counter()
        result = runner.invoke(main, ["psi-pattern", "--n", n, "1/3", "2/3"])
        assert time.perf_counter() - started < 1
        assert result.exit_code == 2
        message = f"m * n is {2 * int(n)}, above the limit of {MAX_LATTICE_LENGTH}\n"
        assert message in result.output
