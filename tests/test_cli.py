import concurrent.futures
import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from click.testing import CliRunner

from convexorder import (
    binomial,
    build_counterexample,
    dirac,
    distribution_to_text,
    mixture,
)
from convexorder import sweep
from convexorder.cli import main
from convexorder.sweep import RunConfig, run_sweep

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

runner = CliRunner()


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

    def test_bad_range_syntax_exits_2(self):
        result = runner.invoke(
            main, ["verify-rasa", "--n", "1--3", "--m", "2", "--denom", "5"]
        )
        assert result.exit_code == 2

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
        "error", [BrokenProcessPool("a worker died"), OSError("no semaphores")]
    )
    def test_failing_pool_falls_back_to_serial(self, monkeypatch, error):
        config = RunConfig(n_values=(1, 2), m_values=(2,), denominator=3, seed=1, jobs=2)
        serial_rows, serial_ok = run_sweep(replace(config, jobs=1))
        args = ["verify-rasa", "--n", "1..2", "--m", "2", "--denom", "3", "--seed", "1"]
        serial = runner.invoke(main, args)
        started = []

        class FailingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, tasks, chunksize):
                raise error

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FailingPool)
        monkeypatch.setattr(sweep, "_available_cpus", lambda: 2)
        assert run_sweep(config) == (serial_rows, serial_ok)
        result = runner.invoke(main, args + ["--jobs", "2"])
        assert started == [2, 2]
        assert result.exit_code == serial.exit_code == 0, result.output
        assert result.output == serial.output

    @pytest.mark.parametrize(
        "jobs, cpus, workers",
        [(8, 3, 3), (8, 64, 6), (2, 64, 2), (4, 1, None), (1, 64, None)],
    )
    def test_jobs_clamped_to_cpus_and_tasks(self, monkeypatch, jobs, cpus, workers):
        config = RunConfig(
            n_values=(1,), m_values=(2,), denominator=2, seed=1, jobs=jobs
        )
        assert len(sweep.grid_tasks(config)) == 6
        started = []

        class RecordingPool:
            """Records max_workers and maps in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(sweep, "_available_cpus", lambda: cpus)
        assert run_sweep(config) == run_sweep(replace(config, jobs=1))
        assert started == ([] if workers is None else [workers])

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
