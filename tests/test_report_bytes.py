"""Exact report bytes and exit codes of the report-writing subcommands.

Each case runs one command line and compares its stdout, byte for byte, with
the file of the same name under ``tests/reports/``, and its exit code with
the one listed here.  The help of the command list and of every command is
pinned the same way, at a width of 80 columns.  The inputs of ``cx-compare`` are the two laws of the
four-atom counterexample, written out literally.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from convexorder.cli import main

REPORTS = Path(__file__).resolve().parent / "reports"

SUM_LAW = "1 1/4\n3 1/4\n5 1/4\n7 1/4\n"
MIXTURE_LAW = "0 1/8\n2 1/8\n4 1/2\n6 1/8\n8 1/8\n"

WIDE = ["--a", "-1", "--b", "9"]

CASES = [
    *(
        (
            f"cx-compare-{method}{suffix}.json",
            ["cx-compare", "LHS", "RHS", "--method", method, *extra],
            1,
        )
        for method in ("oracle", "ohlin", "levin-steckin", "szostok")
        for suffix, extra in (("", []), ("-wide", WIDE))
    ),
    ("counterexample.json", ["counterexample"], 0),
    ("counterexample.csv", ["counterexample", "--format", "csv"], 0),
    ("counterexample-scan.json", ["counterexample", "--scan", "25", "--seed", "9"], 0),
    ("psi-pattern.json", ["psi-pattern", "--n", "2", "1/3", "2/3"], 0),
    ("hoeffding.json", ["hoeffding", "1/4", "3/4"], 0),
    (
        "verify-rasa-m3.json",
        ["verify-rasa", "--n", "1..2", "--m", "3", "--denom", "4", "--seed", "3"],
        0,
    ),
    (
        "verify-rasa-m2.csv",
        ["verify-rasa", "--n", "1..3", "--m", "2", "--denom", "5", "--seed", "3",
         "--format", "csv"],
        0,
    ),
    (
        "verify-rasa-angles.json",
        ["verify-rasa", "--n", "1..3", "--m", "2", "--denom", "6", "--functions", "angles"],
        0,
    ),
    (
        "verify-rasa-nonangle.json",
        ["verify-rasa", "--n", "1..3", "--m", "2", "--denom", "6", "--functions",
         "monomials,affine,random-pwl"],
        0,
    ),
    (
        "verify-rasa-m4.json",
        ["verify-rasa", "--n", "1", "--m", "4", "--denom", "3", "--seed", "3"],
        0,
    ),
]


HELP_CASES = [
    ("help.txt", ["--help"]),
    *(
        (f"help-{command}.txt", [command, "--help"])
        for command in ("verify-rasa", "cx-compare", "counterexample", "hoeffding", "psi-pattern")
    ),
]


@pytest.mark.parametrize("name, args, exit_code", CASES, ids=[c[0] for c in CASES])
def test_report_bytes(tmp_path, name, args, exit_code):
    lhs = tmp_path / "lhs.txt"
    rhs = tmp_path / "rhs.txt"
    lhs.write_text(SUM_LAW)
    rhs.write_text(MIXTURE_LAW)
    argv = [{"LHS": str(lhs), "RHS": str(rhs)}.get(a, a) for a in args]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == exit_code, result.output
    assert result.stdout_bytes == (REPORTS / name).read_bytes()


@pytest.mark.parametrize("name, args", HELP_CASES, ids=[c[0] for c in HELP_CASES])
def test_help_bytes(monkeypatch, name, args):
    # argparse wraps help to the terminal's width, read from $COLUMNS first.
    monkeypatch.setenv("COLUMNS", "80")
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (REPORTS / name).read_bytes()
