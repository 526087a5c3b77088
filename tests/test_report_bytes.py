"""Exact report bytes and exit codes of the report-writing subcommands.

Small reports are pinned as files.  Each case of ``CASES`` runs one command
line in-process and compares its stdout, byte for byte, with the file of the
same name under ``tests/reports/``, and its exit code with the one listed
there.  ``HELP_CASES`` pins the help of the command list and of every
command the same way, at a width of 80 columns.  The inputs of
``cx-compare`` are the two laws of the four-atom counterexample, written out
literally.

Reports too large to keep as files are pinned in ``PINS`` by the SHA-256 of
their stdout.  Each runs in a fresh interpreter, as the console script
starts it, with DeprecationWarnings as errors, and must exit 0 within its
row's timeout with nothing on stderr.  A sweep runs once with ``--jobs 1``
and once with ``--jobs 2``, so both must give the pinned bytes; a stride
evaluated in the parent, or a fork with threads running, writes to stderr
and fails the run.  A row with a peak bound also bounds each run's peak
resident size.
"""

import hashlib
import os
import signal
import sys
import time
from pathlib import Path
from typing import NamedTuple

import pytest
from click.testing import CliRunner

from convexorder.cli import main

REPORTS = Path(__file__).resolve().parent / "reports"
SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

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


class Pin(NamedTuple):
    """A report pinned by its digest: the command line, the SHA-256 of its
    stdout, whether it takes ``--jobs``, the seconds a run may take, and the
    most MB a run may peak at, if bounded."""

    args: str
    sha256: str
    jobs: bool
    timeout: int
    peak_mb: int | None = None


PINS = {
    # A small m = 3 sweep in both formats.
    "sweep-m3": Pin(
        "verify-rasa --n 1..3 --m 3 --denom 5",
        "7090a6f7406f32e5070b4f942daa59349b0fa1862f88d5b6fff8afdc3f49d64c",
        jobs=True, timeout=60,
    ),
    "sweep-m3-csv": Pin(
        "verify-rasa --n 1..3 --m 3 --denom 5 --format csv",
        "76d53f9ea5c9865d5ff8d7e3955f04db8f51ace2bf12894dd0047f14a2c6a37d",
        jobs=True, timeout=60,
    ),
    # A deep grid (9963 points) builds each block's laws in each forked
    # stride.
    "deep": Pin(
        "verify-rasa --n 10..12 --m 2 --denom 16",
        "b2f88934965a89cc9200f070bf523446fd35383bf3dbdc1ddf0b803ff0d87b67",
        jobs=True, timeout=60,
    ),
    # A 73 696-point grid: m = 3 at depth runs the packed sums over mixed
    # denominators and the mixture's rescaled parts.  Its rows are held as
    # tuples and its 13.6 MB report is written in chunks, so a run peaks
    # near 30 MB with either --jobs (Python 3.11, x86-64 Linux).  The bound
    # is twice that: it fails a run that joins the report into one string
    # and also keeps a dict per row (75 MB), though either alone (55 or
    # 48 MB) stays under it.
    "wide": Pin(
        "verify-rasa --n 1..4 --m 3 --denom 12",
        "997696f215b79786fff3b56c0e47be9105c384c32472d105ec2ac8733dd150c8",
        jobs=True, timeout=60, peak_mb=60,
    ),
    # A grid across the packed route's crossover: its blocks at n = 11..13
    # are decided on packed ints and those at n = 14..16 on lists, and its
    # bytes are those of the list route alone.
    "cross": Pin(
        "verify-rasa --n 11..16 --m 2 --denom 5",
        "a3d54a06f5ba390e63aa64a71eb9559061e60dda5d9ad01e0af7abb8f0c2348c",
        jobs=True, timeout=60,
    ),
    # Long lattices pin the packed sum's big ints, at K = 301 (m = 2) and
    # K = 121 (m = 3).
    "long-m2": Pin(
        "verify-rasa --n 150 --m 2 --denom 5",
        "280d1e3f2f3df2c0376cc7d4140c7757b7ceaf1a280cb57a89174640b213241f",
        jobs=True, timeout=60,
    ),
    "long-m3": Pin(
        "verify-rasa --n 40 --m 3 --denom 3",
        "56f3b84b7f64009ec973cec9fc6bbe248df92d8c4ecac280dd408e512400d921",
        jobs=True, timeout=60,
    ),
    # The pins above read every row's minimum from relation (c).  Without
    # the angles every row takes the probe table's dot products instead,
    # here on the big ints of K = 121.
    "long-m3-dots": Pin(
        "verify-rasa --n 40 --m 3 --denom 3 --functions monomials,affine,random-pwl",
        "6e9ceaea97a20f2fcda2f8123a908ff8f30cb4e8d33f88feecf981ca58b51950",
        jobs=True, timeout=60,
    ),
    # Two long blocks, K = 599 and 601: the first block's laws are let go
    # and the second's built, in each forked stride too.
    "blocks": Pin(
        "verify-rasa --n 299..300 --m 2 --denom 5",
        "b8d34de8bef94d9d49b59191ecb245ca96b31b70e003a6c7b1f818a78622b7af",
        jobs=True, timeout=60,
    ),
    # Fifteen psi parameters over two shared denominators, 13 and 7: the
    # mixture step sums each denominator's parts before it scales them to
    # L = 91.
    "psi-shared": Pin(
        "psi-pattern --n 5 1/13 2/13 3/13 4/13 5/13 6/13 7/13 8/13 9/13 10/13 11/13 12/13"
        " 1/7 3/7 5/7",
        "7f5eda21350a3ea72c1319b983d33a453595c20558ceeec7c87623e839d2c44a",
        jobs=False, timeout=60,
    ),
    # 30 random Hoeffding instances of up to 400 parameters with
    # denominators up to 100: 19 fold their Poisson-binomial sum in one
    # packed int and 11 pass its 64 kB bound and fold a dict.
    "hoeffding-random": Pin(
        "hoeffding --random 30 --n-max 400 --denom 100 --seed 7",
        "dbc5321c465a559cc62f0e385e54f1aca5750073d72d73c7ffd9dc1c25ca5854",
        jobs=False, timeout=120,
    ),
}

PIN_RUNS = [
    (name, jobs) for name, pin in PINS.items() for jobs in (("1", "2") if pin.jobs else (None,))
]

# Written at exit: the run's peak resident size in kB, its own (VmHWM) or a
# forked stride's, whichever is larger.  The ru_maxrss that os.wait4 returns
# would not do, because Linux carries the spawning process's own peak into
# its child across exec, and a test session may pass the bound by itself.
_PEAK = (
    "import atexit, resource\n"
    "def _write_peak():\n"
    "    with open('/proc/self/status') as status:\n"
    "        own = next(int(line.split()[1]) for line in status if line.startswith('VmHWM:'))\n"
    "    strides = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
    "    with open({path!r}, 'w') as peak:\n"
    "        peak.write(str(max(own, strides)))\n"
    "atexit.register(_write_peak)\n"
)


def _reap(pid: int, timeout: float) -> int | None:
    """The exit code of the child ``pid``, or ``None`` once it has run for
    ``timeout`` seconds, when it and its process group are killed."""
    deadline = time.monotonic() + timeout
    done = status = 0
    try:
        while not done and time.monotonic() < deadline:
            time.sleep(0.01)
            done, status = os.waitpid(pid, os.WNOHANG)
    finally:
        if not done:
            os.killpg(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status) if done else None


@pytest.mark.parametrize(
    "name, jobs", PIN_RUNS, ids=[f"{name}-jobs{jobs}" if jobs else name for name, jobs in PIN_RUNS]
)
def test_pinned_report(tmp_path, name, jobs):
    pin = PINS[name]
    argv = pin.args.split() + (["--jobs", jobs] if jobs else [])
    prelude = ""
    if jobs == "2":
        # Two CPUs whatever the host has, so that --jobs 2 forks a stride.
        prelude += "import convexorder.sweep\nconvexorder.sweep._available_cpus = lambda: 2\n"
    if pin.peak_mb is not None:
        prelude += _PEAK.format(path=str(tmp_path / "peak"))
    code = (
        prelude + "import runpy, sys\n"
        f"sys.argv = ['convexorder', *{argv!r}]\n"
        "runpy.run_module('convexorder', run_name='__main__')\n"
    )
    out, err = tmp_path / "report", tmp_path / "stderr"
    create = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    pid = os.posix_spawn(
        sys.executable,
        [sys.executable, "-c", code],
        dict(os.environ, PYTHONPATH=SRC_DIR, PYTHONWARNINGS="error::DeprecationWarning"),
        file_actions=[
            (os.POSIX_SPAWN_OPEN, 1, str(out), create, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), create, 0o644),
        ],
        setpgroup=0,
    )
    exit_code = _reap(pid, pin.timeout)
    assert exit_code is not None, f"killed after {pin.timeout} s"
    assert (exit_code, err.read_text()) == (0, "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == pin.sha256
    if pin.peak_mb is not None:
        peak_mb = int((tmp_path / "peak").read_text()) / 1024
        assert peak_mb < pin.peak_mb
