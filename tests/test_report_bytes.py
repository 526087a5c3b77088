"""Exact report bytes and exit codes of the report-writing subcommands.

Small reports are pinned as files.  Each case of ``CASES`` runs one command
line in-process and compares its stdout, byte for byte, with the file of the
same name under ``tests/reports/``, and its exit code with the one listed
there.  ``HELP_CASES`` pins the help of the command list and of every
command the same way, at a width of 80 columns.  The inputs of
``cx-compare`` are the two laws of the four-atom counterexample, written out
literally.

Reports too large to keep as files are pinned in ``PINS`` by the SHA-256 of
their stdout.  Each must exit 0 within its row's timeout with nothing on
stderr.  A sweep runs once with ``--jobs 1`` and once with ``--jobs 2``, so
both must give the pinned bytes; a stride evaluated in the parent, or a fork
with threads running, writes to stderr and fails the run.  A row with a peak
bound also bounds each run's peak resident size.

Hostile inputs are listed in ``EXITS``: numbers, grids and files too large
to handle, and arguments that cannot go together.  Each must end within its
row's bound with its exit code, exactly one line on stderr and nothing on
stdout: no traceback and no hang.

``spawn_cli`` runs the rows of both tables in a fresh interpreter, as the
console script starts it, with DeprecationWarnings as errors, and kills the
run with its process group at the row's bound.  ``test_cli`` runs its
real-process exits through it too.
"""

import hashlib
import os
import signal
import sys
import time
from itertools import islice
from pathlib import Path
from typing import NamedTuple

import pytest
from click.testing import CliRunner

from convexorder.cli import main
from test_distributions import primes

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


def spawn_cli(
    tmp_path: Path,
    argv: list[str],
    timeout: float,
    prelude: str = "",
    stdout: str | None = None,
    env: dict[str, str] | None = None,
) -> tuple[int | None, bytes | None, str]:
    """Run ``convexorder ARGV`` in a fresh interpreter, as the console
    script starts it, after ``prelude``, with DeprecationWarnings as errors
    and the extra environment ``env``; kill it and its process group after
    ``timeout`` seconds.  Its stdout goes to the file or device ``stdout``,
    or else to a file under ``tmp_path``.  Return the exit code (``None``
    if the run was killed), the bytes of that file (``None`` if ``stdout``
    was given) and stderr."""
    code = (
        prelude + "import runpy, sys\n"
        f"sys.argv = ['convexorder', *{argv!r}]\n"
        "runpy.run_module('convexorder', run_name='__main__')\n"
    )
    out, err = stdout or tmp_path / "stdout", tmp_path / "stderr"
    create = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    pid = os.posix_spawn(
        sys.executable,
        [sys.executable, "-c", code],
        dict(
            os.environ,
            PYTHONPATH=SRC_DIR,
            PYTHONWARNINGS="error::DeprecationWarning",
            **(env or {}),
        ),
        file_actions=[
            (os.POSIX_SPAWN_OPEN, 1, str(out), create, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), create, 0o644),
        ],
        setpgroup=0,
    )
    exit_code = _reap(pid, timeout)
    return exit_code, None if stdout else out.read_bytes(), err.read_text()


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
    exit_code, report, stderr = spawn_cli(tmp_path, argv, pin.timeout, prelude)
    assert exit_code is not None, f"killed after {pin.timeout} s"
    assert (exit_code, stderr) == (0, "")
    assert hashlib.sha256(report).hexdigest() == pin.sha256
    if pin.peak_mb is not None:
        peak_mb = int((tmp_path / "peak").read_text()) / 1024
        assert peak_mb < pin.peak_mb


class Exit(NamedTuple):
    """A hostile input: the command line, the exit code it ends with, and
    the seconds a run may take.  ``{dir}`` in an argument is the directory
    that holds the law files of ``law_files``, and ``{name}`` the law file
    ``name.txt`` there."""

    args: list[str]
    code: int = 2
    timeout: int = 20


NINES = "9" * 4300

EXITS = {
    # An exponent counts as its magnitude in digits, so the literal fails
    # the 10 000-digit limit before its denominator is built.
    "hoeffding-exponent": Exit(["hoeffding", "1/2", "1e-999999"]),
    # Grids and lattices too large to build are refused from their sizes.
    "sweep-long-range": Exit(["verify-rasa", "--n", "1..10000000000", "--m", "2", "--denom", "2"]),
    "sweep-huge-n": Exit(["verify-rasa", "--n", "999999999999999999", "--m", "2", "--denom", "2"]),
    # Only JSON reports a scan.
    "scan-csv": Exit(["counterexample", "--format", "csv", "--scan", "3"]),
    "hoeffding-huge-n-max": Exit(["hoeffding", "--random", "1", "--n-max", "1000000000"]),
    "hoeffding-1001": Exit(["hoeffding", *["1/3"] * 1001]),
    "hoeffding-n-max-0": Exit(["hoeffding", "--random", "1", "--n-max", "0"]),
    # Two files within both parse limits whose mean gap has a denominator
    # of over 4300 digits, Python's limit for printing an int: the first
    # 1000 primes' product.
    "compare-digits": Exit(["cx-compare", "{digits-a}", "{digits-b}", "--method", "oracle"]),
    # A Hoeffding parameter with such a denominator.
    "hoeffding-digits": Exit(["hoeffding", "1/2", "1e-5000"]),
    # A 4300-digit n or grid bound parses, but m * n and the grid's size
    # have 4301 digits.
    "psi-nines": Exit(["psi-pattern", "--n", NINES, "1/2", "1/3"]),
    "sweep-nines": Exit(["verify-rasa", "--n", "1", "--m", "2", "--denom", NINES]),
    # The reciprocals of the first 300 primes pass the point's bit bound:
    # exit 2 at once, where they once ran for over ten minutes.
    "psi-300-primes": Exit(
        ["psi-pattern", "--n", "1", *(f"1/{p}" for p in islice(primes(), 300))], timeout=10
    ),
    # m = 0 under a huge grid bound.
    "sweep-m0": Exit(["verify-rasa", "--n", "1", "--m", "0", "--denom", "1000000000000"]),
    # A report path that is a directory.
    "out-dir": Exit(["hoeffding", "1/2", "1/3", "--out", "{dir}"]),
    # Error messages that quote a huge value stay one line: the masses 1/p_k
    # over the first 1800 primes sum to a fraction of over 6000 digits ...
    "compare-masses": Exit(["cx-compare", "{primes-1800}", "{digits-b}"]),
    # ... and Szostok's total integral on the digit files has over 4300.
    "szostok-digits": Exit(["cx-compare", "{digits-a}", "{digits-b}", "--method", "szostok"], 3),
}


@pytest.fixture(scope="module")
def law_files(tmp_path_factory) -> dict[str, str]:
    """The law files of the ``cx-compare`` rows, and their directory."""
    folder = tmp_path_factory.mktemp("laws")
    ps = list(islice(primes(), 1800))
    texts = {
        "digits-a": "".join(f"{k}/{p} 1/1000\n" for k, p in enumerate(ps[:1000])),
        "digits-b": "".join(
            f"{i + 1}/{p} 1/{500 * p}\n{i + 2}/{p} {p - 1}/{500 * p}\n"
            for i, p in enumerate(ps[:500])
        ),
        "primes-1800": "".join(f"{k} 1/{p}\n" for k, p in enumerate(ps)),
    }
    paths = {"dir": str(folder)}
    for name, text in texts.items():
        (folder / f"{name}.txt").write_text(text)
        paths[name] = str(folder / f"{name}.txt")
    return paths


@pytest.mark.parametrize("name", EXITS)
def test_hostile_input_exits(tmp_path, law_files, name):
    row = EXITS[name]
    argv = [arg.format_map(law_files) for arg in row.args]
    exit_code, stdout, stderr = spawn_cli(tmp_path, argv, row.timeout)
    assert exit_code is not None, f"killed after {row.timeout} s"
    assert exit_code == row.code, stderr[-500:]
    # One line: no traceback.
    assert stderr.endswith("\n") and len(stderr.splitlines()) == 1, stderr[-500:]
    assert stdout == b""
