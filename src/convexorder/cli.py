"""Command-line front end.

Subcommands: verify-rasa (grid sweep of the Bernstein-form inequality and
its order relations), cx-compare (compare two distribution files by a chosen
decision procedure), counterexample (reproduce and certify the four-atom
failure), hoeffding (binomial convex-concentration checks), psi-pattern (the
sign pattern separating mixture and pooled binomial masses).

Exit codes: 0 success / order holds; 1 verification or order failure;
2 invalid configuration or unparsable input; 3 method preconditions unmet.
Rationals cross this boundary as `p/q` strings, never as floats.  Reports
are byte-identical for a fixed configuration and seed.

This module alone turns reports into JSON: the compute modules return
records (``NamedTuple``s) of Fractions, laws and test functions, and
``report_data`` encodes any of them, so no compute module knows the report
format.  A sweep's rows, most of a ``verify-rasa`` report, come as tuples
in ``sweep.ROW_FIELDS`` order and are written ``ROW_CHUNK`` rows at a time,
in JSON through one row template (``_json_rows``) with the bytes
``json.dumps`` would write, or in CSV (``_csv_rows``), so the report is
never built as one string.  A report that cannot be written, to stdout or
to ``--out``, exits 2 with one line that names where it went.

Each command is one ``argparse`` parser, built only for the command named
first on the command line and run through ``parse_intermixed_args``, so
positionals may stand between options (``psi-pattern 1/3 --n 3 1/2``).  A
usage error prints the usage and an error line and exits 2; every other
error is one line on stderr (``_fail``), under the exit codes above.

This module imports no other module of the package at start, and not
``argparse``.  Each subcommand imports, inside its own body, the modules it
runs and the names it catches or calls (``ParameterError``,
``as_rational``); each report writer imports the codec it writes with; and
``_parser`` imports ``argparse`` when it builds the one parser a command
line needs.  So the command list (``--help``), no arguments and an unknown
command load this module alone of the package, and neither ``argparse``
nor ``fractions``.  A command's ``--help`` adds ``argparse``, and for
``verify-rasa`` ``_base``, where ``--functions`` takes its default.
``verify-rasa`` runs on ``sweep``, ``lattice``, ``_base`` and ``exact``,
and not ``rasa``: ``lattice`` builds the point.  It loads
``convex_functions`` only when a row needs the probe table, which a
default sweep, whose rows relation (c) decides, never does.
``psi-pattern`` runs on ``rasa``, ``lattice`` and ``exact``, and the
commands that read or report laws add ``distributions`` and ``cx_order``.
"""

from __future__ import annotations

import os
import re
import sys
from typing import TYPE_CHECKING, Iterable, Iterator, NoReturn

if TYPE_CHECKING:
    import argparse

OUT_DIR_ENV = "CONVEXORDER_OUT_DIR"

MAX_SCAN_PAIRS = 100_000
"""The most random pairs ``counterexample --scan`` checks: about 0.8 ms each
on one 2-core x86-64 host, so a full scan takes under two minutes."""

MAX_RANDOM_INSTANCES = 10_000
"""The most instances ``hoeffding --random`` draws.  Each report row spells
out up to ``--n-max`` probabilities, so the report stays within tens of MB."""

MAX_HOEFFDING_DENOM = 100
"""The largest ``hoeffding --denom``.  The pooled binomial's masses carry
the n-th power of the lcm of the drawn denominators: at n = 1000 one
instance took 0.9 s and 33 MB with denominators up to 20, 4.2 s and 92 MB up
to 100, and 99 s and 657 MB up to 1000 on one 2-core x86-64 host."""

MAX_FILE_BYTES = 64 << 20
"""The largest distribution file ``cx-compare`` reads, in bytes.

A file is read whole and decoded before its lines are counted, which takes
about twice its size in memory, so without a bound a huge file or a device
such as ``/dev/zero`` would exhaust memory before the parse limits stop it.
At ``lawtext.MAX_ATOMS`` atoms, ``MAX_LAW_BITS`` admits common
denominators of 500 bits (151 digits); a line that writes a support and a
mass as numerators and denominators of that length takes about 610 bytes,
so 64 MiB admits every such file (about 61 MB).  A file of comment lines
at the bound peaked at 143 MB and exited 2 in about 2 s on one 2-core
x86-64 host with Python 3.11."""

ROW_CHUNK = 64
"""Rows per chunk of a sweep report: about 12 kB of JSON or 2.5 kB of CSV at
m = 3.  Against chunks of 1024 rows, a 69 000-row report was written no
slower and an 858-row sweep's traced peak fell by 0.3 MB."""

_DEFAULT = "[default: %(default)s]"

_RANGE_RE = re.compile(r"^(\d+)(?:\.\.(\d+))?$")
_RANGE_DIGITS = 18  # keeps the length of a range within a C ssize_t


def _parse_range(text: str, name: str) -> range:
    """The values of N or A..B as a range, never built: the sweep counts its
    grid from the range's length before anything iterates it."""
    match = _RANGE_RE.match(text.strip())
    if not match:
        _fail(2, f"--{name} expects N or A..B, got {text!r}")
    if any(len(bound) > _RANGE_DIGITS for bound in match.groups() if bound):
        _fail(2, f"--{name} bounds have at most {_RANGE_DIGITS} digits, got {text!r}")
    lo = int(match.group(1))
    hi = int(match.group(2)) if match.group(2) else lo
    if hi < lo:
        _fail(2, f"--{name} range is empty: {text!r}")
    return range(lo, hi + 1)


def _range_echo(values: range) -> str:
    return str(values[0]) if len(values) == 1 else f"{values[0]}..{values[-1]}"


def _fail(code: int, message: str) -> NoReturn:
    """End the command with exit code ``code`` and ``message`` as one stderr line."""
    print(message, file=sys.stderr, flush=True)
    sys.exit(code)


def _read_text(path: str) -> str:
    """The file at ``path`` decoded as UTF-8, read through ``MAX_FILE_BYTES``;
    a leading byte-order mark is dropped."""
    with open(path, "rb") as handle:
        data = handle.read(MAX_FILE_BYTES + 1)
    if len(data) > MAX_FILE_BYTES:
        _fail(2, f"cannot read {path}: more than the limit of {MAX_FILE_BYTES} bytes")
    return data.decode("utf-8-sig")


def _emit(report: str | Iterable[str], out: str | None) -> None:
    """Write the report, one string or its chunks in turn, to stdout or to
    the path ``out``; a relative path is taken under ``$CONVEXORDER_OUT_DIR``
    when that is set.  A write that fails exits 2 with one line."""
    chunks = [report] if isinstance(report, str) else report
    if out is None:
        try:
            for chunk in chunks:
                sys.stdout.write(chunk)
            sys.stdout.flush()
        except OSError as exc:
            _discard_stdout()
            _fail(2, f"cannot write the report to stdout: {exc.strerror or exc}")
        return
    out_path = os.path.join(os.environ.get(OUT_DIR_ENV, ""), out)
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            for chunk in chunks:
                handle.write(chunk)
    except OSError as exc:
        _fail(2, f"cannot write the report to {out_path}: {exc.strerror}")


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device, so that the flush at
    exit drops the text still buffered instead of failing again; a stream
    with no descriptor is left as it is."""
    try:
        fd = sys.stdout.fileno()
        null = os.open(os.devnull, os.O_WRONLY)
    except (AttributeError, OSError, ValueError):
        return
    os.dup2(null, fd)
    os.close(null)


def report_data(obj):
    """JSON data for a report: a Fraction becomes its `p/q` string, a law its
    atom list, a test function its description, a record (a ``NamedTuple``)
    a dict of its fields in field order, and any other tuple or a list a
    list; dicts are encoded value by value, and anything else is returned as
    it is.  A Fraction whose terms pass Python's limit on int-to-string
    conversion ends the command with exit 2."""
    from fractions import Fraction

    if isinstance(obj, Fraction):
        try:
            return str(obj)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            _fail(2, f"cannot write the report: a value has more than {limit} digits, "
                  "Python's limit for converting an int to a string")
    # No law exists unless ``distributions`` is loaded, and a report
    # without one does not load it.
    laws = sys.modules.get(f"{__package__}.distributions")
    if laws and isinstance(obj, laws.DiscreteDistribution):
        return laws.distribution_to_json_obj(obj)["atoms"]
    # Nor does a test function exist unless ``convex_functions`` is loaded.
    functions = sys.modules.get(f"{__package__}.convex_functions")
    if functions and isinstance(obj, functions.ConvexTestFunction):
        return obj.describe()
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return {name: report_data(value) for name, value in zip(obj._fields, obj)}
    if isinstance(obj, (tuple, list)):
        return [report_data(item) for item in obj]
    if isinstance(obj, dict):
        return {key: report_data(value) for key, value in obj.items()}
    return obj


def _json_payload(obj: dict) -> str:
    import json

    return json.dumps(obj, indent=2) + "\n"


def _json_rows(head: dict, fields: tuple[str, ...], rows: list[tuple]) -> Iterator[str]:
    """The chunks of ``_json_payload({**head, "rows": [...]})``, each row
    the dict of ``fields`` to its values, ``ROW_CHUNK`` rows at a time
    through one template.

    ``json.dumps`` with an indent never uses CPython's C encoder, and a
    sweep's rows are most of its report.  Every value is a str, int or
    bool: a str goes through ``encode_basestring_ascii``, the C function
    ``json.dumps`` itself calls, an int through ``int.__repr__`` and a bool
    as ``true`` or ``false``, so the bytes are the ones ``json.dumps`` writes.
    """
    from json.encoder import encode_basestring_ascii

    text = _json_payload({**head, "rows": []})
    if not rows:
        yield text
        return
    # How ``json.dumps`` writes a scalar row value, by its exact type.
    scalars = {
        bool: lambda value: "true" if value else "false",
        int: int.__repr__,
        str: encode_basestring_ascii,
    }
    keys = (encode_basestring_ascii(key).replace("%", "%%") for key in fields)
    template = "    {\n" + ",\n".join(f"      {key}: %s" for key in keys) + "\n    }"
    # The text ends with the empty rows list, "[]\n}\n".
    separator = text[:-5] + "[\n"
    for start in range(0, len(rows), ROW_CHUNK):
        yield separator + ",\n".join(
            template % tuple([scalars[type(v)](v) for v in row])
            for row in rows[start:start + ROW_CHUNK]
        )
        separator = ",\n"
    yield "\n  ]\n}\n"


def _csv_rows(fields: tuple[str, ...], rows: list[tuple]) -> Iterator[str]:
    """The chunks of the rows as CSV: the header ``fields``, then
    ``ROW_CHUNK`` rows at a time."""
    import csv
    import io

    def lines(cells) -> str:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(cells)
        return buffer.getvalue()

    yield lines([fields])
    for start in range(0, len(rows), ROW_CHUNK):
        yield lines(map(_csv_cell, row) for row in rows[start:start + ROW_CHUNK])


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


_COMMANDS: dict[str, tuple] = {}


def _command(name: str, *arguments):
    """Register the decorated function as the command ``name``: ``_COMMANDS``
    maps each name to its function and the ``add_argument`` calls of its
    parser, each a pair from ``_arg`` or a function that returns one when
    the parser is built."""

    def register(func):
        _COMMANDS[name] = (func, arguments)
        return func

    return register


def _arg(*names: str, **options) -> tuple[tuple, dict]:
    return names, options


_OUT = _arg("--out", help="Report path (stdout when omitted).")


def _functions_arg() -> tuple[tuple, dict]:
    # Resolved when verify-rasa's parser is built, which loads ``_base``
    # alone of the package; the command list and the other commands do not.
    from ._base import KNOWN_FUNCTION_GROUPS

    return _arg("--functions", default=",".join(KNOWN_FUNCTION_GROUPS), help=_DEFAULT)


def main(args=None, prog_name: str | None = None, **_) -> None:
    """Run the command that ``args`` names, by default ``sys.argv[1:]``.

    ``main.name`` and ``main.main`` are what ``click.testing.CliRunner``
    calls, so tests can run the commands in-process.
    """
    args = sys.argv[1:] if args is None else list(args)
    prog = prog_name or main.name
    if args[:1] in ([], ["-h"], ["--help"]):
        lines = [f"Usage: {prog} COMMAND [ARGS]...", "", "Commands:"]
        for name, (func, _) in _COMMANDS.items():
            summary = (func.__doc__ or "").partition("\n")[0]
            lines.append(f"  {name:<16}{summary}")
        if not args:
            _fail(2, "\n".join(lines))
        _emit("\n".join(lines) + "\n", None)
        sys.exit(0)
    if args[0] not in _COMMANDS:
        _fail(2, f"no such command {args[0]!r}; '{prog} --help' lists them")
    func, arguments = _COMMANDS[args[0]]
    parser = _parser(f"{prog} {args[0]}", func, arguments)
    # argparse reports missing required arguments before unknown options.
    unknown = _unknown_options(parser, args[1:])
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    func(**vars(parser.parse_intermixed_args(args[1:])))


def _parser(prog: str, func, arguments) -> argparse.ArgumentParser:
    """The parser of one command: its docstring as the description, with
    its own line breaks, under a ``Usage:`` header, and its help written
    through ``_emit``, since argparse would swallow a failed write or leave
    it to the flush at exit."""
    import argparse

    class Formatter(argparse.RawDescriptionHelpFormatter):
        def add_usage(self, usage, actions, groups, prefix="Usage: "):
            super().add_usage(usage, actions, groups, prefix)

    class Parser(argparse.ArgumentParser):
        def print_help(self, file=None) -> None:
            _emit(self.format_help(), None)

    doc = "\n".join(line.strip() for line in (func.__doc__ or "").splitlines())
    parser = Parser(prog, description=doc, formatter_class=Formatter, allow_abbrev=False)
    # argparse takes a token that starts with "-" for an option unless it
    # matches this pattern: a "-" and a digit is a value, as in ``--a -1/2``.
    parser._negative_number_matcher = re.compile(r"-\.?\d")
    for argument in arguments:
        names, options = argument() if callable(argument) else argument
        parser.add_argument(*names, **options)
    return parser


def _unknown_options(parser: argparse.ArgumentParser, tokens: list[str]) -> list[str]:
    """The tokens before any ``--`` that argparse reads as options and
    ``parser`` does not define: a "-" and more, with no space, no number and
    no defined name before any "="."""
    known = parser._option_string_actions
    unknown = []
    for token in tokens:
        if token == "--":
            break
        if (
            token[:1] == "-"
            and len(token) > 1
            and " " not in token
            and not parser._negative_number_matcher.match(token)
            and token.partition("=")[0] not in known
        ):
            unknown.append(token)
    return unknown


main.name = "convexorder"
main.main = main


@_command(
    "verify-rasa",
    _arg("--n", required=True, help="Degree n or range A..B."),
    _arg("--m", required=True, help="Variable count m or range A..B."),
    _arg("--denom", required=True, type=int, help="Grid denominator bound (>= 2)."),
    _arg("--seed", default=0, type=int, help=_DEFAULT),
    _arg("--jobs", default=1, type=int, help=_DEFAULT),
    _functions_arg,
    _arg("--format", dest="fmt", choices=["json", "csv"], default="json"),
    _OUT,
)
def cmd_verify_rasa(n, m, denom, seed, jobs, functions, fmt, out):
    """Sweep the inequality verifiers over a rational parameter grid.

    Exits 0 only if every order relation holds and every form value is
    nonnegative on the whole grid.
    """
    from .exact import ParameterError
    from .sweep import ROW_FIELDS, RunConfig, sweep_rows

    try:
        config = RunConfig(
            n_values=_parse_range(n, "n"),
            m_values=_parse_range(m, "m"),
            denominator=denom,
            seed=seed,
            jobs=jobs,
            functions=tuple(f.strip() for f in functions.split(",") if f.strip()),
        )
    except ParameterError as exc:
        _fail(2, str(exc))
    rows, ok = sweep_rows(config)
    if fmt == "csv":
        report = _csv_rows(ROW_FIELDS, rows)
    else:
        report = _json_rows(
            {
                "command": "verify-rasa",
                "n": _range_echo(config.n_values),
                "m": _range_echo(config.m_values),
                "denominator": config.denominator,
                "seed": config.seed,
                "functions": list(config.functions),
                "ok": ok,
            },
            ROW_FIELDS,
            rows,
        )
    _emit(report, out)
    if not ok:
        # A row starts with n, m and xs and ends with ok (``ROW_FIELDS``).
        n, m, xs, *_ = next(row for row in rows if not row[-1])
        _fail(1, f"verification failed at n={n} m={m} xs={xs}")


@_command(
    "cx-compare",
    _arg("file_a", metavar="FILE_A"),
    _arg("file_b", metavar="FILE_B"),
    _arg("--method", default="oracle", help=_DEFAULT,
         choices=["oracle", "ohlin", "szostok", "levin-steckin"]),
    _arg("--a", dest="lower", metavar="A", help="Left endpoint for interval methods."),
    _arg("--b", dest="upper", metavar="B", help="Right endpoint for interval methods."),
    _OUT,
)
def cmd_cx_compare(file_a, file_b, method, lower, upper, out):
    """Decide `lhs <=_cx rhs` for two distribution files.

    The interval methods default to the supports' hull, widened to [c, c + 1]
    when it is the single point c.  Exits 0 when the chosen method confirms
    the order, 1 when it does not, 2 on a file that cannot be read or
    parsed, 3 when the method's preconditions are unmet.
    """
    from .cx_order import (
        StandingHypothesisError,
        cx_compare_oracle,
        levin_steckin_check,
        ohlin_check,
        szostok_decision,
    )
    from .lawtext import parse_distribution
    from .exact import FormatError, ParameterError, as_rational

    try:
        lhs = parse_distribution(_read_text(file_a))
        rhs = parse_distribution(_read_text(file_b))
    except OSError as exc:
        _fail(2, f"cannot read {exc.filename}: {exc.strerror}")
    except (FormatError, UnicodeDecodeError) as exc:
        _fail(2, f"cannot parse distribution: {exc}")

    try:
        a = as_rational(lower) if lower is not None else min(lhs.min_support, rhs.min_support)
        b = as_rational(upper) if upper is not None else max(lhs.max_support, rhs.max_support)
    except FormatError as exc:
        _fail(2, f"invalid endpoint: {exc}")
    if lower is None and upper is None and a == b:
        b = a + 1  # a wider interval changes no bounded report

    holds: bool
    try:
        if method == "oracle":
            verdict = cx_compare_oracle(lhs, rhs)
            report = report_data(verdict)
            holds = verdict.holds
        elif method == "ohlin":
            if lhs.mean() != rhs.mean():
                _fail(3, "ohlin requires equal means")
            ohlin = ohlin_check(lhs, rhs)
            report = report_data(ohlin)
            holds = ohlin.applies
        elif method == "levin-steckin":
            ls = levin_steckin_check(lhs, rhs, a, b)
            report = {"holds": ls.holds, **report_data(ls)}
            holds = ls.holds
        else:
            sz = szostok_decision(lhs, rhs, a, b)
            report = report_data(sz)
            holds = sz.decision
    except StandingHypothesisError as exc:
        _fail(3, f"standing hypotheses unmet: {exc}")
    except ParameterError as exc:
        _fail(3, f"method preconditions unmet: {exc}")

    _emit(_json_payload({"method": method, **report}), out)
    sys.exit(0 if holds else 1)


@_command(
    "counterexample",
    _arg("--format", dest="fmt", choices=["json", "csv"], default="json"),
    _arg("--json", dest="force_json", action="store_true", help="Alias for --format json."),
    _OUT,
    _arg("--scan", metavar="N", default=0, type=int,
         help="Also scan N random equal-mean pairs (JSON only)."),
    _arg("--seed", default=0, type=int, help=_DEFAULT),
)
def cmd_counterexample(fmt, force_json, out, scan, seed):
    """Reproduce the four-atom counterexample and certify every exact value."""
    from .counterexample import VerificationError, analyze_counterexample

    _check_bounds("--scan", scan, 0, MAX_SCAN_PAIRS)
    _check_bounds("--seed", seed, 0)
    if force_json:
        fmt = "json"
    if fmt == "csv" and scan:
        _fail(2, "--scan is reported only in JSON; use --format json")
    try:
        report = analyze_counterexample()
    except VerificationError as exc:
        _fail(1, f"counterexample verification failed: {exc}")
    data = report_data(report)
    data["holds"] = report.oracle_verdict.holds
    if fmt == "csv":
        flat = {
            "lhs": " ".join(f"{s}:{m}" for s, m in data["lhs"]),
            "rhs": " ".join(f"{s}:{m}" for s, m in data["rhs"]),
            "sign_change_points": ";".join(data["sign_change_points"]),
            "areas": ";".join(data["areas"]),
            "szostok_decision": data["szostok_decision"],
            "holds": data["holds"],
            "witness_function": data["witness_function"],
        }
        payload = _csv_rows(tuple(flat), [tuple(flat.values())])
    else:
        if scan > 0:
            data["scan"] = report_data(_scan_for_violations(scan, seed))
        payload = _json_payload(data)
    _emit(payload, out)


def _check_bounds(name: str, value: int, least: int, limit: int | None = None) -> None:
    """Exit 2 with one line unless ``least <= value``, and ``value <= limit``
    when a limit is given; the value is quoted through ``exact._quoted``.

    A seed's least value is 0: ``random.Random`` seeds from its absolute
    value, so ``--seed -7`` would draw what ``--seed 7`` draws.
    """
    from .exact import _quoted

    if value < least:
        _fail(2, f"{name} is {_quoted(value)}, below the minimum of {least}")
    if limit is not None and value > limit:
        _fail(2, f"{name} is {_quoted(value)}, above the limit of {limit}")


def _scan_for_violations(count: int, seed: int) -> dict:
    import random

    from .cx_order import cx_compare_oracle
    from .randomgen import random_equal_mean_pair

    rng = random.Random(seed)
    violations = 0
    examples = []
    for _ in range(count):
        lhs, rhs = random_equal_mean_pair(rng, max_atoms=4)
        verdict = cx_compare_oracle(lhs, rhs)
        if not verdict.holds:
            violations += 1
            if len(examples) < 5:
                examples.append({"lhs": lhs, "rhs": rhs, "witness": verdict.witness})
    return {"pairs": count, "violations": violations, "examples": examples}


@_command(
    "hoeffding",
    _arg("ps", nargs="*", metavar="PS"),
    _arg("--random", dest="random_count", metavar="N", default=0, type=int,
         help="Check N random instances."),
    _arg("--seed", default=0, type=int, help=_DEFAULT),
    _arg("--n-max", default=8, type=int, help=_DEFAULT),
    _arg("--denom", default=20, type=int, help=_DEFAULT),
    _OUT,
)
def cmd_hoeffding(ps, random_count, seed, n_max, denom, out):
    """Check sums of independent Bernoulli draws against the pooled binomial.

    Pass explicit probabilities (`hoeffding 1/4 3/4`) or `--random N` for a
    seeded batch; exits 0 only if every instance satisfies the order.
    """
    import random

    from .exact import FormatError, ParameterError, as_rational
    from .lattice import MAX_LATTICE_LENGTH
    from .randomgen import random_probability
    from .rasa import verify_hoeffding

    _check_bounds("--random", random_count, 0, MAX_RANDOM_INSTANCES)
    if len(ps) > MAX_LATTICE_LENGTH:
        _fail(2, f"{len(ps)} probabilities given, above the limit of {MAX_LATTICE_LENGTH}")
    _check_bounds("--seed", seed, 0)
    if random_count:
        _check_bounds("--n-max", n_max, 1, MAX_LATTICE_LENGTH)
        _check_bounds("--denom", denom, 2, MAX_HOEFFDING_DENOM)
    instances = []
    try:
        if ps:
            instances.append([as_rational(p) for p in ps])
        if random_count:
            rng = random.Random(seed)
            for _ in range(random_count):
                n = rng.randint(1, n_max)
                instances.append([random_probability(rng, denom) for _ in range(n)])
        if not instances:
            _fail(2, "pass probabilities or --random N")
        rows = []
        all_hold = True
        for inst in instances:
            verdict = verify_hoeffding(inst)
            all_hold = all_hold and verdict.holds
            rows.append({"ps": ";".join(map(report_data, inst)), "holds": verdict.holds})
    except (FormatError, ParameterError) as exc:
        _fail(2, f"invalid probability: {exc}")
    _emit(_json_payload({"command": "hoeffding", "all_hold": all_hold, "instances": rows}), out)
    if not all_hold:
        sys.exit(1)


@_command(
    "psi-pattern",
    _arg("--n", required=True, type=int, help="Degree n."),
    _arg("xs", nargs="+", metavar="XS"),
    _OUT,
)
def cmd_psi_pattern(n, xs, out):
    """Sign pattern of the mass gap between mixture and pooled binomial.

    Exits 0 when the pattern has the expected +,-,+ shape with exactly two
    sign changes; 2 on invalid or degenerate input.
    """
    from .exact import FormatError, ParameterError, as_rational
    from .rasa import psi_sign_pattern

    try:
        pattern = psi_sign_pattern(n, [as_rational(x) for x in xs])
    except (FormatError, ParameterError) as exc:
        _fail(2, f"invalid input: {exc}")
    shape_ok = (
        pattern.change_count == 2
        and pattern.values[0] > 0
        and pattern.values[-1] > 0
    )
    _emit(_json_payload({"command": "psi-pattern", "n": n, **report_data(pattern)}), out)
    if not shape_ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
