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
format.  A sweep's rows, most of a ``verify-rasa`` report, are written
through one row template (``_json_rows_payload``) with the bytes
``json.dumps`` would write.

Each subcommand imports the modules it runs inside its own body, and each
report writer the codec it writes with, so `--help` and every command pay
at start-up only for what they use: `--help` loads only this module,
``convex_functions`` and ``exact`` of the package, and neither ``json`` nor
``csv``; ``verify-rasa`` adds ``sweep``, ``rasa`` and ``lattice``, and the
commands that read or report laws add ``distributions`` and ``cx_order``.
"""

from __future__ import annotations

import os
import re
import sys

import click

from .convex_functions import KNOWN_FUNCTION_GROUPS, ConvexTestFunction
from .exact import FormatError, ParameterError, as_rational

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

_RANGE_RE = re.compile(r"^(\d+)(?:\.\.(\d+))?$")
_RANGE_DIGITS = 18  # keeps the length of a range within a C ssize_t


def _parse_range(text: str, name: str) -> range:
    """The values of N or A..B as a range, never built: the sweep counts its
    grid from the range's length before anything iterates it."""
    match = _RANGE_RE.match(text.strip())
    if not match:
        raise click.UsageError(f"--{name} expects N or A..B, got {text!r}")
    if any(len(bound) > _RANGE_DIGITS for bound in match.groups() if bound):
        raise click.UsageError(
            f"--{name} bounds have at most {_RANGE_DIGITS} digits, got {text!r}"
        )
    lo = int(match.group(1))
    hi = int(match.group(2)) if match.group(2) else lo
    if hi < lo:
        raise click.UsageError(f"--{name} range is empty: {text!r}")
    return range(lo, hi + 1)


def _range_echo(values: range) -> str:
    return str(values[0]) if len(values) == 1 else f"{values[0]}..{values[-1]}"


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(payload: str, out_path: str | None) -> None:
    if out_path is None:
        click.echo(payload, nl=False)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)
    except OSError as exc:
        click.echo(f"cannot write the report to {out_path}: {exc.strerror}", err=True)
        sys.exit(2)


def report_data(obj):
    """JSON data for a report: a Fraction becomes its `p/q` string, a law its
    atom list, a test function its description, a record (a ``NamedTuple``)
    a dict of its fields in field order, and any other tuple or a list a
    list; dicts are encoded value by value, and anything else is returned as
    it is.  A Fraction whose terms pass Python's limit on int-to-string
    conversion ends the command with exit 2."""
    from fractions import Fraction

    from .distributions import DiscreteDistribution, distribution_to_json_obj

    if isinstance(obj, Fraction):
        try:
            return str(obj)
        except ValueError:
            click.echo(
                "cannot write the report: a value has more than "
                f"{sys.get_int_max_str_digits()} digits, Python's limit for "
                "converting an int to a string",
                err=True,
            )
            sys.exit(2)
    if isinstance(obj, DiscreteDistribution):
        return distribution_to_json_obj(obj)["atoms"]
    if isinstance(obj, ConvexTestFunction):
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


def _json_rows_payload(head: dict, rows: list[dict]) -> str:
    """``_json_payload({**head, "rows": rows})``, the rows written through
    one template.

    ``json.dumps`` with an indent never uses CPython's C encoder, and a
    sweep's rows are most of its report.  Every row has the keys of the
    first, in its order, and str, int or bool values: a str goes through
    ``encode_basestring_ascii``, the C function ``json.dumps`` itself calls,
    an int through ``int.__repr__`` and a bool as ``true`` or ``false``, so
    the bytes are the ones ``json.dumps`` writes.
    """
    from json.encoder import encode_basestring_ascii

    text = _json_payload({**head, "rows": []})
    if not rows:
        return text
    # How ``json.dumps`` writes a scalar row value, by its exact type.
    scalars = {
        bool: lambda value: "true" if value else "false",
        int: int.__repr__,
        str: encode_basestring_ascii,
    }
    keys = (encode_basestring_ascii(key).replace("%", "%%") for key in rows[0])
    template = "    {\n" + ",\n".join(f"      {key}: %s" for key in keys) + "\n    }"
    body = ",\n".join(
        template % tuple([scalars[type(v)](v) for v in row.values()])
        for row in rows
    )
    # The text ends with the empty rows list, "[]\n}\n".
    return text[:-5] + "[\n" + body + "\n  ]\n}\n"


def _csv_payload(rows: list[dict], columns: list[str]) -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(c)) for c in columns])
    return buffer.getvalue()


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


@click.group()
def main() -> None:
    """Exact convex-order decisions and inequality verification."""


@main.command("verify-rasa")
@click.option("--n", "n_range", required=True, help="Degree n or range A..B.")
@click.option("--m", "m_range", required=True, help="Variable count m or range A..B.")
@click.option("--denom", required=True, type=int, help="Grid denominator bound (>= 2).")
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--jobs", default=1, type=int, show_default=True)
@click.option("--functions", default=",".join(KNOWN_FUNCTION_GROUPS), show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--out", default=None, help="Report path (stdout when omitted).")
def cmd_verify_rasa(n_range, m_range, denom, seed, jobs, functions, fmt, out):
    """Sweep the inequality verifiers over a rational parameter grid.

    Exits 0 only if every order relation holds and every form value is
    nonnegative on the whole grid.
    """
    from .sweep import RunConfig, run_sweep

    try:
        config = RunConfig(
            n_values=_parse_range(n_range, "n"),
            m_values=_parse_range(m_range, "m"),
            denominator=denom,
            seed=seed,
            jobs=jobs,
            functions=tuple(f.strip() for f in functions.split(",") if f.strip()),
        )
    except ParameterError as exc:
        raise click.UsageError(str(exc)) from exc
    rows, ok = run_sweep(config)
    if fmt == "csv":
        columns = ["n", "m", "xs", "verdict_a", "verdict_b", "verdict_c", "min_form", "ok"]
        payload = _csv_payload(rows, columns)
    else:
        payload = _json_rows_payload(
            {
                "command": "verify-rasa",
                "n": _range_echo(config.n_values),
                "m": _range_echo(config.m_values),
                "denominator": config.denominator,
                "seed": config.seed,
                "functions": list(config.functions),
                "ok": ok,
            },
            rows,
        )
    _emit(payload, _resolve_out(out))
    if not ok:
        bad = next(row for row in rows if not row["ok"])
        click.echo(f"verification failed at n={bad['n']} m={bad['m']} xs={bad['xs']}", err=True)
        sys.exit(1)


@main.command("cx-compare")
@click.argument("file_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("file_b", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--method",
    type=click.Choice(["oracle", "ohlin", "szostok", "levin-steckin"]),
    default="oracle",
    show_default=True,
)
@click.option("--a", "lower", default=None, help="Left endpoint for interval methods.")
@click.option("--b", "upper", default=None, help="Right endpoint for interval methods.")
@click.option("--out", default=None)
def cmd_cx_compare(file_a, file_b, method, lower, upper, out):
    """Decide `lhs <=_cx rhs` for two distribution files.

    The interval methods default to the supports' hull, widened to [c, c + 1]
    when it is the single point c.  Exits 0 when the chosen method confirms
    the order, 1 when it does not, 2 on parse failure, 3 when the method's
    preconditions are unmet.
    """
    from .cx_order import (
        StandingHypothesisError,
        cx_compare_oracle,
        levin_steckin_check,
        ohlin_check,
        szostok_decision,
    )
    from .distributions import parse_distribution

    try:
        with open(file_a, encoding="utf-8") as fa:
            lhs = parse_distribution(fa.read())
        with open(file_b, encoding="utf-8") as fb:
            rhs = parse_distribution(fb.read())
    except (FormatError, UnicodeDecodeError) as exc:
        click.echo(f"cannot parse distribution: {exc}", err=True)
        sys.exit(2)

    try:
        a = as_rational(lower) if lower is not None else min(lhs.min_support, rhs.min_support)
        b = as_rational(upper) if upper is not None else max(lhs.max_support, rhs.max_support)
    except FormatError as exc:
        click.echo(f"invalid endpoint: {exc}", err=True)
        sys.exit(2)
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
                click.echo("ohlin requires equal means", err=True)
                sys.exit(3)
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
        click.echo(f"standing hypotheses unmet: {exc}", err=True)
        sys.exit(3)
    except ParameterError as exc:
        click.echo(f"method preconditions unmet: {exc}", err=True)
        sys.exit(3)

    _emit(_json_payload({"method": method, **report}), _resolve_out(out))
    sys.exit(0 if holds else 1)


@main.command("counterexample")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--json", "force_json", is_flag=True, help="Alias for --format json.")
@click.option("--out", default=None)
@click.option(
    "--scan", default=0, type=click.IntRange(min=0, max=MAX_SCAN_PAIRS),
    help="Also scan N random equal-mean pairs (JSON only).",
)
@click.option("--seed", default=0, type=int, show_default=True)
def cmd_counterexample(fmt, force_json, out, scan, seed):
    """Reproduce the four-atom counterexample and certify every exact value."""
    from .counterexample import VerificationError, analyze_counterexample

    if force_json:
        fmt = "json"
    if fmt == "csv" and scan:
        raise click.UsageError("--scan is reported only in JSON; use --format json")
    try:
        report = analyze_counterexample()
    except VerificationError as exc:
        click.echo(f"counterexample verification failed: {exc}", err=True)
        sys.exit(1)
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
        payload = _csv_payload([flat], list(flat.keys()))
    else:
        if scan > 0:
            data["scan"] = report_data(_scan_for_violations(scan, seed))
        payload = _json_payload(data)
    _emit(payload, _resolve_out(out))


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


@main.command("hoeffding")
@click.argument("ps", nargs=-1)
@click.option(
    "--random", "random_count", default=0,
    type=click.IntRange(min=0, max=MAX_RANDOM_INSTANCES),
    help="Check N random instances.",
)
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--n-max", default=8, type=int, show_default=True)
@click.option("--denom", default=20, type=int, show_default=True)
@click.option("--out", default=None)
def cmd_hoeffding(ps, random_count, seed, n_max, denom, out):
    """Check sums of independent Bernoulli draws against the pooled binomial.

    Pass explicit probabilities (`hoeffding 1/4 3/4`) or `--random N` for a
    seeded batch; exits 0 only if every instance satisfies the order.
    """
    import random

    from .randomgen import random_probability
    from .rasa import MAX_LATTICE_LENGTH, verify_hoeffding

    if len(ps) > MAX_LATTICE_LENGTH:
        raise click.UsageError(
            f"{len(ps)} probabilities given, above the limit of {MAX_LATTICE_LENGTH}"
        )
    if random_count:
        for name, value, limit in (
            ("--n-max", n_max, MAX_LATTICE_LENGTH),
            ("--denom", denom, MAX_HOEFFDING_DENOM),
        ):
            if value > limit:
                raise click.UsageError(f"{name} is {value}, above the limit of {limit}")
    instances = []
    try:
        if ps:
            instances.append([as_rational(p) for p in ps])
        if random_count:
            if n_max < 1 or denom < 2:
                raise ParameterError("need --n-max >= 1 and --denom >= 2")
            rng = random.Random(seed)
            for _ in range(random_count):
                n = rng.randint(1, n_max)
                instances.append([random_probability(rng, denom) for _ in range(n)])
        if not instances:
            raise click.UsageError("pass probabilities or --random N")
        rows = []
        all_hold = True
        for inst in instances:
            verdict = verify_hoeffding(inst)
            all_hold = all_hold and verdict.holds
            rows.append({"ps": ";".join(str(p) for p in inst), "holds": verdict.holds})
    except (FormatError, ParameterError) as exc:
        click.echo(f"invalid probability: {exc}", err=True)
        sys.exit(2)
    _emit(
        _json_payload({"command": "hoeffding", "all_hold": all_hold, "instances": rows}),
        _resolve_out(out),
    )
    if not all_hold:
        sys.exit(1)


@main.command("psi-pattern")
@click.option("--n", required=True, type=int)
@click.argument("xs", nargs=-1, required=True)
@click.option("--out", default=None)
def cmd_psi_pattern(n, xs, out):
    """Sign pattern of the mass gap between mixture and pooled binomial.

    Exits 0 when the pattern has the expected +,-,+ shape with exactly two
    sign changes; 2 on invalid or degenerate input.
    """
    from .rasa import psi_sign_pattern

    try:
        pattern = psi_sign_pattern(n, [as_rational(x) for x in xs])
    except (FormatError, ParameterError) as exc:
        click.echo(f"invalid input: {exc}", err=True)
        sys.exit(2)
    shape_ok = (
        pattern.change_count == 2
        and pattern.values[0] > 0
        and pattern.values[-1] > 0
    )
    _emit(
        _json_payload({"command": "psi-pattern", "n": n, **report_data(pattern)}),
        _resolve_out(out),
    )
    if not shape_ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
