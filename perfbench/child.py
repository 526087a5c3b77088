"""Work done inside one fresh benchmark child process.

Usage: python3 perfbench/child.py MODE SPEC_JSON SEED

``run.py`` starts every child with ``src`` on ``PYTHONPATH`` and reads the
single JSON object each mode prints.  Modes:

* ``setup``      compare-large set-up only: import the package, make inputs.
* ``compare``    compare-large untraced: build and decide every instance.
* ``run-sweep``  a serial ``sweep.run_sweep``, then the same grid through
                 ``verify-rasa`` in-process with ``CliRunner``, then a
                 second, warm ``run_sweep``.
* ``trace``      the traced recomposition of the workload from public calls.

The traced recomposition never patches the package: it wraps calls into
each module's public functions from outside, one span per call.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def compare_instances(spec: dict, seed: int) -> list[list[Fraction]]:
    """Seeded Bernoulli parameter lists, one per size in ``spec["sizes"]``.

    The seed draws each parameter's numerator and the order of the
    parameters.  The Fraction cost grows with the denominators' bit length,
    so they are fixed to keep one instance the same amount of work for every
    seed: q cycles through 2..max_den and p is drawn coprime to q.  The pooled
    binomial's masses carry the n-th power of the reduced denominator of
    mean(ps), so a draw is kept only when that denominator is n * lcm(q)
    reduced by at most a factor 2.  Parity can force the factor 2; nothing
    forces more for these sizes.
    """
    rng = random.Random(seed)
    out = []
    for n in spec["sizes"]:
        qs = [2 + i % (spec["max_den"] - 1) for i in range(n)]
        for _ in range(10_000):
            rng.shuffle(qs)
            ps = [
                Fraction(rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1]), q)
                for q in qs
            ]
            if 2 * (sum(ps, Fraction(0)) / n).denominator >= n * math.lcm(*qs):
                break
        else:
            raise ValueError(f"no parameter draw of size {n} keeps the full denominator")
        out.append(ps)
    return out


def sweep_argv(spec: dict, seed: int, jobs: int) -> list[str]:
    """``verify-rasa`` arguments for a sweep workload."""
    return [
        "verify-rasa", "--n", "{}..{}".format(*spec["n"]), "--m", str(spec["m"]),
        "--denom", str(spec["denom"]), "--seed", str(seed), "--jobs", str(jobs),
    ]


def _sweep_config(spec: dict, seed: int):
    from convexorder.sweep import RunConfig

    lo, hi = spec["n"]
    return RunConfig(
        n_values=tuple(range(lo, hi + 1)),
        m_values=(spec["m"],),
        denominator=spec["denom"],
        seed=seed,
        jobs=1,
    )


def _decide_both(pb, bn, n: int, call) -> list[dict]:
    """All four procedures on pb vs bn and on bn vs pb."""
    from convexorder import (
        cx_compare_oracle,
        levin_steckin_check,
        ohlin_check,
        szostok_decision,
    )

    a, b = Fraction(0), Fraction(n)
    out = []
    for lhs, rhs in ((pb, bn), (bn, pb)):
        oracle = call("cx_order.cx_compare_oracle", cx_compare_oracle, lhs, rhs)
        ls = call("cx_order.levin_steckin_check", levin_steckin_check, lhs, rhs, a, b)
        sz = call("cx_order.szostok_decision", szostok_decision, lhs, rhs, a, b)
        oh = call("cx_order.ohlin_check", ohlin_check, lhs, rhs)
        out.append({
            "oracle": oracle.holds,
            "witness": None if oracle.witness is None else str(oracle.witness),
            "levin_steckin": ls.holds,
            "szostok": sz.decision,
            "ohlin_applies": oh.applies,
            # The certificate: the angle at the witness separates the laws.
            "witness_certified": oracle.witness is not None
            and lhs.stop_loss(oracle.witness) > rhs.stop_loss(oracle.witness),
        })
    return out


def _plain_call(_name, fn, *args):
    return fn(*args)


def _compare_op(ps, call) -> tuple:
    """One compare-large operation: build both laws, decide both directions."""
    from convexorder import bernoulli, binomial, convolve_many

    n = len(ps)
    parts = [call("distributions.bernoulli", bernoulli, p) for p in ps]
    pb = call("distributions.convolve_many", convolve_many, parts)
    bn = call("distributions.binomial", binomial, n, sum(ps, Fraction(0)) / n)
    return pb, _decide_both(pb, bn, n, call)


def mode_setup(spec: dict, seed: int) -> dict:
    import convexorder  # noqa: F401  (import cost is part of set-up)

    compare_instances(spec, seed)
    return {}


def mode_compare(spec: dict, seed: int) -> dict:
    import convexorder  # noqa: F401

    records = []
    ops_s = 0.0
    for ps in compare_instances(spec, seed):
        started = time.perf_counter()
        try:
            _, decisions = _compare_op(ps, _plain_call)
            record = {"n": len(ps), "decisions": decisions}
        except Exception as exc:  # a failing operation is counted, not fatal
            record = {"n": len(ps), "error": repr(exc)}
        ops_s += time.perf_counter() - started
        records.append(record)
    return {"ops_s": ops_s, "records": records}


def mode_run_sweep(spec: dict, seed: int) -> dict:
    """A cold serial ``run_sweep``, ``verify-rasa`` through ``CliRunner``, and
    a warm ``run_sweep`` again.

    The CLI's own cost is the ``CliRunner`` time minus the warm ``run_sweep``
    time: both run with the package's caches filled, in one process, so the
    speed drift between two processes does not enter the difference.
    """
    from click.testing import CliRunner

    from convexorder.cli import main
    from convexorder.sweep import run_sweep

    config = _sweep_config(spec, seed)
    started = time.perf_counter()
    rows, _ = run_sweep(config)
    run_sweep_s = time.perf_counter() - started
    started = time.perf_counter()
    result = CliRunner().invoke(main, sweep_argv(spec, seed, jobs=1))
    cli_s = time.perf_counter() - started
    started = time.perf_counter()
    run_sweep(config)
    warm_run_sweep_s = time.perf_counter() - started
    try:
        cli_rows = json.loads(result.stdout)["rows"]
    except (ValueError, KeyError):
        cli_rows = []
    return {
        "run_sweep_s": run_sweep_s,
        "rows": rows,
        "cli_report_s": cli_s - warm_run_sweep_s,
        "cli_exit_code": result.exit_code,
        "cli_report_bytes": len(result.stdout_bytes),
        "cli_rows": cli_rows,
    }


class Tracer:
    """In-memory spans (name, start, end, parent index) plus per-layer counts."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.counts = {
            "distributions.atoms_out": 0,
            "distributions.max_mass_bits": 0,
            "cx_order.oracle_grid_points": 0,
            "cx_order.oracle_witnesses": 0,
        }

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def call(self, name: str, fn, *args):
        with self.span(name):
            out = fn(*args)
        # Counts are taken after the span closes, so they cost no layer time.
        # They read only `atoms`, never a cached property the package would
        # otherwise fill itself later inside a span.
        if name.startswith("distributions."):
            self.counts["distributions.atoms_out"] += len(out.atoms)
            bits = max(
                max(m.numerator.bit_length(), m.denominator.bit_length())
                for _, m in out.atoms
            )
            if bits > self.counts["distributions.max_mass_bits"]:
                self.counts["distributions.max_mass_bits"] = bits
        elif name == "cx_order.cx_compare_oracle" and out.means_equal:
            lhs, rhs = args
            grid = sorted(set(lhs.support) | set(rhs.support))
            if out.witness is None:
                scanned = len(grid)
            else:
                scanned = grid.index(out.witness) + 1
                self.counts["cx_order.oracle_witnesses"] += 1
            self.counts["cx_order.oracle_grid_points"] += scanned
        return out

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: total self time (span minus its children) and calls."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - child_time[i], calls + 1)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
                handle,
            )


def _trace_sweep(spec: dict, seed: int, tracer: Tracer) -> dict:
    from convexorder import (
        binomial,
        builtin_family,
        convolve_many,
        cx_compare_oracle,
        mixture,
        rasa_form_general,
    )
    from convexorder.sweep import grid_tasks

    config = _sweep_config(spec, seed)
    call = tracer.call
    families = {}
    rows = []
    tasks = call("sweep.grid_tasks", grid_tasks, config)
    for n, m, xs, *_ in tasks:
        with tracer.span("op"):
            parts = [call("distributions.binomial", binomial, n, x) for x in xs]
            the_sum = call("distributions.convolve_many", convolve_many, parts)
            pooled = call("distributions.binomial", binomial, m * n, sum(xs, Fraction(0)) / m)
            powers = [call("distributions.convolve_many", convolve_many, [p] * m) for p in parts]
            mixed = call("distributions.mixture", mixture, [Fraction(1, m)] * m, powers)
            verdicts = [
                call("cx_order.cx_compare_oracle", cx_compare_oracle, lhs, rhs)
                for lhs, rhs in ((the_sum, pooled), (pooled, mixed), (the_sum, mixed))
            ]
            if m * n not in families:
                families[m * n] = builtin_family(m * n, seed=seed)
            min_form = min(
                call("rasa.rasa_form_general", rasa_form_general, n, xs, f)
                for f in families[m * n]
            )
        rows.append({
            "n": n,
            "m": m,
            "xs": ";".join(str(x) for x in xs),
            "verdict_a": verdicts[0].holds,
            "verdict_b": verdicts[1].holds,
            "verdict_c": verdicts[2].holds,
            "min_form": str(min_form),
            "ok": all(v.holds for v in verdicts) and min_form >= 0,
        })
    return {"rows": rows}


def _trace_compare(spec: dict, seed: int, tracer: Tracer) -> dict:
    from convexorder import poisson_binomial

    instances = compare_instances(spec, seed)
    laws = []
    records = []
    for ps in instances:
        with tracer.span("op"):
            pb, decisions = _compare_op(ps, tracer.call)
        laws.append(pb)
        records.append({"n": len(ps), "decisions": decisions})
    # Recomposition check, outside the traced time.
    same_laws = [pb == poisson_binomial(ps) for pb, ps in zip(laws, instances)]
    return {"records": records, "same_laws": same_laws}


def mode_trace(spec: dict, seed: int) -> dict:
    from convexorder import bernstein_vector

    tracer = Tracer()
    started = time.perf_counter()
    if spec["kind"] == "sweep":
        out = _trace_sweep(spec, seed, tracer)
    else:
        out = _trace_compare(spec, seed, tracer)
    out["traced_s"] = time.perf_counter() - started
    info = getattr(bernstein_vector, "cache_info", None)
    hits, misses = (info().hits, info().misses) if info else (0, 0)
    out["bernstein_cache"] = {"hits": hits, "misses": misses}
    out["self_times"] = tracer.self_times()
    out["counts"] = tracer.counts
    tracer.write(OUT / f"trace-{spec['name']}-seed{seed}.json")
    return out


MODES = {
    "setup": mode_setup,
    "compare": mode_compare,
    "run-sweep": mode_run_sweep,
    "trace": mode_trace,
}


def main(argv: list[str]) -> int:
    mode, spec_json, seed = argv
    print(json.dumps(MODES[mode](json.loads(spec_json), int(seed))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
