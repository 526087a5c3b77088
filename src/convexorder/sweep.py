"""Deterministic grid sweeps over the inequality verifiers.

A sweep enumerates grid points lexicographically in (n, m, sorted parameter
tuple), where the parameters run over all reduced fractions in [0, 1] with
denominator up to a bound.  Each point is evaluated by a pure function, so
the work can be farmed out to a process pool; rows are always reduced in
grid order, making reports byte-identical for a fixed configuration and seed
regardless of the parallelism degree.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from .convex_functions import KNOWN_FUNCTION_GROUPS, builtin_family
from .distributions import ParameterError
from .lattice import dot, probe_table
from .rasa import lattice_point

__all__ = ["RunConfig", "farey_fractions", "run_sweep", "KNOWN_FUNCTION_GROUPS"]


def farey_fractions(max_den: int, include_ends: bool = True) -> list[Fraction]:
    """All reduced fractions in [0, 1] with denominator <= max_den, sorted."""
    if max_den < 1:
        raise ParameterError("denominator bound must be >= 1")
    values = {Fraction(p, q) for q in range(1, max_den + 1) for p in range(q + 1)}
    if not include_ends:
        values -= {Fraction(0), Fraction(1)}
    return sorted(values)


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one sweep: ranges, grid bound, probe functions."""

    n_values: tuple[int, ...]
    m_values: tuple[int, ...]
    denominator: int
    seed: int = 0
    jobs: int = 1
    functions: tuple[str, ...] = KNOWN_FUNCTION_GROUPS
    timing: bool = False

    def __post_init__(self) -> None:
        if not self.n_values or not self.m_values:
            raise ParameterError("n and m ranges must be nonempty")
        if any(n < 1 for n in self.n_values):
            raise ParameterError("n values must be >= 1")
        if any(m < 2 for m in self.m_values):
            raise ParameterError("m values must be >= 2")
        if self.denominator < 2:
            raise ParameterError("denominator bound must be >= 2")
        if self.jobs < 1:
            raise ParameterError("jobs must be >= 1")
        if not self.functions:
            raise ParameterError("at least one test-function group is required")
        unknown = set(self.functions) - set(KNOWN_FUNCTION_GROUPS)
        if unknown:
            raise ParameterError(f"unknown function groups: {sorted(unknown)}")


@lru_cache(maxsize=16)
def _probe_table(
    points: int, functions: tuple[str, ...], seed: int
) -> tuple[list[list[int]], int]:
    """The selected probe groups' values at k / points, over one denominator.

    Angles sit at every grid point k / points; the other groups do not
    depend on the grid point.  Built once per (points, groups, seed) in each
    worker, so tasks carry only the group names and the seed.
    """
    options: dict = {"seed": seed}
    if "monomials" not in functions:
        options["monomial_degrees"] = ()
    if "random-pwl" not in functions:
        options["random_count"] = 0
    if "affine" not in functions:
        options["include_affine"] = False
    family = builtin_family(points, **options)
    if "angles" not in functions:
        family = family[points + 1 :]
    return probe_table(points, family)


def grid_tasks(config: RunConfig) -> list[tuple]:
    """All grid points in deterministic lexicographic order."""
    values = farey_fractions(config.denominator)
    tasks = []
    for n in config.n_values:
        for m in config.m_values:
            for xs in combinations_with_replacement(values, m):
                tasks.append((n, m, xs, config.functions, config.seed, config.timing))
    return tasks


def evaluate_grid_point(task: tuple) -> dict:
    """Verdicts and the minimal form value at one grid point (pure).

    One set of lattice laws decides the three relations and gives the form's
    integer coefficients; every probe is then one integer dot product.
    """
    n, m, xs, functions, seed, timing = task
    started = time.perf_counter()
    point = lattice_point(n, xs)
    verdicts = point.verdicts()
    coeff = point.form_coefficients()
    rows, den = _probe_table(m * n, functions, seed)
    min_form = Fraction(min(dot(coeff.nums, row) for row in rows), coeff.den * den)
    ok = verdicts.all_hold and min_form >= 0
    row = {
        "n": n,
        "m": m,
        "xs": ";".join(str(x) for x in xs),
        "verdict_a": verdicts.sum_vs_pooled.holds,
        "verdict_b": verdicts.pooled_vs_mixture.holds,
        "verdict_c": verdicts.sum_vs_mixture.holds,
        "min_form": str(min_form),
        "ok": ok,
    }
    if timing:
        row["wall_ms"] = round((time.perf_counter() - started) * 1000, 3)
    return row


def _available_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(config: RunConfig) -> tuple[list[dict], bool]:
    """Evaluate the whole grid; rows come back in grid order.

    ``config.jobs`` is clamped to the CPUs this process may use and to the
    task count, and the pool runs only when that leaves more than one
    worker.  It is imported only then: ``concurrent.futures.process`` pulls in
    ``multiprocessing``, which would otherwise cost every serial run.  A pool
    that cannot start or whose workers die falls back to the serial path.
    """
    tasks = grid_tasks(config)
    jobs = min(config.jobs, _available_cpus(), len(tasks))
    if jobs > 1:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                chunk = max(1, len(tasks) // (jobs * 4))
                rows = list(pool.map(evaluate_grid_point, tasks, chunksize=chunk))
        except (OSError, BrokenExecutor):
            rows = [evaluate_grid_point(t) for t in tasks]
    else:
        rows = [evaluate_grid_point(t) for t in tasks]
    return rows, all(row["ok"] for row in rows)
