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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Sequence

from .convex_functions import KNOWN_FUNCTION_GROUPS, builtin_family
from .distributions import ParameterError
from .lattice import dot, probe_table
from .rasa import MAX_LATTICE_LENGTH, lattice_point

__all__ = [
    "RunConfig",
    "MAX_GRID_POINTS",
    "farey_fractions",
    "grid_size",
    "run_sweep",
    "KNOWN_FUNCTION_GROUPS",
]

MAX_GRID_POINTS = 100_000
"""The most grid points one sweep accepts.

Every row is held until the report is written: 73,696 points
(``--n 1..4 --m 3 --denom 12``) take about 150 MB and 8 s serially on one
2-core x86-64 host, so this bounds a sweep at roughly 200 MB.
"""


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
    """Configuration of one sweep: ranges, grid bound, probe functions.

    ``n_values`` and ``m_values`` ascend and may be ``range`` objects: the
    grid is counted from their lengths before any check iterates them, so a
    huge range is rejected without being built, and the largest m * n is read
    from their ends.
    """

    n_values: Sequence[int]
    m_values: Sequence[int]
    denominator: int
    seed: int = 0
    jobs: int = 1
    functions: tuple[str, ...] = KNOWN_FUNCTION_GROUPS

    def __post_init__(self) -> None:
        if not self.n_values or not self.m_values:
            raise ParameterError("n and m ranges must be nonempty")
        if self.denominator < 2:
            raise ParameterError("denominator bound must be >= 2")
        # Counted before the checks below iterate the values, and after the
        # denominator check: with 3 or more parameter values the count of a
        # huge m passes the limit within a few hundred factors.
        points = grid_size(self)
        if points > MAX_GRID_POINTS:
            raise ParameterError(
                f"the grid has at least {points} points, "
                f"above the limit of {MAX_GRID_POINTS}"
            )
        if any(n < 1 for n in self.n_values):
            raise ParameterError("n values must be >= 1")
        if any(m < 2 for m in self.m_values):
            raise ParameterError("m values must be >= 2")
        length = self.m_values[-1] * self.n_values[-1]
        if length > MAX_LATTICE_LENGTH:
            raise ParameterError(
                f"m * n reaches {length}, above the limit of {MAX_LATTICE_LENGTH}"
            )
        if self.jobs < 1:
            raise ParameterError("jobs must be >= 1")
        if not self.functions:
            raise ParameterError("at least one test-function group is required")
        unknown = set(self.functions) - set(KNOWN_FUNCTION_GROUPS)
        if unknown:
            raise ParameterError(f"unknown function groups: {sorted(unknown)}")


def _farey_size(max_den: int) -> int:
    """len(farey_fractions(max_den)): 1 plus Euler's phi(q) summed over q."""
    phi = list(range(max_den + 1))
    for p in range(2, max_den + 1):
        if phi[p] == p:
            for k in range(p, max_den + 1, p):
                phi[k] -= phi[k] // p
    return 1 + sum(phi[1:])


def _count_points(config: RunConfig, values: int) -> int:
    """Grid points over ``values`` parameters, or a lower bound once above the limit.

    Each (n, m) has C(values + m - 1, m) sorted parameter tuples, built up
    one factor at a time so that the count stops as soon as it passes
    ``MAX_GRID_POINTS``.
    """
    total = 0
    for m in config.m_values:
        tuples = 1
        for i in range(1, m + 1):
            tuples = tuples * (values + i - 1) // i
            if tuples > MAX_GRID_POINTS:
                break
        total += len(config.n_values) * tuples
        if total > MAX_GRID_POINTS:
            break
    return total


def grid_size(config: RunConfig) -> int:
    """The number of grid points, counted without building the grid.

    Exact up to ``MAX_GRID_POINTS``; above it, a lower bound that is still
    above the limit.  The Farey set has at least ``denominator + 1``
    members, so a huge bound is rejected before its exact size is sieved.
    """
    points = _count_points(config, config.denominator + 1)
    if points > MAX_GRID_POINTS:
        return points
    return _count_points(config, _farey_size(config.denominator))


@lru_cache(maxsize=16)
def _probe_table(
    points: int, functions: tuple[str, ...], seed: int
) -> tuple[list[list[int]], int]:
    """The selected probe groups' values at k / points, over one denominator.

    Angles sit at every grid point k / points; the other groups do not
    depend on the grid point.  Built once per (points, groups, seed) in each
    worker, so tasks carry only the group names and the seed.
    """
    return probe_table(points, builtin_family(points, groups=functions, seed=seed))


def grid_tasks(config: RunConfig) -> list[tuple]:
    """All grid points in deterministic lexicographic order."""
    values = farey_fractions(config.denominator)
    tasks = []
    for n in config.n_values:
        for m in config.m_values:
            for xs in combinations_with_replacement(values, m):
                tasks.append((n, m, xs, config.functions, config.seed))
    return tasks


def evaluate_grid_point(task: tuple) -> dict:
    """Verdicts and the minimal form value at one grid point (pure).

    One set of lattice laws decides the three relations and gives the form's
    integer coefficients; every probe is then one integer dot product.
    """
    n, m, xs, functions, seed = task
    point = lattice_point(n, xs)
    verdicts = point.verdicts()
    coeff = point.form_coefficients()
    rows, den = _probe_table(m * n, functions, seed)
    min_form = Fraction(min(dot(coeff.nums, row) for row in rows), coeff.den * den)
    ok = verdicts.all_hold and min_form >= 0
    return {
        "n": n,
        "m": m,
        "xs": ";".join(str(x) for x in xs),
        "verdict_a": verdicts.sum_vs_pooled.holds,
        "verdict_b": verdicts.pooled_vs_mixture.holds,
        "verdict_c": verdicts.sum_vs_mixture.holds,
        "min_form": str(min_form),
        "ok": ok,
    }


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
