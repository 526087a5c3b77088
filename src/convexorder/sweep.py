"""Deterministic grid sweeps over the inequality verifiers.

A sweep enumerates grid points lexicographically in (n, m, sorted parameter
tuple), where the parameters run over all reduced fractions in [0, 1] with
denominator up to a bound.  Those fractions are built and bounded once per
grid, with their int numerators, denominators and report text.  Each
stride walks the grid one (n, m) block at a time.  A block builds each
value's binomial law of degree mn, the parts of every mixture in the
block, and lets them go before the next block builds its own.  Every
built-in probe is convex, so where the angles are probed and relation (c)
holds, the point's three verdicts, read as bools, and the sum of its form's
coefficients give the form's minimum, 0, with no probe evaluated (see
``evaluate_grid_point``).  Where the angles are probed and the block's
lattice is short (``lattice._point_packing``), each law is one packed int
and ``lattice._packed_gaps`` gives those bools and that sum with no list.
Any other block, and a row of a packed block that needs the form's
coefficients, hands its int pairs and list laws straight to
``lattice.point_from_pairs``, which takes the independent sum as one
packed int power and returns the point's stop-loss table: its three gaps
and its form coefficients.  A row whose minimum is not read as 0 takes
the angles' minimum from gap (c) and meets every other probe in one
integer dot product with the form's coefficients: a stride builds its
probe family, and a block its probe table, only once a row needs them, so
a sweep whose rows relation (c) decides does not load
``convex_functions``.  A sweep keeps no cache, and
loads neither ``rasa`` nor the ``DiscreteDistribution`` route.  Each point
is evaluated by a pure function into one plain tuple, its values in
``ROW_FIELDS`` order, so the grid can be split into strides: each stride
reads every ``jobs``-th point of each block, forked children evaluate all
strides but the first, the parent evaluates the first, and each child's
rows come back over a pipe as one ``marshal`` string.  Rows are always put
back in grid order, and a stride whose child fails is evaluated in the
parent, so reports are byte-identical for a fixed configuration and seed
regardless of the parallelism degree.
"""

from __future__ import annotations

import marshal
import math
import os
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, islice, repeat
from typing import Sequence

from ._base import KNOWN_FUNCTION_GROUPS, _Value
from .exact import ParameterError, _quoted, binomial_numerators
from .lattice import (
    MAX_LATTICE_LENGTH,
    StopLossTable,
    _holds,
    _packed_gaps,
    _Packing,
    _point_packing,
    dot,
    point_from_pairs,
    probe_table,
)

__all__ = [
    "RunConfig",
    "MAX_GRID_POINTS",
    "ROW_FIELDS",
    "farey_fractions",
    "grid_size",
    "run_sweep",
    "sweep_rows",
]

MAX_GRID_POINTS = 100_000
"""The most grid points one sweep accepts.

Every row is held as a tuple until the report is written, and the report is
written in chunks: 73,696 points (``--n 1..4 --m 3 --denom 12``, a 13.6 MB
report) peak at 34.5 MB with one job and 32 MB with two, and take 5.1 s
serially and 2.6 s with two jobs (medians of five runs) on one 2-core
x86-64 host with Python 3.11, so this bounds a sweep at roughly 42 MB and
7 s of one core.
"""


ROW_FIELDS = ("n", "m", "xs", "verdict_a", "verdict_b", "verdict_c", "min_form", "ok")
"""The fields of a grid point's row, in the order of its tuple: n and m as
ints, the parameters joined by ";" and the minimal form value as `p/q`
strings, and the three verdicts and ``ok``, which comes last, as bools."""


def farey_fractions(max_den: int) -> list[Fraction]:
    """All reduced fractions in [0, 1] with denominator <= max_den, sorted.

    The Farey sequence comes in order from its next-term recurrence: after
    a/b and c/d comes (k c - a) / (k d - b) with k = (max_den + b) // d.  A
    bound whose set has more than ``MAX_GRID_POINTS`` values, more than any
    sweep can use, is rejected: 572 is the largest bound accepted (99 645
    values).  The set has at least max_den + 1 values, so a bound of
    ``MAX_GRID_POINTS`` or more is rejected before its size is sieved.
    """
    if max_den < 1:
        raise ParameterError("denominator bound must be >= 1")
    if max_den >= MAX_GRID_POINTS or _farey_size(max_den) > MAX_GRID_POINTS:
        raise ParameterError(
            f"denominator bound {_quoted(max_den)} gives more than {MAX_GRID_POINTS} fractions"
        )
    a, b, c, d = 0, 1, 1, max_den
    values = [Fraction(0)]
    while a < b:
        k = (max_den + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        values.append(Fraction(a, b))
    return values


class RunConfig(_Value):
    """Configuration of one sweep: ranges, grid bound, probe functions.

    ``n_values`` and ``m_values`` may be ``range`` objects: the grid is
    counted from their lengths before any check iterates them, so a huge
    range is rejected without being built.  Both must strictly ascend, which
    is checked once the count has bounded their lengths, so the least n and
    m and the largest m * n are read from their ends.  A configuration is
    immutable and compares by value.
    """

    __slots__ = ("n_values", "m_values", "denominator", "seed", "jobs", "functions")

    def __init__(
        self,
        n_values: Sequence[int],
        m_values: Sequence[int],
        denominator: int,
        seed: int = 0,
        jobs: int = 1,
        functions: tuple[str, ...] = KNOWN_FUNCTION_GROUPS,
    ) -> None:
        self._fill(n_values, m_values, denominator, seed, jobs, functions)
        if not self.n_values or not self.m_values:
            raise ParameterError("n and m ranges must be nonempty")
        if self.denominator < 2:
            raise ParameterError("denominator bound must be >= 2")
        # Read as the least values, which they are once both ascend; checked
        # before the grid is counted: m = 0 counts one tuple per n whatever
        # the bound, so the count would go on to sieve a huge Farey set.
        if self.n_values[0] < 1:
            raise ParameterError("n values must be >= 1")
        if self.m_values[0] < 2:
            raise ParameterError("m values must be >= 2")
        # Counted after the denominator check: with 3 or more parameter
        # values the count of a huge m passes the limit within a few hundred
        # factors.
        points = grid_size(self)
        if points > MAX_GRID_POINTS:
            raise ParameterError(
                f"the grid has at least {_quoted(points)} points, "
                f"above the limit of {MAX_GRID_POINTS}"
            )
        for name, values in (("n", self.n_values), ("m", self.m_values)):
            if any(a >= b for a, b in zip(values, values[1:])):
                raise ParameterError(f"{name} values must strictly ascend")
        length = self.m_values[-1] * self.n_values[-1]
        if length > MAX_LATTICE_LENGTH:
            raise ParameterError(
                f"m * n reaches {length}, above the limit of {MAX_LATTICE_LENGTH}"
            )
        if self.jobs < 1:
            raise ParameterError("jobs must be >= 1")
        # random.Random seeds from the absolute value: -7 would draw as 7.
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {_quoted(self.seed)}")
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


def grid_tasks(config: RunConfig) -> list[tuple]:
    """All grid points in deterministic lexicographic order, as
    (n, m, parameters as Fractions, function groups, seed)."""
    values = farey_fractions(config.denominator)
    return [
        (n, m, xs, config.functions, config.seed)
        for n in config.n_values
        for m in config.m_values
        for xs in combinations_with_replacement(values, m)
    ]


class _Probes:
    """A stride's probes: whether the angles are probed, and every other
    group as one (n, m) block's probe table.

    The family of those groups, which does not depend on the lattice, is
    built once per stride, and the table once per block, each only when a
    row first needs it: a row that relation (c) decides needs neither.
    """

    __slots__ = ("angles", "groups", "seed", "family", "points", "table")

    def __init__(self, functions: Sequence[str], seed: int) -> None:
        self.angles = "angles" in functions
        self.groups = tuple(g for g in functions if g != "angles")
        self.seed = seed
        self.family = None
        self.start(0)

    def start(self, points: int) -> None:
        """Move to a block on the lattice 0..points, its table not yet built."""
        self.points = points
        self.table = None

    def rows(self) -> tuple[list[list[int]], int]:
        """The block's probe table: one row per probe but the angles, and
        the rows' common denominator (``lattice.probe_table``)."""
        if self.table is None:
            if self.family is None:
                from .convex_functions import builtin_family

                self.family = builtin_family(1, groups=self.groups, seed=self.seed)
            self.table = probe_table(self.points, self.family)
        return self.table


def _stride(config: RunConfig, start: int, jobs: int) -> list[tuple]:
    """The rows of every ``jobs``-th grid point from the ``start``-th on.

    Each parameter value is its reduced int pair and its text, built once.
    The grid is walked one (n, m) block at a time: each block builds each
    value's binomial law of degree mn once, packed where
    ``lattice._point_packing`` packs the block and as a list of numerators
    elsewhere, and every point of the block reads them, and the block's
    probe table when it needs one (``_Probes``).
    """
    fractions = [
        ((x.numerator, x.denominator), str(x)) for x in farey_fractions(config.denominator)
    ]
    probes = _Probes(config.functions, config.seed)
    rows: list[tuple] = []
    offset = 0  # the grid index of the block's first point
    for n in config.n_values:
        for m in config.m_values:
            mn = m * n
            probes.start(mn)
            packing = _point_packing(n, m, config.denominator) if probes.angles else None
            law = binomial_numerators if packing is None else packing.law
            values = [(pair, text, law(mn, *pair)) for pair, text in fractions]
            block = combinations_with_replacement(values, m)
            first = (start - offset) % jobs
            rows += [
                evaluate_grid_point(n, m, xs, probes, packing)
                for xs in islice(block, first, None, jobs)
            ]
            offset += math.comb(len(values) + m - 1, m)
            # The spent iterator holds its own tuple of the laws: drop both,
            # so the next block's laws are built with none of these alive.
            del values, block
    return rows


def evaluate_grid_point(
    n: int, m: int, xs: tuple, probes: _Probes, packing: _Packing | None = None
) -> tuple:
    """Verdicts and the minimal form value at one grid point.

    ``xs`` holds each parameter as its reduced int pair, its text and its
    binomial law of degree mn: its numerators, or, where the block's
    ``packing`` is given, the law that packing packs (``_Packing.law``).
    ``probes`` holds the stride's probes, moved to this point's block.  The
    row depends on these alone: the block's probe table, built when a row
    first needs it, is the same whichever row asks.  On the list route one
    stop-loss table holds the point's form coefficients and its three gaps,
    and each relation holds when its gap does (``lattice._holds``, the test
    ``gap_verdict`` makes first).  A packed point's three gaps are three
    ints, each read by one masked compare (``_Packing.holds``), and its
    form's sum is read from F mod (X - 1).

    By the bridge identity the form is m (E_mixed f - E_sum f), and every
    built-in probe is convex.  So where relation (c), sum <=_cx mixture,
    holds, no probe's form value is negative, and the angle at 1 gives
    gap (c) at mn, which is 0: with the angles probed, the minimum is 0,
    and the row reads it without evaluating a probe.  Gap (c) is pi(form),
    and the stop-loss map pi reads every coefficient of the form but the
    one at 0; the sum of the form's coefficients, 0 since both laws have
    mass 1, pins that one, so the row reads 0 only where that sum is 0 too.
    Any other row takes the minimum over every probe (``_form_minimum``),
    on a packed block from the list route's table, for which the row builds
    its own m laws.
    Returns the row's values in ``ROW_FIELDS`` order.
    """
    pairs, texts, laws = zip(*xs)
    if packing is not None:
        gap_a, gap_b, gap_c, balanced = _packed_gaps(n, pairs, laws, packing)
        if packing.holds(gap_c) and balanced and probes.angles:
            holds_a, holds_b = packing.holds(gap_a), packing.holds(gap_b)
            return (n, m, ";".join(texts), holds_a, holds_b, True, "0", holds_a and holds_b)
        laws = (binomial_numerators(m * n, p, q) for p, q in pairs)
    table = point_from_pairs(n, pairs, laws)
    holds_a = _holds(table.sum_vs_pooled)
    holds_b = _holds(table.pooled_vs_mixture)
    holds_c = _holds(table.sum_vs_mixture)
    if holds_c and probes.angles and not sum(table.form):
        min_form, nonnegative = "0", True
    else:
        min_form, nonnegative = _form_minimum(m * n, table, probes)
    return (
        n,
        m,
        ";".join(texts),
        holds_a,
        holds_b,
        holds_c,
        min_form,
        holds_a and holds_b and holds_c and nonnegative,
    )


def _form_minimum(mn: int, table: StopLossTable, probes: _Probes) -> tuple[str, bool]:
    """The form's minimum over every probe at one point, as ``str`` writes
    its Fraction, and whether it is nonnegative.

    By the bridge identity, the form on the angle at j / (mn) is relation
    (c)'s gap at j over mn L^(mn), so the angles' minimum is that vector's
    minimum.  Every other probe is one integer dot product with the form's
    coefficients.
    """
    rows, den = probes.rows()
    # Both minima over mn L^(mn) P, P the probe table's denominator.
    minima = []
    if rows:
        minima.append(min(map(dot, repeat(table.form), rows)) * mn)
    if probes.angles:
        minima.append(min(table.sum_vs_mixture) * den)
    num = min(minima)
    return str(Fraction(num, mn * table.the_sum.den * den)), num >= 0


def _available_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _single_threaded() -> bool:
    """Whether this process runs one thread, so that a fork copies no lock
    another thread holds.

    Linux lists every thread, Python's or not, under ``/proc/self/task``;
    elsewhere the threads started through ``threading`` are counted.
    """
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        import threading

        return threading.active_count() == 1


def _fork_stride(config: RunConfig, start: int, jobs: int) -> tuple[int, int]:
    """Fork a child that writes the rows of ``_stride(config, start, jobs)``
    to a pipe.

    The rows go as one ``marshal`` string, written through a file object on
    the pipe's write end; the child leaves through ``os._exit``, with
    status 0 only once all of it is written.  A child whose evaluation
    raises writes the exception's one-line summary instead and exits with
    status 1.  Returns the child's pid and the pipe's read end.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload, done = _stride(config, start, jobs), 0
            except Exception as exc:
                text = str(exc).split("\n", 1)[0]
                payload, done = f"{type(exc).__name__}: {text}".removesuffix(": "), 1
            with open(write_fd, "wb") as pipe:
                pipe.write(marshal.dumps(payload))
            status = done
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _collect_stride(pid: int, read_fd: int, count: int) -> tuple[list | None, str]:
    """Read a child's rows to the end of its pipe through a file object,
    which closes the pipe, and reap the child.

    Returns the ``count`` rows, or ``None`` and why they are unusable.
    """
    try:
        with open(read_fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if os.WIFSIGNALED(status):
        return None, f"the child was killed by signal {os.WTERMSIG(status)}"
    try:
        rows = marshal.loads(data)
    except (EOFError, ValueError, TypeError):
        rows = None
    if os.WEXITSTATUS(status) != 0:
        if isinstance(rows, str):
            return None, f"the child raised {rows}"
        return None, f"the child exited with status {os.WEXITSTATUS(status)}"
    if rows is None:
        return None, "the child's rows are unreadable"
    if not isinstance(rows, list) or len(rows) != count:
        return None, "the child's rows are short"
    return rows, ""


def _strided_rows(config: RunConfig, points: int, jobs: int) -> list[tuple]:
    """Evaluate the grid's strides i >= 1 of ``jobs`` in forked children and
    stride 0 here, then put the ``points`` rows back in grid order.

    A stride whose child cannot be forked, fails or sends unusable rows is
    evaluated here, and one line on stderr names it and the cause.  Every
    pipe is closed and every child reaped, also when this process raises.
    """
    rows: list = [None] * points
    children: dict[int, tuple[int, int]] = {}
    unforked: dict[int, str] = {}
    try:
        for start in range(1, jobs):
            try:
                children[start] = _fork_stride(config, start, jobs)
            except OSError as exc:
                unforked[start] = f"fork failed: {exc}"
        rows[0::jobs] = _stride(config, 0, jobs)
        for start in range(1, jobs):
            if start in children:
                pid, read_fd = children.pop(start)
                stride, cause = _collect_stride(pid, read_fd, len(range(start, points, jobs)))
            else:
                stride, cause = None, unforked[start]
            if stride is None:
                sys.stderr.write(
                    f"convexorder: stride {start} of {jobs} evaluated in the "
                    f"parent: {cause}\n"
                )
                stride = _stride(config, start, jobs)
            rows[start::jobs] = stride
    finally:
        if children:
            import signal

            for pid, read_fd in children.values():
                os.close(read_fd)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return rows


def sweep_rows(config: RunConfig) -> tuple[list[tuple], bool]:
    """Evaluate the whole grid: its rows as tuples in ``ROW_FIELDS`` order,
    in grid order, and whether every row is ok.

    ``config.jobs`` is clamped to the CPUs this process may use and to the
    grid's size, and to one job on a platform without ``os.fork`` or while
    more than one thread runs.  The grid is split into ``jobs`` strides:
    ``jobs - 1`` forked children evaluate one each and this process the
    first (see ``_strided_rows``), so one job forks nothing and gives the
    same rows.
    """
    points = grid_size(config)
    jobs = min(config.jobs, _available_cpus(), points)
    if not (hasattr(os, "fork") and _single_threaded()):
        jobs = 1
    rows = _strided_rows(config, points, jobs)
    return rows, all(row[-1] for row in rows)


def run_sweep(config: RunConfig) -> tuple[list[dict], bool]:
    """``sweep_rows``, each row a dict of ``ROW_FIELDS`` to its values."""
    rows, ok = sweep_rows(config)
    return [dict(zip(ROW_FIELDS, row)) for row in rows], ok
