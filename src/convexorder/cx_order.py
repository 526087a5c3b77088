"""Decision procedures for the convex stochastic order.

A distribution X precedes Y in the convex order (X <=_cx Y) when
E f(X) <= E f(Y) for every convex f with finite expectations.  On finitely
supported distributions the relation is decidable exactly, and this module
implements four routes to the decision:

* ``cx_compare_oracle`` -- the ground truth.  Equal means plus stop-loss
  dominance E(X - t)_+ <= E(Y - t)_+ at every point of the union of supports
  characterises the order (both stop-loss transforms are piecewise linear
  with kinks only at support points and vanish identically outside the
  supports' hull once means agree).
* ``ohlin_check`` -- the single-crossing sufficient condition: equal means
  and F_X <= F_Y left of some point and F_X >= F_Y right of it.
* ``levin_steckin_check`` -- equal endpoint values, equal total integral of
  the two distribution functions over [a, b], and dominance of all partial
  integrals; necessary and sufficient.
* ``szostok_decision`` -- when the CDF difference changes sign m times, the
  order is decided by the parity of m together with a chain of partial-sum
  inequalities on the segment areas A_0 .. A_m.

Conventions shared by all procedures:

* Distribution functions are left-continuous, F(x) = P(X < x).
* All comparisons are nonstrict, so a pair whose CDFs coincide on a
  neighbourhood of a crossing is still accepted as single-crossing.
* Every procedure is phrased as "does lhs <=_cx rhs hold"; callers never
  pass difference functions.
* A step CDF is constant on each interval (g_i, g_{i+1}] between adjacent
  points of the merged support grid, so evaluating on segments between grid
  points is exhaustive; a "point of sign change" is the left endpoint of the
  first segment on which the difference assumes its new sign (the crossing
  itself belongs to neither strict region).

All four procedures and ``crossing_points`` read one segment table per
ordered pair, built on the union of supports: a single pass over that grid
(``_segments``) gives F_rhs - F_lhs on every segment and its running integral from
the left end, in ints over common denominators.  Once means agree, that
running integral at t is the stop-loss gap E(rhs - t)_+ - E(lhs - t)_+, and
its total is mean(lhs) - mean(rhs).  The interval procedures first check
that both laws live in [a, b]; the running integral from a is then zero left
of the supports' hull and constant right of it, so a and b add nothing to
the table.  A pair's table is built once and reused by consecutive calls on
the same ordered pair, so running every procedure on one pair builds one
table.

Laws on the integer lattice need no segment table: there the stop-loss gap
at every lattice point comes from two running sums per law
(``lattice.stop_loss_numerators``), and ``lattice.gap_verdict`` reads it.
Both routes hand their gaps to ``exact._oracle_verdict``, the one verdict
reader, so equal laws get equal verdicts, witnesses included.  It and
``CxVerdict`` live in :mod:`.exact`, so the lattice route loads neither
this module nor ``distributions``; both names are re-exported here.  This
module reads laws only through their int numerators and never builds one,
so it imports ``distributions`` for type annotations alone.

The randomized corpora used to exercise these procedures are seeded
explicitly, so parallel batch runs are reproducible.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .exact import CxVerdict, ParameterError, _oracle_verdict, _quoted, as_rational

if TYPE_CHECKING:
    from .distributions import DiscreteDistribution

__all__ = [
    "CxVerdict",
    "OhlinReport",
    "LevinSteckinReport",
    "SzostokReport",
    "StandingHypothesisError",
    "sign_changes",
    "cx_compare_oracle",
    "ohlin_check",
    "crossing_points",
    "levin_steckin_check",
    "szostok_decision",
]


class StandingHypothesisError(ParameterError):
    """The inputs violate a procedure's standing hypotheses.

    Raised by ``szostok_decision`` when the total integral of the CDF
    difference over [a, b] is not zero (unequal means), so that a hypothesis
    violation is never conflated with a negative decision.
    """


class OhlinReport(NamedTuple):
    """Outcome of the single-crossing test.

    ``applies`` means the sufficient condition is met (equal means and the
    CDF difference F_lhs - F_rhs is <= 0 below ``crossing`` and >= 0 above
    it).  ``identical`` flags coinciding CDFs, in which case no crossing
    point is reported.
    """

    applies: bool
    crossing: Optional[Fraction]
    identical: bool


class LevinSteckinReport(NamedTuple):
    """The three integral conditions, each reported separately.

    ``endpoint_match`` compares the right limits F(b+), which agree once both
    laws live in [a, b], so it is true in every report.  ``integral_match``
    compares the exact integrals of the two distribution functions over
    [a, b] (equivalent to equal means), and ``partial_dominance`` asserts
    integral_a^x F_lhs <= integral_a^x F_rhs at every x in (a, b].  The
    conjunction is necessary and sufficient for lhs <=_cx rhs.
    """

    endpoint_match: bool
    integral_match: bool
    partial_dominance: bool

    @property
    def holds(self) -> bool:
        return self.endpoint_match and self.integral_match and self.partial_dominance

    def __bool__(self) -> bool:
        return self.holds


class SzostokReport(NamedTuple):
    """Sign-change analysis of F = F_rhs - F_lhs on [a, b].

    ``areas`` lists A_i = integral of |F| over the i-th segment cut by the
    sign-change points (one more area than points).  ``parity_ok`` requires
    an odd number of sign changes (vacuously true when F vanishes
    identically), ``partial_sums_ok`` checks the chain A_0 >= A_1,
    A_0 + A_2 >= A_1 + A_3, ...  The decision is the conjunction of parity,
    the partial-sum chain and nonnegativity of F on the first segment.
    """

    sign_change_points: tuple[Fraction, ...]
    areas: tuple[Fraction, ...]
    parity_ok: bool
    partial_sums_ok: bool
    first_segment_nonneg: bool
    decision: bool


class _Segments(NamedTuple):
    """F_rhs - F_lhs on the merged grid g_0 < ... < g_K, and its running integral.

    ``grid[i]`` is g_i times ``scale``, the grid's common denominator.
    ``diffs[i]`` is the constant value of the difference on (g_i, g_{i+1}],
    i < K, times the common mass denominator.  ``running[i] / den`` is its
    integral from g_0 to g_i, i <= K, so ``running[0] == 0`` and each step
    adds ``diffs[i]`` times the segment length in units of ``1 / scale``.
    """

    grid: list[int]
    diffs: list[int]
    running: list[int]
    den: int
    scale: int

    def point(self, i: int) -> Fraction:
        """The grid point g_i as a Fraction."""
        return Fraction(self.grid[i], self.scale)

    def value(self, num: int) -> Fraction:
        """A running-integral entry (or a sum of its steps) as a Fraction."""
        return Fraction(num, self.den)


@lru_cache(maxsize=1)
def _segments(dl: DiscreteDistribution, dr: DiscreteDistribution) -> _Segments:
    """The segment table of the pair on the union of supports.

    The laws' int numerators come to the common denominator of their mass
    denominators and grid points to ints over the least common denominator
    of all support points, so the pass itself only adds and multiplies ints.

    Callers run several procedures on one ordered pair in turn, so the last
    table is kept and reused.  Laws are immutable and compare structurally,
    so an equal key means an equal table; its lists are only ever read.
    """
    (points_l, unit_l), (nums_l, den_l) = dl.support_numerators, dl.mass_numerators
    (points_r, unit_r), (nums_r, den_r) = dr.support_numerators, dr.mass_numerators
    den = math.lcm(den_l, den_r)
    scale = math.lcm(unit_l, unit_r)
    jumps: dict[int, int] = {}  # grid point * scale -> jump of (F_rhs - F_lhs) * den
    for points, unit, nums, factor in (
        (points_l, unit_l, nums_l, -(den // den_l)),
        (points_r, unit_r, nums_r, den // den_r),
    ):
        stretch = scale // unit
        for p, v in zip(points, nums):
            key = p * stretch
            jumps[key] = jumps.get(key, 0) + v * factor
    grid = sorted(jumps)
    diffs = []
    running = [0]
    diff = 0
    for key, following in zip(grid, grid[1:]):
        diff += jumps[key]
        diffs.append(diff)
        running.append(running[-1] + diff * (following - key))
    return _Segments(grid, diffs, running, den * scale, scale)


def _sign_runs(values: Sequence) -> tuple[int, list[int]]:
    """The first nonzero sign of values (0 if none) and the indices where it alternates.

    Zero terms are discarded, so an index is the first term of a run of
    the new sign.
    """
    first = previous = 0
    changes: list[int] = []
    for i, v in enumerate(values):
        if v == 0:
            continue
        sign = 1 if v > 0 else -1
        if not previous:
            first = sign
        elif sign != previous:
            changes.append(i)
        previous = sign
    return first, changes


def sign_changes(values: Sequence[Fraction]) -> int:
    """Number of sign alternations after discarding zero terms."""
    return len(_sign_runs(values)[1])


def cx_compare_oracle(
    lhs: DiscreteDistribution, rhs: DiscreteDistribution
) -> CxVerdict:
    """Decide lhs <=_cx rhs exactly via the stop-loss characterisation.

    The stop-loss gap E(rhs - t)_+ - E(lhs - t)_+ at each point of the union
    of supports is read off the segment table's running integral, so the
    check is one O(K) pass.  The witness, when dominance fails with equal
    means, doubles as a certificate: the angle function at the witness is a
    convex function whose expectations violate the order.
    """
    table = _segments(lhs, rhs)
    return _oracle_verdict(
        -table.running[-1], zip(table.grid, table.running), table.den, table.scale
    )


def ohlin_check(lhs: DiscreteDistribution, rhs: DiscreteDistribution) -> OhlinReport:
    """Single-crossing sufficient condition for lhs <=_cx rhs.

    A step CDF is constant on each grid segment, so the segment signs of
    F_rhs - F_lhs are exhaustive: the condition holds when no negative
    segment precedes a positive one.  The laws are identical exactly when
    the difference is zero on every segment.
    """
    table = _segments(lhs, rhs)
    if table.running[-1]:  # unequal means
        return OhlinReport(applies=False, crossing=None, identical=False)
    first_sign, changes = _sign_runs(table.diffs)
    if len(changes) > 1 or (changes and first_sign < 0):
        return OhlinReport(applies=False, crossing=None, identical=False)
    # Crossing: left endpoint of the first segment where F_lhs - F_rhs is
    # strictly positive, after which it stays nonnegative.  With equal,
    # non-identical distributions both strict signs occur.
    crossing = next((table.point(i) for i, v in enumerate(table.diffs) if v < 0), None)
    return OhlinReport(applies=True, crossing=crossing, identical=first_sign == 0)


def crossing_points(
    lhs: DiscreteDistribution, rhs: DiscreteDistribution
) -> list[Fraction]:
    """Points of sign change of F_rhs - F_lhs, left-to-right.

    Each reported point is the left endpoint of the first grid segment on
    which the difference assumes its new sign; zero segments between runs of
    equal sign are discarded, matching the sign-change count convention.
    """
    table = _segments(lhs, rhs)
    return [table.point(i) for i in _sign_runs(table.diffs)[1]]


def _require_interval(
    lhs: DiscreteDistribution, rhs: DiscreteDistribution, a: Fraction, b: Fraction
) -> None:
    """Raise ParameterError unless a < b and both laws live in [a, b]."""
    a = as_rational(a)
    b = as_rational(b)
    if a >= b:
        raise ParameterError("need a < b")
    for d in (lhs, rhs):
        if d.min_support < a or d.max_support > b:
            raise ParameterError(
                f"distribution escapes [{_quoted(a)}, {_quoted(b)}]: support "
                f"spans [{_quoted(d.min_support)}, {_quoted(d.max_support)}]"
            )


def levin_steckin_check(
    lhs: DiscreteDistribution, rhs: DiscreteDistribution, a: Fraction, b: Fraction
) -> LevinSteckinReport:
    """The three integral conditions for lhs <=_cx rhs on [a, b].

    Integrals are exact sums over the segments on which the step CDFs are
    constant; the partial-integral dominance is checked at every grid point,
    which suffices because the partial integrals are piecewise linear in the
    upper limit and constant outside the supports' hull.
    """
    _require_interval(lhs, rhs, a, b)
    table = _segments(lhs, rhs)
    return LevinSteckinReport(
        endpoint_match=True,
        integral_match=table.running[-1] == 0,
        partial_dominance=all(r >= 0 for r in table.running),
    )


def szostok_decision(
    lhs: DiscreteDistribution, rhs: DiscreteDistribution, a: Fraction, b: Fraction
) -> SzostokReport:
    """Decide lhs <=_cx rhs from the sign-change structure of the CDF gap.

    Both laws must live in [a, b], which makes the endpoint values equal.
    The remaining standing hypothesis (zero total integral of
    F = F_rhs - F_lhs over [a, b], i.e. equal means) is enforced and its
    violation raises :class:`StandingHypothesisError` rather than returning
    a negative decision.  Nonnegativity of F on the first segment is part of
    the reported decision, not a hard hypothesis: when it fails the order
    fails with it.
    """
    _require_interval(lhs, rhs, a, b)
    table = _segments(lhs, rhs)
    if table.running[-1]:
        raise StandingHypothesisError(
            f"total integral of the CDF difference is "
            f"{_quoted(table.value(table.running[-1]))}, not 0"
        )

    first_sign, changes = _sign_runs(table.diffs)
    if first_sign == 0:
        # F vanishes identically: the comparison is an equality, every
        # convex-function inequality is tight, and the lemma's hypotheses
        # hold vacuously.
        return SzostokReport(
            sign_change_points=(),
            areas=(Fraction(0),),
            parity_ok=True,
            partial_sums_ok=True,
            first_segment_nonneg=True,
            decision=True,
        )

    # A_j sums |F| times length over the segments of the j-th sign run,
    # which are the steps of the running integral.
    m = len(changes)
    areas = [0] * (m + 1)
    run = 0
    for i in range(len(table.diffs)):
        if run < m and i == changes[run]:
            run += 1
        areas[run] += abs(table.running[i + 1] - table.running[i])

    parity_ok = m % 2 == 1
    even_sum = odd_sum = 0
    partial_sums_ok = True
    for i in range(0, m - 1, 2):
        even_sum += areas[i]
        odd_sum += areas[i + 1]
        if even_sum < odd_sum:
            partial_sums_ok = False
    first_segment_nonneg = first_sign > 0
    return SzostokReport(
        sign_change_points=tuple(table.point(i) for i in changes),
        areas=tuple(table.value(area) for area in areas),
        parity_ok=parity_ok,
        partial_sums_ok=partial_sums_ok,
        first_segment_nonneg=first_segment_nonneg,
        decision=parity_ok and partial_sums_ok and first_segment_nonneg,
    )
