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

All four procedures and ``crossing_points`` read one cumulative table per
pair, built on the union of supports (``_segments``): the running
integral of F_rhs - F_lhs from the left end to each grid point, in ints over
common denominators.  The jumps of the difference at the grid points are
the signed measure rhs - lhs, which ``distributions._weighted_atoms``, the
merge ``mixture`` runs, sums from the two laws' numerators.  Once means
agree, the table at t is the stop-loss gap E(rhs - t)_+ - E(lhs - t)_+, and
its total is mean(lhs) - mean(rhs).  Every segment has positive length, so
each step of the table has the sign of the difference on its segment: the
sign runs of Ohlin, Szostok and ``crossing_points`` are runs of steps, and
a Szostok area is the table's change over one run.  The runs alternate in
sign, so with s the sign of the first run and c_1 < c_2 < ... the sign
changes, A_0 - A_1 + ... + A_2k - A_(2k+1) = s * table(c_(2k+2)): Szostok's
partial-sum chain reads the table at every second change, and Ohlin's
crossing is the one change.  The interval procedures first check that both
laws live in [a, b]; the running integral from a is then zero left of the
supports' hull and constant right of it, so a and b add nothing to the
table.  The table of (rhs, lhs) is that of (lhs, rhs) negated, so a pair's
table is built once, in one orientation, and reused by consecutive calls on
the pair in either: running every procedure on one pair in both
orientations builds one table.

Laws on the integer lattice need no such table: there the stop-loss gap
at every lattice point comes from two running sums per law
(``lattice.stop_loss_numerators``), and ``lattice.gap_verdict`` reads it.
Both routes hand their gaps to ``exact._oracle_verdict``, the one verdict
reader, so equal laws get equal verdicts, witnesses included.  It,
``CxVerdict`` and ``sign_changes`` have their home in :mod:`.exact`, so
the lattice route and ``rasa.psi_sign_pattern`` load neither this module
nor ``distributions``.  Every name this module exports is defined here.
This module reads laws only through their int numerators and never builds
one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul, sub
from typing import Iterator, NamedTuple, Optional

from .distributions import DiscreteDistribution, _weighted_atoms
from .exact import (
    CxVerdict,
    ParameterError,
    _oracle_verdict,
    _quoted,
    _sign_runs,
    as_rational,
)

__all__ = [
    "OhlinReport",
    "LevinSteckinReport",
    "SzostokReport",
    "StandingHypothesisError",
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
    """The running integral of F_rhs - F_lhs on the merged grid g_0 < ... < g_K.

    ``grid[i]`` is g_i times ``scale``, the grid's common denominator, and
    ``running[i] / den`` the integral from g_0 to g_i, i <= K, so
    ``running[0] == 0``.  Every segment (g_i, g_{i+1}] has positive length,
    so the step ``running[i + 1] - running[i]`` has the sign of the
    difference on it.
    """

    grid: list[int]
    running: list[int]
    den: int
    scale: int

    def point(self, i: int) -> Fraction:
        """The grid point g_i as a Fraction."""
        return Fraction(self.grid[i], self.scale)

    def value(self, num: int) -> Fraction:
        """A running-integral entry (or a difference of two) as a Fraction."""
        return Fraction(num, self.den)

    def steps(self) -> Iterator[int]:
        """The running integral's step over each segment, left to right."""
        return map(sub, self.running[1:], self.running)


@lru_cache(maxsize=2)
def _segments(dl: DiscreteDistribution, dr: DiscreteDistribution) -> _Segments:
    """The cumulative table of the pair on the union of supports.

    The jumps of F_rhs - F_lhs at the grid points are the signed measure
    rhs - lhs, merged by ``distributions._weighted_atoms`` in ints over
    common denominators, so the pass itself only adds and multiplies ints:
    the running sum of the jumps is the difference on each segment, and the
    running sum of its products with the segment lengths is the table.

    The table of (rhs, lhs) has the same grid, denominator and scale, and
    its running integral is this one negated.  So only one orientation of
    a pair is built, the one whose lhs has the smaller hash, and the other
    is that table negated.  Callers run several procedures on a pair in
    both orientations, so the tables of the last two ordered pairs are kept
    and reused.  Laws are immutable and compare structurally, so an equal
    key means an equal table; its lists are only ever read.
    """
    if hash(dr) < hash(dl):
        mirror = _segments(dr, dl)
        return mirror._replace(running=[-r for r in mirror.running])
    grid, scale, jumps, den = _weighted_atoms((-1, 1), (dl, dr))
    lengths = map(sub, grid[1:], grid)
    running = list(accumulate(map(mul, accumulate(jumps), lengths), initial=0))
    return _Segments(grid, running, den * scale, scale)


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
    first_sign, changes = _sign_runs(table.steps())
    if len(changes) > 1 or first_sign < 0:
        return OhlinReport(applies=False, crossing=None, identical=False)
    # Equal means leave no lone run of one sign: the laws are identical, or
    # a positive run is followed by one negative run.  The crossing is where
    # that run starts, the first segment on which F_lhs - F_rhs is strictly
    # positive.
    crossing = table.point(changes[0]) if changes else None
    return OhlinReport(applies=True, crossing=crossing, identical=not changes)


def crossing_points(
    lhs: DiscreteDistribution, rhs: DiscreteDistribution
) -> list[Fraction]:
    """Points of sign change of F_rhs - F_lhs, left-to-right.

    Each reported point is the left endpoint of the first grid segment on
    which the difference assumes its new sign; zero segments between runs of
    equal sign are discarded, matching the sign-change count convention.
    """
    table = _segments(lhs, rhs)
    return [table.point(i) for i in _sign_runs(table.steps())[1]]


def _interval_segments(
    lhs: DiscreteDistribution, rhs: DiscreteDistribution, a: Fraction, b: Fraction
) -> _Segments:
    """The pair's cumulative table (``_segments``), once a < b and both laws
    live in [a, b]; ParameterError otherwise."""
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
    return _segments(lhs, rhs)


def levin_steckin_check(
    lhs: DiscreteDistribution, rhs: DiscreteDistribution, a: Fraction, b: Fraction
) -> LevinSteckinReport:
    """The three integral conditions for lhs <=_cx rhs on [a, b].

    Integrals are exact sums over the segments on which the step CDFs are
    constant; the partial-integral dominance is checked at every grid point,
    which suffices because the partial integrals are piecewise linear in the
    upper limit and constant outside the supports' hull.
    """
    table = _interval_segments(lhs, rhs, a, b)
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
    table = _interval_segments(lhs, rhs, a, b)
    if table.running[-1]:
        raise StandingHypothesisError(
            f"total integral of the CDF difference is "
            f"{_quoted(table.value(table.running[-1]))}, not 0"
        )

    # A_j sums |F| times length over the segments of the j-th sign run; its
    # steps of the running integral share one sign or are 0, so A_j is the
    # size of their sum.  When F vanishes identically there is one run, of
    # area 0, and every condition holds vacuously.
    first_sign, changes = _sign_runs(table.steps())
    ends = [0, *changes, len(table.grid) - 1]
    areas = [abs(table.running[j] - table.running[i]) for i, j in zip(ends, ends[1:])]

    # The runs alternate in sign from first_sign = s, so the chain's k-th
    # difference A_0 - A_1 + ... - A_(2k+1) telescopes to s times the table
    # at the (2k+2)-th sign change.
    parity_ok = len(changes) % 2 == 1 or not changes
    partial_sums_ok = all(first_sign * table.running[c] >= 0 for c in changes[1::2])
    first_segment_nonneg = first_sign >= 0
    return SzostokReport(
        sign_change_points=tuple(table.point(i) for i in changes),
        areas=tuple(table.value(area) for area in areas),
        parity_ok=parity_ok,
        partial_sums_ok=partial_sums_ok,
        first_segment_nonneg=first_segment_nonneg,
        decision=parity_ok and partial_sums_ok and first_segment_nonneg,
    )
