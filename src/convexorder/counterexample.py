"""The four-atom pair showing the binomial hypothesis cannot be dropped.

Take X with law (1/2)(d_1 + d_3) and Y with law (1/2)(d_0 + d_4), plus
i.i.d. copies X_1, X_2 of X and Y_1, Y_2 of Y.  The sum X + Y and the
half-half mixture of X_1 + X_2 and Y_1 + Y_2 have equal means, yet the sum
does *not* precede the mixture in the convex order: the CDF difference
changes sign three times with segment areas (1/8, 3/8, 3/8, 1/8), so the
leading partial-sum inequality A_0 >= A_1 fails, and the angle function at 4
certifies the violation with expectations 1 versus 3/4.

Every quantity here is recomputed through the library's own operations and
checked against the known exact values; any mismatch raises.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .convex_functions import Angle, ConvexTestFunction, expectation
from .cx_order import SzostokReport, crossing_points, cx_compare_oracle, szostok_decision
from .distributions import DiscreteDistribution, convolve, dirac, mixture
from .exact import CxVerdict

__all__ = ["CounterexampleReport", "VerificationError", "build_counterexample", "analyze_counterexample"]

_HALF = Fraction(1, 2)


class VerificationError(AssertionError):
    """A recomputed quantity disagrees with its known exact value."""


class CounterexampleReport(NamedTuple):
    lhs: DiscreteDistribution
    rhs: DiscreteDistribution
    sign_change_points: tuple[Fraction, ...]
    areas: tuple[Fraction, ...]
    szostok_decision: bool
    oracle_verdict: CxVerdict
    witness_function: ConvexTestFunction


def build_counterexample() -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """The pair (law of X + Y, mixture of the i.i.d. sums), built from scratch."""
    mu_x = mixture([_HALF, _HALF], [dirac(1), dirac(3)])
    mu_y = mixture([_HALF, _HALF], [dirac(0), dirac(4)])
    lhs = convolve(mu_x, mu_y)
    rhs = mixture([_HALF, _HALF], [convolve(mu_x, mu_x), convolve(mu_y, mu_y)])
    return lhs, rhs


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise VerificationError(message)


def analyze_counterexample() -> CounterexampleReport:
    """Run all decision procedures on the pair and certify the failure."""
    lhs, rhs = build_counterexample()

    quarter = Fraction(1, 4)
    eighth = Fraction(1, 8)
    expected_lhs = DiscreteDistribution.from_pairs(
        [(1, quarter), (3, quarter), (5, quarter), (7, quarter)]
    )
    expected_rhs = DiscreteDistribution.from_pairs(
        [(0, eighth), (2, eighth), (4, _HALF), (6, eighth), (8, eighth)]
    )
    _require(lhs == expected_lhs, f"unexpected sum law: {lhs!r}")
    _require(rhs == expected_rhs, f"unexpected mixture law: {rhs!r}")
    _require(lhs.mean() == rhs.mean() == 4, "means must both equal 4")

    points = crossing_points(lhs, rhs)
    _require(
        points == [Fraction(1), Fraction(4), Fraction(7)],
        f"sign changes at {points}, expected 1, 4, 7",
    )

    report: SzostokReport = szostok_decision(lhs, rhs, Fraction(0), Fraction(8))
    expected_areas = (eighth, Fraction(3, 8), Fraction(3, 8), eighth)
    _require(report.areas == expected_areas, f"areas {report.areas}")
    _require(not report.decision, "sign-change decision should report failure")

    verdict = cx_compare_oracle(lhs, rhs)
    _require(not verdict.holds, "oracle should report failure")
    _require(verdict.witness == 4, f"oracle witness {verdict.witness}, expected 4")

    witness = Angle(Fraction(4))
    e_lhs = expectation(lhs, witness)
    e_rhs = expectation(rhs, witness)
    _require(
        (e_lhs, e_rhs) == (Fraction(1), Fraction(3, 4)),
        f"witness expectations {e_lhs} vs {e_rhs}, expected 1 vs 3/4",
    )

    return CounterexampleReport(
        lhs=lhs,
        rhs=rhs,
        sign_change_points=tuple(points),
        areas=report.areas,
        szostok_decision=report.decision,
        oracle_verdict=verdict,
        witness_function=witness,
    )
