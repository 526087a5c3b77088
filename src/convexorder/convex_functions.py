"""Exactly evaluable convex test functions.

The convex order "E f(X) <= E f(Y) for every convex f" cannot be probed with
floating-point f.  This module provides a family of convex functions that
evaluate exactly at rational arguments: angles max(t - c, 0), even-degree
monomials, convex piecewise-linear functions, and affine functions (the
degenerate boundary case, on which every equal-mean comparison is tight).

Angles are the extreme rays of the convex cone restricted to finitely
supported measures: dominance of expectations over all angles placed at the
union of support points decides the order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .distributions import DiscreteDistribution, ParameterError

__all__ = [
    "Angle",
    "Monomial",
    "PiecewiseLinear",
    "Affine",
    "ConvexTestFunction",
    "expectation",
    "random_piecewise_linear",
    "builtin_family",
    "KNOWN_FUNCTION_GROUPS",
]


@dataclass(frozen=True)
class Angle:
    """t -> max(t - c, 0): the angle (stop-loss) function with kink at c."""

    c: Fraction

    def __call__(self, t: Fraction) -> Fraction:
        shifted = t - self.c
        return shifted if shifted > 0 else Fraction(0)

    def describe(self) -> str:
        return f"angle({self.c})"


@dataclass(frozen=True)
class Monomial:
    """t -> t**k for even k >= 2, convex on the whole line."""

    degree: int

    def __post_init__(self) -> None:
        if self.degree < 2 or self.degree % 2:
            raise ParameterError("monomial degree must be an even integer >= 2")

    def __call__(self, t: Fraction) -> Fraction:
        return t**self.degree

    def describe(self) -> str:
        return f"monomial({self.degree})"


@dataclass(frozen=True)
class Affine:
    """t -> intercept + slope * t; convex with zero curvature."""

    intercept: Fraction
    slope: Fraction

    def __call__(self, t: Fraction) -> Fraction:
        return self.intercept + self.slope * t

    def describe(self) -> str:
        return f"affine({self.intercept},{self.slope})"


@dataclass(frozen=True)
class PiecewiseLinear:
    """Convex piecewise-linear function given by breakpoints and slopes.

    `slopes[i]` applies between `breakpoints[i-1]` and `breakpoints[i]`
    (unbounded at the ends), so len(slopes) == len(breakpoints) + 1, and
    convexity requires the slopes to be nondecreasing.  `value_at_zero`
    anchors the function.
    """

    value_at_zero: Fraction
    breakpoints: tuple[Fraction, ...]
    slopes: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.slopes) != len(self.breakpoints) + 1:
            raise ParameterError("need exactly one more slope than breakpoints")
        if any(b >= c for b, c in zip(self.breakpoints, self.breakpoints[1:])):
            raise ParameterError("breakpoints must be strictly increasing")
        if any(s > t for s, t in zip(self.slopes, self.slopes[1:])):
            raise ParameterError("slopes must be nondecreasing (convexity)")

    def __call__(self, t: Fraction) -> Fraction:
        """f(0) + s_0 t plus one angle per breakpoint, each anchored at 0:
        sum_i (s_{i+1} - s_i) (max(t - b_i, 0) - max(-b_i, 0))."""
        value = self.value_at_zero + self.slopes[0] * t
        for b, s, s_next in zip(self.breakpoints, self.slopes, self.slopes[1:]):
            value += (s_next - s) * (max(t - b, 0) - max(-b, 0))
        return value

    def describe(self) -> str:
        pieces = ";".join(str(b) for b in self.breakpoints)
        return f"pwl([{pieces}])"


ConvexTestFunction = Union[Angle, Monomial, PiecewiseLinear, Affine]


def expectation(d: DiscreteDistribution, f: ConvexTestFunction) -> Fraction:
    """E f(X) for X ~ d, computed exactly atom by atom."""
    return sum((m * f(s) for s, m in d.atoms), Fraction(0))


def random_piecewise_linear(
    rng: random.Random, max_den: int = 8, max_breaks: int = 3
) -> PiecewiseLinear:
    """Seeded random convex piecewise-linear function with breaks in (0, 1)."""
    k = rng.randint(1, max_breaks)
    points: set[Fraction] = set()
    while len(points) < k:
        den = rng.randint(2, max_den)
        num = rng.randint(1, den - 1)
        points.add(Fraction(num, den))
    breaks = tuple(sorted(points))
    slope = Fraction(rng.randint(-12, 0), rng.randint(1, 4))
    slopes = [slope]
    for _ in range(k):
        slope += Fraction(rng.randint(0, 8), rng.randint(1, 4))
        slopes.append(slope)
    anchor = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    return PiecewiseLinear(anchor, breaks, tuple(slopes))


# The groups of :func:`builtin_family`, by the names a sweep selects them with.
KNOWN_FUNCTION_GROUPS = ("angles", "monomials", "affine", "random-pwl")


def builtin_family(
    angle_denominator: int,
    *,
    groups: Sequence[str] = KNOWN_FUNCTION_GROUPS,
    random_count: int = 5,
    seed: int = 0,
) -> tuple[ConvexTestFunction, ...]:
    """The built-in probe family for distributions supported on [0, 1].

    Of the named groups, in this order: angles at every grid point
    k / angle_denominator (these span the extreme rays needed for supports
    on that grid), the even monomials of degree 2, 4 and 6, one affine
    function, and `random_count` seeded random convex piecewise-linear
    functions.
    """
    if angle_denominator < 1:
        raise ParameterError("angle denominator must be >= 1")
    family: list[ConvexTestFunction] = []
    if "angles" in groups:
        family.extend(
            Angle(Fraction(k, angle_denominator)) for k in range(angle_denominator + 1)
        )
    if "monomials" in groups:
        family.extend(Monomial(k) for k in (2, 4, 6))
    if "affine" in groups:
        family.append(Affine(Fraction(1), Fraction(-2)))
    if "random-pwl" in groups:
        rng = random.Random(seed)
        family.extend(random_piecewise_linear(rng) for _ in range(random_count))
    return tuple(family)
