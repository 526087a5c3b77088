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
from bisect import bisect_right
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence, Union

from .exact import ParameterError

if TYPE_CHECKING:
    from .distributions import DiscreteDistribution

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


class _Value:
    """An immutable value whose fields are its class's public ``__slots__``.

    Two values are equal when they are of one class and their fields are
    equal, and the hash is that of the field tuple, so a probe can key a
    cache without meeting a probe of another class with equal fields there
    (``Angle(2) != Monomial(2)``).  The repr names every field, and fields
    are set once, in ``__init__`` through ``_fill``.  A slot whose name
    starts with an underscore holds data derived from the fields in
    ``__init__``, outside equality, hash and repr.  A plain class costs far
    less to build at import than a generated one.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")

    def _fill(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class Angle(_Value):
    """t -> max(t - c, 0): the angle (stop-loss) function with kink at c."""

    __slots__ = ("c",)

    def __init__(self, c: Fraction) -> None:
        self._fill(c)

    def __call__(self, t: Fraction) -> Fraction:
        shifted = t - self.c
        return shifted if shifted > 0 else Fraction(0)

    def describe(self) -> str:
        return f"angle({self.c})"


class Monomial(_Value):
    """t -> t**k for even k >= 2, convex on the whole line."""

    __slots__ = ("degree",)

    def __init__(self, degree: int) -> None:
        if degree < 2 or degree % 2:
            raise ParameterError("monomial degree must be an even integer >= 2")
        self._fill(degree)

    def __call__(self, t: Fraction) -> Fraction:
        return t**self.degree

    def describe(self) -> str:
        return f"monomial({self.degree})"


class Affine(_Value):
    """t -> intercept + slope * t; convex with zero curvature."""

    __slots__ = ("intercept", "slope")

    def __init__(self, intercept: Fraction, slope: Fraction) -> None:
        self._fill(intercept, slope)

    def __call__(self, t: Fraction) -> Fraction:
        return self.intercept + self.slope * t

    def describe(self) -> str:
        return f"affine({self.intercept},{self.slope})"


class PiecewiseLinear(_Value):
    """Convex piecewise-linear function given by breakpoints and slopes.

    `slopes[i]` applies between `breakpoints[i-1]` and `breakpoints[i]`
    (unbounded at the ends), so len(slopes) == len(breakpoints) + 1, and
    convexity requires the slopes to be nondecreasing.  `value_at_zero`
    anchors the function.
    """

    __slots__ = ("value_at_zero", "breakpoints", "slopes", "_intercepts")

    def __init__(
        self,
        value_at_zero: Fraction,
        breakpoints: tuple[Fraction, ...],
        slopes: tuple[Fraction, ...],
    ) -> None:
        if len(slopes) != len(breakpoints) + 1:
            raise ParameterError("need exactly one more slope than breakpoints")
        if any(b >= c for b, c in zip(breakpoints, breakpoints[1:])):
            raise ParameterError("breakpoints must be strictly increasing")
        if any(s > t for s, t in zip(slopes, slopes[1:])):
            raise ParameterError("slopes must be nondecreasing (convexity)")
        self._fill(value_at_zero, breakpoints, slopes)
        # f(t) = f(0) + s_0 t + sum_i (s_{i+1} - s_i) (max(t - b_i, 0) - max(-b_i, 0)),
        # one angle per breakpoint anchored at 0, is intercepts[j] + s_j t on
        # the piece from b_{j-1} to b_j: each breakpoint passed moves
        # (s_{i+1} - s_i) b_i from the intercept into the slope.
        jumps = [s_next - s for s, s_next in zip(slopes, slopes[1:])]
        intercept = value_at_zero
        for b, jump in zip(breakpoints, jumps):
            if b < 0:
                intercept += jump * b
        intercepts = [intercept]
        for b, jump in zip(breakpoints, jumps):
            intercept -= jump * b
            intercepts.append(intercept)
        object.__setattr__(self, "_intercepts", tuple(intercepts))

    def __call__(self, t: Fraction) -> Fraction:
        """The affine piece that holds t, evaluated at t."""
        j = bisect_right(self.breakpoints, t)
        return self._intercepts[j] + self.slopes[j] * t

    def describe(self) -> str:
        pieces = ";".join(str(b) for b in self.breakpoints)
        return f"pwl([{pieces}])"


ConvexTestFunction = Union[Angle, Monomial, PiecewiseLinear, Affine]


def expectation(d: DiscreteDistribution, f: ConvexTestFunction) -> Fraction:
    """E f(X) for X ~ d, computed exactly atom by atom."""
    return sum((m * f(s) for s, m in d.atoms), Fraction(0))


# The most breaks of a random piecewise-linear function, and the largest
# denominator of a break.
_PWL_MAX_BREAKS = 3
_PWL_MAX_DEN = 8


def random_piecewise_linear(rng: random.Random) -> PiecewiseLinear:
    """Seeded random convex piecewise-linear function with breaks in (0, 1)."""
    k = rng.randint(1, _PWL_MAX_BREAKS)
    points: set[Fraction] = set()
    while len(points) < k:
        den = rng.randint(2, _PWL_MAX_DEN)
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
