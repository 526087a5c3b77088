"""Finitely supported probability distributions with exact rational arithmetic.

Every support point, mass, mean, integral and stop-loss value in this package
is a :class:`fractions.Fraction`; nothing is ever rounded.  The distribution
function convention is left-continuous throughout:

    F(x) = P(X < x)

so F jumps by the atom mass *at* each support point, F(x) = 0 for
x <= min support and F(x) = 1 for x > max support.  All decision procedures
built on top of this module rely on that convention.

Values are immutable after construction and may be shared freely between
threads or processes; every operation here is a pure function.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

Rational = Fraction
RationalLike = Union[Fraction, int, str]

__all__ = [
    "Rational",
    "ParameterError",
    "FormatError",
    "MAX_RATIONAL_DIGITS",
    "DiscreteDistribution",
    "as_rational",
    "decimal_str",
    "dirac",
    "bernoulli",
    "binomial",
    "convolve",
    "convolve_many",
    "mixture",
    "scale",
    "parse_distribution",
    "distribution_to_text",
    "distribution_to_json_obj",
]


class ParameterError(ValueError):
    """An argument violates an operation's contract (range, sign, length)."""


class FormatError(ValueError):
    """Input text or JSON does not encode a valid distribution."""


MAX_RATIONAL_DIGITS = 10_000
"""The most decimal digits a parsed rational string may carry.

The count is every digit written plus the magnitude of a decimal exponent,
since ``1e-k`` puts k digits into the denominator.  The limit keeps values
near 33 000 bits, so a hostile string such as ``1e-999999999`` is rejected
before any big integer is built.
"""


def _decimal_digits(text: str) -> int:
    """Digits written in text plus its exponent's magnitude, capped above the limit.

    A string whose length alone exceeds what the limit allows (at most one
    underscore per digit and a few signs and separators) is over it.
    """
    over = MAX_RATIONAL_DIGITS + 1
    if len(text) > 2 * MAX_RATIONAL_DIGITS + 8:
        return over
    mantissa, _, exponent = text.lower().partition("e")
    written = sum(c.isdigit() for c in mantissa)
    magnitude = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if not magnitude.isdigit():  # no exponent, a zero one, or one Fraction rejects
        return written
    if len(magnitude) > len(str(MAX_RATIONAL_DIGITS)):
        return over
    return min(written + int(magnitude), over)


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction or `p/q` string to an exact Fraction.

    Floats are rejected: they carry rounding error and this library promises
    exactness end to end.  A string carrying more than
    :data:`MAX_RATIONAL_DIGITS` decimal digits is rejected before it is
    parsed.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise FormatError(f"not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if _decimal_digits(text) > MAX_RATIONAL_DIGITS:
            raise FormatError(
                f"rational {text[:24]!r}{'...' if len(text) > 24 else ''} exceeds "
                f"the limit of {MAX_RATIONAL_DIGITS} decimal digits "
                "(an exponent counts as its magnitude in digits)"
            )
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"cannot parse rational from {value!r}") from exc
    raise FormatError(f"not a rational value: {value!r} (floats are rejected)")


def decimal_str(value: Fraction, digits: int = 12) -> str:
    """Approximate decimal rendering of a rational, for display only.

    Never used in any computation or serialized data format; reports carry
    exact `p/q` strings.
    """
    if digits < 0:
        raise ParameterError("digits must be >= 0")
    sign = "-" if value < 0 else ""
    n, d = abs(value.numerator), value.denominator
    scaled, rem = divmod(n * 10**digits, d)
    if 2 * rem >= d:
        scaled += 1
    text = str(scaled).rjust(digits + 1, "0")
    whole, frac = text[: len(text) - digits], text[len(text) - digits :]
    frac = frac.rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


@dataclass(frozen=True)
class DiscreteDistribution:
    """A finitely supported probability measure on the rationals.

    Atoms are stored as a tuple of (support, mass) pairs with strictly
    increasing support, strictly positive masses, and masses summing to
    exactly 1.  Equality is structural: two distributions are equal iff
    their atom tuples are identical.
    """

    atoms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ParameterError("a distribution needs at least one atom")
        prev = None
        for support, mass in self.atoms:
            if not isinstance(support, Fraction) or not isinstance(mass, Fraction):
                raise ParameterError("atoms must hold Fraction values")
            if prev is not None and support <= prev:
                raise ParameterError("support points must be strictly increasing")
            if mass <= 0:
                raise ParameterError(f"mass at {support} must be positive")
            prev = support
        nums, den = self.mass_numerators
        if sum(nums) != den:
            raise ParameterError(
                f"masses must sum to 1 exactly, got {Fraction(sum(nums), den)}"
            )

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[RationalLike, RationalLike]]
    ) -> "DiscreteDistribution":
        """Build a distribution from unsorted pairs, merging equal supports."""
        merged: dict[Fraction, Fraction] = {}
        for support, mass in pairs:
            s = as_rational(support)
            m = as_rational(mass)
            merged[s] = merged.get(s, Fraction(0)) + m
        atoms = tuple(
            (s, m) for s, m in sorted(merged.items()) if m != 0
        )
        return cls(atoms)

    @cached_property
    def support(self) -> tuple[Fraction, ...]:
        return tuple(s for s, _ in self.atoms)

    @cached_property
    def masses(self) -> tuple[Fraction, ...]:
        return tuple(m for _, m in self.atoms)

    @cached_property
    def mass_numerators(self) -> tuple[tuple[int, ...], int]:
        """Every mass as an int numerator over the least common denominator."""
        den = math.lcm(*(m.denominator for _, m in self.atoms))
        return tuple(m.numerator * (den // m.denominator) for _, m in self.atoms), den

    @cached_property
    def _cumulative(self) -> tuple[Fraction, ...]:
        out = []
        acc = Fraction(0)
        for m in self.masses:
            acc += m
            out.append(acc)
        return tuple(out)

    @property
    def min_support(self) -> Fraction:
        return self.atoms[0][0]

    @property
    def max_support(self) -> Fraction:
        return self.atoms[-1][0]

    def mass_at(self, x: RationalLike) -> Fraction:
        x = as_rational(x)
        i = bisect_left(self.support, x)
        if i < len(self.atoms) and self.support[i] == x:
            return self.masses[i]
        return Fraction(0)

    def mean(self) -> Fraction:
        return sum((s * m for s, m in self.atoms), Fraction(0))

    def cdf(self, x: RationalLike) -> Fraction:
        """P(X < x): the mass strictly below x (left-continuous)."""
        x = as_rational(x)
        i = bisect_left(self.support, x)
        if i == len(self.atoms):  # past every atom: no Fraction prefix sums needed
            return Fraction(1)
        return self._cumulative[i - 1] if i else Fraction(0)

    def cdf_right(self, x: RationalLike) -> Fraction:
        """P(X <= x): the right limit of the distribution function at x."""
        x = as_rational(x)
        i = bisect_right(self.support, x)
        if i == len(self.atoms):
            return Fraction(1)
        return self._cumulative[i - 1] if i else Fraction(0)

    def stop_loss(self, t: RationalLike) -> Fraction:
        """E(X - t)_+, the stop-loss transform at threshold t."""
        t = as_rational(t)
        return sum(((s - t) * m for s, m in self.atoms if s > t), Fraction(0))

    def __repr__(self) -> str:
        body = ", ".join(f"{s}: {m}" for s, m in self.atoms)
        return f"DiscreteDistribution({body})"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def dirac(c: RationalLike) -> DiscreteDistribution:
    """Unit point mass at c."""
    return DiscreteDistribution(((as_rational(c), Fraction(1)),))


def bernoulli(p: RationalLike) -> DiscreteDistribution:
    """Bernoulli law on {0, 1}; p in {0, 1} degenerates to a point mass."""
    p = as_rational(p)
    if not 0 <= p <= 1:
        raise ParameterError(f"bernoulli parameter must lie in [0, 1], got {p}")
    if p == 0:
        return dirac(0)
    if p == 1:
        return dirac(1)
    return DiscreteDistribution(((Fraction(0), 1 - p), (Fraction(1), p)))


def binomial(n: int, p: RationalLike) -> DiscreteDistribution:
    """Binomial law with n trials and success probability p, exactly.

    Masses are C(n, k) p^k (1-p)^(n-k) with arbitrary-precision integer
    binomial coefficients.  p = 0 or 1 degenerates to a point mass at 0 or n.
    """
    if n < 1:
        raise ParameterError(f"binomial needs n >= 1, got {n}")
    p = as_rational(p)
    if not 0 <= p <= 1:
        raise ParameterError(f"binomial parameter must lie in [0, 1], got {p}")
    if p == 0:
        return dirac(0)
    if p == 1:
        return dirac(n)
    q = 1 - p
    atoms = []
    for k in range(n + 1):
        atoms.append((Fraction(k), math.comb(n, k) * p**k * q ** (n - k)))
    return DiscreteDistribution(tuple(atoms))


# ---------------------------------------------------------------------------
# Algebra
# ---------------------------------------------------------------------------


def convolve(
    a: DiscreteDistribution, b: DiscreteDistribution
) -> DiscreteDistribution:
    """Law of the sum of independent draws from a and b."""
    return convolve_many((a, b))


def convolve_many(parts: Sequence[DiscreteDistribution]) -> DiscreteDistribution:
    """Law of the sum of independent draws from one or more distributions.

    Supports are brought to ints over their least common denominator and
    each part's masses to its :attr:`~DiscreteDistribution.mass_numerators`,
    so the whole fold multiplies and adds ints; one Fraction is built per
    output atom at the end.
    """
    if not parts:
        raise ParameterError("convolve_many needs at least one distribution")
    scale = math.lcm(*(s.denominator for part in parts for s in part.support))
    sums = {0: 1}
    den = 1
    for part in parts:
        nums, part_den = part.mass_numerators
        points = [s.numerator * (scale // s.denominator) for s in part.support]
        out: dict[int, int] = {}
        for s, v in sums.items():
            for t, w in zip(points, nums):
                out[s + t] = out.get(s + t, 0) + v * w
        sums = out
        den *= part_den
    return DiscreteDistribution(
        tuple(
            (Fraction(s, scale), Fraction(v, den)) for s, v in sorted(sums.items())
        )
    )


def mixture(
    weights: Sequence[RationalLike], parts: Sequence[DiscreteDistribution]
) -> DiscreteDistribution:
    """The measure sum_i w_i * mu_i.

    Weights must be positive and sum to exactly 1; its step CDF is the
    pointwise weighted sum of the parts' CDFs.
    """
    if len(weights) != len(parts) or not parts:
        raise ParameterError("weights and parts must have equal nonzero length")
    ws = [as_rational(w) for w in weights]
    if any(w <= 0 for w in ws):
        raise ParameterError("mixture weights must be positive")
    if sum(ws) != 1:
        raise ParameterError(f"mixture weights must sum to 1, got {sum(ws)}")
    mix: dict[Fraction, Fraction] = {}
    for w, part in zip(ws, parts):
        for s, m in part.atoms:
            mix[s] = mix.get(s, Fraction(0)) + w * m
    return DiscreteDistribution(tuple(sorted(mix.items())))


def scale(d: DiscreteDistribution, a: RationalLike) -> DiscreteDistribution:
    """Law of X / a for a > 0: supports divided by a, masses unchanged."""
    a = as_rational(a)
    if a <= 0:
        raise ParameterError(f"scale divisor must be positive, got {a}")
    return DiscreteDistribution(tuple((s / a, m) for s, m in d.atoms))


# ---------------------------------------------------------------------------
# Text and JSON formats
# ---------------------------------------------------------------------------
#
# Text format, one atom per line:   <support> <mass>
# with rationals written p/q or as plain integers; '#' starts a comment and
# atoms need not be sorted.  JSON form: {"atoms": [[s, m], ...]} with
# rationals as strings (integers also accepted).


def parse_distribution(text: str) -> DiscreteDistribution:
    """Parse either the text or the JSON distribution format."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(stripped)
    return _parse_text(text)


def _parse_text(text: str) -> DiscreteDistribution:
    pairs: list[tuple[Fraction, Fraction]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise FormatError(
                f"line {lineno}: expected '<support> <mass>', got {raw!r}"
            )
        pairs.append((as_rational(tokens[0]), as_rational(tokens[1])))
    if not pairs:
        raise FormatError("no atoms found in distribution text")
    try:
        return DiscreteDistribution.from_pairs(pairs)
    except ParameterError as exc:
        raise FormatError(str(exc)) from exc


def _parse_json(text: str) -> DiscreteDistribution:
    try:
        obj = json.loads(text)
    except ValueError as exc:  # malformed, or an int over Python's digit limit
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "atoms" not in obj:
        raise FormatError('JSON distribution must be {"atoms": [[s, m], ...]}')
    entries = obj["atoms"]
    if not isinstance(entries, list):
        raise FormatError('"atoms" must be a list of [support, mass] pairs')
    pairs = []
    for entry in entries:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise FormatError(f"bad atom entry: {entry!r}")
        pairs.append((as_rational(entry[0]), as_rational(entry[1])))
    try:
        return DiscreteDistribution.from_pairs(pairs)
    except ParameterError as exc:
        raise FormatError(str(exc)) from exc


def distribution_to_text(d: DiscreteDistribution) -> str:
    return "\n".join(f"{s} {m}" for s, m in d.atoms) + "\n"


def distribution_to_json_obj(d: DiscreteDistribution) -> dict:
    return {"atoms": [[str(s), str(m)] for s, m in d.atoms]}
