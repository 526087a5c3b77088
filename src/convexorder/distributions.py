"""Finitely supported probability distributions with exact rational arithmetic.

Every support point, mass, mean, integral and stop-loss value this package
hands out is a :class:`fractions.Fraction`; nothing is ever rounded.  A law
itself is held as int numerators over common denominators, and Fractions
are built only for the values read from it.  The distribution function
convention is left-continuous throughout:

    F(x) = P(X < x)

so F jumps by the atom mass *at* each support point, F(x) = 0 for
x <= min support and F(x) = 1 for x > max support.  All decision procedures
built on top of this module rely on that convention.

Values are immutable after construction and may be shared freely between
threads or processes; every operation here is a pure function.

The errors, the rational coercion :func:`as_rational`, the message quoting
``_quoted`` and the binomial numerators come from :mod:`.exact`, which the
lattice route shares without loading this module, and are re-exported here
under their old names.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import mul
from typing import Iterable, Iterator, Sequence

from .exact import (
    MAX_RATIONAL_DIGITS,
    FormatError,
    ParameterError,
    RationalLike,
    _power_products,  # noqa: F401  (re-exported)
    _quoted,
    as_rational,
    binomial_numerators,
)

Rational = Fraction

__all__ = [
    "Rational",
    "ParameterError",
    "FormatError",
    "MAX_RATIONAL_DIGITS",
    "MAX_ATOMS",
    "MAX_LAW_BITS",
    "DiscreteDistribution",
    "as_rational",
    "dirac",
    "bernoulli",
    "binomial",
    "convolve",
    "convolve_many",
    "mixture",
    "parse_distribution",
    "distribution_to_json_obj",
]


MAX_ATOMS = 100_000
"""The most atoms a parsed distribution may list, text lines or JSON entries.

Counted before any value is parsed.  Parsing costs about 25 us and 0.5 kB
per atom with integer supports and equal masses, and the oracle on two such
laws 0.5 to 0.7 us more, so one file at the limit parses in about 2.5 s
(Python 3.11, one 2-core x86-64 host).  The cost of many distinct
denominators is bounded by :data:`MAX_LAW_BITS`.
"""


MAX_LAW_BITS = 50_000_000
"""The largest size of a parsed law: atoms times the bit length of the
larger common denominator, of the supports or of the masses.

A law holds every support and mass numerator over those common
denominators, so this product bounds its ints.  Well within
:data:`MAX_ATOMS`, distinct prime denominators make the common multiple
grow with the atom count: 6000 supports k / p_k with distinct primes p_k
took 15.6 s and 150 MB to parse without this bound.  The parsers keep both least common multiples as they
read and stop at the first atom that passes the limit, so a file over it
is rejected in well under a second.  The largest admitted files of the two
hardest kinds, on one 2-core x86-64 host with Python 3.11: 2005 supports
k / p_k with masses 1/2005 (a 24 926-bit denominator, 50.0 million) parse
in 0.33 s with a peak RSS of 28 MB, and 2898 atom lines whose supports
and masses both run over 1449 distinct primes, two lines per prime
(17 242 bits, 49.9 million), in 0.50 s and 42 MB; ``cx-compare`` of the
latter against itself takes 1.1 s and 58 MB.
"""


class DiscreteDistribution:
    """A finitely supported probability measure on the rationals.

    The law is held as ints: ``support_numerators`` is (points, scale), the
    support points as int numerators over their least common denominator,
    and ``mass_numerators`` is (nums, den), the masses as int numerators
    over theirs.  The support is strictly increasing, every mass is positive
    and the masses sum to exactly 1, so ``sum(nums) == den``.  Neither pair
    keeps a common factor, so equality and hashing are exact and
    structural: two distributions are equal iff they put the same masses on
    the same points.  ``atoms``, ``support`` and ``masses`` are the same law
    as Fractions, built on first read; every other method reads the ints and
    builds one Fraction per value it returns.  Both pairs are set at
    construction, and assigning or deleting an attribute raises
    ``AttributeError``.
    """

    support_numerators: tuple[tuple[int, ...], int]
    mass_numerators: tuple[tuple[int, ...], int]

    def __init__(self, atoms: Iterable[tuple[Fraction, Fraction]]) -> None:
        """The law of the (support, mass) Fraction pairs, support increasing."""
        atoms = tuple(atoms)
        for support, mass in atoms:
            if not isinstance(support, Fraction) or not isinstance(mass, Fraction):
                raise ParameterError("atoms must hold Fraction values")
        scale = math.lcm(*(s.denominator for s, _ in atoms))
        den = math.lcm(*(m.denominator for _, m in atoms))
        self._hold(
            [s.numerator * (scale // s.denominator) for s, _ in atoms],
            scale,
            [m.numerator * (den // m.denominator) for _, m in atoms],
            den,
        )

    @classmethod
    def _from_ints(
        cls, points: Sequence[int], scale: int, nums: Sequence[int], den: int
    ) -> "DiscreteDistribution":
        """The law with mass nums[i] / den at points[i] / scale; scale, den > 0."""
        law = cls.__new__(cls)
        law._hold(points, scale, nums, den)
        return law

    def _hold(
        self, points: Sequence[int], scale: int, nums: Sequence[int], den: int
    ) -> None:
        """Check the law on its ints, as the Fraction constructor promises, and
        store both pairs with their common factors divided out."""
        if not points:
            raise ParameterError("a distribution needs at least one atom")
        previous = None
        for p, v in zip(points, nums):
            if previous is not None and p <= previous:
                raise ParameterError("support points must be strictly increasing")
            if v <= 0:
                raise ParameterError(
                    f"mass at {_quoted(Fraction(p, scale))} must be positive"
                )
            previous = p
        total = sum(nums)
        if total != den:
            raise ParameterError(
                f"masses must sum to 1 exactly, got {_quoted(Fraction(total, den))}"
            )
        g = math.gcd(scale, *points)
        # gcd(*nums) divides den, their sum, so it equals gcd(den, *nums); a
        # reduced binomial's den and first numerator are already coprime.
        h = math.gcd(den, *nums)
        object.__setattr__(
            self, "support_numerators", (tuple(p // g for p in points), scale // g)
        )
        object.__setattr__(
            self, "mass_numerators", (tuple(v // h for v in nums), den // h)
        )

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[RationalLike, RationalLike]]
    ) -> "DiscreteDistribution":
        """Build a distribution from unsorted pairs, merging equal supports.

        A negative mass is rejected rather than netted against the others at
        its point; a zero one adds no atom.
        """
        merged: dict[Fraction, Fraction] = {}
        for support, mass in pairs:
            s = as_rational(support)
            m = as_rational(mass)
            if m < 0:
                raise ParameterError(f"mass {_quoted(m)} at {_quoted(s)} is negative")
            merged[s] = merged.get(s, Fraction(0)) + m
        atoms = tuple(
            (s, m) for s, m in sorted(merged.items()) if m != 0
        )
        return cls(atoms)

    @cached_property
    def support(self) -> tuple[Fraction, ...]:
        points, scale = self.support_numerators
        return tuple(Fraction(p, scale) for p in points)

    @cached_property
    def masses(self) -> tuple[Fraction, ...]:
        nums, den = self.mass_numerators
        return tuple(Fraction(v, den) for v in nums)

    @cached_property
    def atoms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(zip(self.support, self.masses))

    @cached_property
    def _hash(self) -> int:
        return hash((self.support_numerators, self.mass_numerators))

    def __hash__(self) -> int:
        # Laws key the segment-table cache on every procedure call, and their
        # numerators can run to thousands of bits, so the hash is kept.
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.support_numerators == other.support_numerators
            and self.mass_numerators == other.mass_numerators
        )

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @cached_property
    def _cumulative(self) -> tuple[int, ...]:
        """Running sums of the mass numerators."""
        return tuple(accumulate(self.mass_numerators[0]))

    @property
    def min_support(self) -> Fraction:
        points, scale = self.support_numerators
        return Fraction(points[0], scale)

    @property
    def max_support(self) -> Fraction:
        points, scale = self.support_numerators
        return Fraction(points[-1], scale)

    def _mass_before(self, i: int) -> Fraction:
        """The mass of the first i atoms; the ends need no running sums."""
        nums, den = self.mass_numerators
        if i == len(nums):
            return Fraction(1)
        return Fraction(self._cumulative[i - 1], den) if i else Fraction(0)

    def mass_at(self, x: RationalLike) -> Fraction:
        x = as_rational(x)
        points, scale = self.support_numerators
        key, rest = divmod(x.numerator * scale, x.denominator)
        i = bisect_left(points, key)
        if rest or i == len(points) or points[i] != key:
            return Fraction(0)
        nums, den = self.mass_numerators
        return Fraction(nums[i], den)

    def mean(self) -> Fraction:
        (points, scale), (nums, den) = self.support_numerators, self.mass_numerators
        return Fraction(sum(map(mul, points, nums)), scale * den)

    def cdf(self, x: RationalLike) -> Fraction:
        """P(X < x): the mass strictly below x (left-continuous)."""
        x = as_rational(x)
        points, scale = self.support_numerators
        # p / scale < x exactly when p < ceil(x * scale)
        return self._mass_before(
            bisect_left(points, -(-x.numerator * scale // x.denominator))
        )

    def cdf_right(self, x: RationalLike) -> Fraction:
        """P(X <= x): the right limit of the distribution function at x."""
        x = as_rational(x)
        points, scale = self.support_numerators
        # p / scale <= x exactly when p <= floor(x * scale)
        return self._mass_before(
            bisect_right(points, x.numerator * scale // x.denominator)
        )

    def stop_loss(self, t: RationalLike) -> Fraction:
        """E(X - t)_+, the stop-loss transform at threshold t."""
        t = as_rational(t)
        (points, scale), (nums, den) = self.support_numerators, self.mass_numerators
        i = bisect_right(points, t.numerator * scale // t.denominator)
        # sum over the points above t of (p / scale - t) * v / den
        first = sum(map(mul, points[i:], nums[i:]))
        above = sum(nums[i:])
        return Fraction(
            first * t.denominator - t.numerator * scale * above,
            scale * den * t.denominator,
        )

    def __repr__(self) -> str:
        body = ", ".join(f"{s}: {m}" for s, m in self.atoms)
        return f"DiscreteDistribution({body})"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def dirac(c: RationalLike) -> DiscreteDistribution:
    """Unit point mass at c."""
    c = as_rational(c)
    return DiscreteDistribution._from_ints((c.numerator,), c.denominator, (1,), 1)


def bernoulli(p: RationalLike) -> DiscreteDistribution:
    """Bernoulli law on {0, 1}; p in {0, 1} degenerates to a point mass."""
    p = as_rational(p)
    if not 0 <= p <= 1:
        raise ParameterError(f"bernoulli parameter must lie in [0, 1], got {_quoted(p)}")
    if p == 0:
        return dirac(0)
    if p == 1:
        return dirac(1)
    a, q = p.numerator, p.denominator
    return DiscreteDistribution._from_ints((0, 1), 1, (q - a, a), q)


def binomial(n: int, p: RationalLike) -> DiscreteDistribution:
    """Binomial law with n trials and success probability p, exactly.

    For p = a/q the masses are C(n, k) a^k (q-a)^(n-k) over q^n, in ints
    with arbitrary-precision binomial coefficients.  p = 0 or 1 degenerates
    to a point mass at 0 or n.
    """
    if n < 1:
        raise ParameterError(f"binomial needs n >= 1, got {n}")
    p = as_rational(p)
    if not 0 <= p <= 1:
        raise ParameterError(f"binomial parameter must lie in [0, 1], got {_quoted(p)}")
    if p == 0:
        return dirac(0)
    if p == 1:
        return dirac(n)
    a, q = p.numerator, p.denominator
    return DiscreteDistribution._from_ints(
        range(n + 1), 1, binomial_numerators(n, a, q), q**n
    )


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

    Supports are brought to ints over their least common denominator, and a
    dict of partial sums of the parts' int mass numerators is folded part by
    part: the first atom of a part fills the next dict in one comprehension,
    and only the others look their sums up.  No Fraction is built.
    """
    if not parts:
        raise ParameterError("convolve_many needs at least one distribution")
    unit = math.lcm(*(part.support_numerators[1] for part in parts))
    den = math.prod(part.mass_numerators[1] for part in parts)
    sums = {0: 1}
    for part in parts:
        points, part_unit = part.support_numerators
        stretch = unit // part_unit
        (t, w), *rest = zip([p * stretch for p in points], part.mass_numerators[0])
        out = {s + t: v * w for s, v in sums.items()}
        for t, w in rest:
            for s, v in sums.items():
                out[s + t] = out.get(s + t, 0) + v * w
        sums = out
    keys = sorted(sums)
    return DiscreteDistribution._from_ints(keys, unit, [sums[k] for k in keys], den)


def mixture(
    weights: Sequence[RationalLike], parts: Sequence[DiscreteDistribution]
) -> DiscreteDistribution:
    """The measure sum_i w_i * mu_i.

    Weights must be positive and sum to exactly 1; its step CDF is the
    pointwise weighted sum of the parts' CDFs.  The weighted masses are
    summed as ints over one common denominator.
    """
    if len(weights) != len(parts) or not parts:
        raise ParameterError("weights and parts must have equal nonzero length")
    ws = [as_rational(w) for w in weights]
    if any(w <= 0 for w in ws):
        raise ParameterError("mixture weights must be positive")
    if sum(ws) != 1:
        raise ParameterError(f"mixture weights must sum to 1, got {_quoted(sum(ws))}")
    return DiscreteDistribution._from_ints(*_weighted_atoms(ws, parts))


def _weighted_atoms(
    weights: Sequence[Fraction | int], parts: Sequence[DiscreteDistribution]
) -> tuple[list[int], int, list[int], int]:
    """The signed measure sum_i w_i * mu_i as ``(points, unit, nums, den)``:
    mass nums[i] / den at points[i] / unit, over the least common
    denominators, at every support point of every part.

    ``mixture`` takes its law from it, and ``cx_order`` the jumps of
    F_rhs - F_lhs from weights -1 and 1, so a mass that cancels to 0 keeps
    its point.
    """
    unit = math.lcm(*(part.support_numerators[1] for part in parts))
    den = math.lcm(
        *(w.denominator * part.mass_numerators[1] for w, part in zip(weights, parts))
    )
    mix: dict[int, int] = {}
    for w, part in zip(weights, parts):
        points, part_unit = part.support_numerators
        nums, part_den = part.mass_numerators
        stretch = unit // part_unit
        factor = w.numerator * (den // (w.denominator * part_den))
        for t, v in zip(points, nums):
            mix[t * stretch] = mix.get(t * stretch, 0) + v * factor
    keys = sorted(mix)
    return keys, unit, [mix[k] for k in keys], den


# ---------------------------------------------------------------------------
# Text and JSON formats
# ---------------------------------------------------------------------------
#
# Text format, one atom per line:   <support> <mass>
# with rationals written p/q or as plain integers; '#' starts a comment and
# atoms need not be sorted.  JSON form: {"atoms": [[s, m], ...]} with
# rationals as strings (integers also accepted).  Atoms at equal supports
# merge; a negative mass on any line or entry is rejected, not netted.


def parse_distribution(text: str) -> DiscreteDistribution:
    """Parse either the text or the JSON distribution format."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(stripped)
    return _parse_text(text)


def _parsed_law(pairs: Iterable[tuple[Fraction, Fraction]]) -> DiscreteDistribution:
    """The law of parsed (support, mass) pairs, read one at a time.

    The least common multiples of the support and of the mass denominators
    are kept as the pairs arrive, and the first pair that takes the law past
    :data:`MAX_LAW_BITS` stops the parse before the next one is read.
    """
    held = []
    scale = den = 1
    for support, mass in pairs:
        held.append((support, mass))
        scale = math.lcm(scale, support.denominator)
        den = math.lcm(den, mass.denominator)
        bits = max(scale.bit_length(), den.bit_length())
        if len(held) * bits > MAX_LAW_BITS:
            raise FormatError(
                f"{len(held)} atoms over a {bits}-bit common denominator pass "
                f"the limit of {MAX_LAW_BITS} for atoms times denominator bits"
            )
    try:
        return DiscreteDistribution.from_pairs(held)
    except ParameterError as exc:
        raise FormatError(str(exc)) from exc


# The line boundaries ``str.splitlines`` splits at.
_LINE_BREAK = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _text_lines(text: str) -> Iterator[str]:
    """The lines of ``text.splitlines()``, one at a time, so that a file of
    many lines is never held as a list of them."""
    start = 0
    for match in _LINE_BREAK.finditer(text):
        yield text[start:match.start()]
        start = match.end()
    if start < len(text):
        yield text[start:]


def _parse_text(text: str) -> DiscreteDistribution:
    lines = []
    for lineno, raw in enumerate(_text_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, raw, line))
            if len(lines) > MAX_ATOMS:
                raise FormatError(f"more than the limit of {MAX_ATOMS} atom lines")
    if not lines:
        raise FormatError("no atoms found in distribution text")
    return _parsed_law(map(_text_atom, lines))


def _text_atom(numbered_line: tuple[int, str, str]) -> tuple[Fraction, Fraction]:
    lineno, raw, line = numbered_line
    tokens = line.split()
    if len(tokens) != 2:
        raise FormatError(f"line {lineno}: expected '<support> <mass>', got {raw!r}")
    support, mass = as_rational(tokens[0]), as_rational(tokens[1])
    if mass < 0:
        raise FormatError(f"line {lineno}: negative mass in {raw!r}")
    return support, mass


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
    if len(entries) > MAX_ATOMS:
        raise FormatError(
            f"{len(entries)} atom entries, above the limit of {MAX_ATOMS}"
        )
    return _parsed_law(map(_json_atom, entries))


def _json_atom(entry) -> tuple[Fraction, Fraction]:
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise FormatError(f"bad atom entry: {entry!r}")
    support, mass = as_rational(entry[0]), as_rational(entry[1])
    if mass < 0:
        raise FormatError(f"negative mass in atom entry {entry!r}")
    return support, mass


def distribution_to_json_obj(d: DiscreteDistribution) -> dict:
    return {"atoms": [[str(s), str(m)] for s, m in d.atoms]}
