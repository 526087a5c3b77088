"""Finitely supported probability distributions with exact rational arithmetic.

Every support point, mass, mean, integral and stop-loss value this package
hands out is a :class:`fractions.Fraction`; nothing is ever rounded.  A law
itself is held as int numerators over common denominators, and Fractions
are built only for the values read from it.  A sum of independent laws is
folded in those ints too, as one packed int with a slot per lattice point
while the lattice fits in :data:`MAX_PACKED_BYTES` and the parts' sums can
fill it.  The distribution function convention is left-continuous
throughout:

    F(x) = P(X < x)

so F jumps by the atom mass *at* each support point, F(x) = 0 for
x <= min support and F(x) = 1 for x > max support.  All decision procedures
built on top of this module rely on that convention.

Values are immutable after construction and may be shared freely between
threads or processes; every operation here is a pure function.

Every name this module exports is defined here.  The errors, the rational
coercion ``as_rational`` and the binomial numerators it builds laws from
have their home in :mod:`.exact`, which the lattice route shares without
loading this module; the text and JSON parsers and their limits have theirs
in :mod:`.lawtext`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import mul
from typing import Iterable, Sequence

from .exact import (
    ParameterError,
    RationalLike,
    _quoted,
    _slots,
    as_rational,
    binomial_numerators,
)

__all__ = [
    "DiscreteDistribution",
    "dirac",
    "bernoulli",
    "binomial",
    "convolve",
    "convolve_many",
    "mixture",
    "distribution_to_json_obj",
]


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
        store both pairs with their common factors divided out; a pair whose
        gcd is 1 is stored as it comes, with no pass to divide it."""
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
        # gcd(*nums) divides den, their sum, so it equals gcd(den, *nums); a
        # reduced binomial's den and first numerator are already coprime.
        # Most laws come reduced, and a gcd of 1 leaves nothing to divide.
        g = math.gcd(scale, *points)
        if g > 1:
            points, scale = [p // g for p in points], scale // g
        h = math.gcd(den, *nums)
        if h > 1:
            nums, den = [v // h for v in nums], den // h
        object.__setattr__(self, "support_numerators", (tuple(points), scale))
        object.__setattr__(self, "mass_numerators", (tuple(nums), den))

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
        """The mass of the first i atoms; the last running sum is the denominator."""
        den = self.mass_numerators[1]
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
    a, q = p.numerator, p.denominator
    if not 0 <= a <= q:
        raise ParameterError(f"bernoulli parameter must lie in [0, 1], got {_quoted(p)}")
    if a in (0, q):  # p = 0, or p = 1 = a / q with a = q = 1
        return dirac(a)
    return DiscreteDistribution._from_ints((0, 1), 1, (q - a, a), q)


def binomial(n: int, p: RationalLike) -> DiscreteDistribution:
    """Binomial law with n trials and success probability p, exactly.

    For p = a/q the masses are C(n, k) a^k (q-a)^(n-k) over q^n, in ints
    with arbitrary-precision binomial coefficients.  p = 0 or 1 degenerates
    to a point mass at 0 or n.  n must be an int, as ``rasa`` reads a
    degree.
    """
    if not isinstance(n, int):
        raise ParameterError(f"n must be an int, got {n!r}")
    if n < 1:
        raise ParameterError(f"binomial needs n >= 1, got {n}")
    p = as_rational(p)
    a, q = p.numerator, p.denominator
    if not 0 <= a <= q:
        raise ParameterError(f"binomial parameter must lie in [0, 1], got {_quoted(p)}")
    if a in (0, q):
        return dirac(a * n)
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


MAX_PACKED_BYTES = 65_536
"""The largest lattice ``convolve_many`` folds as one packed int, in bytes:
lattice points times the byte length of the mass denominator.

Below it one int multiply-and-shift per atom of a part replaces a dict
update per pair of atoms; above it the int's own passes cost more than the
dict's.  On n Bernoulli(k/q) parts, q cycling through 2..q_max, the packed
fold took 0.37 of the dict fold's time at n = 150 and q_max = 20 (8 kB),
0.68 at n = 400 and q_max = 20 (59 kB) and 0.80 at n = 300 and q_max = 100
(54 kB); it took 1.04 of it at n = 400 and q_max = 100 (95 kB), 1.03 at
n = 500 and q_max = 37 (110 kB) and 1.66 at n = 1000 (439 kB) (medians of
five to nine runs, Python 3.11, one 2-core x86-64 host).
"""


def convolve_many(parts: Sequence[DiscreteDistribution]) -> DiscreteDistribution:
    """Law of the sum of independent draws from one or more distributions.

    Each part's support is shifted to start at 0 over the parts' least
    common denominator, and divided by the gcd of all shifted points, so the
    sum lives on the lattice 0, 1, ..., length - 1 and its masses are
    products of the parts' int mass numerators over the product of their
    denominators.  No Fraction is built.

    When the lattice, at one slot of the denominator's byte length per
    point, fits in :data:`MAX_PACKED_BYTES`, the numerators are folded as
    one int holding a slot per point: every partial product's coefficient
    is at most the final denominator, so no slot ever carries into the
    next.  The int is read back once, through its bytes, and empty slots
    are dropped.  Above the bound a dict of partial sums is folded part by
    part, and so is a sparse lattice, one with more points than the parts
    can have distinct sums: reading its empty slots back would cost more
    than the dict's updates.
    """
    if not parts:
        raise ParameterError("convolve_many needs at least one distribution")
    unit = math.lcm(*(part.support_numerators[1] for part in parts))
    den = math.prod(part.mass_numerators[1] for part in parts)
    low = 0
    shifted = []
    for part in parts:
        points, part_unit = part.support_numerators
        stretch = unit // part_unit
        low += points[0] * stretch
        shifted.append([(p - points[0]) * stretch for p in points])
    step = math.gcd(*(o for offsets in shifted for o in offsets[1:])) or 1
    length = sum(offsets[-1] for offsets in shifted) // step + 1
    slot = (den.bit_length() + 7) // 8
    folded = [
        ([o // step for o in offsets], part.mass_numerators[0])
        for offsets, part in zip(shifted, parts)
    ]
    if length * slot <= MAX_PACKED_BYTES and _sums_bound(shifted) >= length:
        keys, nums = _packed_fold(folded, length, slot)
    else:
        keys, nums = _dict_fold(folded)
    return DiscreteDistribution._from_ints(
        [low + k * step for k in keys], unit, nums, den
    )


def _sums_bound(shifted: list[list[int]]) -> int:
    """An upper bound on the number of distinct sums of one point from each
    list: r equal lists of k points give at most C(k + r - 1, r) sums, one
    per multiset of r of their points."""
    repeats = Counter(map(tuple, shifted))
    return math.prod(math.comb(len(o) + r - 1, r) for o, r in repeats.items())


def _packed_fold(
    parts: list[tuple[list[int], Sequence[int]]], length: int, slot: int
) -> tuple[list[int], list[int]]:
    """The lattice points and numerators of the sum of the (offsets, nums)
    parts, folded in one int of ``length`` slots of ``slot`` bytes."""
    bits = 8 * slot
    packed = 1
    for offsets, nums in parts:
        packed = sum((packed * v) << (bits * o) for o, v in zip(offsets, nums))
    values = _slots(packed, length, slot)
    keys = [k for k, v in enumerate(values) if v]
    return keys, [values[k] for k in keys]


def _dict_fold(
    parts: list[tuple[list[int], Sequence[int]]],
) -> tuple[list[int], list[int]]:
    """The lattice points and numerators of the sum of the (offsets, nums)
    parts, folded in a dict: the first atom of a part fills the next dict in
    one comprehension, and only the others look their sums up."""
    sums = {0: 1}
    for offsets, nums in parts:
        (t, w), *rest = zip(offsets, nums)
        out = {s + t: v * w for s, v in sums.items()}
        for t, w in rest:
            for s, v in sums.items():
                out[s + t] = out.get(s + t, 0) + v * w
        sums = out
    keys = sorted(sums)
    return keys, [sums[k] for k in keys]


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
# JSON form
# ---------------------------------------------------------------------------


def distribution_to_json_obj(d: DiscreteDistribution) -> dict:
    return {"atoms": [[str(s), str(m)] for s, m in d.atoms]}
