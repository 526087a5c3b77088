"""Exact laws on an integer lattice, as int numerators over one denominator.

A lattice law puts mass ``nums[k] / den`` on the integer k, for k = 0 ..
len(nums) - 1, with Python-int numerators and one positive int denominator.
The binomial law with parameter a/q has the numerators C(n, k) a^k (q-a)^(n-k)
over q^n, and independent sums and uniform mixtures of such laws stay on the
lattice, so building and comparing them needs no Fraction per step.  The
stop-loss oracle here returns the same verdict as ``cx_compare_oracle`` on
the corresponding :class:`DiscreteDistribution`, witness included.

Nothing here normalises: a numerator vector is never reduced by a common
factor, and a Fraction is built only for the values handed back to callers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Callable, NamedTuple, Sequence

from .cx_order import CxVerdict

__all__ = [
    "LatticeLaw",
    "bernstein_numerators",
    "cauchy_product",
    "cauchy_power",
    "uniform_mixture",
    "lattice_oracle",
    "probe_table",
    "dot",
]


class LatticeLaw(NamedTuple):
    """Mass ``nums[k] / den`` at the integer k."""

    nums: list[int]
    den: int


def bernstein_numerators(n: int, a: int, q: int) -> LatticeLaw:
    """The binomial(n, a/q) law: C(n, k) a^k (q-a)^(n-k) over q^n, 0 <= a <= q."""
    b = q - a
    return LatticeLaw(
        [math.comb(n, k) * a**k * b ** (n - k) for k in range(n + 1)], q**n
    )


def cauchy_product(a: LatticeLaw, b: LatticeLaw) -> LatticeLaw:
    """The law of the sum of independent draws from a and b."""
    out = [0] * (len(a.nums) + len(b.nums) - 1)
    for i, ai in enumerate(a.nums):
        if ai:
            for j, bj in enumerate(b.nums):
                out[i + j] += ai * bj
    return LatticeLaw(out, a.den * b.den)


def cauchy_power(law: LatticeLaw, m: int) -> LatticeLaw:
    """The law of the sum of m independent draws from law, m >= 1."""
    out = law
    for _ in range(m - 1):
        out = cauchy_product(out, law)
    return out


def uniform_mixture(laws: Sequence[LatticeLaw]) -> LatticeLaw:
    """The mixture with weight 1/len(laws) on each law.

    The numerators are brought to the least common denominator D of the
    parts and summed, over len(laws) * D: when every part shares D, the
    mixture's numerators are the plain sums of theirs.
    """
    den = math.lcm(*(law.den for law in laws))
    out = [0] * max(len(law.nums) for law in laws)
    for law in laws:
        factor = den // law.den
        for k, v in enumerate(law.nums):
            out[k] += v * factor
    return LatticeLaw(out, len(laws) * den)


def lattice_oracle(lhs: LatticeLaw, rhs: LatticeLaw) -> CxVerdict:
    """Decide lhs <=_cx rhs exactly, as ``cx_compare_oracle`` does.

    With d_k = r_k D_l - l_k D_r, the mass gap rhs - lhs times D_l D_r > 0,
    the stop-loss gap at t = k is G_k = sum_{j>k} (j - k) d_j.  One pass from
    right to left builds it as a double suffix sum, G_k = G_{k+1} + S_{k+1}
    with S_k = d_k + S_{k+1}, so the check is O(K) integer work.  The
    witness is the smallest k with G_k < 0 among the points where lhs or rhs
    has mass: a lattice point empty on both sides is not in the union of
    supports, so it is never a witness.
    """
    size = max(len(lhs.nums), len(rhs.nums))
    ls = lhs.nums + [0] * (size - len(lhs.nums))
    rs = rhs.nums + [0] * (size - len(rhs.nums))
    dl, dr = lhs.den, rhs.den
    gaps = [r * dl - l * dr for l, r in zip(ls, rs)]
    mean_gap = sum(k * d for k, d in enumerate(gaps))
    if mean_gap:
        return CxVerdict(
            holds=False,
            means_equal=False,
            witness=None,
            mean_gap=Fraction(mean_gap, dl * dr),
        )
    witness = None
    stop_gap = tail = 0
    for k in range(size - 1, -1, -1):
        stop_gap += tail
        if stop_gap < 0 and (ls[k] or rs[k]):
            witness = k
        tail += gaps[k]
    return CxVerdict(
        holds=witness is None,
        means_equal=True,
        witness=None if witness is None else Fraction(witness),
        mean_gap=Fraction(0),
    )


def probe_table(
    points: int, probes: Sequence[Callable[[Fraction], Fraction]]
) -> tuple[list[list[int]], int]:
    """Every probe's values f(k / points), k = 0 .. points, over one denominator.

    Returns one row of int numerators per probe and their common (least)
    denominator P, so that sum_k c_k f(k / points) is ``dot(c, row) / P``.
    """
    values = [[f(Fraction(k, points)) for k in range(points + 1)] for f in probes]
    den = math.lcm(*(v.denominator for row in values for v in row))
    rows = [[v.numerator * (den // v.denominator) for v in row] for row in values]
    return rows, den


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    """sum_k a_k b_k over the common length."""
    return sum(map(mul, a, b))
