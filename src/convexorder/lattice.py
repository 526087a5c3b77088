"""Exact laws on an integer lattice, as int numerators over one denominator.

A lattice law puts mass ``nums[k] / den`` on the integer k, for k = 0 ..
len(nums) - 1, with Python-int numerators and one positive int denominator.
The binomial law with parameter a/q has the numerators C(n, k) a^k (q-a)^(n-k)
over q^n, and independent sums and uniform mixtures of such laws stay on the
lattice, so building and comparing them needs no Fraction per step.
``lattice_oracle`` feeds a pair's int jumps to the stop-loss scan shared with
``cx_order``, so its verdict, witness included, is the one
``cx_compare_oracle`` gives on the corresponding :class:`DiscreteDistribution`.

Nothing here normalises: a numerator vector is never reduced by a common
factor, and a Fraction is built only for the values handed back to callers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul
from typing import Callable, NamedTuple, Sequence

from .cx_order import CxVerdict, _oracle_verdict, _scan
from .distributions import binomial_numerators

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
    return LatticeLaw(binomial_numerators(n, a, q), q**n)


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
        nums = law.nums if factor == 1 else [v * factor for v in law.nums]
        out[: len(nums)] = map(add, out, nums)
    return LatticeLaw(out, len(laws) * den)


def lattice_oracle(lhs: LatticeLaw, rhs: LatticeLaw) -> CxVerdict:
    """Decide lhs <=_cx rhs exactly, as ``cx_compare_oracle`` does.

    The grid is the lattice points where lhs or rhs has mass, the union of
    supports, and the jump of F_rhs - F_lhs at k is r_k D_l - l_k D_r over
    D_l D_r; the shared stop-loss scan of ``cx_order`` reads the verdict.
    """
    size = max(len(lhs.nums), len(rhs.nums))
    ls = lhs.nums + [0] * (size - len(lhs.nums))
    rs = rhs.nums + [0] * (size - len(rhs.nums))
    dl, dr = lhs.den, rhs.den
    grid = [k for k in range(size) if ls[k] or rs[k]]
    jumps = [rs[k] * dl - ls[k] * dr for k in grid]
    return _oracle_verdict(_scan(grid, jumps, dl * dr, 1))


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
