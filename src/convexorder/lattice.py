"""Exact laws on an integer lattice, as int numerators over one denominator.

A lattice law puts mass ``nums[k] / den`` on the integer k, for k = 0 ..
len(nums) - 1, with Python-int numerators and one positive int denominator.
The binomial law with parameter a/q has the numerators C(n, k) a^k (q-a)^(n-k)
over q^n, and independent sums and mixtures of such laws stay on the
lattice, so building and comparing them needs no Fraction per step.  The sum
of m independent binomial(n, a/q) draws is binomial(mn, a/q), the same
integers over q^(mn).  The sum of independent binomial(n, p_i/q_i) draws
has the generating function (prod_i ((q_i - p_i) + p_i z))^n over
(prod_i q_i)^n, so :func:`binomial_sum` takes it as one int power by
Kronecker substitution (Harvey, J. Symb. Comput. 2009), the packing
``distributions.convolve_many`` also folds its parts in; ``exact._slots``
reads both back.  A uniform mixture of laws brought to one
denominator D is the plain sum of their numerators over len(laws) * D;
``rasa.point_from_pairs`` builds the one a Rasa point needs that way.

A law's stop-loss table is the vector of E(X - j)_+ times its denominator at
every lattice point j, built by :func:`stop_loss_numerators` in one pass of
two running sums.  On the lattice, X <=_cx Y is decided by the gap vector
E(Y - j)_+ - E(X - j)_+ alone: its entry at j = 0 is the mean gap, and once
the means agree the order holds exactly when no entry at a point of the
union of supports is negative.  :func:`gap_verdict`, the one reader of
such vectors, hands them to ``exact._oracle_verdict``, the verdict reader
``cx_compare_oracle`` also uses, so its verdict, witness included, is the
one ``cx_compare_oracle`` gives on the corresponding
``DiscreteDistribution``.  This module imports only :mod:`.exact` from the
package, so the lattice route loads neither ``cx_order`` nor
``distributions``.  A Rasa point builds the tables of its three laws once
and reads all three relations from them (``rasa.StopLossTable``).

Nothing here normalises: a numerator vector is never reduced by a common
factor, and a Fraction is built only for the values handed back to callers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, compress
from operator import mul, or_
from typing import Callable, NamedTuple, Sequence

from .exact import CxVerdict, _oracle_verdict, _slots, binomial_numerators

__all__ = [
    "LatticeLaw",
    "bernstein_numerators",
    "binomial_sum",
    "stop_loss_numerators",
    "gap_verdict",
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


def binomial_sum(n: int, pairs: Sequence[tuple[int, int]]) -> LatticeLaw:
    """The law of the sum of independent binomial(n, p_i/q_i) draws, over
    (prod_i q_i)^n, for 0 <= p_i <= q_i.

    Its numerators are the coefficients of the polynomial power
    (prod_i ((q_i - p_i) + p_i z))^n, which Kronecker substitution makes one
    int power: z is packed as 2^(8 slot), for slot the byte length of the
    denominator.  Every coefficient is at most the denominator, so no slot
    carries into the next, and ``exact._slots`` reads them back.
    """
    den = math.prod(q for _, q in pairs) ** n
    slot = (den.bit_length() + 7) // 8
    packed = [(q - p) + (p << 8 * slot) for p, q in pairs]
    # A balanced product tree: a running product would multiply its growing
    # int by each factor in turn, quadratic in the number of parameters.
    while len(packed) > 1:
        packed = [math.prod(packed[i:i + 2]) for i in range(0, len(packed), 2)]
    return LatticeLaw(_slots(packed[0] ** n, len(pairs) * n + 1, slot), den)


def stop_loss_numerators(nums: Sequence[int]) -> list[int]:
    """pi(j) = sum_{k > j} (k - j) nums[k] for j = 0 .. len(nums) - 1.

    Over the law's denominator, pi(j) is E(X - j)_+, and pi(0) is the mean.
    From the top, pi(j) = pi(j + 1) + sum_{k > j} nums[k]: two running sums.
    """
    tails = accumulate(reversed(nums[1:]), initial=0)
    out = list(accumulate(tails))
    out.reverse()
    return out


def gap_verdict(
    lhs: Sequence[int], rhs: Sequence[int], gaps: Sequence[int], den: int
) -> CxVerdict:
    """Decide lhs <=_cx rhs from the numerators of their stop-loss gap.

    ``lhs`` and ``rhs`` are the laws' numerators, of one length, read only
    for their supports; ``gaps[j] / den`` is E(rhs - j)_+ - E(lhs - j)_+ at
    every lattice point j.  The gap at 0 is the mean gap, and the witness is
    the first point of the union of supports with a negative gap.
    """
    # A gap that is nowhere negative leaves no witness to look for.
    support = compress(enumerate(gaps), map(or_, lhs, rhs)) if min(gaps) < 0 else ()
    return _oracle_verdict(gaps[0], support, den, 1)


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
