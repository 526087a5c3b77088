"""Exact laws on an integer lattice, as int numerators over one denominator,
and the Rasa point built on them.

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
denominator D is the plain sum of their numerators over len(laws) * D.

A law's stop-loss table is the vector of E(X - j)_+ times its denominator at
every lattice point j, built by :func:`stop_loss_numerators` in one pass of
two running sums.  On the lattice, X <=_cx Y is decided by the gap vector
E(Y - j)_+ - E(X - j)_+ alone: its entry at j = 0 is the mean gap, and once
the means agree the order holds exactly when no entry at a point of the
union of supports is negative.  The gap is linear between points of that
union, equals the mean gap below its hull and 0 above it, so the order
holds exactly when the mean gap is 0 and no entry at all is negative
(``_holds``).
:func:`gap_verdict`, the one reader of such vectors, hands the others to
``exact._oracle_verdict``, the verdict reader ``cx_compare_oracle`` also
uses, so its verdict, witness included, is the one ``cx_compare_oracle``
gives on the corresponding ``DiscreteDistribution``.

:func:`point_from_pairs` builds the Rasa point (n, x_1..x_m): the
independent sum, the pooled binomial law and the mixture of the m-fold self
sums, the form's coefficients and the gaps of the three relations, in one
:class:`StopLossTable`, from which :class:`GeneralizedVerdicts` are read.
Every part of its mixture is one binomial law of degree mn, which the
caller hands in: a ``verify-rasa`` sweep builds each Farey value's law once
per (n, m) block, calls the builder directly and reads its verdicts as
bools through ``_holds``; ``rasa`` builds a library point's parts one by
one as the builder reads them.  Every name this module exports is defined
here.  This module keeps no cache, and imports only :mod:`.exact` from the
package, so a sweep loads neither ``rasa``, ``cx_order`` nor
``distributions``.

Nothing here normalises: a numerator vector is never reduced by a common
factor, and a Fraction is built only for the values handed back to callers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, compress
from operator import add, mul, or_
from typing import Callable, Iterable, NamedTuple, Sequence

from .exact import _HOLDS, CxVerdict, _oracle_verdict, _slots, binomial_numerators

__all__ = [
    "MAX_LATTICE_LENGTH",
    "LatticeLaw",
    "GeneralizedVerdicts",
    "StopLossTable",
    "bernstein_numerators",
    "binomial_sum",
    "stop_loss_numerators",
    "gap_verdict",
    "point_from_pairs",
    "probe_table",
    "dot",
]

MAX_LATTICE_LENGTH = 1000
"""The largest m * n a sweep, a psi pattern or a library point accepts,
and the most parameters a Hoeffding check accepts.

``rasa.lattice_point``, the entry of the forms and the verifiers, and
``rasa.psi_sign_pattern`` read a point through one reader, which checks it,
with one message, before a cache is read or a law built;
``rasa.poisson_binomial`` and ``rasa.verify_hoeffding`` check their
parameter count before they read a parameter, and ``sweep.RunConfig``
checks the grid's largest m * n.  A Hoeffding check of 1000 parameters
took 0.17 s in-process on one 2-core x86-64 host, and of 2000 about 0.9 s.

The lattice 0..m*n carries every law, form and psi sequence, and its cost
grows fast with it.  One ``verify-rasa`` grid point with all probe groups
(m = 2, parameters 1/3 and 1/2, its laws included), whose minimum relation
(c) decides, took 0.007 s of CPU at m * n = 500, 0.05 s at 1000 and 0.39
to 0.42 s at 2000 in a fresh process, after its imports, on one 2-core
x86-64 host (three runs each).  A point that builds the probe table and
takes its dot products, such as one without the angles, took 0.02 to
0.04 s, 0.09 s and 0.49 to 0.51 s.  With parameters 12/37 and 35/37 a
point took 0.36 to 0.38 s at 1000, and 0.40 to 0.41 s with the table.
A psi pattern at m * n = 1000 took 0.04 to 0.05 s
there with two parameters and 0.5 to 0.74 s with 100 (k/101), as its sums
of int power products also grow with m; 700 parameters k/1497 at n = 1
took 1.2 to 1.4 s.  ``rasa.MAX_POINT_BITS`` bounds the parameters' bits.
"""


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


def _holds(gaps: Sequence[int]) -> bool:
    """Whether lhs <=_cx rhs, from their stop-loss gap at every lattice point:
    the mean gap, at 0, is 0 and no gap is negative."""
    return not gaps[0] and min(gaps) >= 0


def gap_verdict(
    lhs: Sequence[int], rhs: Sequence[int], gaps: Sequence[int], den: int
) -> CxVerdict:
    """Decide lhs <=_cx rhs from the numerators of their stop-loss gap.

    ``lhs`` and ``rhs`` are the laws' numerators, of one length, read only
    for their supports; ``gaps[j] / den`` is E(rhs - j)_+ - E(lhs - j)_+ at
    every lattice point j.  The gap at 0 is the mean gap, and the witness is
    the first point of the union of supports with a negative gap.
    """
    if _holds(gaps):
        return _HOLDS
    return _oracle_verdict(gaps[0], compress(enumerate(gaps), map(or_, lhs, rhs)), den, 1)


class GeneralizedVerdicts(NamedTuple):
    """The three order relations behind the m-variable inequality.

    (a) the independent sum precedes the pooled binomial law,
    (b) the pooled binomial law precedes the uniform mixture of i.i.d. sums,
    (c) the independent sum precedes the mixture directly.
    All three are oracle verdicts on the unscaled distributions.
    """

    sum_vs_pooled: CxVerdict
    pooled_vs_mixture: CxVerdict
    sum_vs_mixture: CxVerdict

    @property
    def all_hold(self) -> bool:
        return (
            self.sum_vs_pooled.holds
            and self.pooled_vs_mixture.holds
            and self.sum_vs_mixture.holds
        )


class StopLossTable(NamedTuple):
    """The laws at one point (n, x_1..x_m), its form and the stop-loss gaps
    of its three relations.

    Each x_i is written a_i / L over the least common denominator L of the
    parameters.  ``the_sum`` is the law of the independent sum of
    binomial(n, x_i) draws (the form's cross product, over L^(mn)),
    ``pooled`` the binomial(mn, mean of the x_i) law (over (m L)^(mn)) and
    ``mixed`` the uniform mixture of the m-fold self sums, the
    binomial(mn, x_i) laws (summed over m L^(mn)); all three live on 0..mn.
    ``form`` holds the coefficient of
    f(k / (mn)) in the form over L^(mn): the mixture's numerators minus m
    times the sum's, by the bridge identity form = m (E_mixed f - E_sum f).

    Each gap vector holds, at every lattice point j = 0..mn, the numerator
    of E(rhs - j)_+ - E(lhs - j)_+ for its relation lhs <=_cx rhs: (a) and
    (b) over the pooled law's denominator (m L)^(mn), and (c) over the
    mixture's, m L^(mn).  By the bridge identity, the form's value on the
    angle (t - j/(mn))_+ is ``sum_vs_mixture[j]`` over mn L^(mn).
    """

    the_sum: LatticeLaw
    pooled: LatticeLaw
    mixed: LatticeLaw
    form: list[int]
    sum_vs_pooled: list[int]
    pooled_vs_mixture: list[int]
    sum_vs_mixture: list[int]

    def verdicts(self) -> GeneralizedVerdicts:
        """Oracle verdicts for the relations (a), (b) and (c)."""
        the_sum, pooled, mixed = self.the_sum.nums, self.pooled.nums, self.mixed.nums
        den_ab, den_c = self.pooled.den, self.mixed.den
        return GeneralizedVerdicts(
            sum_vs_pooled=gap_verdict(the_sum, pooled, self.sum_vs_pooled, den_ab),
            pooled_vs_mixture=gap_verdict(
                pooled, mixed, self.pooled_vs_mixture, den_ab
            ),
            sum_vs_mixture=gap_verdict(the_sum, mixed, self.sum_vs_mixture, den_c),
        )


def point_from_pairs(
    n: int, pairs: Sequence[tuple[int, int]], parts: Iterable[Sequence[int]]
) -> StopLossTable:
    """The laws, form and gaps at (n, p_1/q_1 .. p_m/q_m), from reduced pairs
    and the mixture's parts.

    The caller guarantees n >= 1, m >= 2 and 0 <= p_i <= q_i in lowest
    terms; ``rasa.lattice_point`` checks that and reads this through its
    cache.  ``parts`` holds, in the order of ``pairs``, the numerators of
    each binomial(mn, p_i/q_i) over q_i^(mn), as
    ``exact.binomial_numerators(mn, p_i, q_i)`` gives them.  It is read
    once and no part is changed, so a generator builds each law only as it
    is summed in, and a caller may share one list among points.  The sum is
    one packed power, :func:`binomial_sum`, over the product of the q_i^n,
    brought to L^(mn), L the least common denominator, by one integer
    factor.  The parts that share a q are summed, and each such sum is
    scaled to L^(mn) as it is added to the mixture, which is taken over
    m L^(mn).

    The stop-loss map pi is linear, so two passes give all three gaps.
    With S, P and M the numerators of the sum, the pooled law and the
    mixture, gap (c) is pi(M) - m pi(S) = pi(F) for the form's coefficients
    F = M - m S, gap (a) is pi(P) - m^(mn) pi(S) = pi(P - m^(mn) S), and gap
    (b), m^(mn-1) pi(M) - pi(P), is m^(mn-1) (c) - (a).
    """
    m = len(pairs)
    mn = m * n
    common_den = math.lcm(*(q for _, q in pairs))
    full_den = common_den**mn
    s = binomial_sum(n, pairs)
    factor = full_den // s.den
    s = s.nums if factor == 1 else [factor * v for v in s.nums]
    # The m-fold self sum of binomial(n, p/q) is binomial(mn, p/q) over
    # q^(mn), which divides L^(mn).
    own: dict[int, Sequence[int]] = {}
    for (_, q), part in zip(pairs, parts):
        if q in own:
            part = list(map(add, own[q], part))
        own[q] = part
    mixed = [0] * (mn + 1)
    for q, part in own.items():
        factor = (common_den // q) ** mn
        if factor == 1:
            mixed = list(map(add, mixed, part))
        else:
            mixed = [a + factor * b for a, b in zip(mixed, part)]
    total = sum(p * (common_den // q) for p, q in pairs)
    pooled = bernstein_numerators(mn, total, m * common_den)
    form = [c - m * a for a, c in zip(s, mixed)]
    sum_vs_mixture = stop_loss_numerators(form)
    scale = m ** (mn - 1)
    full = m * scale
    sum_vs_pooled = stop_loss_numerators([b - full * a for a, b in zip(s, pooled.nums)])
    return StopLossTable(
        LatticeLaw(s, full_den),
        pooled,
        LatticeLaw(mixed, m * full_den),
        form,
        sum_vs_pooled,
        [scale * c - a for a, c in zip(sum_vs_pooled, sum_vs_mixture)],
        sum_vs_mixture,
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
