"""Bernstein basis evaluation and the inequality verifiers built on it.

The central object is the quadratic Bernstein form

    sum_{i,j=0}^{n} ( b_{n,i}(x) b_{n,j}(x) + b_{n,i}(y) b_{n,j}(y)
                      - 2 b_{n,i}(x) b_{n,j}(y) ) * f((i + j) / (2n))

whose nonnegativity for every convex f on [0, 1] is the Rasa inequality, and
its m-variable generalisation with coefficient m on the cross product.  Both
forms are evaluated exactly and both are tied to a convex-order statement:
the form equals 2 (resp. m) times E_rhs f - E_lhs f, where lhs is the law of
the normalised sum of independent binomial draws with parameters x_i and rhs
is the uniform mixture of the laws of the normalised i.i.d. sums.  The
verifiers here decide those order relations with the exact oracle.

The forms and the verifiers of the Rasa relations run on the integer lattice
kernel (:mod:`.lattice`) and share one route: :func:`point_from_pairs`
builds one :class:`StopLossTable` per parameter tuple in one integer pass.
The table holds the sum, the pooled law and the mixture as int numerators,
the form's coefficients F = M - m S read off the same integers, and the gap
vectors of the relations (a), (b) and (c) over common denominators.  The
stop-loss map is linear, so two stop-loss passes, over F and over the
pooled law minus the scaled sum, give all three gaps; all three verdicts
are read from them.  By the bridge identity, gap (c) at j is also the form's
value on the angle at j / (mn), so a sweep reads the angles' minimum from it
without evaluating a probe, and every other probe is one dot product with
F.  ``verify_theorem_main`` is relation (c) at m = 2, read from that table.
Only ``poisson_binomial`` and ``verify_hoeffding`` stay on
``DiscreteDistribution``.  ``distributions`` and ``cx_order`` are imported
only inside them, the functions that use them, so a sweep, which runs only
the lattice route, loads neither.  Nor does ``psi_sign_pattern``: it sums
int powers and counts its sign changes with ``exact.sign_changes``.  Test
functions appear here only in annotations, so this module loads ``exact``
and ``lattice`` of the package and not ``convex_functions``:
``psi-pattern`` runs on ``rasa``, ``exact`` and ``lattice`` alone,
``hoeffding`` adds ``distributions`` and ``cx_order``, and a sweep loads
``convex_functions`` through ``sweep``, which builds the probes.

The m-fold i.i.d. sum of binomial(n, x) draws is binomial(mn, x), so every
law at a point is a binomial law but the independent sum, which is the
point's one Cauchy-product work.  Its binomial laws, at degrees n and mn,
and the independent sum of all its parameters but the last depend on few
of its values, so each process caches them over their own denominators
(see ``LAW_CACHE_SIZE``) and :func:`point_from_pairs` brings them to the
point's common denominator with integer factors.  Grid sweeps call that
one builder directly, uncached, with reduced int pairs.  Library calls go
through :func:`lattice_point`, which checks its input once and keeps the
last 64 tables it built, so the forms and the verifiers of one point share
one table; the tables it returns are shared and only ever read.

Boundary parameters x_i in {0, 1} are handled directly through the Dirac
degeneration of the binomial law, so no limiting argument is required
anywhere: every claim is a finite, exact computation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from operator import add
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .exact import (
    CxVerdict,
    ParameterError,
    RationalLike,
    _power_products,
    _quoted,
    as_rational,
    binomial_numerators,
    sign_changes,
)
from .lattice import (
    LatticeLaw,
    bernstein_numerators,
    cauchy_product,
    dot,
    gap_verdict,
    probe_table,
    stop_loss_numerators,
)

if TYPE_CHECKING:
    from .convex_functions import ConvexTestFunction
    from .distributions import DiscreteDistribution

__all__ = [
    "MAX_LATTICE_LENGTH",
    "LAW_CACHE_SIZE",
    "PsiPattern",
    "GeneralizedVerdicts",
    "StopLossTable",
    "bernstein_vector",
    "rasa_form",
    "rasa_form_general",
    "lattice_point",
    "point_from_pairs",
    "verify_theorem_main",
    "verify_generalized",
    "poisson_binomial",
    "verify_hoeffding",
    "psi_sign_pattern",
]

MAX_LATTICE_LENGTH = 1000
"""The largest m * n a sweep, a psi pattern or a library point accepts,
and the most parameters a Hoeffding check accepts.

:func:`lattice_point`, the entry of the forms and the verifiers, and
``psi_sign_pattern`` read a point through one reader, which checks it, with
one message, before a cache is read or a law built;
:func:`poisson_binomial` and :func:`verify_hoeffding` check their parameter
count before they read a parameter.  A Hoeffding check of 1000 parameters
took 0.17 s in-process on one 2-core x86-64 host, and of 2000 about 0.9 s.

The lattice 0..m*n carries every law, form and psi sequence, and its cost
grows fast with it: one ``verify-rasa`` grid point with all probe groups
(m = 2, parameters 1/3 and 1/2, probe table included) took 0.07 s at
m * n = 500, 0.31 s at 1000 and 2.3 s at 2000 in a fresh process on one
2-core x86-64 host, and with parameters of denominator 37, 1.5 to 2.8 s at
1000.  A psi pattern at m * n = 1000 took 0.02 s there with two parameters,
0.4 s with 100, 0.7 s with 200 and 2.9 s with 1000 (parameters k / (m + 1)),
as its sums of int power products also grow with m.
"""


def bernstein_vector(n: int, x: Fraction) -> tuple[Fraction, ...]:
    """All basis values (b_{n,0}(x), ..., b_{n,n}(x)); the binomial(n, x) masses.

    They are the binomial numerators of x = p/q over q^n, as Fractions.
    """
    if not isinstance(n, int):
        raise ParameterError(f"degree must be an int, got {n!r}")
    if n < 1:
        raise ParameterError(f"degree must be >= 1, got {n}")
    if not 0 <= x <= 1:
        raise ParameterError(f"argument must lie in [0, 1], got {_quoted(x)}")
    den = x.denominator**n
    return tuple(
        Fraction(v, den) for v in binomial_numerators(n, x.numerator, x.denominator)
    )


class StopLossTable(NamedTuple):
    """The laws at one point (n, x_1..x_m), its form and the stop-loss gaps
    of its three relations.

    Each x_i is written a_i / L over the least common denominator L of the
    parameters.  ``the_sum`` is the Cauchy product of the binomial(n, x_i)
    laws (the cross product, over L^(mn)), ``pooled`` the binomial(mn, mean
    of the x_i) law (over (m L)^(mn)) and ``mixed`` the uniform mixture of
    the m-fold self sums, the binomial(mn, x_i) laws (summed over
    m L^(mn)); all three live on 0..mn.  ``form`` holds the coefficient of
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


def lattice_point(n: int, xs: Sequence[RationalLike]) -> StopLossTable:
    """The laws, form and gaps at (n, x_1..x_m); n an int >= 1, m >= 2,
    m * n at most ``MAX_LATTICE_LENGTH`` and x_i in [0, 1].

    The point is read by ``_read_point``, which checks all but the
    interval, so m * n is checked before the parameters' interval.

    Library callers probe one point with many test functions and decide its
    relations too, so the last 64 tables are kept per process, keyed by n
    and the parameters' reduced pairs: every spelling of one value reads one
    table.  A returned table is shared; its lists are only ever read.
    """
    xs = _read_point(n, xs)
    for x in xs:
        if not 0 <= x <= 1:
            raise ParameterError(f"parameters must lie in [0, 1], got {_quoted(x)}")
    return _cached_point(n, tuple((x.numerator, x.denominator) for x in xs))


def _read_point(n: int, xs: Sequence[RationalLike]) -> list[Fraction]:
    """The parameters of the point (n, x_1..x_m) as Fractions, once n is an
    int, n >= 1, m >= 2 and m * n is at most ``MAX_LATTICE_LENGTH``.

    The one reader of a point for :func:`lattice_point` and
    :func:`psi_sign_pattern`; each caller checks the interval its
    parameters must lie in.
    """
    xs = [as_rational(x) for x in xs]
    if len(xs) < 2:
        raise ParameterError("need at least two parameters")
    if not isinstance(n, int):
        raise ParameterError(f"n must be an int, got {n!r}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {_quoted(n)}")
    mn = len(xs) * n
    if mn > MAX_LATTICE_LENGTH:
        raise ParameterError(f"m * n is {_quoted(mn)}, above the limit of {MAX_LATTICE_LENGTH}")
    return xs


LAW_CACHE_SIZE = 1024
"""The binomial laws each process keeps, one per (degree, p, q).

A point reads binomial(n, p/q) for its sum and binomial(mn, p/q) for its
mixture, so a lexicographic grid cycles both degrees through the whole
Farey set, and a cache smaller than twice that set would never hit.  The
largest set a grid of ``sweep.MAX_GRID_POINTS`` points holds has 433 values
(``--m 2 --denom 37``), so that grid needs 866 entries.  An entry grows with
its degree and with the bits of q: at m * n = 1000 and q = 37 the 433 laws
of degree 500 take 63 MB and the 433 of degree 1000 take 237 MB, so the
cache holds at most about 300 MB, on grids with n near 500 whose points
take about 1.5 to 2.8 s each (m = 2, parameters such as 12/37 and 35/37).
At ``--n 10..12 --m 2 --denom 16`` it holds 486 laws, 0.4 MB, and at
``--n 150 --m 2 --denom 5`` 22 laws, 0.4 MB.
The cache of sums over all parameters but the last keeps 16 of them, each
on a lattice shorter than the point's, so at most about 11 MB.
"""


# binomial(n, p/q) over q^n, keyed by the degree and the reduced pair.
_binomial = lru_cache(maxsize=LAW_CACHE_SIZE)(bernstein_numerators)


@lru_cache(maxsize=16)
def _prefix_sum(n: int, pairs: tuple[tuple[int, int], ...]) -> LatticeLaw:
    # The independent sum over all parameters but the last, over the product
    # of their own q^n: lexicographic grids share it along each run of points.
    return reduce(cauchy_product, (_binomial(n, p, q) for p, q in pairs))


def _over(law: LatticeLaw, den: int) -> list[int]:
    # The law's numerators over den, a multiple of its denominator.
    factor = den // law.den
    return law.nums if factor == 1 else [v * factor for v in law.nums]


def point_from_pairs(n: int, pairs: tuple[tuple[int, int], ...]) -> StopLossTable:
    """The laws, form and gaps at (n, p_1/q_1 .. p_m/q_m), from reduced pairs.

    The caller guarantees n >= 1, m >= 2 and 0 <= p_i <= q_i in lowest
    terms; :func:`lattice_point` checks that and reads this through its
    cache.  The binomial laws at degrees n and mn and the sum of the first
    m - 1 parameters come from the per-process caches, each over its own
    denominators.  The sum's last factor is its one Cauchy product.  One
    step, ``_over``, brings the sum and each mixture part to L^(mn), L the
    least common denominator, by an integer factor; the mixture adds its m
    parts there one at a time and is taken over m L^(mn).

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
    the_sum = cauchy_product(_prefix_sum(n, pairs[:-1]), _binomial(n, *pairs[-1]))
    s = _over(the_sum, full_den)
    # The m-fold self sum of binomial(n, p/q) is binomial(mn, p/q) over
    # q^(mn), which divides L^(mn); one rescaled part is held at a time.
    mixed = LatticeLaw([0] * (mn + 1), m * full_den)
    for p, q in pairs:
        mixed.nums[:] = map(add, mixed.nums, _over(_binomial(mn, p, q), full_den))
    total = sum(p * (common_den // q) for p, q in pairs)
    pooled = bernstein_numerators(mn, total, m * common_den)
    form = [c - m * a for a, c in zip(s, mixed.nums)]
    sum_vs_mixture = stop_loss_numerators(form)
    scale = m ** (mn - 1)
    full = m * scale
    sum_vs_pooled = stop_loss_numerators([b - full * a for a, b in zip(s, pooled.nums)])
    return StopLossTable(
        LatticeLaw(s, full_den),
        pooled,
        mixed,
        form,
        sum_vs_pooled,
        [scale * c - a for a, c in zip(sum_vs_pooled, sum_vs_mixture)],
        sum_vs_mixture,
    )


_cached_point = lru_cache(maxsize=64)(point_from_pairs)


@lru_cache(maxsize=256)
def _probe_row(points: int, f: ConvexTestFunction) -> tuple[list[int], int]:
    # Callers evaluate one form at many points with the same few probes.
    rows, den = probe_table(points, (f,))
    return rows[0], den


def rasa_form(
    n: int, x: RationalLike, y: RationalLike, f: ConvexTestFunction
) -> Fraction:
    """Exact value of the two-variable quadratic Bernstein form at (x, y)."""
    return rasa_form_general(n, (x, y), f)


def rasa_form_general(
    n: int, xs: Sequence[RationalLike], f: ConvexTestFunction
) -> Fraction:
    """Exact value of the m-variable Bernstein form at (x_1, ..., x_m).

    The coefficient of f(k / (mn)) collects, over all index tuples summing
    to k, the m same-parameter products minus m times the cross product;
    the point's :class:`StopLossTable` holds them as integers.
    """
    table = lattice_point(n, xs)
    row, den = _probe_row(len(table.form) - 1, f)
    return Fraction(dot(table.form, row), table.the_sum.den * den)


def verify_theorem_main(n: int, x: RationalLike, y: RationalLike) -> CxVerdict:
    """Oracle verdict for sum-vs-mixture on the unscaled two-parameter pair."""
    return verify_generalized(n, (x, y)).sum_vs_mixture


def _check_count(ps: Sequence[RationalLike]) -> None:
    if not ps:
        raise ParameterError("need at least one parameter")
    if len(ps) > MAX_LATTICE_LENGTH:
        raise ParameterError(
            f"{len(ps)} parameters given, above the limit of {MAX_LATTICE_LENGTH}"
        )


def poisson_binomial(ps: Sequence[RationalLike]) -> DiscreteDistribution:
    """Exact law of a sum of independent Bernoulli draws with parameters ps."""
    from .distributions import bernoulli, convolve_many

    _check_count(ps)
    parts = [bernoulli(p) for p in ps]
    return convolve_many(parts)


def verify_hoeffding(ps: Sequence[RationalLike]) -> CxVerdict:
    """Binomial convex-concentration check.

    Compares the sum of independent Bernoulli(p_i) draws against the
    binomial law with the same trial count and the averaged parameter; the
    sum precedes the binomial in the convex order.
    """
    from .cx_order import cx_compare_oracle
    from .distributions import binomial

    _check_count(ps)
    ps = [as_rational(p) for p in ps]
    for p in ps:
        if not 0 < p < 1:
            raise ParameterError(f"parameters must lie in (0, 1), got {_quoted(p)}")
    n = len(ps)
    p_bar = sum(ps, Fraction(0)) / n
    return cx_compare_oracle(poisson_binomial(ps), binomial(n, p_bar))


class PsiPattern(NamedTuple):
    """The exact sequence psi_k separating mixture and averaged binomial masses.

    psi_k = (1/m) sum_i x_i^k (1-x_i)^(mn-k) - xbar^k (1-xbar)^(mn-k) for
    k = 0..mn.  For interior, not-all-equal parameters the signs follow the
    pattern +,...,-,...,+ with exactly two changes.
    """

    values: tuple[Fraction, ...]
    pattern: str
    change_count: int


def psi_sign_pattern(n: int, xs: Sequence[RationalLike]) -> PsiPattern:
    """Compute psi_0..psi_mn and its sign-change structure.

    The point is read as :func:`lattice_point` reads it (``_read_point``).
    Parameters must then be strictly inside (0, 1) and not all equal; the
    all equal input makes psi identically zero and is rejected as degenerate.
    The sequence is summed in ints over one common denominator, and one
    Fraction is built per value.
    """
    xs = _read_point(n, xs)
    for x in xs:
        if not 0 < x < 1:
            raise ParameterError(f"parameters must lie in (0, 1), got {_quoted(x)}")
    if all(x == xs[0] for x in xs):
        raise ParameterError("degenerate input: all parameters equal, psi == 0")
    m = len(xs)
    mn = m * n
    # With x_i = a_i / q over the least common denominator q and A = sum a_i,
    # psi_k = (m^(mn-1) sum_i a_i^k (q - a_i)^(mn-k) - A^k (mq - A)^(mn-k))
    # over (mq)^mn; the ints below are those numerators.
    q = math.lcm(*(x.denominator for x in xs))
    numerators = [x.numerator * (q // x.denominator) for x in xs]
    own = [0] * (mn + 1)
    for a in numerators:
        for k, term in enumerate(_power_products(a, q - a, mn)):
            own[k] += term
    total = sum(numerators)
    pooled = _power_products(total, m * q - total, mn)
    m_power = m ** (mn - 1)
    nums = [m_power * v - w for v, w in zip(own, pooled)]
    den = (m * q) ** mn
    pattern = "".join("+" if v > 0 else "-" if v < 0 else "0" for v in nums)
    return PsiPattern(
        values=tuple(Fraction(v, den) for v in nums),
        pattern=pattern,
        change_count=sign_changes(nums),
    )


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


def verify_generalized(n: int, xs: Sequence[RationalLike]) -> GeneralizedVerdicts:
    """Oracle verdicts for the three unscaled relations at (n, x_1..x_m)."""
    return lattice_point(n, xs).verdicts()
