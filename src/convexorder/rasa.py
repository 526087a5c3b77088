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
kernel (:mod:`.lattice`) and share one route: ``lattice.point_from_pairs``
builds one ``lattice.StopLossTable`` per parameter tuple in one integer
pass.  The table holds the sum, the pooled law and the mixture as int
numerators, the form's coefficients F = M - m S read off the same
integers, and the gap vectors of the relations (a), (b) and (c) over
common denominators; its three verdicts are read from those gaps.  That
builder, the table, ``GeneralizedVerdicts`` and ``MAX_LATTICE_LENGTH``
have their home in ``lattice``, so a ``verify-rasa`` sweep, which calls
the builder directly with reduced int pairs and its block's binomial
laws, does not load this module; every name this module exports is
defined here.  Library calls go through :func:`lattice_point`, which
checks its input once and keeps the last table it built, so consecutive
forms and verifiers on one point share one table; the table it returns is
shared and only ever read.  The binomial laws of a point's mixture are
built for that point and dropped once summed.  Every probe of a form is
one dot product with F, and ``verify_theorem_main`` is relation (c) at
m = 2, read from that table.

Only ``poisson_binomial`` and ``verify_hoeffding`` stay on
``DiscreteDistribution``.  ``distributions`` and ``cx_order`` are imported
only inside them, the functions that use them.  ``psi_sign_pattern``
takes its mixture from the builder's mixture step, ``lattice._mixture``,
on int power products, so this module holds no mixture arithmetic of its
own, and counts its sign changes with ``exact.sign_changes``.  Test
functions appear here only in annotations, so this module loads ``exact``
and ``lattice`` of the package and not ``convex_functions``:
``psi-pattern`` runs on ``rasa``, ``exact`` and ``lattice`` alone, and
``hoeffding`` adds ``distributions`` and ``cx_order``.

Boundary parameters x_i in {0, 1} are handled directly through the Dirac
degeneration of the binomial law, so no limiting argument is required
anywhere: every claim is a finite, exact computation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
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
    MAX_LATTICE_LENGTH,
    GeneralizedVerdicts,
    StopLossTable,
    _mixture,
    dot,
    point_from_pairs,
    probe_table,
)

if TYPE_CHECKING:
    from .convex_functions import ConvexTestFunction
    from .distributions import DiscreteDistribution

__all__ = [
    "PsiPattern",
    "bernstein_vector",
    "rasa_form",
    "rasa_form_general",
    "lattice_point",
    "verify_theorem_main",
    "verify_generalized",
    "poisson_binomial",
    "verify_hoeffding",
    "psi_sign_pattern",
]

MAX_POINT_BITS = 14_284
"""The largest m * n * bit_length(m * L) of a library point or a psi
pattern, L the least common denominator of the parameters.

(m L)^(mn) is the denominator of the pooled law and of psi, so this bounds
the bits of every int at the point.  An int of at most 14 284 bits has at
most 4300 decimal digits, Python's limit for printing one, so every psi
value of an admitted point can be written.  The grid a sweep admits
reaches 14 000, at m = 4, n = 250 and denominators up to 9 (L = 2520).
``_read_point`` checks the bound after m * n, before any law is built, and
stops at the first parameter that passes it, so a hostile point such as
300 reciprocal primes is rejected in well under a second: 100 of them had
taken 3.3 s and 200 of them 128 s before failing to print psi.

At 14 000, on one 2-core x86-64 host with Python 3.11, a point at m = 2,
n = 500 (1/8191 and 2/8191) took 1.7 s and 23 MB, and one at m = 5,
n = 200 (1/2, 1/3, 1/5, 1/7, 1/11) 0.24 s and 26 MB; their psi patterns
took 0.22 to 0.24 s and 0.34 to 0.41 s (quartiles of 16 fresh
processes).  Many parameters cost more time, because each adds a binomial
law of degree mn to the mixture, though each law is dropped once summed:
700 values k/1497 at n = 1 took 3.2 to 4.0 s (median 3.5 s, six fresh
processes) and 21 MB as a point, and 1.32 to 1.49 s and 19 MB as a psi
pattern.
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


def lattice_point(n: int, xs: Sequence[RationalLike]) -> StopLossTable:
    """The laws, form and gaps at (n, x_1..x_m); n an int >= 1, m >= 2,
    m * n at most ``MAX_LATTICE_LENGTH`` and x_i in [0, 1].

    The point is read by ``_read_point``, which checks all but the
    interval, so m * n is checked before the parameters' interval.

    Library callers probe one point with many test functions and decide its
    relations too, so the last table is kept per process, keyed by n and
    the parameters' reduced pairs: consecutive calls on one point, in any
    spelling of its values, build one table, and calls that move from point
    to point hold one table at a time.  A returned table is shared; its
    lists are only ever read.
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
    m = len(xs)
    mn = m * n
    if mn > MAX_LATTICE_LENGTH:
        raise ParameterError(f"m * n is {_quoted(mn)}, above the limit of {MAX_LATTICE_LENGTH}")
    # The common denominator only grows, so the first one over the limit
    # stops the read before a long lcm is taken.
    common = 1
    for x in xs:
        common = math.lcm(common, x.denominator)
        if mn * (m * common).bit_length() > MAX_POINT_BITS:
            raise ParameterError(
                "m * n * bit_length(m * L), for L the parameters' common "
                f"denominator, is above the limit of {MAX_POINT_BITS}"
            )
    return xs


@lru_cache(maxsize=1)
def _cached_point(n: int, pairs: tuple[tuple[int, int], ...]) -> StopLossTable:
    mn = len(pairs) * n
    return point_from_pairs(n, pairs, (binomial_numerators(mn, p, q) for p, q in pairs))


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
    The mixture is ``lattice._mixture``, the point's mixture step, on the
    parameters' binomial laws of degree mn without their coefficients; the
    sequence is taken in ints over one common denominator, and one Fraction
    is built per value.
    """
    xs = _read_point(n, xs)
    for x in xs:
        if not 0 < x < 1:
            raise ParameterError(f"parameters must lie in (0, 1), got {_quoted(x)}")
    if all(x == xs[0] for x in xs):
        raise ParameterError("degenerate input: all parameters equal, psi == 0")
    m = len(xs)
    mn = m * n
    # With x_i = a_i / L over the least common denominator L and A = sum a_i,
    # psi_k = (m^(mn-1) sum_i a_i^k (L - a_i)^(mn-k) - A^k (mL - A)^(mn-k))
    # over (mL)^mn; the ints below are those numerators.
    pairs = [(x.numerator, x.denominator) for x in xs]
    common_den = math.lcm(*(q for _, q in pairs))
    mixed = _mixture(mn, common_den, pairs, (_power_products(p, q - p, mn) for p, q in pairs))
    total = sum(p * (common_den // q) for p, q in pairs)
    pooled = _power_products(total, m * common_den - total, mn)
    m_power = m ** (mn - 1)
    nums = [m_power * v - w for v, w in zip(mixed, pooled)]
    den = (m * common_den) ** mn
    pattern = "".join("+" if v > 0 else "-" if v < 0 else "0" for v in nums)
    return PsiPattern(
        values=tuple(Fraction(v, den) for v in nums),
        pattern=pattern,
        change_count=sign_changes(nums),
    )


def verify_generalized(n: int, xs: Sequence[RationalLike]) -> GeneralizedVerdicts:
    """Oracle verdicts for the three unscaled relations at (n, x_1..x_m)."""
    return lattice_point(n, xs).verdicts()
