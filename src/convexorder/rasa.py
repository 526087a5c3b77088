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
kernel (:mod:`.lattice`): one :class:`LatticePoint` per parameter tuple holds
the laws as int numerators, and the form's coefficients are read off the
same integers.  ``generalized_pair``, ``poisson_binomial`` and
``verify_hoeffding`` stay on :class:`DiscreteDistribution`.

Boundary parameters x_i in {0, 1} are handled directly through the Dirac
degeneration of the binomial law, so no limiting argument is required
anywhere: every claim is a finite, exact computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .convex_functions import ConvexTestFunction, builtin_family
from .cx_order import CxVerdict, cx_compare_oracle, sign_changes
from .distributions import (
    DiscreteDistribution,
    ParameterError,
    RationalLike,
    as_rational,
    bernoulli,
    binomial,
    convolve_many,
    mixture,
    scale,
)
from .lattice import (
    LatticeLaw,
    bernstein_numerators,
    cauchy_power,
    cauchy_product,
    dot,
    lattice_oracle,
    probe_table,
    uniform_mixture,
)

__all__ = [
    "RasaPair",
    "PsiPattern",
    "GeneralizedVerdicts",
    "LatticePoint",
    "bernstein",
    "bernstein_vector",
    "rasa_form",
    "rasa_form_general",
    "lattice_point",
    "rasa_pair",
    "generalized_pair",
    "verify_theorem_main",
    "verify_generalized",
    "poisson_binomial",
    "verify_hoeffding",
    "psi_sign_pattern",
    "builtin_family",
]


def bernstein(n: int, i: int, x: RationalLike) -> Fraction:
    """The Bernstein basis polynomial C(n,i) x^i (1-x)^(n-i), exactly."""
    if n < 1:
        raise ParameterError(f"degree must be >= 1, got {n}")
    if not 0 <= i <= n:
        raise ParameterError(f"index {i} outside 0..{n}")
    x = as_rational(x)
    if not 0 <= x <= 1:
        raise ParameterError(f"argument must lie in [0, 1], got {x}")
    return math.comb(n, i) * x**i * (1 - x) ** (n - i)


def bernstein_vector(n: int, x: Fraction) -> tuple[Fraction, ...]:
    """All basis values (b_{n,0}(x), ..., b_{n,n}(x)); the binomial(n, x) masses."""
    if n < 1:
        raise ParameterError(f"degree must be >= 1, got {n}")
    if not 0 <= x <= 1:
        raise ParameterError(f"argument must lie in [0, 1], got {x}")
    y = 1 - x
    x_powers = [Fraction(1)]
    y_powers = [Fraction(1)]
    for _ in range(n):
        x_powers.append(x_powers[-1] * x)
        y_powers.append(y_powers[-1] * y)
    return tuple(
        math.comb(n, i) * x_powers[i] * y_powers[n - i] for i in range(n + 1)
    )


class LatticePoint(NamedTuple):
    """The unscaled laws behind the m-variable form at (n, x_1..x_m).

    Each x_i is written a_i / L over the least common denominator L of the
    parameters, so every binomial(n, x_i) law carries its numerators over
    L^n.  ``the_sum`` is their Cauchy product (the cross product, over
    L^(mn)) and ``mixed`` the uniform mixture of their m-fold Cauchy powers
    (the self products, summed over m L^(mn)).  Both live on 0..mn.
    """

    n: int
    numerators: tuple[int, ...]
    common_den: int
    the_sum: LatticeLaw
    mixed: LatticeLaw

    @property
    def m(self) -> int:
        return len(self.numerators)

    def pooled(self) -> LatticeLaw:
        """binomial(mn, mean of the x_i): numerators over (m L)^(mn)."""
        return bernstein_numerators(
            self.m * self.n, sum(self.numerators), self.m * self.common_den
        )

    def verdicts(self) -> GeneralizedVerdicts:
        """Oracle verdicts for the relations (a), (b) and (c)."""
        pooled = self.pooled()
        return GeneralizedVerdicts(
            sum_vs_pooled=lattice_oracle(self.the_sum, pooled),
            pooled_vs_mixture=lattice_oracle(pooled, self.mixed),
            sum_vs_mixture=lattice_oracle(self.the_sum, self.mixed),
        )

    def form_coefficients(self) -> LatticeLaw:
        """The coefficient of f(k / (mn)) in the form, k = 0..mn.

        It is sum_i self_i - m cross over L^(mn): the mixture's numerators
        minus m times the sum's, the same integers relation (c) compares.
        This is the bridge identity form = m (E_mixed f - E_sum f).
        """
        m = self.m
        return LatticeLaw(
            [s - m * c for s, c in zip(self.mixed.nums, self.the_sum.nums)],
            self.the_sum.den,
        )


def lattice_point(n: int, xs: Sequence[RationalLike]) -> LatticePoint:
    """Build the lattice laws at (n, x_1..x_m); m >= 2, n >= 1, x_i in [0, 1]."""
    xs = [as_rational(x) for x in xs]
    if len(xs) < 2:
        raise ParameterError("need at least two parameters")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    for x in xs:
        if not 0 <= x <= 1:
            raise ParameterError(f"parameters must lie in [0, 1], got {x}")
    common_den = math.lcm(*(x.denominator for x in xs))
    numerators = tuple(x.numerator * (common_den // x.denominator) for x in xs)
    parts = [bernstein_numerators(n, a, common_den) for a in numerators]
    the_sum = parts[0]
    for part in parts[1:]:
        the_sum = cauchy_product(the_sum, part)
    mixed = uniform_mixture([cauchy_power(part, len(parts)) for part in parts])
    return LatticePoint(n, numerators, common_den, the_sum, mixed)


@lru_cache(maxsize=256)
def _probe_row(points: int, f: ConvexTestFunction) -> tuple[list[int], int]:
    # Callers evaluate one form at many points with the same few probes.
    rows, den = probe_table(points, (f,))
    return rows[0], den


def _point_key(xs: Sequence[RationalLike]) -> tuple[tuple[int, int], ...]:
    # Each parameter as its (numerator, denominator) pair, which hashes
    # faster than a Fraction; every spelling of one value gives one key.
    return tuple((x.numerator, x.denominator) for x in map(as_rational, xs))


@lru_cache(maxsize=64)
def _cached_point(n: int, xs: tuple[tuple[int, int], ...]) -> LatticePoint:
    # Library callers probe one point with many test functions and decide
    # its relations too, so the forms and the verifiers share one point per
    # key.  Its laws are only ever read.
    return lattice_point(n, [Fraction(p, q) for p, q in xs])


@lru_cache(maxsize=64)
def _form_coefficients(n: int, xs: tuple[tuple[int, int], ...]) -> LatticeLaw:
    # Recomputing the coefficients on every probe would cost more than
    # building the point did.
    return _cached_point(n, xs).form_coefficients()


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
    :meth:`LatticePoint.form_coefficients` gives them as integers.
    """
    coeff = _form_coefficients(n, _point_key(xs))
    row, den = _probe_row(len(coeff.nums) - 1, f)
    return Fraction(dot(coeff.nums, row), coeff.den * den)


@dataclass(frozen=True)
class RasaPair:
    """The two sides of the order relation behind the Bernstein form.

    ``lhs`` is the law of the normalised sum of independent binomial draws
    (one per parameter), ``rhs`` the uniform mixture of the laws of the
    normalised m-fold i.i.d. sums; both live on [0, 1] and share the mean
    (x_1 + ... + x_m) / m.
    """

    lhs: DiscreteDistribution
    rhs: DiscreteDistribution
    n: int
    m: int
    parameters: tuple[Fraction, ...]


def generalized_pair(n: int, xs: Sequence[RationalLike]) -> RasaPair:
    """Construct the compared pair for parameters (x_1, ..., x_m), m >= 2."""
    xs = tuple(as_rational(x) for x in xs)
    m = len(xs)
    if m < 2:
        raise ParameterError("need at least two parameters")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    for x in xs:
        if not 0 <= x <= 1:
            raise ParameterError(f"parameters must lie in [0, 1], got {x}")
    mn = m * n
    parts = [binomial(n, x) for x in xs]
    lhs = scale(convolve_many(parts), mn)
    self_sums = [
        scale(convolve_many([part] * m), mn) for part in parts
    ]
    weights = [Fraction(1, m)] * m
    rhs = mixture(weights, self_sums)
    return RasaPair(lhs=lhs, rhs=rhs, n=n, m=m, parameters=xs)


def rasa_pair(n: int, x: RationalLike, y: RationalLike) -> RasaPair:
    """Two-parameter special case of :func:`generalized_pair`."""
    return generalized_pair(n, (x, y))


def verify_theorem_main(n: int, x: RationalLike, y: RationalLike) -> CxVerdict:
    """Oracle verdict for sum-vs-mixture on the unscaled two-parameter pair."""
    point = _cached_point(n, _point_key((x, y)))
    return lattice_oracle(point.the_sum, point.mixed)


def poisson_binomial(ps: Sequence[RationalLike]) -> DiscreteDistribution:
    """Exact law of a sum of independent Bernoulli draws with parameters ps."""
    if not ps:
        raise ParameterError("need at least one parameter")
    parts = [bernoulli(p) for p in ps]
    return convolve_many(parts)


def verify_hoeffding(ps: Sequence[RationalLike]) -> CxVerdict:
    """Binomial convex-concentration check.

    Compares the sum of independent Bernoulli(p_i) draws against the
    binomial law with the same trial count and the averaged parameter; the
    sum precedes the binomial in the convex order.
    """
    ps = [as_rational(p) for p in ps]
    if not ps:
        raise ParameterError("need at least one parameter")
    for p in ps:
        if not 0 < p < 1:
            raise ParameterError(f"parameters must lie in (0, 1), got {p}")
    n = len(ps)
    p_bar = sum(ps, Fraction(0)) / n
    return cx_compare_oracle(poisson_binomial(ps), binomial(n, p_bar))


@dataclass(frozen=True)
class PsiPattern:
    """The exact sequence psi_k separating mixture and averaged binomial masses.

    psi_k = (1/m) sum_i x_i^k (1-x_i)^(mn-k) - xbar^k (1-xbar)^(mn-k) for
    k = 0..mn.  For interior, not-all-equal parameters the signs follow the
    pattern +,...,-,...,+ with exactly two changes.
    """

    values: tuple[Fraction, ...]
    pattern: str
    change_count: int

    def to_json_dict(self) -> dict:
        return {
            "values": [str(v) for v in self.values],
            "pattern": self.pattern,
            "change_count": self.change_count,
        }


def psi_sign_pattern(n: int, xs: Sequence[RationalLike]) -> PsiPattern:
    """Compute psi_0..psi_mn and its sign-change structure.

    Parameters must be strictly inside (0, 1) and not all equal; the all
    equal input makes psi identically zero and is rejected as degenerate.
    """
    xs = [as_rational(x) for x in xs]
    m = len(xs)
    if m < 2:
        raise ParameterError("need at least two parameters")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    for x in xs:
        if not 0 < x < 1:
            raise ParameterError(f"parameters must lie in (0, 1), got {x}")
    if all(x == xs[0] for x in xs):
        raise ParameterError("degenerate input: all parameters equal, psi == 0")
    mn = m * n
    x_bar = sum(xs, Fraction(0)) / m
    values = []
    for k in range(mn + 1):
        avg = sum(
            (x**k * (1 - x) ** (mn - k) for x in xs), Fraction(0)
        ) / m
        values.append(avg - x_bar**k * (1 - x_bar) ** (mn - k))
    pattern = "".join("+" if v > 0 else "-" if v < 0 else "0" for v in values)
    return PsiPattern(
        values=tuple(values),
        pattern=pattern,
        change_count=sign_changes(values),
    )


@dataclass(frozen=True)
class GeneralizedVerdicts:
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

    def to_json_dict(self) -> dict:
        return {
            "sum_vs_pooled": self.sum_vs_pooled.to_json_dict(),
            "pooled_vs_mixture": self.pooled_vs_mixture.to_json_dict(),
            "sum_vs_mixture": self.sum_vs_mixture.to_json_dict(),
            "all_hold": self.all_hold,
        }


def verify_generalized(n: int, xs: Sequence[RationalLike]) -> GeneralizedVerdicts:
    """Oracle verdicts for the three unscaled relations at (n, x_1..x_m)."""
    return _cached_point(n, _point_key(xs)).verdicts()
