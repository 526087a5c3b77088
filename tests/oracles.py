"""Independent reference computations used to cross-check the library.

Each helper deliberately takes a different route than the implementation it
checks: stop-loss via the survival-function integral or as a Fraction sum
over the atoms, and CDF values, mean, point masses, binomial laws, mixtures
and scalings as Fraction sums and products over the atoms, instead of the
int numerators the law is held as; CDF integrals via midpoint sampling
instead of right limits, the convex order via direct expectation sweeps over
a large probe family, the Bernstein basis as Fraction products with
``math.comb``, the Bernstein form via Fraction Cauchy products of the basis
vectors instead of the integer lattice kernel, the Rasa pair of laws by
Fraction convolution, mixture and scaling of the atoms instead of the
lattice point, the psi sequence by Fraction powers instead of int power
products, and the four convex-order procedures via Fraction CDF values
looked up point by point (the stop-loss oracle as an O(K^2) scan of
``stop_loss``) instead of the integer segment table.  None of them calls
the package's law builders (``binomial``, ``convolve_many``, ``mixture``,
``bernstein_vector`` or ``binomial_numerators``), so a fault there cannot
reach the reference.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce
from typing import Sequence

from convexorder import (
    Angle,
    CxVerdict,
    DiscreteDistribution,
    LevinSteckinReport,
    Monomial,
    OhlinReport,
    ParameterError,
    StandingHypothesisError,
    SzostokReport,
    expectation,
    random_piecewise_linear,
)
from convexorder.distributions import _quoted


def stop_loss_by_survival_integral(d: DiscreteDistribution, t: Fraction) -> Fraction:
    """E(X - t)_+ = integral_t^inf (1 - F(u)) du, summed over segments."""
    top = d.max_support
    if t >= top:
        return Fraction(0)
    points = [t] + [s for s in d.support if t < s < top] + [top]
    total = Fraction(0)
    for left, right in zip(points, points[1:]):
        mid = (left + right) / 2
        total += (1 - d.cdf(mid)) * (right - left)
    return total


def cdf_integral_by_midpoints(
    d: DiscreteDistribution, a: Fraction, b: Fraction
) -> Fraction:
    """integral_a^b F via midpoint evaluation on the constancy segments."""
    points = [a] + [s for s in d.support if a < s < b] + [b]
    total = Fraction(0)
    for left, right in zip(points, points[1:]):
        mid = (left + right) / 2
        total += d.cdf(mid) * (right - left)
    return total


def stop_loss_by_atoms(d: DiscreteDistribution, t: Fraction) -> Fraction:
    """E(X - t)_+ as a Fraction sum over the atoms above t."""
    return sum(((s - t) * m for s, m in d.atoms if s > t), Fraction(0))


def cdf_by_atoms(d: DiscreteDistribution, x: Fraction) -> Fraction:
    """P(X < x) as a Fraction sum over the atoms below x."""
    return sum((m for s, m in d.atoms if s < x), Fraction(0))


def cdf_right_by_atoms(d: DiscreteDistribution, x: Fraction) -> Fraction:
    """P(X <= x) as a Fraction sum over the atoms at or below x."""
    return sum((m for s, m in d.atoms if s <= x), Fraction(0))


def mean_by_atoms(d: DiscreteDistribution) -> Fraction:
    return sum((s * m for s, m in d.atoms), Fraction(0))


def mass_at_by_atoms(d: DiscreteDistribution, x: Fraction) -> Fraction:
    return next((m for s, m in d.atoms if s == x), Fraction(0))


def binomial_by_fractions(n: int, p: Fraction) -> DiscreteDistribution:
    """C(n, k) p^k (1-p)^(n-k) as Fraction products; zero masses dropped."""
    return DiscreteDistribution.from_pairs(
        (k, math.comb(n, k) * p**k * (1 - p) ** (n - k)) for k in range(n + 1)
    )


def mixture_by_fractions(
    weights: Sequence[Fraction], parts: Sequence[DiscreteDistribution]
) -> DiscreteDistribution:
    return DiscreteDistribution.from_pairs(
        (s, w * m) for w, part in zip(weights, parts) for s, m in part.atoms
    )


def scale_by_fractions(d: DiscreteDistribution, a: Fraction) -> DiscreteDistribution:
    return DiscreteDistribution(tuple((s / a, m) for s, m in d.atoms))


def convolve_by_fractions(
    a: DiscreteDistribution, b: DiscreteDistribution
) -> DiscreteDistribution:
    """The law of an independent sum, one Fraction product per atom pair."""
    return DiscreteDistribution.from_pairs(
        (sa + sb, ma * mb) for sa, ma in a.atoms for sb, mb in b.atoms
    )


def bernstein(n: int, i: int, x: Fraction) -> Fraction:
    """The Bernstein basis polynomial C(n, i) x^i (1 - x)^(n - i) at x."""
    return math.comb(n, i) * x**i * (1 - x) ** (n - i)


def _bernstein_vector(n: int, x: Fraction) -> tuple[Fraction, ...]:
    return tuple(bernstein(n, i, x) for i in range(n + 1))


def pair_by_fractions(
    n: int, xs: Sequence[Fraction]
) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """The two laws compared by the m-variable form at (x_1..x_m).

    lhs is the normalised sum of independent binomial(n, x_i) draws, rhs
    the uniform mixture of the normalised m-fold i.i.d. sums; both live on
    [0, 1], and the form equals m (E_rhs f - E_lhs f).
    """
    m = len(xs)
    parts = [binomial_by_fractions(n, x) for x in xs]
    the_sum = reduce(convolve_by_fractions, parts)
    self_sums = [reduce(convolve_by_fractions, [part] * m) for part in parts]
    mixed = mixture_by_fractions([Fraction(1, m)] * m, self_sums)
    return scale_by_fractions(the_sum, m * n), scale_by_fractions(mixed, m * n)


def probe_family(
    lhs: DiscreteDistribution,
    rhs: DiscreteDistribution,
    rng: random.Random,
    pwl_count: int = 50,
):
    """Angles at all support points and midpoints, monomials, random pwl."""
    supports = sorted(set(lhs.support) | set(rhs.support))
    probes = [Angle(s) for s in supports]
    probes.extend(
        Angle((u + v) / 2) for u, v in zip(supports, supports[1:])
    )
    probes.extend([Monomial(2), Monomial(4)])
    probes.extend(random_piecewise_linear(rng) for _ in range(pwl_count))
    return probes


def convex_order_by_probing(
    lhs: DiscreteDistribution,
    rhs: DiscreteDistribution,
    rng: random.Random,
    pwl_count: int = 50,
) -> bool:
    """True iff every probe satisfies E f(lhs) <= E f(rhs).

    Sound relative to the order: angles at the support points already
    characterise it for finitely supported equal-mean laws, so disagreement
    with the oracle on any probe is a genuine bug.
    """
    if lhs.mean() != rhs.mean():
        return False
    return all(
        expectation(lhs, f) <= expectation(rhs, f)
        for f in probe_family(lhs, rhs, rng, pwl_count)
    )


def _cauchy_product(
    a: Sequence[Fraction], b: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def _self_product(n: int, x: Fraction, m: int) -> tuple[Fraction, ...]:
    """m-fold Cauchy power of the Bernstein vector of degree n at x."""
    vec = _bernstein_vector(n, x)
    out = vec
    for _ in range(m - 1):
        out = _cauchy_product(out, vec)
    return out


def form_coefficients_by_cauchy(
    n: int, xs: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """Coefficients of f(k / (mn)) in the m-variable form, as Fractions.

    The m same-parameter Cauchy powers of the Bernstein vectors minus m times
    the Cauchy product of all of them, each reduced as it is built.
    """
    m = len(xs)
    cross = _bernstein_vector(n, xs[0])
    for x in xs[1:]:
        cross = _cauchy_product(cross, _bernstein_vector(n, x))
    coeff = [-m * c for c in cross]
    for x in xs:
        for k, v in enumerate(_self_product(n, x, m)):
            coeff[k] += v
    return tuple(coeff)


def form_value(coeff: Sequence[Fraction], f) -> Fraction:
    """sum_k coeff_k f(k / (len(coeff) - 1)), skipping zero coefficients."""
    points = len(coeff) - 1
    return sum(
        (c * f(Fraction(k, points)) for k, c in enumerate(coeff) if c != 0),
        Fraction(0),
    )


def rasa_form_by_cauchy(n: int, xs: Sequence[Fraction], f) -> Fraction:
    """The m-variable Bernstein form at (x_1..x_m) by Fraction Cauchy products."""
    return form_value(form_coefficients_by_cauchy(n, xs), f)


def psi_values_by_fractions(n: int, xs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """psi_k = (1/m) sum_i x_i^k (1-x_i)^(mn-k) - xbar^k (1-xbar)^(mn-k),
    k = 0..mn, as Fraction powers and sums."""
    m = len(xs)
    mn = m * n
    x_bar = sum(xs, Fraction(0)) / m
    return tuple(
        sum((x**k * (1 - x) ** (mn - k) for x in xs), Fraction(0)) / m
        - x_bar**k * (1 - x_bar) ** (mn - k)
        for k in range(mn + 1)
    )


def oracle_by_stop_loss_scan(
    lhs: DiscreteDistribution, rhs: DiscreteDistribution
) -> CxVerdict:
    """Equal means, then stop_loss(lhs, t) <= stop_loss(rhs, t) at every
    point of the union of supports, each recomputed from the atoms."""
    gap = rhs.mean() - lhs.mean()
    if gap != 0:
        return CxVerdict(holds=False, means_equal=False, witness=None, mean_gap=gap)
    for t in sorted(set(lhs.support) | set(rhs.support)):
        if lhs.stop_loss(t) > rhs.stop_loss(t):
            return CxVerdict(holds=False, means_equal=True, witness=t, mean_gap=gap)
    return CxVerdict(holds=True, means_equal=True, witness=None, mean_gap=gap)


def _segment_values(lhs, rhs, grid):
    """F_rhs(g+) - F_lhs(g+) for every grid point but the last."""
    return [rhs.cdf_right(g) - lhs.cdf_right(g) for g in grid[:-1]]


def _sign_change_indices(values) -> list[int]:
    indices = []
    previous = 0
    for i, v in enumerate(values):
        if v == 0:
            continue
        sign = 1 if v > 0 else -1
        if previous and sign != previous:
            indices.append(i)
        previous = sign
    return indices


def ohlin_by_probes(
    lhs: DiscreteDistribution, rhs: DiscreteDistribution
) -> OhlinReport:
    """The single-crossing test on the CDF difference sampled at every grid
    point, every midpoint and one point beyond each end."""
    if lhs == rhs:
        return OhlinReport(applies=True, crossing=None, identical=True)
    if lhs.mean() != rhs.mean():
        return OhlinReport(applies=False, crossing=None, identical=False)
    grid = sorted(set(lhs.support) | set(rhs.support))
    probes = [grid[0] - 1]
    for left, right in zip(grid, grid[1:]):
        probes.append(left)
        probes.append((left + right) / 2)
    probes.extend([grid[-1], grid[-1] + 1])
    diffs = [lhs.cdf(x) - rhs.cdf(x) for x in probes]
    first_positive = next((i for i, d in enumerate(diffs) if d > 0), None)
    last_negative = next(
        (i for i in range(len(diffs) - 1, -1, -1) if diffs[i] < 0), None
    )
    if first_positive is not None and last_negative is not None:
        if first_positive < last_negative:
            return OhlinReport(applies=False, crossing=None, identical=False)
    values = _segment_values(lhs, rhs, grid)
    crossing = next((grid[i] for i, v in enumerate(values) if v < 0), None)
    return OhlinReport(applies=True, crossing=crossing, identical=False)


def crossing_points_by_cdf(
    lhs: DiscreteDistribution, rhs: DiscreteDistribution
) -> list[Fraction]:
    grid = sorted(set(lhs.support) | set(rhs.support))
    return [grid[i] for i in _sign_change_indices(_segment_values(lhs, rhs, grid))]


def _bounded_grid(lhs, rhs, a, b) -> list[Fraction]:
    if a >= b:
        raise ParameterError("need a < b")
    for d in (lhs, rhs):
        if d.min_support < a or d.max_support > b:
            raise ParameterError(
                f"distribution escapes [{a}, {b}]: "
                f"support spans [{d.min_support}, {d.max_support}]"
            )
    inner = sorted(s for s in set(lhs.support) | set(rhs.support) if a < s < b)
    return [a] + inner + [b]


def levin_steckin_by_cdf_integrals(
    lhs: DiscreteDistribution, rhs: DiscreteDistribution, a: Fraction, b: Fraction
) -> LevinSteckinReport:
    """Both partial integrals of the CDFs accumulated side by side."""
    grid = _bounded_grid(lhs, rhs, a, b)
    cum_l = cum_r = Fraction(0)
    partial = True
    for left, right in zip(grid, grid[1:]):
        cum_l += lhs.cdf_right(left) * (right - left)
        cum_r += rhs.cdf_right(left) * (right - left)
        if cum_l > cum_r:
            partial = False
    return LevinSteckinReport(
        endpoint_match=lhs.cdf_right(b) == rhs.cdf_right(b),
        integral_match=cum_l == cum_r,
        partial_dominance=partial,
    )


def szostok_by_cdf_segments(
    lhs: DiscreteDistribution, rhs: DiscreteDistribution, a: Fraction, b: Fraction
) -> SzostokReport:
    """The sign-change lemma on Fraction segment values and lengths."""
    grid = _bounded_grid(lhs, rhs, a, b)
    if lhs.cdf(a) != rhs.cdf(a) or lhs.cdf_right(b) != rhs.cdf_right(b):
        raise StandingHypothesisError("distribution functions differ at an endpoint")
    diffs = _segment_values(lhs, rhs, grid)
    lengths = [right - left for left, right in zip(grid, grid[1:])]
    total = sum((d * ln for d, ln in zip(diffs, lengths)), Fraction(0))
    if total != 0:
        raise StandingHypothesisError(
            f"total integral of the CDF difference is {_quoted(total)}, not 0"
        )
    first_sign = next((1 if d > 0 else -1 for d in diffs if d != 0), 0)
    if first_sign == 0:
        return SzostokReport((), (Fraction(0),), True, True, True, True)
    points = [grid[i] for i in _sign_change_indices(diffs)]
    m = len(points)
    areas = [Fraction(0)] * (m + 1)
    segment = 0
    for i, d in enumerate(diffs):
        while segment < m and grid[i] >= points[segment]:
            segment += 1
        areas[segment] += abs(d) * lengths[i]
    parity_ok = m % 2 == 1
    even_sum = odd_sum = Fraction(0)
    partial_sums_ok = True
    for i in range(0, m - 1, 2):
        even_sum += areas[i]
        odd_sum += areas[i + 1]
        partial_sums_ok = partial_sums_ok and even_sum >= odd_sum
    return SzostokReport(
        sign_change_points=tuple(points),
        areas=tuple(areas),
        parity_ok=parity_ok,
        partial_sums_ok=partial_sums_ok,
        first_segment_nonneg=first_sign > 0,
        decision=parity_ok and partial_sums_ok and first_sign > 0,
    )
