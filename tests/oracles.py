"""Independent reference computations used to cross-check the library.

Each helper deliberately takes a different route than the implementation it
checks: stop-loss via the survival-function integral instead of the atom
sum, CDF integrals via midpoint sampling instead of right limits, the
convex order via direct expectation sweeps over a large probe family, and
the Bernstein form via Fraction Cauchy products of the basis vectors instead
of the integer lattice kernel.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from convexorder import (
    Angle,
    DiscreteDistribution,
    Monomial,
    bernstein_vector,
    expectation,
    random_piecewise_linear,
)


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
    vec = bernstein_vector(n, x)
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
    cross = bernstein_vector(n, xs[0])
    for x in xs[1:]:
        cross = _cauchy_product(cross, bernstein_vector(n, x))
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
