"""Differential tests of the integer lattice kernel.

Every lattice result is compared for exact equality with an independent
route: Bernstein form values with the Fraction Cauchy products in
``oracles.py``, and whole ``CxVerdict``s, witnesses included, with
``cx_compare_oracle`` on the ``DiscreteDistribution`` laws.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import combinations_with_replacement

from hypothesis import given, settings
from hypothesis import strategies as st

from convexorder import (
    Affine,
    Angle,
    DiscreteDistribution,
    Monomial,
    binomial,
    builtin_family,
    convolve,
    convolve_many,
    cx_compare_oracle,
    farey_fractions,
    mixture,
    random_piecewise_linear,
    rasa_form,
    rasa_form_general,
    verify_generalized,
    verify_theorem_main,
)
from convexorder.lattice import (
    LatticeLaw,
    bernstein_numerators,
    cauchy_power,
    cauchy_product,
    lattice_oracle,
    uniform_mixture,
)
from convexorder.rasa import lattice_point
from convexorder.sweep import KNOWN_FUNCTION_GROUPS, RunConfig, run_sweep

from oracles import (
    binomial_by_fractions,
    form_coefficients_by_cauchy,
    form_value,
    rasa_form_by_cauchy,
)


def as_distribution(law: LatticeLaw) -> DiscreteDistribution:
    return DiscreteDistribution.from_pairs(
        (k, F(v, law.den)) for k, v in enumerate(law.nums) if v
    )


def distribution_laws(n, xs):
    """The independent sum, pooled binomial and mixture, built from atoms."""
    m = len(xs)
    parts = [binomial(n, x) for x in xs]
    the_sum = convolve_many(parts)
    pooled = binomial(m * n, sum(xs, F(0)) / m)
    mixed = mixture([F(1, m)] * m, [convolve_many([p] * m) for p in parts])
    return the_sum, pooled, mixed


def assert_point_matches(n, xs, family) -> int:
    """Compare laws, the six verdicts and every form value at one point.

    Returns the number of witnesses seen, so callers can require that the
    failing directions were exercised.
    """
    point = lattice_point(n, xs)
    the_sum, pooled, mixed = distribution_laws(n, xs)
    lattice = (point.the_sum, point.pooled(), point.mixed)
    assert tuple(map(as_distribution, lattice)) == (the_sum, pooled, mixed)
    witnesses = 0
    for i, j in ((0, 1), (1, 2), (0, 2)):
        for a, b in ((i, j), (j, i)):
            verdict = lattice_oracle(lattice[a], lattice[b])
            assert verdict == cx_compare_oracle(
                (the_sum, pooled, mixed)[a], (the_sum, pooled, mixed)[b]
            ), (n, xs, a, b)
            witnesses += verdict.witness is not None
    coeff = form_coefficients_by_cauchy(n, xs)
    for f in family:
        assert rasa_form_general(n, xs, f) == form_value(coeff, f), (n, xs, f)
    return witnesses


def test_bernstein_numerators_are_binomial_masses():
    for n in range(1, 6):
        for q in range(1, 7):
            for a in range(q + 1):
                law = bernstein_numerators(n, a, q)
                assert as_distribution(law) == binomial(n, F(a, q))
                assert as_distribution(law) == binomial_by_fractions(n, F(a, q))
                assert law.den == q**n and sum(law.nums) == law.den


def test_products_and_mixture_match_distribution_algebra():
    a = bernstein_numerators(2, 1, 3)
    b = bernstein_numerators(3, 0, 4)
    c = bernstein_numerators(1, 5, 5)
    assert as_distribution(cauchy_product(a, b)) == convolve(
        binomial(2, F(1, 3)), binomial(3, F(0))
    )
    assert as_distribution(cauchy_power(a, 3)) == binomial(6, F(1, 3))
    assert as_distribution(uniform_mixture([a, b, c])) == mixture(
        [F(1, 3)] * 3, [binomial(2, F(1, 3)), binomial(3, F(0)), binomial(1, F(1))]
    )


def test_witness_skips_points_empty_on_both_sides():
    # The stop-loss gap of delta_2 against (delta_0 + delta_4) / 2 is already
    # negative at t = 1, but 1 carries no mass on either side; the smallest
    # witness in the union of supports is 2.
    spread = LatticeLaw([1, 0, 0, 0, 1], 2)
    point = LatticeLaw([0, 0, 1], 1)
    verdict = lattice_oracle(spread, point)
    assert verdict.witness == 2
    assert verdict == cx_compare_oracle(as_distribution(spread), as_distribution(point))
    assert lattice_oracle(point, spread).holds


def test_unequal_means_report_the_gap():
    lhs = LatticeLaw([1, 1], 2)
    rhs = LatticeLaw([0, 1, 2], 3)
    verdict = lattice_oracle(lhs, rhs)
    assert not verdict.holds and not verdict.means_equal
    assert verdict == cx_compare_oracle(as_distribution(lhs), as_distribution(rhs))
    assert verdict.mean_gap == F(5, 3) - F(1, 2)


def test_sparse_support_points():
    # Boundary parameters make every part a point mass, so the laws have
    # lattice points with no mass on either side.
    witnesses = 0
    for n in (1, 2, 3):
        for xs in ((F(0), F(1)), (F(0), F(1, 2), F(1)), (F(0), F(0), F(1), F(1))):
            witnesses += assert_point_matches(n, xs, builtin_family(len(xs) * n))
    assert witnesses > 0


def test_criterion_2_grid():
    grid = farey_fractions(10)
    witnesses = 0
    for n in range(1, 7):
        family = builtin_family(2 * n, random_count=5, seed=0)
        values = {f: [f(F(k, 2 * n)) for k in range(2 * n + 1)] for f in family}
        for x in grid:
            for y in grid:
                point = lattice_point(n, (x, y))
                coeff = form_coefficients_by_cauchy(n, (x, y))
                lattice_coeff = point.form_coefficients()
                assert [F(c, lattice_coeff.den) for c in lattice_coeff.nums] == list(coeff)
                # The form is symmetric in (x, y) with equal coefficients, so
                # the probe values are compared on one half of the grid.
                for f in family if x <= y else ():
                    reference = sum((c * v for c, v in zip(coeff, values[f]) if c), F(0))
                    assert rasa_form(n, x, y, f) == reference, (n, x, y, f)
                the_sum = convolve(binomial(n, x), binomial(n, y))
                mixed = mixture(
                    [F(1, 2)] * 2,
                    [convolve(binomial(n, x), binomial(n, x)), convolve(binomial(n, y), binomial(n, y))],
                )
                assert verify_theorem_main(n, x, y) == cx_compare_oracle(the_sum, mixed), (n, x, y)
                reverse = lattice_oracle(point.mixed, point.the_sum)
                assert reverse == cx_compare_oracle(mixed, the_sum), (n, x, y)
                witnesses += reverse.witness is not None
    assert witnesses > 0


def test_criterion_3_grid():
    grid = farey_fractions(4)
    witnesses = 0
    for n in range(1, 4):
        family = builtin_family(3 * n, random_count=5, seed=0)
        for xs in combinations_with_replacement(grid, 3):
            witnesses += assert_point_matches(n, xs, family)
            assert verify_generalized(n, xs) == lattice_point(n, xs).verdicts()
    assert witnesses > 0


parameters = st.integers(1, 12).flatmap(
    lambda q: st.integers(0, q).map(lambda p: F(p, q))
)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 6),
    xs=st.lists(parameters, min_size=2, max_size=4),
    seed=st.integers(0, 1000),
)
def test_random_points(n, xs, seed):
    family = builtin_family(len(xs) * n, random_count=2, seed=seed)
    assert_point_matches(n, xs, family)
    assert verify_generalized(n, xs) == lattice_point(n, xs).verdicts()


@st.composite
def lattice_pairs(draw):
    """A law and a second one reached by mean-preserving spreads and
    contractions, sometimes with one unit shifted (unequal means), over
    different denominators and lengths."""
    size = draw(st.integers(1, 9))
    lhs = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
    lhs[draw(st.integers(0, size - 1))] += 2
    rhs = list(lhs)
    for centre, distance, units, spread in draw(
        st.lists(
            st.tuples(
                st.integers(0, size - 1), st.integers(1, 4), st.integers(1, 2), st.booleans()
            ),
            max_size=4,
        )
    ):
        lo, hi = centre - distance, centre + distance
        if lo < 0 or hi >= size:
            continue
        if spread and rhs[centre] >= 2 * units:
            rhs[centre] -= 2 * units
            rhs[lo] += units
            rhs[hi] += units
        elif not spread and min(rhs[lo], rhs[hi]) >= units:
            rhs[lo] -= units
            rhs[hi] -= units
            rhs[centre] += 2 * units
    if draw(st.booleans()) and size > 1 and rhs[0]:
        rhs[0] -= 1
        rhs[1] += 1
    factor = draw(st.integers(1, 3))
    rhs = [factor * v for v in rhs] + [0] * draw(st.integers(0, 2))
    return LatticeLaw(lhs, sum(lhs)), LatticeLaw(rhs, factor * sum(lhs))


@settings(max_examples=300, deadline=None)
@given(pair=lattice_pairs())
def test_oracle_matches_distribution_oracle(pair):
    lhs, rhs = pair
    for a, b in ((lhs, rhs), (rhs, lhs)):
        assert lattice_oracle(a, b) == cx_compare_oracle(as_distribution(a), as_distribution(b))


def sweep_probes(points, functions, seed):
    """The sweep's probe groups, assembled group by group."""
    probes = []
    if "angles" in functions:
        probes.extend(Angle(F(k, points)) for k in range(points + 1))
    if "monomials" in functions:
        probes.extend(Monomial(d) for d in (2, 4, 6))
    if "affine" in functions:
        probes.append(Affine(F(1), F(-2)))
    if "random-pwl" in functions:
        rng = random.Random(seed)
        probes.extend(random_piecewise_linear(rng) for _ in range(5))
    return probes


def test_sweep_rows_match_reference_for_each_function_group():
    for functions in (
        KNOWN_FUNCTION_GROUPS, ("angles",), ("random-pwl",), ("monomials", "affine")
    ):
        config = RunConfig(
            n_values=(1, 2), m_values=(2, 3), denominator=3, seed=4, functions=functions
        )
        rows, _ = run_sweep(config)
        for row in rows:
            n, m = row["n"], row["m"]
            xs = tuple(F(x) for x in row["xs"].split(";"))
            reference = min(
                rasa_form_by_cauchy(n, xs, f) for f in sweep_probes(m * n, functions, 4)
            )
            assert row["min_form"] == str(reference), row
