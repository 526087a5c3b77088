"""Differential tests of the integer lattice kernel.

Every lattice result is compared for exact equality with an independent
route: Bernstein form values with the Fraction Cauchy products in
``oracles.py``, and whole ``CxVerdict``s, witnesses included, with
``oracles.oracle_by_stop_loss_scan`` on the ``DiscreteDistribution`` laws.
``gap_verdict`` on any two lattice laws (see :func:`lattice_verdict`), a
point's stop-loss table and ``cx_compare_oracle`` share one verdict reader,
so agreeing with each other cannot catch a fault in it; the Fraction scan,
which recomputes every stop-loss value from the atoms, can.  The reversed
relations, read from a table's negated gaps, are where the witnesses are
checked.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexorder import (
    Affine,
    Angle,
    CxVerdict,
    DiscreteDistribution,
    Monomial,
    ParameterError,
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
    binomial_sum,
    dot,
    gap_verdict,
    probe_table,
    stop_loss_numerators,
)
from convexorder import convex_functions, lattice, sweep
from convexorder._base import KNOWN_FUNCTION_GROUPS
from convexorder.exact import binomial_numerators
from convexorder.rasa import lattice_point
from convexorder.sweep import RunConfig, grid_tasks, run_sweep

from oracles import (
    binomial_by_fractions,
    form_coefficients_by_cauchy,
    form_value,
    oracle_by_stop_loss_scan,
    rasa_form_by_cauchy,
    stop_loss_by_atoms,
)


def cauchy_product(a: LatticeLaw, b: LatticeLaw) -> LatticeLaw:
    """The law of the sum of independent draws from a and b, by the
    schoolbook product of their numerators: the route the package's packed
    power replaced, kept here as its reference."""
    out = [0] * (len(a.nums) + len(b.nums) - 1)
    for i, ai in enumerate(a.nums):
        for j, bj in enumerate(b.nums):
            out[i + j] += ai * bj
    return LatticeLaw(out, a.den * b.den)


def self_power(law: LatticeLaw, m: int) -> LatticeLaw:
    """The law of the sum of m independent draws from law, m >= 1, by
    m - 1 Cauchy products, independent of the package's binomial builder."""
    out = law
    for _ in range(m - 1):
        out = cauchy_product(out, law)
    return out


def as_distribution(law: LatticeLaw) -> DiscreteDistribution:
    return DiscreteDistribution.from_pairs(
        (k, F(v, law.den)) for k, v in enumerate(law.nums) if v
    )


def lattice_gaps(lhs: LatticeLaw, rhs: LatticeLaw) -> tuple[list[int], list[int], list[int]]:
    """Both laws' numerators on one length and their stop-loss gap over
    D_l D_r: the gap at j is pi_rhs(j) D_l - pi_lhs(j) D_r."""
    size = max(len(lhs.nums), len(rhs.nums))
    ls = lhs.nums + [0] * (size - len(lhs.nums))
    rs = rhs.nums + [0] * (size - len(rhs.nums))
    gaps = [
        r * lhs.den - l * rhs.den
        for l, r in zip(stop_loss_numerators(ls), stop_loss_numerators(rs))
    ]
    return ls, rs, gaps


def point_with_parts(n, pairs):
    """``lattice.point_from_pairs`` on the mixture's parts built one by one
    as it reads them, the way ``rasa`` hands them in."""
    mn = len(pairs) * n
    return lattice.point_from_pairs(n, pairs, (binomial_numerators(mn, p, q) for p, q in pairs))


def lattice_verdict(lhs: LatticeLaw, rhs: LatticeLaw) -> CxVerdict:
    """lhs <=_cx rhs by ``gap_verdict`` on ``lattice_gaps``."""
    return gap_verdict(*lattice_gaps(lhs, rhs), lhs.den * rhs.den)


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
    laws = distribution_laws(n, xs)
    built = (point.the_sum, point.pooled, point.mixed)
    assert tuple(map(as_distribution, built)) == laws
    witnesses = 0
    for i, j in ((0, 1), (1, 2), (0, 2)):
        for a, b in ((i, j), (j, i)):
            verdict = lattice_verdict(built[a], built[b])
            assert verdict == cx_compare_oracle(laws[a], laws[b]), (n, xs, a, b)
            assert verdict == oracle_by_stop_loss_scan(laws[a], laws[b]), (n, xs, a, b)
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


LARGE_Q = (2**24 - 3, 10**30 + 57)


@pytest.mark.parametrize("n", [1, 2, 7, 40, 150])
@pytest.mark.parametrize("q", [1, 2, 12, *LARGE_Q])
def test_binomial_numerators_match_fractions(n, q):
    for a in sorted({0, 1, q // 3, q - 1, q}):
        nums = binomial_numerators(n, a, q)
        law = LatticeLaw(nums, q**n)
        assert as_distribution(law) == binomial_by_fractions(n, F(a, q)), (n, a, q)
        assert nums == [math.comb(n, k) * a**k * (q - a) ** (n - k) for k in range(n + 1)]


@st.composite
def binomial_parameters(draw):
    """(n, m, p, q) with p/q in [0, 1], not always reduced, the ends
    p = 0 and p = q drawn often."""
    q = draw(st.integers(1, 7))
    p = draw(st.one_of(st.sampled_from([0, q]), st.integers(0, q)))
    return draw(st.integers(1, 8)), draw(st.integers(1, 4)), p, q


@settings(max_examples=300, deadline=None)
@given(case=binomial_parameters())
def test_self_power_is_the_degree_mn_binomial(case):
    # The mixture's parts are built as binomial(mn, p/q): the m-fold i.i.d.
    # sum of binomial(n, p/q), with the same numerators over q^(mn).
    n, m, p, q = case
    power = self_power(bernstein_numerators(n, p, q), m)
    binomial_mn = bernstein_numerators(m * n, p, q)
    assert power.nums == binomial_mn.nums, case
    assert power.den == binomial_mn.den == q ** (m * n), case


def test_products_match_distribution_algebra():
    a = bernstein_numerators(2, 1, 3)
    b = bernstein_numerators(3, 0, 4)
    assert as_distribution(cauchy_product(a, b)) == convolve(
        binomial(2, F(1, 3)), binomial(3, F(0))
    )
    assert as_distribution(self_power(a, 3)) == binomial(6, F(1, 3))


def cauchy_sum(n, pairs) -> LatticeLaw:
    """The independent sum of binomial(n, p/q) draws by Cauchy products."""
    out = LatticeLaw([1], 1)
    for p, q in pairs:
        out = cauchy_product(out, bernstein_numerators(n, p, q))
    return out


@st.composite
def sum_points(draw):
    """(n, pairs): m = 2..5 reduced pairs with q <= 40, mixed denominators,
    the ends 0 and 1 drawn often."""
    value = st.integers(1, 40).flatmap(lambda q: st.integers(0, q).map(lambda p: F(p, q)))
    xs = draw(
        st.lists(st.one_of(st.sampled_from([F(0), F(1)]), value), min_size=2, max_size=5)
    )
    return draw(st.integers(1, 12)), [(x.numerator, x.denominator) for x in xs]


@settings(max_examples=150, deadline=None)
@given(point=sum_points())
def test_packed_sum_matches_cauchy_products(point):
    n, pairs = point
    assert binomial_sum(n, pairs) == cauchy_sum(n, pairs), point
    table = point_with_parts(n, pairs)
    reference = form_coefficients_by_cauchy(n, [F(p, q) for p, q in pairs])
    assert [F(c, table.the_sum.den) for c in table.form] == list(reference), point


@pytest.mark.parametrize(
    "n, pairs",
    [
        # All mass on one end: one coefficient is the whole denominator.
        (3, [(0, 7), (0, 40), (0, 1)]),
        (3, [(7, 7), (40, 40), (1, 1)]),
        (12, [(0, 1)] * 5),
        (12, [(1, 1)] * 5),
        # 255 * 257 = 2^16 - 1: the top coefficient sets every bit of its slot.
        (1, [(255, 255), (257, 257)]),
        (1, [(0, 255), (0, 257)]),
        (2, [(3, 3), (5, 5), (17, 17), (257, 257)]),
        # K = 601, ints of about 2400 bits.
        (200, [(1, 3), (2, 5), (3, 7)]),
        (300, [(12, 37), (35, 37)]),
    ],
)
def test_packed_sum_fills_its_slots(n, pairs):
    law = binomial_sum(n, pairs)
    assert law == cauchy_sum(n, pairs)
    assert len(law.nums) == len(pairs) * n + 1 and sum(law.nums) == law.den
    if all(p in (0, q) for p, q in pairs):
        assert law.den in law.nums


def test_witness_skips_points_empty_on_both_sides():
    # The stop-loss gap of delta_2 against (delta_0 + delta_4) / 2 is already
    # negative at t = 1, but 1 carries no mass on either side; the smallest
    # witness in the union of supports is 2.
    spread = LatticeLaw([1, 0, 0, 0, 1], 2)
    point = LatticeLaw([0, 0, 1], 1)
    verdict = lattice_verdict(spread, point)
    assert verdict.witness == 2
    assert verdict == cx_compare_oracle(as_distribution(spread), as_distribution(point))
    assert verdict == oracle_by_stop_loss_scan(as_distribution(spread), as_distribution(point))
    assert lattice_verdict(point, spread).holds
    assert lattice_verdict(point, spread) == oracle_by_stop_loss_scan(
        as_distribution(point), as_distribution(spread)
    )


def test_unequal_means_report_the_gap():
    lhs = LatticeLaw([1, 1], 2)
    rhs = LatticeLaw([0, 1, 2], 3)
    verdict = lattice_verdict(lhs, rhs)
    assert not verdict.holds and not verdict.means_equal
    assert verdict == cx_compare_oracle(as_distribution(lhs), as_distribution(rhs))
    assert verdict == oracle_by_stop_loss_scan(as_distribution(lhs), as_distribution(rhs))
    assert verdict.mean_gap == F(5, 3) - F(1, 2)


@st.composite
def grid_points(draw):
    """(n, pairs): m = 2..4 reduced pairs with q <= 12, the ends 0 and 1
    drawn often."""
    value = st.integers(1, 12).flatmap(lambda q: st.integers(0, q).map(lambda p: F(p, q)))
    xs = draw(
        st.lists(st.one_of(st.sampled_from([F(0), F(1)]), value), min_size=2, max_size=4)
    )
    return draw(st.integers(1, 6)), tuple((x.numerator, x.denominator) for x in xs)


@settings(max_examples=200, deadline=None)
@given(point=grid_points())
def test_holds_predicate_is_the_verdicts_holds(point):
    # A sweep reads each relation as a bool through the predicate
    # ``gap_verdict`` tests first.  The negated gap is the reverse relation's,
    # so failing relations, with and without equal means, are read too, and
    # each bool is checked against the Fraction scan of the laws' atoms.
    n, pairs = point
    table = point_with_parts(n, pairs)
    laws = (table.the_sum, table.pooled, table.mixed)
    relations = (
        (0, 1, table.sum_vs_pooled, table.pooled.den),
        (1, 2, table.pooled_vs_mixture, table.pooled.den),
        (0, 2, table.sum_vs_mixture, table.mixed.den),
    )
    for a, b, gaps, den in relations:
        negated = [-g for g in gaps]
        for lhs, rhs, gap in ((a, b, gaps), (b, a, negated)):
            holds = lattice._holds(gap)
            assert holds == gap_verdict(laws[lhs].nums, laws[rhs].nums, gap, den).holds
            scan = oracle_by_stop_loss_scan(*map(as_distribution, (laws[lhs], laws[rhs])))
            assert holds == scan.holds, (point, lhs, rhs)


lattice_laws = st.lists(st.integers(0, 5), min_size=1, max_size=7).filter(any).map(
    lambda nums: LatticeLaw(nums, sum(nums))
)


@settings(max_examples=300, deadline=None)
@given(lhs=lattice_laws, rhs=lattice_laws)
def test_holds_predicate_on_any_two_laws(lhs, rhs):
    # Unlike a point's three laws, two random laws mostly differ in mean.
    ls, rs, gaps = lattice_gaps(lhs, rhs)
    holds = lattice._holds(gaps)
    assert holds == gap_verdict(ls, rs, gaps, lhs.den * rhs.den).holds
    assert holds == oracle_by_stop_loss_scan(as_distribution(lhs), as_distribution(rhs)).holds


def test_sparse_support_points():
    # Boundary parameters make every part a point mass, so the laws have
    # lattice points with no mass on either side.
    witnesses = 0
    for n in (1, 2, 3):
        for xs in ((F(0), F(1)), (F(0), F(1, 2), F(1)), (F(0), F(0), F(1), F(1))):
            witnesses += assert_point_matches(n, xs, builtin_family(len(xs) * n))
    assert witnesses > 0


def test_farey_bound_far_over_the_grid_limit_raises_at_once():
    started = time.perf_counter()
    with pytest.raises(ParameterError):
        farey_fractions(10**12)
    assert time.perf_counter() - started < 1


def test_farey_set_is_bounded_by_the_grid_limit():
    assert len(farey_fractions(572)) == 99_645 <= sweep.MAX_GRID_POINTS
    with pytest.raises(ParameterError) as raised:
        farey_fractions(573)
    assert str(raised.value) == "denominator bound 573 gives more than 100000 fractions"
    # m = 2 admits the most values in one grid: up to --denom 37 (433 values,
    # 93 961 points), also at n = 500, the deepest lattice.
    assert len(farey_fractions(37)) == 433
    RunConfig(n_values=(500,), m_values=(2,), denominator=37)
    with pytest.raises(ParameterError):
        RunConfig(n_values=(1,), m_values=(2,), denominator=38)


def test_farey_recurrence_matches_the_sorted_set():
    for max_den in range(1, 81):
        values = {F(p, q) for q in range(1, max_den + 1) for p in range(q + 1)}
        assert farey_fractions(max_den) == sorted(values)


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
                form_den = point.the_sum.den
                assert [F(c, form_den) for c in point.form] == list(coeff)
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
                reverse = lattice_verdict(point.mixed, point.the_sum)
                assert reverse == cx_compare_oracle(mixed, the_sum), (n, x, y)
                assert reverse == oracle_by_stop_loss_scan(mixed, the_sum), (n, x, y)
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
        verdict = lattice_verdict(a, b)
        assert verdict == cx_compare_oracle(as_distribution(a), as_distribution(b))
        assert verdict == oracle_by_stop_loss_scan(as_distribution(a), as_distribution(b))


@settings(max_examples=200, deadline=None)
@given(nums=st.lists(st.integers(0, 50), min_size=1, max_size=12), factor=st.integers(1, 5))
def test_stop_loss_numerators_match_atoms(nums, factor):
    nums[-1] += 1
    law = LatticeLaw([factor * v for v in nums], factor * sum(nums))
    d = as_distribution(law)
    table = stop_loss_numerators(law.nums)
    assert len(table) == len(nums)
    assert [F(v, law.den) for v in table] == [stop_loss_by_atoms(d, F(j)) for j in range(len(nums))]


def assert_table_matches(n, xs) -> int:
    """Compare the point's three table verdicts, and the three reversed
    ones read from the negated gaps, with the Fraction stop-loss scan.

    Returns the number of witnesses among the reversed verdicts.
    """
    table = lattice_point(n, xs)
    laws = distribution_laws(n, xs)
    lattice_laws = (table.the_sum, table.pooled, table.mixed)
    assert tuple(map(as_distribution, lattice_laws)) == laws
    verdicts = table.verdicts()
    witnesses = 0
    for (a, b), gaps, den, verdict in (
        ((0, 1), table.sum_vs_pooled, table.pooled.den, verdicts.sum_vs_pooled),
        ((1, 2), table.pooled_vs_mixture, table.pooled.den, verdicts.pooled_vs_mixture),
        ((0, 2), table.sum_vs_mixture, table.mixed.den, verdicts.sum_vs_mixture),
    ):
        assert len(gaps) == len(xs) * n + 1
        assert verdict == oracle_by_stop_loss_scan(laws[a], laws[b]), (n, xs, a, b)
        lhs, rhs = lattice_laws[b].nums, lattice_laws[a].nums
        reverse = gap_verdict(lhs, rhs, [-g for g in gaps], den)
        assert reverse == oracle_by_stop_loss_scan(laws[b], laws[a]), (n, xs, b, a)
        witnesses += reverse.witness is not None
    return witnesses


boundary_or_inner = st.one_of(st.sampled_from([F(0), F(1)]), parameters)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 5),
    xs=st.integers(2, 4).flatmap(
        lambda m: st.lists(boundary_or_inner, min_size=m, max_size=m)
    ),
)
def test_stop_loss_table_matches_fraction_scan(n, xs):
    assert_table_matches(n, xs)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 6),
    xs=st.integers(2, 4).flatmap(
        lambda m: st.lists(boundary_or_inner, min_size=m, max_size=m)
    ),
)
def test_two_pass_table_equals_three_pass_formulas(n, xs):
    """The gaps from pi(F) and pi(P - m^(mn) S) are the ones the three
    stop-loss tables of S, P and M give, and F is M - m S."""
    table = lattice_point(n, xs)
    m, mn = len(xs), len(xs) * n
    common_den = math.lcm(*(F(x).denominator for x in xs))
    assert table.the_sum.den == common_den**mn
    assert table.pooled.den == (m * common_den) ** mn
    assert table.mixed.den == m * common_den**mn
    s, p, x = (stop_loss_numerators(law.nums) for law in table[:3])
    scale = m ** (mn - 1)
    assert table.sum_vs_pooled == [b - m * scale * a for a, b in zip(s, p)]
    assert table.pooled_vs_mixture == [scale * c - b for b, c in zip(p, x)]
    assert table.sum_vs_mixture == [c - m * a for a, c in zip(s, x)]
    assert table.form == [c - m * a for a, c in zip(table.the_sum.nums, table.mixed.nums)]
    assert_table_matches(n, xs)


def test_stop_loss_table_reversals_carry_witnesses():
    witnesses = 0
    for n in (1, 2, 3):
        for xs in combinations_with_replacement(farey_fractions(4), 2):
            witnesses += assert_table_matches(n, xs)
    for xs in ((F(0), F(1, 2), F(1)), (F(1, 4), F(1, 4), F(3, 4))):
        witnesses += assert_table_matches(2, xs)
    assert witnesses > 0


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 5),
    xs=st.integers(2, 4).flatmap(
        lambda m: st.lists(boundary_or_inner, min_size=m, max_size=m)
    ),
)
def test_angle_forms_are_gap_c(n, xs):
    """The form on the angle at j / (mn) is relation (c)'s gap at j over
    mn L^(mn), so the angles' minimum is that vector's minimum."""
    point = lattice_point(n, xs)
    mn = len(xs) * n
    gaps = point.sum_vs_mixture
    form_den = point.the_sum.den
    rows, den = probe_table(mn, [Angle(F(j, mn)) for j in range(mn + 1)])
    values = [F(dot(point.form, row), form_den * den) for row in rows]
    assert [F(g, mn * form_den) for g in gaps] == values
    assert F(min(gaps), mn * form_den) == min(values)


def test_sweep_takes_no_dot_product_per_angle(monkeypatch):
    calls = []

    def counting_dot(a, b):
        calls.append(None)
        return dot(a, b)

    monkeypatch.setattr(sweep, "dot", counting_dot)
    # Relation (c) holds at every point, so with the angles probed no row
    # takes a dot product.  Without them each row takes one per probe:
    # three monomials, one affine function and five random ones.
    without_angles = ("monomials", "affine", "random-pwl")
    for functions, per_point in (
        (KNOWN_FUNCTION_GROUPS, 0), (without_angles, 9), (("angles",), 0)
    ):
        calls.clear()
        config = RunConfig(n_values=(1, 2), m_values=(2, 3), denominator=4, functions=functions)
        rows, ok = run_sweep(config)
        assert ok and all(row["verdict_c"] for row in rows)
        assert len(calls) == per_point * len(rows), functions


def test_sweep_builds_its_probe_family_once(monkeypatch):
    families = []
    tables = []

    def counting_family(*args, **kwargs):
        families.append(None)
        return builtin_family(*args, **kwargs)

    def counting_table(points, probes):
        tables.append(points)
        return probe_table(points, probes)

    monkeypatch.setattr(convex_functions, "builtin_family", counting_family)
    monkeypatch.setattr(sweep, "probe_table", counting_table)
    # Relation (c) decides every row of a default grid: no row needs a probe.
    rows, ok = run_sweep(RunConfig(n_values=(1, 2, 3), m_values=(2, 3), denominator=3, seed=5))
    assert ok and families == [] and tables == []
    # Without the angles every row needs the table.  The family does not
    # depend on m * n: one family per stride, evaluated into one table per
    # (n, m) block, also where two blocks share m * n (6 at n = 2, m = 3 and
    # at n = 3, m = 2).
    config = RunConfig(
        n_values=(1, 2, 3), m_values=(2, 3), denominator=3, seed=5,
        functions=("monomials", "affine", "random-pwl"),
    )
    rows, ok = run_sweep(config)
    assert ok and len(families) == 1
    assert tables == [2, 3, 4, 6, 6, 9]


def sweep_row(n, xs, functions=KNOWN_FUNCTION_GROUPS, seed=0):
    """``sweep.evaluate_grid_point`` at (n, xs), with the parts and probes a
    stride hands it."""
    m = len(xs)
    mn = m * n
    probes = sweep._Probes(functions, seed)
    probes.start(mn)
    values = tuple(
        ((x.numerator, x.denominator), str(x), binomial_numerators(mn, x.numerator, x.denominator))
        for x in xs
    )
    return sweep.evaluate_grid_point(n, m, values, probes)


def full_probe_minimum(n, xs, seed=0, tables=None) -> F:
    """The form's exact minimum over every probe group, angles included,
    each probe one dot product with the form's coefficients.

    ``tables`` keeps each m * n's probe table for the caller's next point.
    """
    mn = len(xs) * n
    table = point_with_parts(n, [(x.numerator, x.denominator) for x in xs])
    tables = {} if tables is None else tables
    if mn not in tables:
        tables[mn] = probe_table(mn, builtin_family(mn, seed=seed))
    rows, den = tables[mn]
    return F(min(dot(table.form, row) for row in rows), table.the_sum.den * den)


# The grids the CI report pins run, as (n values, m, denominator, points
# sampled): the deep grid, the wide grid, the long lattices at m = 2 and
# m = 3, and the two long blocks.
PIN_GRIDS = (
    (range(10, 13), 2, 16, 40),
    (range(1, 5), 3, 12, 40),
    ((150,), 2, 5, 6),
    ((40,), 3, 3, 6),
    ((299, 300), 2, 5, 2),
)


def test_rows_relation_c_decides_are_the_minimum_over_every_probe(monkeypatch):
    """Where a sweep row reads its minimum from relation (c), every probe
    group, evaluated through ``probe_table`` and ``dot``, gives that minimum:
    exactly 0."""
    fallbacks = []
    minimum = sweep._form_minimum

    def recording_minimum(*args):
        fallbacks.append(None)
        return minimum(*args)

    monkeypatch.setattr(sweep, "_form_minimum", recording_minimum)
    rng = random.Random(2016)
    decided = 0
    for n_values, m, denominator, count in PIN_GRIDS:
        config = RunConfig(n_values=n_values, m_values=(m,), denominator=denominator)
        tables = {}
        for n, _, xs, *_ in rng.sample(grid_tasks(config), count):
            fallbacks.clear()
            row = sweep_row(n, xs)
            if fallbacks:
                continue
            decided += 1
            assert row[6] == "0" and row[7], row
            assert full_probe_minimum(n, xs, tables=tables) == 0, (n, xs)
    assert decided == sum(count for *_, count in PIN_GRIDS)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 4),
    xs=st.integers(2, 4).flatmap(
        lambda m: st.lists(boundary_or_inner, min_size=m, max_size=m)
    ),
    seed=st.integers(0, 1000),
)
def test_decided_row_equals_the_full_probe_row(n, xs, seed):
    mn = len(xs) * n
    row = sweep_row(n, xs, seed=seed)
    table = point_with_parts(n, [(x.numerator, x.denominator) for x in xs])
    assert lattice._holds(table.sum_vs_mixture) and sum(table.form) == 0
    # The row every probe gives, through the path of a row (c) leaves open.
    probes = sweep._Probes(KNOWN_FUNCTION_GROUPS, seed)
    probes.start(mn)
    text, nonnegative = sweep._form_minimum(mn, table, probes)
    assert row[6] == text == str(full_probe_minimum(n, xs, seed))
    assert row[7] == (row[3] and row[4] and row[5] and nonnegative)


@pytest.mark.parametrize(
    "change",
    [{0: -1}, {1: -1}, {-1: -1}, {1: -1, 2: 1}],
    ids=["coefficient-0", "coefficient-1", "last-coefficient", "moved-unit"],
)
def test_a_broken_form_is_caught(monkeypatch, change):
    """A table whose form is off falls back to the probes and does not read
    0.  Gap (c) reads every coefficient but the one at 0, so there (c) still
    holds and the form's sum catches the change; a unit moved from one
    coefficient to the next keeps the sum at 0, and (c) catches it.  Every
    block takes the list route here; ``test_a_broken_packed_form_is_caught``
    breaks the packed route's form."""
    config = RunConfig(n_values=(1, 2), m_values=(2, 3), denominator=3)
    honest_rows, _ = run_sweep(config)
    monkeypatch.setattr(sweep, "_point_packing", lambda n, m, max_den: None)
    honest = sweep.point_from_pairs
    fallbacks = []
    minimum = sweep._form_minimum

    def broken(n, pairs, parts):
        table = honest(n, pairs, parts)
        form = list(table.form)
        for index, delta in change.items():
            form[index] += delta
        return table._replace(form=form, sum_vs_mixture=stop_loss_numerators(form))

    def recording_minimum(*args):
        fallbacks.append(None)
        return minimum(*args)

    monkeypatch.setattr(sweep, "point_from_pairs", broken)
    monkeypatch.setattr(sweep, "_form_minimum", recording_minimum)
    rows, ok = run_sweep(config)
    assert not ok and len(fallbacks) == len(rows) == len(honest_rows)
    for row, honest_row in zip(rows, honest_rows):
        assert row != honest_row and row["min_form"] != "0", row
        assert row["verdict_c"] == (change == {0: -1}), row


@pytest.mark.parametrize(
    "change",
    [{0: -1}, {1: -1}, {-1: -1}, {1: -1, 2: 1}],
    ids=["coefficient-0", "coefficient-1", "last-coefficient", "moved-unit"],
)
def test_a_broken_packed_form_is_caught(monkeypatch, change):
    """A packed point whose form is off is read by the list route instead,
    which gives the honest row.  The change is made to the mixture's first
    part, so the form's coefficient moves by c^(mn), c = L / q_1: as with
    the list route's table, relation (c) still holds where only the
    coefficient at 0 moves, and the form's sum or (c) catches every change."""
    config = RunConfig(n_values=(1, 2), m_values=(2, 3), denominator=3)
    honest_rows, _ = run_sweep(config)
    honest_gaps = sweep._packed_gaps
    honest_point = sweep.point_from_pairs
    packed_c = []
    fallbacks = []

    def broken_gaps(n, pairs, parts, packing):
        mn = len(pairs) * n
        # The form's coefficient at k sits in slot mn - k.
        delta = sum(d << (packing.width * (mn - k % (mn + 1))) for k, d in change.items())
        gaps = honest_gaps(n, pairs, (parts[0] + delta, *parts[1:]), packing)
        packed_c.append(packing.holds(gaps[2]))
        return gaps

    def recording_point(*args):
        fallbacks.append(None)
        return honest_point(*args)

    monkeypatch.setattr(sweep, "_packed_gaps", broken_gaps)
    monkeypatch.setattr(sweep, "point_from_pairs", recording_point)
    assert run_sweep(config) == (honest_rows, True)
    assert len(fallbacks) == len(packed_c) == len(honest_rows)
    assert packed_c == [change == {0: -1}] * len(honest_rows)


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
            verdicts = verify_generalized(n, xs)
            assert (row["verdict_a"], row["verdict_b"], row["verdict_c"]) == (
                verdicts.sum_vs_pooled.holds,
                verdicts.pooled_vs_mixture.holds,
                verdicts.sum_vs_mixture.holds,
            ), row


def uncached_laws(n, xs) -> tuple[LatticeLaw, LatticeLaw, LatticeLaw]:
    """The sum, pooled law and mixture at (n, xs) built from scratch over
    the least common denominator: every binomial and product made anew,
    each self sum as m - 1 Cauchy products."""
    xs = [F(x) for x in xs]
    den = math.lcm(*(x.denominator for x in xs))
    numerators = tuple(x.numerator * (den // x.denominator) for x in xs)
    parts = [bernstein_numerators(n, a, den) for a in numerators]
    the_sum = parts[0]
    for part in parts[1:]:
        the_sum = cauchy_product(the_sum, part)
    # Every self sum is over den^(mn): the mixture's numerators are column sums.
    powers = [self_power(part, len(parts)).nums for part in parts]
    mixed = LatticeLaw(
        [sum(column) for column in zip(*powers)], len(xs) * den ** (len(xs) * n)
    )
    pooled = bernstein_numerators(len(xs) * n, sum(numerators), len(xs) * den)
    return the_sum, pooled, mixed


# A value in [0, 1] with denominator up to 12, spelled unreduced 1 to 3
# times over: "1/2", "2/4" and "3/6" are one value, one cache key.
spelled_values = st.integers(1, 12).flatmap(
    lambda q: st.tuples(st.integers(0, q), st.just(q), st.integers(1, 3))
).map(lambda t: f"{t[0] * t[2]}/{t[1] * t[2]}")


@st.composite
def repeating_points(draw):
    """(n, xs) with m = 2..4 values drawn from a pool of at most three, so
    values repeat within a point and across examples."""
    pool = draw(st.lists(st.one_of(st.sampled_from(["0", "1"]), spelled_values),
                         min_size=1, max_size=3))
    m = draw(st.integers(2, 4))
    xs = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    return draw(st.integers(1, 5)), xs


@settings(max_examples=200, deadline=None)
@given(point=repeating_points())
def test_cached_point_equals_uncached_laws(point):
    n, xs = point
    built = lattice_point(n, xs)
    assert built[:3] == uncached_laws(n, xs), (n, xs)
    assert lattice_point(n, [F(x) for x in xs]) == built
    reference = form_coefficients_by_cauchy(n, [F(x) for x in xs])
    assert [F(c, built.the_sum.den) for c in built.form] == list(reference), (n, xs)


def test_grid_point_builds_one_power_and_one_pooled_law(monkeypatch):
    """On the m = 3 grid, every block taken by the list route, every point
    takes one packed power for its sum and builds one pooled law; each
    (n, m) block builds each value's binomial law of degree mn once, for
    the mixtures of all its points."""
    powers = []
    pooled = []
    laws = []
    power = lattice.binomial_sum
    build_pooled = lattice.bernstein_numerators
    build_law = sweep.binomial_numerators

    def counting_power(n, pairs):
        powers.append(None)
        return power(n, pairs)

    def counting_pooled(n, a, q):
        pooled.append(None)
        return build_pooled(n, a, q)

    def counting_law(n, a, q):
        laws.append((n, a, q))
        return build_law(n, a, q)

    monkeypatch.setattr(lattice, "binomial_sum", counting_power)
    monkeypatch.setattr(lattice, "bernstein_numerators", counting_pooled)
    monkeypatch.setattr(sweep, "binomial_numerators", counting_law)
    monkeypatch.setattr(sweep, "_point_packing", lambda n, m, max_den: None)
    config = RunConfig(n_values=(1, 2, 3), m_values=(3,), denominator=5, seed=0)
    tasks = grid_tasks(config)
    rows, ok = run_sweep(config)
    assert ok and len(rows) == len(tasks) == 858
    assert len(powers) == len(pooled) == len(tasks)
    keys = {(m * n, x.numerator, x.denominator) for n, m, xs, *_ in tasks for x in xs}
    assert len(keys) == 33
    assert sorted(laws) == sorted(keys)
