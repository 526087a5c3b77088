import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convexorder import (
    Angle,
    DiscreteDistribution,
    ParameterError,
    StandingHypothesisError,
    bernoulli,
    binomial,
    build_counterexample,
    convolve,
    convolve_many,
    crossing_points,
    cx_compare_oracle,
    dirac,
    expectation,
    levin_steckin_check,
    mixture,
    ohlin_check,
    poisson_binomial,
    random_equal_mean_pair,
    sign_changes,
    szostok_decision,
)
from convexorder.cli import report_data
from convexorder.cx_order import _segments
from oracles import (
    cdf_integral_by_midpoints,
    convex_order_by_probing,
    crossing_points_by_cdf,
    levin_steckin_by_cdf_integrals,
    ohlin_by_probes,
    oracle_by_stop_loss_scan,
    scale_by_fractions,
    szostok_by_cdf_segments,
)

HALF = F(1, 2)


def spread_pair():
    """binomial(2, 1/2) against the equal-mean two-point spread."""
    return binomial(2, HALF), mixture([HALF, HALF], [dirac(0), dirac(2)])


class TestSignChanges:
    def test_basic(self):
        assert sign_changes([F(1), F(0), F(-2), F(3)]) == 2

    def test_all_zero(self):
        assert sign_changes([F(0), F(0), F(0)]) == 0

    def test_psi_sequence(self):
        assert sign_changes([F(1, 16), F(-1, 16), F(1, 16)]) == 2

    def test_no_change(self):
        assert sign_changes([F(2), F(0), F(1)]) == 0


class TestOracle:
    def test_reflexive(self):
        d = binomial(3, F(2, 7))
        verdict = cx_compare_oracle(d, d)
        assert verdict.holds and verdict.means_equal and verdict.witness is None

    def test_counterexample_pair(self):
        lhs, rhs = build_counterexample()
        verdict = cx_compare_oracle(lhs, rhs)
        assert not verdict.holds
        assert verdict.means_equal
        assert verdict.witness == 4
        assert lhs.stop_loss(4) == 1
        assert rhs.stop_loss(4) == F(3, 4)

    def test_witness_is_smallest_violation(self):
        lhs, rhs = build_counterexample()
        for t in (F(0), F(1), F(2), F(3)):
            assert lhs.stop_loss(t) <= rhs.stop_loss(t)

    def test_binomial_vs_spread(self):
        lhs, rhs = spread_pair()
        assert [lhs.stop_loss(t) for t in (0, 1, 2)] == [1, F(1, 4), 0]
        assert [rhs.stop_loss(t) for t in (0, 1, 2)] == [1, HALF, 0]
        assert cx_compare_oracle(lhs, rhs).holds

    def test_unequal_means(self):
        verdict = cx_compare_oracle(dirac(0), dirac(1))
        assert not verdict.holds
        assert not verdict.means_equal
        assert verdict.witness is None
        assert verdict.mean_gap == 1

    def test_oracle_agrees_with_probing(self):
        rng = random.Random(2024)
        for _ in range(120):
            lhs, rhs = random_equal_mean_pair(rng)
            verdict = cx_compare_oracle(lhs, rhs)
            assert verdict.holds == convex_order_by_probing(
                lhs, rhs, rng, pwl_count=10
            )
            if not verdict.holds:
                # the witness angle certifies the violation
                w = Angle(verdict.witness)
                assert expectation(lhs, w) > expectation(rhs, w)

    def test_soundness_on_extreme_rays(self):
        rng = random.Random(99)
        checked = 0
        while checked < 50:
            lhs, rhs = random_equal_mean_pair(rng)
            if not cx_compare_oracle(lhs, rhs).holds:
                continue
            assert convex_order_by_probing(lhs, rhs, rng, pwl_count=50)
            checked += 1

    def test_scale_invariance(self):
        rng = random.Random(5)
        for _ in range(50):
            lhs, rhs = random_equal_mean_pair(rng)
            a = F(rng.randint(1, 12), rng.randint(1, 12))
            before = cx_compare_oracle(lhs, rhs).holds
            after = cx_compare_oracle(
                scale_by_fractions(lhs, a), scale_by_fractions(rhs, a)
            ).holds
            assert before == after


class TestOhlin:
    def test_single_crossing_instance(self):
        lhs = binomial(2, HALF)
        rhs = mixture([HALF, HALF], [binomial(2, F(1, 4)), binomial(2, F(3, 4))])
        assert lhs.cdf(1) == F(1, 4) and rhs.cdf(1) == F(5, 16)
        assert lhs.cdf(2) == F(3, 4) and rhs.cdf(2) == F(11, 16)
        report = ohlin_check(lhs, rhs)
        assert report.applies and not report.identical
        # the crossing separates the nonstrict sign regions of F_lhs - F_rhs
        x0 = report.crossing
        grid = sorted(set(lhs.support) | set(rhs.support))
        probes = [g + delta for g in grid for delta in (F(0), F(1, 7))] + [
            grid[0] - 1,
            grid[-1] + 1,
        ]
        for x in probes:
            diff = lhs.cdf(x) - rhs.cdf(x)
            if x < x0:
                assert diff <= 0
            elif x > x0:
                assert diff >= 0

    def test_identical(self):
        d = binomial(2, F(1, 3))
        report = ohlin_check(d, d)
        assert report.identical and report.applies and report.crossing is None

    def test_counterexample_does_not_apply(self):
        lhs, rhs = build_counterexample()
        assert not ohlin_check(lhs, rhs).applies

    def test_unequal_means_do_not_apply(self):
        assert not ohlin_check(dirac(0), dirac(1)).applies

    def test_ohlin_implies_oracle(self):
        rng = random.Random(31337)
        applied = 0
        for _ in range(1000):
            lhs, rhs = random_equal_mean_pair(rng)
            if ohlin_check(lhs, rhs).applies:
                applied += 1
                assert cx_compare_oracle(lhs, rhs).holds
        assert applied > 50  # the corpus must actually exercise the lemma


class TestCrossingPoints:
    def test_counterexample_points(self):
        lhs, rhs = build_counterexample()
        assert crossing_points(lhs, rhs) == [F(1), F(4), F(7)]

    def test_identical_no_points(self):
        d = binomial(2, HALF)
        assert crossing_points(d, d) == []

    def test_single_crossing_pair(self):
        lhs = binomial(2, HALF)
        rhs = mixture([HALF, HALF], [binomial(2, F(1, 4)), binomial(2, F(3, 4))])
        assert len(crossing_points(lhs, rhs)) == 1

    def test_count_matches_sign_changes_of_sampled_difference(self):
        rng = random.Random(404)
        for _ in range(200):
            lhs, rhs = random_equal_mean_pair(rng)
            grid = sorted(set(lhs.support) | set(rhs.support))
            samples = [rhs.cdf_right(g) - lhs.cdf_right(g) for g in grid]
            assert len(crossing_points(lhs, rhs)) == sign_changes(samples)


class TestLevinSteckin:
    def test_identical_all_conditions(self):
        d = binomial(2, HALF)
        report = levin_steckin_check(d, d, F(0), F(2))
        assert report.holds
        assert (
            report.endpoint_match
            and report.integral_match
            and report.partial_dominance
        )

    def test_binomial_vs_spread(self):
        lhs, rhs = spread_pair()
        assert levin_steckin_check(lhs, rhs, F(0), F(2)).holds

    def test_counterexample_partial_dominance_fails(self):
        lhs, rhs = build_counterexample()
        report = levin_steckin_check(lhs, rhs, F(0), F(8))
        assert report.endpoint_match and report.integral_match
        assert not report.partial_dominance
        # first failing partial integral sits at x = 4: 1 versus 3/4
        for x in (F(1), F(2), F(3)):
            assert cdf_integral_by_midpoints(lhs, F(0), x) <= cdf_integral_by_midpoints(
                rhs, F(0), x
            )
        assert cdf_integral_by_midpoints(lhs, F(0), F(4)) == 1
        assert cdf_integral_by_midpoints(rhs, F(0), F(4)) == F(3, 4)

    def test_escaping_interval_rejected(self):
        with pytest.raises(ParameterError):
            levin_steckin_check(binomial(2, HALF), dirac(1), F(0), F(1))

    @pytest.mark.parametrize("b", [F(1), F(2)])
    def test_dirac_pair_fails_partial_dominance(self, b):
        # integral_0^x F_delta0 = x > 0 = integral_0^x F_delta1 on (0, 1), so
        # the failure must not depend on whether b is the last support point
        report = levin_steckin_check(dirac(0), dirac(1), F(0), b)
        assert report.endpoint_match and not report.integral_match
        assert not report.partial_dominance
        assert cdf_integral_by_midpoints(dirac(0), F(0), HALF) == HALF
        assert cdf_integral_by_midpoints(dirac(1), F(0), HALF) == 0

    def test_matches_oracle_on_corpus(self):
        rng = random.Random(777)
        for _ in range(300):
            lhs, rhs = random_equal_mean_pair(rng)
            report = levin_steckin_check(lhs, rhs, F(0), F(10))
            assert report.holds == cx_compare_oracle(lhs, rhs).holds


class TestSzostok:
    def test_counterexample_report(self):
        lhs, rhs = build_counterexample()
        report = szostok_decision(lhs, rhs, F(0), F(8))
        assert report.sign_change_points == (F(1), F(4), F(7))
        assert report.areas == (F(1, 8), F(3, 8), F(3, 8), F(1, 8))
        assert report.parity_ok  # m = 3 is odd
        assert not report.partial_sums_ok  # A_0 < A_1
        assert report.first_segment_nonneg
        assert not report.decision

    def test_single_crossing_decides_true(self):
        lhs, rhs = spread_pair()
        report = szostok_decision(lhs, rhs, F(0), F(2))
        assert len(report.sign_change_points) == 1
        assert report.partial_sums_ok  # empty chain for m = 1
        assert report.decision

    def test_identical_decides_true(self):
        d = binomial(2, HALF)
        report = szostok_decision(d, d, F(0), F(2))
        assert report.sign_change_points == ()
        assert report.areas == (F(0),)
        assert report.decision

    def test_unequal_means_raise(self):
        with pytest.raises(StandingHypothesisError):
            szostok_decision(dirac(0), bernoulli(HALF), F(0), F(1))

    def test_first_segment_negative_decides_false(self):
        lhs, rhs = spread_pair()
        report = szostok_decision(rhs, lhs, F(0), F(2))  # reversed orientation
        assert not report.first_segment_nonneg
        assert not report.decision
        assert not cx_compare_oracle(rhs, lhs).holds

    def test_matches_oracle_on_corpus(self):
        rng = random.Random(4242)
        even_seen = 0
        for _ in range(300):
            lhs, rhs = random_equal_mean_pair(rng)
            report = szostok_decision(lhs, rhs, F(0), F(10))
            assert report.decision == cx_compare_oracle(lhs, rhs).holds
            if len(report.sign_change_points) % 2 == 0 and report.sign_change_points:
                even_seen += 1
        assert even_seen  # even sign-change counts must occur in the corpus

    def test_area_count_one_more_than_points(self):
        rng = random.Random(11)
        for _ in range(100):
            lhs, rhs = random_equal_mean_pair(rng)
            report = szostok_decision(lhs, rhs, F(0), F(10))
            assert len(report.areas) == len(report.sign_change_points) + 1


def test_procedures_on_counterexample_laws():
    lhs, rhs = build_counterexample()
    assert crossing_points(lhs, rhs) == [F(1), F(4), F(7)]
    assert not levin_steckin_check(lhs, rhs, F(0), F(8)).holds
    assert szostok_decision(lhs, rhs, F(0), F(8)).areas == (
        F(1, 8),
        F(3, 8),
        F(3, 8),
        F(1, 8),
    )
    assert not cx_compare_oracle(lhs, rhs).holds
    assert not ohlin_check(lhs, rhs).applies


def test_reports_serialize_with_rational_strings():
    lhs, rhs = build_counterexample()
    verdict = report_data(cx_compare_oracle(lhs, rhs))
    assert verdict == {
        "holds": False,
        "means_equal": True,
        "witness": "4",
        "mean_gap": "0",
    }
    sz = report_data(szostok_decision(lhs, rhs, F(0), F(8)))
    assert sz["sign_change_points"] == ["1", "4", "7"]
    assert sz["areas"] == ["1/8", "3/8", "3/8", "1/8"]
    assert sz["decision"] is False
    oh = report_data(ohlin_check(lhs, rhs))
    assert oh == {"applies": False, "crossing": None, "identical": False}


# ---------------------------------------------------------------------------
# The segment table against the point-by-point Fraction routes
# ---------------------------------------------------------------------------


def _outcome(procedure, *args):
    """The report, or the type and message of the ParameterError raised."""
    try:
        return procedure(*args)
    except ParameterError as exc:
        return type(exc), str(exc)


def assert_same_reports(lhs, rhs, a, b):
    """Every procedure returns exactly the reference report on (lhs, rhs)."""
    assert cx_compare_oracle(lhs, rhs) == oracle_by_stop_loss_scan(lhs, rhs)
    assert ohlin_check(lhs, rhs) == ohlin_by_probes(lhs, rhs)
    assert crossing_points(lhs, rhs) == crossing_points_by_cdf(lhs, rhs)
    assert _outcome(levin_steckin_check, lhs, rhs, a, b) == _outcome(
        levin_steckin_by_cdf_integrals, lhs, rhs, a, b
    )
    assert _outcome(szostok_decision, lhs, rhs, a, b) == _outcome(
        szostok_by_cdf_segments, lhs, rhs, a, b
    )


def test_reports_match_references_on_criterion_6_corpus():
    rng = random.Random(161803)
    for _ in range(1000):
        lhs, rhs = random_equal_mean_pair(rng)
        assert_same_reports(lhs, rhs, F(0), F(10))


@pytest.mark.parametrize("reverse", [False, True])
def test_reports_match_references_on_poisson_binomial_n60(reverse):
    ps = [F(1 + i % 6, 7 + i % 5) for i in range(60)]
    pb = poisson_binomial(ps)
    bn = binomial(60, sum(ps, F(0)) / 60)
    lhs, rhs = (bn, pb) if reverse else (pb, bn)
    assert_same_reports(lhs, rhs, F(0), F(60))
    verdict = cx_compare_oracle(lhs, rhs)
    assert verdict.holds is not reverse
    if reverse:
        assert lhs.stop_loss(verdict.witness) > rhs.stop_loss(verdict.witness)


def test_poisson_binomial_n150_builds_no_fraction_atoms():
    """The compare-large shape: every procedure both ways, and the witness's
    certificate, read the laws' ints only."""
    rng = random.Random(150)
    ps = [F(rng.randint(1, q - 1), q) for q in (2 + i % 19 for i in range(150))]
    pb = convolve_many([bernoulli(p) for p in ps])
    bn = binomial(150, sum(ps, F(0)) / 150)
    for lhs, rhs in ((pb, bn), (bn, pb)):
        verdict = cx_compare_oracle(lhs, rhs)
        assert verdict.holds is (lhs is pb)
        assert levin_steckin_check(lhs, rhs, F(0), F(150)).holds is verdict.holds
        assert szostok_decision(lhs, rhs, F(0), F(150)).decision is verdict.holds
        ohlin_check(lhs, rhs)
        crossing_points(lhs, rhs)
        if verdict.witness is not None:
            assert lhs.stop_loss(verdict.witness) > rhs.stop_loss(verdict.witness)
    for law in (pb, bn):
        assert not {"atoms", "masses", "support"} & set(vars(law))


rational_points = st.fractions(min_value=-4, max_value=4, max_denominator=7)


@st.composite
def rational_laws(draw, max_atoms=5):
    k = draw(st.integers(1, max_atoms))
    supports = draw(st.lists(rational_points, min_size=k, max_size=k, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    total = sum(weights)
    return DiscreteDistribution.from_pairs(
        (s, F(w, total)) for s, w in zip(supports, weights)
    )


def _spread(d, width):
    """Each atom split evenly to either side: same mean, larger in cx order."""
    return DiscreteDistribution.from_pairs(
        (s + sign * width, m / 2) for s, m in d.atoms for sign in (-1, 1)
    )


@st.composite
def law_pairs(draw):
    """Rational-support pairs: identical, Dirac against a law, disjoint
    spreads, mean-shifted unrelated laws and unrelated laws with unequal
    means, in either orientation."""
    lhs = draw(rational_laws())
    kind = draw(st.sampled_from(["identical", "dirac", "spread", "shifted", "free"]))
    if kind == "identical":
        rhs = lhs
    elif kind == "dirac":
        lhs, rhs = dirac(lhs.mean()), lhs
    elif kind == "spread":
        rhs = _spread(lhs, draw(st.fractions(min_value=F(1, 9), max_value=3)))
        assume(set(lhs.support).isdisjoint(rhs.support))
    else:
        rhs = draw(rational_laws())
        if kind == "shifted":
            rhs = convolve(rhs, dirac(lhs.mean() - rhs.mean()))
    if draw(st.booleans()):
        lhs, rhs = rhs, lhs
    return lhs, rhs


@settings(max_examples=400, derandomize=True, deadline=None)
@given(law_pairs(), st.sampled_from([0, F(1, 3), 2]), st.sampled_from([0, F(2, 5), 1]))
def test_reports_match_references_on_rational_pairs(pair, below, above):
    lhs, rhs = pair
    a = min(lhs.min_support, rhs.min_support) - below
    b = max(lhs.max_support, rhs.max_support) + above
    assert_same_reports(lhs, rhs, a, b)


widenings = st.sampled_from([0, F(1, 3), 2])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(law_pairs(), widenings, widenings)
def test_interval_does_not_change_bounded_reports(pair, s, t):
    """On the supports' hull [a, b] and on every wider [a - s, b + t],
    Levin-Stečkin and Szostok give the same report or the same error."""
    lhs, rhs = pair
    a = min(lhs.min_support, rhs.min_support)
    b = max(lhs.max_support, rhs.max_support)
    assume(a < b and (s or t))
    for procedure in (levin_steckin_check, szostok_decision):
        assert _outcome(procedure, lhs, rhs, a, b) == _outcome(
            procedure, lhs, rhs, a - s, b + t
        )


def test_bounded_procedures_reject_like_references():
    lhs, rhs = spread_pair()
    for a, b in ((F(1), F(1)), (F(2), F(0)), (F(1, 2), F(2)), (F(0), F(3, 2))):
        assert_same_reports(lhs, rhs, a, b)
    assert_same_reports(dirac(0), bernoulli(HALF), F(0), F(1))


# ---------------------------------------------------------------------------
# One segment table per ordered pair, reused by consecutive calls
# ---------------------------------------------------------------------------


def _copy(law):
    """An equal law held by a distinct object."""
    return DiscreteDistribution._from_ints(*law.support_numerators, *law.mass_numerators)


PROCEDURES = {
    "oracle": (cx_compare_oracle, oracle_by_stop_loss_scan, False),
    "ohlin": (ohlin_check, ohlin_by_probes, False),
    "crossing": (crossing_points, crossing_points_by_cdf, False),
    "levin_steckin": (levin_steckin_check, levin_steckin_by_cdf_integrals, True),
    "szostok": (szostok_decision, szostok_by_cdf_segments, True),
}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    law_pairs(),
    st.lists(
        st.tuples(st.sampled_from(sorted(PROCEDURES)), st.booleans(), st.booleans()),
        min_size=1,
        max_size=12,
    ),
)
def test_reused_tables_give_fresh_reports(pair, calls):
    """Procedures in any order, both orientations interleaved and equal but
    distinct law objects: each report equals the one from an empty table
    cache and the reference report."""
    lhs, rhs = pair
    a = min(lhs.min_support, rhs.min_support)
    b = max(lhs.max_support, rhs.max_support) + 1
    for name, reverse, copied in calls:
        procedure, reference, bounded = PROCEDURES[name]
        x, y = (rhs, lhs) if reverse else (lhs, rhs)
        if copied:
            x, y = _copy(x), _copy(y)
            assert x is not lhs and x is not rhs and x in (lhs, rhs)
        args = (x, y, a, b) if bounded else (x, y)
        warm = _outcome(procedure, *args)
        _segments.cache_clear()
        assert warm == _outcome(procedure, *args) == _outcome(reference, *args)


def test_compare_large_calls_build_two_tables():
    """The four procedures on both orientations of one Poisson-binomial and
    binomial pair, in the benchmark's order, build one table per orientation."""
    ps = [F(1 + i % 6, 7 + i % 5) for i in range(60)]
    pb = poisson_binomial(ps)
    bn = binomial(60, sum(ps, F(0)) / 60)
    _segments.cache_clear()
    for lhs, rhs in ((pb, bn), (bn, pb)):
        cx_compare_oracle(lhs, rhs)
        levin_steckin_check(lhs, rhs, F(0), F(60))
        szostok_decision(lhs, rhs, F(0), F(60))
        ohlin_check(lhs, rhs)
    info = _segments.cache_info()
    assert (info.misses, info.hits) == (2, 6)
