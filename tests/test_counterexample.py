from fractions import Fraction as F

from convexorder import (
    Angle,
    DiscreteDistribution,
    analyze_counterexample,
    build_counterexample,
    cx_compare_oracle,
    expectation,
    levin_steckin_check,
    szostok_decision,
)
from convexorder.cli import report_data
from oracles import cdf_integral_by_midpoints


def test_exact_laws():
    lhs, rhs = build_counterexample()
    assert lhs == DiscreteDistribution.from_pairs(
        [(s, F(1, 4)) for s in (1, 3, 5, 7)]
    )
    assert rhs == DiscreteDistribution.from_pairs(
        [(0, F(1, 8)), (2, F(1, 8)), (4, F(1, 2)), (6, F(1, 8)), (8, F(1, 8))]
    )
    assert lhs.mean() == rhs.mean() == 4


def test_report_values():
    report = analyze_counterexample()
    assert report.sign_change_points == (F(1), F(4), F(7))
    assert report.areas == (F(1, 8), F(3, 8), F(3, 8), F(1, 8))
    assert report.szostok_decision is False
    assert report.oracle_verdict.holds is False
    assert report.oracle_verdict.witness == 4


def test_witness_function_certifies_strict_violation():
    report = analyze_counterexample()
    f = report.witness_function
    assert isinstance(f, Angle) and f.c == 4
    assert expectation(report.lhs, f) == 1
    assert expectation(report.rhs, f) == F(3, 4)


def test_total_integral_of_difference_vanishes():
    lhs, rhs = build_counterexample()
    assert cdf_integral_by_midpoints(rhs, F(0), F(8)) == cdf_integral_by_midpoints(
        lhs, F(0), F(8)
    )


def test_difference_nonnegative_on_first_segment():
    lhs, rhs = build_counterexample()
    for x in (F(1, 8), F(1, 2), F(7, 8)):
        assert rhs.cdf(x) - lhs.cdf(x) >= 0


def test_three_procedures_agree_on_failure():
    lhs, rhs = build_counterexample()
    assert not szostok_decision(lhs, rhs, F(0), F(8)).decision
    assert not levin_steckin_check(lhs, rhs, F(0), F(8)).holds
    assert not cx_compare_oracle(lhs, rhs).holds


def test_report_serializes():
    obj = report_data(analyze_counterexample())
    assert obj["areas"] == ["1/8", "3/8", "3/8", "1/8"]
    assert obj["sign_change_points"] == ["1", "4", "7"]
    assert obj["szostok_decision"] is False
    assert obj["oracle_verdict"]["holds"] is False
    assert obj["witness_function"] == "angle(4)"
