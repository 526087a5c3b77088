import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexorder import (
    Affine,
    Angle,
    Monomial,
    ParameterError,
    PiecewiseLinear,
    binomial,
    expectation,
    random_piecewise_linear,
    builtin_family,
)


def test_angle_evaluation():
    f = Angle(F(1, 2))
    assert f(F(1, 4)) == 0
    assert f(F(1, 2)) == 0
    assert f(F(3, 4)) == F(1, 4)
    assert f(F(-3)) == 0


def test_monomial_evaluation_and_validation():
    assert Monomial(2)(F(-2, 3)) == F(4, 9)
    assert Monomial(4)(F(1, 2)) == F(1, 16)
    with pytest.raises(ParameterError):
        Monomial(3)
    with pytest.raises(ParameterError):
        Monomial(0)


def test_affine_evaluation():
    f = Affine(F(1), F(-2))
    assert f(F(1, 2)) == 0
    assert f(F(2)) == -3


def test_piecewise_linear_hand_values():
    f = PiecewiseLinear(F(0), (F(1, 2),), (F(-1), F(2)))
    assert f(F(0)) == 0
    assert f(F(1, 4)) == F(-1, 4)
    assert f(F(1, 2)) == F(-1, 2)
    assert f(F(3, 4)) == 0
    assert f(F(1)) == F(1, 2)
    assert f(F(-1)) == 1  # slope -1 extends left of all breakpoints


def test_piecewise_linear_multiple_breaks():
    f = PiecewiseLinear(F(1), (F(1, 3), F(2, 3)), (F(0), F(1), F(3)))
    assert f(F(1, 3)) == 1
    assert f(F(1, 2)) == 1 + F(1, 6)
    assert f(F(1)) == 1 + F(1, 3) + 3 * F(1, 3)


@st.composite
def convex_piecewise_linear(draw):
    """Breakpoints on both sides of 0 and nondecreasing slopes."""
    points = st.fractions(min_value=-3, max_value=3, max_denominator=9)
    breaks = sorted(draw(st.lists(points, min_size=1, max_size=4, unique=True)))
    slopes = [draw(st.fractions(min_value=-5, max_value=5, max_denominator=7))]
    steps = st.fractions(min_value=0, max_value=4, max_denominator=5)
    for _ in breaks:
        slopes.append(slopes[-1] + draw(steps))
    return PiecewiseLinear(draw(points), tuple(breaks), tuple(slopes))


@settings(max_examples=300, derandomize=True)
@given(convex_piecewise_linear(), st.data())
def test_piecewise_linear_anchor_and_piece_slopes(f, data):
    """f(0) is the anchor and every piece's difference quotient is its slope."""
    assert f(F(0)) == f.value_at_zero
    edges = [f.breakpoints[0] - 2, *f.breakpoints, f.breakpoints[-1] + 2]
    share = st.fractions(min_value=0, max_value=1, max_denominator=11)
    for left, right, slope in zip(edges, edges[1:], f.slopes):
        x, y = (left + data.draw(share) * (right - left) for _ in range(2))
        if x != y:
            assert (f(y) - f(x)) / (y - x) == slope


def test_piecewise_linear_validation():
    with pytest.raises(ParameterError):
        PiecewiseLinear(F(0), (F(1, 2),), (F(2), F(1)))  # slopes decrease
    with pytest.raises(ParameterError):
        PiecewiseLinear(F(0), (F(2, 3), F(1, 3)), (F(0), F(1), F(2)))
    with pytest.raises(ParameterError):
        PiecewiseLinear(F(0), (F(1, 2),), (F(1),))  # wrong slope count


@settings(max_examples=100, derandomize=True)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.fractions(min_value=-2, max_value=3, max_denominator=24),
    st.fractions(min_value=-2, max_value=3, max_denominator=24),
)
def test_random_pwl_midpoint_convexity(seed, a, b):
    f = random_piecewise_linear(random.Random(seed))
    mid = (a + b) / 2
    assert 2 * f(mid) <= f(a) + f(b)


def test_random_pwl_deterministic_by_seed():
    assert random_piecewise_linear(random.Random(7)) == random_piecewise_linear(
        random.Random(7)
    )


def test_expectation_exact():
    d = binomial(2, F(1, 2))
    assert expectation(d, Monomial(2)) == F(1, 4) * 0 + F(1, 2) * 1 + F(1, 4) * 4
    assert expectation(d, Angle(F(1))) == F(1, 4)


def test_family_composition():
    fam = builtin_family(4, random_count=3, seed=11)
    angles = [f for f in fam if isinstance(f, Angle)]
    assert [f.c for f in angles] == [F(k, 4) for k in range(5)]
    assert sum(isinstance(f, Monomial) for f in fam) == 3
    assert sum(isinstance(f, Affine) for f in fam) == 1
    assert sum(isinstance(f, PiecewiseLinear) for f in fam) == 3
    assert fam == builtin_family(4, random_count=3, seed=11)
    assert fam != builtin_family(4, random_count=3, seed=12)


def test_family_groups_select_in_family_order():
    fam = builtin_family(4, random_count=3, seed=11)
    assert builtin_family(4, groups=("angles",)) == fam[:5]
    assert builtin_family(4, groups=("affine", "monomials")) == fam[5:9]
    assert builtin_family(4, groups=("random-pwl",), random_count=3, seed=11) == fam[9:]
    assert builtin_family(4, groups=()) == ()


def anchored_angles(f: PiecewiseLinear, t):
    """f(0) + s_0 t + sum_i (s_{i+1} - s_i) (max(t - b_i, 0) - max(-b_i, 0)):
    the definition, one anchored angle per breakpoint."""
    value = f.value_at_zero + f.slopes[0] * t
    for b, s, s_next in zip(f.breakpoints, f.slopes, f.slopes[1:]):
        value += (s_next - s) * (max(t - b, 0) - max(-b, 0))
    return value


rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def piecewise_linear(draw):
    """Breakpoints anywhere on the line, on both sides of 0, and
    nondecreasing slopes with equal neighbours allowed."""
    breakpoints = tuple(sorted(draw(st.sets(rationals, max_size=5))))
    slopes = [draw(rationals)]
    for _ in breakpoints:
        slopes.append(slopes[-1] + draw(st.builds(F, st.integers(0, 9), st.integers(1, 6))))
    return PiecewiseLinear(draw(rationals), breakpoints, tuple(slopes))


@settings(max_examples=300, deadline=None)
@given(f=piecewise_linear(), ts=st.lists(rationals, max_size=6))
def test_piecewise_linear_equals_anchored_angles(f, ts):
    for t in [*ts, *f.breakpoints, F(0)]:
        assert f(t) == anchored_angles(f, t), (f, t)
    for k in range(9):
        assert f(F(k, 8)) == anchored_angles(f, F(k, 8))
    same = PiecewiseLinear(f.value_at_zero, f.breakpoints, f.slopes)
    assert same == f and hash(same) == hash(f) and repr(same) == repr(f)
    assert "_intercepts" not in repr(f)
