import random

import pytest

from convexorder import ParameterError, random_equal_mean_pair, random_probability
from helpers import random_weighted_distribution


def test_random_probability_interior_and_bounded():
    rng = random.Random(1)
    for _ in range(500):
        p = random_probability(rng, 20)
        assert 0 < p < 1
        assert p.denominator <= 20


def test_random_distribution_shape():
    rng = random.Random(2)
    for _ in range(300):
        d = random_weighted_distribution(rng, max_support=10, max_total=12)
        assert 0 <= d.min_support and d.max_support <= 10
        assert all(s.denominator == 1 for s in d.support)
        assert all(m.denominator <= 12 for m in d.masses)
        assert sum(d.masses) == 1


def test_equal_mean_pairs():
    rng = random.Random(3)
    for _ in range(300):
        lhs, rhs = random_equal_mean_pair(rng)
        assert lhs.mean() == rhs.mean()
        for d in (lhs, rhs):
            assert all(m.denominator <= 12 for m in d.masses)
            assert 0 <= d.min_support and d.max_support <= 10


def test_seed_determinism():
    a = random_equal_mean_pair(random.Random(99))
    b = random_equal_mean_pair(random.Random(99))
    assert a == b
    c = random_weighted_distribution(random.Random(5))
    d = random_weighted_distribution(random.Random(5))
    assert c == d


@pytest.mark.parametrize(
    "options",
    [
        {"max_support": 0},
        {"max_support": -3},
        {"max_total": 1},
        {"max_atoms": 1},
        {"max_atoms": 0},
    ],
)
def test_sizes_validated_up_front(options):
    for draw in (random_equal_mean_pair, random_weighted_distribution):
        with pytest.raises(ParameterError):
            draw(random.Random(0), **options)


def test_equal_mean_pair_needs_attempts():
    with pytest.raises(ParameterError):
        random_equal_mean_pair(random.Random(0), attempts_per_target=0)


def test_smallest_valid_sizes_draw():
    lhs, rhs = random_equal_mean_pair(
        random.Random(4), max_support=1, max_total=2, max_atoms=2
    )
    assert lhs.support == rhs.support == (0, 1)
