"""Seeded random distributions for property corpora and scan commands.

Masses are built as integer weights over a common total, so the reduced
denominators stay within the requested bound and every draw is reproducible
from the generator state alone.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .distributions import DiscreteDistribution, ParameterError

__all__ = [
    "random_probability",
    "random_equal_mean_pair",
]


def random_probability(rng: random.Random, max_den: int = 20) -> Fraction:
    """A random rational strictly inside (0, 1) with denominator <= max_den."""
    if max_den < 2:
        raise ParameterError("max_den must be >= 2")
    den = rng.randint(2, max_den)
    num = rng.randint(1, den - 1)
    return Fraction(num, den)


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Random composition of `total` into `parts` positive integers."""
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0] + cuts + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def _check_sizes(max_support: int, max_total: int, max_atoms: int) -> None:
    """Every draw needs two support points, a weight total of 2 and two atoms."""
    if max_support < 1:
        raise ParameterError(f"max_support must be >= 1, got {max_support}")
    if max_total < 2:
        raise ParameterError(f"max_total must be >= 2, got {max_total}")
    if max_atoms < 2:
        raise ParameterError(f"max_atoms must be >= 2, got {max_atoms}")


def _random_atoms(
    rng: random.Random, max_support: int, total: int, max_atoms: int
) -> tuple[list[int], list[int]]:
    k = rng.randint(2, max(2, min(max_atoms, total, max_support + 1)))
    supports = sorted(rng.sample(range(max_support + 1), k))
    weights = _composition(rng, total, k)
    return supports, weights


def _as_distribution(supports: list[int], weights: list[int], total: int):
    """The law with mass w / total at each support s: the supports are sorted
    and distinct, and the weights positive with sum ``total``."""
    return DiscreteDistribution._from_ints(supports, 1, weights, total)


def random_equal_mean_pair(
    rng: random.Random,
    max_support: int = 10,
    max_total: int = 12,
    max_atoms: int = 5,
    attempts_per_target: int = 400,
) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """Two random distributions with exactly equal means.

    The first draw fixes a weight total T and a weighted support sum W; the
    second is rejection-sampled over the same total until its weighted sum
    matches, which forces mean equality exactly (both means are W / T).
    """
    _check_sizes(max_support, max_total, max_atoms)
    if attempts_per_target < 1:
        raise ParameterError(
            f"attempts_per_target must be >= 1, got {attempts_per_target}"
        )
    while True:
        total = rng.randint(2, max_total)
        supports, weights = _random_atoms(rng, max_support, total, max_atoms)
        target_sum = sum(w * s for w, s in zip(weights, supports))
        for _ in range(attempts_per_target):
            cand_supports, cand_weights = _random_atoms(
                rng, max_support, total, max_atoms
            )
            if sum(w * s for w, s in zip(cand_weights, cand_supports)) == target_sum:
                return (
                    _as_distribution(supports, weights, total),
                    _as_distribution(cand_supports, cand_weights, total),
                )
