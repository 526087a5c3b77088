"""Test fixtures that build inputs for the library: a law as the text a
distribution file holds, and seeded random laws for property corpora.

Unlike ``oracles``, nothing here is a reference computation to check the
library against; these only produce inputs.
"""

from __future__ import annotations

import random

from convexorder import DiscreteDistribution
from convexorder.randomgen import _as_distribution, _check_sizes, _random_atoms


def distribution_to_text(d: DiscreteDistribution) -> str:
    """The law in the text format ``parse_distribution`` reads, one atom a line."""
    return "\n".join(f"{s} {m}" for s, m in d.atoms) + "\n"


def random_weighted_distribution(
    rng: random.Random,
    max_support: int = 10,
    max_total: int = 12,
    max_atoms: int = 5,
) -> DiscreteDistribution:
    """Random distribution on {0..max_support} with weights over a small total."""
    _check_sizes(max_support, max_total, max_atoms)
    total = rng.randint(2, max_total)
    supports, weights = _random_atoms(rng, max_support, total, max_atoms)
    return _as_distribution(supports, weights, total)
