"""Tests of the packed route: sweep points decided on Kronecker-packed ints.

``lattice._packed_gaps`` packs a point's three gaps, each reversed, in slots
of one width, and ``_Packing.holds`` reads a relation from one of them.
Both are checked against the list route, ``lattice.point_from_pairs`` and
``lattice._holds``: the sign reader on arbitrary signed vectors, the width
rule on hypothesis points, and both routes at every point of the benchmark
grids and on samples of the deep and wide grids, where every relation holds,
so that the reversed relations, read from the negated gaps, give the
failing verdicts.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexorder import lattice, sweep
from convexorder.exact import binomial_numerators
from convexorder.sweep import RunConfig, farey_fractions, grid_tasks, run_sweep


def pack(entries, width):
    """``entries[j]`` in the slot len(entries) - 1 - j of ``width`` bits."""
    top = len(entries) - 1
    return sum(e << (width * (top - j)) for j, e in enumerate(entries))


def unpack(packed, packing, mn):
    """The entries at 0..mn of a packed vector, read through the bias."""
    width = packing.width
    biased = packed + packing.bias
    return [
        ((biased >> (width * (mn - j))) & ((1 << width) - 1)) - (1 << (width - 1))
        for j in range(mn + 1)
    ]


def block_packing(n, m, max_den):
    """The packing of a sweep block of (n, m) with denominators up to
    ``max_den``, also where the sweep takes the list route instead."""
    mn = m * n
    packing = lattice._packing(mn, 2 * mn * (m * math.perm(max_den, min(m, max_den))) ** mn)
    assert lattice._point_packing(n, m, max_den) in (None, packing)
    return packing


def packed_point(n, pairs, packing):
    """``lattice._packed_gaps`` on the parts a packed sweep block builds."""
    mn = len(pairs) * n
    return lattice._packed_gaps(n, pairs, [packing.law(mn, p, q) for p, q in pairs], packing)


@st.composite
def signed_vectors(draw):
    """(width, entries, junk): 1 to 64 entries of magnitude below
    2^(width - 1), the bound drawn often, and an int above the top slot."""
    width = draw(st.integers(1, 80))
    top = 2 ** (width - 1) - 1
    one = min(1, top)
    entry = st.one_of(st.sampled_from([0, top, -top, one, -one]), st.integers(-top, top))
    entries = draw(st.lists(entry, min_size=1, max_size=64))
    if draw(st.booleans()):
        # A vector that holds or nearly does: mean gap 0, the rest >= 0
        # but perhaps one entry.
        entries = [0] + [abs(e) for e in entries[1:]]
        if len(entries) > 1 and draw(st.booleans()):
            index = draw(st.integers(1, len(entries) - 1))
            entries[index] = -draw(st.integers(one, top))
    return width, entries, draw(st.integers(-(2**200), 2**200))


@settings(max_examples=500, deadline=None)
@given(case=signed_vectors())
def test_sign_reader_is_holds(case):
    width, entries, junk = case
    mn = len(entries) - 1
    packing = lattice._packing(mn, 2 ** (width - 1) - 1)
    packed = pack(entries, packing.width) + (junk << (packing.width * (mn + 1)))
    assert packing.holds(packed) == lattice._holds(entries), case
    assert unpack(packed, packing, mn) == entries


@pytest.mark.parametrize("length", [1, 2, 3, 10, 64])
@pytest.mark.parametrize("width", [2, 3, 57, 221])
def test_sign_reader_reads_every_slot(length, width):
    """A lone negative entry at every index fails, and so does a nonzero
    mean gap with every other entry >= 0; the bound itself is read right."""
    top = 2 ** (width - 1) - 1
    packing = lattice._packing(length - 1, top)
    rng = random.Random(length * width)
    for others in ([0] * length, [top] * length, [rng.randint(0, top) for _ in range(length)]):
        for junk in (0, -1, 1, rng.randint(-(2**90), 2**90)):
            high = junk << (packing.width * length)
            holding = [0] + others[1:]
            assert packing.holds(pack(holding, width) + high)
            for index in range(length):
                for negative in (-1, -top):
                    entries = holding[:]
                    entries[index] = negative
                    assert not packing.holds(pack(entries, width) + high), (index, entries)
            for mean in (1, top):
                entries = [mean] + others[1:]
                assert not packing.holds(pack(entries, width) + high), entries


@st.composite
def width_points(draw):
    """(n, pairs): m = 2..4 parameters with q <= 8, the ends 0 and 1 drawn
    often, mixed denominators, and values repeated within the point."""
    value = st.integers(1, 8).flatmap(lambda q: st.integers(0, q).map(lambda p: F(p, q)))
    pool = draw(
        st.lists(st.one_of(st.sampled_from([F(0), F(1)]), value), min_size=1, max_size=4)
    )
    m = draw(st.integers(max(2, len(pool)), 4))
    more = m - len(pool)
    xs = pool + draw(st.lists(st.sampled_from(pool), min_size=more, max_size=more))
    return draw(st.integers(1, 4)), [(x.numerator, x.denominator) for x in xs]


@settings(max_examples=200, deadline=None)
@given(point=width_points())
def test_width_rule_bounds_every_gap(point):
    """Every gap of ``point_from_pairs``, and the form's sum, fits a slot of
    the width the sweep sets for the point's block, and the packed gaps hold
    the same integers."""
    n, pairs = point
    m = len(pairs)
    mn = m * n
    max_den = max(q for _, q in pairs)
    packing = block_packing(n, m, max_den)
    table = lattice.point_from_pairs(
        n, pairs, (binomial_numerators(mn, p, q) for p, q in pairs)
    )
    gaps = (table.sum_vs_pooled, table.pooled_vs_mixture, table.sum_vs_mixture)
    limit = 2 ** (packing.width - 1)
    assert all(abs(g) < limit for gap in gaps for g in gap), point
    assert abs(sum(table.form)) < limit
    *packed, balanced = packed_point(n, pairs, packing)
    assert [unpack(gap, packing, mn) for gap in packed] == list(gaps), point
    assert balanced == (sum(table.form) == 0)


def assert_routes_agree(n, pairs, packing) -> int:
    """The packed bools of (a), (b), (c) and of the form's sum, and of the
    reversed relations, equal the list route's; returns how many reversed
    relations hold."""
    mn = len(pairs) * n
    table = lattice.point_from_pairs(
        n, pairs, (binomial_numerators(mn, p, q) for p, q in pairs)
    )
    gaps = (table.sum_vs_pooled, table.pooled_vs_mixture, table.sum_vs_mixture)
    *packed, balanced = packed_point(n, pairs, packing)
    assert balanced == (sum(table.form) == 0), (n, pairs)
    reversed_holding = 0
    for gap, listed in zip(packed, gaps):
        assert packing.holds(gap) == lattice._holds(listed), (n, pairs)
        negated = [-g for g in listed]
        assert packing.holds(-gap) == lattice._holds(negated), (n, pairs)
        reversed_holding += lattice._holds(negated)
    return reversed_holding


@pytest.mark.parametrize(
    "n_values, m, denominator, count",
    [
        # The two sweep workloads, every point.
        (range(1, 5), 2, 7, None),
        (range(1, 4), 3, 5, None),
        # The deep and wide grids, seeded samples.
        (range(10, 13), 2, 16, 150),
        (range(1, 5), 3, 12, 150),
    ],
    ids=["sweep-m2", "sweep-m3", "deep", "wide"],
)
def test_routes_agree_on_grid_points(n_values, m, denominator, count):
    config = RunConfig(n_values=n_values, m_values=(m,), denominator=denominator)
    tasks = grid_tasks(config)
    if count is not None:
        tasks = random.Random(2016).sample(tasks, count)
    packings = {}
    decided = reversed_holding = 0
    for n, _, xs in tasks:
        if n not in packings:
            packings[n] = block_packing(n, m, denominator)
        pairs = [(x.numerator, x.denominator) for x in xs]
        reversed_holding += assert_routes_agree(n, pairs, packings[n])
        decided += 3
    # Every relation holds at every grid point, so a reversed relation holds
    # only where its gap is 0 throughout, and that is not the rule.
    assert 0 < reversed_holding < decided


def test_dispatch_crosses_on_the_pinned_grids():
    """Which blocks the pinned grids pack: the benchmark grids and the wide
    grid throughout, the deep grid at n = 10 only, the grid pinned across
    the crossover at n = 11..13 of 11..16, and the long lattices never."""
    packed = {
        (n, m, denominator): lattice._point_packing(n, m, denominator) is not None
        for n_values, m, denominator in (
            (range(1, 5), 2, 7),
            (range(1, 4), 3, 5),
            (range(1, 5), 3, 12),
            (range(10, 13), 2, 16),
            (range(11, 17), 2, 5),
            ((150,), 2, 5),
            ((40,), 3, 3),
            ((299, 300), 2, 5),
        )
        for n in n_values
    }
    assert [key for key, value in packed.items() if not value] == [
        (11, 2, 16), (12, 2, 16), (14, 2, 5), (15, 2, 5), (16, 2, 5), (150, 2, 5),
        (40, 3, 3), (299, 2, 5), (300, 2, 5),
    ]


def test_list_laws_only_for_rows_that_read_them(monkeypatch):
    """A packed block builds no list law, and a row that falls back to the
    list route builds its own m laws; without the angles every block takes
    the list route and builds each value's law once."""
    laws = []
    build_law = sweep.binomial_numerators

    def counting_law(n, p, q):
        laws.append((n, p, q))
        return build_law(n, p, q)

    monkeypatch.setattr(sweep, "binomial_numerators", counting_law)
    config = RunConfig(n_values=(1, 2), m_values=(2, 3), denominator=3)
    honest_rows, ok = run_sweep(config)
    assert ok and laws == []
    honest_gaps = sweep._packed_gaps

    def unbalanced_gaps(n, pairs, parts, packing):
        """The first row of the block n = 2, m = 3, whose parameters are all
        0, reads its form's sum as nonzero."""
        gap_a, gap_b, gap_c, balanced = honest_gaps(n, pairs, parts, packing)
        first = (n, len(pairs)) == (2, 3) and all(p == 0 for p, _ in pairs)
        return gap_a, gap_b, gap_c, balanced and not first

    monkeypatch.setattr(sweep, "_packed_gaps", unbalanced_gaps)
    assert run_sweep(config) == (honest_rows, True)
    assert laws == [(6, 0, 1)] * 3
    laws.clear()
    no_angles = RunConfig(
        n_values=(1, 2), m_values=(2, 3), denominator=3,
        functions=("monomials", "affine", "random-pwl"),
    )
    run_sweep(no_angles)
    values = len(farey_fractions(3))
    assert len(laws) == len(set(laws)) == 4 * values
