import json
import math
import time
from fractions import Fraction as F
from functools import reduce
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexorder import distributions, exact, lawtext
from convexorder import (
    DiscreteDistribution,
    MAX_ATOMS,
    MAX_LAW_BITS,
    MAX_RATIONAL_DIGITS,
    FormatError,
    ParameterError,
    as_rational,
    bernoulli,
    binomial,
    convolve,
    convolve_many,
    dirac,
    distribution_to_json_obj,
    mixture,
    parse_distribution,
)
from helpers import distribution_to_text
from oracles import (
    binomial_by_fractions,
    cdf_by_atoms,
    cdf_right_by_atoms,
    convolve_by_fractions,
    mass_at_by_atoms,
    mean_by_atoms,
    mixture_by_fractions,
    stop_loss_by_atoms,
    stop_loss_by_survival_integral,
)

HALF = F(1, 2)


@st.composite
def weighted_distributions(draw, max_support=10, max_weight=8):
    k = draw(st.integers(min_value=1, max_value=4))
    supports = draw(
        st.lists(
            st.integers(0, max_support), min_size=k, max_size=k, unique=True
        )
    )
    weights = draw(st.lists(st.integers(1, max_weight), min_size=k, max_size=k))
    total = sum(weights)
    return DiscreteDistribution.from_pairs(
        [(F(s), F(w, total)) for s, w in zip(supports, weights)]
    )


class TestConstructors:
    def test_dirac_single_atom(self):
        assert dirac(0).atoms == ((F(0), F(1)),)
        assert dirac(F(-5, 2)).mean() == F(-5, 2)

    def test_dirac_cdf_left_continuous_at_atom(self):
        d = dirac(HALF)
        assert d.cdf(HALF) == 0
        assert d.cdf(1) == 1

    def test_dirac_integer(self):
        assert dirac(3).atoms == ((F(3), F(1)),)
        assert dirac(3).mean() == 3

    def test_bernoulli_interior(self):
        assert bernoulli(F(1, 3)).atoms == ((F(0), F(2, 3)), (F(1), F(1, 3)))

    def test_bernoulli_degenerate(self):
        assert bernoulli(0) == dirac(0)
        assert bernoulli(1) == dirac(1)

    def test_bernoulli_mean(self):
        assert bernoulli(F(3, 7)).mean() == F(3, 7)

    def test_bernoulli_range_error(self):
        with pytest.raises(ParameterError):
            bernoulli(F(3, 2))
        with pytest.raises(ParameterError):
            bernoulli(F(-1, 2))

    def test_binomial_expansion(self):
        assert binomial(2, HALF).atoms == (
            (F(0), F(1, 4)),
            (F(1), HALF),
            (F(2), F(1, 4)),
        )

    def test_binomial_mean_np(self):
        assert binomial(5, F(2, 3)).mean() == F(10, 3)

    def test_binomial_boundary_degenerates(self):
        assert binomial(3, 1) == dirac(3)
        assert binomial(3, 0) == dirac(0)

    def test_binomial_invalid(self):
        with pytest.raises(ParameterError):
            binomial(0, HALF)
        with pytest.raises(ParameterError):
            binomial(2, F(7, 5))

    def test_validation_rejects_bad_atoms(self):
        with pytest.raises(ParameterError):
            DiscreteDistribution(((F(1), HALF), (F(0), HALF)))
        with pytest.raises(ParameterError):
            DiscreteDistribution(((F(0), F(0)), (F(1), F(1))))
        with pytest.raises(ParameterError):
            DiscreteDistribution(((F(0), F(1, 3)),))

    def test_from_pairs_merges_and_sorts(self):
        d = DiscreteDistribution.from_pairs([(2, F(1, 4)), (0, HALF), (2, F(1, 4))])
        assert d.atoms == ((F(0), HALF), (F(2), HALF))


class TestAlgebra:
    def test_convolve_four_atom_pair(self):
        x = mixture([HALF, HALF], [dirac(1), dirac(3)])
        y = mixture([HALF, HALF], [dirac(0), dirac(4)])
        expected = DiscreteDistribution.from_pairs(
            [(s, F(1, 4)) for s in (1, 3, 5, 7)]
        )
        assert convolve(x, y) == expected

    def test_convolve_binomials_same_parameter(self):
        assert convolve(binomial(2, F(1, 3)), binomial(2, F(1, 3))) == binomial(
            4, F(1, 3)
        )

    def test_convolve_identity(self):
        d = binomial(3, F(2, 5))
        assert convolve(d, dirac(0)) == d

    def test_mixture_four_atom_pair(self):
        x = mixture([HALF, HALF], [dirac(1), dirac(3)])
        y = mixture([HALF, HALF], [dirac(0), dirac(4)])
        z = mixture([HALF, HALF], [convolve(x, x), convolve(y, y)])
        expected = DiscreteDistribution.from_pairs(
            [(0, F(1, 8)), (2, F(1, 8)), (4, HALF), (6, F(1, 8)), (8, F(1, 8))]
        )
        assert z == expected

    def test_mixture_identity_and_idempotence(self):
        d = binomial(2, F(1, 3))
        assert mixture([F(1)], [d]) == d
        assert mixture([HALF, HALF], [d, d]) == d

    def test_mixture_errors(self):
        d = dirac(0)
        with pytest.raises(ParameterError):
            mixture([HALF], [d, d])
        with pytest.raises(ParameterError):
            mixture([HALF, F(1, 3)], [d, dirac(1)])
        with pytest.raises(ParameterError):
            mixture([F(3, 2), F(-1, 2)], [d, dirac(1)])

    def test_mean_examples(self):
        assert binomial(4, F(1, 4)).mean() == 1
        a, b = binomial(2, F(1, 3)), dirac(2)
        assert convolve(a, b).mean() == a.mean() + b.mean() == F(8, 3)


class TestCdfAndStopLoss:
    def test_cdf_examples(self):
        d = binomial(2, HALF)
        assert d.cdf(1) == F(1, 4)
        assert d.cdf(d.min_support) == 0
        assert binomial(3, HALF).cdf(4) == 1

    def test_cdf_left_continuity(self):
        d = binomial(2, HALF)
        assert d.cdf(1) == F(1, 4)  # excludes the atom at 1
        assert d.cdf(F(3, 2)) == F(3, 4)  # includes it
        assert d.cdf_right(1) == F(3, 4)

    def test_stop_loss_examples(self):
        assert binomial(2, HALF).stop_loss(1) == F(1, 4)
        d = binomial(2, F(1, 3))
        assert d.stop_loss(0) == d.mean() == F(2, 3)
        assert d.stop_loss(2) == 0
        assert d.stop_loss(5) == 0

    @settings(max_examples=60, derandomize=True)
    @given(weighted_distributions(), st.fractions(min_value=-1, max_value=11))
    def test_stop_loss_matches_survival_integral(self, d, t):
        assert d.stop_loss(t) == stop_loss_by_survival_integral(d, t)

    @settings(max_examples=60, derandomize=True)
    @given(weighted_distributions())
    def test_stop_loss_piecewise_linear_convex(self, d):
        # slope of E(X - t)+ between consecutive support points is
        # -(mass above), nondecreasing from -1 towards 0
        pts = d.support
        slopes = []
        for left, right in zip(pts, pts[1:]):
            slopes.append((d.stop_loss(right) - d.stop_loss(left)) / (right - left))
        assert all(-1 <= s <= 0 for s in slopes)
        assert all(a <= b for a, b in zip(slopes, slopes[1:]))


class TestAlgebraicInvariants:
    @settings(max_examples=60, derandomize=True)
    @given(weighted_distributions(), weighted_distributions())
    def test_convolve_commutative(self, a, b):
        assert convolve(a, b) == convolve(b, a)

    @settings(max_examples=40, derandomize=True)
    @given(
        weighted_distributions(), weighted_distributions(), weighted_distributions()
    )
    def test_convolve_associative(self, a, b, c):
        assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))

    @settings(max_examples=20, derandomize=True)
    @given(
        st.integers(min_value=1, max_value=8),
        st.fractions(min_value=0, max_value=1, max_denominator=9),
    )
    def test_binomial_is_iterated_bernoulli(self, n, p):
        assert convolve_many([bernoulli(p)] * n) == binomial(n, p)

    @settings(max_examples=40, derandomize=True)
    @given(weighted_distributions(), weighted_distributions(), st.integers(1, 7))
    def test_mixture_mean_is_weighted_mean(self, a, b, w_num):
        w = F(w_num, 8)
        mixed = mixture([w, 1 - w], [a, b])
        assert mixed.mean() == w * a.mean() + (1 - w) * b.mean()

    @settings(max_examples=60, derandomize=True)
    @given(weighted_distributions())
    def test_canonical_form(self, d):
        assert sum(d.masses) == 1
        assert all(m > 0 for m in d.masses)
        assert all(a < b for a, b in zip(d.support, d.support[1:]))


class TestStepCdf:
    """The step function F(x) = P(X < x) through the distribution's methods."""

    def test_step_values_and_jumps(self):
        d = binomial(2, HALF)
        assert d.cdf(0) == 0  # zero at and below min support
        assert d.cdf(-3) == 0
        assert d.cdf(1) == F(1, 4)
        assert d.cdf(F(5, 2)) == 1  # one above max support
        assert d.cdf_right(1) == F(3, 4)
        assert d.mass_at(1) == HALF
        assert d.mass_at(F(1, 2)) == 0

    def test_nondecreasing_on_probes(self):
        d = binomial(3, F(2, 5))
        probes = [F(k, 4) for k in range(-2, 16)]
        values = [d.cdf(x) for x in probes]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_exact_integral(self):
        d = binomial(2, HALF)
        # F is 0 on (.,0], 1/4 on (0,1], 3/4 on (1,2]; the integral of F
        # over [a, x] is (x - a) + E(X - x)_+ - E(X - a)_+
        def integral(a, x):
            return (x - a) + d.stop_loss(x) - d.stop_loss(a)

        assert integral(F(0), F(2)) == 1
        assert integral(F(0), F(3, 2)) == F(1, 4) + HALF * F(3, 4)


class TestFormats:
    def test_text_round_trip(self):
        d = binomial(3, F(2, 5))
        assert parse_distribution(distribution_to_text(d)) == d

    def test_text_comments_and_unsorted(self):
        text = "# a comment\n2 1/4  # trailing\n0 1/2\n\n1 1/4\n"
        d = parse_distribution(text)
        assert d.support == (F(0), F(1), F(2))

    def test_json_round_trip(self):
        d = binomial(3, F(2, 5))
        import json

        assert parse_distribution(json.dumps(distribution_to_json_obj(d))) == d

    def test_json_accepts_integers(self):
        d = parse_distribution('{"atoms": [[0, "1/2"], ["1", "1/2"]]}')
        assert d == mixture([HALF, HALF], [dirac(0), dirac(1)])

    def test_rejects_floats(self):
        with pytest.raises(FormatError):
            parse_distribution('{"atoms": [[0, 0.5], [1, 0.5]]}')
        with pytest.raises(FormatError):
            as_rational(0.5)  # type: ignore[arg-type]

    def test_negative_mass_rejected_not_netted(self):
        with pytest.raises(FormatError, match=r"line 2: negative mass in '0 -1/2'"):
            parse_distribution("0 1\n0 -1/2\n1 1/2\n")
        entry = r"negative mass in atom entry \['0', '-1/2'\]"
        with pytest.raises(FormatError, match=entry):
            parse_distribution('{"atoms": [["0", "1"], ["0", "-1/2"], ["1", "1/2"]]}')
        with pytest.raises(ParameterError, match="mass -1/2 at 0 is negative"):
            DiscreteDistribution.from_pairs([(0, 1), (0, F(-1, 2)), (1, HALF)])

    def test_equal_supports_merge_and_zero_masses_add_nothing(self):
        d = parse_distribution("0 1/4\n1 0\n0 1/4\n2 1/2\n")
        assert d.atoms == ((F(0), HALF), (F(2), HALF))

    def test_rejects_bad_text(self):
        with pytest.raises(FormatError):
            parse_distribution("0 1/2 extra\n1 1/2\n")
        with pytest.raises(FormatError):
            parse_distribution("0 1/2\n1 1/3\n")  # masses sum to 5/6
        with pytest.raises(FormatError):
            parse_distribution("")

    def test_as_rational_strings(self):
        assert as_rational("3/4") == F(3, 4)
        assert as_rational("-2") == -2
        with pytest.raises(FormatError):
            as_rational("1/0")


rational_points = st.fractions(min_value=-3, max_value=3, max_denominator=8)


@st.composite
def rational_distributions(draw, max_atoms=4):
    k = draw(st.integers(1, max_atoms))
    supports = draw(st.lists(rational_points, min_size=k, max_size=k, unique=True))
    masses = draw(
        st.lists(
            st.fractions(min_value=F(1, 13), max_value=1, max_denominator=13),
            min_size=k,
            max_size=k,
        )
    )
    total = sum(masses)
    return DiscreteDistribution.from_pairs(
        (s, m / total) for s, m in zip(supports, masses)
    )


class TestIntegerConvolution:
    @settings(max_examples=80, derandomize=True)
    @given(rational_distributions(), rational_distributions())
    def test_convolve_matches_fraction_route(self, a, b):
        assert convolve(a, b) == convolve_by_fractions(a, b)

    @settings(max_examples=40, derandomize=True)
    @given(st.lists(rational_distributions(max_atoms=3), min_size=1, max_size=4))
    def test_convolve_many_matches_pairwise_fraction_route(self, parts):
        expected = parts[0]
        for part in parts[1:]:
            expected = convolve_by_fractions(expected, part)
        assert convolve_many(parts) == expected

    @pytest.mark.parametrize(
        "sizes", [(1,), (2,), (3,), (1, 2), (2, 3), (3, 1, 2), (3, 3, 3), (1, 1, 2, 3)]
    )
    def test_convolve_many_parts_of_one_to_three_atoms(self, sizes):
        """Parts of 1, 2 and 3 atoms on supports over different denominators,
        so each part is stretched to the common scale before the fold."""
        shapes = {
            1: [(F(2, 3), F(1))],
            2: [(F(-1, 2), F(2, 5)), (F(5, 4), F(3, 5))],
            3: [(F(0), F(1, 6)), (F(1, 6), F(1, 2)), (F(7, 5), F(1, 3))],
        }
        parts = [
            DiscreteDistribution.from_pairs((s + i, m) for s, m in shapes[k])
            for i, k in enumerate(sizes)
        ]
        expected = parts[0]
        for part in parts[1:]:
            expected = convolve_by_fractions(expected, part)
        law = convolve_many(parts)
        assert law == expected
        assert law.atoms == expected.atoms

    @pytest.mark.parametrize(
        "nums, den, reduced",
        [
            ((2, 4), 6, ((1, 2), 3)),
            ((6, 9), 15, ((2, 3), 5)),
            ((4, 6, 2), 12, ((2, 3, 1), 6)),
            ((3, 5), 8, ((3, 5), 8)),
        ],
    )
    def test_mass_numerators_reduced_from_reducible_ints(self, nums, den, reduced):
        law = DiscreteDistribution._from_ints(range(len(nums)), 1, nums, den)
        assert law.mass_numerators == reduced
        assert law == DiscreteDistribution.from_pairs(
            (k, F(v, den)) for k, v in enumerate(nums)
        )

    def test_mass_numerators_over_least_common_denominator(self):
        d = DiscreteDistribution.from_pairs([(0, F(1, 6)), (1, F(1, 2)), (2, F(1, 3))])
        assert d.mass_numerators == ((1, 3, 2), 6)

    def test_sum_check_message(self):
        with pytest.raises(ParameterError, match="masses must sum to 1 exactly, got 5/6"):
            DiscreteDistribution(((F(0), F(1, 2)), (F(1), F(1, 3))))


def _thresholds(d, extra):
    """Points below, at, between and above the atoms, and one drawn point."""
    points = d.support
    return [
        points[0] - 1,
        math.floor(points[0]) - 2,
        *points,
        *((left + right) / 2 for left, right in zip(points, points[1:])),
        points[-1] + F(1, 3),
        extra,
    ]


@st.composite
def lattice_distributions(draw, max_atoms=4):
    """Laws on a few integers, so that many of their sums coincide."""
    k = draw(st.integers(1, max_atoms))
    supports = draw(st.lists(st.integers(-1, 2), min_size=k, max_size=k, unique=True))
    weights = draw(st.lists(st.integers(1, 30), min_size=k, max_size=k))
    return DiscreteDistribution.from_pairs(
        (s, F(w, sum(weights))) for s, w in zip(supports, weights)
    )


class TestIntHeldLaw:
    """The law held as ints against the Fraction routes in ``oracles``."""

    @settings(max_examples=150, derandomize=True)
    @given(rational_distributions(max_atoms=6), rational_points)
    def test_reads_match_fraction_routes(self, d, extra):
        assert d.mean() == mean_by_atoms(d)
        assert d.min_support == d.atoms[0][0]
        assert d.max_support == d.atoms[-1][0]
        for x in _thresholds(d, extra):
            assert d.stop_loss(x) == stop_loss_by_atoms(d, x)
            assert d.cdf(x) == cdf_by_atoms(d, x)
            assert d.cdf_right(x) == cdf_right_by_atoms(d, x)
            assert d.mass_at(x) == mass_at_by_atoms(d, x)

    @settings(max_examples=100, derandomize=True)
    @given(rational_distributions(max_atoms=6), st.integers(1, 12), st.integers(1, 12))
    def test_atoms_and_ints_build_equal_laws(self, d, k, j):
        (points, unit), (nums, den) = d.support_numerators, d.mass_numerators
        assert unit == math.lcm(*(s.denominator for s in d.support))
        assert den == math.lcm(*(m.denominator for m in d.masses))
        from_atoms = DiscreteDistribution(d.atoms)
        from_ints = DiscreteDistribution._from_ints(
            [p * k for p in points], unit * k, [v * j for v in nums], den * j
        )
        for law in (from_atoms, from_ints):
            assert law == d
            assert hash(law) == hash(d)
            assert law.support_numerators == d.support_numerators
            assert law.mass_numerators == d.mass_numerators
            assert law.atoms == d.atoms

    def test_int_constructor_checks(self):
        build = DiscreteDistribution._from_ints
        with pytest.raises(ParameterError, match="at least one atom"):
            build((), 1, (), 1)
        with pytest.raises(ParameterError, match="strictly increasing"):
            build((1, 1), 1, (1, 1), 2)
        with pytest.raises(ParameterError, match="mass at 1/2 must be positive"):
            build((1, 2), 2, (0, 1), 1)
        with pytest.raises(ParameterError, match="must sum to 1 exactly, got 5/6"):
            build((0, 1), 1, (3, 2), 6)
        with pytest.raises(ParameterError, match="atoms must hold Fraction values"):
            DiscreteDistribution(((0, F(1)),))
        with pytest.raises(ParameterError, match="at least one atom"):
            DiscreteDistribution(())

    @settings(max_examples=60, derandomize=True)
    @given(
        st.integers(1, 25),
        st.fractions(min_value=0, max_value=1, max_denominator=40),
    )
    def test_binomial_matches_fraction_route(self, n, p):
        d = binomial(n, p)
        expected = binomial_by_fractions(n, p)
        assert d == expected
        assert d.atoms == expected.atoms

    @settings(max_examples=60, derandomize=True)
    @given(
        st.lists(rational_distributions(max_atoms=3), min_size=1, max_size=4),
        st.lists(st.integers(1, 9), min_size=4, max_size=4),
    )
    def test_mixture_matches_fraction_route(self, parts, raw):
        weights = [F(w, sum(raw[: len(parts)])) for w in raw[: len(parts)]]
        assert mixture(weights, parts) == mixture_by_fractions(weights, parts)

    @settings(max_examples=60, derandomize=True)
    @given(st.lists(lattice_distributions(), min_size=1, max_size=6))
    def test_lattice_convolution_matches_fraction_route(self, parts):
        expected = parts[0]
        for part in parts[1:]:
            expected = convolve_by_fractions(expected, part)
        assert convolve_many(parts) == expected

    def test_poisson_binomial_matches_fraction_route(self):
        ps = [F(k % 7 + 1, k % 11 + 8) for k in range(40)]
        expected = bernoulli(ps[0])
        for p in ps[1:]:
            expected = convolve_by_fractions(expected, bernoulli(p))
        assert convolve_many([bernoulli(p) for p in ps]) == expected


def _law(*atoms):
    return DiscreteDistribution.from_pairs(atoms)


# Parts that leave holes in the lattice, step by more than 1, sit on
# negative or rational points, hold one atom, or lie far apart.
SHAPED_PARTS = [
    _law((0, F(1, 2)), (2, F(1, 3)), (5, F(1, 6))),
    _law((0, F(1, 4)), (2, F(3, 4))),
    _law((0, F(2, 5)), (4, F(3, 5))),
    _law((F(-3, 2), F(1, 3)), (F(1, 4), F(2, 3))),
    _law((F(-7, 3), F(1, 2)), (F(0), F(1, 4)), (F(5, 6), F(1, 4))),
    dirac(F(-5, 3)),
    dirac(4),
    _law((0, F(1, 3)), (10**6, F(2, 3))),
]

interior_probabilities = st.fractions(
    min_value=F(1, 20), max_value=F(19, 20), max_denominator=20
)


def _fraction_route(parts):
    """The sum by the pairwise Fraction route of ``oracles``."""
    return reduce(convolve_by_fractions, parts)


def _folded_packed(parts):
    """convolve_many(parts), and whether it took the packed fold."""
    with mock.patch.object(
        distributions, "_packed_fold", wraps=distributions._packed_fold
    ) as packed:
        law = convolve_many(parts)
    return law, packed.called


class TestPackedConvolution:
    """``convolve_many`` folds one packed int below ``MAX_PACKED_BYTES`` on
    lattices the parts' sums can fill, and a dict otherwise; both give the
    Fraction route's law."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        st.lists(interior_probabilities, max_size=60),
        st.lists(
            st.one_of(st.sampled_from(SHAPED_PARTS), rational_distributions(max_atoms=3)),
            max_size=2,
        ),
        st.randoms(use_true_random=False),
    )
    def test_matches_fraction_route(self, ps, shaped, rng):
        parts = [bernoulli(p) for p in ps] + shaped
        if not parts:
            parts = [SHAPED_PARTS[0]]
        rng.shuffle(parts)
        law = convolve_many(parts)
        expected = _fraction_route(parts)
        assert law == expected
        assert law.atoms == expected.atoms

    @pytest.mark.parametrize(
        "parts, packed",
        [
            ([bernoulli(F(1 + i % 6, 7 + i % 5)) for i in range(2)], True),
            ([bernoulli(F(1 + i % 6, 7 + i % 5)) for i in range(60)], True),
            ([SHAPED_PARTS[0]] * 2 + [bernoulli(F(1, 3))], True),
            (SHAPED_PARTS[1:3], True),
            (SHAPED_PARTS[1:3] * 2, True),
            ([SHAPED_PARTS[3]] * 4 + [dirac(F(-1, 6))], True),
            (SHAPED_PARTS[3:5] + [bernoulli(F(1, 3))] * 5, False),
            (SHAPED_PARTS[5:7], True),
            ([SHAPED_PARTS[0]], False),
            ([SHAPED_PARTS[0], _law((0, F(1, 2)), (40, F(1, 2)))], False),
            ([_law((0, F(1, 2)), (100, F(1, 2)))] * 50 + [bernoulli(F(1, 2))], False),
            ([bernoulli(F(1, 3)), _law((0, F(1, 2)), (60_000, F(1, 2)))], False),
            ([SHAPED_PARTS[7]] + [bernoulli(F(2, 7))] * 30, False),
        ],
    )
    def test_route_and_law(self, parts, packed):
        """Lattices under the bound take the packed fold, single atoms and
        an empty slot (9 in {0, 2, 5} twice plus {0, 1}) included.  A
        lattice with more points than the parts can have distinct sums
        takes the dict fold: one part with holes, 50 equal parts on
        {0, 100} with one Bernoulli law (5002 points, at most 102 sums),
        negative and rational parts (120 points, at most 36 sums), a far
        atom under the bound; far-apart supports pass the bound."""
        law, took_packed = _folded_packed(parts)
        expected = _fraction_route(parts)
        assert took_packed == packed
        assert law == expected
        assert law.atoms == expected.atoms

    @pytest.mark.parametrize("n, packed", [(150, True), (440, False)])
    def test_iterated_bernoulli_on_both_sides_of_the_bound(self, n, packed):
        """n Bernoulli(7/19) laws: at n = 150 the lattice takes 12 kB, at
        440 it passes the bound at 103 kB; both folds give the binomial."""
        p = F(7, 19)
        slot = ((19**n).bit_length() + 7) // 8
        assert ((n + 1) * slot <= distributions.MAX_PACKED_BYTES) == packed
        law, took_packed = _folded_packed([bernoulli(p)] * n)
        assert took_packed == packed
        assert law == binomial(n, p)

    def test_mixed_denominators_above_the_bound(self):
        """440 Bernoulli(k/q) laws, q cycling through 2..20, pass the bound;
        the dict fold agrees with the packed folds of both halves, summed."""
        parts = [bernoulli(F(1 + i % (1 + i % 19), 2 + i % 19)) for i in range(440)]
        law, took_packed = _folded_packed(parts)
        halves = [_folded_packed(parts[:220]), _folded_packed(parts[220:])]
        assert not took_packed and all(packed for _, packed in halves)
        assert law == convolve(halves[0][0], halves[1][0])


class TestRationalLimit:
    def test_huge_exponents_rejected_at_once(self):
        for text in ("1e-99999999", "1E+99999999999999", "1e-" + "9" * 5000):
            started = time.perf_counter()
            with pytest.raises(FormatError, match=str(MAX_RATIONAL_DIGITS)):
                as_rational(text)
            assert time.perf_counter() - started < 1.0

    def test_long_digit_strings_rejected(self):
        with pytest.raises(FormatError, match="decimal digits"):
            as_rational("1/" + "7" * (MAX_RATIONAL_DIGITS + 1))
        with pytest.raises(FormatError, match="decimal digits"):
            as_rational("1" * (3 * MAX_RATIONAL_DIGITS))

    def test_limit_is_inclusive(self):
        exponent = MAX_RATIONAL_DIGITS - 1
        assert as_rational(f"1e-{exponent}") == F(1, 10**exponent)
        assert as_rational(f"1e-{exponent:_}") == F(1, 10**exponent)
        assert as_rational(f"25e-00{exponent - 1}") == F(25, 10 ** (exponent - 1))
        with pytest.raises(FormatError, match="decimal digits"):
            as_rational(f"1e-{exponent + 1}")

    def test_ordinary_strings_still_parse(self):
        assert as_rational(" 3/4 ") == F(3, 4)
        assert as_rational("1.5e2") == 150
        assert as_rational("-2.5E-1") == F(-1, 4)
        with pytest.raises(FormatError, match="cannot parse"):
            as_rational("1e")

    def test_distribution_text_over_limit(self):
        with pytest.raises(FormatError, match="decimal digits"):
            parse_distribution("0 1e-99999999\n1 1\n")

    def test_json_int_over_python_digit_limit(self):
        with pytest.raises(FormatError, match="invalid JSON"):
            parse_distribution('{"atoms": [[1' + "0" * 5000 + ', 1]]}')


def spread_text(count: int) -> str:
    """count atoms at 0 .. count - 1, each of mass 1 / count, one per line."""
    return "".join(f"{k} 1/{count}\n" for k in range(count))


def spread_json(count: int) -> str:
    return json.dumps({"atoms": [[k, f"1/{count}"] for k in range(count)]})


class TestAtomLimit:
    @pytest.mark.parametrize("spell", [spread_text, spread_json], ids=["text", "json"])
    def test_at_the_limit_parses(self, spell):
        d = parse_distribution(spell(MAX_ATOMS))
        assert len(d.support_numerators[0]) == MAX_ATOMS
        assert d.mean() == F(MAX_ATOMS - 1, 2)

    @pytest.mark.parametrize(
        "spell, message",
        [
            (spread_text, f"more than the limit of {MAX_ATOMS} atom lines"),
            (spread_json, f"{MAX_ATOMS + 1} atom entries, above the limit of {MAX_ATOMS}"),
        ],
        ids=["text", "json"],
    )
    def test_one_over_the_limit_is_rejected_before_parsing(self, spell, message):
        text = spell(MAX_ATOMS + 1)
        started = time.perf_counter()
        with pytest.raises(FormatError, match=message):
            parse_distribution(text)
        assert time.perf_counter() - started < 1.0

    def test_comments_and_blank_lines_do_not_count(self):
        text = "# a comment\n\n" * (MAX_ATOMS + 1) + "0 1/2\n2 1/2\n"
        assert parse_distribution(text) == DiscreteDistribution(((F(0), F(1, 2)), (F(2), F(1, 2))))


def primes():
    """2, 3, 5, 7, ... by trial division."""
    candidate = 2
    while True:
        if all(candidate % d for d in range(2, math.isqrt(candidate) + 1)):
            yield candidate
        candidate += 1


def prime_supports(count: int, spelling: str = "text") -> str:
    """count atoms k / p_k over the first count primes p_k, each of mass
    1 / count: the common support denominator is the primes' product."""
    atoms = [(f"{k}/{p}", f"1/{count}") for k, p in zip(range(count), primes())]
    if spelling == "json":
        return json.dumps({"atoms": atoms})
    return "".join(f"{s} {m}\n" for s, m in atoms)


def first_count_over_law_bits() -> int:
    """The fewest atoms of ``prime_supports`` whose law passes MAX_LAW_BITS."""
    product = 1
    for count, p in enumerate(primes(), start=1):
        product *= p
        if count * product.bit_length() > MAX_LAW_BITS:
            return count


class TestLawSizeLimit:
    @pytest.mark.parametrize("spelling", ["text", "json"])
    def test_just_over_the_limit_is_rejected_at_once(self, spelling):
        count = first_count_over_law_bits()
        text = prime_supports(count, spelling)
        started = time.perf_counter()
        with pytest.raises(FormatError, match=f"{count} atoms over a .* limit of {MAX_LAW_BITS}"):
            parse_distribution(text)
        assert time.perf_counter() - started < 1.0

    def test_just_under_the_limit_parses(self):
        count = first_count_over_law_bits() - 1
        d = parse_distribution(prime_supports(count))
        (points, scale), (_, den) = d.support_numerators, d.mass_numerators
        assert len(points) == count and den == count
        assert count * scale.bit_length() <= MAX_LAW_BITS

    @pytest.mark.parametrize("spelling", ["text", "json"])
    def test_mass_denominators_count(self, monkeypatch, spelling):
        # Integer supports, masses 1 / 2^k and 1 - 1 / 2^k: k + 1 bits twice.
        monkeypatch.setattr(lawtext, "MAX_LAW_BITS", 200)
        for k, admitted in ((99, True), (100, False)):
            atoms = [["0", f"1/{2**k}"], ["1", f"{2**k - 1}/{2**k}"]]
            text = (
                json.dumps({"atoms": atoms})
                if spelling == "json"
                else "".join(f"{s} {m}\n" for s, m in atoms)
            )
            if admitted:
                assert parse_distribution(text).mass_numerators[1] == 2**k
            else:
                with pytest.raises(FormatError, match="2 atoms over a 101-bit"):
                    parse_distribution(text)


@settings(max_examples=300, deadline=None)
@given(
    p=st.one_of(st.integers(-(10**90), 10**90), st.integers(-50, 50)),
    q=st.one_of(st.integers(1, 10**90), st.integers(1, 50)),
)
def test_quoted_values_are_exact_when_short_and_bounded_when_long(p, q):
    value = F(p, q)
    text = exact._quoted(value)
    if max(abs(value.numerator), value.denominator).bit_length() <= 200:
        assert text == str(value)
        return
    assert len(text) < 60
    # "about [-]d.ddddde<e>": six significant digits, rounded toward zero.
    mantissa, exponent = text.split()[1].split("e")
    assert mantissa.startswith("-") == (value < 0)
    lead, e = int(mantissa.lstrip("-").replace(".", "")), int(exponent)
    assert 10**5 <= lead < 10**6
    assert math.floor(abs(value) * F(10) ** (5 - e)) == lead


def test_quoted_long_values():
    assert exact._quoted(1 - F(1, 10**80)) == "about 9.99999e-1 (a 266-bit denominator)"
    assert exact._quoted(F(-(10**4400))) == "about -1.00000e4400"


def test_messages_quote_huge_masses_and_weight_sums():
    with pytest.raises(
        ParameterError, match=r"^mass about -1\.00000e-5000 \(a 16610-bit denominator\) at 0 "
    ):
        DiscreteDistribution.from_pairs([(0, "-1e-5000"), (1, 1)])
    with pytest.raises(ParameterError, match=r"^mixture weights must sum to 1, got about 5\.0"):
        mixture(["1e-5000", "1/2"], [dirac(0), dirac(1)])


# Text around every line boundary ``str.splitlines`` knows, "\r\n" included.
_line_texts = st.lists(
    st.sampled_from(["a", " ", "#", "\r\n", "\n", "\r", "\v", "\f", "\x1c", "\x1d",
                     "\x1e", "\x85", "\u2028", "\u2029", "\t", "\x00"])
).map("".join)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(_line_texts, st.text()))
def test_text_lines_are_the_lines_splitlines_numbers(text):
    assert list(lawtext._text_lines(text)) == text.splitlines()
