import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations_with_replacement, permutations
from pathlib import Path

import pytest

from convexorder import (
    Angle,
    Monomial,
    Affine,
    ParameterError,
    bernstein_vector,
    binomial,
    convolve,
    convolve_many,
    dirac,
    expectation,
    farey_fractions,
    mixture,
    ohlin_check,
    poisson_binomial,
    psi_sign_pattern,
    random_probability,
    rasa_form,
    rasa_form_general,
    builtin_family,
    sign_changes,
    verify_generalized,
    verify_hoeffding,
    verify_theorem_main,
)
from convexorder import rasa
from convexorder.lattice import MAX_LATTICE_LENGTH
from convexorder.sweep import RunConfig
from oracles import bernstein, pair_by_fractions, psi_values_by_fractions

HALF = F(1, 2)
SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


class TestBernstein:
    def test_single_value(self):
        assert bernstein(2, 1, HALF) == HALF

    def test_partition_of_unity(self):
        assert sum(bernstein(4, i, F(1, 3)) for i in range(5)) == 1

    def test_matches_binomial_masses(self):
        d = binomial(3, F(2, 5))
        for i in range(4):
            assert bernstein(3, i, F(2, 5)) == d.mass_at(i)

    def test_vector_matches_pointwise(self):
        assert bernstein_vector(5, F(3, 7)) == tuple(
            bernstein(5, i, F(3, 7)) for i in range(6)
        )

    def test_validation(self):
        with pytest.raises(ParameterError):
            bernstein_vector(0, HALF)
        with pytest.raises(ParameterError):
            bernstein_vector(2, F(5, 4))


class TestRasaForm:
    def test_zero_on_diagonal(self):
        assert rasa_form(3, F(1, 4), F(1, 4), Monomial(2)) == 0

    def test_boundary_square(self):
        # expands to f(0) + f(1) - 2 f(1/2)
        assert rasa_form(1, F(0), F(1), Monomial(2)) == HALF

    def test_affine_annihilated(self):
        assert rasa_form(2, F(1, 3), F(3, 4), Affine(F(1), F(-2))) == 0

    def test_symmetry(self):
        rng = random.Random(8)
        for _ in range(25):
            n = rng.randint(1, 4)
            x, y = random_probability(rng, 8), random_probability(rng, 8)
            f = Angle(F(rng.randint(0, 2 * n), 2 * n))
            assert rasa_form(n, x, y, f) == rasa_form(n, y, x, f)

    def test_bridge_to_pair_expectations(self):
        lhs, rhs = pair_by_fractions(2, (F(1, 3), F(2, 3)))
        f = Angle(HALF)
        gap = expectation(rhs, f) - expectation(lhs, f)
        assert rasa_form(2, F(1, 3), F(2, 3), f) == 2 * gap

    def test_nonnegative_on_sample_grid(self):
        fam = builtin_family(4, random_count=3, seed=5)
        for x, y in combinations_with_replacement(farey_fractions(5), 2):
            for f in fam:
                assert rasa_form(2, x, y, f) >= 0

    def test_parameter_spellings_give_one_value(self):
        f = Angle(F(1, 3))
        value = rasa_form(3, F(1, 3), F(1), f)
        assert rasa_form(3, "1/3", 1, f) == value
        assert rasa_form(3, F(2, 6), "1", f) == value
        assert rasa_form_general(3, [F(1, 3), 1], f) == value

    def test_invalid_parameters_raise_every_time(self):
        for _ in range(2):
            with pytest.raises(ParameterError):
                rasa_form(2, F(3, 2), F(1, 2), Monomial(2))


def test_package_caches_are_bounded():
    import importlib
    import pkgutil

    import convexorder

    caches = []
    for info in pkgutil.iter_modules(convexorder.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"convexorder.{info.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                caches.append((info.name, name, value.cache_info().maxsize))
    assert all(maxsize is not None for _, _, maxsize in caches), caches
    # Every process-wide cache is listed here: a sweep's state lives with its
    # (n, m) block, and a library point's binomial laws with the call that
    # sums them.
    assert {f"{module}.{name}" for module, name, _ in caches} == {
        "cx_order._segments",
        "rasa._cached_point",
        "rasa._probe_row",
    }


class TestRasaPair:
    def test_boundary_dirac_pair(self):
        lhs, rhs = pair_by_fractions(1, (F(0), F(1)))
        assert lhs == dirac(HALF)
        assert rhs == mixture([HALF, HALF], [dirac(0), dirac(1)])

    def test_means_match(self):
        lhs, rhs = pair_by_fractions(1, (F(1, 4), F(3, 4)))
        assert lhs.mean() == rhs.mean() == HALF

    def test_supports_inside_unit_interval(self):
        for d in pair_by_fractions(3, (F(1, 5), F(4, 5))):
            assert d.min_support >= 0 and d.max_support <= 1


class TestTheoremMain:
    def test_interior_instance(self):
        verdict = verify_theorem_main(1, F(1, 4), F(3, 4))
        assert verdict.holds
        lhs = convolve(binomial(1, F(1, 4)), binomial(1, F(3, 4)))
        assert [lhs.stop_loss(t) for t in (0, 1, 2)] == [1, F(3, 16), 0]

    def test_equal_parameters_identical(self):
        assert verify_theorem_main(2, F(1, 3), F(1, 3)).holds

    def test_wider_instance(self):
        assert verify_theorem_main(3, F(1, 10), F(9, 10)).holds


class TestPoissonBinomial:
    def test_two_parameter_enumeration(self):
        d = poisson_binomial([F(1, 4), F(3, 4)])
        assert d.atoms == ((F(0), F(3, 16)), (F(1), F(5, 8)), (F(2), F(3, 16)))

    def test_iid_reduces_to_binomial(self):
        assert poisson_binomial([F(1, 3)] * 4) == binomial(4, F(1, 3))

    def test_mean_is_sum(self):
        assert poisson_binomial([HALF, F(1, 3), F(1, 6)]).mean() == 1

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            poisson_binomial([])


class TestHoeffding:
    def test_two_parameter_instance(self):
        verdict = verify_hoeffding([F(1, 4), F(3, 4)])
        assert verdict.holds
        assert poisson_binomial([F(1, 4), F(3, 4)]).stop_loss(1) == F(3, 16)
        assert binomial(2, HALF).stop_loss(1) == F(1, 4)

    def test_identical_parameters(self):
        assert verify_hoeffding([F(2, 5), F(2, 5)]).holds

    def test_three_parameter_instance(self):
        assert verify_hoeffding([F(1, 10), HALF, F(9, 10)]).holds

    def test_interior_required(self):
        with pytest.raises(ParameterError):
            verify_hoeffding([F(0), HALF])

    def test_random_instances(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(1, 8)
            ps = [random_probability(rng, 20) for _ in range(n)]
            assert verify_hoeffding(ps).holds

    @pytest.mark.parametrize("call", [verify_hoeffding, poisson_binomial])
    def test_parameter_count_over_the_limit_raises_before_any_parameter_is_read(self, call):
        # Reading any of these would raise FormatError instead.
        ps = [object()] * (MAX_LATTICE_LENGTH + 1)
        with pytest.raises(ParameterError) as raised:
            call(ps)
        assert str(raised.value) == (
            f"{MAX_LATTICE_LENGTH + 1} parameters given, "
            f"above the limit of {MAX_LATTICE_LENGTH}"
        )

    def test_parameter_count_at_the_limit_verifies(self):
        assert verify_hoeffding(["1/3", "1/2"] * (MAX_LATTICE_LENGTH // 2)).holds


class TestPsiPattern:
    def test_two_parameter_values(self):
        pattern = psi_sign_pattern(1, [F(1, 4), F(3, 4)])
        assert pattern.values == (F(1, 16), F(-1, 16), F(1, 16))
        assert pattern.change_count == 2
        assert pattern.pattern == "+-+"

    def test_endpoints_positive(self):
        pattern = psi_sign_pattern(2, [F(1, 3), F(2, 3)])
        assert pattern.values[0] > 0 and pattern.values[-1] > 0

    def test_binomial_weighted_sum_vanishes(self):
        pattern = psi_sign_pattern(1, [F(1, 5), F(2, 5), F(4, 5)])
        mn = len(pattern.values) - 1
        assert (
            sum(math.comb(mn, k) * v for k, v in enumerate(pattern.values)) == 0
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize(
        "xs",
        [
            (F(1, 4), F(3, 4)),
            (F(1, 3), F(2, 7), F(5, 6)),
            (F(2, 9), F(2, 9), F(1, 2)),
            (F(1, 2), F(1, 3), F(3, 4), F(5, 8)),
        ],
    )
    def test_values_match_fraction_formula(self, n, xs):
        pattern = psi_sign_pattern(n, xs)
        expected = psi_values_by_fractions(n, xs)
        assert pattern.values == expected
        assert pattern.pattern == "".join(
            "+" if v > 0 else "-" if v < 0 else "0" for v in expected
        )
        assert pattern.change_count == sign_changes(expected)

    def test_degenerate_rejected(self):
        with pytest.raises(ParameterError):
            psi_sign_pattern(2, [F(1, 3), F(1, 3)])

    def test_boundary_rejected(self):
        with pytest.raises(ParameterError):
            psi_sign_pattern(1, [F(0), HALF])


class TestGeneralized:
    def test_all_equal_parameters_coincide(self):
        lhs, rhs = pair_by_fractions(2, [F(1, 3)] * 3)
        assert lhs == rhs

    def test_three_parameter_means(self):
        lhs, rhs = pair_by_fractions(1, [F(1, 4), HALF, F(3, 4)])
        assert lhs.mean() == rhs.mean() == HALF

    def test_three_relations_hold(self):
        verdicts = verify_generalized(1, [F(1, 4), HALF, F(3, 4)])
        assert verdicts.all_hold

    def test_all_equal_relations_hold(self):
        verdicts = verify_generalized(2, [F(2, 5)] * 3)
        assert verdicts.all_hold

    def test_spread_parameters(self):
        assert verify_generalized(2, [F(1, 10), HALF, F(9, 10)]).all_hold

    def test_needs_two_parameters(self):
        with pytest.raises(ParameterError):
            verify_generalized(1, [HALF])

    def test_lattice_length_over_the_limit_raises_before_the_cache_is_read(self):
        # m * n = 1002: the message psi_sign_pattern gives, and no table built.
        message = f"m * n is 1002, above the limit of {MAX_LATTICE_LENGTH}"
        lookups = rasa._cached_point.cache_info()
        for call in (
            lambda: verify_generalized(501, ["1/3", "1/2"]),
            lambda: rasa_form_general(501, ["1/3", "1/2"], Monomial(2)),
        ):
            with pytest.raises(ParameterError) as raised:
                call()
            assert str(raised.value) == message
        assert rasa._cached_point.cache_info() == lookups

    @pytest.mark.parametrize("n", [1.5, 2.0])
    @pytest.mark.parametrize(
        "call",
        [
            lambda n: rasa.lattice_point(n, ["1/3", "1/2"]),
            lambda n: verify_generalized(n, ["1/3", "1/2"]),
            lambda n: rasa_form(n, "1/3", "1/2", Monomial(2)),
            lambda n: psi_sign_pattern(n, ["1/3", "1/2"]),
        ],
    )
    def test_degree_that_is_not_an_int_raises_and_caches_nothing(self, call, n):
        # The table of n = 2 is cached first: 2.0 keys it too, but reads nothing.
        verify_generalized(2, ["1/3", "1/2"])
        lookups = rasa._cached_point.cache_info()
        with pytest.raises(ParameterError) as raised:
            call(n)
        assert str(raised.value) == f"n must be an int, got {n!r}"
        assert rasa._cached_point.cache_info() == lookups

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: binomial(1.5, "1/3"), "n must be an int, got 1.5"),
            (lambda: binomial(2.0, "1/3"), "n must be an int, got 2.0"),
            (lambda: bernstein_vector(1.5, F(1, 3)), "degree must be an int, got 1.5"),
        ],
    )
    def test_binomial_degree_that_is_not_an_int_raises_one_line(self, call, message):
        with pytest.raises(ParameterError) as raised:
            call()
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "call",
        [
            lambda: verify_generalized(501, ["3/2", "1/2"]),
            lambda: psi_sign_pattern(501, ["3/2", "1/2"]),
            lambda: psi_sign_pattern(501, ["1/3", "1/3"]),
        ],
    )
    def test_lattice_length_is_checked_before_the_parameters_interval(self, call):
        with pytest.raises(ParameterError) as raised:
            call()
        assert str(raised.value) == f"m * n is 1002, above the limit of {MAX_LATTICE_LENGTH}"


    # m = 2, n = 1 and parameters 1/L, 2/L: m * n * bit_length(m * L) is
    # 14 284, the limit, at L = 2^7141 - 1, and 14 286 at L = 2^7141 + 1.
    def test_point_bits_over_the_limit_raise_before_the_cache_is_read(self):
        common = 2**7141 + 1
        assert 2 * (2 * common).bit_length() == rasa.MAX_POINT_BITS + 2
        xs = [F(1, common), F(2, common)]
        lookups = rasa._cached_point.cache_info()
        for call in (
            lambda: verify_generalized(1, xs),
            lambda: rasa_form_general(1, xs, Monomial(2)),
            lambda: psi_sign_pattern(1, xs),
        ):
            with pytest.raises(ParameterError) as raised:
                call()
            assert str(raised.value) == (
                "m * n * bit_length(m * L), for L the parameters' common "
                f"denominator, is above the limit of {rasa.MAX_POINT_BITS}"
            )
        assert rasa._cached_point.cache_info() == lookups

    def test_point_bits_at_the_limit_are_accepted(self):
        common = 2**7141 - 1
        assert 2 * (2 * common).bit_length() == rasa.MAX_POINT_BITS
        xs = [F(1, common), F(2, common)]
        assert verify_generalized(1, xs).all_hold
        assert psi_sign_pattern(1, xs).change_count == 2

    @pytest.mark.parametrize(
        "n, xs",
        [
            # The most bits a sweep admits: m = 4, n = 250, denominators up
            # to 9, L = 2520, 1000 * bit_length(10 080) = 14 000.
            (250, [F(1, 5), F(1, 7), F(1, 8), F(1, 9)]),
            # 1000 * bit_length(5 * 2310) = 14 000.
            (200, [F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11)]),
        ],
    )
    def test_widest_points_under_the_limit_are_accepted(self, n, xs):
        m = len(xs)
        common = math.lcm(*(x.denominator for x in xs))
        assert m * n * (m * common).bit_length() == 14_000 < rasa.MAX_POINT_BITS
        if m == 4:
            # A sweep admits this grid, and the point is one of its points.
            RunConfig(n_values=(n,), m_values=(m,), denominator=9)
            assert set(xs) <= set(farey_fractions(9))
        table = rasa.lattice_point(n, xs)
        assert table.pooled.den == (m * common) ** (m * n)
        assert psi_sign_pattern(n, xs).change_count == 2


def _peak_mb(code: str) -> float:
    """The peak resident size, in MB, of a fresh interpreter that runs code.

    The child reports its own peak, VmHWM: its ru_maxrss would count this
    process's peak too, which Linux carries over the child's exec.
    """
    code += (
        "print(next(line.split()[1] for line in open('/proc/self/status')\n"
        "           if line.startswith('VmHWM:')))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_library_point_with_many_parameters_keeps_no_law():
    # 400 distinct parameters k/997 at n = 1: the mixture has 400 binomial
    # laws of degree 400.  Built and summed one by one they peak at about
    # 17 MB in a fresh process; kept in a process-wide cache, at 100 MB.
    assert _peak_mb(
        "from fractions import Fraction\n"
        "from convexorder.rasa import lattice_point\n"
        "lattice_point(1, [Fraction(k, 997) for k in range(1, 401)])\n"
    ) < 40


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_library_points_in_turn_keep_one_table():
    # 16 distinct points at m = 2, n = 250 with denominator 8191: only the
    # last table is kept, and the loop peaks at about 21 MB in a fresh
    # process; the last 64 tables kept took it to about 50 MB.
    assert _peak_mb(
        "from fractions import Fraction\n"
        "from convexorder.rasa import lattice_point\n"
        "for i in range(16):\n"
        "    lattice_point(250, (Fraction(1 + i, 8191), Fraction(2 + i, 8191)))\n"
    ) < 30


class TestGeneralForm:
    def test_all_equal_vanishes(self):
        assert rasa_form_general(2, [F(1, 3)] * 3, Monomial(2)) == 0

    def test_m2_agrees_with_two_variable_form(self):
        assert rasa_form_general(1, [F(0), F(1)], Monomial(2)) == rasa_form(
            1, F(0), F(1), Monomial(2)
        ) == HALF

    def test_bridge_factor_m(self):
        xs = [F(0), HALF, F(1)]
        lhs, rhs = pair_by_fractions(1, xs)
        f = Angle(HALF)
        gap = expectation(rhs, f) - expectation(lhs, f)
        assert rasa_form_general(1, xs, f) == 3 * gap

    def test_permutation_invariance(self):
        xs = [F(1, 5), F(1, 2), F(3, 4)]
        f = Monomial(4)
        reference = rasa_form_general(2, xs, f)
        for perm in permutations(xs):
            assert rasa_form_general(2, list(perm), f) == reference


def test_pooled_vs_mixture_single_crossing_on_grid():
    # the mixture side of the order is reachable from the pooled binomial by
    # a single crossing wherever the parameters are interior and distinct
    for m, n_values, denom in ((2, (1, 2), 4), (3, (1,), 3)):
        values = farey_fractions(denom)[1:-1]
        for n in n_values:
            for xs in combinations_with_replacement(values, m):
                pooled = binomial(m * n, sum(xs, F(0)) / m)
                mixed = mixture(
                    [F(1, m)] * m,
                    [convolve_many([binomial(n, x)] * m) for x in xs],
                )
                assert ohlin_check(pooled, mixed).applies, (m, n, xs)


def test_verdict_chain_consistency():
    rng = random.Random(23)
    for _ in range(40):
        m = rng.choice((2, 3))
        n = rng.randint(1, 2)
        xs = [random_probability(rng, 6) for _ in range(m)]
        verdicts = verify_generalized(n, xs)
        assert verdicts.sum_vs_pooled.holds
        assert verdicts.pooled_vs_mixture.holds
        assert verdicts.sum_vs_mixture.holds
