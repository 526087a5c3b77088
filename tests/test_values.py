"""Value semantics of the package's report records and value classes.

Report records are ``NamedTuple``s; laws, test functions and sweep
configurations are plain classes.  Every one keeps the repr, equality,
immutability, construction and argument checks it had as a dataclass: the
reprs and messages below were recorded from the dataclass versions.

The module imports no third-party package, so it also runs as a smoke check
on a bare interpreter: ``PYTHONPATH=src python tests/test_values.py``.
"""

import copy
import pickle
from contextlib import contextmanager
from fractions import Fraction as F

from convexorder.convex_functions import Affine, Angle, Monomial, PiecewiseLinear
from convexorder.counterexample import CounterexampleReport, analyze_counterexample
from convexorder.cx_order import (
    LevinSteckinReport,
    OhlinReport,
    SzostokReport,
    cx_compare_oracle,
)
from convexorder.distributions import bernoulli, dirac
from convexorder.exact import CxVerdict, ParameterError
from convexorder.lattice import GeneralizedVerdicts, gap_verdict
from convexorder.rasa import PsiPattern, rasa_form
from convexorder.sweep import RunConfig
from oracles import pair_by_fractions

_VERDICT = "CxVerdict(holds=False, means_equal=True, witness=Fraction(1, 2), mean_gap=Fraction(0, 1))"

# (class, positional arguments, keyword arguments, repr of the instance).
CASES = [
    (Angle, (F(1, 3),), {"c": F(1, 3)}, "Angle(c=Fraction(1, 3))"),
    (Monomial, (4,), {"degree": 4}, "Monomial(degree=4)"),
    (
        Affine,
        (F(1), F(-2)),
        {"intercept": F(1), "slope": F(-2)},
        "Affine(intercept=Fraction(1, 1), slope=Fraction(-2, 1))",
    ),
    (
        PiecewiseLinear,
        (F(1, 4), (F(1, 3), F(1, 2)), (F(-1), F(0), F(5, 2))),
        {
            "value_at_zero": F(1, 4),
            "breakpoints": (F(1, 3), F(1, 2)),
            "slopes": (F(-1), F(0), F(5, 2)),
        },
        "PiecewiseLinear(value_at_zero=Fraction(1, 4), breakpoints=(Fraction(1, 3), "
        "Fraction(1, 2)), slopes=(Fraction(-1, 1), Fraction(0, 1), Fraction(5, 2)))",
    ),
    (
        CxVerdict,
        (False, True, F(1, 2), F(0)),
        {"holds": False, "means_equal": True, "witness": F(1, 2), "mean_gap": F(0)},
        _VERDICT,
    ),
    (
        OhlinReport,
        (True, F(2, 3), False),
        {"applies": True, "crossing": F(2, 3), "identical": False},
        "OhlinReport(applies=True, crossing=Fraction(2, 3), identical=False)",
    ),
    (
        LevinSteckinReport,
        (True, True, False),
        {"endpoint_match": True, "integral_match": True, "partial_dominance": False},
        "LevinSteckinReport(endpoint_match=True, integral_match=True, partial_dominance=False)",
    ),
    (
        SzostokReport,
        ((F(1),), (F(1, 8), F(1, 8)), True, True, True, True),
        {
            "sign_change_points": (F(1),),
            "areas": (F(1, 8), F(1, 8)),
            "parity_ok": True,
            "partial_sums_ok": True,
            "first_segment_nonneg": True,
            "decision": True,
        },
        "SzostokReport(sign_change_points=(Fraction(1, 1),), areas=(Fraction(1, 8), "
        "Fraction(1, 8)), parity_ok=True, partial_sums_ok=True, "
        "first_segment_nonneg=True, decision=True)",
    ),
    (
        GeneralizedVerdicts,
        (CxVerdict(False, True, F(1, 2), F(0)),) * 3,
        {
            "sum_vs_pooled": CxVerdict(False, True, F(1, 2), F(0)),
            "pooled_vs_mixture": CxVerdict(False, True, F(1, 2), F(0)),
            "sum_vs_mixture": CxVerdict(False, True, F(1, 2), F(0)),
        },
        f"GeneralizedVerdicts(sum_vs_pooled={_VERDICT}, pooled_vs_mixture={_VERDICT}, "
        f"sum_vs_mixture={_VERDICT})",
    ),
    (
        PsiPattern,
        ((F(1, 9), F(-2, 9)), "+-", 1),
        {"values": (F(1, 9), F(-2, 9)), "pattern": "+-", "change_count": 1},
        "PsiPattern(values=(Fraction(1, 9), Fraction(-2, 9)), pattern='+-', change_count=1)",
    ),
    (
        RunConfig,
        (range(1, 3), (2,), 3),
        {"n_values": range(1, 3), "m_values": (2,), "denominator": 3},
        "RunConfig(n_values=range(1, 3), m_values=(2,), denominator=3, seed=0, jobs=1, "
        "functions=('angles', 'monomials', 'affine', 'random-pwl'))",
    ),
]

# Reprs of built values: records the package builds itself, and the laws of
# one Rasa pair from the Fraction reference route in ``oracles.py``.
BUILT = [
    (
        lambda: pair_by_fractions(1, (F(1, 3), F(1, 2))),
        "(DiscreteDistribution(0: 1/3, 1/2: 1/2, 1: 1/6), "
        "DiscreteDistribution(0: 25/72, 1/2: 17/36, 1: 13/72))",
    ),
    (
        analyze_counterexample,
        "CounterexampleReport(lhs=DiscreteDistribution(1: 1/4, 3: 1/4, 5: 1/4, 7: 1/4), "
        "rhs=DiscreteDistribution(0: 1/8, 2: 1/8, 4: 1/2, 6: 1/8, 8: 1/8), "
        "sign_change_points=(Fraction(1, 1), Fraction(4, 1), Fraction(7, 1)), "
        "areas=(Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8)), "
        "szostok_decision=False, oracle_verdict=CxVerdict(holds=False, means_equal=True, "
        "witness=Fraction(4, 1), mean_gap=Fraction(0, 1)), "
        "witness_function=Angle(c=Fraction(4, 1)))",
    ),
    (lambda: bernoulli(F(1, 3)), "DiscreteDistribution(0: 2/3, 1: 1/3)"),
]

# Each rejected construction and its message.
REJECTED = [
    (lambda: Monomial(3), "monomial degree must be an even integer >= 2"),
    (lambda: Monomial(0), "monomial degree must be an even integer >= 2"),
    (lambda: Monomial(degree=-2), "monomial degree must be an even integer >= 2"),
    (
        lambda: PiecewiseLinear(F(0), (F(1),), (F(0),)),
        "need exactly one more slope than breakpoints",
    ),
    (
        lambda: PiecewiseLinear(F(0), (F(1), F(1)), (F(0), F(1), F(2))),
        "breakpoints must be strictly increasing",
    ),
    (
        lambda: PiecewiseLinear(value_at_zero=F(0), breakpoints=(F(1),), slopes=(F(1), F(0))),
        "slopes must be nondecreasing (convexity)",
    ),
    (
        lambda: RunConfig(n_values=(), m_values=(2,), denominator=3),
        "n and m ranges must be nonempty",
    ),
    (
        lambda: RunConfig(n_values=(1,), m_values=(2,), denominator=1),
        "denominator bound must be >= 2",
    ),
    (
        lambda: RunConfig(n_values=range(1, 10**6), m_values=(2,), denominator=30),
        "the grid has at least 495999504 points, above the limit of 100000",
    ),
    (lambda: RunConfig(n_values=(0,), m_values=(2,), denominator=3), "n values must be >= 1"),
    (lambda: RunConfig(n_values=(1,), m_values=(1,), denominator=3), "m values must be >= 2"),
    (
        lambda: RunConfig(n_values=(1000,), m_values=(2,), denominator=2),
        "m * n reaches 2000, above the limit of 1000",
    ),
    (
        lambda: RunConfig(n_values=(1,), m_values=(2,), denominator=3, jobs=0),
        "jobs must be >= 1",
    ),
    (
        lambda: RunConfig(n_values=(1,), m_values=(2,), denominator=3, functions=()),
        "at least one test-function group is required",
    ),
    (
        lambda: RunConfig((1,), (2,), 3, 0, 1, ("x", "angles")),
        "unknown function groups: ['x']",
    ),
]


@contextmanager
def _raises(kind):
    """``pytest.raises`` without pytest: the list it yields gets the exception."""
    caught = []
    try:
        yield caught
    except kind as exc:
        caught.append(exc)
    else:
        raise AssertionError(f"no {kind.__name__} raised")


def test_reprs_are_unchanged():
    for cls, args, _, text in CASES:
        assert repr(cls(*args)) == text
    for build, text in BUILT:
        assert repr(build()) == text


def test_positional_and_keyword_construction_agree():
    for cls, args, kwargs, _ in CASES:
        by_position, by_keyword = cls(*args), cls(**kwargs)
        assert by_position == by_keyword
        assert hash(by_position) == hash(by_keyword)


def test_equal_fields_give_equal_values_and_hashes():
    for build, _ in BUILT:
        first, second = build(), build()
        assert first is not second
        assert first == second and not first != second
        assert hash(first) == hash(second)
    assert bernoulli(F(1, 3)) != bernoulli(F(1, 2))
    assert Angle(F(1, 3)) != Angle(F(1, 2))
    assert bernoulli(F(1, 3)) != "DiscreteDistribution(0: 2/3, 1: 1/3)"


def test_test_functions_of_different_classes_are_unequal():
    assert Angle(2) != Monomial(2)
    assert Monomial(2) != Angle(2)
    assert len({Angle(2), Monomial(2)}) == 2
    assert Affine(F(1), F(2)) != CxVerdict(True, True, None, F(0))


def test_form_cache_keeps_probes_of_different_classes_apart():
    # Both rows are cached by the first two calls; the last two read them.
    values = [rasa_form(2, F(1, 3), F(2, 3), f) for f in (Angle(2), Monomial(2)) * 2]
    assert values[:2] == values[2:]
    assert values[0] == 0  # the angle at 2 vanishes on [0, 1]
    assert values[1] > 0


def test_fields_cannot_be_assigned_or_deleted():
    for cls, args, kwargs, _ in CASES:
        value = cls(*args)
        name = next(iter(kwargs))
        with _raises(AttributeError):
            setattr(value, name, args[0])
        with _raises(AttributeError):
            delattr(value, name)
        assert value == cls(*args)
    law = bernoulli(F(1, 3))
    assert law.support == (F(0), F(1))  # cached reads still fill in
    for name in ("support_numerators", "mass_numerators", "extra"):
        with _raises(AttributeError):
            setattr(law, name, None)
    with _raises(AttributeError):
        del law.mass_numerators
    assert law == bernoulli(F(1, 3))


def test_values_copy_and_pickle_equal():
    values = [cls(*args) for cls, args, _, _ in CASES] + [build() for build, _ in BUILT]
    for value in values:
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


def test_records_are_named_tuples_with_their_properties():
    for cls in (
        CxVerdict, OhlinReport, LevinSteckinReport, SzostokReport,
        GeneralizedVerdicts, PsiPattern, CounterexampleReport,
    ):
        assert issubclass(cls, tuple) and cls._fields
    report = LevinSteckinReport(True, True, False)
    assert not report.holds and not report
    assert LevinSteckinReport(True, True, True).holds
    holds = CxVerdict(True, True, None, F(0))
    assert GeneralizedVerdicts(holds, holds, holds).all_hold
    assert not GeneralizedVerdicts(holds, holds, CxVerdict(False, True, F(1), F(0))).all_hold


def test_verdict_reprs_are_unchanged():
    holding = "CxVerdict(holds=True, means_equal=True, witness=None, mean_gap=Fraction(0, 1))"
    apart = "CxVerdict(holds=False, means_equal=False, witness=None, mean_gap=Fraction(1, 1))"
    half = F(1, 2)
    assert repr(cx_compare_oracle(dirac(half), bernoulli(half))) == holding
    assert repr(cx_compare_oracle(bernoulli(half), dirac(half))) == _VERDICT
    assert repr(cx_compare_oracle(dirac(0), dirac(1))) == apart
    # The lattice route: mass 1/2 at 0 and 2 against all mass at 1, and back.
    spread, point = [1, 0, 1], [0, 2, 0]
    assert repr(gap_verdict(point, spread, [0, 1, 0], 2)) == holding
    assert repr(gap_verdict(spread, point, [0, -1, 0], 2)) == _VERDICT.replace(
        "Fraction(1, 2)", "Fraction(1, 1)"
    )


def test_rejected_constructions_keep_their_messages():
    for build, message in REJECTED:
        with _raises(ParameterError) as caught:
            build()
        assert str(caught[0]) == message


if __name__ == "__main__":
    tests = [test for name, test in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} value-semantics checks passed")
