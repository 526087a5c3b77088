"""Exact convex stochastic order on finitely supported rational distributions.

The package decides lhs <=_cx rhs (E f(lhs) <= E f(rhs) for all convex f)
with four exact procedures -- a stop-loss oracle, the single-crossing
criterion, the Levin-Steckin integral conditions and the sign-change lemma
-- and applies them to verify the binomial convex-concentration inequality,
the Rasa inequality for Bernstein polynomials, and its m-variable
generalisation.  Every quantity it hands out is a `fractions.Fraction`, and
laws are held as Python-int numerators over common denominators; there is
no floating point anywhere in the computational core.

Importing the package loads none of its modules: each exported name is
imported from its module on first use (PEP 562), so a command pays only for
the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every exported name, by the module that defines it.
_MODULE_EXPORTS = {
    "convex_functions": (
        "Affine",
        "Angle",
        "ConvexTestFunction",
        "Monomial",
        "PiecewiseLinear",
        "builtin_family",
        "expectation",
        "random_piecewise_linear",
    ),
    "counterexample": (
        "CounterexampleReport",
        "VerificationError",
        "analyze_counterexample",
        "build_counterexample",
    ),
    "cx_order": (
        "LevinSteckinReport",
        "OhlinReport",
        "StandingHypothesisError",
        "SzostokReport",
        "crossing_points",
        "cx_compare_oracle",
        "levin_steckin_check",
        "ohlin_check",
        "szostok_decision",
    ),
    "distributions": (
        "DiscreteDistribution",
        "bernoulli",
        "binomial",
        "convolve",
        "convolve_many",
        "dirac",
        "distribution_to_json_obj",
        "mixture",
    ),
    "exact": (
        "CxVerdict",
        "FormatError",
        "MAX_RATIONAL_DIGITS",
        "ParameterError",
        "as_rational",
        "sign_changes",
    ),
    "lattice": ("GeneralizedVerdicts",),
    "lawtext": ("MAX_ATOMS", "MAX_LAW_BITS", "parse_distribution"),
    "randomgen": (
        "random_equal_mean_pair",
        "random_probability",
    ),
    "rasa": (
        "PsiPattern",
        "bernstein_vector",
        "poisson_binomial",
        "psi_sign_pattern",
        "rasa_form",
        "rasa_form_general",
        "verify_generalized",
        "verify_hoeffding",
        "verify_theorem_main",
    ),
    "sweep": ("RunConfig", "farey_fractions", "run_sweep"),
}

_EXPORTS = {
    name: module for module, names in _MODULE_EXPORTS.items() for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
