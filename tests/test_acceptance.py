"""Acceptance suite: one test per criterion, all exact (tolerance zero).

Each test prints a single PASS line with its runtime; any violation fails
the test outright.  Criteria with stated runtime budgets assert them.
"""

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from itertools import combinations_with_replacement
from pathlib import Path

from convexorder import (
    Angle,
    analyze_counterexample,
    bernoulli,
    binomial,
    builtin_family,
    convolve,
    convolve_many,
    cx_compare_oracle,
    expectation,
    farey_fractions,
    levin_steckin_check,
    ohlin_check,
    psi_sign_pattern,
    random_equal_mean_pair,
    random_probability,
    random_weighted_distribution,
    rasa_form,
    rasa_form_general,
    sign_changes,
    szostok_decision,
    verify_generalized,
    verify_hoeffding,
    verify_theorem_main,
)
from oracles import pair_by_fractions, scale_by_fractions

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _report(number: int, description: str, started: float) -> float:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {description}")
    return elapsed


def test_criterion_1_counterexample_reproduction():
    started = time.perf_counter()
    report = analyze_counterexample()
    assert report.lhs.atoms == tuple((F(s), F(1, 4)) for s in (1, 3, 5, 7))
    assert report.rhs.atoms == (
        (F(0), F(1, 8)),
        (F(2), F(1, 8)),
        (F(4), F(1, 2)),
        (F(6), F(1, 8)),
        (F(8), F(1, 8)),
    )
    assert report.sign_change_points == (F(1), F(4), F(7))
    assert report.areas == (F(1, 8), F(3, 8), F(3, 8), F(1, 8))
    assert report.szostok_decision is False
    assert report.oracle_verdict.holds is False
    assert isinstance(report.witness_function, Angle)
    assert report.witness_function.c == 4
    assert expectation(report.lhs, report.witness_function) == 1
    assert expectation(report.rhs, report.witness_function) == F(3, 4)
    elapsed = _report(1, "four-atom counterexample reproduced bit-exactly", started)
    assert elapsed < 1.0


def test_criterion_2_two_variable_inequality_at_desk_scale():
    started = time.perf_counter()
    grid = farey_fractions(10)
    violations = 0
    for n in range(1, 7):
        family = builtin_family(2 * n, random_count=5, seed=0)
        for x in grid:
            for y in grid:
                if any(rasa_form(n, x, y, f) < 0 for f in family):
                    violations += 1
                if not verify_theorem_main(n, x, y).holds:
                    violations += 1
    assert violations == 0
    elapsed = _report(
        2,
        "two-variable form nonnegative and order holds on the full "
        "n<=6, denominator<=10 grid",
        started,
    )
    assert elapsed < 120.0


def test_criterion_3_m_variable_inequality_at_desk_scale():
    started = time.perf_counter()
    grid = farey_fractions(4)
    for n in range(1, 4):
        family = builtin_family(3 * n, random_count=5, seed=0)
        for xs in combinations_with_replacement(grid, 3):
            verdicts = verify_generalized(n, xs)
            assert verdicts.all_hold, (n, xs)
            lhs, rhs = pair_by_fractions(n, xs)
            for f in family:
                value = rasa_form_general(n, xs, f)
                gap = expectation(rhs, f) - expectation(lhs, f)
                assert value == 3 * gap, (n, xs, f)
                assert value >= 0, (n, xs, f)
    elapsed = _report(
        3,
        "three-variable relations and exact bridge identity on the "
        "n<=3, denominator<=4 grid with boundary points",
        started,
    )
    assert elapsed < 120.0


def test_criterion_4_concentration_inequality_random_instances():
    started = time.perf_counter()
    rng = random.Random(2718)
    for _ in range(500):
        n = rng.randint(1, 8)
        ps = [random_probability(rng, 20) for _ in range(n)]
        assert verify_hoeffding(ps).holds, ps
    elapsed = _report(
        4, "concentration order holds on 500 seeded random instances", started
    )
    assert elapsed < 30.0


def test_criterion_5_psi_sign_pattern_on_grids():
    started = time.perf_counter()
    checked = 0
    interior2 = farey_fractions(10, include_ends=False)
    for n in range(1, 7):
        for i, x in enumerate(interior2):
            for y in interior2[i + 1 :]:
                checked += 1
                _assert_psi_shape(n, [x, y])
    interior3 = farey_fractions(4, include_ends=False)
    for n in range(1, 4):
        for xs in combinations_with_replacement(interior3, 3):
            if all(x == xs[0] for x in xs):
                continue
            checked += 1
            _assert_psi_shape(n, list(xs))
    assert checked > 2800
    _report(
        5,
        f"psi sequence has the +,-,+ two-change pattern and binomial-weighted "
        f"sum zero on {checked} grid points",
        started,
    )


def _assert_psi_shape(n, xs):
    pattern = psi_sign_pattern(n, xs)
    mn = len(pattern.values) - 1
    assert sign_changes(pattern.values) == 2, (n, xs)
    assert pattern.values[0] > 0 and pattern.values[-1] > 0, (n, xs)
    assert sum(math.comb(mn, k) * v for k, v in enumerate(pattern.values)) == 0


def test_criterion_6_decision_procedure_equivalence():
    started = time.perf_counter()
    rng = random.Random(161803)
    a, b = F(0), F(10)
    ohlin_applied = 0
    held = 0
    for _ in range(1000):
        lhs, rhs = random_equal_mean_pair(rng)
        oracle = cx_compare_oracle(lhs, rhs).holds
        assert levin_steckin_check(lhs, rhs, a, b).holds == oracle
        assert szostok_decision(lhs, rhs, a, b).decision == oracle
        if ohlin_check(lhs, rhs).applies:
            ohlin_applied += 1
            assert oracle
        held += oracle
    assert 0 < held < 1000  # both outcomes must be exercised
    assert ohlin_applied > 0
    _report(
        6,
        f"oracle == levin-steckin == szostok on 1000 seeded pairs "
        f"({held} hold, ohlin applied {ohlin_applied} times)",
        started,
    )


def test_criterion_7_algebraic_invariants():
    started = time.perf_counter()
    rng = random.Random(31415)
    for _ in range(200):
        a = random_weighted_distribution(rng)
        b = random_weighted_distribution(rng)
        c = random_weighted_distribution(rng)
        assert convolve(a, b) == convolve(b, a)
        assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))
        assert convolve(a, b).mean() == a.mean() + b.mean()
    for _ in range(200):
        n = rng.randint(1, 8)
        p = F(rng.randint(0, 12), 12)
        assert convolve_many([bernoulli(p)] * n) == binomial(n, p)
    for _ in range(200):
        lhs, rhs = random_equal_mean_pair(rng)
        factor = F(rng.randint(1, 12), rng.randint(1, 12))
        assert (
            cx_compare_oracle(lhs, rhs).holds
            == cx_compare_oracle(
                scale_by_fractions(lhs, factor), scale_by_fractions(rhs, factor)
            ).holds
        )
    _report(
        7,
        "convolution algebra, binomial-from-bernoulli, mean linearity and "
        "scale invariance on 200 seeded instances each",
        started,
    )


def test_criterion_8_cli_determinism():
    started = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    payloads = []
    for run in range(2):
        proc = subprocess.run(
            [
                sys.executable, "-m", "convexorder", "verify-rasa",
                "--n", "1..2", "--m", "2", "--denom", "5",
                "--seed", "1", "--jobs", "4",
            ],
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        payloads.append(proc.stdout)
    assert payloads[0] == payloads[1]
    _report(8, "two parallel CLI sweeps byte-identical with exit 0", started)
