"""Acceptance suite: nine end-to-end checks, one test per criterion.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion. Each test prints a PASS summary (visible with -s) including the
measured runtime where a budget applies. Checks are deliberately
self-contained: expected values are either frozen literals or recomputed
here from first principles rather than routed through the code under test.
"""

import time
from math import factorial, gcd

import pytest

from cycleq.class_graph import build_gamma
from cycleq.counting import count_table, h_count, q_count, q_prime, wilson_check
from cycleq.equation_solver import (
    NoSolution,
    check_parameters,
    enumerate_solutions,
    solve_base,
)
from cycleq.oracle import (
    count_equation_solutions,
    enumerate_classes,
    sigma_independence_check,
)
from cycleq.permutation import canonical_sigma, compose, power
from cycleq.zn_ring import divisors, totient

GOLDEN_COUNTS = {
    2: 1, 3: 2, 4: 3, 5: 8, 6: 24, 7: 108, 8: 640, 9: 4492, 10: 36336,
    11: 329900, 12: 3326788, 13: 36846288, 14: 444790512, 15: 5811886656,
    16: 81729688428, 17: 1230752346368, 18: 19760413251956,
    19: 336967037143596,
}

MATRIX_12 = {
    "divisors": (1, 2, 3, 4, 6, 12),
    "phi": (4, 2, 2, 2, 1, 1),
    "h": (1, 2, 10, 39, 628, 3326054),
    "products": (4, 4, 20, 78, 628, 3326054),
    "total": 3326788,
}

GAMMA_12_VERTICES = {
    (1, 1), (1, 5), (1, 7), (1, 11),
    (2, 2), (2, 10), (3, 3), (3, 9),
    (4, 4), (4, 8), (6, 6), (12, 12),
}


def _trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_01_golden_class_counts():
    start = time.perf_counter()
    computed = {n: q_count(n) for n in range(2, 20)}
    elapsed = time.perf_counter() - start
    assert computed == GOLDEN_COUNTS
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    print(f"PASS 1: class counts n=2..19 match the golden sequence "
          f"exactly ({elapsed:.3f}s)")


def test_02_divisor_matrix_n12():
    count_table(12)  # warm-up call, untimed
    start = time.perf_counter()
    table = count_table(12)
    elapsed = time.perf_counter() - start
    assert tuple(c.k for c in table.columns) == MATRIX_12["divisors"]
    assert tuple(c.phi for c in table.columns) == MATRIX_12["phi"]
    assert tuple(c.h for c in table.columns) == MATRIX_12["h"]
    assert tuple(c.product for c in table.columns) == MATRIX_12["products"]
    assert table.total == MATRIX_12["total"]
    assert elapsed < 0.010, f"took {elapsed * 1000:.2f}ms, budget 10ms"
    print(f"PASS 2: n=12 tally matrix cell-exact ({elapsed * 1000:.2f}ms warm)")


def test_03_brute_force_matches_formula():
    start = time.perf_counter()
    for n in range(1, 9):
        report = enumerate_classes(n)
        assert report.class_count == q_count(n), n
        expected_hist = {}
        for k in divisors(n):
            if k < n:
                mult = h_count(n, k) * totient(n // k)
                if mult:
                    expected_hist[k * n] = mult
        if h_count(n, n):
            expected_hist[n * n] = h_count(n, n)
        assert report.size_histogram == expected_hist, n
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
    print(f"PASS 3: exhaustive class enumeration matches the counting "
          f"formula and histogram for n=1..8 ({elapsed:.1f}s)")


def test_04_solution_counts_and_enumeration():
    start = time.perf_counter()
    pairs_checked = 0
    for n in range(1, 8):
        sigma = canonical_sigma(n)
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                if check_parameters(n, k, l) is not None:
                    continue
                expected = factorial(k) * (n // k) ** k
                assert count_equation_solutions(n, k, l) == expected, (n, k, l)
                sols = enumerate_solutions(n, k, l)
                assert len(sols) == expected, (n, k, l)
                assert len(set(sols)) == expected, (n, k, l)
                sig_k, sig_l = power(sigma, k), power(sigma, l)
                for x in sols:
                    assert compose(sig_k, x) == compose(x, sig_l), (n, k, l, x)
                pairs_checked += 1
    elapsed = time.perf_counter() - start
    assert pairs_checked >= 25
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    print(f"PASS 4: solution counts equal k!(n/k)^k and enumeration is "
          f"complete, distinct, verified for {pairs_checked} parameter "
          f"pairs, n=1..7 ({elapsed:.1f}s)")


def test_05_base_equation_boundary():
    for n in range(1, 13):
        sigma = canonical_sigma(n)
        for l in range(1, n + 1):
            if gcd(l, n) == 1:
                x = solve_base(n, l, 1)
                assert compose(sigma, x) == compose(x, power(sigma, l)), (n, l)
            else:
                with pytest.raises(NoSolution):
                    solve_base(n, l, 1)
    for n in range(2, 8):
        for l in range(1, n):
            if gcd(l, n) > 1:
                assert count_equation_solutions(n, 1, l) == 0, (n, l)
    print("PASS 5: base equation solvable exactly when GCD(l,n)=1 "
          "(n=1..12), zero brute-force solutions otherwise (n=2..7)")


def test_06_graph_structure():
    start = time.perf_counter()
    for n in range(1, 201):
        g = build_gamma(n)
        assert len(g.vertices) == n
        for k in divisors(n):
            assert sum(1 for v in g.vertices if v.k == k) == totient(n // k)
        sinks = {v for v in g.vertices
                 if not any(a for a in g.arcs if a[0] == v)}
        assert sinks == {(n, n)}
        targets = {a[1] for a in g.arcs}
        sources = {v for v in g.vertices if v not in targets}
        assert sources == {v for v in g.vertices
                           if v.k == 1 and gcd(v.l, n) == 1}
    elapsed = time.perf_counter() - start
    assert set(build_gamma(12).vertices) == GAMMA_12_VERTICES
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"
    print(f"PASS 6: divisor-graph structure holds for n=1..200 and the "
          f"n=12 vertex set is the expected twelve ({elapsed:.1f}s)")


def test_07_prime_closed_form_and_wilson():
    for p in range(2, 102):
        if _trial_division_prime(p):
            assert q_prime(p) == q_count(p), p
    for n in range(2, 1001):
        assert wilson_check(n) == _trial_division_prime(n), n
    print("PASS 7: prime closed form agrees with the recursion for "
          "primes <= 101; factorial primality test correct for n=2..1000")


def test_08_totient_divisor_sum():
    for n in range(1, 1001):
        assert sum(totient(d) for d in divisors(n)) == n, n
    print("PASS 8: totient sums over divisors reproduce n for n=1..1000")


def test_09_sigma_independence():
    start = time.perf_counter()
    for n in range(2, 8):
        assert sigma_independence_check(n), n
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"
    print(f"PASS 9: class structure independent of the cycle chosen, "
          f"n=2..7 with the default seed ({elapsed:.1f}s)")
