import math

import pytest
from hypothesis import given, strategies as st

import cycleq.zn_ring as zn
from cycleq.zn_ring import (
    divisors,
    is_prime,
    prime_factors,
    residue,
    totient,
)


def test_zero_class_is_written_n():
    assert residue(6 * 2, 12) == 12
    assert residue(0, 12) == 12
    assert residue(24, 12) == 12


def test_mul_examples():
    assert residue(7 * 2, 12) == 2
    assert residue(1 * 4, 5) == 4


def test_add_sub_examples():
    assert residue(10 + 5, 12) == 3
    assert residue(3 - 5, 12) == 10


@given(st.integers(min_value=1, max_value=50),
       st.integers(min_value=-200, max_value=200),
       st.integers(min_value=-200, max_value=200))
def test_ops_agree_with_plain_modular_arithmetic(n, x, y):
    # a representative in {1..n} of the same class, also for negative input
    # and for results computed from representatives
    for value in (x, x * y, x + y, x - y):
        r = residue(value, n)
        assert 1 <= r <= n
        assert r % n == value % n
    assert residue(residue(x, n) * residue(y, n), n) == residue(x * y, n)
    assert residue(residue(x, n) + residue(y, n), n) == residue(x + y, n)


def test_totient_examples():
    assert totient(1) == 1
    assert totient(12) == 4
    assert totient(6) == 2


def test_totient_of_primes():
    for p in range(2, 1001):
        if is_prime(p):
            assert totient(p) == p - 1


def test_totient_divisor_sum_identity():
    for n in range(1, 1001):
        assert sum(totient(d) for d in divisors(n)) == n


def test_totient_matches_gcd_count():
    # the definition: how many of 1..m are coprime to m
    for m in range(1, 2001):
        assert totient(m) == sum(1 for j in range(1, m + 1) if math.gcd(j, m) == 1), m


def test_divisor_totients_match_totient():
    # built multiplicatively from one factorization of n, keyed by exactly
    # the divisors of n (found here by a scan, since divisors reads the
    # same map)
    for n in range(1, 3001):
        phi = zn._divisor_totients(n)
        assert sorted(phi) == [d for d in range(1, n + 1) if n % d == 0], n
        assert phi == {d: totient(d) for d in phi}, n


def test_totient_rejects_nonpositive():
    with pytest.raises(ValueError):
        totient(0)


def test_divisors_examples():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(7) == [1, 7]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    for n in (0, -4):
        with pytest.raises(ValueError, match=f"n must be positive, got {n}"):
            divisors(n)


def test_divisors_are_ascending_and_complete():
    for n in range(1, 300):
        ds = divisors(n)
        assert ds == sorted(ds)
        assert ds == [d for d in range(1, n + 1) if n % d == 0]


def test_prime_factors_examples():
    assert prime_factors(1) == []
    assert prime_factors(12) == [2, 3]
    assert prime_factors(97) == [97]
    assert prime_factors(360) == [2, 3, 5]


def test_is_prime_against_naive():
    def naive(n):
        return n >= 2 and all(n % d for d in range(2, n))
    for n in range(0, 400):
        assert is_prime(n) == naive(n)
