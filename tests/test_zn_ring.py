import math
import sys

import pytest
from hypothesis import given, strategies as st

import cycleq.zn_ring as zn
from cycleq.zn_ring import (
    divisors,
    is_prime,
    prime_factors,
    residue,
    to_decimal,
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


def test_to_decimal_past_the_int_str_guard():
    # inner chunks keep their leading zeros, and chunk boundaries carry over
    assert to_decimal(0) == "0"
    assert to_decimal(12345) == "12345"
    assert to_decimal(10 ** 4000) == "1" + "0" * 4000
    assert to_decimal(10 ** 4000 - 1) == "9" * 4000
    assert to_decimal(10 ** 9000 + 7) == "1" + "0" * 8999 + "7"
    assert to_decimal(-(3 * 10 ** 8000 + 42)) == "-3" + "0" * 7998 + "42"


def test_to_decimal_has_no_depth_limit(monkeypatch):
    # one-digit chunks turn 10**1500 + 12345 into 1501 chunks, more than
    # the default recursion limit allows a call per chunk
    monkeypatch.setattr(zn, "_CHUNK_DIGITS", 1)
    monkeypatch.setattr(zn, "_CHUNK", 10)
    x = 10 ** 1500 + 12345
    assert to_decimal(x) == str(x)
    assert to_decimal(-x) == str(-x)


@pytest.fixture
def unguarded_str():
    """str with the int/str digit guard lifted where there is one (3.11+)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    yield str
    if limit is not None:
        sys.set_int_max_str_digits(limit)


def _crossover_sweep():
    split, leaf = zn._SPLIT_BITS, zn._LEAF_BITS
    xs = [0, 1, -1]
    # 10**19729 is the first power of ten past 2**16 bits
    for k in range(19724, 19734):
        xs += [10 ** k, 10 ** k - 1, -(10 ** k), 1 - 10 ** k]
    for w in (split, split + 1, 2 * split, 3 * split + 7):
        h = w >> 1
        xs += [
            (1 << w) - 1,                       # every leaf all ones
            1 << (w - 1),                       # every bit below the top clear
            (1 << w) - 1 - ((1 << h) - 1),      # low half all zeros
            (1 << (w - 1)) | ((1 << h) - 1),    # low half all ones
            (1 << (w - 1)) | (1 << h),          # hi ends at the split
            (1 << (w - 1)) | (1 << (h - 1)),    # lo starts at the split
            (1 << (w - 1)) | leaf,              # a short low leaf
        ]
    # low halves whose decimal digits start with zeros
    for digits in (19720, 19740, 40000):
        xs += [10 ** digits + 7, 3 * 10 ** digits + 10 ** (digits // 2),
               (10 ** digits + 1) * 10 ** (digits // 2 + 3)]
    return xs


def test_to_decimal_across_the_split_crossover(unguarded_str):
    for x in _crossover_sweep():
        assert to_decimal(x) == unguarded_str(x), x.bit_length()


def test_to_decimal_on_class_counts(unguarded_str):
    # 78 018 and 238 914 digits, both on the decimal-module side
    from cycleq.counting import q_count
    for n in (20160, 55440):
        q = q_count(n)
        assert q.bit_length() > zn._SPLIT_BITS
        assert to_decimal(q) == unguarded_str(q), n


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
