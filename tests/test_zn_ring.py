import math

import pytest
from hypothesis import given, strategies as st

from cycleq.zn_ring import (
    ZnElement,
    divisors,
    gcd,
    is_prime,
    prime_factors,
    residue,
    to_decimal,
    totient,
    zn,
    zn_add,
    zn_mul,
    zn_sub,
)


def test_zero_class_is_written_n():
    assert zn_mul(zn(6, 12), zn(2, 12)) == zn(12, 12)
    assert zn(12, 12).value == 12
    assert residue(0, 12) == 12
    assert residue(24, 12) == 12


def test_mul_examples():
    assert zn_mul(zn(7, 12), zn(2, 12)).value == 2
    assert zn_mul(zn(1, 5), zn(4, 5)).value == 4


def test_add_sub_examples():
    assert zn_add(zn(10, 12), zn(5, 12)).value == 3
    assert zn_sub(zn(3, 12), zn(5, 12)).value == 10


def test_modulus_mismatch_rejected():
    with pytest.raises(ValueError):
        zn_mul(zn(1, 5), zn(1, 6))
    with pytest.raises(ValueError):
        zn_add(zn(1, 5), zn(1, 6))
    with pytest.raises(ValueError):
        zn_sub(zn(1, 5), zn(1, 6))


def test_element_validation():
    with pytest.raises(ValueError):
        ZnElement(0, 12)
    with pytest.raises(ValueError):
        ZnElement(13, 12)
    with pytest.raises(ValueError):
        ZnElement(1, 0)


def test_ring_laws_exhaustive_small_moduli():
    # associativity and commutativity for every n up to 20
    for n in range(1, 21):
        elems = [ZnElement(v, n) for v in range(1, n + 1)]
        one = ZnElement(1, n)
        zero = ZnElement(n, n)
        for a in elems:
            assert zn_mul(a, one) == a
            assert zn_add(a, zero) == a
            assert zn_sub(a, zero) == a
            for b in elems:
                assert zn_mul(a, b) == zn_mul(b, a)
                assert zn_add(a, b) == zn_add(b, a)
                for c in elems:
                    assert zn_mul(zn_mul(a, b), c) == zn_mul(a, zn_mul(b, c))
                    assert zn_add(zn_add(a, b), c) == zn_add(a, zn_add(b, c))


@given(st.integers(min_value=1, max_value=50),
       st.integers(min_value=-200, max_value=200),
       st.integers(min_value=-200, max_value=200))
def test_ops_agree_with_plain_modular_arithmetic(n, x, y):
    a, b = zn(x, n), zn(y, n)
    assert zn_mul(a, b).value % n == (x * y) % n
    assert zn_add(a, b).value % n == (x + y) % n
    assert zn_sub(a, b).value % n == (x - y) % n


def test_gcd_is_the_stdlib_gcd():
    assert gcd is math.gcd
    assert gcd(12, 8) == 4
    assert gcd(7, 12) == 1


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
        assert totient(m) == sum(1 for j in range(1, m + 1) if gcd(j, m) == 1), m


def test_to_decimal_past_the_int_str_guard():
    # inner chunks keep their leading zeros, and chunk boundaries carry over
    assert to_decimal(0) == "0"
    assert to_decimal(12345) == "12345"
    assert to_decimal(10 ** 4000) == "1" + "0" * 4000
    assert to_decimal(10 ** 4000 - 1) == "9" * 4000
    assert to_decimal(10 ** 9000 + 7) == "1" + "0" * 8999 + "7"
    assert to_decimal(-(3 * 10 ** 8000 + 42)) == "-3" + "0" * 7998 + "42"


def test_totient_rejects_nonpositive():
    with pytest.raises(ValueError):
        totient(0)


def test_divisors_examples():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(7) == [1, 7]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]


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
