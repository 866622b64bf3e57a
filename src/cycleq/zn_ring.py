"""Arithmetic in {1..n} under mod-n operations, where n itself stands for zero.

Everything downstream indexes residues by values in the window {1..n} instead
of the usual {0..n-1}: exponents of an n-cycle only matter mod n, and writing
the zero class as n keeps divisors, graph vertices and one-line permutation
images in the same value range. This module also carries the divisor and
totient helpers the counting layer needs, the checked exact division that
counting and the graph's tau both go through, and the decimal rendering
that every printed count goes through.
"""

from __future__ import annotations

from math import gcd, isqrt  # gcd is re-exported on purpose; no point rewriting it

__all__ = [
    "InexactDivision",
    "divisors",
    "gcd",
    "is_prime",
    "prime_factors",
    "residue",
    "to_decimal",
    "totient",
]


def residue(x: int, n: int) -> int:
    """Representative of x mod n inside {1..n}; the zero class maps to n."""
    r = x % n
    return n if r == 0 else r


# ---------------------------------------------------------------------------
# divisors, primes, totient
# ---------------------------------------------------------------------------

def divisors(n: int) -> list[int]:
    """All divisors of n in ascending order, 1 and n included."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return small + large[::-1]


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending. prime_factors(1) == []."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out.append(m)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [n]


def totient(m: int) -> int:
    """Euler's totient by factorization; totient(1) == 1."""
    if m < 1:
        raise ValueError(f"totient is defined for positive integers, got {m}")
    result = m
    for p in prime_factors(m):
        result = result // p * (p - 1)
    return result


class InexactDivision(ArithmeticError):
    """A count formula left a remainder; never rounded over."""


def _exact_div(numerator: int, denominator: int, what: str) -> int:
    """numerator / denominator; a remainder raises instead of rounding."""
    q, rem = divmod(numerator, denominator)
    if rem:
        raise InexactDivision(
            f"{what}: division by {denominator} leaves remainder {rem}")
    return q


# Python refuses str() of an int with more than 4300 digits by default
# (sys.int_max_str_digits); class counts pass that from n = 1561 on.
_CHUNK_DIGITS = 4000
_CHUNK = 10 ** _CHUNK_DIGITS


def to_decimal(x: int) -> str:
    """str(x) for an int of any size, converted in chunks below the guard;
    a loop, not recursion, so no size of x meets the recursion limit."""
    sign, x = ("-", -x) if x < 0 else ("", x)
    chunks = []
    while x >= _CHUNK:
        x, lo = divmod(x, _CHUNK)
        chunks.append(str(lo).zfill(_CHUNK_DIGITS))
    chunks.append(sign + str(x))
    return "".join(reversed(chunks))
