"""Arithmetic in {1..n} under mod-n operations, where n itself stands for zero.

Everything downstream indexes residues by values in the window {1..n} instead
of the usual {0..n-1}: exponents of an n-cycle only matter mod n, and writing
the zero class as n keeps divisors, graph vertices and one-line permutation
images in the same value range. This module also carries the divisor and
totient helpers the counting layer needs (prime_factors is the one trial
division, and every divisor of n, with its totient, is built from its
result), and the checked exact division that tau and q_prime go through.
"""

from __future__ import annotations

__all__ = [
    "InexactDivision",
    "divisors",
    "is_prime",
    "prime_factors",
    "residue",
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
    return sorted(_divisor_totients(n))


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


def _divisor_totients(n: int) -> dict[int, int]:
    """{d: totient(d)} for every divisor d of n, from one factorization of
    n: multiplying a divisor d prime to p by p**i multiplies its totient by
    p**(i-1) * (p-1)."""
    phi = {1: 1}
    for p in prime_factors(n):
        coprime = list(phi.items())
        q, t = p, p - 1
        while n % q == 0:
            for d, f in coprime:
                phi[d * q] = f * t
            q, t = q * p, t * p
    return phi


class InexactDivision(ArithmeticError):
    """A count formula left a remainder; never rounded over."""


def _exact_div(numerator: int, denominator: int, what: str) -> int:
    """numerator / denominator; a remainder raises instead of rounding."""
    q, rem = divmod(numerator, denominator)
    if rem:
        raise InexactDivision(
            f"{what}: division by {denominator} leaves remainder {rem}")
    return q
