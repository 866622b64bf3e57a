"""Arithmetic in {1..n} under mod-n operations, where n itself stands for zero.

Everything downstream indexes residues by values in the window {1..n} instead
of the usual {0..n-1}: exponents of an n-cycle only matter mod n, and writing
the zero class as n keeps divisors, graph vertices and one-line permutation
images in the same value range. This module also carries the divisor and
totient helpers the counting layer needs (prime_factors is the one trial
division, and every divisor of n, with its totient, is built from its
result), the checked exact division that tau and q_prime go through,
and the decimal rendering of an int count of any size: 4000-digit chunks up
to 2**16 bits (about 19 700 digits), and past that a split by bit width
joined in the C decimal module, subquadratic and log2 of the bit length
deep. (The CLI counts large n in Decimals, which print without it; see
counting.)
"""

from __future__ import annotations

__all__ = [
    "InexactDivision",
    "divisors",
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


# Python refuses str() of an int with more than 4300 digits by default
# (sys.int_max_str_digits); class counts pass that from n = 1561 on.
_CHUNK_DIGITS = 4000
_CHUNK = 10 ** _CHUNK_DIGITS
# Past 2**16 bits (about 19 700 digits) splitting by bit width and joining
# in the decimal module beats peeling chunks; below it the chunks win.
_SPLIT_BITS = 1 << 16
_LEAF_BITS = 4096


def to_decimal(x: int) -> str:
    """str(x) for an int of any size, past the int/str guard.

    Below _SPLIT_BITS a loop peels 4000-digit chunks off the low end, each
    under the guard: quadratic, but the cheaper method at that size. Above
    it, as in CPython 3.12's Lib/_pylong.py, x is split by bit width into
    hi * 2**w + lo, recursively down to leaves of at most _LEAF_BITS bits,
    and the halves are joined in the C decimal module (libmpdec), whose
    multiplication of huge operands is subquadratic; 2**w is computed once
    per width and call. The recursion is log2 of the bit length deep, and
    an Inexact trap makes any rounding raise instead of printing wrong
    digits.
    """
    sign, x = ("-", -x) if x < 0 else ("", x)
    if x.bit_length() > _SPLIT_BITS:
        return sign + _split_decimal(x)
    chunks = []
    while x >= _CHUNK:
        x, lo = divmod(x, _CHUNK)
        chunks.append(str(lo).zfill(_CHUNK_DIGITS))
    chunks.append(sign + str(x))
    return "".join(reversed(chunks))


def _split_decimal(x: int) -> str:
    """str(x) for x >= 0 through the decimal module; see to_decimal."""
    import decimal

    D = decimal.Decimal
    pow2 = {}

    def two_to(w):
        p = pow2.get(w)
        if p is None:
            h = w >> 1
            p = pow2[w] = (D(2) ** w if w <= _LEAF_BITS
                           else two_to(h) * two_to(w - h))
        return p

    def convert(x, w):
        # x < 2**w
        if w <= _LEAF_BITS:
            return D(x)
        h = w >> 1
        hi = x >> h
        return convert(hi, w - h) * two_to(h) + convert(x - (hi << h), h)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        return str(convert(x, x.bit_length()))
