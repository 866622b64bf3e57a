"""
Residues that live in {1..n} and permutations that compose left to right
========================================================================

Two conventions everything else in the package leans on, so worth seeing
in isolation first.
"""

from cycleq.zn_ring import divisors, residue, totient
from cycleq.permutation import (
    Permutation,
    canonical_sigma,
    compose,
    cycle_string,
    inverse,
    one_line,
    order,
    power,
)

# --- the ring, with n standing in for 0 ---------------------------------
# Residues are kept in {1..n}: a multiple of n is written n, not 0. That
# keeps every residue usable directly as a point of {1..n}.

n = 12
print("mod-%d arithmetic with representatives 1..%d" % (n, n))
print("  6*2  =", residue(6 * 2, n))   # 12, not 0
print("  7*2  =", residue(7 * 2, n))   # 14 -> 2
print("  10+5 =", residue(10 + 5, n))  # 15 -> 3
print("  3-5  =", residue(3 - 5, n))   # -2 -> 10
print("  divisors(12) =", divisors(12))
print("  totient(12)  =", totient(12))
print()

# --- permutations in one-line notation -----------------------------------
# A permutation is the tuple of images (x(1), ..., x(n)). Composition is
# left to right: (ab)(i) = b(a(i)) -- apply a first, then b. This is the
# word order, not the usual function order, and it matters.

a = Permutation((2, 3, 1))
b = Permutation((3, 2, 1))
print("a =", one_line(a), " b =", one_line(b))
print("ab =", one_line(compose(a, b)), "  (a first, then b)")
print("ba =", one_line(compose(b, a)), "  (not the same)")
print()

# The distinguished full cycle: sigma = (1 2 ... n), in one-line notation
# [2 3 ... n 1]. Its powers shift by k, and its order is exactly n.

sigma = canonical_sigma(5)
print("sigma      =", one_line(sigma), "=", cycle_string(sigma))
print("sigma^2    =", one_line(power(sigma, 2)))
print("sigma^5    =", one_line(power(sigma, 5)), " (back to identity)")
print("order      =", order(sigma))
print("inverse    =", one_line(inverse(sigma)))
print()

# sigma^k moves the point i to i+k mod 5; check by direct application
for k in range(1, 6):
    images = [power(sigma, k)(i) for i in range(1, 6)]
    print("  sigma^%d sends 1..5 to %s" % (k, images))
