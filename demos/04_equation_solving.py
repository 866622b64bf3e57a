"""
Solving sigma^k x = x sigma^l directly
======================================

The base case k=1 has solutions exactly when GCD(l,n) = 1, and then one
solution per choice of x(1). General valid (k,l) split {1..n} into k
blocks (the orbits of sigma^k); a solution is a bijection between source
and target blocks plus one anchor image per block, which gives the
k!(n/k)^k count.
"""

from cycleq.equation_solver import (
    InvalidParameters,
    NoSolution,
    block_partition,
    check_parameters,
    enumerate_solutions,
    min_left_exponent,
    solve_base,
)
from cycleq.permutation import canonical_sigma, compose, one_line, power

# --- base equation: sigma x = x sigma^l ------------------------------------

print("solutions of sigma x = x sigma^2 over n=5, one per anchor:")
for a in range(1, 6):
    x = solve_base(5, 2, a)
    print("  x(1)=%d ->" % a, one_line(x))

try:
    solve_base(6, 2, 1)
except NoSolution as e:
    print("n=6, l=2 has no solution:", e)
print()

# --- which (k,l) admit solutions at all ------------------------------------

n = 6
print("parameter screening for n=%d (None means valid):" % n)
for k, l in [(1, 5), (2, 4), (2, 3), (3, 3), (4, 4), (6, 6)]:
    verdict = check_parameters(n, k, l)
    print("  (k=%d, l=%d): %s" % (k, l, verdict if verdict else "None"))
print()

# --- block structure and full enumeration ----------------------------------

blocks = block_partition(6, 2)
print("orbits of sigma^2 over {1..6}:", [sorted(b) for b in blocks])
print("anchors:", tuple(b[0] for b in blocks))
print()

sols = enumerate_solutions(4, 2, 2)
print("all %d solutions of sigma^2 x = x sigma^2 over n=4:" % len(sols))
sigma = canonical_sigma(4)
s2 = power(sigma, 2)
for x in sols:
    ok = compose(s2, x) == compose(x, s2)
    print("  %s  checks: %s" % (one_line(x), ok))
print()

try:
    enumerate_solutions(6, 1, 2)
except InvalidParameters as e:
    print("(k=1, l=2) rejected for n=6:", e)
print()

# --- the minimal relation an element satisfies ------------------------------
# Every x satisfies the trivial relation sigma^n x = x sigma^n; most satisfy
# something smaller. The smallest left exponent determines the size of the
# equivalence class of x (k*n, or n^2 when nothing below n works).

for images in [(1, 2, 3, 4), (1, 3, 5, 2, 4), (2, 1, 4, 3), (2, 1, 3, 4)]:
    from cycleq.permutation import Permutation
    x = Permutation(images)
    print("min relation for %-12s ->" % one_line(x), min_left_exponent(x))
