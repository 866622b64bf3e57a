"""
Believing the formulas: exhaustive cross-checks at small n
==========================================================

Everything the counting layer claims can be checked against a walk over
S_n for small n -- no number theory, just the orbits of x -> sigma x and
x -> x sigma. Factorial growth caps this around n=8, but agreement there
plus exact arithmetic above is the whole point.
"""

from math import factorial

from cycleq.counting import p_count, predicted_size_histogram, q_count
from cycleq.equation_solver import check_parameters
from cycleq.oracle import enumerate_classes, sigma_independence_check

# --- class counts and size spectra ------------------------------------------

print(" n   formula   brute    histogram")
for n in range(1, 8):
    rep = enumerate_classes(n)
    agree = "ok" if (rep.class_count == q_count(n)
                     and rep.size_histogram == predicted_size_histogram(n)) else "MISMATCH"
    print("%2d   %7d  %6d    %s  [%s]"
          % (n, q_count(n), rep.class_count, rep.size_histogram, agree))
print()

# --- per-family solution counts ----------------------------------------------

n = 6
counts = enumerate_classes(n).solution_counts
print("solution counts over n=%d, formula vs one class walk over the %d "
      "permutations with xi(1) = 1:" % (n, factorial(n - 1)))
# every equation the solver accepts except (n, n), in ascending (k, l)
for k, l in [(k, l) for k in range(1, n) for l in range(1, n)
             if check_parameters(n, k, l) is None]:
    brute = counts.get((k, l), 0)
    print("  (k=%d, l=%d): formula %4d  brute %4d  %s"
          % (k, l, p_count(n, k), brute,
             "ok" if brute == p_count(n, k) else "MISMATCH"))
print()

# --- the choice of full cycle does not matter ---------------------------------
# Conjugating sigma (or inverting it) permutes the classes around but the
# count and the size spectrum stay put. Checked on seeded random conjugates.

for n in range(2, 7):
    print("n=%d: independent of the cycle chosen -> %s"
          % (n, sigma_independence_check(n)))

# classes with their minimal relations, for one small case
rep = enumerate_classes(4, with_classes=True)
print()
print("the %d classes of n=4:" % rep.class_count)
for x, size, mle in rep.per_class:
    print("  representative %s  size %2d  minimal relation %s"
          % (tuple(x.images), size, mle if mle else "none below n"))
