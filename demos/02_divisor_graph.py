"""
The divisor graph that organizes the equation families
======================================================

Vertices <k,l> index families of exponent pairs for which the two-sided
equation sigma^k x = x sigma^l has solutions: k divides n, k divides l,
and l/k is coprime to n/k (with a lone sink <n,n> on top). Arcs multiply
the vertex by a prime divisor of n, so walking upward saturates toward
the sink. The number of vertices is always exactly n.
"""

from collections import defaultdict

from cycleq.class_graph import build_gamma, export_dot, precedes, tau
from cycleq.zn_ring import divisors, totient

n = 12
g = build_gamma(n)

by_k = defaultdict(list)
for v in g.vertices:  # ascending (k,l), as build_gamma lists them
    by_k[v.k].append(v.l)

print("Gamma_%d has %d vertices:" % (n, len(g.vertices)))
for k in sorted(by_k):
    ls = by_k[k]
    print("  k=%-2d  l in %-18s (phi(%d/%d) = %d)"
          % (k, ls, n, k, totient(n // k)))
print()

print("%d arcs; each multiplies both coordinates by a prime dividing n:"
      % len(g.arcs))
for a, b in g.arcs:
    p = b.k // a.k
    print("  <%d,%d> -> <%d,%d>   (times %d)" % (a.k, a.l, b.k, b.l, p))
print()

# Path order: u precedes v when some directed path joins them. The sink
# <n,n> is reachable from everything else.
sink = g.vertices[-1]
reachable = sum(1 for v in g.vertices if v != sink and precedes(n, v, sink))
print("vertices strictly below the sink:", reachable, "of", len(g.vertices) - 1)
print()

# tau(n, k, r) counts r-vertices strictly below <k,k>; these are the
# correction terms in the paper's class-count recursion. cycleq.counting
# multiplies that recursion through by phi(n/k), which cancels them.
print("tau(12, 12, r) for proper divisors r of 12:")
for r in divisors(n):
    if r < n:
        print("  r=%-2d -> %d" % (r, tau(n, n, r)))
print()

# The DOT export is stable (sorted) so diffs are meaningful.
print(export_dot(6))
