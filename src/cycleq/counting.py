"""Exact class counting. Everything here is plain Python integers.

For k dividing n, p_count(n, k) = k! * (n/k)**k is the number of solutions
of the shift equation with left exponent k; h(n, k), the h of column k of
count_table(n), is the number of equivalence classes attached to any single
graph vertex with first coordinate k; and q_count(n) sums h over the
divisors weighted by how many vertices carry each divisor. The recursion
needs only divisors, totients and exact integer arithmetic, never the graph
or its tau. Divisions in the recursion must come out exact; a remainder
means a bug upstream and raises InexactDivision rather than rounding
anything over.
"""

from __future__ import annotations

from collections import namedtuple
from math import factorial, perm

from .zn_ring import _divisor_totients, _exact_div, is_prime, to_decimal

__all__ = [
    "Column",
    "CountTable",
    "NotPrime",
    "count_table",
    "p_count",
    "predicted_size_histogram",
    "q_count",
    "q_prime",
    "wilson_check",
]


class NotPrime(ValueError):
    pass


def p_count(n: int, k: int) -> int:
    """Solutions of the left-exponent-k shift equation: k! * (n/k)**k."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if k < 1 or n % k:
        raise ValueError(f"k={k} must be a divisor of n={n}")
    return factorial(k) * (n // k) ** k


# phi = totient(n/k), the number of vertices with first coordinate k;
# h = classes per such vertex; product = phi * h
Column = namedtuple("Column", "k phi h product")


class CountTable(namedtuple("CountTable", "n columns total")):
    """Per-divisor tally whose grand total is the class count for n: n, the
    tuple of Columns in ascending k, and the total."""

    __slots__ = ()

    def _decimals(self) -> tuple[list[str], list[str]]:
        """The h and product strings of every column. A column with
        phi(n/k) = 1 (k = n and k = n/2, the two largest) has product = h,
        so its count is converted once."""
        hs = [to_decimal(c.h) for c in self.columns]
        products = [h if c.phi == 1 else to_decimal(c.product)
                    for c, h in zip(self.columns, hs)]
        return hs, products

    def to_text(self) -> str:
        labels = ("k|n", "phi(n/k)", "h(n,k)", "phi*h")
        rows = [
            [str(c.k) for c in self.columns],
            [to_decimal(c.phi) for c in self.columns],
            *self._decimals(),
        ]
        label_w = max(len(s) for s in labels)
        widths = [max(len(rows[r][j]) for r in range(4))
                  for j in range(len(self.columns))]
        lines = [
            label.ljust(label_w) + "  " +
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            for label, row in zip(labels, rows)
        ]
        lines.append(f"|Q_{self.n}| = {to_decimal(self.total)}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """{"n": n, "columns": [{"k": k, "phi": "...", "h": "...",
        "product": "..."}, ...], "total": "..."}, byte for byte what
        json.dumps writes for it. Counts grow fast, so they travel as
        decimal strings."""
        columns = ", ".join([
            f'{{"k": {c.k}, "phi": "{to_decimal(c.phi)}", '
            f'"h": "{h}", "product": "{product}"}}'
            for c, h, product in zip(self.columns, *self._decimals())])
        return (f'{{"n": {self.n}, "columns": [{columns}], '
                f'"total": "{to_decimal(self.total)}"}}')


def count_table(n: int) -> CountTable:
    """The full tally for n: one column per divisor k of n, ascending.

    With G(k) = k * phi(n/k) * h(n, k), n * G(k) permutations have k as
    their least left exponent. Summed over r | k these are the
    phi(n/k) * p(n, k) solutions of the phi(n/k) equations with left
    exponent k, so G(k) = phi(n/k) * (k-1)! * (n/k)**(k-1) minus the G(r)
    of the proper divisors r of k: the paper's recursion multiplied through
    by phi(n/k), which cancels tau(k, r) = phi(n/r) / phi(n/k). The proper
    divisors of k are the divisors of n before it that divide it. (k-1)! is
    chained in ascending k, each step one math.perm(k-1, k-prev), the
    product prev * ... * (k-1), which CPython forms as a balanced product
    in C. Every k and every phi(n/k) is read off one map of the totients of
    n's divisors, built from one factorization of n.
    """
    totients = _divisor_totients(n)
    ks = sorted(totients)
    gs: list[int] = []
    cols = []
    fact, prev = 1, 1
    for k in ks:
        fact *= perm(k - 1, k - prev)
        prev = k
        phi = totients[n // k]
        # gs holds G(r) for the divisors r before k; zip stops there
        g = (phi * fact * (n // k) ** (k - 1)
             - sum([gr for r, gr in zip(ks, gs) if k % r == 0]))
        gs.append(g)
        h = _exact_div(g, k * phi, f"h({n},{k})")
        cols.append(Column(k, phi, h, phi * h))
    return CountTable(n, tuple(cols), sum(c.product for c in cols))


def q_count(n: int) -> int:
    """Number of equivalence classes of S_n under two-sided shift powers."""
    return count_table(n).total


def predicted_size_histogram(n: int) -> dict[int, int]:
    """Class sizes with multiplicities implied by the tally.

    A vertex with first coordinate k < n carries classes of size k*n, and
    the maximal vertex carries the relation-free classes of size n*n.
    """
    hist: dict[int, int] = {}
    for col in count_table(n).columns:
        size = col.k * n if col.k < n else n * n
        if col.product:
            hist[size] = hist.get(size, 0) + col.product
    return dict(sorted(hist.items()))


def q_prime(n: int) -> int:
    """Closed form for prime n: ((n-1)! + (n-1)**2) / n.

    The division is exact precisely because n is prime (Wilson), so a
    remainder is impossible for valid input and raises if it ever appears.
    """
    if not is_prime(n):
        raise NotPrime(f"{n} is not prime")
    return _exact_div(factorial(n - 1) + (n - 1) ** 2, n,
                      f"({n-1})! + ({n-1})^2")


def wilson_check(n: int) -> bool:
    """True when (n-1)! + 1 == 0 mod n, which holds exactly for primes."""
    if n < 2:
        raise ValueError(f"wilson_check needs n >= 2, got {n}")
    acc = 1
    for i in range(2, n):
        acc = acc * i % n
    return (acc + 1) % n == 0
