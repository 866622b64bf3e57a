"""Exact class counting, in exact integer arithmetic throughout.

For k dividing n, p_count(n, k) = k! * (n/k)**k is the number of solutions
of the shift equation with left exponent k; h(n, k), the h of column k of
count_table(n), is the number of equivalence classes attached to any single
graph vertex with first coordinate k; and q_count(n) sums h over the
divisors weighted by how many vertices carry each divisor. The recursion
needs only divisors, totients and exact integer arithmetic, never the graph
or its tau. Divisions in the recursion must come out exact; a remainder
means a bug upstream and raises InexactDivision rather than rounding
anything over.

One loop, _tally, runs the recursion for every count; per divisor it
subtracts the lower G(r) once, as one accumulated sum.

The public functions return Python ints. The counts have Theta(n log n)
digits, and CPython turns an int into decimal digits in quadratic time and
refuses past 4300 digits (from n = 1561 on), so the table the CLI prints
(_printable_table) runs the same recursion on exact decimal.Decimal
integers from n = _DECIMAL_FROM on: libmpdec holds them in base 10**19, so
printing one is linear, and multiplies large ones by a number-theoretic
transform. Below that n the CLI counts in ints too, and decimal is not
imported. `table`'s range of n is one pass (_printable_totals) that
carries (n-1)! from n to n + 1, an int below the switch and a Decimal from
it on. Every count is printed with str(); CountTable.to_text and to_json
print an int table from _DECIMAL_FROM on through that Decimal recount.
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import nullcontext
from math import factorial, perm

from .zn_ring import InexactDivision, _divisor_totients, _exact_div, is_prime

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
    tuple of Columns in ascending k, and the total. to_text and to_json
    print every count with str(); an int table from _DECIMAL_FROM on, whose
    counts may pass Python's 4300-digit int/str limit, prints the digits of
    its Decimal recount."""

    __slots__ = ()

    def _printable(self) -> CountTable:
        """The table whose counts str() prints: an int table from
        _DECIMAL_FROM on is recounted in Decimals (_printable_table), once
        it is checked to be count_table(self.n), and so never prints
        another table's digits; any other table is itself."""
        if self.n < _DECIMAL_FROM or type(self.total) is not int:
            return self
        if self != count_table(self.n):
            raise ValueError(f"the int table for n={self.n} is not "
                             f"count_table({self.n}), so it has no recount "
                             f"to print")
        return _printable_table(self.n)

    def _decimals(self) -> tuple[list[str], list[str], str]:
        """The h and product strings of every column, and the total's. A
        column with phi(n/k) = 1 (k = n and k = n/2, the two largest) has
        product = h, so its count is converted once."""
        table = self._printable()
        hs = [str(c.h) for c in table.columns]
        products = [h if c.phi == 1 else str(c.product)
                    for c, h in zip(table.columns, hs)]
        return hs, products, str(table.total)

    def to_text(self) -> str:
        labels = ("k|n", "phi(n/k)", "h(n,k)", "phi*h")
        hs, products, total = self._decimals()
        rows = [
            [str(c.k) for c in self.columns],
            [str(c.phi) for c in self.columns],
            hs,
            products,
        ]
        label_w = max(len(s) for s in labels)
        widths = [max(len(rows[r][j]) for r in range(4))
                  for j in range(len(self.columns))]
        lines = [
            label.ljust(label_w) + "  " +
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            for label, row in zip(labels, rows)
        ]
        lines.append(f"|Q_{self.n}| = {total}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """{"n": n, "columns": [{"k": k, "phi": "...", "h": "...",
        "product": "..."}, ...], "total": "..."}, byte for byte what
        json.dumps writes for it. Counts grow fast, so they travel as
        decimal strings."""
        hs, products, total = self._decimals()
        columns = ", ".join([
            f'{{"k": {c.k}, "phi": "{c.phi}", '
            f'"h": "{h}", "product": "{product}"}}'
            for c, h, product in zip(self.columns, hs, products)])
        return (f'{{"n": {self.n}, "columns": [{columns}], '
                f'"total": "{total}"}}')


def count_table(n: int) -> CountTable:
    """The full tally for n: one column per divisor k of n, ascending.

    With G(k) = k * phi(n/k) * h(n, k), n * G(k) permutations have k as
    their least left exponent. Summed over r | k these are the
    phi(n/k) * p(n, k) solutions of the phi(n/k) equations with left
    exponent k, so G(k) = phi(n/k) * (k-1)! * (n/k)**(k-1) minus the G(r)
    of the proper divisors r of k: the paper's recursion multiplied through
    by phi(n/k), which cancels tau(k, r) = phi(n/r) / phi(n/k). The proper
    divisors of k are the divisors of n before it that divide it; their
    G(r) are added in one accumulator and subtracted from the first term
    once. (k-1)! is chained in ascending k, each step one
    math.perm(k-1, k-prev), the product prev * ... * (k-1), which CPython
    forms as a balanced product in C; a range of n carries (n-1)! from one
    n to the next instead (_printable_totals). Every k and every phi(n/k)
    is read off one map of the totients of n's divisors, built from one
    factorization of n. The counts are ints.
    """
    return _tally(n, perm, int)


def _tally(n: int, rising, num, top=None) -> CountTable:
    """count_table(n) in one arithmetic: rising(m, j) is the product
    (m-j+1) * ... * m and num(q) the base q of a power, both as the
    numbers the recursion runs on. top, when given, is (n-1)! in that
    arithmetic, and column n takes it in place of chaining its own."""
    totients = _divisor_totients(n)
    ks = sorted(totients)
    gs = []
    cols = []
    total = 0
    fact, prev = 1, 1
    for k in ks:
        if k < n or top is None:
            fact *= rising(k - 1, k - prev)
            prev = k
        else:
            fact = top
        phi = totients[n // k]
        # gs holds G(r) for the divisors r before k; zip stops there. Those
        # of the proper divisors of k go into one accumulator, subtracted
        # once, so the large first term is not copied once per divisor
        lower = 0
        for r, gr in zip(ks, gs):
            if k % r == 0:
                lower += gr
        g = phi * num(n // k) ** (k - 1) * fact - lower
        gs.append(g)
        h, rem = divmod(g, k * phi)
        if rem:
            raise InexactDivision(f"h({n},{k}): division by {k * phi} "
                                  f"leaves remainder {rem}")
        product = phi * h
        # tuple.__new__ skips the named tuple's __new__, a Python call
        cols.append(tuple.__new__(Column, (k, phi, h, product)))
        total += product
    return tuple.__new__(CountTable, (n, tuple(cols), total))


# From this n on, the CLI counts in Decimals. Timed in process on
# a 2-vCPU Xeon under Python 3.11.7 (medians of 25 alternating calls of
# cli.main), `compute n` in Decimals took 1.26 times as long as in ints at
# n = 360, 1.14 at 720, 1.00 at 1260 and 0.84-0.99 over 1261..2520, and
# `matrix n` 0.56-0.63 times over 1261..2520. So the switch is the first n
# past 1260; every count below it stays an int, and a start that counts
# only such n skips the 1.3-1.8 ms import of decimal.
_DECIMAL_FROM = 1261
# factors per math.perm leaf of a Decimal range product, so that no leaf
# is an int large enough for Decimal(int), which is quadratic, to cost
# much; times were flat from 32 to 256 factors
_PERM_LEAF = 64


def _arithmetic(n: int):
    """(rising, num, exact) for _tally(n) as the CLI counts n: below
    _DECIMAL_FROM perm and int, in no context; from it on the same numbers
    as exact Decimals, each printed by str(), and exact() the one local
    context that every Decimal product must be made in. It gives them all
    the precision there is, and Inexact and Rounded are trapped, so a
    rounding raises instead of printing wrong digits. No Decimal is made
    from a large int: rising(m, j) is a balanced range product over small
    math.perm leaves, and each power is Decimal(n // k) ** (k - 1)."""
    if n < _DECIMAL_FROM:
        return perm, int, nullcontext
    import decimal
    D = decimal.Decimal

    def rising(m, j):
        if j <= _PERM_LEAF:
            return D(perm(m, j))
        half = j >> 1
        return rising(m, half) * rising(m - half, j - half)

    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                          Emin=decimal.MIN_EMIN)
    ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = True
    return rising, D, lambda: decimal.localcontext(ctx)


def _printable_table(n: int) -> CountTable:
    """count_table(n) as the CLI prints it: below _DECIMAL_FROM the same
    int table, from it on the same numbers as exact Decimals (see
    _arithmetic)."""
    rising, num, exact = _arithmetic(n)
    with exact():
        return _tally(n, rising, num)


def _printable_totals(n_from: int, n_to: int):
    """_printable_table(n).total for n = n_from..n_to in turn, in one pass
    that carries (n-1)! from n to n + 1: one multiplication by n - 1 per
    step in place of the range product that chains column n. The carry
    starts from rising at n_from and again at _DECIMAL_FROM, so no Decimal
    is made from a large int, and each step, its carry included, runs in
    its arithmetic's context; each total is yielded outside it."""
    for n in range(n_from, n_to + 1):
        if n == n_from or n == _DECIMAL_FROM:
            rising, num, exact = _arithmetic(n)
            top = None
        with exact():
            top = rising(n - 1, n - 1) if top is None else top * (n - 1)
            total = _tally(n, rising, num, top).total
        yield total


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
