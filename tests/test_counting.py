import itertools
import json
import sys
from contextlib import nullcontext
from decimal import Decimal
from math import factorial, prod

import pytest

import cycleq.counting as counting
from cycleq.counting import (
    Column,
    CountTable,
    NotPrime,
    count_table,
    p_count,
    predicted_size_histogram,
    q_count,
    q_prime,
    wilson_check,
)
from cycleq.oracle import enumerate_classes
from cycleq.zn_ring import (
    InexactDivision,
    divisors,
    is_prime,
    prime_factors,
    totient,
)

# class counts for n = 2..19, cross-checked against the brute-force oracle
# for n <= 8 (see test_oracle / test_acceptance) and frozen here
GOLDEN_COUNTS = [1, 2, 3, 8, 24, 108, 640, 4492, 36336, 329900, 3326788,
                 36846288, 444790512, 5811886656, 81729688428,
                 1230752346368, 19760413251956, 336967037143596]


def test_p_count_examples():
    assert p_count(12, 4) == 1944
    assert p_count(4, 2) == 8
    for n in (1, 2, 3, 5, 8):
        assert p_count(n, n) == factorial(n)


def test_p_count_matches_brute_force():
    # p(4,2) counts the solutions of the left-exponent-2 equation at n=4
    assert enumerate_classes(4).solution_counts[2, 2] == p_count(4, 2)
    counts = enumerate_classes(6).solution_counts
    assert counts[2, 2] == p_count(6, 2)
    assert counts[3, 3] == p_count(6, 3)


def test_p_count_preconditions():
    with pytest.raises(ValueError):
        p_count(12, 5)
    with pytest.raises(ValueError):
        p_count(12, 0)


def h_row(n):
    """{k: h(n, k)} for every divisor k of n, off count_table(n)'s columns."""
    return {c.k: c.h for c in count_table(n).columns}


def test_h_base_case():
    for n in (1, 2, 5, 12, 30, 100):
        assert h_row(n)[1] == 1


def test_h_row_for_12():
    assert h_row(12) == {1: 1, 2: 2, 3: 10, 4: 39, 6: 628, 12: 3326054}


def test_h_12_6_expansion():
    # (5! * 2**5 - (1*4*1 + 2*2*2 + 3*2*10)) / 6 == (3840 - 72) / 6
    assert h_row(12)[6] == (factorial(5) * 2 ** 5 - 72) // 6 == 628


def test_count_table_12_is_the_reference_tally():
    t = count_table(12)
    assert [c.k for c in t.columns] == [1, 2, 3, 4, 6, 12]
    assert [c.phi for c in t.columns] == [4, 2, 2, 2, 1, 1]
    assert [c.h for c in t.columns] == [1, 2, 10, 39, 628, 3326054]
    assert [c.product for c in t.columns] == [4, 4, 20, 78, 628, 3326054]
    assert t.total == 3326788
    # the tally builds its tuples without the named tuples' own __new__;
    # they must still be the named tuples
    assert type(t) is CountTable and t._fields == ("n", "columns", "total")
    assert all(type(c) is Column for c in t.columns)
    assert t.columns[0]._fields == ("k", "phi", "h", "product")
    assert t.columns[2].product == t.columns[2].phi * t.columns[2].h == 20


def test_count_table_7():
    t = count_table(7)
    assert [(c.k, c.phi, c.h, c.product) for c in t.columns] == [
        (1, 6, 1, 6), (7, 1, 102, 102)]
    assert t.total == 108


def test_count_table_1_has_a_single_column():
    t = count_table(1)
    assert [(c.k, c.phi, c.h, c.product) for c in t.columns] == [(1, 1, 1, 1)]
    assert t.total == 1


def test_count_table_matches_the_tau_recursion(tally_by_tau):
    # the recursion without tau against the paper's recursion over the graph
    for n in [*range(1, 401), 5040, 10080]:
        assert list(count_table(n).columns) == tally_by_tau(n), n


def test_q_count_golden_sequence():
    assert [q_count(n) for n in range(2, 20)] == GOLDEN_COUNTS
    assert q_count(1) == 1


def test_divisions_stay_exact_up_to_200():
    # a remainder anywhere in the recursion raises InexactDivision
    for n in range(1, 201):
        count_table(n)


def test_vertexwise_balance_up_to_8(gamma, reach):
    # per-vertex solution-count balance: the k*n classes at the vertex plus
    # the r*n classes strictly below it account for every solution
    for n in range(2, 9):
        g = gamma(n)
        h = h_row(n)
        for v in g.vertices:
            if v.k == n:
                continue
            below = sum(u.k * n * h[u.k]
                        for u in g.vertices if v in reach(n)[u])
            assert v.k * n * h[v.k] + below == p_count(n, v.k)


def test_class_count_balance_up_to_60(gamma):
    # all classes of all sizes tile the group exactly
    for n in range(1, 61):
        g = gamma(n)
        h = h_row(n)
        proper = sum(v.k * n * h[v.k] for v in g.vertices if v.k < n)
        assert proper + n * n * h[n] == factorial(n)


def test_class_equation_over_the_count_table():
    # sum over k | n of k*n * phi(n/k) * h(n, k) = n!: each column's classes
    # have k*n members, and together they tile S_n
    for n in [*range(1, 401), 2520, 5040, 10080]:
        assert sum(c.k * n * c.product for c in count_table(n).columns) \
            == factorial(n), n


def test_predicted_size_histogram_examples():
    assert predicted_size_histogram(2) == {2: 1}
    assert predicted_size_histogram(4) == {4: 2, 16: 1}
    assert predicted_size_histogram(6) == {6: 2, 12: 2, 18: 2, 36: 18}
    assert predicted_size_histogram(1) == {1: 1}


def test_q_prime_examples():
    assert q_prime(5) == 8
    assert q_prime(7) == (factorial(6) + 36) // 7 == 108
    assert q_prime(13) == 36846288


def test_q_prime_rejects_composites():
    with pytest.raises(NotPrime):
        q_prime(12)
    with pytest.raises(NotPrime):
        q_prime(1)


def test_q_prime_agrees_with_q_count():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        assert q_prime(p) == q_count(p)


def test_wilson_examples():
    assert wilson_check(7)
    assert not wilson_check(8)  # 5041 = 7! + 1 is 1 mod 8
    assert wilson_check(2)
    with pytest.raises(ValueError):
        wilson_check(1)


def test_wilson_is_primality():
    for n in range(2, 500):
        assert wilson_check(n) == is_prime(n)


def test_table_text_rendering():
    text = count_table(12).to_text()
    assert text == (
        "k|n       1  2   3   4    6       12\n"
        "phi(n/k)  4  2   2   2    1        1\n"
        "h(n,k)    1  2  10  39  628  3326054\n"
        "phi*h     4  4  20  78  628  3326054\n"
        "|Q_12| = 3326788\n"
    )


def test_table_json_uses_decimal_strings():
    doc = json.loads(count_table(12).to_json())
    assert doc["n"] == 12
    assert doc["total"] == "3326788"
    assert doc["columns"][0] == {"k": 1, "phi": "4", "h": "1", "product": "4"}
    assert doc["columns"][-1] == {"k": 12, "phi": "1", "h": "3326054",
                                  "product": "3326054"}


def test_table_json_is_what_json_dumps_writes(unguarded_str):
    # at 2520 and 5040 to_json prints the Decimal recount, checked here
    # against the int table's own digits
    for n in [*range(1, 401), 2520, 5040]:
        table = count_table(n)
        doc = {
            "n": table.n,
            "columns": [
                {"k": c.k, "phi": unguarded_str(c.phi),
                 "h": unguarded_str(c.h),
                 "product": unguarded_str(c.product)}
                for c in table.columns
            ],
            "total": unguarded_str(table.total),
        }
        assert table.to_json() == json.dumps(doc), n


def test_a_large_int_table_prints_its_own_digits(unguarded_str):
    # past 4300 digits (n >= 1561) str() refuses an int under Python's
    # default guard; to_text must print the same text as the table whose
    # counts are the int table's digits, made with the guard lifted
    for n in (1561, 5040, 20160):
        table = count_table(n)
        as_digits = CountTable(n, tuple(
            Column(c.k, c.phi, unguarded_str(c.h), unguarded_str(c.product))
            for c in table.columns), unguarded_str(table.total))
        assert table.to_text() == as_digits.to_text(), n


def test_an_int_table_that_is_not_the_count_is_not_printed():
    # from the switch on an int table prints its recount's digits, so one
    # that count_table did not make raises instead of printing another
    # table's digits
    table = count_table(2520)._replace(total=0)
    with pytest.raises(ValueError, match="n=2520 is not count_table"):
        table.to_text()
    with pytest.raises(ValueError, match="n=2520 is not count_table"):
        table.to_json()


def test_inexact_division_is_loud(monkeypatch):
    # no valid input can trigger the guards, so doctor the totients the
    # recursion and tau read
    import cycleq.class_graph as class_graph
    import cycleq.counting as counting
    real = counting._divisor_totients
    # phi(14) read as 12 makes G(1) = 12 and G(2) = 6*7 - 12 = 30, which
    # the division by k * phi(7) = 12 must refuse to round
    monkeypatch.setattr(counting, "_divisor_totients",
                        lambda n: {**real(n), 14: 12})
    with pytest.raises(InexactDivision, match=r"h\(14,2\): division by 12 "):
        counting.count_table(14)
    # phi(7) read as 4 makes G(2) = 4*7 - 6 = 22, and 8 does not divide it
    monkeypatch.setattr(counting, "_divisor_totients",
                        lambda n: {**real(n), 7: 4})
    with pytest.raises(InexactDivision, match=r"h\(14,2\): division by 8 "):
        counting.count_table(14)
    # the same phi(7) leaves a remainder in tau(2,1) = 6/4 itself
    monkeypatch.setattr(class_graph, "totient",
                        lambda m: 4 if m == 7 else totient(m))
    with pytest.raises(InexactDivision, match=r"tau\(2,1\)"):
        class_graph.tau(14, 2, 1)


def burnside(n):
    """|Q_n| by Burnside's lemma over Z_n x Z_n acting on S_n: the pair
    (k, l) fixes d!(n/d)^d permutations when gcd(k,n) = gcd(l,n) = d, and
    phi(n/d) exponents k have gcd(k,n) = d."""
    total = sum(totient(n // d) ** 2 * factorial(d) * (n // d) ** d
                for d in divisors(n))
    q, rem = divmod(total, n * n)
    assert rem == 0, f"Burnside sum for n={n} leaves remainder {rem}"
    return q


def test_q_count_matches_burnside():
    # an independent count for every n the recursion is asked about,
    # far past the n <= 8 brute force reaches
    for n in [*range(1, 401), 1000, 2520, 5040, 10080]:
        assert q_count(n) == burnside(n), n


def h_by_moebius(n):
    """{k: h(n, k)} for every divisor k of n by Moebius inversion, reading
    no other column: F(r) = phi(n/r) * (r-1)! * (n/r)**(r-1) is the sum of
    G over the divisors of r, so G(k) is the sum of mu(m) * F(k/m) over the
    squarefree m | k, and h(n, k) = G(k) / (k * phi(n/k)), exactly."""
    F = {r: totient(n // r) * factorial(r - 1) * (n // r) ** (r - 1)
         for r in divisors(n)}
    h = {}
    for k in F:
        primes = prime_factors(k)
        g = sum((-1) ** size * F[k // prod(m)]
                for size in range(len(primes) + 1)
                for m in itertools.combinations(primes, size))
        h[k], rem = divmod(g, k * totient(n // k))
        assert rem == 0, f"G({k}) for n={n} leaves remainder {rem}"
    return h


def test_every_column_matches_moebius_inversion():
    # a second method per column: the class equation and Burnside pin only
    # the total, this pins each h(n, k) on its own
    for n in [*range(1, 301), 720, 5040, 10080, 20160]:
        assert h_row(n) == h_by_moebius(n), n


def one_table(n):
    """The CLI's table for n alone, the one-element range."""
    return next(counting._printable_tables(n, n))


def test_the_cli_counts_in_decimals_from_the_switch():
    switch = counting._DECIMAL_FROM
    assert type(one_table(switch - 1).total) is int
    assert type(one_table(switch).total) is Decimal
    assert type(count_table(switch).total) is int


def test_decimal_and_int_tables_agree(monkeypatch):
    # the same recursion in both arithmetics, column by column, compared
    # exactly (Decimal == int is exact); below the switch the Decimal table
    # is forced
    switch = counting._DECIMAL_FROM
    monkeypatch.setattr(counting, "_DECIMAL_FROM", 1)
    for n in [*range(1, 601), switch - 1, switch, switch + 1,
              5040, 10080, 20160]:
        dec, ref = one_table(n), count_table(n)
        assert type(dec.total) is Decimal, n
        assert all(type(c.h) is type(c.product) is Decimal
                   for c in dec.columns), n
        assert dec == ref, n


@pytest.mark.parametrize("switch", [1, counting._DECIMAL_FROM, 10 ** 9])
def test_the_range_pass_prints_what_each_table_does(monkeypatch, switch):
    # the range pass carries (n-1)! from n to n + 1, also from n = 1, across
    # the switch and from a range that starts on it; each of its tables
    # must be the one-n table for that n, exactly (Decimal == int is
    # exact), in the arithmetic of the range's largest n
    monkeypatch.setattr(counting, "_DECIMAL_FROM", switch)
    for lo, hi in [(1, 700), (1255, 1270), (1261, 1263), (1, 1),
                   (2519, 2520)]:
        tables = list(counting._printable_tables(lo, hi))
        assert [t.n for t in tables] == list(range(lo, hi + 1))
        assert {type(t.total) for t in tables} == {
            int if hi < switch else Decimal}
        assert tables == [one_table(n) for n in range(lo, hi + 1)], (lo, hi)


@pytest.mark.parametrize("lo, hi", [(1, 64), (33, 130), (300, 400),
                                    (1250, 1300)])
def test_the_range_pass_shares_each_factorial_once(lo, hi):
    # the range pass makes every (k-1)! a range uses once and shares it
    # between the n whose divisor k is: each of its tables is still
    # count_table(n), exactly (Decimal == int is exact), including the
    # ranges whose FROM cuts through what a later n shares, and the
    # Decimal range past the switch
    tables = list(counting._printable_tables(lo, hi))
    assert [t.n for t in tables] == list(range(lo, hi + 1))
    assert tables == [count_table(n) for n in range(lo, hi + 1)], (lo, hi)
    # one rising product per distinct divisor of the range's n
    steps = []

    def rising(m, j):
        steps.append(m + 1)
        return factorial(m) // factorial(m - j)

    list(counting._tables(lo, hi, rising, int, nullcontext))
    assert sorted(steps) == sorted(
        {k for n in range(lo, hi + 1) for k in divisors(n)})


@pytest.mark.parametrize("lo, hi", [(1259, 1262), (1261, 1261), (1, 1),
                                    (2, 400)])
def test_a_request_counts_in_one_arithmetic(lo, hi):
    # the arithmetic is picked once per request, by its largest n: every
    # count of a range that ends at the switch or past it is a Decimal,
    # its low n included, and every count of one that ends below is an int
    kind = Decimal if hi >= counting._DECIMAL_FROM else int
    tables = list(counting._printable_tables(lo, hi))
    assert [t.n for t in tables] == list(range(lo, hi + 1))
    for t in tables:
        counts = [t.total] + [x for c in t.columns for x in (c.h, c.product)]
        assert {type(x) for x in counts} == {kind}, t.n
        assert t == count_table(t.n), t.n


def test_every_int_count_the_cli_prints_fits_the_int_str_guard():
    # the CLI prints every count with str(), and a request whose largest n
    # is below the switch counts in ints, so each must fit Python's default
    # int/str digit limit: a switch raised past about 1560 fails here
    limit = getattr(sys.int_info, "default_max_str_digits", 4300)
    switch = counting._DECIMAL_FROM
    # the largest ints the CLI makes, the last table of a range carried up
    # to the switch
    *_, table = counting._printable_tables(switch - 3, switch - 1)
    counts = [table.total]
    for c in table.columns:
        counts += [c.h, c.product]
    assert all(type(count) is int for count in counts)
    assert max(len(str(count)) for count in counts) <= limit


def test_count_table_rejects_nonpositive():
    with pytest.raises(ValueError, match="n must be positive, got 0"):
        count_table(0)
    with pytest.raises(ValueError):
        q_count(-3)
