import itertools
import random
from math import factorial

import pytest

from cycleq.class_graph import build_gamma
from cycleq.counting import count_table, p_count, predicted_size_histogram, q_count
from cycleq.equation_solver import check_parameters
from cycleq.oracle import (
    DEFAULT_BOUND,
    DEFAULT_SEED,
    BoundExceeded,
    ClassReport,
    _random_full_cycle_conjugate,
    enumerate_classes,
    sigma_independence_check,
)
from cycleq.permutation import Permutation, canonical_sigma, compose, inverse, power
from cycleq.zn_ring import divisors


def test_class_counts_small_n():
    assert enumerate_classes(4).class_count == 3
    assert enumerate_classes(5).class_count == 8
    assert enumerate_classes(1).class_count == 1


def test_histogram_n2():
    rep = enumerate_classes(2)
    assert rep.class_count == 1
    assert rep.size_histogram == {2: 1}


def test_histogram_sums_to_group_order():
    for n in range(1, 8):
        rep = enumerate_classes(n)
        assert sum(size * mult for size, mult in rep.size_histogram.items()) \
            == factorial(n)


def test_class_sizes_are_kn_or_n_squared():
    for n in range(1, 8):
        rep = enumerate_classes(n)
        allowed = {k * n for k in divisors(n) if k < n} | {n * n}
        assert set(rep.size_histogram) <= allowed


def test_oracle_agrees_with_formula_small_n():
    for n in range(1, 8):
        rep = enumerate_classes(n)
        assert rep.class_count == q_count(n)
        assert rep.size_histogram == predicted_size_histogram(n)


def test_enumerate_classes_matches_bfs_reference(classes_by_bfs):
    # the slice walk against the flood fill over all of S_n: same counts,
    # histograms, and representatives in the same order with the same least
    # relation, the flood fill's found by a lookup among the powers of sigma
    for n in range(1, 9):
        shift = canonical_sigma(n)
        rng = random.Random(DEFAULT_SEED)
        sigmas = [shift, inverse(shift)]
        sigmas += [_random_full_cycle_conjugate(n, shift, rng) for _ in range(3)]
        for sigma in sigmas:
            detail = n <= 7 or sigma == shift
            got = enumerate_classes(n, sigma, with_classes=detail)
            want = classes_by_bfs(n, sigma, with_classes=detail)
            assert got == want, (n, sigma)


def test_cell_walk_matches_serial_walk(classes_by_slice_walk):
    # the byte-column cells against one serial walk of the slice: the same
    # report, and the same solution counts, which == does not compare. Up
    # to n = 7 the whole slice is one cell; n = 8, 9 and 10 each fix one
    # more prefix entry (x[1..n-7]), and from n = 8 on some shifts are
    # decided by the prefix alone. n = 10 walks the shift and one conjugate
    for n in range(1, 11):
        shift = canonical_sigma(n)
        rng = random.Random(DEFAULT_SEED)
        sigmas = [shift, inverse(shift)]
        sigmas += [_random_full_cycle_conjugate(n, shift, rng) for _ in range(3)]
        if n == 10:
            sigmas = [shift, sigmas[2]]
        for sigma in sigmas:
            detail = n <= 8
            got = enumerate_classes(n, sigma, bound=10, with_classes=detail)
            want = classes_by_slice_walk(n, sigma, bound=10, with_classes=detail)
            assert got == want, (n, sigma)
            assert got.solution_counts == want.solution_counts, (n, sigma)


def test_solution_counts_examples():
    assert enumerate_classes(4).solution_counts[2, 2] == 8
    assert enumerate_classes(5).solution_counts[1, 2] == 5
    assert (1, 2) not in enumerate_classes(6).solution_counts


def test_solution_counts_match_scan_reference(solutions_by_scan, gamma):
    # the counts read off the class walk against the point-by-point scan,
    # for every exponent pair in 1..n-1 and several full cycles; the walk
    # records only those pairs, and n = 1 has none
    for n in range(1, 8):
        shift = canonical_sigma(n)
        rng = random.Random(DEFAULT_SEED)
        sigmas = [shift, inverse(shift)]
        sigmas += [_random_full_cycle_conjugate(n, shift, rng) for _ in range(3)]
        for sigma in sigmas:
            counts = enumerate_classes(n, sigma).solution_counts
            assert set(counts) <= set(itertools.product(range(1, n), repeat=2))
            for k in range(1, n):
                for l in range(1, n):
                    want = solutions_by_scan(n, k, l, sigma)
                    assert counts.get((k, l), 0) == want, (n, k, l, sigma)
    # n = 8 for the shift, on the pairs that verify checks
    counts = enumerate_classes(8).solution_counts
    for v in gamma(8).vertices:
        if v.k < 8:
            assert counts[v.k, v.l] == solutions_by_scan(8, v.k, v.l), v


def test_solution_counts_for_all_pairs_up_to_7(gamma):
    # every (k,l) in 1..n-1, valid or not: a pair is satisfied by the
    # classes of each vertex <r,t> whose relation lattice contains it, i.e.
    # u*r == k and u*t == l mod n for some u
    for n in range(1, 8):
        g = gamma(n)
        h = {c.k: c.h for c in count_table(n).columns}
        counts = enumerate_classes(n).solution_counts
        for k in range(1, n):
            for l in range(1, n):
                expected = 0
                for v in g.vertices:
                    if v.k < n and any(u * v.k % n == k and u * v.l % n == l
                                       for u in range(n)):
                        expected += v.k * n * h[v.k]
                assert counts.get((k, l), 0) == expected, (n, k, l)
                if check_parameters(n, k, l) is None:
                    assert expected == p_count(n, k)


def test_independent_of_sigma_choice():
    for n in range(2, 6):
        assert sigma_independence_check(n)


def test_independence_check_takes_the_shift_report(monkeypatch):
    # a report handed in as base gives the same answer without a second
    # walk of the shift, and it is really the one compared against
    import cycleq.oracle as oracle
    for n in range(1, 8):
        base = enumerate_classes(n)
        assert sigma_independence_check(n, base=base) == sigma_independence_check(n)
    walks = []
    real = oracle.enumerate_classes

    def recording(n, sigma=None, bound=DEFAULT_BOUND, with_classes=False):
        walks.append(sigma)
        return real(n, sigma, bound, with_classes)

    monkeypatch.setattr(oracle, "enumerate_classes", recording)
    base = real(6)
    assert sigma_independence_check(6, base=base)
    assert len(walks) == 4 and walks[0] == inverse(canonical_sigma(6))
    walks.clear()
    assert sigma_independence_check(6)
    assert len(walks) == 5 and walks[0] == canonical_sigma(6)
    doctored = ClassReport(6, base.sigma, base.class_count + 1, base.size_histogram)
    assert not sigma_independence_check(6, base=doctored)
    with pytest.raises(ValueError):
        sigma_independence_check(6, base=real(5))
    with pytest.raises(ValueError):
        sigma_independence_check(5, base=real(5, inverse(canonical_sigma(5))))


def test_sigma_can_be_injected():
    # an explicit non-canonical full cycle gives the same class structure
    sigma = Permutation((3, 1, 4, 5, 2))  # the cycle (1 3 4 5 2)
    rep = enumerate_classes(5, sigma)
    assert rep.class_count == 8
    assert rep.size_histogram == enumerate_classes(5).size_histogram


def test_sigma_validation():
    with pytest.raises(ValueError):
        enumerate_classes(4, Permutation((2, 1, 4, 3)))
    with pytest.raises(ValueError):
        enumerate_classes(4, canonical_sigma(5))


def test_bound_guard():
    assert DEFAULT_BOUND == 8
    with pytest.raises(BoundExceeded):
        enumerate_classes(9)
    with pytest.raises(BoundExceeded):
        sigma_independence_check(9)
    with pytest.raises(BoundExceeded):
        enumerate_classes(5, bound=4)
    # raising the bound explicitly unlocks larger n (not exercised at 9
    # here; the guard itself is what matters)
    assert enumerate_classes(5, bound=5).class_count == 8


def test_degree_past_sixteen_is_refused_before_any_work(monkeypatch):
    # the walk packs two entries into a byte, so n > 16 is refused whatever
    # the bound, before sigma is even looked at
    import cycleq.oracle as oracle

    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(oracle, "_require_cycle", no_work)
    monkeypatch.setattr(oracle, "canonical_sigma", no_work)
    for bound in (8, 16, 17, 10**6):
        with pytest.raises(BoundExceeded, match="n=17 exceeds 16, the largest n"):
            enumerate_classes(17, bound=bound)
        with pytest.raises(BoundExceeded, match="n=17 exceeds 16, the largest n"):
            sigma_independence_check(17, bound=bound)
    with pytest.raises(BoundExceeded, match="brute-force bound 15"):
        enumerate_classes(16, bound=15)


def test_flood_fill_really_visits_orbits():
    # every member of every class must report the same class when used as
    # the start: verified indirectly by sizes, and directly here for n=4 by
    # regenerating one orbit
    sigma = canonical_sigma(4)
    xi = Permutation((2, 1, 4, 3))
    orbit = {xi}
    frontier = [xi]
    while frontier:
        x = frontier.pop()
        for y in (compose(sigma, x), compose(x, sigma)):
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    rep = enumerate_classes(4)
    assert len(orbit) in rep.size_histogram


def test_per_class_detail():
    rep = enumerate_classes(4, with_classes=True)
    assert rep.per_class is not None
    assert len(rep.per_class) == rep.class_count
    assert sum(size for _, size, _ in rep.per_class) == factorial(4)
    # the identity leads the first class and satisfies the base relation
    first_rep, first_size, first_mle = rep.per_class[0]
    assert first_rep == Permutation((1, 2, 3, 4))
    assert first_mle == (1, 1)
    # minimal exponents are consistent with class sizes: k*n or none for n*n
    for _, size, mle in rep.per_class:
        if mle is None:
            assert size == 16
        else:
            assert size == mle[0] * 4


def test_default_report_omits_detail():
    assert enumerate_classes(4).per_class is None


def test_seeded_conjugates_are_reproducible():
    a = sigma_independence_check(4, seed=7)
    b = sigma_independence_check(4, seed=7)
    assert a is True and b is True


def test_conjugation_preserves_class_structure_explicitly():
    # h sigma h^-1 for a fixed h: same counts, same histogram
    sigma = canonical_sigma(5)
    h = Permutation((3, 5, 1, 2, 4))
    conj = compose(compose(h, sigma), inverse(h))
    base, other = enumerate_classes(5, sigma), enumerate_classes(5, conj)
    assert base.class_count == other.class_count
    assert base.size_histogram == other.size_histogram
