import itertools

import pytest
from hypothesis import given, strategies as st

from cycleq.permutation import (
    Permutation,
    canonical_sigma,
    compose,
    cycle_string,
    cycles,
    identity,
    inverse,
    is_full_cycle,
    one_line,
    order,
    power,
)


def test_compose_example():
    alpha = Permutation((2, 3, 1))
    beta = Permutation((3, 2, 1))
    assert compose(alpha, beta) == Permutation((2, 1, 3))


def test_compose_is_left_to_right():
    # (alpha*beta)(i) == beta(alpha(i)), never the other way around
    alpha = Permutation((2, 3, 1))
    beta = Permutation((3, 2, 1))
    gamma = alpha * beta
    for i in range(1, 4):
        assert gamma(i) == beta(alpha(i))


def test_identity_laws():
    alpha = Permutation((3, 1, 4, 2))
    e = identity(4)
    assert compose(alpha, e) == alpha
    assert compose(e, alpha) == alpha
    assert compose(alpha, inverse(alpha)) == e
    assert compose(inverse(alpha), alpha) == e


def test_power_examples():
    sigma = canonical_sigma(5)
    assert power(sigma, 2) == Permutation((3, 4, 5, 1, 2))
    assert power(sigma, 0) == identity(5)
    assert power(sigma, 5) == identity(5)
    alpha = Permutation((2, 1, 4, 3))
    assert power(alpha, 1) == alpha


def test_power_rejects_negative():
    with pytest.raises(ValueError):
        power(identity(3), -1)


def test_canonical_sigma():
    assert canonical_sigma(4) == Permutation((2, 3, 4, 1))
    assert canonical_sigma(1) == Permutation((1,))
    for n in range(2, 13):
        sigma = canonical_sigma(n)
        assert is_full_cycle(sigma)
        assert order(sigma) == n


def test_sigma_powers_hit_identity_only_at_n():
    for n in range(2, 13):
        sigma = canonical_sigma(n)
        e = identity(n)
        for m in range(1, n):
            assert power(sigma, m) != e
        assert power(sigma, n) == e


def test_order_and_full_cycle_examples():
    alpha = Permutation((2, 1, 4, 3))
    assert order(alpha) == 2
    assert not is_full_cycle(alpha)
    assert order(identity(3)) == 1
    assert not is_full_cycle(identity(3))
    assert is_full_cycle(identity(1))


def test_positional_versus_value_action():
    # multiplying by sigma on the left permutes one-line images by position,
    # on the right it applies sigma to each image value
    import random
    rng = random.Random(99)
    for n in range(2, 9):
        sigma = canonical_sigma(n)
        for _ in range(5):
            vals = list(range(1, n + 1))
            rng.shuffle(vals)
            xi = Permutation(tuple(vals))
            left = compose(sigma, xi)
            right = compose(xi, sigma)
            assert left.images == tuple(xi(sigma(i)) for i in range(1, n + 1))
            assert right.images == tuple(sigma(xi(i)) for i in range(1, n + 1))


@given(st.permutations(list(range(1, 8))))
def test_inverse_roundtrip(images):
    alpha = Permutation(tuple(images))
    assert inverse(inverse(alpha)) == alpha
    assert compose(alpha, inverse(alpha)) == identity(7)


@given(st.permutations(list(range(1, 7))), st.permutations(list(range(1, 7))),
       st.permutations(list(range(1, 7))))
def test_compose_associative(a, b, c):
    pa, pb, pc = Permutation(tuple(a)), Permutation(tuple(b)), Permutation(tuple(c))
    assert compose(compose(pa, pb), pc) == compose(pa, compose(pb, pc))


def test_associativity_exhaustive_s3():
    all_perms = [Permutation(p) for p in itertools.permutations((1, 2, 3))]
    for a in all_perms:
        for b in all_perms:
            for c in all_perms:
                assert (a * b) * c == a * (b * c)


def test_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))
    with pytest.raises(ValueError):
        Permutation(())
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))
    # floats and bools sort like the ints they equal
    with pytest.raises(ValueError):
        Permutation((1.0, 2.0))
    with pytest.raises(ValueError):
        Permutation((True, 2))


def test_images_stored_as_tuple():
    p = Permutation([2, 1, 3])
    assert type(p.images) is tuple
    assert p == Permutation((2, 1, 3))
    assert hash(p) == hash(Permutation((2, 1, 3)))
    assert not hasattr(p, "__dict__")


def test_rendering():
    sigma = canonical_sigma(4)
    assert one_line(sigma) == "[2 3 4 1]"
    assert str(sigma) == "[2 3 4 1]"
    assert cycle_string(sigma) == "(1 2 3 4)"
    assert cycle_string(identity(3)) == "()"
    assert cycle_string(Permutation((2, 1, 3, 5, 4))) == "(1 2)(4 5)"


def test_cycles_structure():
    assert cycles(Permutation((2, 1, 3))) == [(1, 2), (3,)]
    assert cycles(canonical_sigma(4)) == [(1, 2, 3, 4)]
