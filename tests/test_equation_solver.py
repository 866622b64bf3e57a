import functools
import itertools
import random
from math import factorial, gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cycleq.class_graph import build_gamma
from cycleq.counting import p_count
import cycleq.equation_solver as es
from cycleq.equation_solver import (
    InvalidParameters,
    NoSolution,
    _blocks,
    _check_block,
    _checked_blocks,
    _check_solves,
    _check_tables,
    _check_tuples,
    _chunk_rows,
    _constructed,
    _orbits,
    _rechunked,
    _sigma_powers,
    block_partition,
    check_parameters,
    enumerate_solutions,
    min_left_exponent,
    solution_chunks,
    solve_base,
)
from cycleq.oracle import enumerate_classes
from cycleq.permutation import (
    Permutation,
    canonical_sigma,
    compose,
    cycles,
    identity,
    inverse,
    power,
)
from cycleq.zn_ring import divisors


def solves(sigma, k, l, xi):
    return compose(power(sigma, k), xi) == compose(xi, power(sigma, l))


def valid_pairs(n):
    """All (k, l) with k < n accepted by the solvability conditions."""
    return [(k, l) for k in range(1, n) for l in range(1, n)
            if check_parameters(n, k, l) is None]


def test_solve_base_examples():
    assert solve_base(5, 2, 1) == Permutation((1, 3, 5, 2, 4))
    assert solve_base(5, 1, 1) == identity(5)
    with pytest.raises(NoSolution):
        solve_base(6, 2, 1)


def test_solve_base_solvable_iff_coprime_up_to_12():
    for n in range(1, 13):
        sigma = canonical_sigma(n)
        for l in range(1, n + 1):
            if gcd(l, n) == 1:
                seen = set()
                for a in range(1, n + 1):
                    xi = solve_base(n, l, a)
                    assert xi(1) == a
                    assert solves(sigma, 1, l, xi)
                    seen.add(xi)
                # distinct anchors give distinct solutions
                assert len(seen) == n
            else:
                with pytest.raises(NoSolution):
                    solve_base(n, l, 1)


def test_solve_base_anchor_recursion():
    # the anchor propagates along sigma: xi(sigma^j(1)) == sigma^(j*l)(a)
    n, l, a = 7, 3, 4
    sigma = canonical_sigma(n)
    xi = solve_base(n, l, a)
    pos = 1
    for j in range(n):
        assert xi(pos) == power(sigma, j * l)(a)
        pos = sigma(pos)


def test_solve_base_input_validation():
    with pytest.raises(ValueError):
        solve_base(5, 2, 0)
    with pytest.raises(ValueError):
        solve_base(5, 0, 1)
    with pytest.raises(ValueError):
        solve_base(5, 2, 6)


def test_check_parameters_accepts_the_graph_vertices():
    # the valid (k,l) pairs with k < n are exactly the non-maximal graph
    # vertices, and (n,n) is the one valid pair with k = n
    for n in range(1, 41):
        g = build_gamma(n)
        expected = {(v.k, v.l) for v in g.vertices if v.k < n}
        assert set(valid_pairs(n)) == expected
        assert check_parameters(n, n, n) is None
        for l in range(1, n):
            assert check_parameters(n, n, l) is not None


def test_check_parameters_diagnostics():
    assert check_parameters(6, 1, 2) is not None   # 2 not coprime-reachable
    assert "coprime" in check_parameters(6, 1, 2)
    assert "divide" in check_parameters(8, 3, 3)   # 3 does not divide 8
    assert "divide" in check_parameters(8, 2, 3)   # 2 does not divide 3
    assert "1 <= k <= l" in check_parameters(8, 4, 2)
    assert check_parameters(6, 1, 5) is None
    assert check_parameters(12, 2, 10) is None
    # n < 1 is refused before the k == l == n shortcut
    assert "n >= 1" in check_parameters(0, 0, 0)
    assert "n >= 1" in check_parameters(-3, -3, -3)


def test_coprime_multiplier_condition_equals_cofactor_coprimality():
    # the exists-s condition used by check_parameters agrees with the closed
    # form GCD(l/k, n/k) == 1 wherever k | n and k | l; checked empirically
    for n in range(2, 61):
        for k in divisors(n)[:-1]:
            for t in range(1, n // k):
                l = k * t
                literal = any(gcd(s, n) == 1 and s * k % n == l
                              for s in range(1, n))
                assert literal == (gcd(t, n // k) == 1), (n, k, l)


def test_enumerate_4_2_2_matches_brute_force_set():
    sols = enumerate_solutions(4, 2, 2)
    assert len(sols) == 8 == p_count(4, 2)
    sigma = canonical_sigma(4)
    brute = {
        Permutation(p)
        for p in itertools.permutations(range(1, 5))
        if solves(sigma, 2, 2, Permutation(p))
    }
    assert set(sols) == brute
    assert len(set(sols)) == len(sols)


def test_enumerate_3_1_2():
    sols = enumerate_solutions(3, 1, 2)
    assert len(sols) == 3 == p_count(3, 1)


def test_enumerate_trivial_equation_is_all_of_sn():
    sols = enumerate_solutions(2, 2, 2)
    assert {s.images for s in sols} == {(1, 2), (2, 1)}
    assert len(enumerate_solutions(1, 1, 1)) == 1


def test_enumerate_is_deterministic():
    a = enumerate_solutions(6, 2, 2)
    b = enumerate_solutions(6, 2, 2)
    assert a == b


def test_enumerate_counts_and_membership_up_to_8():
    for n in range(2, 9):
        sigma = canonical_sigma(n)
        counts = enumerate_classes(n).solution_counts
        for k, l in valid_pairs(n):
            sols = enumerate_solutions(n, k, l)
            assert len(sols) == p_count(n, k)
            assert len(set(sols)) == len(sols)
            assert counts[k, l] == len(sols)
            for xi in sols:
                assert solves(sigma, k, l, xi)


def test_enumerate_rejects_invalid_pairs():
    with pytest.raises(InvalidParameters):
        enumerate_solutions(6, 1, 2)
    with pytest.raises(InvalidParameters):
        enumerate_solutions(8, 2, 3)
    with pytest.raises(InvalidParameters):
        enumerate_solutions(6, 4, 4)
    with pytest.raises(InvalidParameters) as exc:
        enumerate_solutions(6, 1, 3)
    assert "coprime" in str(exc.value)


def rows_of(block, n):
    """The image tuples of a row-major block, n images per row."""
    return [tuple(block[at:at + n]) for at in range(0, len(block), n)]


def test_solution_chunks_are_the_enumerated_solutions():
    # the rows of the blocks are the tuples of the construction, and
    # enumerate_solutions wraps them, in the same order
    for n in range(1, 9):
        for k, l in valid_pairs(n) + [(n, n)]:
            blocks = list(solution_chunks(n, k, l))
            assert all(type(block) is bytes for block in blocks)
            images = [xi for block in blocks for xi in rows_of(block, n)]
            assert images == list(_constructed(n, k, l))
            assert images == [s.images for s in enumerate_solutions(n, k, l)]


def test_solution_chunks_rejects_invalid_pairs_when_iterated():
    with pytest.raises(InvalidParameters) as exc:
        next(solution_chunks(6, 1, 3))
    assert "coprime" in str(exc.value)


@pytest.mark.parametrize("n, k", [(4, 2), (7, 7)])
@pytest.mark.parametrize("edit, change", [(list.pop, -1),
                                          (lambda tuples: tuples.append(tuples[0]), 1)])
def test_solution_chunks_count_the_construction(edit_construction, n, k, edit, change):
    # one solution dropped, or one listed twice: every row passes its check
    # and is handed out, and then the tally raises, in enumerate_solutions too
    edit_construction(edit)
    count = p_count(n, k)
    listed = count + change
    message = f"constructed {listed} solutions of (n={n}, k={k}, l={k}), expected {count}"
    rows = []
    with pytest.raises(RuntimeError) as exc:
        for block in solution_chunks(n, k, k):
            rows += rows_of(block, n)
    assert (str(exc.value), len(rows)) == (message, listed)
    with pytest.raises(RuntimeError) as exc:
        enumerate_solutions(n, k, k)
    assert str(exc.value) == message


def test_check_solves_on_image_tuples():
    tables = _check_tables(5, 1, 2)
    # a solution passes, and so does every tuple of the trivial equation
    _check_solves((1, 3, 5, 2, 4), tables, 1, 2)
    _check_solves((2, 1, 3), _check_tables(3, 3, 3), 3, 3)
    # a bijection that fails sigma * xi == xi * sigma^2
    with pytest.raises(RuntimeError, match="^constructed .* fails sigma"):
        _check_solves((1, 2, 3, 4, 5), tables, 1, 2)
    # non-bijections: nothing but the bijection is tested for k == n, and
    # (1, 1, 3, 3) satisfies sigma^2 * xi == xi * sigma^2 at n = 4
    sig_2 = power(canonical_sigma(4), 2)
    assert tuple(sig_2(v) for v in (1, 1, 3, 3)) == (3, 3, 1, 1)
    assert tuple((1, 1, 3, 3)[v - 1] for v in sig_2.images) == (3, 3, 1, 1)
    for n, k, l, xi in [(3, 3, 3, (1, 1, 3)), (4, 2, 2, (1, 1, 3, 3)),
                        (3, 3, 3, (1, 2)), (3, 3, 3, (1, 2, 3, 4)),
                        (3, 3, 3, (0, 1, 2))]:
        with pytest.raises(RuntimeError, match="^constructed .* not a bijection"):
            _check_solves(xi, _check_tables(n, k, l), k, l)


# every valid (n, k, l) with n <= 8, the trivial equation (n, n, n) included,
# and those with n in 10..16, where images take two digits, that make at
# most two chunks
CHUNK_CASES = ([(n, k, l) for n in range(1, 9) for k, l in valid_pairs(n) + [(n, n)]]
               + [(n, k, l) for n in range(10, 17) for k, l in valid_pairs(n)
                  if p_count(n, k) <= 2 * _chunk_rows(n)])


@functools.cache
def chunks_of(n, k, l):
    """The blocks of solution_chunks, each with the list of the tuples of
    the construction that it holds."""
    tuples = _constructed(n, k, l)
    return [(block, list(itertools.islice(tuples, _chunk_rows(n))))
            for block in solution_chunks(n, k, l)]


def row_check_message(xi, tables, k, l):
    """The RuntimeError message _check_solves gives for xi, or None."""
    try:
        _check_solves(xi, tables, k, l)
    except RuntimeError as e:
        return str(e)
    return None


def assert_checks_agree(check, chunk, xi, tables, k, l):
    """check(chunk, ...) raises what the row check says about xi, or
    passes where the row check does."""
    expected = row_check_message(xi, tables, k, l)
    if expected is None:
        check(chunk, tables, k, l)
    else:
        with pytest.raises(RuntimeError) as exc:
            check(chunk, tables, k, l)
        assert str(exc.value) == expected


def test_chunk_check_passes_every_enumerated_chunk():
    for n, k, l in CHUNK_CASES:
        tables = _check_tables(n, k, l)
        chunks = chunks_of(n, k, l)
        rows = _chunk_rows(n)
        full, rest = divmod(p_count(n, k), rows)
        assert [len(block) // n for block, _ in chunks] == [rows] * full + [rest] * (rest > 0)
        for block, chunk in chunks:
            # images fit a byte, so the block is the bytes of the tuples
            flat = tuple(itertools.chain.from_iterable(chunk))
            assert block == bytes(flat)
            assert _check_block(block, tables, k, l) is block
            assert _check_tuples(chunk, tables, k, l) == flat


def test_chunk_check_on_both_sides_of_the_byte_boundary():
    # up to n = 255 a chunk is a checked bytes block; from 256 on it is a
    # checked tuple, for k = 1 and for k = 2 < n alike. Both fail a bad row
    # with the row check's message: the tuple check every kind, and the
    # block check those a block can hold
    for n, k, l, fits in [(255, 1, 2, True), (256, 1, 3, False), (256, 2, 2, False)]:
        tables = _check_tables(n, k, l)
        block = next(solution_chunks(n, k, l))
        rows = _chunk_rows(n)
        chunk = list(itertools.islice(_constructed(n, k, l), rows))
        assert len(block) == n * len(chunk) == n * min(p_count(n, k), rows)
        flat = tuple(itertools.chain.from_iterable(chunk))
        assert block == (bytes(flat) if fits else flat)
        assert _check_tuples(chunk, tables, k, l) == flat
        xi = chunk[7]
        for bad in (xi[1::-1] + xi[2:], xi[:1] + xi[:-1], xi[:-1],
                    xi[:-1] + (256,), xi[:-1] + (0,), (-1,) + xi[1:]):
            assert row_check_message(bad, tables, k, l) is not None
            bad_chunk = chunk[:7] + [bad] + chunk[8:]
            assert_checks_agree(_check_tuples, bad_chunk, bad, tables, k, l)
            if fits and len(bad) == n and all(0 <= v <= 255 for v in bad):
                bad_block = block[:7 * n] + bytes(bad) + block[8 * n:]
                assert_checks_agree(_check_block, bad_block, bad, tables, k, l)


def test_chunk_check_on_image_tuples():
    # the cases of test_check_solves_on_image_tuples, among the genuine
    # solutions of a chunk: a bijection that fails the equation, and
    # non-bijections, with (1, 1, 3, 3) satisfying the equation at n = 4.
    # The block check takes the ones a block can hold, as rows of n bytes
    for n, k, l, xi, problem in [
            (5, 1, 2, (1, 2, 3, 4, 5), "fails sigma"),
            (3, 3, 3, (1, 1, 3), "is not a bijection"),
            (4, 2, 2, (1, 1, 3, 3), "is not a bijection"),
            (3, 3, 3, (1, 2), "is not a bijection"),
            (3, 3, 3, (1, 2, 3, 4), "is not a bijection"),
            (3, 3, 3, (0, 1, 2), "is not a bijection")]:
        tables = _check_tables(n, k, l)
        assert problem in row_check_message(xi, tables, k, l)
        block, first = chunks_of(n, k, l)[0]
        for chunk in ([xi], [xi] + first, first + [xi]):
            assert_checks_agree(_check_tuples, chunk, xi, tables, k, l)
            if len(xi) == n:
                assert_checks_agree(_check_block, bytes(itertools.chain.from_iterable(chunk)),
                                    xi, tables, k, l)


# a byte block holds the first four; a dropped or added image, or one that
# does not fit a byte, only a tuple
CORRUPTIONS = ("swap", "repeat", "zero", "past_n", "drop", "add", "minus_one",
               "past_byte")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_chunk_check_agrees_with_row_check(data):
    # one row of a real chunk corrupted: the block check, or the tuple
    # check for what a block cannot hold, raises exactly what the row check
    # says about that row, and passes when it does
    n, k, l = data.draw(st.sampled_from(CHUNK_CASES))
    block, chunk = data.draw(st.sampled_from(chunks_of(n, k, l)))
    r = data.draw(st.integers(0, len(chunk) - 1))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    kind = data.draw(st.sampled_from(CORRUPTIONS))
    xi = list(chunk[r])
    if kind == "swap":
        xi[i], xi[j] = xi[j], xi[i]
    elif kind == "repeat":
        xi[i] = xi[j]
    elif kind == "drop":
        del xi[i]
    elif kind == "add":
        xi.insert(i, data.draw(st.integers(0, n + 1)))
    else:
        xi[i] = {"zero": 0, "past_n": n + 1, "minus_one": -1, "past_byte": 256}[kind]
    xi = tuple(xi)
    tables = _check_tables(n, k, l)
    if kind in CORRUPTIONS[:4]:
        bad = block[:r * n] + bytes(xi) + block[(r + 1) * n:]
        assert_checks_agree(_check_block, bad, xi, tables, k, l)
    else:
        assert_checks_agree(_check_tuples, chunk[:r] + [xi] + chunk[r + 1:], xi, tables, k, l)


def test_block_check_rejects_what_column_sums_keep():
    # a block check fails each of these with the row check's message for
    # the first bad row: two rows swapping their entries in one column,
    # which keeps every column's multiset, a repeated value, 0 and n + 1
    for n, k, l in [(9, 9, 9), (12, 4, 4), (10, 5, 5), (16, 2, 6)]:
        tables = _check_tables(n, k, l)
        block, chunk = chunks_of(n, k, l)[0]
        r1, r2 = 3, len(chunk) - 2
        c = next(c for c in range(n) if chunk[r1][c] != chunk[r2][c])
        swapped = bytearray(block)
        swapped[r1 * n + c], swapped[r2 * n + c] = chunk[r2][c], chunk[r1][c]
        first_bad = chunk[r1][:c] + (chunk[r2][c],) + chunk[r1][c + 1:]
        edits = [(bytes(swapped), first_bad)]
        for value in (chunk[r1][1], 0, n + 1):
            xi = (value,) + chunk[r1][1:]
            edits.append((block[:r1 * n] + bytes(xi) + block[(r1 + 1) * n:], xi))
        for bad, xi in edits:
            message = row_check_message(xi, tables, k, l)
            assert message is not None
            with pytest.raises(RuntimeError) as exc:
                _check_block(bad, tables, k, l)
            assert str(exc.value) == message


@pytest.mark.parametrize("n, k, l", [(12, 4, 4), (12, 4, 8), (16, 2, 6), (10, 5, 5),
                                     (254, 2, 2)])
def test_block_check_rejects_equation_solving_non_bijections(n, k, l):
    # rows that satisfy the equation, so that only the bijection pass over
    # the anchor columns can reject them: a real row with the values of one
    # sigma^k position orbit copied onto the next (with canonical sigma the
    # orbits are the residues mod k), and the all-zero row, which the
    # zero-padded sigma^l table keeps at 0. In a real block, the block
    # check fails each with the row check's message
    tables = _check_tables(n, k, l)
    block = next(solution_chunks(n, k, l))
    r = len(block) // n // 2
    xi = list(block[r * n:(r + 1) * n])
    xi[1::k] = xi[0::k]
    for bad in (tuple(xi), (0,) * n):
        assert (tuple(map(bad.__getitem__, tables.sig_k0))
                == tuple(map(tables.sig_l1.__getitem__, bad)))
        message = row_check_message(bad, tables, k, l)
        assert message == f"constructed [{' '.join(map(str, bad))}] is not a bijection of 1..{n}"
        with pytest.raises(RuntimeError) as exc:
            _check_block(block[:r * n] + bytes(bad) + block[(r + 1) * n:], tables, k, l)
        assert str(exc.value) == message


def lone_orbit_blocks():
    """(n, k, l, block) with k = 9 sigma^l orbits, so that the last one-hot
    plane would hold one orbit: every block of (9, 9, 9), and the first
    block of (18, 9, 9), whose 9! * 2**9 rows are too many to list."""
    for block in solution_chunks(9, 9, 9):
        yield 9, 9, 9, block
    rows = itertools.islice(_constructed(18, 9, 9), _chunk_rows(18))
    yield 18, 9, 9, bytes(itertools.chain.from_iterable(rows))


def test_block_check_counts_a_lone_last_orbit():
    # the lone orbit (the point 9 at k = n = 9, the points 9 and 18 at
    # n = 18) is counted, not planed. In one row, the position orbit whose
    # anchor holds it is replaced by a repeat of another anchor's orbit, by
    # zeros, or its anchor by n + 1: the block check raises the row check's
    # message for that row. The first two keep the equation, and the first
    # pass over the other eight orbits keeps all three at k = n, so without
    # the count the block would pass
    seen = []
    for n, k, l, block in lone_orbit_blocks():
        tables = _check_tables(n, k, l)
        assert tables.lone is not None and len(tables.planes) == 1
        assert sorted(v for v in range(256) if tables.lone[v]) == list(range(9, n + 1, 9))
        rows = len(block) // n
        columns = [block[c::n] for c in range(n)]
        assert _check_block(block, tables, k, l) is block
        assert _check_block(block, tables, k, l, columns) is block
        seen.append((n, rows))
        if n == 9 and len(seen) not in (1, 25):
            continue  # the first and the last block of 9 9 9 are edited
        for r in (0, rows // 2, rows - 1):
            xi = list(block[r * n:(r + 1) * n])
            c = next(c for c in tables.anchors if tables.lone[xi[c]])
            other = next(a for a in tables.anchors if a != c)
            repeat, zero, past_n = list(xi), list(xi), list(xi)
            repeat[c::k] = xi[other::k]
            zero[c::k] = [0] * (n // k)
            past_n[c] = n + 1
            for bad, uncounted in ((repeat, True), (zero, True), (past_n, k == n)):
                bad = tuple(bad)
                message = row_check_message(bad, tables, k, l)
                assert message == f"constructed [{' '.join(map(str, bad))}] is not a bijection of 1..{n}"
                edited = block[:r * n] + bytes(bad) + block[(r + 1) * n:]
                with pytest.raises(RuntimeError) as exc:
                    _check_block(edited, tables, k, l)
                assert str(exc.value) == message
                if uncounted:
                    assert _check_block(edited, tables._replace(lone=None), k, l) is edited
    assert seen == [(9, 14563)] * 24 + [(9, 13368), (18, 7281)]


def test_sigma_powers_give_the_tables_of_power():
    # the powers verify builds once per n check what power builds per equation
    for n in range(1, 13):
        powers = _sigma_powers(n)
        assert [p.images for p in powers] == [power(canonical_sigma(n), e).images
                                              for e in range(n)]
        for k, l in valid_pairs(n) + [(n, n)]:
            assert _check_tables(n, k, l, powers) == _check_tables(n, k, l)


def test_checked_blocks_hand_out_the_checked_columns():
    # each block of solution_chunks with its column slices, or None for a
    # tuple block, and the powers given in place of power's
    for n, k, l in [(9, 3, 3), (10, 5, 5), (12, 4, 4), (256, 1, 3)]:
        pairs = list(_checked_blocks(n, k, l, _sigma_powers(n)))
        assert [block for block, _ in pairs] == list(solution_chunks(n, k, l))
        for block, columns in pairs:
            assert columns == ([block[c::n] for c in range(n)] if n <= 255 else None)


# valid (n, k, l) with n <= 16 and at most 50 000 solutions, and the least
# and greatest l for k <= 2 at n = 254 and 255, where images just fit a byte
BLOCK_CASES = ([(n, k, l) for n in range(1, 17) for k, l in valid_pairs(n) + [(n, n)]
                if p_count(n, k) <= 50_000]
               + [(254, 1, 1), (254, 1, 253), (254, 2, 2), (254, 2, 252),
                  (255, 1, 1), (255, 1, 254)])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BLOCK_CASES), st.sampled_from([1, 2, 7, 100, None]))
def test_blocks_are_the_constructed_tuples(case, rows):
    # the byte construction, cut into chunks, holds the tuples of the
    # reference construction in their order, chunk for chunk, whatever the
    # chunk size, None standing for the real one; each raw block holds 1 to
    # that many whole rows
    n, k, l = case
    rows = rows or _chunk_rows(n)
    with mock.patch.object(es, "_chunk_rows", lambda n: rows):
        for block in _blocks(n, k, l):
            assert 1 <= len(block) // n <= rows and len(block) % n == 0
        tuples = _constructed(n, k, l)
        listed = 0
        for block in _rechunked(_blocks(n, k, l), n):
            chunk = list(itertools.islice(tuples, rows))
            assert block == bytes(itertools.chain.from_iterable(chunk))
            listed += len(chunk)
        assert next(tuples, None) is None
        assert listed == p_count(n, k)


def test_blocks_sweep_mid_size_n():
    # the byte blocks, joined, are the reference tuples for every valid
    # (n, k, l) with n <= 40 and at most 2e6 image bytes, past the n <= 16
    # of BLOCK_CASES
    cases = [(n, k, l) for n in range(1, 41) for k, l in valid_pairs(n) + [(n, n)]
             if p_count(n, k) * n <= 2_000_000]
    assert len(cases) == 702
    for n, k, l in cases:
        expected = bytes(itertools.chain.from_iterable(_constructed(n, k, l)))
        assert b"".join(_blocks(n, k, l)) == expected, (n, k, l)


def test_scaling_closure():
    # a solution for (k,l) also solves the equation with both exponents
    # scaled by s; spot-check s = 2 and 3 over everything enumerated
    for n in range(2, 9):
        sigma = canonical_sigma(n)
        for k, l in valid_pairs(n):
            for xi in enumerate_solutions(n, k, l):
                for s in (2, 3):
                    assert solves(sigma, s * k, s * l, xi)


def test_distinct_l_gives_disjoint_solution_sets():
    for n in range(2, 9):
        by_k = {}
        for k, l in valid_pairs(n):
            by_k.setdefault(k, []).append(
                set(enumerate_solutions(n, k, l)))
        for k, sets in by_k.items():
            for s1, s2 in itertools.combinations(sets, 2):
                assert not (s1 & s2)


def test_block_partition_examples():
    blocks = block_partition(4, 2)
    assert tuple(block[0] for block in blocks) == (1, 2)
    assert blocks == ((1, 3), (2, 4))
    assert block_partition(6, 3) == ((1, 4), (2, 5), (3, 6))


def test_block_partition_invariants_up_to_60():
    for n in range(1, 61):
        sigma = canonical_sigma(n)
        for k in divisors(n):
            blocks = block_partition(n, k)
            assert blocks[0][0] == 1
            assert len(blocks) == k
            covered = set()
            sig_k = power(sigma, k)
            for block in blocks:
                assert len(block) == n // k
                anchor = block[0]
                # anchor is the least point not covered so far
                assert anchor == min(set(range(1, n + 1)) - covered)
                # the block is the anchor's orbit under sigma^k
                pos = anchor
                for member in block:
                    assert member == pos
                    pos = sig_k(pos)
                covered |= set(block)
            assert covered == set(range(1, n + 1))


def test_residue_construction_walks_the_powers_of_sigma():
    # the blocks are the cycles of sigma^k, and each target orbit is the
    # walk of sigma^l from its point, both taken from permutation.power
    for n in range(1, 61):
        sigma = canonical_sigma(n)
        for k, l in valid_pairs(n) + [(n, n)]:
            blocks = block_partition(n, k)
            assert blocks == tuple(cycles(power(sigma, k))), (n, k)
            sig_l = power(sigma, l)
            for block, orbits in zip(blocks, _orbits(n, l, blocks), strict=True):
                assert len(orbits) == len(block)
                for v, orbit in zip(block, orbits):
                    walk = [v]
                    for _ in range(len(block) - 1):
                        walk.append(sig_l(walk[-1]))
                    assert orbit == tuple(walk), (n, k, l, v)


def test_block_partition_preconditions():
    with pytest.raises(ValueError):
        block_partition(6, 4)
    with pytest.raises(ValueError):
        block_partition(6, 0)


def test_min_left_exponent_examples():
    assert min_left_exponent(identity(5)) == (1, 1)
    assert min_left_exponent(Permutation((1, 3, 5, 2, 4))) == (1, 2)
    # [2,1,4,3] satisfies sigma*xi == xi*sigma^3, so the minimum k is 1
    assert min_left_exponent(Permutation((2, 1, 4, 3))) == (1, 3)
    # no relation at all: a member of the sole size-16 class at n=4
    assert min_left_exponent(Permutation((2, 1, 3, 4))) is None


def test_min_left_exponent_none_is_genuine():
    # double-check the None case by scanning every pair explicitly
    xi = Permutation((2, 1, 3, 4))
    sigma = canonical_sigma(4)
    for k in range(1, 4):
        for l in range(1, 4):
            assert not solves(sigma, k, l, xi)


def test_min_left_exponent_against_independent_method(mle_by_power_lookup):
    # every xi of S_n for n <= 7, then sampled solutions of one equation at
    # larger n, each of which has a relation no later than the equation's k
    for n in range(1, 8):
        lookup = mle_by_power_lookup(canonical_sigma(n))
        for perm in itertools.permutations(range(n)):
            xi = Permutation(tuple(v + 1 for v in perm))
            assert min_left_exponent(xi) == lookup(perm)
    rng = random.Random(2014)
    for n in (20, 40, 60):
        lookup = mle_by_power_lookup(canonical_sigma(n))
        for k, l in rng.sample(valid_pairs(n), 3):
            block = next(solution_chunks(n, k, l))
            for r in rng.sample(range(len(block) // n), 3):
                row = tuple(block[r * n:(r + 1) * n])
                got = min_left_exponent(Permutation(row))
                assert got is not None and got[0] <= k, (n, k, l, row)
                assert got == lookup(tuple(v - 1 for v in row)), (n, k, l, row)


def test_min_left_exponent_returns_minimal_k():
    # whatever comes back must hold, and nothing below it may hold
    sigma = canonical_sigma(6)
    for perm in itertools.permutations(range(1, 7)):
        xi = Permutation(perm)
        res = min_left_exponent(xi)
        if res is None:
            continue
        k, l = res
        assert solves(sigma, k, l, xi)
        for smaller in range(1, k):
            for any_l in range(1, 6):
                assert not solves(sigma, smaller, any_l, xi)


def test_min_left_exponent_under_a_conjugate_cycle(mle_by_power_lookup):
    # the docstring's recipe: under tau = h * sigma * h^-1 the least relation
    # of xi is min_left_exponent(h^-1 * xi * h)
    rng = random.Random(2014)
    for n in range(1, 7):
        sigma = canonical_sigma(n)
        for _ in range(3):
            h = Permutation(tuple(rng.sample(range(1, n + 1), n)))
            lookup = mle_by_power_lookup(compose(compose(h, sigma), inverse(h)))
            for perm in itertools.permutations(range(1, n + 1)):
                xi = Permutation(perm)
                conjugate = compose(compose(inverse(h), xi), h)
                assert min_left_exponent(conjugate) \
                    == lookup(tuple(v - 1 for v in perm)), (h, xi)


def test_solution_chunks_validate_exponents():
    # exponents outside 1..n fail check_parameters, at the first next()
    chunks = solution_chunks(4, 0, 2)
    with pytest.raises(InvalidParameters):
        next(chunks)
    with pytest.raises(InvalidParameters):
        next(solution_chunks(4, 2, 5))
