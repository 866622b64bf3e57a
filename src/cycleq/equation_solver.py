"""Constructive solving of sigma^k * xi == xi * sigma^l for the shift sigma.

sigma is the canonical n-cycle (1 2 ... n), whose powers are residue
arithmetic: sigma^e(v) is v + e mod n, written in 1..n. Any other n-cycle
is a conjugate h sigma h^-1, and its solutions are the conjugates
h xi h^-1 of these. The base case k = 1 is solvable exactly when
GCD(l, n) = 1, and then one anchor value xi(1) = a determines everything:
xi(1 + j) = a + j*l mod n. For general k the points {1..n} split into k
blocks, the orbits of sigma^k, which are the residue classes mod k, and a
solution is one choice of a distinct target block plus an anchor value
per block; that makes k! * (n/k)**k solutions. `solution_chunks` yields
them in a fixed lexicographic order as row-major blocks of n images per
row, each holding about _CHUNK_BYTES image bytes, and each checked as a
whole before it is handed out: every row must be a bijection of 1..n and,
for k < n, satisfy the equation on the powers of sigma built by
permutation.power (or, for all the equations of one n, by _sigma_powers),
which the construction never calls. For n <= 255 every image fits a byte,
and there is no Python object per solution: a block is one translate of a
template whose rows relabel one solution residue class by residue class,
it is checked as one bytes object by whole-column operations, and the CLI
formats it the same way, from the same n column slices (_checked_blocks
hands out each block with them). Once a byte block satisfies the
equation, its bijection pass reads only one anchor column per sigma^k
orbit, k columns in place of n, and settles a lone last sigma^l orbit by
a count. Wider images are built as tuples, checked one by one and handed
out as one flat tuple per block. The rows are counted as they go, and a
total other than k! * (n/k)**k is an error. `enumerate_solutions` wraps
the rows as Permutations. Both take the plain numbers n, k, l;
check_parameters is the one check of the exponents, and it runs when
iteration starts.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable, Iterator
from math import gcd
from operator import itemgetter

from .counting import p_count
from .permutation import (
    Permutation,
    canonical_sigma,
    compose,
    cycles,
    identity,
    power,
)

__all__ = [
    "InvalidParameters",
    "NoSolution",
    "block_partition",
    "check_parameters",
    "enumerate_solutions",
    "min_left_exponent",
    "solution_chunks",
    "solve_base",
]


# image bytes per checked block: large enough that the C-level passes over
# a block outweigh its per-block cost, whatever n, and that its printed
# text is one large piece (see cli._row_text); small enough that a block
# and its printed rows stay under a megabyte
_CHUNK_BYTES = 1 << 17


def _chunk_rows(n: int) -> int:
    """Rows of n images in one checked block: 14563 at n = 9, 516 at 254."""
    return max(1, _CHUNK_BYTES // n)


class NoSolution(ValueError):
    """The base equation has no solution for this right exponent."""


class InvalidParameters(ValueError):
    """(n, k, l) is not a valid solution family; carries the failed condition."""


def block_partition(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Orbits of sigma^k on {1..n}: k blocks of n/k points each.

    Block i is the residue class i, i + k, ..., i + n - k of the points, in
    orbit order, for i = 1..k: each block starts at the least point not
    covered by the earlier blocks, so the first block starts at 1.
    """
    if n < 1 or k < 1 or n % k:
        raise ValueError(f"k={k} must be a divisor of n={n}")
    return tuple(tuple(range(i, n + 1, k)) for i in range(1, k + 1))


# what the checks compare against, computed apart from the construction:
# the points 1..n; sigma^k as 0-based positions and sigma^l indexed by
# point, so that sigma^k * xi sends i to xi[sig_k0[i - 1]] and xi * sigma^l
# sends it to sig_l1[xi[i - 1]]; and the bijection pass of a byte block,
# the 0-based columns it reads, its one-hot planes, the plane of a lone
# last orbit or None, and the rows each plane's every-bit-set int is for
# (see _check_block)
_Tables = namedtuple("_Tables", "points sig_k0 sig_l1 anchors planes lone rows")


def _sigma_powers(n: int) -> list[Permutation]:
    """sigma^0, ..., sigma^(n-1) of canonical_sigma(n), by n - 1 composes:
    the powers _check_tables reads, built once for all equations of one n."""
    sigma = canonical_sigma(n)
    powers = [identity(n)]
    for _ in range(n - 1):
        powers.append(compose(powers[-1], sigma))
    return powers


def _check_tables(n: int, k: int, l: int,
                  powers: list[Permutation] | None = None) -> _Tables:
    """The _Tables of the equation of n, k and l, for _check_solves,
    _check_block and _check_tuples, from the powers of canonical_sigma(n):
    powers[e] is sigma^e when given, else power builds the two it needs.

    The anchors are the least position of each sigma^k orbit, and plane q
    sends each point v whose sigma^l orbit has number i, 8q <= i < 8q + 8,
    to the bit 1 << i - 8q and every other byte to 0. Each plane comes with
    the OR of its bits and the int of that byte repeated over the rows of
    a listing's first block. A last plane that would hold one orbit is the
    lone plane instead, with no int. For k == n both powers are the
    identity, so the anchors are all n columns and the planes the one-hot
    code of the points themselves.
    """
    if powers is None:
        sigma = canonical_sigma(n)
        sig_k, sig_l = power(sigma, k), power(sigma, l)
    else:
        sig_k, sig_l = powers[k % n], powers[l % n]
    anchors, planes, lone, rows = [], [], None, 0
    if n <= 255:  # the images of a byte block
        rows = min(_chunk_rows(n), p_count(n, k))
        # cycles lists the orbits by least point, each led by that point
        anchors = [orbit[0] - 1 for orbit in cycles(sig_k)]
        orbits = cycles(sig_l)
        for q in range(0, len(orbits), 8):
            plane = bytearray(256)
            for i, orbit in enumerate(orbits[q:q + 8]):
                for v in orbit:
                    plane[v] = 1 << i
            full = (1 << len(orbits[q:q + 8])) - 1
            if full == 1:
                lone = bytes(plane)
            else:
                planes.append((bytes(plane), full,
                               int.from_bytes(bytes((full,)) * rows, "little")))
    return _Tables(set(range(1, n + 1)), tuple([v - 1 for v in sig_k.images]),
                   (0,) + sig_l.images, tuple(anchors), tuple(planes), lone, rows)


def _check_solves(xi: tuple[int, ...], tables: _Tables, k: int, l: int) -> None:
    """Raise RuntimeError unless xi is a bijection of 1..n solving the equation.

    The tables come from _check_tables. The equation is not tested for
    k == n: every caller then has l == n or n == 1, so both sides are xi.
    """
    # construction is never trusted: re-verify every image tuple
    n = len(tables.points)
    if len(xi) != n or set(xi) != tables.points:
        problem = f"is not a bijection of 1..{n}"
    elif k < n and (tuple(map(xi.__getitem__, tables.sig_k0))
                    != tuple(map(tables.sig_l1.__getitem__, xi))):
        problem = f"fails sigma^{k} * xi == xi * sigma^{l}"
    else:
        return
    raise RuntimeError(f"constructed [{' '.join(map(str, xi))}] {problem}")


def solve_base(n: int, l: int, a: int) -> Permutation:
    """One solution of sigma * xi == xi * sigma^l with xi(1) == a:
    xi(1 + j) = a + j*l mod n, written in 1..n.

    Solvable exactly when GCD(l, n) == 1; raises NoSolution otherwise.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if l < 1:
        raise ValueError(f"l must be positive, got {l}")
    if not 1 <= a <= n:
        raise ValueError(f"anchor a={a} outside 1..{n}")
    if gcd(l, n) != 1:
        raise NoSolution(
            f"sigma * xi == xi * sigma^{l} unsolvable in S_{n}: "
            f"GCD({l},{n}) = {gcd(l, n)}")
    xi = tuple([(a - 1 + j * l) % n + 1 for j in range(n)])
    _check_solves(xi, _check_tables(n, 1, l), 1, l)
    return Permutation(xi)


def check_parameters(n: int, k: int, l: int) -> str | None:
    """Diagnostic naming the first failed solvability condition, else None.

    Valid families are (n, n), the trivial equation satisfied by all of S_n,
    and pairs with 1 <= k <= l < n where k divides both n and l and l is
    s*k mod n for some s coprime to n, which holds exactly when
    GCD(l/k, n/k) == 1.
    """
    if n < 1:
        return f"need n >= 1, got n={n}"
    if k == n and l == n:
        return None
    if not (1 <= k <= l < n):
        return f"need 1 <= k <= l < n (or k = l = n), got k={k}, l={l}"
    if n % k:
        return f"k={k} does not divide n={n}"
    if l % k:
        return f"k={k} does not divide l={l}"
    if gcd(l // k, n // k) != 1:
        return f"l={l} is not s*k mod {n} for any s coprime to {n}"
    return None


def _constructed(n: int, k: int, l: int) -> Iterator[tuple[int, ...]]:
    """Every solution of a valid (n, k, l) as an image tuple, unchecked.

    The construction for n >= 256, and the reference order of _blocks.
    """
    if k == n:
        # sigma^n is the identity on both sides, so everything solves it
        return itertools.permutations(range(1, n + 1))
    blocks = block_partition(n, k)
    targets = _orbits(n, l, blocks)
    # a choice of anchors concatenates one orbit per block, block by block,
    # so position p of xi reads entry place[p] of that concatenation
    m = n // k
    place = [0] * n
    for i, block in enumerate(blocks):
        for j, pos in enumerate(block):
            place[pos - 1] = i * m + j
    gather = itemgetter(*place)
    return (gather(tuple(itertools.chain.from_iterable(choice)))
            for assignment in itertools.permutations(range(k))
            for choice in itertools.product(*(targets[t] for t in assignment)))


def _orbits(n: int, l: int,
            blocks: tuple[tuple[int, ...], ...]) -> list[list[tuple[int, ...]]]:
    """targets[t][c] is the orbit v, v + l, ... mod n of length n/k of the
    c-th least point v of block t, under sigma^l: the images that anchor
    value gives a block, in sigma^k orbit order."""
    steps = range(0, len(blocks[0]) * l, l)
    return [[tuple([(v - 1 + s) % n + 1 for s in steps]) for v in block]
            for block in blocks]


def _blocks(n: int, k: int, l: int) -> Iterator[bytes]:
    """Every solution of a valid (n, k, l) with n <= 255, in the order of
    _constructed, as row-major bytes blocks of 1 to _chunk_rows(n) rows,
    unchecked.

    A solution is xi0 relabelled class by class, xi0 being the one with
    the identity assignment and every anchor at its least point: position
    p holds p % k + (p // k) * l mod n, written in 1..n. Class d, the
    values d + 1 mod k that xi0 gives group d, goes to the class of that
    group's target block, rotated by its anchor in steps of k; one
    256-byte table does it all. A template starts as xi0 and grows along
    the lexicographic key (assignment, anchors) from its last component,
    one translate per value of the new component, while it stays within
    _chunk_rows(n) rows: the anchors from the last group back, then, once
    every anchor varies, the target of each group from the second last
    back. Each block is one translate of the template, one per value of
    the components it leaves fixed.
    """
    m = n // k
    turns = [[row[s:] + row[:s] for s in range(m)]
             for row in (bytes(range(d + 1, n + 1, k)) for d in range(k))]
    unmoved = bytes(range(256))

    def table(prefix: tuple[int, ...], shifts: tuple[int, ...]) -> bytearray:
        # group i targets prefix[i], the rest the remaining classes in
        # ascending order; the first len(shifts) groups rotate by shifts[i]
        order = prefix + tuple(sorted(set(range(k)).difference(prefix)))
        out = bytearray(unmoved)
        moves = itertools.zip_longest(order, shifts, fillvalue=0)
        for i, (d, s) in enumerate(moves):
            out[i + 1:n + 1:k] = turns[d][s]
        return out

    most = _chunk_rows(n)
    template = bytes([(p % k + p // k * l) % n + 1 for p in range(n)])
    rows, g, a = 1, k, k - 1  # the template varies groups g.. and targets a..
    while g and rows * m <= most:
        g -= 1
        template = b"".join([template.translate(table((), (0,) * g + (s,)))
                             for s in range(m)])
        rows *= m
    while not g and a and rows * (k - a + 1) <= most:
        a -= 1
        template = b"".join([template.translate(table((*range(a), a + r), ()))
                             for r in range(k - a)])
        rows *= k - a
    for prefix in itertools.permutations(range(k), a):
        for shifts in itertools.product(range(m), repeat=g):
            yield template.translate(table(prefix, shifts))


def _rechunked(blocks: Iterable[bytes], n: int) -> Iterator[bytes]:
    """The rows of the blocks, n bytes each, cut again into blocks of
    _chunk_rows(n) rows; the last may be shorter. Each byte is copied once,
    from a view of its block straight into the block it is cut into."""
    size = _chunk_rows(n) * n
    parts, have = [], 0
    for block in blocks:
        view, at = memoryview(block), 0
        while have + len(view) - at >= size:
            parts.append(view[at:at + size - have])
            at += size - have
            yield b"".join(parts)
            parts, have = [], 0
        if at < len(view):
            parts.append(view[at:])
            have += len(view) - at
    if parts:
        yield b"".join(parts)


def _check_block(block: bytes, tables: _Tables, k: int, l: int,
                 columns: list[bytes] | None = None) -> bytes:
    """_check_solves for every row of a row-major bytes block of images,
    n <= 255 of them per row; returns the block. columns, when given, are
    its n column slices block[c::n], which the caller also formats.

    The passes work on whole columns, block[c::n], and trust nothing of
    the construction. For k < n the equation pass comes first: n strided
    copies of the block must equal the block translated by sigma^l, with
    0 and every value past n sent to 0. Then the bijection pass translates
    each anchor column by each one-hot plane of the tables, reads the
    result as an int and ORs them; every bit of the plane must then be set
    in every row's byte. So the anchors of each row hit every orbit of
    sigma^l, one each, and none holds 0 or a value past n. A last plane
    with a single orbit is counted instead: the planes before it make each
    row's anchors hit the other k - 1 orbits, so at most one anchor of a
    row is left for it, and the hits of that orbit over the anchor columns
    must equal the row count, one in every row (for k == n the anchors are
    the whole block and the orbit is the point n, so block.count(n)).
    Under the equation, a position orbit of sigma^k whose anchor holds v in
    1..n holds the whole sigma^l orbit of v: a row passes both exactly when
    it is a bijection of 1..n that solves the equation. That reads k
    columns of a row instead of n, k^2/8 byte operations instead of n^2/8.
    For k == n the anchors are all n columns and the orbits the single
    points, the full one-hot pass. A block that fails a pass, or whose
    length is not a multiple of n, goes through _check_solves row by row,
    which names its first bad row.
    """
    n = len(tables.points)
    rows, rest = divmod(len(block), n)
    passes = not rest
    if columns is None:
        columns = [block[c::n] for c in range(n)]
    if passes and k < n:
        left = bytearray(len(block))
        for i, j in enumerate(tables.sig_k0):
            left[i::n] = columns[j]
        passes = left == block.translate(bytes(tables.sig_l1).ljust(256, b"\0"))
    for plane, full, every in tables.planes:
        if not passes:
            break
        seen = 0
        for c in tables.anchors:
            seen |= int.from_bytes(columns[c].translate(plane), "little")
        if rows != tables.rows:
            every = int.from_bytes(bytes((full,)) * rows, "little")
        passes = seen == every
    if passes and tables.lone is not None:
        if k == n:
            hits = block.count(n)
        else:
            hits = sum([columns[c].translate(tables.lone).count(1)
                        for c in tables.anchors])
        passes = hits == rows
    if not passes:
        for at in range(0, len(block), n):
            _check_solves(tuple(block[at:at + n]), tables, k, l)
    return block


def _check_tuples(chunk: list[tuple[int, ...]], tables: _Tables,
                  k: int, l: int) -> tuple[int, ...]:
    """_check_solves for every tuple of a chunk, the check for n >= 256;
    returns the chunk's images as one row-major tuple."""
    for xi in chunk:
        _check_solves(xi, tables, k, l)
    return tuple(itertools.chain.from_iterable(chunk))


def _checked_blocks(n: int, k: int, l: int,
                    powers: list[Permutation] | None = None
                    ) -> Iterator[tuple[bytes | tuple[int, ...], list[bytes] | None]]:
    """The blocks of solution_chunks, each with its n column slices
    block[c::n] when it is bytes (n <= 255) and None when it is a tuple:
    the check reads the columns, and a formatter may read them again. The
    checks' tables come from powers, sigma^e at index e, when given."""
    reason = check_parameters(n, k, l)
    if reason is not None:
        raise InvalidParameters(reason)
    tables = _check_tables(n, k, l, powers)
    listed = 0
    if n <= 255:
        for block in _rechunked(_blocks(n, k, l), n):
            columns = [block[c::n] for c in range(n)]
            _check_block(block, tables, k, l, columns)
            listed += len(block) // n
            yield block, columns
    else:
        tuples = _constructed(n, k, l)
        rows = _chunk_rows(n)
        for chunk in iter(lambda: list(itertools.islice(tuples, rows)), []):
            block = _check_tuples(chunk, tables, k, l)
            listed += len(chunk)
            yield block, None
    count = p_count(n, k)
    if listed != count:
        raise RuntimeError(f"constructed {listed} solutions of "
                           f"(n={n}, k={k}, l={l}), expected {count}")


def solution_chunks(n: int, k: int, l: int) -> Iterator[bytes | tuple[int, ...]]:
    """Every solution of sigma^k * xi == xi * sigma^l over S_n, in a fixed
    order, as row-major blocks of n images per row and _chunk_rows(n) rows
    per block, about _CHUNK_BYTES images (the last block may be shorter).

    A block is bytes for n <= 255, where every image fits a byte, and a
    tuple of ints otherwise; either way block[r * n:(r + 1) * n] is row r.
    Each block is checked as a whole before it is yielded, with the
    property _check_solves proves for one row. The rows are counted as
    they are yielded: after the last block, a total other than
    k! * (n/k)**k raises RuntimeError. Invalid (n, k, l) raises
    InvalidParameters, with the failed condition spelled out, when
    iteration starts.
    """
    for block, _ in _checked_blocks(n, k, l):
        yield block


def enumerate_solutions(n: int, k: int, l: int) -> list[Permutation]:
    """Every solution of sigma^k * xi == xi * sigma^l over S_n, in the
    order of solution_chunks.

    The result has exactly k! * (n/k)**k members. Invalid (n, k, l) raises
    InvalidParameters with the failed condition spelled out.
    """
    return [Permutation(tuple(block[at:at + n]))
            for block in solution_chunks(n, k, l)
            for at in range(0, len(block), n)]


def min_left_exponent(xi: Permutation) -> tuple[int, int] | None:
    """Least k in 1..n-1 with sigma^k * xi == xi * sigma^l for some l.

    Returns the pair (k, l); the l is unique for that k. Returns None when
    no such pair exists, which is the relation-free case. sigma^k * xi
    sends i to xi(i + k) and xi * sigma^l sends it to xi(i) + l, mod n, so
    for each k the one candidate is l = xi(1 + k) - xi(1) mod n, never 0
    as xi is a bijection, and it must then hold at every i: O(n^2) integer
    steps. For another n-cycle tau = h * sigma * h^-1, the least relation
    tau^k * xi == xi * tau^l of xi is min_left_exponent(h^-1 * xi * h).
    """
    x = xi.images
    n = len(x)
    for k in range(1, n):
        l = (x[k] - x[0]) % n
        if all((a - b) % n == l for a, b in zip(x[k:] + x[:k], x)):
            return (k, l)
    return None
