"""Constructive solving of sigma^k * xi == xi * sigma^l for a full cycle sigma.

The base case k = 1 is solvable exactly when GCD(l, n) = 1, and then one
anchor value xi(1) = a determines everything through the recursion
xi(sigma^j(1)) = sigma^(j*l)(a). For general k the points {1..n} split into
k blocks, the orbits of sigma^k, and a solution is one choice of a distinct
target block plus an anchor value per block; that makes k! * (n/k)**k
solutions. `solution_chunks` yields them in a fixed lexicographic order as
row-major blocks of up to _CHUNK rows of n images, each block checked as a
whole before it is handed out: every row must be a bijection of 1..n and,
for k < n, satisfy the equation on the precomputed powers of sigma. For
n <= 255 every image fits a byte, and a block is built and checked as one
bytes object by whole-column operations, with no Python object per
solution, and the CLI formats it the same way; wider images are built as
tuples, checked one by one and handed out as one flat tuple per block. The
rows are counted as they go, and a total other than k! * (n/k)**k is an
error.
`enumerate_solutions` wraps the rows as Permutations.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from math import factorial, gcd
from operator import itemgetter

from .counting import p_count
from .permutation import Permutation, _require_cycle, compose, identity, power

__all__ = [
    "BlockPartition",
    "EquationInstance",
    "InvalidParameters",
    "NoSolution",
    "block_partition",
    "check_parameters",
    "enumerate_solutions",
    "min_left_exponent",
    "solution_chunks",
    "solve_base",
]


# rows per checked block: large enough that the C-level passes over a
# block outweigh its per-block cost, small enough that a block and its
# printed rows stay well under a megabyte
_CHUNK = 4096


class NoSolution(ValueError):
    """The base equation has no solution for this right exponent."""


class InvalidParameters(ValueError):
    """(k, l) is not a valid solution family; carries the failed condition."""


@dataclass(frozen=True)
class EquationInstance:
    """One equation sigma^k * xi == xi * sigma^l over S_n."""

    n: int
    k: int
    l: int
    sigma: Permutation = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not (1 <= self.k <= self.n and 1 <= self.l <= self.n):
            raise ValueError(
                f"exponents must lie in 1..{self.n}, got k={self.k}, l={self.l}")
        object.__setattr__(self, "sigma", _require_cycle(self.n, self.sigma))


@dataclass(frozen=True)
class BlockPartition:
    """Orbits of sigma^k on {1..n}: k blocks of n/k points each.

    blocks[i] lists the orbit of anchors[i] in orbit order, and anchors[i]
    is the least point not covered by the earlier blocks (anchors[0] == 1).
    """

    k: int
    blocks: tuple[tuple[int, ...], ...]
    anchors: tuple[int, ...]


def block_partition(n: int, k: int, sigma: Permutation | None = None) -> BlockPartition:
    if n < 1 or k < 1 or n % k:
        raise ValueError(f"k={k} must be a divisor of n={n}")
    sigma = _require_cycle(n, sigma)
    sig_k = power(sigma, k)
    covered = [False] * (n + 1)
    blocks, anchors = [], []
    for _ in range(k):
        m = next(i for i in range(1, n + 1) if not covered[i])
        anchors.append(m)
        block = []
        pos = m
        for _ in range(n // k):
            block.append(pos)
            covered[pos] = True
            pos = sig_k(pos)
        blocks.append(tuple(block))
    return BlockPartition(k, tuple(blocks), tuple(anchors))


def _check_tables(sigma: Permutation, k: int,
                  l: int) -> tuple[set[int], tuple[int, ...], tuple[int, ...]]:
    """What _check_solves compares against: the points 1..n, sigma^k, sigma^l.

    sigma^k comes as 0-based positions and sigma^l indexed by point, so
    sigma^k * xi sends i to xi[sig_k0[i - 1]] and xi * sigma^l sends it to
    sig_l1[xi[i - 1]]. The powers are computed here, apart from the ones
    the construction uses.
    """
    n = sigma.degree
    return (set(range(1, n + 1)),
            tuple([v - 1 for v in power(sigma, k).images]),
            (0,) + power(sigma, l).images)


def _check_solves(xi: tuple[int, ...], points: set[int], sig_k0: tuple[int, ...],
                  sig_l1: tuple[int, ...], k: int, l: int) -> None:
    """Raise RuntimeError unless xi is a bijection of 1..n solving the equation.

    The tables come from _check_tables. The equation is not tested for
    k == n: every caller then has l == n or n == 1, so both sides are xi.
    """
    # construction is never trusted: re-verify every image tuple
    n = len(points)
    if len(xi) != n or set(xi) != points:
        problem = f"is not a bijection of 1..{n}"
    elif k < n and (tuple(map(xi.__getitem__, sig_k0))
                    != tuple(map(sig_l1.__getitem__, xi))):
        problem = f"fails sigma^{k} * xi == xi * sigma^{l}"
    else:
        return
    raise RuntimeError(f"constructed [{' '.join(map(str, xi))}] {problem}")


def solve_base(n: int, l: int, a: int, sigma: Permutation | None = None) -> Permutation:
    """One solution of sigma * xi == xi * sigma^l with xi(1) == a.

    Solvable exactly when GCD(l, n) == 1; raises NoSolution otherwise.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if l < 1:
        raise ValueError(f"l must be positive, got {l}")
    if not 1 <= a <= n:
        raise ValueError(f"anchor a={a} outside 1..{n}")
    sigma = _require_cycle(n, sigma)
    if gcd(l, n) != 1:
        raise NoSolution(
            f"sigma * xi == xi * sigma^{l} unsolvable in S_{n}: "
            f"GCD({l},{n}) = {gcd(l, n)}")
    sig_l = power(sigma, l)
    images = [0] * n
    pos, val = 1, a
    for _ in range(n):
        images[pos - 1] = val
        pos = sigma(pos)
        val = sig_l(val)
    xi = tuple(images)
    _check_solves(xi, *_check_tables(sigma, 1, l), 1, l)
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


def _constructed(n: int, k: int, l: int,
                 sigma: Permutation) -> Iterator[tuple[int, ...]]:
    """Every solution of a valid (n, k, l) as an image tuple, unchecked.

    The construction for n >= 256, and the reference order of _blocks.
    """
    if k == n:
        # sigma^n is the identity on both sides, so everything solves it
        return itertools.permutations(range(1, n + 1))
    part = block_partition(n, k, sigma)
    targets = _orbits(sigma, l, part)
    # a choice of anchors concatenates one orbit per block, block by block,
    # so position p of xi reads entry place[p] of that concatenation
    m = n // k
    place = [0] * n
    for i, block in enumerate(part.blocks):
        for j, pos in enumerate(block):
            place[pos - 1] = i * m + j
    gather = itemgetter(*place)
    return (gather(tuple(itertools.chain.from_iterable(choice)))
            for assignment in itertools.permutations(range(k))
            for choice in itertools.product(*(targets[t] for t in assignment)))


def _orbits(sigma: Permutation, l: int,
            part: BlockPartition) -> list[list[tuple[int, ...]]]:
    """targets[t][c] is the orbit v, sigma^l(v), ... of length n/k of the
    c-th least point v of block t: the images that anchor value gives a
    block, in sigma^k orbit order."""
    sig_l = power(sigma, l)
    targets = []
    for block in part.blocks:
        orbits = []
        for v in sorted(block):
            seq = [v]
            for _ in range(len(block) - 1):
                seq.append(sig_l(seq[-1]))
            orbits.append(tuple(seq))
        targets.append(orbits)
    return targets


def _blocks(n: int, k: int, l: int, sigma: Permutation) -> Iterator[bytes]:
    """Every solution of a valid (n, k, l) with n <= 255, in the order of
    _constructed, as row-major bytes blocks of 1 to _CHUNK rows, unchecked.

    k == n lists S_n: a template holds the j! arrangements of the last j
    positions as 0..j-1, and the placeholder j + c in each earlier column
    c; one translate per prefix of the first n - j images maps the
    placeholders onto the prefix and 0..j-1 onto the remaining values in
    ascending order. For k < n a block fixes the assignment of target
    blocks and the orbits chosen for the first g groups, and the later
    groups vary within it, the last fastest. Each of their columns is one
    strided copy of a precomputed column, in which every orbit's entry is
    repeated once per row of the choices after it and the whole tiled once
    per choice of the groups between g and it.
    """
    if k == n:
        j = 1
        while j < n and factorial(j + 1) <= _CHUNK:
            j += 1
        rows = factorial(j)
        template = bytearray(rows * n)
        for c in range(n - j):
            template[c::n] = bytes((j + c,)) * rows
        tail = bytes(itertools.chain.from_iterable(itertools.permutations(range(j))))
        for c in range(j):
            template[n - j + c::n] = tail[c::j]
        template = bytes(template)
        values = range(1, n + 1)
        pad = bytes(256 - n)
        for prefix in itertools.permutations(values, n - j):
            rest = bytes(sorted(set(values).difference(prefix)))
            yield template.translate(rest + bytes(prefix) + pad)
        return
    part = block_partition(n, k, sigma)
    targets = _orbits(sigma, l, part)
    m = n // k
    g = k
    while g and m ** (k - g + 1) <= _CHUNK:
        g -= 1
    rows = m ** (k - g)
    # position p reads entry j of the orbit chosen for group i
    fixed, varied = [], []
    for i, block in enumerate(part.blocks):
        for j, pos in enumerate(block):
            (fixed if i < g else varied).append((pos - 1, i, j))
    columns = [[[bytes(itertools.chain.from_iterable(
                    [orbit[j]] * m ** (k - 1 - i) for orbit in orbits)) * m ** (i - g)
                 for j in range(m)]
                for i in range(g, k)]
               for orbits in targets]
    for assignment in itertools.permutations(range(k)):
        for choice in itertools.product(*(targets[t] for t in assignment[:g])):
            row = bytearray(n)
            for p, i, j in fixed:
                row[p] = choice[i][j]
            block = row * rows
            for p, i, j in varied:
                block[p::n] = columns[assignment[i]][i - g][j]
            yield bytes(block)


def _rechunked(blocks: Iterable[bytes], n: int) -> Iterator[bytes]:
    """The rows of the blocks, n bytes each, cut again into blocks of
    _CHUNK rows; the last may be shorter."""
    size = _CHUNK * n
    pending = bytearray()
    for block in blocks:
        pending += block
        while len(pending) >= size:
            yield bytes(pending[:size])
            del pending[:size]
    if pending:
        yield bytes(pending)


def _check_block(block: bytes, points: set[int], sig_k0: tuple[int, ...],
                 sig_l1: tuple[int, ...], k: int, l: int) -> bytes:
    """_check_solves for every row of a row-major bytes block of images,
    n <= 255 of them per row; returns the block.

    The passes work on whole columns, block[c::n], and trust nothing of
    the construction. Plane q of a one-hot code maps each point v with
    (v - 1) // 8 == q to the bit 1 << (v - 1) % 8 and every other byte to
    0. The columns translated by a plane, read as ints and OR-ed, have
    every bit of the plane set in every row's byte exactly when each row
    holds each of the plane's points; with all planes full and n entries
    per row, no room is left for a repeat, 0 or a value past n. For k < n
    the equation compares n strided copies of the block with the block
    translated by sigma^l. A block that fails a pass, or whose length is
    not a multiple of n, goes through _check_solves row by row, which names
    its first bad row.
    """
    n = len(points)
    rows, rest = divmod(len(block), n)
    passes = not rest
    columns = [block[c::n] for c in range(n)]
    planes = [bytearray(256) for _ in range(0, n, 8)]
    for v in points:
        planes[(v - 1) // 8][v] = 1 << (v - 1) % 8
    for plane in planes:
        if not passes:
            break
        seen = 0
        for column in columns:
            seen |= int.from_bytes(column.translate(plane), "little")
        passes = seen == int.from_bytes(bytes((sum(plane),)) * rows, "little")
    if passes and k < n:
        left = bytearray(len(block))
        for i, j in enumerate(sig_k0):
            left[i::n] = columns[j]
        passes = left == block.translate(bytes(sig_l1).ljust(256, b"\0"))
    if not passes:
        for at in range(0, len(block), n):
            _check_solves(tuple(block[at:at + n]), points, sig_k0, sig_l1, k, l)
    return block


def _check_tuples(chunk: list[tuple[int, ...]], points: set[int],
                  sig_k0: tuple[int, ...], sig_l1: tuple[int, ...],
                  k: int, l: int) -> tuple[int, ...]:
    """_check_solves for every tuple of a chunk, the check for n >= 256;
    returns the chunk's images as one row-major tuple."""
    for xi in chunk:
        _check_solves(xi, points, sig_k0, sig_l1, k, l)
    return tuple(itertools.chain.from_iterable(chunk))


def solution_chunks(inst: EquationInstance) -> Iterator[bytes | tuple[int, ...]]:
    """Every solution, in a fixed order, as row-major blocks of n images
    per row and _CHUNK rows per block (the last may be shorter).

    A block is bytes for n <= 255, where every image fits a byte, and a
    tuple of ints otherwise; either way block[r * n:(r + 1) * n] is row r.
    Each block is checked as a whole before it is yielded, with the
    property _check_solves proves for one row. The rows are counted as
    they are yielded: after the last block, a total other than
    k! * (n/k)**k raises RuntimeError. Invalid (k, l) raises
    InvalidParameters, with the failed condition spelled out, when
    iteration starts.
    """
    n, k, l, sigma = inst.n, inst.k, inst.l, inst.sigma
    reason = check_parameters(n, k, l)
    if reason is not None:
        raise InvalidParameters(reason)
    tables = _check_tables(sigma, k, l)
    if n <= 255:
        chunks = _rechunked(_blocks(n, k, l, sigma), n)
        check = _check_block
    else:
        tuples = _constructed(n, k, l, sigma)
        chunks = iter(lambda: list(itertools.islice(tuples, _CHUNK)), [])
        check = _check_tuples
    listed = 0
    for chunk in chunks:
        block = check(chunk, *tables, k, l)
        listed += len(block) // n
        yield block
    count = p_count(n, k)
    if listed != count:
        raise RuntimeError(f"constructed {listed} solutions of "
                           f"(n={n}, k={k}, l={l}), expected {count}")


def enumerate_solutions(inst: EquationInstance) -> list[Permutation]:
    """Every solution of the instance, in the order of solution_chunks.

    The result has exactly k! * (n/k)**k members. Invalid (k, l) raises
    InvalidParameters with the failed condition spelled out.
    """
    n = inst.n
    return [Permutation(tuple(block[at:at + n]))
            for block in solution_chunks(inst) for at in range(0, len(block), n)]


def min_left_exponent(xi: Permutation,
                      sigma: Permutation | None = None) -> tuple[int, int] | None:
    """Least k in 1..n-1 with sigma^k * xi == xi * sigma^l for some l.

    Returns the pair (k, l); the l is unique for that k. Returns None when
    no such pair exists, which is the relation-free case.
    """
    n = xi.degree
    sigma = _require_cycle(n, sigma)
    pow_sigma = [identity(n)]
    for _ in range(n - 1):
        pow_sigma.append(compose(pow_sigma[-1], sigma))
    for k in range(1, n):
        left = compose(pow_sigma[k], xi)
        for l in range(1, n):
            if left == compose(xi, pow_sigma[l]):
                return (k, l)
    return None
