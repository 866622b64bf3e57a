"""Constructive solving of sigma^k * xi == xi * sigma^l for a full cycle sigma.

The base case k = 1 is solvable exactly when GCD(l, n) = 1, and then one
anchor value xi(1) = a determines everything through the recursion
xi(sigma^j(1)) = sigma^(j*l)(a). For general k the points {1..n} split into
k blocks, the orbits of sigma^k, and a solution is one choice of a distinct
target block plus an anchor value per block; that makes k! * (n/k)**k
solutions. `solution_chunks` yields them in a fixed lexicographic order as
lists of up to _CHUNK one-line image tuples, each list checked as a whole
before it is handed out: every tuple must be a bijection of 1..n and, for
k < n, satisfy the equation on the precomputed powers of sigma. For
n <= 255 the check runs on the list as one bytes block of its images, which
comes paired with the list and which the CLI formats from; wider images
are checked tuple by tuple and pair the list with None. The lists are
counted as they go, and a total other than k! * (n/k)**k is an error.
`enumerate_solutions` wraps the tuples as Permutations.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field
from math import gcd
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


# solutions per checked list: large enough that the C-level passes over a
# list outweigh its per-list cost, small enough that a list and its printed
# rows stay well under a megabyte
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
    """Every solution of a valid (n, k, l) as an image tuple, unchecked."""
    if k == n:
        # sigma^n is the identity on both sides, so everything solves it
        return itertools.permutations(range(1, n + 1))
    part = block_partition(n, k, sigma)
    sig_l = power(sigma, l)
    m = n // k
    # orbit[v] is v, sigma^l(v), ... of length n/k, the images an anchor
    # value v gives its block in sigma^k orbit order. A choice of anchors
    # concatenates one orbit per block, block by block, so position p of xi
    # reads entry place[p] of that concatenation.
    orbit = [()]
    for v in range(1, n + 1):
        seq = [v]
        for _ in range(m - 1):
            seq.append(sig_l(seq[-1]))
        orbit.append(tuple(seq))
    place = [0] * n
    for i, block in enumerate(part.blocks):
        for j, pos in enumerate(block):
            place[pos - 1] = i * m + j
    gather = itemgetter(*place)
    targets = [[orbit[v] for v in sorted(b)] for b in part.blocks]
    return (gather(tuple(itertools.chain.from_iterable(choice)))
            for assignment in itertools.permutations(range(k))
            for choice in itertools.product(*(targets[t] for t in assignment)))


def _check_chunk(chunk: list[tuple[int, ...]], points: set[int],
                 sig_k0: tuple[int, ...], sig_l1: tuple[int, ...],
                 k: int, l: int) -> bytes | None:
    """_check_solves for every tuple of a non-empty chunk; returns the
    chunk's images as one row-major bytes block when n <= 255 and the
    block passes, else None.

    For n <= 255, where an image fits a byte, the chunk is checked in a few
    C-level passes over its rows as bytes. bytes.maketrans(row, ident) maps
    row[i] to i with the later entry winning, so row translated by it is
    ident exactly when no value repeats; it raises, as bytes() does for a
    value outside 0..255, on a row whose length is not n. Deleting 1..n
    from the block must then leave nothing, and for k < n the equation
    compares n strided copies of the block with the block translated by
    sigma^l. A chunk that fails these passes, and every chunk for
    n >= 256, goes through _check_solves row by row, which names its first
    bad tuple.
    """
    n = len(points)
    if n <= 255:
        ident = bytes(range(n))
        try:
            rows = list(map(bytes, chunk))
            passes = (b"".join(map(bytes.translate, rows,
                                   map(bytes.maketrans, rows, itertools.repeat(ident))))
                      == ident * len(rows))
        except ValueError:
            passes = False
        if passes:
            block = b"".join(rows)
            passes = not block.translate(None, bytes(range(1, n + 1)))
        if passes and k < n:
            left = bytearray(len(block))
            for i, j in enumerate(sig_k0):
                left[i::n] = block[j::n]
            passes = left == block.translate(bytes(sig_l1).ljust(256, b"\0"))
        if passes:
            return block
    for xi in chunk:
        _check_solves(xi, points, sig_k0, sig_l1, k, l)
    return None


def solution_chunks(
        inst: EquationInstance) -> Iterator[tuple[list[tuple[int, ...]], bytes | None]]:
    """Every solution as a one-line image tuple, in a fixed order, in lists
    of _CHUNK (the last may be shorter), each paired with its byte block.

    Each list is checked as a whole before it is yielded, with the property
    _check_solves proves for one tuple. The block is the list's images as
    one row-major bytes block, or None for n >= 256. The lists are counted
    as they are yielded: after the last one, a total other than
    k! * (n/k)**k raises RuntimeError. Invalid (k, l) raises
    InvalidParameters, with the failed condition spelled out, when
    iteration starts.
    """
    n, k, l, sigma = inst.n, inst.k, inst.l, inst.sigma
    reason = check_parameters(n, k, l)
    if reason is not None:
        raise InvalidParameters(reason)
    tables = _check_tables(sigma, k, l)
    tuples = _constructed(n, k, l, sigma)
    listed = 0
    for chunk in iter(lambda: list(itertools.islice(tuples, _CHUNK)), []):
        listed += len(chunk)
        yield chunk, _check_chunk(chunk, *tables, k, l)
    count = p_count(n, k)
    if listed != count:
        raise RuntimeError(f"constructed {listed} solutions of "
                           f"(n={n}, k={k}, l={l}), expected {count}")


def enumerate_solutions(inst: EquationInstance) -> list[Permutation]:
    """Every solution of the instance, in the order of solution_chunks.

    The result has exactly k! * (n/k)**k members. Invalid (k, l) raises
    InvalidParameters with the failed condition spelled out.
    """
    return [Permutation(xi) for chunk, _ in solution_chunks(inst) for xi in chunk]


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
