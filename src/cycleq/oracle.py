"""Brute-force ground truth over all of S_n.

Orbits of xi -> sigma * xi and xi -> xi * sigma are exactly the equivalence
classes, so walking the group counts them with no number theory involved.
Factorial growth makes this a small-n tool: calls are guarded by a
configurable bound (default 8), and n past 16 is refused whatever the
bound. One class walk of the shift takes about 0.9 ms at n = 8, 3.5 ms at
n = 9, 0.024 s at n = 10 and 0.2-0.3 s at n = 11 (medians of in-process sets
on a shared 2-vCPU Xeon under Python 3.11.7).
Right multiplication by the powers of sigma moves xi(1) through every point
once, so each orbit splits into n-element cosets that each meet the slice
xi(1) = 1 once. The walk therefore visits only that slice: for each of its
elements it forms the n slice images sigma^a * xi * sigma^b(a), and the
class is n times the number of distinct images. A class is counted at its
lexicographically least member, which lies in the slice, so a slice element
is dropped at the first image smaller than itself. An image's second entry
is compared first, on a tie its third, and the image is built only when
both tie. The images are the orbit of xi under an action of Z_n on the
slice, so they number n over the count of shifts a that give xi back:
a = 0 and one per relation.

The slice is walked in lexicographic order as cells that each fix the
prefix x[1..n-7] (0-based) and leave the 6! tails of the last six
entries; for n <= 7 the whole slice is one cell. A shift whose image takes
its entries 0 and 1 from the prefix is settled once per cell: it rejects
the whole cell unwalked, or it leaves the cell's shift list, or on a tie
it stays for the tails. Inside a cell each free entry of x is a column of
one byte per tail, and each remaining shift settles the second and third
entries of every tail's image at once: two columns packed as 16 * u + v
(so n <= 16) and one bytes.translate give an image entry, and a table of
comparison codes sets it against x. A tail that some shift makes smaller
is dropped, one that every shift makes larger is the least member of a
class of n^2, and only the tails that tie are settled on whole images.

The same walk answers every equation sigma^k * xi == xi * sigma^l. A
representative x that is its own image at a satisfies
sigma^a * x == x * sigma^(n-b(a)), and so does every member
sigma^c * x * sigma^d of its class, because powers of sigma commute with
each other. The number of solutions of one equation is therefore the total
size of the classes whose representative solves it: solution_counts, for
(k, l) in 1..n-1, an absent pair having none. Each of the n! xi solves
sigma^0 * xi == xi * sigma^0; none solves one with one side the identity.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from math import factorial
from operator import itemgetter

from . import DEFAULT_BOUND, DEFAULT_SEED
from .permutation import (
    Permutation,
    _require_cycle,
    canonical_sigma,
    compose,
    inverse,
    is_full_cycle,
)

__all__ = [
    "BoundExceeded",
    "ClassReport",
    "DEFAULT_BOUND",
    "DEFAULT_SEED",
    "enumerate_classes",
    "sigma_independence_check",
]

_CONJUGATES = 3
# the free entries of a cell: its 6! tails are walked as byte columns
_TAIL = 6
# the largest n the walk takes: two entries pack into a byte as 16 * u + v
_MAX_N = 16

# Comparison codes, one byte per tail. An image entry is coded against
# x[1] as 1 below, 6 equal and 0 above, and against x[2] as 3 below, 5
# equal and 1 above, so the code of entry 1 and-ed with that of entry 2 is
# 1 or 2 where the image is smaller than x, _TIE where both entries tie and
# 0 where the image is larger. _FIRST[v] and _SECOND[v] code an entry
# against the value v, and _AGAINST_FIRST and _AGAINST_SECOND code a packed
# 16 * entry + v.
_TIE = 4
_FIRST = [b"\1" * v + b"\6" + bytes(255 - v) for v in range(_MAX_N)]
_SECOND = [b"\3" * v + b"\5" + b"\1" * (255 - v) for v in range(_MAX_N)]
_AGAINST_FIRST = bytes(_FIRST[w & 15][w >> 4] for w in range(256))
_AGAINST_SECOND = bytes(_SECOND[w & 15][w >> 4] for w in range(256))
# the tails whose codes or-ed over a cell's shifts are exactly _TIE, and
# those with the tails that every shift leaves larger (code 0) for the
# per-class detail
_TIED = re.compile(rb"\x04")
_KEPT = re.compile(rb"[\x00\x04]")


class BoundExceeded(ValueError):
    """n is past the configured brute-force bound."""


def _check_bound(n: int, bound: int) -> None:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > _MAX_N:
        raise BoundExceeded(
            f"n={n} exceeds {_MAX_N}, the largest n the brute force can "
            "walk, whatever the bound")
    if n > bound:
        raise BoundExceeded(
            f"n={n} exceeds the brute-force bound {bound}; "
            "raise the bound explicitly if you really want this")


@dataclass(frozen=True)
class ClassReport:
    """What the orbit walk saw: class count plus the size histogram."""

    n: int
    sigma: Permutation
    class_count: int
    size_histogram: dict[int, int]
    # optional (representative, size, least relation (k, l) or None) per class
    per_class: tuple | None = None
    # brute-force solution counts: (k, l) in 1..n-1 -> the number of xi
    # with sigma^k * xi == xi * sigma^l, none if absent; derived, not compared
    solution_counts: dict = field(default_factory=dict, compare=False)


@cache
def _rank_block(t: int) -> tuple[bytes, int, int]:
    """The t! permutations of range(t) in lexicographic order, one after
    the other (translated by a cell's free values, its tails in order),
    their number, and the int of that many 1 bytes."""
    rows = factorial(t)
    return (bytes(itertools.chain.from_iterable(itertools.permutations(range(t)))),
            rows, int.from_bytes(b"\1" * rows, "big"))


def _codes(packed: int, rows: int, table: bytes, x: int | None,
           against: bytes | None) -> int:
    """The comparison codes of one image entry for every tail of a cell.

    packed holds 16 * x[p0] + x[p] per tail and table maps it to the entry,
    or straight to its code when the value compared with is fixed; else x
    holds that value per tail, and against codes 16 * entry + value.
    """
    y = packed.to_bytes(rows, "big").translate(table)
    if x is not None:
        y = (int.from_bytes(y, "big") << 4 | x).to_bytes(rows, "big").translate(against)
    return int.from_bytes(y, "big")


def _cell_shifts(head: tuple, shifts: list, powers: list,
                 to_zero: list) -> list | None:
    """The shifts that the tails of the cell with prefix head must test, in
    order, or None when the cell holds no least member.

    A shift whose image takes its entries 0 and 1 from positions in head
    compares its second entry with x[1] the same way for every tail: a
    smaller entry rejects the whole cell, a larger one decides nothing, and
    only a tie leaves the shift to the tails.
    """
    fixed = len(head) - 1
    cell = []
    for shift in shifts:
        _, p0, p1, _, _ = shift
        if p0 > fixed or p1 > fixed:
            cell.append(shift)
            continue
        y1 = powers[to_zero[head[p0]]][head[p1]]
        if y1 < head[1]:
            return None
        if y1 == head[1]:
            cell.append(shift)
    return cell


def enumerate_classes(n: int,
                      sigma: Permutation | None = None,
                      bound: int = DEFAULT_BOUND,
                      with_classes: bool = False) -> ClassReport:
    """Every orbit of left/right multiplication by sigma.

    Each is met in the slice xi(1) = 1 and counted at its least member.
    """
    _check_bound(n, bound)
    sigma = _require_cycle(n, sigma)

    # 0-based for the hot loop: powers[a][i] is sigma^a(i), and
    # powers[to_zero[v]] sends v to 0
    sig = tuple(v - 1 for v in sigma.images)
    powers = [tuple(range(n))]
    for _ in range(n - 1):
        powers.append(tuple(sig[v] for v in powers[-1]))
    to_zero = [0] * n
    for b, pb in enumerate(powers):
        to_zero[pb.index(0)] = b
    # maps[b] translates by sigma^b, and byte 16 * u + v of image is entry
    # v of powers[to_zero[u]]: an image entry of a whole column of tails at
    # once, from two packed columns of x
    maps = [bytes(pb).ljust(256, b"\0") for pb in powers]
    image = b"".join([maps[to_zero[u]][:16] for u in range(n)]).ljust(256, b"\0")

    # per shift a: the positions whose images become entries 0, 1 and 2 of
    # the slice image (for n <= 2, the last entry stands in for the missing
    # ones: it is compared twice, which changes no outcome), and the
    # gathering of x's entries in image order
    i1, i2 = min(1, n - 1), min(2, n - 1)
    shifts = [(a, pa[0], pa[i1], pa[i2], itemgetter(*pa))
              for a, pa in enumerate(powers[1:], 1)]
    # each cell fixes x[1..fixed] and leaves its last t entries free, as
    # t! tails in lexicographic order: one byte per tail in every column.
    # Up to n = 7 the whole slice is one cell
    t = min(_TAIL, n - 1)
    fixed = n - 1 - t
    ranks, rows, ones = _rank_block(t)
    values = bytes(range(1, n))
    histogram: Counter = Counter()
    solutions: Counter = Counter()
    details = []
    count = 0
    for prefix in itertools.permutations(range(1, n), fixed):
        head = (0,) + prefix
        cell = _cell_shifts(head, shifts, powers, to_zero)
        if cell is None:
            continue
        heads = bytes(head)
        tails = ranks.translate(values.translate(None, bytes(prefix)).ljust(256, b"\0"))
        # column p as an int of one byte per tail, constant in the prefix
        cols = [v * ones for v in head]
        cols += [int.from_bytes(tails[j::t], "big") for j in range(t)]
        # x[1] and x[2] fixed by the prefix are compared inside image's
        # table, free ones as a column against each entry
        if i1 <= fixed:
            first = (image.translate(_FIRST[head[i1]]), None, None)
        else:
            first = (image, cols[i1], _AGAINST_FIRST)
        if i2 <= fixed:
            second = (image.translate(_SECOND[head[i2]]), None, None)
        else:
            second = (image, cols[i2], _AGAINST_SECOND)
        # the codes of entries 1 and 2 per shift, or-ed into flags: a tail
        # with a 1 or 2 bit has a smaller image, one with none is the least
        # member of a class without relations
        flags = 0
        coded = []
        for a, p0, p1, p2, get in cell:
            u = cols[p0] << 4
            c1 = _codes(u | cols[p1], rows, *first)
            if c1:
                codes = c1 & _codes(u | cols[p2], rows, *second)
                flags |= codes
                coded.append((codes.to_bytes(rows, "big"), a, p0, get))
        flags = flags.to_bytes(rows, "big")
        if not with_classes:
            free = flags.count(0)
            if free:
                count += free
                histogram[n * n] += free
        # a tail that only ties, and with_classes every free tail too, is
        # settled on the whole images of the shifts it ties: sigma^a * x *
        # sigma^b for the one b that puts it back in the slice. x is its own
        # image at a = 0, so it is the least image unless another is smaller
        for mark in (_KEPT if with_classes else _TIED).finditer(flags):
            i = mark.start()
            x = heads + tails[i * t:i * t + t]
            relations = []
            for codes, a, p0, get in coded:
                if codes[i] == _TIE:
                    b = to_zero[x[p0]]
                    y = bytes(get(x)).translate(maps[b])
                    if y < x:
                        break
                    if y == x:
                        # sigma^a * x == x * sigma^(n-b); b is never 0 here,
                        # as sigma^a * x == x would make sigma^a the identity
                        relations.append((a, n - b))
            else:
                # 1 + len(relations) shifts give x back, so x has
                # n / (1 + len(relations)) distinct images
                size = n * n // (1 + len(relations))
                count += 1
                histogram[size] += 1
                for relation in relations:
                    solutions[relation] += size
                if with_classes:
                    rep = Permutation(tuple(v + 1 for v in x))
                    details.append((rep, size, relations[0] if relations else None))

    return ClassReport(n, sigma, count, dict(sorted(histogram.items())),
                       tuple(details) if with_classes else None,
                       dict(solutions))


def _random_full_cycle_conjugate(n: int, sigma: Permutation,
                                 rng: random.Random) -> Permutation:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    h = Permutation(tuple(values))
    conj = compose(compose(h, sigma), inverse(h))
    if n > 1 and not is_full_cycle(conj):
        raise RuntimeError(f"conjugating a full {n}-cycle gave {conj.images}, "
                           "which is not one")
    return conj


def sigma_independence_check(n: int,
                             seed: int = DEFAULT_SEED,
                             bound: int = DEFAULT_BOUND,
                             base: ClassReport | None = None) -> bool:
    """Class count and histogram agree for several choices of full cycle.

    Candidates are the canonical shift, its inverse, and _CONJUGATES seeded
    random conjugates of the shift. `base` is the report for the canonical
    shift when the caller has already walked it; by default it is walked
    here.
    """
    _check_bound(n, bound)
    shift = canonical_sigma(n)
    if base is None:
        base = enumerate_classes(n, shift, bound=bound)
    elif base.n != n or base.sigma != shift:
        raise ValueError(f"base must report on the canonical shift of degree {n}")
    rng = random.Random(seed)
    candidates = [inverse(shift)]
    candidates += [_random_full_cycle_conjugate(n, shift, rng)
                   for _ in range(_CONJUGATES)]
    for cand in candidates:
        report = enumerate_classes(n, cand, bound=bound)
        if (report.class_count != base.class_count
                or report.size_histogram != base.size_histogram):
            return False
    return True
