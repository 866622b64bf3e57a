"""Brute-force ground truth over all of S_n.

Orbits of xi -> sigma * xi and xi -> xi * sigma are exactly the equivalence
classes, so a flood fill over the whole group counts them with no number
theory involved. Factorial growth makes this a small-n tool: calls are
guarded by a configurable bound (default 8; 9 works but is slow). Visited
bookkeeping is a flat bitmap indexed by Lehmer rank, which for tuples over
range(n) coincides with lexicographic position.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter, deque
from dataclasses import dataclass
from math import factorial

from .equation_solver import min_left_exponent
from .permutation import Permutation, canonical_sigma, compose, inverse, is_full_cycle, power
from .zn_ring import to_decimal

__all__ = [
    "BoundExceeded",
    "ClassReport",
    "DEFAULT_BOUND",
    "DEFAULT_SEED",
    "count_equation_solutions",
    "enumerate_classes",
    "sigma_independence_check",
]

DEFAULT_BOUND = 8
DEFAULT_SEED = 1729


class BoundExceeded(ValueError):
    """n is past the configured brute-force bound."""


def _check_bound(n: int, bound: int) -> None:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > bound:
        raise BoundExceeded(
            f"n={n} exceeds the brute-force bound {bound}; "
            "raise the bound explicitly if you really want this")


def _require_cycle(n: int, sigma: Permutation) -> None:
    if sigma.degree != n:
        raise ValueError(f"sigma has degree {sigma.degree}, expected {n}")
    if n > 1 and not is_full_cycle(sigma):
        raise ValueError(f"sigma must be a full cycle, got {sigma}")


@dataclass(frozen=True)
class ClassReport:
    """What the flood fill saw: class count plus the size histogram."""

    n: int
    sigma: Permutation
    class_count: int
    size_histogram: dict[int, int]
    # optional (representative, size, min_left_exponent) per class
    per_class: tuple | None = None

    def to_json(self) -> str:
        doc = {
            "n": self.n,
            "sigma": list(self.sigma.images),
            "class_count": to_decimal(self.class_count),
            "size_histogram": {str(s): c for s, c in sorted(self.size_histogram.items())},
        }
        if self.per_class is not None:
            doc["classes"] = [
                {
                    "representative": list(rep.images),
                    "size": size,
                    "min_left_exponent": list(mle) if mle is not None else None,
                }
                for rep, size, mle in self.per_class
            ]
        return json.dumps(doc)


def _lehmer_rank(perm: tuple, fact: list[int]) -> int:
    n = len(perm)
    r = 0
    for i in range(n - 1):
        pi = perm[i]
        smaller = 0
        for j in range(i + 1, n):
            if perm[j] < pi:
                smaller += 1
        r += smaller * fact[n - 1 - i]
    return r


def enumerate_classes(n: int,
                      sigma: Permutation | None = None,
                      bound: int = DEFAULT_BOUND,
                      with_classes: bool = False) -> ClassReport:
    """Flood-fill every orbit of left/right multiplication by sigma."""
    _check_bound(n, bound)
    sigma = canonical_sigma(n) if sigma is None else sigma
    _require_cycle(n, sigma)

    sig = tuple(v - 1 for v in sigma.images)  # 0-based for the hot loop
    idx = range(n)
    fact = [factorial(i) for i in range(n)]
    visited = bytearray(factorial(n))
    histogram: Counter = Counter()
    details = []
    count = 0
    for rank, start in enumerate(itertools.permutations(range(n))):
        if visited[rank]:
            continue
        visited[rank] = 1
        size = 1
        queue = deque([start])
        while queue:
            x = queue.popleft()
            left = tuple(x[sig[i]] for i in idx)
            right = tuple(sig[v] for v in x)
            for y in (left, right):
                ry = _lehmer_rank(y, fact)
                if not visited[ry]:
                    visited[ry] = 1
                    size += 1
                    queue.append(y)
        count += 1
        histogram[size] += 1
        if with_classes:
            rep = Permutation(tuple(v + 1 for v in start))
            details.append((rep, size, min_left_exponent(rep, sigma)))

    return ClassReport(n, sigma, count, dict(sorted(histogram.items())),
                       tuple(details) if with_classes else None)


def count_equation_solutions(n: int, k: int, l: int,
                             sigma: Permutation | None = None,
                             bound: int = DEFAULT_BOUND) -> int:
    """Count xi with sigma^k * xi == xi * sigma^l by testing all of S_n."""
    _check_bound(n, bound)
    if k < 1 or l < 1:
        raise ValueError(f"exponents must be positive, got k={k}, l={l}")
    sigma = canonical_sigma(n) if sigma is None else sigma
    _require_cycle(n, sigma)
    sig_k = tuple(v - 1 for v in power(sigma, k).images)
    sig_l = tuple(v - 1 for v in power(sigma, l).images)
    idx = range(n)
    count = 0
    for x in itertools.permutations(range(n)):
        if all(x[sig_k[i]] == sig_l[x[i]] for i in idx):
            count += 1
    return count


def _random_full_cycle_conjugate(n: int, sigma: Permutation,
                                 rng: random.Random) -> Permutation:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    h = Permutation(tuple(values))
    conj = compose(compose(h, sigma), inverse(h))
    assert n == 1 or is_full_cycle(conj)  # conjugation preserves cycle type
    return conj


def sigma_independence_check(n: int,
                             samples: int = 3,
                             seed: int = DEFAULT_SEED,
                             bound: int = DEFAULT_BOUND) -> bool:
    """Class count and histogram agree for several choices of full cycle.

    Candidates are the canonical shift, its inverse, and `samples` seeded
    random conjugates of the shift.
    """
    _check_bound(n, bound)
    shift = canonical_sigma(n)
    rng = random.Random(seed)
    candidates = [inverse(shift)]
    candidates += [_random_full_cycle_conjugate(n, shift, rng)
                   for _ in range(samples)]
    base = enumerate_classes(n, shift, bound=bound)
    for cand in candidates:
        report = enumerate_classes(n, cand, bound=bound)
        if (report.class_count != base.class_count
                or report.size_histogram != base.size_histogram):
            return False
    return True
