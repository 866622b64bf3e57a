"""Brute-force ground truth over all of S_n.

Orbits of xi -> sigma * xi and xi -> xi * sigma are exactly the equivalence
classes, so walking the group counts them with no number theory involved.
Factorial growth makes this a small-n tool: calls are guarded by a
configurable bound (default 8; one class walk takes about 0.12 s at n = 9
and 1.6 s at n = 10 on a 2-vCPU Xeon under Python 3.11). Right
multiplication by the powers of sigma moves xi(1) through every point once,
so each orbit splits into n-element cosets that each meet the slice
xi(1) = 1 once. The walk therefore visits only that slice: for each of its
elements it forms the n slice images sigma^a * xi * sigma^b(a), and the
class is n times the number of distinct images. A class is counted at its
lexicographically least member, which lies in the slice, so a slice element
is dropped at the first image smaller than itself, and the full image set
is built only for the class representatives.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass

from .equation_solver import _require_cycle, min_left_exponent
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

    shifts = powers[1:]
    histogram: Counter = Counter()
    details = []
    count = 0
    for tail in itertools.permutations(range(1, n)):
        x = (0,) + tail
        # sigma^a * x * sigma^b for the one b that puts it back in the slice;
        # x is its own image at a = 0, so it is the least image unless
        # another one is smaller
        images = [x]
        for pa in shifts:
            pb = powers[to_zero[x[pa[0]]]]
            y = tuple([pb[x[i]] for i in pa])
            if y < x:
                break
            images.append(y)
        else:
            size = n * len(set(images))
            count += 1
            histogram[size] += 1
            if with_classes:
                rep = Permutation(tuple(v + 1 for v in x))
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
    sigma = _require_cycle(n, sigma)
    sig_k = tuple(v - 1 for v in power(sigma, k).images)
    sig_l = tuple(v - 1 for v in power(sigma, l).images)
    # point 0 first, then whole one-line tuples: sigma^k * x sends i to
    # x[sig_k[i]], x * sigma^l sends it to sig_l[x[i]]
    k0 = sig_k[0]
    image_l = sig_l.__getitem__
    count = 0
    for x in itertools.permutations(range(n)):
        if (x[k0] == sig_l[x[0]]
                and tuple(map(x.__getitem__, sig_k)) == tuple(map(image_l, x))):
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
