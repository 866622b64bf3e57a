"""Permutations of {1..n} in one-line notation, composed left to right.

The product alpha * beta means "apply alpha first, then beta":

    (alpha * beta)(i) == beta(alpha(i))

This is the only composition order used anywhere in the package, and it is
the reason sigma * xi permutes the one-line images of xi by position while
xi * sigma applies sigma to each image value.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

__all__ = [
    "Permutation",
    "canonical_sigma",
    "compose",
    "cycle_string",
    "cycles",
    "identity",
    "inverse",
    "is_full_cycle",
    "one_line",
    "order",
    "power",
]


@dataclass(frozen=True, slots=True)
class Permutation:
    """Bijection of {1..n}, stored as the tuple of images (a(1), ..., a(n))."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = self.images
        if type(images) is not tuple:  # a tuple subclass is copied too
            images = tuple(images)
            object.__setattr__(self, "images", images)
        n = len(images)
        if n < 1:
            raise ValueError("a permutation needs degree at least 1")
        if {*map(type, images)} != {int}:  # 1.0 and True sort like 1
            raise ValueError(f"images must be ints, got {list(images)}")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {list(images)}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        """Image of the point i, 1-based."""
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __pow__(self, e: int) -> "Permutation":
        return power(self, e)

    def __str__(self):
        return one_line(self)

    def __repr__(self):
        return f"Permutation({list(self.images)})"


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def compose(alpha: Permutation, beta: Permutation) -> Permutation:
    """Left-to-right product: result(i) = beta(alpha(i)).

    >>> compose(Permutation((2, 3, 1)), Permutation((3, 2, 1))).images
    (2, 1, 3)
    """
    if alpha.degree != beta.degree:
        raise ValueError(f"degree mismatch: {alpha.degree} vs {beta.degree}")
    b = beta.images
    return Permutation(tuple([b[a - 1] for a in alpha.images]))


def inverse(alpha: Permutation) -> Permutation:
    inv = [0] * alpha.degree
    for i, img in enumerate(alpha.images, start=1):
        inv[img - 1] = i
    return Permutation(tuple(inv))


def power(alpha: Permutation, e: int) -> Permutation:
    """e-fold product of alpha with itself; power(alpha, 0) is the identity.

    >>> power(canonical_sigma(5), 2).images
    (3, 4, 5, 1, 2)
    """
    if e < 0:
        raise ValueError(f"exponent must be nonnegative, got {e}")
    result = identity(alpha.degree)
    base = alpha
    while e:
        if e & 1:
            result = compose(result, base)
        base = compose(base, base)
        e >>= 1
    return result


def cycles(alpha: Permutation) -> list[tuple[int, ...]]:
    """Cycle decomposition, fixed points included, each cycle led by its minimum."""
    seen = [False] * alpha.degree
    out = []
    for start in range(1, alpha.degree + 1):
        if seen[start - 1]:
            continue
        cyc = [start]
        seen[start - 1] = True
        j = alpha(start)
        while j != start:
            cyc.append(j)
            seen[j - 1] = True
            j = alpha(j)
        out.append(tuple(cyc))
    return out


def order(alpha: Permutation) -> int:
    """Least m >= 1 with alpha composed m times equal to the identity."""
    return lcm(*(len(c) for c in cycles(alpha)))


def is_full_cycle(alpha: Permutation) -> bool:
    """True when the whole of {1..n} lies on a single cycle."""
    first = cycles(alpha)[0]
    return len(first) == alpha.degree


def canonical_sigma(n: int) -> Permutation:
    """The shift i -> i+1 mod n, one-line [2, 3, ..., n, 1].

    >>> canonical_sigma(4).images
    (2, 3, 4, 1)
    >>> canonical_sigma(1).images
    (1,)
    """
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    return Permutation(tuple(range(2, n + 1)) + (1,))


def _require_cycle(n: int, sigma: Permutation | None) -> Permutation:
    """sigma, or the shift when it is None, checked to be a full cycle of degree n."""
    if sigma is None:
        return canonical_sigma(n)
    if sigma.degree != n:
        raise ValueError(f"sigma has degree {sigma.degree}, expected {n}")
    if n > 1 and not is_full_cycle(sigma):
        raise ValueError(f"sigma must be a full cycle, got {sigma}")
    return sigma


def one_line(alpha: Permutation) -> str:
    return "[" + " ".join(str(v) for v in alpha.images) + "]"


def cycle_string(alpha: Permutation) -> str:
    """Cycle notation with fixed points dropped, '()' for the identity."""
    parts = [
        "(" + " ".join(str(v) for v in c) + ")"
        for c in cycles(alpha)
        if len(c) > 1
    ]
    return "".join(parts) if parts else "()"
