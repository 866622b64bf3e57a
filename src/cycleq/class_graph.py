"""The oriented divisor graph that organizes the class families.

Vertices are pairs <k,l> where k divides n and l encodes the right-hand
exponent attached to k: for k < n, l is a multiple of k below n whose
cofactor l/k is coprime to n/k, and the unique maximal vertex is <n,n>.
Construction starts from the seeds <1,l> with GCD(l,n) = 1 and repeatedly
multiplies both coordinates by a prime divisor p of n while k*p still
divides n, reducing the second coordinate into {1..n} (zero written as n).

A directed path of length at least one is the strict order the counting
recursion sums over. Each arc multiplies both coordinates by a prime, so a
path from <r,l> ends exactly at the vertices <k, l*(k/r) mod n> with r a
proper divisor of k; precedes and tau use that arithmetic and never walk the
graph. The graph itself is for export and verification; counting does not
build it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from .counting import _tau
from .zn_ring import prime_factors, residue, totient

__all__ = [
    "GammaGraph",
    "Vertex",
    "build_gamma",
    "export_dot",
    "export_json",
    "precedes",
    "tau",
]


class Vertex(NamedTuple):
    k: int
    l: int

    def __str__(self):
        return f"<{self.k},{self.l}>"


@dataclass(frozen=True)
class GammaGraph:
    n: int
    vertices: frozenset[Vertex]
    arcs: frozenset[tuple[Vertex, Vertex]]


def build_gamma(n: int) -> GammaGraph:
    """Saturate the graph for modulus n from its coprime seed vertices."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n == 1:
        v = Vertex(1, 1)
        return GammaGraph(1, frozenset([v]), frozenset())

    primes = prime_factors(n)
    seeds = [Vertex(1, l) for l in range(1, n) if gcd(l, n) == 1]
    vertices = set(seeds)
    arcs = set()
    work = list(seeds)
    while work:
        v = work.pop()
        for p in primes:
            kp = v.k * p
            if n % kp:
                continue
            w = Vertex(kp, residue(v.l * p, n))
            if w not in vertices:
                vertices.add(w)
                work.append(w)
            arcs.add((v, w))
    return GammaGraph(n, frozenset(vertices), frozenset(arcs))


def precedes(g: GammaGraph, a: Vertex, b: Vertex) -> bool:
    """Strict order: a directed path of length >= 1 from a to b exists."""
    if a not in g.vertices:
        raise ValueError(f"{a} is not a vertex of the graph for n={g.n}")
    if b not in g.vertices:
        raise ValueError(f"{b} is not a vertex of the graph for n={g.n}")
    return a.k < b.k and b.k % a.k == 0 and residue(a.l * (b.k // a.k), g.n) == b.l


def tau(g: GammaGraph, k: int, r: int) -> int:
    """Number of vertices with first coordinate r strictly preceding <k,k>."""
    if g.n % k:
        raise ValueError(f"k={k} does not divide n={g.n}")
    if r >= k or k % r:
        raise ValueError(f"r={r} must be a proper divisor of k={k}")
    return _tau({d: totient(g.n // d) for d in (r, k)}, k, r)


def export_dot(g: GammaGraph) -> str:
    """Graphviz text, vertices and arcs in ascending (k,l) order."""
    lines = [f"digraph gamma_{g.n} {{"]
    for v in sorted(g.vertices):
        lines.append(f'    "{v.k},{v.l}" [label="<{v.k},{v.l}>"];')
    for a, b in sorted(g.arcs):
        lines.append(f'    "{a.k},{a.l}" -> "{b.k},{b.l}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g: GammaGraph) -> str:
    doc = {
        "n": g.n,
        "vertices": [[v.k, v.l] for v in sorted(g.vertices)],
        "arcs": [[[a.k, a.l], [b.k, b.l]] for a, b in sorted(g.arcs)],
    }
    return json.dumps(doc)
