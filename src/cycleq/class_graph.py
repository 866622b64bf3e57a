"""The oriented divisor graph that organizes the class families.

Vertices are pairs <k,l> where k divides n and l encodes the right-hand
exponent attached to k: for k < n, l = k*u for a unit u modulo n/k, and the
unique maximal vertex is <n,n>. An arc multiplies both coordinates by a prime
p dividing n/k, reducing the second coordinate into {1..n} (zero written as
n). build_gamma lists both straight from that description, in ascending
order, without searching: divisors k ascending, units u ascending under
each k, and each vertex's arcs by ascending p. It builds whole rows, one
per k, and whole arc families, one per (k, p), with C-level map and zip,
so no Python code runs per vertex or per arc.

A directed path of length at least one is the strict order the paper's
counting recursion sums over. Each arc multiplies both coordinates by a prime, so a
path from <r,l> ends exactly at the vertices <k, l*(k/r) mod n> with r a
proper divisor of k; precedes and tau use that arithmetic and never walk the
graph. The graph itself and its tau are for export and verification;
counting uses neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, repeat
from math import gcd
from typing import NamedTuple

from .zn_ring import _exact_div, divisors, prime_factors, residue, totient

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
    """The graph for modulus n. vertices is a tuple in ascending (k,l) order
    and arcs a tuple of (source, target) pairs in ascending order, so an
    `in` test on either is a linear scan."""

    n: int
    vertices: tuple[Vertex, ...]
    arcs: tuple[tuple[Vertex, Vertex], ...]


def build_gamma(n: int) -> GammaGraph:
    """List the graph for modulus n, vertices and arcs in ascending order.

    Row k holds <k, k*u> for the units u mod m = n/k, ascending, which a
    bytearray sieve over the primes of m marks (row n is <n,n> alone). The
    arcs for a prime p | m send <k, k*u> to the vertex of row k*p whose unit
    is u mod m/p, so each (k, p) family is one zip of the row with those
    looked-up targets; a row with several primes interleaves its families,
    keeping each vertex's arcs in ascending p. Rows, families and the
    interleaving are C-level map, zip and chain, with no Python step per
    vertex or arc.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    primes = prime_factors(n)
    make = partial(tuple.__new__, Vertex)
    # k -> (units mod n/k, the row's vertices, unit -> vertex)
    rows = {}
    for k in divisors(n):
        m = n // k
        if m == 1:
            units, row = [0], [Vertex(n, n)]
        else:
            sieve = bytearray(b"\x01") * m
            for p in primes:
                if m % p == 0:
                    sieve[::p] = bytes(len(range(0, m, p)))
            units = list(compress(range(m), sieve))
            row = list(map(make, zip(repeat(k), map(k.__mul__, units))))
        rows[k] = units, row, dict(zip(units, row))
    arcs = []
    for k, (units, row, _) in rows.items():
        m = n // k
        families = [
            zip(row, map(rows[k * p][2].__getitem__,
                         map((m // p).__rmod__, units)))
            for p in primes if m % p == 0]
        arcs += chain.from_iterable(zip(*families))
    vertices = tuple(chain.from_iterable(row for _, row, _ in rows.values()))
    return GammaGraph(n, vertices, tuple(arcs))


def _is_vertex(n: int, v: Vertex) -> bool:
    """<k,l> is <n,n>, or k | n, k < n and l = k*u with u a unit mod n/k."""
    k, l = v
    if k == n:
        return l == n
    return (1 <= k and n % k == 0 and 1 <= l < n and l % k == 0
            and gcd(l // k, n // k) == 1)


def precedes(g: GammaGraph, a: Vertex, b: Vertex) -> bool:
    """Strict order: a directed path of length >= 1 from a to b exists."""
    if not _is_vertex(g.n, a):
        raise ValueError(f"{a} is not a vertex of the graph for n={g.n}")
    if not _is_vertex(g.n, b):
        raise ValueError(f"{b} is not a vertex of the graph for n={g.n}")
    return a.k < b.k and b.k % a.k == 0 and residue(a.l * (b.k // a.k), g.n) == b.l


def tau(g: GammaGraph, k: int, r: int) -> int:
    """Number of vertices with first coordinate r strictly preceding <k,k>.

    That is phi(n/r) / phi(n/k): <r,l> precedes <k,l'> exactly when
    l * (k/r) == l' (mod n). Writing l = r*u and l' = k*v, that says
    u == v (mod n/k), reduction from the units mod n/r onto the units mod
    n/k, whose fibres all have the same size, so every vertex with first
    coordinate k has the same number of r-predecessors.
    """
    if k < 1 or g.n % k:
        raise ValueError(f"k={k} does not divide n={g.n}")
    if not 1 <= r < k or k % r:
        raise ValueError(f"r={r} must be a proper divisor of k={k}")
    return _exact_div(totient(g.n // r), totient(g.n // k), f"tau({k},{r})")


def export_dot(g: GammaGraph) -> str:
    """Graphviz text, vertices and arcs in ascending (k,l) order."""
    name = {v: f"{v.k},{v.l}" for v in g.vertices}
    lines = [f"digraph gamma_{g.n} {{"]
    lines += [f'    "{s}" [label="<{s}>"];' for s in name.values()]
    lines += [f'    "{name[a]}" -> "{name[b]}";' for a, b in g.arcs]
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g: GammaGraph) -> str:
    """{"n": n, "vertices": [[k, l], ...], "arcs": [[[k, l], [k', l']], ...]}
    in ascending order, byte for byte what json.dumps writes for it."""
    item = {v: f"[{v.k}, {v.l}]" for v in g.vertices}
    vertices = ", ".join(item.values())
    arcs = ", ".join([f"[{item[a]}, {item[b]}]" for a, b in g.arcs])
    return f'{{"n": {g.n}, "vertices": [{vertices}], "arcs": [{arcs}]}}'
