"""The oriented divisor graph that organizes the class families.

Vertices are pairs <k,l> where k divides n and l encodes the right-hand
exponent attached to k: for k < n, l = k*u for a unit u modulo n/k, and the
unique maximal vertex is <n,n>. An arc multiplies both coordinates by a prime
p dividing n/k, reducing the second coordinate into {1..n} (zero written as
n). One row layout lists both straight from that description, in ascending
order, without searching: divisors k ascending, units u ascending under
each k, and each vertex's arcs by ascending p. It makes whole rows, one per
k, and whole arc families, one per (k, p), with C-level map, zip and
compress, so no Python code runs per vertex or per arc. What a vertex
becomes is its caller's choice: build_gamma makes Vertex tuples and pairs
them into arcs, while export_dot and export_json take n and make text
straight from the integers, so an export builds no graph, no Vertex and
no per-arc format call.

A directed path of length at least one is the strict order the paper's
counting recursion sums over. Each arc multiplies both coordinates by a prime, so a
path from <r,l> ends exactly at the vertices <k, l*(k/r) mod n> with r a
proper divisor of k; precedes and tau take n and use that arithmetic, so
they need no graph. The vertices are exactly the (k, l) pairs that
equation_solver.check_parameters accepts, and precedes asks it, importing it
at call time so that loading this module loads no solver. The graph itself
and its tau are for export and verification; counting uses neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, repeat
from operator import add
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


def _layout(n: int, label, pair) -> tuple[list, list]:
    """The graph for modulus n as label and pair make it: its vertices and
    its arcs, each in ascending order.

    Row k holds <k, k*u> for the units u mod m = n/k, ascending, which a
    bytearray sieve over the primes of m marks (row n is <n,n> alone).
    label(k, ls) makes what the row's vertices, with second coordinates ls,
    become in three roles: vertices, arc sources and arc targets; the last
    two must be lists. The arcs for a prime p | m send <k, k*u> to the
    vertex of row k*p whose unit is u mod m/p. Row k*p's targets, repeated
    p times, line up with the residues mod m that are units mod m/p (row
    k*p's sieve repeated p times marks them); row k's sieve read at those
    residues marks the units mod m among them, which picks each source's
    target in row order. Each (k, p) family is pair(sources, targets), and
    a row with several primes interleaves its families, keeping each
    vertex's arcs in ascending p.
    """
    primes = prime_factors(n)
    vertices = []
    rows = {}  # k -> (sieve, sources, targets)
    for k in divisors(n):
        m = n // k
        sieve = bytearray(b"\x01") * m
        for p in primes:
            if m % p == 0:
                sieve[::p] = bytes(len(range(0, m, p)))
        ls = list(map(k.__mul__, compress(range(m), sieve))) if m > 1 else [n]
        row, sources, targets = label(k, ls)
        vertices += row
        rows[k] = sieve, sources, targets
    arcs = []
    for k, (sieve, sources, _) in rows.items():
        m = n // k
        families = []
        for p in primes:
            if m % p == 0:
                above, _, targets = rows[k * p]
                families.append(pair(sources, compress(
                    targets * p, compress(sieve, above * p))))
        arcs += chain.from_iterable(zip(*families))
    return vertices, arcs


def build_gamma(n: int) -> GammaGraph:
    """List the graph for modulus n, vertices and arcs in ascending order:
    each vertex one Vertex in every role, each arc a (source, target) pair."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    make = partial(tuple.__new__, Vertex)

    def label(k, ls):
        row = list(map(make, zip(repeat(k), ls)))
        return row, row, row

    vertices, arcs = _layout(n, label, zip)
    return GammaGraph(n, tuple(vertices), tuple(arcs))


def precedes(n: int, a: Vertex, b: Vertex) -> bool:
    """Strict order mod n: a directed path of length >= 1 runs from a to b.
    Both must be vertices, pairs (k, l) that check_parameters accepts."""
    from .equation_solver import check_parameters
    for v in (a, b):
        if check_parameters(n, *v) is not None:
            raise ValueError(f"{v} is not a vertex of the graph for n={n}")
    (ak, al), (bk, bl) = a, b
    return ak < bk and bk % ak == 0 and residue(al * (bk // ak), n) == bl


def tau(n: int, k: int, r: int) -> int:
    """Number of vertices <r,l> strictly preceding <k,k> in the graph for n.

    That is phi(n/r) / phi(n/k): <r,l> precedes <k,l'> exactly when
    l * (k/r) == l' (mod n). Writing l = r*u and l' = k*v, that says
    u == v (mod n/k), reduction from the units mod n/r onto the units mod
    n/k, whose fibres all have the same size, so every vertex with first
    coordinate k has the same number of r-predecessors.
    """
    if k < 1 or n % k:
        raise ValueError(f"k={k} does not divide n={n}")
    if not 1 <= r < k or k % r:
        raise ValueError(f"r={r} must be a proper divisor of k={k}")
    return _exact_div(totient(n // r), totient(n // k), f"tau({k},{r})")


def _dot_label(k: int, ls: list[int]) -> tuple:
    """Row k's node lines, arc-line heads and arc-line tails; row 1 is no
    arc's target, so it has no tails."""
    return (map(f'    "{k},%d" [label="<{k},%d>"];'.__mod__, zip(ls, ls)),
            list(map(f'    "{k},%d" -> "'.__mod__, ls)),
            list(map(f'{k},%d";'.__mod__, ls)) if k > 1 else [])


def export_dot(n: int) -> str:
    """Graphviz text of the graph for modulus n, vertices and arcs in
    ascending (k,l) order. Each line is formatted once per vertex from its
    integers, each arc line is one concatenation of its source's and its
    target's text, and the lines are joined once; no Vertex is built."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    vertices, arcs = _layout(n, _dot_label, partial(map, add))
    return "\n".join([f"digraph gamma_{n} {{", *vertices, *arcs, "}\n"])


def _json_label(k: int, ls: list[int]) -> tuple:
    """Row k's vertex items, arc-item heads and arc-item tails, as
    _dot_label makes its lines."""
    return (map(f"[{k}, %d]".__mod__, ls),
            list(map(f"[[{k}, %d], ".__mod__, ls)),
            list(map(f"[{k}, %d]]".__mod__, ls)) if k > 1 else [])


def export_json(n: int) -> str:
    """{"n": n, "vertices": [[k, l], ...], "arcs": [[[k, l], [k', l']], ...]}
    for the graph for modulus n, in ascending order, byte for byte what
    json.dumps writes for it; made as export_dot makes its text."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    vertices, arcs = _layout(n, _json_label, partial(map, add))
    return "".join([f'{{"n": {n}, "vertices": [', ", ".join(vertices),
                    '], "arcs": [', ", ".join(arcs), "]}"])
