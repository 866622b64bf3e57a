"""The oriented divisor graph that organizes the class families.

Vertices are pairs <k,l> where k divides n and l encodes the right-hand
exponent attached to k: for k < n, l = k*u for a unit u modulo n/k, and the
unique maximal vertex is <n,n>. An arc multiplies both coordinates by a prime
p dividing n/k, reducing the second coordinate into {1..n} (zero written as
n). One integer layout lists both straight from that description, in
ascending order, without searching: divisors k ascending, units u ascending
under each k, and each vertex's arcs by ascending p. It keeps one bytearray
sieve per row, and makes a row's second coordinates and the targets of each
of its arc families as plain int lists, with C-level compress, when the row
is reached, so no Python code runs per vertex or per arc. build_gamma makes
Vertex tuples from it and pairs them into arcs. The exports turn it into
text a block of up to _BLOCK sources at a time, each block one % format of
its integers: _pieces yields the blocks, which the CLI writes as they are
made, and export_dot and export_json return their join. So an export builds
no graph, no Vertex and no per-item string, and holds little more than the
sieves, the rows it is writing and one block.

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

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, repeat, starmap
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


def _layout(n: int) -> tuple[Iterator, Iterator]:
    """The graph for modulus n in plain ints, as two generators over one
    sieve per row: its rows and its arcs, each in ascending order.

    Row k holds <k, k*u> for the units u mod m = n/k, ascending, which a
    bytearray sieve over the primes of m marks (row n is <n,n> alone). The
    rows yield (k, ls), ls the list of row k's second coordinates. The arcs
    for a prime p | m send <k, k*u> to the vertex of row k*p whose unit is
    u mod m/p. Row k*p's coordinates, repeated p times, line up with the
    residues mod m that are units mod m/p (row k*p's sieve repeated p times
    marks them); row k's sieve read at those residues marks the units mod
    m among them, which picks each source's target in row order. The arcs
    yield (k, ls, families) for each row that has arcs, families the list
    of (k*p, targets) for the primes p | m ascending, targets[i] the second
    coordinate of the target of <k, ls[i]>. A row's lists are made when it
    is first needed, as a target or as a source, and dropped once it has
    been a source, so only the sieves, a byte per residue, stay for the
    whole graph.
    """
    primes = prime_factors(n)
    sieves = {}
    for k in divisors(n):
        m = n // k
        sieve = bytearray(b"\x01") * m
        for p in primes:
            if m % p == 0:
                sieve[::p] = bytes(len(range(0, m, p)))
        sieves[k] = sieve

    def row(k):
        return list(compress(range(0, n, k), sieves[k])) if k < n else [n]

    def arcs():
        made = {}  # rows made as targets, until they are sources
        for k, sieve in sieves.items():
            # the row before is dropped before this one is made
            ls = made.pop(k, None) or row(k)
            m = n // k
            families = []
            for p in primes:
                if m % p == 0:
                    above = (made.get(k * p)
                             or made.setdefault(k * p, row(k * p)))
                    # with p | m/p every lift of a unit mod m/p is a unit
                    # mod m, so the targets are row k*p repeated p times
                    families.append((k * p, above * p if m // p % p == 0
                                     else list(compress(above * p, compress(
                                         sieve, sieves[k * p] * p)))))
            if families:
                yield k, ls, families

    return ((k, row(k)) for k in sieves), arcs()


def build_gamma(n: int) -> GammaGraph:
    """List the graph for modulus n, vertices and arcs in ascending order:
    each vertex one Vertex in every role, each arc a (source, target) pair."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    make = partial(tuple.__new__, Vertex)
    rows, arcs_of = _layout(n)
    vertices = []
    by_l = {}  # k -> {l: the Vertex <k,l>}
    for k, ls in rows:
        row = list(map(make, zip(repeat(k), ls)))
        vertices += row
        by_l[k] = dict(zip(ls, row))
    arcs = []
    for k, _, families in arcs_of:
        # a row with several primes interleaves its families, keeping each
        # vertex's arcs in ascending p
        arcs += chain.from_iterable(zip(*[
            zip(by_l[k].values(), map(by_l[kp].__getitem__, targets))
            for kp, targets in families]))
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


# sources per piece of an export. A block's format, its arguments and its
# text are what an export holds beside its rows: at n = 55440 a piece is at
# most 70 KB, and consuming the pieces peaks under a third of the output
_BLOCK = 512


def _text(rows: Iterable[tuple[str, list[list[int]]]]) -> Iterator[str]:
    """The text of rows in pieces of up to _BLOCK items, each piece one %
    format. A row is (unit, columns): unit is the format of one item, and
    item i takes entry i of each column in turn; a piece may span rows."""
    units, flats, room = [], [], _BLOCK
    for unit, columns in rows:
        width, count, at = len(columns), len(columns[0]), 0
        while at < count:
            take = min(room, count - at)
            flat = [0] * (width * take)
            for i, column in enumerate(columns):
                flat[i::width] = column[at:at + take]
            units.append(unit * take)
            flats.append(flat)
            at += take
            room -= take
            if not room:
                yield "".join(units) % tuple(chain.from_iterable(flats))
                units, flats, room = [], [], _BLOCK
        # the next row is made while this one is held otherwise
        del columns
    if units:
        yield "".join(units) % tuple(chain.from_iterable(flats))


def _pieces(n: int, fmt: str) -> Iterator[str]:
    """The export of the graph for modulus n in fmt, "dot" or "json", in
    pieces of at most _BLOCK sources each, vertices and arcs in ascending
    order; export_dot and export_json are their join. Each item is made
    from the integers of _layout by the % format of its block; no Vertex
    and no per-item string is made. A json item is led by ", ", which the
    first of each list drops."""
    if fmt == "dot":
        head, node, middle, arc, tail, skip = (
            f"digraph gamma_{n} {{\n", '    "{k},%d" [label="<{k},%d>"];\n',
            "", '    "{k},%d" -> "{t},%d";\n', "}\n", 0)
    else:
        head, node, middle, arc, tail, skip = (
            f'{{"n": {n}, "vertices": [', ", [{k}, %d]",
            '], "arcs": [', ", [[{k}, %d], [{t}, %d]]", "]}", 2)

    def arc_row(k, ls, families):
        # each source's arcs, one per family, in ascending p
        return ("".join([arc.format(k=k, t=t) for t, _ in families]),
                [c for _, targets in families for c in (ls, targets)])

    rows, arcs = _layout(n)
    nodes = _text((node.format(k=k), [ls] * node.count("%d"))
                  for k, ls in rows)
    # starmap, unlike a generator expression, holds no row once it is made
    lines = _text(starmap(arc_row, arcs))
    for lead, pieces in ((head, nodes), (middle, lines)):
        first = next(pieces, None)
        yield lead if first is None else lead + first[skip:]
        yield from pieces
    yield tail


def export_dot(n: int) -> str:
    """Graphviz text of the graph for modulus n, vertices and arcs in
    ascending (k,l) order, the join of its pieces; no Vertex is built."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return "".join(_pieces(n, "dot"))


def export_json(n: int) -> str:
    """{"n": n, "vertices": [[k, l], ...], "arcs": [[[k, l], [k', l']], ...]}
    for the graph for modulus n, in ascending order, byte for byte what
    json.dumps writes for it; the join of its pieces, as export_dot."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return "".join(_pieces(n, "json"))
