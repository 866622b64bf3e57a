import pytest

from cycleq.class_graph import Vertex, build_gamma


@pytest.fixture(scope="session")
def gamma():
    """Graph cache shared across the sweeping tests."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = build_gamma(n)
        return cache[n]

    return get


def strict_reachability(g):
    """reach[v] = every vertex strictly reachable from v along g.arcs."""
    succ = {v: [] for v in g.vertices}
    for a, b in g.arcs:
        succ[a].append(b)
    # arcs multiply the first coordinate by a prime, so descending k is a
    # topological order and one pass suffices
    reach = {}
    for v in sorted(g.vertices, key=lambda u: u.k, reverse=True):
        acc = set()
        for w in succ[v]:
            acc.add(w)
            acc |= reach[w]
        reach[v] = frozenset(acc)
    return reach


@pytest.fixture(scope="session")
def reach(gamma):
    """reach(n)[v]: the vertices strictly reachable from v in the graph for n,
    found by walking its arcs. The reference for precedes and tau."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = strict_reachability(gamma(n))
        return cache[n]

    return get


@pytest.fixture(scope="session")
def tau_by_scan(gamma, reach):
    """tau(n, k, r) by scanning every vertex for r-predecessors of <k,k>."""

    def count(n, k, r):
        anchor = Vertex(k, k)
        below = reach(n)
        return sum(1 for v in gamma(n).vertices if v.k == r and anchor in below[v])

    return count
