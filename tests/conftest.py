import itertools
import json
from collections import Counter, deque
from math import factorial, gcd

import pytest

from cycleq import equation_solver
from cycleq.class_graph import GammaGraph, Vertex, build_gamma, tau
from cycleq.counting import Column
from cycleq.equation_solver import min_left_exponent, solution_chunks
from cycleq.oracle import DEFAULT_BOUND, ClassReport, _check_bound
from cycleq.permutation import Permutation, _require_cycle, canonical_sigma, power
from cycleq.zn_ring import divisors, prime_factors, residue, totient


@pytest.fixture(scope="session")
def gamma():
    """Graph cache shared across the sweeping tests."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = build_gamma(n)
        return cache[n]

    return get


def build_gamma_by_closure(n: int) -> GammaGraph:
    """Saturate the graph for modulus n from its coprime seed vertices <1,l>,
    multiplying by every prime p with k*p | n until nothing new appears, and
    return frozensets. The reference for class_graph.build_gamma."""
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


def export_dot_by_sorting(g) -> str:
    """Graphviz text from sorted vertices and arcs. The reference for
    class_graph.export_dot."""
    lines = [f"digraph gamma_{g.n} {{"]
    for v in sorted(g.vertices):
        lines.append(f'    "{v.k},{v.l}" [label="<{v.k},{v.l}>"];')
    for a, b in sorted(g.arcs):
        lines.append(f'    "{a.k},{a.l}" -> "{b.k},{b.l}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json_by_dumps(g) -> str:
    """json.dumps of the sorted vertices and arcs. The reference for
    class_graph.export_json."""
    doc = {
        "n": g.n,
        "vertices": [[v.k, v.l] for v in sorted(g.vertices)],
        "arcs": [[[a.k, a.l], [b.k, b.l]] for a, b in sorted(g.arcs)],
    }
    return json.dumps(doc)


@pytest.fixture(scope="session")
def gamma_by_closure():
    """n -> (the closure's graph, its sorted DOT text, its json.dumps text)."""

    def get(n):
        g = build_gamma_by_closure(n)
        return g, export_dot_by_sorting(g), export_json_by_dumps(g)

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


def columns_by_tau(g: GammaGraph) -> list[Column]:
    """The tally columns by the paper's recursion over the graph g,
    k * h(n,k) = (k-1)! * (n/k)**(k-1) - sum of r * tau(k,r) * h(n,r) over
    the proper divisors r of k, with tau from class_graph.tau. The
    reference for counting.count_table."""
    n = g.n
    h = {}
    for k in divisors(n):
        lower = sum(r * tau(g, k, r) * h[r] for r in divisors(k)[:-1])
        h[k], rem = divmod(factorial(k - 1) * (n // k) ** (k - 1) - lower, k)
        assert rem == 0, f"h({n},{k}) leaves remainder {rem}"
    phi = {k: totient(n // k) for k in h}
    return [Column(k, phi[k], h[k], phi[k] * h[k]) for k in h]


@pytest.fixture(scope="session")
def tally_by_tau():
    return columns_by_tau


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


def enumerate_classes_by_bfs(n: int,
                             sigma: Permutation | None = None,
                             bound: int = DEFAULT_BOUND,
                             with_classes: bool = False) -> ClassReport:
    """Flood-fill every orbit of left/right multiplication by sigma over all
    of S_n, visited flags indexed by Lehmer rank (the lexicographic position).
    The reference for oracle.enumerate_classes."""
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


@pytest.fixture(scope="session")
def classes_by_bfs():
    return enumerate_classes_by_bfs


def count_solutions_by_scan(n: int, k: int, l: int,
                            sigma: Permutation | None = None,
                            bound: int = DEFAULT_BOUND) -> int:
    """Count xi with sigma^k * xi == xi * sigma^l by testing all of S_n one
    point at a time. The reference for oracle.count_equation_solutions."""
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


@pytest.fixture(scope="session")
def solutions_by_scan():
    return count_solutions_by_scan


def solve_output_by_format(n: int, k: int, l: int, fmt: str = "text") -> str:
    """The stdout of `cycleq solve n k l -f fmt`, each row written by one %
    format of its image tuple. The reference for the solve rows."""
    images = [tuple(block[at:at + n]) for block in solution_chunks(n, k, l)
              for at in range(0, len(block), n)]
    if fmt == "json":
        row = "[" + ", ".join(["%s"] * n) + "]"
        body = ", ".join(row % xi for xi in images)
        return (f'{{"n": {n}, "k": {k}, "l": {l}, "count": {len(images)}, '
                f'"solutions": [{body}]}}\n')
    row = "[" + " ".join(["%s"] * n) + "]\n"
    return f"count={len(images)}\n" + "".join(row % xi for xi in images)


@pytest.fixture(scope="session")
def solve_by_format():
    return solve_output_by_format


@pytest.fixture
def edit_construction(monkeypatch):
    """install(edit): from then on the solver's construction hands its
    checks its rows, as the list of their image tuples after edit(tuples)
    has changed it in place, in one block."""
    real = equation_solver._blocks

    def install(edit):
        def edited(n, *args):
            flat = b"".join(real(n, *args))
            tuples = [tuple(flat[at:at + n]) for at in range(0, len(flat), n)]
            edit(tuples)
            yield bytes(itertools.chain.from_iterable(tuples))

        monkeypatch.setattr(equation_solver, "_blocks", edited)

    return install
