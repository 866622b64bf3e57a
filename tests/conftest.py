import itertools
import json
import sys
from collections import Counter, deque
from contextlib import contextmanager
from math import factorial, gcd

import pytest

from cycleq import equation_solver
from cycleq.class_graph import GammaGraph, Vertex, build_gamma, tau
from cycleq.counting import Column
from cycleq.equation_solver import solution_chunks
from cycleq.oracle import DEFAULT_BOUND, ClassReport, _check_bound
from cycleq.permutation import Permutation, _require_cycle, canonical_sigma, power
from cycleq.zn_ring import divisors, prime_factors, residue, totient


@contextmanager
def _guard_lifted():
    """Python's int/str digit guard lifted, where there is one (3.11+), and
    put back on exit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@pytest.fixture
def int_str_guard_lifted():
    """A context manager that lifts the int/str digit guard inside it."""
    return _guard_lifted


@pytest.fixture
def unguarded_str():
    """str with the int/str digit guard lifted for the call alone, so that
    the code under test runs with the guard in force."""
    def convert(x):
        with _guard_lifted():
            return str(x)
    return convert


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


def columns_by_tau(n: int) -> list[Column]:
    """The tally columns by the paper's recursion over the graph for n,
    k * h(n,k) = (k-1)! * (n/k)**(k-1) - sum of r * tau(k,r) * h(n,r) over
    the proper divisors r of k, with tau from class_graph.tau. The
    reference for counting.count_table."""
    h = {}
    for k in divisors(n):
        lower = sum(r * tau(n, k, r) * h[r] for r in divisors(k)[:-1])
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


def least_relation_by_power_lookup(sigma: Permutation):
    """x -> the least (k, l) in 1..n-1 with sigma^k * xi == xi * sigma^l, or
    None, for xi given by its 0-based images x: per k, inverse(xi) *
    sigma^k * xi is looked up among the powers of sigma. The reference for
    equation_solver.min_left_exponent, and under any full cycle for the
    least relation of oracle.enumerate_classes."""
    n = sigma.degree
    sig = tuple(v - 1 for v in sigma.images)
    sig_pows = [tuple(range(n))]
    for _ in range(n - 1):
        sig_pows.append(tuple(sig[v] for v in sig_pows[-1]))
    pow_index = {p: e for e, p in enumerate(sig_pows)}

    def lookup(x: tuple[int, ...]) -> tuple[int, int] | None:
        inv = [0] * n
        for i, v in enumerate(x):
            inv[v] = i
        for k in range(1, n):
            y = tuple(x[sig_pows[k][i]] for i in range(n))
            l = pow_index.get(tuple(y[inv[i]] for i in range(n)))
            if l is not None and 1 <= l < n:
                return (k, l)
        return None

    return lookup


@pytest.fixture(scope="session")
def mle_by_power_lookup():
    return least_relation_by_power_lookup


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
    least_relation = least_relation_by_power_lookup(sigma)
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
            details.append((rep, size, least_relation(start)))

    return ClassReport(n, sigma, count, dict(sorted(histogram.items())),
                       tuple(details) if with_classes else None)


@pytest.fixture(scope="session")
def classes_by_bfs():
    return enumerate_classes_by_bfs


def enumerate_classes_by_slice_walk(n: int,
                                    sigma: Permutation | None = None,
                                    bound: int = DEFAULT_BOUND,
                                    with_classes: bool = False) -> ClassReport:
    """Walk the slice xi(1) = 1 one element at a time, in lexicographic
    order, testing every shift a on each: the n slice images
    sigma^a * xi * sigma^b(a) are compared with xi, on their second entry
    first, and xi is counted at its least member with the relations that
    give it back. The reference for oracle.enumerate_classes' cells."""
    _check_bound(n, bound)
    sigma = _require_cycle(n, sigma)

    sig = tuple(v - 1 for v in sigma.images)
    powers = [tuple(range(n))]
    for _ in range(n - 1):
        powers.append(tuple(sig[v] for v in powers[-1]))
    to_zero = [0] * n
    for b, pb in enumerate(powers):
        to_zero[pb.index(0)] = b

    shifts = [(a, pa[0], pa[1], pa) for a, pa in enumerate(powers[1:], 1)]
    histogram: Counter = Counter()
    solutions: Counter = Counter()
    details = []
    count = 0
    for tail in itertools.permutations(range(1, n)):
        x = (0,) + tail
        x1 = tail[0] if tail else 0
        relations = []
        for a, p0, p1, pa in shifts:
            b = to_zero[x[p0]]
            pb = powers[b]
            y1 = pb[x[p1]]
            if y1 < x1:
                break
            if y1 > x1:
                continue
            y = tuple([pb[x[i]] for i in pa])
            if y < x:
                break
            if y == x:
                relations.append((a, n - b))
        else:
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


@pytest.fixture(scope="session")
def classes_by_slice_walk():
    return enumerate_classes_by_slice_walk


def count_solutions_by_scan(n: int, k: int, l: int,
                            sigma: Permutation | None = None,
                            bound: int = DEFAULT_BOUND) -> int:
    """Count xi with sigma^k * xi == xi * sigma^l by testing all of S_n one
    point at a time. The reference for ClassReport.solution_counts."""
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
