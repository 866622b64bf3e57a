import json
from math import gcd

import pytest

from cycleq.class_graph import Vertex, build_gamma, export_dot, export_json, precedes, tau
from cycleq.zn_ring import divisors, totient

# the twelve vertices of the n=12 graph, found by running the saturation by
# hand from the seeds <1,1>, <1,5>, <1,7>, <1,11>
GAMMA_12_VERTICES = {
    (1, 1), (1, 5), (1, 7), (1, 11),
    (2, 2), (2, 10), (3, 3), (3, 9),
    (4, 4), (4, 8), (6, 6), (12, 12),
}

# hand saturation gives 17 arcs (4 into k=2, 4 into k=3, 2 into k=4,
# 4 into k=6, 3 into k=12)
GAMMA_12_ARCS = {
    ((1, 1), (2, 2)), ((1, 7), (2, 2)), ((1, 5), (2, 10)), ((1, 11), (2, 10)),
    ((1, 1), (3, 3)), ((1, 5), (3, 3)), ((1, 7), (3, 9)), ((1, 11), (3, 9)),
    ((2, 2), (4, 4)), ((2, 10), (4, 8)),
    ((2, 2), (6, 6)), ((2, 10), (6, 6)), ((3, 3), (6, 6)), ((3, 9), (6, 6)),
    ((4, 4), (12, 12)), ((4, 8), (12, 12)), ((6, 6), (12, 12)),
}


def test_gamma_12_matches_hand_saturation():
    g = build_gamma(12)
    assert {(v.k, v.l) for v in g.vertices} == GAMMA_12_VERTICES
    assert {((a.k, a.l), (b.k, b.l)) for a, b in g.arcs} == GAMMA_12_ARCS


def test_gamma_7_all_seeds_point_at_sink():
    g = build_gamma(7)
    assert {(v.k, v.l) for v in g.vertices} == {(1, j) for j in range(1, 7)} | {(7, 7)}
    assert {((a.k, a.l), (b.k, b.l)) for a, b in g.arcs} == {
        ((1, j), (7, 7)) for j in range(1, 7)
    }


def test_gamma_1_and_2():
    g1 = build_gamma(1)
    assert set(g1.vertices) == {Vertex(1, 1)}
    assert not g1.arcs
    g2 = build_gamma(2)
    assert set(g2.vertices) == {Vertex(1, 1), Vertex(2, 2)}
    assert set(g2.arcs) == {(Vertex(1, 1), Vertex(2, 2))}


def test_build_rejects_nonpositive():
    for make in (build_gamma, export_dot, export_json):
        with pytest.raises(ValueError):
            make(0)


def test_precedes_examples():
    g = build_gamma(12)
    assert precedes(12, Vertex(1, 1), Vertex(12, 12))
    assert precedes(12, Vertex(1, 1), Vertex(2, 2))
    assert not precedes(12, Vertex(2, 10), Vertex(4, 4))
    assert not precedes(12, Vertex(2, 2), Vertex(2, 10))
    # plain (k, l) pairs work as well as Vertex
    assert precedes(12, (1, 1), (2, 2))
    assert precedes(12, Vertex(1, 1), (12, 12))
    assert not precedes(12, (2, 10), (4, 4))
    # strict order: never reflexive
    for v in g.vertices:
        assert not precedes(12, v, v)


def test_precedes_rejects_foreign_vertices():
    with pytest.raises(ValueError):
        precedes(12, Vertex(5, 5), Vertex(12, 12))
    with pytest.raises(ValueError):
        precedes(12, Vertex(1, 1), Vertex(5, 5))
    # k divides n but l does not fit: gcd(2, 6) != 1, l = n below the sink,
    # the sink with l != n, and l = 0
    for foreign in (Vertex(2, 4), Vertex(3, 12), Vertex(12, 5), Vertex(4, 0)):
        with pytest.raises(ValueError):
            precedes(12, foreign, Vertex(12, 12))
        with pytest.raises(ValueError):
            precedes(12, Vertex(1, 1), foreign)
    # below n = 1 there is no graph, so not even <n,n> is a vertex
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"is not a vertex of the graph for n={n}"):
            precedes(n, Vertex(n, n), Vertex(n, n))


def test_precedes_accepts_exactly_the_vertices_up_to_40():
    for n in range(1, 41):
        g = build_gamma(n)
        members = set(g.vertices)
        sink = Vertex(n, n)
        for k in range(-1, n + 2):
            for l in range(-k - 1, n + 2):
                v = Vertex(k, l)
                if v in members:
                    assert precedes(n, v, sink) == (v != sink)
                else:
                    with pytest.raises(ValueError):
                        precedes(n, v, sink)


def test_tau_examples():
    assert tau(12, 2, 1) == 2   # <1,1> and <1,7> feed <2,2>
    assert tau(12, 6, 1) == 4
    assert tau(12, 4, 2) == 1
    assert tau(12, 12, 6) == 1


def test_tau_preconditions():
    with pytest.raises(ValueError):
        tau(12, 5, 1)     # k must divide n
    with pytest.raises(ValueError):
        tau(12, 4, 3)     # r must divide k
    with pytest.raises(ValueError):
        tau(12, 4, 4)     # r must be proper
    with pytest.raises(ValueError):
        tau(12, 0, 1)     # k must be positive
    with pytest.raises(ValueError):
        tau(12, 4, 0)     # r must be positive


def test_structure_invariants_up_to_200(gamma, reach):
    for n in range(1, 201):
        g = gamma(n)
        assert len(g.vertices) == n
        for k in divisors(n):
            assert sum(1 for v in g.vertices if v.k == k) == totient(n // k)
        # every vertex <k,l> carries a multiple l of k whose cofactor is
        # coprime to n/k; the sink is <n,n>
        for v in g.vertices:
            if v.k == n:
                assert v.l == n
            else:
                assert v.l % v.k == 0 and v.l < n
                assert gcd(v.l // v.k, n // v.k) == 1
        sinks = {v for v in g.vertices if not reach(n)[v]}
        assert sinks == {Vertex(n, n)}
        with_incoming = {b for _, b in g.arcs}
        expected_sources = ({Vertex(1, 1)} if n == 1 else
                            {Vertex(1, l) for l in range(1, n) if gcd(l, n) == 1})
        assert set(g.vertices) - with_incoming == expected_sources
        # weakly connected: ignore arc direction and flood from the sink
        if n > 1:
            adj = {v: set() for v in g.vertices}
            for a, b in g.arcs:
                adj[a].add(b)
                adj[b].add(a)
            seen = {Vertex(n, n)}
            stack = [Vertex(n, n)]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            assert seen == set(g.vertices)


def test_tau_ignores_anchor_second_coordinate(gamma, reach):
    # the count of r-predecessors is the same for every vertex <k,l> with the
    # same k, so anchoring tau at <k,k> loses nothing; checked empirically
    for n in range(1, 61):
        g = gamma(n)
        below = reach(n)
        for k in divisors(n):
            same_k = [v for v in g.vertices if v.k == k]
            for r in divisors(k)[:-1]:
                counts = {
                    sum(1 for u in g.vertices if u.k == r and v in below[u])
                    for v in same_k
                }
                assert counts == {tau(n, k, r)}


def test_tau_and_precedes_match_the_graph_up_to_120(gamma, reach, tau_by_scan):
    # the closed forms against the graph itself: tau against a vertex scan,
    # precedes against reachability along the arcs, for every proper divisor
    # pair and every ordered vertex pair
    for n in range(1, 121):
        g = gamma(n)
        below = reach(n)
        for k in divisors(n):
            for r in divisors(k)[:-1]:
                assert tau(n, k, r) == tau_by_scan(n, k, r), (n, k, r)
        for a in g.vertices:
            for b in g.vertices:
                assert precedes(n, a, b) == (b in below[a]), (n, a, b)


def test_build_and_exports_match_the_closure_reference(gamma_by_closure):
    # ascending tuples built from the arithmetic against the saturated
    # frozensets, sorted; the exports byte for byte against sorting and
    # json.dumps. 2310 and 30030 interleave five and six prime families
    # in a row
    for n in [*range(1, 401), 2310, 5040, 30030]:
        g = build_gamma(n)
        ref, dot, doc = gamma_by_closure(n)
        assert g.vertices == tuple(sorted(ref.vertices)), n
        assert g.arcs == tuple(sorted(ref.arcs)), n
        # equal plain tuples would pass the checks above
        assert {type(v) for v in g.vertices} == {Vertex}, n
        assert {type(a) for a, _ in g.arcs} <= {Vertex}, n
        assert {type(b) for _, b in g.arcs} <= {Vertex}, n
        assert export_dot(n) == dot, n
        assert export_json(n) == doc, n


def test_export_dot_gamma_12():
    text = export_dot(12)
    lines = text.strip().splitlines()
    assert lines[0] == "digraph gamma_12 {"
    assert lines[-1] == "}"
    node_lines = [ln for ln in lines if "label=" in ln]
    edge_lines = [ln for ln in lines if "->" in ln]
    assert len(node_lines) == 12
    assert len(edge_lines) == 17
    assert '    "1,1" [label="<1,1>"];' in lines
    assert '    "6,6" -> "12,12";' in lines


def test_export_dot_small_and_deterministic():
    expected = (
        "digraph gamma_2 {\n"
        '    "1,1" [label="<1,1>"];\n'
        '    "2,2" [label="<2,2>"];\n'
        '    "1,1" -> "2,2";\n'
        "}\n"
    )
    assert export_dot(2) == expected
    assert export_dot(12) == export_dot(12)


def test_export_json_schema_and_order():
    doc = json.loads(export_json(12))
    assert doc["n"] == 12
    assert doc["vertices"] == sorted(doc["vertices"])
    assert doc["arcs"] == sorted(doc["arcs"])
    assert [1, 1] in doc["vertices"]
    assert [[6, 6], [12, 12]] in doc["arcs"]
    assert len(doc["vertices"]) == 12
    assert len(doc["arcs"]) == 17
