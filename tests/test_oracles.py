import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynred.model import CnfFormula, DomainError, Graph, GuardError, parse_graph
from dynred import oracles


def build(n, edges, **kw):
    g = Graph(n, **kw)
    for e in edges:
        g.add_edge(*e)
    return g


# ---------------------------------------------------------------------------
# satisfiability


def test_oracle_sat_basic():
    assert oracles.oracle_sat(CnfFormula(2, [[1, 2], [-1, 2]]))
    assert not oracles.oracle_sat(CnfFormula(1, [[1], [-1]]))
    assert not oracles.oracle_sat(CnfFormula(2, [[]]))
    assert oracles.oracle_sat(CnfFormula(3, []))


def test_oracle_sat_guard():
    with pytest.raises(GuardError):
        oracles.oracle_sat(CnfFormula(25, []))


def test_assignment_satisfies_bit_convention():
    # bit 0 of the index is variable 1
    assert oracles.assignment_satisfies(0b01, [1])
    assert not oracles.assignment_satisfies(0b01, [-1])
    assert oracles.assignment_satisfies(0b10, [2])
    assert oracles.assignment_satisfies(0b00, [-2])


# ---------------------------------------------------------------------------
# triangles


def test_oracle_triangle():
    assert oracles.oracle_triangle(build(3, [(0, 1), (1, 2), (0, 2)])) == (0, 1, 2)
    assert oracles.oracle_triangle(build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])) is None


def test_oracle_all_triangles():
    g = build(4, [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)])
    assert oracles.oracle_all_triangles(g) == [(0, 1, 2), (1, 2, 3)]


def test_oracle_min_weight_triangle():
    g = Graph(4, weighted=True, max_weight=10)
    for u, v, w in [(0, 1, 1), (1, 2, 2), (0, 2, 3), (2, 3, 1), (1, 3, 1)]:
        g.add_edge(u, v, w)
    # triangles: (0,1,2) weight 6, (1,2,3) weight 4
    best = oracles.oracle_min_weight_triangle(g)
    assert best == (1, 2, 3, 4)


def test_oracle_min_weight_triangle_k3():
    g = Graph(3, weighted=True, max_weight=3)
    g.add_edge(0, 1, 1)
    g.add_edge(1, 2, 2)
    g.add_edge(0, 2, 3)
    assert oracles.oracle_min_weight_triangle(g) == (0, 1, 2, 6)


# ---------------------------------------------------------------------------
# reachability and SCCs


def test_reach_count_excludes_source():
    g = build(4, [(0, 1), (0, 2), (0, 3)], directed=True)
    assert oracles.reach_count(g, 0) == 3
    assert oracles.reach_count(g, 1) == 0


def test_reachable_respects_active_set():
    g = build(4, [(0, 1), (1, 2), (2, 3)], s=0, t=3, active={1})
    # only node 2 is inactive (s and t are implicitly allowed)
    assert oracles.reachable_from(g, 0) == {0, 1}
    assert not oracles.st_connected(g)
    g.active.add(2)
    assert oracles.st_connected(g)


def test_scc_cycle_and_path():
    cyc = build(3, [(0, 1), (1, 2), (2, 0)], directed=True)
    assert oracles.scc_count(cyc) == 1
    assert oracles.strongly_connected(cyc)
    path = build(3, [(0, 1), (1, 2)], directed=True)
    assert oracles.scc_count(path) == 3
    assert oracles.max_scc_size(path) == 1
    assert not oracles.strongly_connected(path)


def test_scc_mixed():
    g = build(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 2)], directed=True)
    comps = sorted(sorted(c) for c in oracles.scc_list(g))
    assert comps == [[0, 1], [2, 3, 4]]
    assert oracles.max_scc_size(g) == 3


def test_all_st_reachable():
    g = build(4, [(0, 2), (0, 3), (1, 2)], directed=True,
              s_set=frozenset({0, 1}), t_set=frozenset({2, 3}))
    assert not oracles.all_st_reachable(g)
    g.add_edge(1, 3)
    assert oracles.all_st_reachable(g)


def test_diameter():
    assert oracles.diameter(build(4, [(0, 1), (1, 2), (2, 3)])) == 3
    assert oracles.diameter(build(3, [(0, 1), (1, 2), (0, 2)])) == 1
    assert oracles.diameter(build(3, [(0, 1)])) is None
    assert oracles.diameter(build(1, [])) == 0


def test_st_distance():
    g = Graph(4, directed=True, weighted=True, max_weight=10, s=0, t=3)
    for u, v, w in [(0, 1, 1), (1, 3, 9), (0, 2, 3), (2, 3, 3)]:
        g.add_edge(u, v, w)
    assert oracles.st_distance(g) == 6
    unw = build(4, [(0, 1), (1, 2), (2, 3)], directed=True, s=0, t=3)
    assert oracles.st_distance(unw) == 3
    assert oracles.st_distance(build(2, [], s=0, t=1)) is None


def test_induced_connected():
    g = build(4, [(0, 1), (1, 2), (2, 3)], active={0, 1})
    assert oracles.induced_connected(g)
    g.active = {0, 2}
    assert not oracles.induced_connected(g)
    g.active = {3}
    assert oracles.induced_connected(g)
    g.active = set()
    assert oracles.induced_connected(g)


def test_domain_errors():
    und = build(2, [(0, 1)])
    dirg = build(2, [(0, 1)], directed=True)
    with pytest.raises(DomainError):
        oracles.scc_count(und)
    with pytest.raises(DomainError):
        oracles.diameter(dirg)
    with pytest.raises(DomainError):
        oracles.st_reachable(und)  # no s/t
    with pytest.raises(DomainError):
        oracles.induced_connected(und)  # no active set


# second, independent reachability implementation: boolean matrix powers
def matrix_reachable(g, src):
    n = g.node_count
    a = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in g.out_neighbors(u):
            a[u, v] = True
    reach = np.zeros(n, dtype=bool)
    reach[src] = True
    for _ in range(n):
        reach = reach | (reach @ a)
    return {v for v in range(n) if reach[v]}


@settings(max_examples=60)
@given(st.integers(0, 2 ** 10 - 1), st.booleans())
def test_reachability_matches_matrix_powers(mask, directed):
    n = 5
    g = Graph(n, directed=directed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for i, (u, v) in enumerate(pairs):
        if mask >> i & 1:
            g.add_edge(u, v)
    for src in range(n):
        assert oracles.reachable_from(g, src) == matrix_reachable(g, src)


# ---------------------------------------------------------------------------
# matching


def biclique_2x2():
    g = Graph(4, weighted=True, max_weight=4)
    g.add_edge(0, 2, 1)
    g.add_edge(0, 3, 3)
    g.add_edge(1, 2, 4)
    g.add_edge(1, 3, 2)
    return g


def test_bipartition_sides():
    g = build(5, [(0, 1), (1, 2), (3, 4)])
    left, right = bipartition = oracles.bipartition(g)
    assert left == {0, 2, 3}
    assert right == {1, 4}
    with pytest.raises(DomainError):
        oracles.bipartition(build(3, [(0, 1), (1, 2), (0, 2)]))


def test_max_matching_and_perfect():
    m = oracles.oracle_matching(build(4, [(0, 2), (0, 3), (1, 2)]))
    assert m.max_matching_size == 2
    assert m.has_perfect
    m2 = oracles.oracle_matching(build(4, [(0, 2), (0, 3)]))
    assert m2.max_matching_size == 1
    assert not m2.has_perfect


def test_max_weight_pm_frozen():
    # two perfect matchings: 1+2=3 and 3+4=7
    assert oracles.max_weight_pm_weight(biclique_2x2()) == 7
    m = oracles.oracle_matching(biclique_2x2())
    assert m.max_weight_pm_weight == 7


def test_max_weight_pm_no_pm():
    g = Graph(4, weighted=True, max_weight=9)
    g.add_edge(0, 2, 5)
    g.add_edge(0, 3, 5)
    assert oracles.max_weight_pm_weight(g) is None


def test_has_short_augpath():
    # path on 4 nodes, middle edge matched: augmenting path has length 3
    g = build(4, [(0, 1), (1, 2), (2, 3)])
    mate = {1: 2, 2: 1}
    assert not oracles.has_short_augpath(g, mate, 1)
    assert oracles.has_short_augpath(g, mate, 3)
    assert oracles.has_short_augpath(g, {}, 1)


def random_bip(rng, nl, nr, p):
    g = Graph(nl + nr)
    for u in range(nl):
        for v in range(nl, nl + nr):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def test_maximum_matching_has_no_augpath():
    rng = random.Random(7)
    for _ in range(40):
        g = random_bip(rng, rng.randint(1, 6), rng.randint(1, 6), 0.5)
        mate = oracles.max_matching(g)
        assert not oracles.has_short_augpath(g, mate, 2 * g.node_count + 1)


def test_matching_against_brute_force():
    rng = random.Random(11)
    for _ in range(30):
        nl, nr = rng.randint(1, 4), rng.randint(1, 4)
        g = random_bip(rng, nl, nr, 0.6)
        mate = oracles.max_matching(g)
        # brute force over all edge subsets
        edges = g.edges()
        best = 0
        for mask in range(1 << len(edges)):
            chosen = [edges[i] for i in range(len(edges)) if mask >> i & 1]
            nodes = [x for e in chosen for x in e]
            if len(nodes) == len(set(nodes)):
                best = max(best, len(chosen))
        assert len(mate) // 2 == best
