"""Engine query kernels against the brute-force oracles at the graph sizes the
reductions build (a few hundred nodes), not only on toy graphs."""

import math
import random
import sys

import pytest

from dynred import oracles
from dynred.engines import (
    EngineState,
    ProblemKind,
    _active_nodes,
    _bfs_from,
    _tarjan_scc_sizes,
    compute_kaug_free_matching,
)
from dynred.generators import random_bipartite, random_graph
from dynred.model import (
    AllStReachable,
    Diameter,
    Graph,
    HasPerfectMatching,
    InducedConnected,
    KAugFreeMatchingSize,
    MaxSccSize,
    MaxWeightPmWeight,
    SccCount2VsK,
    StConnected,
)


def query(kind, g, q):
    return EngineState(kind, "full", g).query(q)


@pytest.mark.parametrize("n,c", [(150, 1.5), (300, 1.0), (400, 3.0), (600, 2.0)])
def test_scc_sizes_match_oracle(n, c):
    g = random_graph(random.Random(n), n, c / n, directed=True)
    comps = oracles.scc_list(g)
    assert sorted(_tarjan_scc_sizes(g)) == sorted(len(s) for s in comps)
    assert query(ProblemKind.MAX_SCC, g, MaxSccSize()) == oracles.max_scc_size(g)
    k = len(comps) - 1
    assert query(ProblemKind.SCC_2_VS_K, g, SccCount2VsK(max(k, 2))) == (
        len(comps) > max(k, 2))


@pytest.mark.parametrize("n,c", [(200, 0.8), (400, 1.2), (600, 1.0)])
def test_reach_sets_match_oracle(n, c):
    rng = random.Random(n)
    g = random_graph(rng, n, c / n, directed=True)
    for src in rng.sample(range(n), 20):
        assert _bfs_from(g, src) == oracles.reachable_from(g, src)
    g.s_set = frozenset(rng.sample(range(n), 3))
    common = set.intersection(*(oracles.reachable_from(g, s) for s in g.s_set))
    for t_set in (common, rng.sample(range(n), 5)):
        g.t_set = frozenset(t_set)
        assert query(ProblemKind.ST_SET_REACH, g, AllStReachable()) == (
            oracles.all_st_reachable(g))


@pytest.mark.parametrize("n", [200, 500])
def test_active_reach_and_st_connectivity_match_oracle(n):
    rng = random.Random(n)
    seen = set()
    for trial in range(6):
        active = set(rng.sample(range(n), n // 2 + trial * n // 20))
        g = random_graph(rng, n, 2.5 / n, s=0, t=n - 1, active=active)
        allowed = _active_nodes(g)
        for src in rng.sample(sorted(allowed), 10):
            assert _bfs_from(g, src, allowed) == oracles.reachable_from(g, src)
        answer = query(ProblemKind.ST_SUBCONN, g, StConnected())
        assert answer == oracles.st_connected(g)
        seen.add(answer)
    assert seen == {True, False}


@pytest.mark.parametrize("n", [200, 500])
def test_induced_connectivity_matches_oracle(n):
    rng = random.Random(n)
    seen = set()
    for frac in (0.3, 0.6, 1.0):
        for c in (2.0, 3.0 * math.log(n) / frac):
            active = set(rng.sample(range(n), int(frac * n)))
            g = random_graph(rng, n, c / n, active=active)
            answer = query(ProblemKind.CONN_SUB, g, InducedConnected())
            assert answer == oracles.induced_connected(g)
            seen.add(answer)
    assert seen == {True, False}


@pytest.mark.parametrize("n,p", [(150, 0.06), (200, 0.04), (250, 0.005)])
def test_diameter_matches_oracle(n, p):
    g = random_graph(random.Random(n), n, p)
    assert query(ProblemKind.DIAMETER, g, Diameter()) == oracles.diameter(g)


def assert_matching(g, mate):
    for v, m in mate.items():
        assert mate[m] == v and g.has_edge(v, m)


@pytest.mark.parametrize("nl,nr,c", [(100, 100, 2.0), (150, 200, 1.5),
                                     (300, 300, 3.0)])
def test_kbpm_matches_oracle(nl, nr, c):
    g = random_bipartite(random.Random(nl + nr), nl, nr, c / max(nl, nr))
    for k in (1, 3, 5):
        st = EngineState(ProblemKind.KBPM, "full", g)
        mate = compute_kaug_free_matching(g, k)
        assert_matching(g, mate)
        assert not oracles.has_short_augpath(g, mate, k)
        assert st.query(KAugFreeMatchingSize(k)) == len(mate) // 2
    mate = compute_kaug_free_matching(g)
    assert_matching(g, mate)
    expected = oracles.oracle_matching(g)
    assert len(mate) // 2 == expected.max_matching_size
    assert query(ProblemKind.BPMATCH, g, HasPerfectMatching()) == expected.has_perfect


def test_bpmatch_perfect_at_scale():
    # a perfect matching planted under random extra edges
    rng = random.Random(9)
    side = 200
    g = random_bipartite(rng, side, side, 1.5 / side)
    for u in range(side):
        if not g.has_edge(u, side + u):
            g.add_edge(u, side + u)
    assert query(ProblemKind.BPMATCH, g, HasPerfectMatching())
    assert oracles.oracle_matching(g).has_perfect


def test_bwmatch_matches_dp_oracle():
    rng = random.Random(12)
    seen = set()
    for trial in range(12):
        nl = rng.randint(8, 12)
        nr = nl if trial % 4 else rng.randint(8, 12)
        g = random_bipartite(rng, nl, nr, rng.choice((0.2, 0.4, 0.7)),
                             weighted=True, max_weight=20)
        answer = query(ProblemKind.BWMATCH, g, MaxWeightPmWeight())
        assert answer == oracles.max_weight_pm_weight(g)
        seen.add(answer is None)
    assert seen == {True, False}


def path(labels):
    g = Graph(len(labels))
    for a, b in zip(labels, labels[1:]):
        g.add_edge(a, b)
    return g


def test_kbpm_long_augmenting_paths_need_no_recursion():
    # On a randomly labelled path the first phase leaves augmenting paths
    # over a thousand left vertices deep, past the default recursion limit.
    n = 20_000
    limit = sys.getrecursionlimit()
    g = path(random.Random(3).sample(range(n), n))
    assert query(ProblemKind.KBPM, g, KAugFreeMatchingSize(2 * n + 1)) == n // 2
    assert sys.getrecursionlimit() == limit


def test_kbpm_query_on_200k_node_path_keeps_recursion_limit():
    n = 200_000
    limit = sys.getrecursionlimit()
    g = path(list(range(n)))
    assert query(ProblemKind.KBPM, g, KAugFreeMatchingSize(3)) == n // 2
    assert sys.getrecursionlimit() == limit
