"""The two SCC query paths and the arc columns they read.

Large SCC queries run scipy's csgraph over the graph's arc columns instead
of Tarjan's algorithm. Both paths must give the sizes the oracle gives, on
graphs on both sides of the edge-count cutoff, and the columns must hold
exactly the graph's edges after every insert, delete, rollback and stage
restore. Each test forces its path with monkeypatch, so what the process
has already scanned (the import budget) does not matter.
"""

import random

import pytest

from dynred import engines
from dynred.engines import (
    DirectEngine,
    Mode,
    ProblemKind,
    _csgraph_scc_sizes,
    _tarjan_scc_sizes,
    inverse,
    run_stage,
)
from dynred.model import (
    DeleteEdge,
    Graph,
    InsertEdge,
    MaxSccSize,
    MoreThanTwoSccs,
    SccCount2VsK,
    StronglyConnected,
)
from dynred.oracles import scc_list

CUTOFF = engines.SCC_CSGRAPH_MIN_EDGES


@pytest.fixture(params=["tarjan", "csgraph"])
def path(request, monkeypatch):
    """Send every SCC query down one path, whatever its size."""
    if request.param == "tarjan":
        monkeypatch.setattr(engines, "SCC_CSGRAPH_MIN_EDGES", float("inf"))
    else:
        monkeypatch.setattr(engines, "SCC_CSGRAPH_MIN_EDGES", 0)
        monkeypatch.setattr(engines, "_scc_budget_left", 0)
    return request.param


def _random_graph(rng, n, m, directed=True):
    g = Graph(n, directed=directed)
    while g.edge_count < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
    return g


def _oracle_sizes(g):
    return sorted(len(c) for c in scc_list(g))


def _columns_hold_edges(g):
    src, dst = g.arc_columns()
    assert len(src) == len(dst) == g.edge_count
    assert sorted(zip(src, dst)) == sorted(g.adjacency()[1])


def _random_edge_op(rng, g):
    n = g.node_count
    u, v = rng.sample(range(n), 2)
    return DeleteEdge(u, v) if g.has_edge(u, v) else InsertEdge(u, v)


@pytest.mark.parametrize("n,m", [(0, 0), (1, 0), (2, 1), (5, 12), (40, 90),
                                 (60, CUTOFF // 3), (150, CUTOFF + 1),
                                 (400, 2 * CUTOFF), (120, 3 * CUTOFF)])
def test_kernels_agree_with_the_oracle(n, m):
    rng = random.Random(f"scc/{n}/{m}")
    for _ in range(3):
        g = _random_graph(rng, n, m)
        want = _oracle_sizes(g)
        assert sorted(_tarjan_scc_sizes(g)) == want
        assert sorted(_csgraph_scc_sizes(g)) == want  # rows in random order
        in_order = Graph(n, directed=True)
        for u, v in g.edges():
            in_order.add_edge(u, v)
        assert sorted(_csgraph_scc_sizes(in_order)) == want  # sorted rows


@pytest.mark.parametrize("directed", [True, False])
def test_columns_follow_inserts_deletes_and_rollbacks(directed):
    rng = random.Random(f"columns/{directed}")
    g = _random_graph(rng, 30, 120, directed)
    _columns_hold_edges(g)
    for _ in range(400):
        u, v = rng.sample(range(30), 2)
        if g.has_edge(u, v):
            w = g.remove_edge(u, v)
            if rng.random() < 0.3:
                g._link(u, v, w)  # what rollback does
        else:
            g.add_edge(u, v)
            if rng.random() < 0.3:
                g._unlink(u, v)
        _columns_hold_edges(g)


def test_copy_of_a_tracked_graph_is_untracked_and_equal():
    g = _random_graph(random.Random(3), 50, 300)
    g.arc_columns()
    h = g.copy()
    assert h._arcs is None
    assert h == g
    h.add_edge(*next((u, v) for u in range(50) for v in range(50)
                     if u != v and not g.has_edge(u, v)))
    assert g.edge_count == len(g.arc_columns()[0]) == 300


_KINDS = {
    ProblemKind.SC: (StronglyConnected(),
                     lambda n, sizes: n <= 1 or len(sizes) == 1),
    ProblemKind.SC2: (MoreThanTwoSccs(), lambda n, sizes: len(sizes) > 2),
    ProblemKind.SCC_2_VS_K: (SccCount2VsK(3), lambda n, sizes: len(sizes) > 3),
    ProblemKind.MAX_SCC: (MaxSccSize(), lambda n, sizes: max(sizes, default=0)),
}


@pytest.mark.parametrize("kind", list(_KINDS), ids=lambda k: k.value)
def test_engine_answers_through_nested_rollbacks(kind, path):
    query, expect = _KINDS[kind]
    rng = random.Random(f"rollback/{kind.value}/{path}")
    for n, m in ((12, 20), (40, 160)):
        eng = DirectEngine(kind, Mode.FULL, _random_graph(rng, n, m))
        g = eng.graph
        g.arc_columns()
        cps = []  # (checkpoint, graph copy when it was taken)
        for _ in range(150):
            r = rng.random()
            if r < 0.15:
                cps.append((eng.checkpoint(), g.copy()))
            elif r < 0.3 and cps:
                i = rng.randrange(len(cps))
                cp, before = cps[i]
                del cps[i:]  # rollback consumes every later checkpoint
                eng.rollback(cp)
                assert g == before
            else:
                eng.update(_random_edge_op(rng, g))
            _columns_hold_edges(g)
            assert eng.query(query) == expect(n, _oracle_sizes(g))


@pytest.mark.parametrize("kind", list(_KINDS), ids=lambda k: k.value)
def test_engine_answers_after_stage_restores(kind, path):
    query, expect = _KINDS[kind]
    rng = random.Random(f"stages/{kind.value}/{path}")
    eng = DirectEngine(kind, Mode.FULL, _random_graph(rng, 40, 150))
    g = eng.graph
    start = g.copy()
    for _ in range(30):
        pairs = rng.sample([(u, v) for u in range(40) for v in range(40)
                            if u != v and not g.has_edge(u, v)], 8)
        ops = [InsertEdge(u, v) for u, v in pairs]
        ops += [DeleteEdge(*e) for e in rng.sample(g.edges(), 5)]
        run_stage(eng, ops, query, undo=[inverse(op) for op in ops])
        assert g == start
        _columns_hold_edges(g)
        assert eng.query(query) == expect(40, _oracle_sizes(g))


def test_large_graphs_wait_for_the_import_budget(monkeypatch):
    calls = []
    monkeypatch.setattr(engines, "_tarjan_scc_sizes",
                        lambda g: calls.append("tarjan") or [g.node_count])
    monkeypatch.setattr(engines, "_csgraph_scc_sizes",
                        lambda g: calls.append("csgraph") or [g.node_count])
    small = _random_graph(random.Random(1), 30, CUTOFF // 10)
    big = _random_graph(random.Random(2), 200, CUTOFF)
    monkeypatch.setattr(engines, "_scc_budget_left", CUTOFF + 1)
    for g in (small, big, small, big, big, small):
        engines._scc_sizes(g)
    # small graphs never count; the second big one spends the last of it
    assert calls == ["tarjan", "tarjan", "tarjan", "tarjan", "csgraph", "tarjan"]
    assert engines._scc_budget_left == 1 - CUTOFF
