import random

import pytest

from dynred.engines import DirectEngine, Mode, ProblemKind, direct_factory
from dynred.model import (
    ActivateNode,
    AddToScope,
    DeactivateNode,
    DeleteEdge,
    DomainError,
    Graph,
    InsertEdge,
    MaxWeightPmWeight,
    ModeError,
    RemoveFromScope,
    SetSystem,
    StateError,
    StConnected,
    StDistance,
    StReachable,
    UnionIsUniverse,
)
from dynred.wrappers import (
    StspViaBwm,
    streach_via_bpm,
    streach_via_sc,
    stsp_via_bwm,
    subconn_via_streach,
    subunion_via_connsub,
)


def build(n, edges, **kw):
    g = Graph(n, **kw)
    for e in edges:
        g.add_edge(*e)
    return g


def random_subconn_instance(rng, n):
    active = {v for v in range(1, n - 1) if rng.random() < 0.5}
    g = Graph(n, s=0, t=n - 1, active=active)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.4:
                g.add_edge(u, v)
    return g


# ---------------------------------------------------------------------------
# node-toggled connectivity over reachability


def test_subconn_wrapper_size_contract():
    g = build(4, [(0, 1), (1, 2), (2, 3)], s=0, t=3, active={1})
    h = subconn_via_streach()(ProblemKind.ST_SUBCONN, "full", g)
    assert h.inner.state.graph.node_count == 2 * 4
    # 2 arcs per edge plus one activation arc per always-on node {0, 1, 3}
    assert h.inner.state.graph.edge_count == 2 * 3 + 3


def test_subconn_wrapper_matches_direct():
    rng = random.Random(60)
    factory = subconn_via_streach()
    for _ in range(20):
        n = rng.randint(3, 8)
        g = random_subconn_instance(rng, n)
        direct = DirectEngine(ProblemKind.ST_SUBCONN, "full", g)
        wrapped = factory(ProblemKind.ST_SUBCONN, "full", g)
        active = set(g.active)
        for _ in range(10):
            v = rng.randrange(1, n - 1)
            op = DeactivateNode(v) if v in active else ActivateNode(v)
            active ^= {v}
            direct.update(op)
            wrapped.update(op)
            assert direct.query(StConnected()) == wrapped.query(StConnected())


def test_subconn_wrapper_edge_ops_and_fanout():
    g = build(4, [(0, 1), (2, 3)], s=0, t=3, active={1, 2})
    h = subconn_via_streach()(ProblemKind.ST_SUBCONN, "full", g)
    assert not h.query(StConnected())
    h.update(InsertEdge(1, 2))
    assert h.query(StConnected())
    assert h.counters.updates == 1
    assert h.inner.counters.updates == 2  # one undirected edge, two arcs
    h.update(DeactivateNode(1))
    assert h.inner.counters.updates == 3  # node toggle is a single arc op
    assert not h.query(StConnected())


def test_subconn_wrapper_suppresses_st_toggles():
    g = build(3, [(0, 1), (1, 2)], s=0, t=2, active={1})
    h = subconn_via_streach()(ProblemKind.ST_SUBCONN, "full", g)
    h.update(ActivateNode(0))  # s stays implicitly on; no inner traffic
    assert h.counters.updates == 1
    assert h.inner.counters.updates == 0
    with pytest.raises(ModeError):
        subconn_via_streach()(ProblemKind.ST_SUBCONN, "dec", g).update(ActivateNode(0))


def test_subconn_wrapper_rejects_wrong_kind():
    g = build(2, [(0, 1)], directed=True, s=0, t=1)
    with pytest.raises(DomainError):
        subconn_via_streach()(ProblemKind.ST_REACH, "full", g)


# ---------------------------------------------------------------------------
# reachability over matching


def random_streach_instance(rng, n, weighted=False):
    kw = dict(directed=True, s=0, t=n - 1)
    if weighted:
        kw.update(weighted=True, max_weight=9)
    g = Graph(n, **kw)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.3:
                g.add_edge(u, v, rng.randint(1, 9) if weighted else None)
    return g


def test_streach_via_bpm_matches_direct():
    rng = random.Random(61)
    factory = streach_via_bpm()
    for _ in range(25):
        n = rng.randint(2, 7)
        g = random_streach_instance(rng, n)
        direct = DirectEngine(ProblemKind.ST_REACH, "full", g)
        wrapped = factory(ProblemKind.ST_REACH, "full", g)
        assert wrapped.inner.state.graph.node_count == 2 * n - 2
        mirror = g.copy()
        for _ in range(8):
            if rng.random() < 0.5 and mirror.edge_count:
                u, v = rng.choice(mirror.edges())
                direct.update(DeleteEdge(u, v))
                wrapped.update(DeleteEdge(u, v))
                mirror.remove_edge(u, v)
            else:
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v or mirror.has_edge(u, v):
                    continue
                direct.update(InsertEdge(u, v))
                wrapped.update(InsertEdge(u, v))
                mirror.add_edge(u, v)
            assert direct.query(StReachable()) == wrapped.query(StReachable())


def test_streach_via_bpm_suppresses_degenerate_arcs():
    g = build(3, [(0, 1)], directed=True, s=0, t=2)
    h = streach_via_bpm()(ProblemKind.ST_REACH, "full", g)
    h.update(InsertEdge(1, 0))  # arc into s: cannot matter
    h.update(InsertEdge(2, 1))  # arc out of t: cannot matter
    assert h.counters.updates == 2
    assert h.inner.counters.updates == 0
    assert not h.query(StReachable())
    h.update(InsertEdge(1, 2))
    assert h.query(StReachable())


def test_streach_via_sc_matches_direct():
    rng = random.Random(62)
    factory = streach_via_sc()
    for _ in range(25):
        n = rng.randint(2, 7)
        g = random_streach_instance(rng, n)
        direct = DirectEngine(ProblemKind.ST_REACH, "full", g)
        wrapped = factory(ProblemKind.ST_REACH, "full", g)
        mirror = g.copy()
        for _ in range(8):
            if rng.random() < 0.5 and mirror.edge_count:
                u, v = rng.choice(mirror.edges())
                direct.update(DeleteEdge(u, v))
                wrapped.update(DeleteEdge(u, v))
                mirror.remove_edge(u, v)
            else:
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v or mirror.has_edge(u, v):
                    continue
                direct.update(InsertEdge(u, v))
                wrapped.update(InsertEdge(u, v))
                mirror.add_edge(u, v)
            assert direct.query(StReachable()) == wrapped.query(StReachable())


def test_streach_via_sc_two_nodes():
    g = build(2, [], directed=True, s=0, t=1)
    h = streach_via_sc()(ProblemKind.ST_REACH, "full", g)
    assert not h.query(StReachable())
    h.update(InsertEdge(0, 1))
    assert h.query(StReachable())
    h.update(DeleteEdge(0, 1))
    assert not h.query(StReachable())


# ---------------------------------------------------------------------------
# shortest path over weighted matching


def test_offset_law_probe():
    """s -> a -> t with unit weights (n = 3, B = 2, dist = 2) as its split
    graph: the matching weight is (n-1)B - dist."""
    probe = Graph(4, weighted=True, max_weight=2)
    # nodes: s_out=0, a_out=1, a_in=2, t_in=3
    probe.add_edge(1, 2, 2)      # pair edge for a
    probe.add_edge(0, 2, 1)      # arc s -> a, weight B - 1
    probe.add_edge(1, 3, 1)      # arc a -> t
    w = direct_factory(ProblemKind.BWMATCH, Mode.FULL, probe).query(MaxWeightPmWeight())
    assert (3 - 1) * 2 - w == 2


def test_stsp_via_bwm_matches_direct_directed():
    rng = random.Random(63)
    factory = stsp_via_bwm()
    for _ in range(20):
        n = rng.randint(2, 6)
        g = random_streach_instance(rng, n, weighted=True)
        direct = DirectEngine(ProblemKind.ST_SP, "full", g)
        wrapped = factory(ProblemKind.ST_SP, "full", g)
        assert direct.query(StDistance()) == wrapped.query(StDistance())
        mirror = g.copy()
        for _ in range(6):
            if rng.random() < 0.5 and mirror.edge_count:
                u, v = rng.choice(mirror.edges())
                direct.update(DeleteEdge(u, v))
                wrapped.update(DeleteEdge(u, v))
                mirror.remove_edge(u, v)
            else:
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v or mirror.has_edge(u, v):
                    continue
                w = rng.randint(1, 9)
                direct.update(InsertEdge(u, v, w))
                wrapped.update(InsertEdge(u, v, w))
                mirror.add_edge(u, v, w)
            assert direct.query(StDistance()) == wrapped.query(StDistance())


def test_stsp_via_bwm_matches_direct_undirected():
    rng = random.Random(64)
    factory = stsp_via_bwm()
    for _ in range(15):
        n = rng.randint(2, 6)
        g = Graph(n, weighted=True, max_weight=9, s=0, t=n - 1)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    g.add_edge(u, v, rng.randint(1, 9))
        direct = DirectEngine(ProblemKind.ST_SP, "full", g)
        wrapped = factory(ProblemKind.ST_SP, "full", g)
        assert direct.query(StDistance()) == wrapped.query(StDistance())


def test_stsp_via_bwm_fanout():
    g = Graph(4, directed=True, weighted=True, max_weight=5, s=0, t=3)
    g.add_edge(0, 1, 2)
    h = stsp_via_bwm()(ProblemKind.ST_SP, "full", g)
    h.update(InsertEdge(1, 3, 4))
    assert h.inner.counters.updates == 1  # directed arc maps to one edge
    und = Graph(4, weighted=True, max_weight=5, s=0, t=3)
    hu = stsp_via_bwm()(ProblemKind.ST_SP, "full", und)
    hu.update(InsertEdge(1, 2, 4))
    assert hu.inner.counters.updates == 2  # undirected edge carries both arcs
    hu.update(InsertEdge(0, 1, 4))
    # one direction is an arc into s and is dropped
    assert hu.inner.counters.updates == 3


def test_stsp_via_bwm_counters_match_direct():
    g = Graph(3, directed=True, weighted=True, max_weight=5, s=0, t=2)
    g.add_edge(0, 1, 1)
    direct = DirectEngine(ProblemKind.ST_SP, "full", g)
    wrapped = stsp_via_bwm()(ProblemKind.ST_SP, "full", g)
    for h in (direct, wrapped):
        h.update(InsertEdge(1, 2, 3))
        h.query(StDistance())
        h.query(StDistance())
    assert wrapped.counters.as_dict() == direct.counters.as_dict()


def test_stsp_via_bwm_rejects_overweight_update():
    g = Graph(3, directed=True, weighted=True, max_weight=5, s=0, t=2)
    h = stsp_via_bwm()(ProblemKind.ST_SP, "full", g)
    with pytest.raises(DomainError):
        h.update(InsertEdge(0, 1, 6))
    with pytest.raises(DomainError):
        h.update(InsertEdge(0, 1))


def test_stsp_via_bwm_needs_weight_cap():
    g = Graph(3, directed=True, weighted=True, max_weight=5, s=0, t=2)
    g.max_weight = None
    with pytest.raises(DomainError):
        stsp_via_bwm()(ProblemKind.ST_SP, "full", g)


# ---------------------------------------------------------------------------
# scoped union over induced connectivity


def test_subunion_wrapper_size_contract():
    ss = SetSystem(4, [[0, 1], [2, 3], [1, 2]])
    h = subunion_via_connsub()(ProblemKind.SUB_UNION, "full", ss)
    g = h.inner.state.graph
    assert g.node_count == 4 + 3 + 1
    assert g.edge_count == 6 + 3
    assert g.active == set(range(4)) | {7}


def test_subunion_wrapper_matches_direct():
    rng = random.Random(65)
    factory = subunion_via_connsub()
    for _ in range(20):
        universe = rng.randint(1, 6)
        nsets = rng.randint(1, 6)
        ss = SetSystem(universe,
                       [[x for x in range(universe) if rng.random() < 0.4]
                        for _ in range(nsets)])
        direct = DirectEngine(ProblemKind.SUB_UNION, "full", ss)
        wrapped = factory(ProblemKind.SUB_UNION, "full", ss)
        scoped: set[int] = set()
        for _ in range(10):
            if scoped and rng.random() < 0.4:
                i = rng.choice(sorted(scoped))
                op = RemoveFromScope(i)
                scoped.discard(i)
            else:
                free = [i for i in range(nsets) if i not in scoped]
                if not free:
                    continue
                i = rng.choice(free)
                op = AddToScope(i)
                scoped.add(i)
            direct.update(op)
            wrapped.update(op)
            assert direct.query(UnionIsUniverse()) == wrapped.query(UnionIsUniverse())


def test_subunion_wrapper_initial_scope():
    ss = SetSystem(2, [[0], [1]])
    h = subunion_via_connsub()(ProblemKind.SUB_UNION, "full", ss, scope=[0, 1])
    assert h.query(UnionIsUniverse())
    h.update(RemoveFromScope(0))
    assert not h.query(UnionIsUniverse())


def test_subunion_empty_universe():
    ss = SetSystem(0, [[], []])
    direct = DirectEngine(ProblemKind.SUB_UNION, "full", ss)
    wrapped = subunion_via_connsub()(ProblemKind.SUB_UNION, "full", ss)
    assert direct.query(UnionIsUniverse()) == wrapped.query(UnionIsUniverse()) == True


@pytest.mark.parametrize("make,kind", [
    (streach_via_sc, ProblemKind.ST_REACH),
    (streach_via_bpm, ProblemKind.ST_REACH),
    (subconn_via_streach, ProblemKind.ST_SUBCONN),
], ids=["streach-via-sc", "streach-via-bpm", "subconn-via-streach"])
def test_unweighted_hosts_take_weighted_outer_instances(make, kind):
    """These kinds take weighted graphs; an insert's weight is checked by
    the outer state and never reaches the unweighted host."""
    directed = kind is ProblemKind.ST_REACH
    g = Graph(4, directed=directed, weighted=True, max_weight=5, s=0, t=2,
              active=None if directed else {1, 3})
    g.add_edge(0, 1, 1)
    direct = direct_factory(kind, "full", g)
    wrapped = make()(kind, "full", g)
    query = StReachable() if directed else StConnected()
    for op in (InsertEdge(1, 2, 3), InsertEdge(1, 3, 6), InsertEdge(1, 3),
               InsertEdge(3, 2, 5), DeleteEdge(0, 1), InsertEdge(0, 1, 2)):
        outcomes = []
        for h in (direct, wrapped):
            try:
                h.update(op)
                outcomes.append(None)
            except DomainError:
                outcomes.append(DomainError)
        assert outcomes[0] == outcomes[1], op
        assert wrapped.query(query) == direct.query(query), op
    assert wrapped.counters.as_dict() == direct.counters.as_dict()


# ---------------------------------------------------------------------------
# rollback and composition


def test_wrapper_rollback_restores_and_counts():
    g = build(4, [(0, 1), (1, 2), (2, 3)], s=0, t=3, active={1, 2})
    h = subconn_via_streach()(ProblemKind.ST_SUBCONN, "dec", g)
    assert h.query(StConnected())
    cp = h.checkpoint()
    h.update(DeactivateNode(1))
    h.update(DeleteEdge(2, 3))
    assert not h.query(StConnected())
    h.rollback(cp)
    assert h.query(StConnected())
    assert h.counters.rollback_ops == 2       # two outer ops undone
    assert h.inner.counters.rollback_ops == 3  # one arc + two arcs inside
    with pytest.raises(StateError):
        h.rollback(cp)


def test_wrapper_composition():
    rng = random.Random(66)
    stacked = subconn_via_streach(inner_factory=streach_via_bpm())
    for _ in range(10):
        n = rng.randint(3, 6)
        g = random_subconn_instance(rng, n)
        direct = DirectEngine(ProblemKind.ST_SUBCONN, "full", g)
        deep = stacked(ProblemKind.ST_SUBCONN, "full", g)
        active = set(g.active)
        for _ in range(6):
            v = rng.randrange(1, n - 1)
            op = DeactivateNode(v) if v in active else ActivateNode(v)
            active ^= {v}
            direct.update(op)
            deep.update(op)
            assert direct.query(StConnected()) == deep.query(StConnected())


def test_wrapper_chain_builds_one_direct_engine(monkeypatch):
    """Each wrapper keeps its outer instance in a bare engine state, so a
    chain over direct_factory builds one DirectEngine, the innermost: the
    only handle that holds engine state on its own."""
    built = []
    init = DirectEngine.__init__

    def counting_init(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(DirectEngine, "__init__", counting_init)
    g = build(4, [(0, 1), (1, 2), (2, 3)], s=0, t=3, active={1, 2})
    h = subconn_via_streach(inner_factory=streach_via_bpm())(
        ProblemKind.ST_SUBCONN, "full", g)
    assert built == [h.inner.inner]
