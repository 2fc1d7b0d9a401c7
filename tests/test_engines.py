import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dynred
from dynred import oracles
from dynred.engines import (
    DirectEngine,
    EngineState,
    Mode,
    ProblemKind,
    compute_kaug_free_matching,
    inverse,
    run_stage,
)
from dynred.generators import random_bipartite
from dynred.model import (
    ActivateNode,
    AddToScope,
    AllStReachable,
    DeactivateNode,
    DeleteEdge,
    Diameter,
    DomainError,
    Graph,
    GuardError,
    HasPerfectMatching,
    InducedConnected,
    InsertEdge,
    InsertSet,
    IntersectSets,
    IsEmpty,
    KAugFreeMatchingSize,
    MaxSccSize,
    MaxWeightPmWeight,
    Member,
    ModeError,
    MoreThanTwoSccs,
    ReachCountLessThan,
    RemoveFromScope,
    SccCount2VsK,
    SetSystem,
    StateError,
    StConnected,
    StDistance,
    StReachable,
    StronglyConnected,
    UnionIsUniverse,
)
from dynred.sat_reductions import _engine_digest


def build(n, edges, **kw):
    g = Graph(n, **kw)
    for e in edges:
        g.add_edge(*e)
    return g


# ---------------------------------------------------------------------------
# construction and validation


def test_engine_new_counts_preprocess():
    g = build(4, [(0, 1), (1, 2)], directed=True, s=0, t=2)
    st = EngineState(ProblemKind.ST_REACH, "full", g)
    assert st.counters.preprocess_units == 6
    assert st.counters.updates == 0 and st.counters.queries == 0


def test_engine_new_copies_instance():
    g = build(3, [(0, 1)], directed=True, s=0, t=2)
    st = EngineState(ProblemKind.ST_REACH, Mode.FULL, g)
    g.add_edge(1, 2)
    assert not st.query(StReachable())


def test_state_node_cap_env_override(monkeypatch):
    g = build(4, [(0, 1)], directed=True, s=0, t=3)
    monkeypatch.setenv("REDUX_MAX_STATE_NODES", "3")
    with pytest.raises(GuardError):
        EngineState(ProblemKind.ST_REACH, "full", g)
    monkeypatch.setenv("REDUX_MAX_STATE_NODES", "4")
    EngineState(ProblemKind.ST_REACH, "full", g)


def test_malformed_state_node_cap_fails_construction_not_import(monkeypatch):
    src = str(Path(dynred.__file__).resolve().parents[1])
    env = dict(os.environ, REDUX_MAX_STATE_NODES="abc",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", "import dynred.engines"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    g = build(2, [(0, 1)], directed=True, s=0, t=1)
    monkeypatch.setenv("REDUX_MAX_STATE_NODES", "abc")
    with pytest.raises(DomainError, match="REDUX_MAX_STATE_NODES"):
        EngineState(ProblemKind.ST_REACH, "full", g)


def test_engine_new_shape_checks():
    with pytest.raises(DomainError):
        EngineState(ProblemKind.ST_REACH, "full", build(3, [], s=0, t=1))  # undirected
    with pytest.raises(DomainError):
        EngineState(ProblemKind.ST_REACH, "full", build(3, [], directed=True))  # no s/t
    with pytest.raises(DomainError):
        EngineState(ProblemKind.ST_REACH, "full",
                    build(3, [], directed=True, s=1, t=1))  # s == t
    with pytest.raises(DomainError):
        EngineState(ProblemKind.DIAMETER, "full", build(3, [], directed=True))
    with pytest.raises(DomainError):
        EngineState(ProblemKind.BPMATCH, "full", build(3, [(0, 1), (1, 2), (0, 2)]))
    with pytest.raises(DomainError):
        EngineState(ProblemKind.ST_SUBCONN, "full", build(3, [], s=0, t=2))  # no active
    with pytest.raises(DomainError):
        EngineState(ProblemKind.PP, "full", build(2, []))  # graph for a set kind
    with pytest.raises(DomainError):
        EngineState(ProblemKind.ST_REACH, "sideways",
                    build(2, [], directed=True, s=0, t=1))


# ---------------------------------------------------------------------------
# mode legality


def test_mode_legality():
    g = build(3, [(0, 1), (1, 2)], directed=True, s=0, t=2)
    dec = EngineState(ProblemKind.ST_REACH, "dec", g)
    with pytest.raises(ModeError):
        dec.update(InsertEdge(0, 2))
    assert dec.counters.updates == 0
    dec.update(DeleteEdge(0, 1))
    assert dec.counters.updates == 1

    inc = EngineState(ProblemKind.ST_REACH, "inc", g)
    with pytest.raises(ModeError):
        inc.update(DeleteEdge(0, 1))
    inc.update(InsertEdge(0, 2))

    full = EngineState(ProblemKind.ST_REACH, "full", g)
    full.update(DeleteEdge(0, 1))
    full.update(InsertEdge(0, 1))
    assert full.counters.updates == 2


def test_node_op_legality_by_mode():
    g = build(3, [(0, 1), (1, 2)], s=0, t=2, active={1})
    dec = EngineState(ProblemKind.ST_SUBCONN, "dec", g)
    with pytest.raises(ModeError):
        dec.update(ActivateNode(1))
    dec.update(DeactivateNode(1))
    inc = EngineState(ProblemKind.ST_SUBCONN, "inc", g)
    with pytest.raises(ModeError):
        inc.update(DeactivateNode(1))


def test_update_validity_errors():
    g = build(3, [(0, 1)], directed=True, s=0, t=2)
    st = EngineState(ProblemKind.ST_REACH, "full", g)
    with pytest.raises(StateError):
        st.update(InsertEdge(0, 1))  # duplicate
    with pytest.raises(StateError):
        st.update(DeleteEdge(1, 2))  # absent
    with pytest.raises(DomainError):
        st.update(InsertEdge(0, 5))  # out of range
    with pytest.raises(DomainError):
        st.update(ActivateNode(1))  # wrong op family
    assert st.counters.updates == 0


def test_query_type_mismatch():
    g = build(3, [(0, 1)], directed=True, s=0, t=2)
    st = EngineState(ProblemKind.ST_REACH, "full", g)
    with pytest.raises(DomainError):
        st.query(StronglyConnected())
    assert st.counters.queries == 0


@pytest.mark.parametrize("kind,make,query,error", [
    (ProblemKind.REACH_COUNT,
     lambda: build(3, [(0, 1)], directed=True, s=0),
     ReachCountLessThan(-1), DomainError),
    (ProblemKind.SCC_2_VS_K,
     lambda: build(3, [(0, 1)], directed=True),
     SccCount2VsK(1), DomainError),
    (ProblemKind.KBPM,
     lambda: build(4, [(0, 2), (1, 3)]),
     KAugFreeMatchingSize(2), DomainError),
    (ProblemKind.PP,
     lambda: SetSystem(3, [[0, 1]]),
     Member(0, 3), DomainError),
    (ProblemKind.EMPTY_PP,
     lambda: SetSystem(3, [[0, 1]]),
     IsEmpty(1), StateError),
], ids=["reach-count-limit", "scc-k", "kbpm-even-k", "pp-universe", "empty-pp-id"])
def test_rejected_query_leaves_counters(kind, make, query, error):
    st = EngineState(kind, "full", make())
    before = st.counters.as_dict()
    with pytest.raises(error):
        st.query(query)
    assert st.counters.as_dict() == before


# ---------------------------------------------------------------------------
# checkpoint / rollback


def test_rollback_restores_state_and_counts():
    g = build(4, [(0, 1), (1, 2), (2, 3)], directed=True, s=0, t=3)
    st = EngineState(ProblemKind.ST_REACH, "dec", g)
    before = st.graph.digest()
    cp = st.checkpoint()
    st.update(DeleteEdge(1, 2))
    st.update(DeleteEdge(2, 3))
    assert not st.query(StReachable())
    st.rollback(cp)
    assert st.graph.digest() == before
    assert st.query(StReachable())
    assert st.counters.rollback_ops == 2
    assert st.counters.updates == 2  # rollback does not rewind accounting


def test_rollback_consumes_checkpoint():
    g = build(3, [(0, 1), (1, 2)], directed=True, s=0, t=2)
    st = EngineState(ProblemKind.ST_REACH, "full", g)
    cp = st.checkpoint()
    st.update(DeleteEdge(0, 1))
    st.rollback(cp)
    with pytest.raises(StateError):
        st.rollback(cp)


def test_rollback_lifo_nesting():
    g = build(5, [(0, 1), (1, 2), (2, 3), (3, 4)], directed=True, s=0, t=4)
    st = EngineState(ProblemKind.ST_REACH, "dec", g)
    outer = st.checkpoint()
    st.update(DeleteEdge(0, 1))
    inner = st.checkpoint()
    st.update(DeleteEdge(1, 2))
    st.rollback(inner)
    assert st.graph.has_edge(1, 2) and not st.graph.has_edge(0, 1)
    st.rollback(outer)
    assert st.graph.has_edge(0, 1)
    # rolling back outer consumed the (already consumed) inner as well
    with pytest.raises(StateError):
        st.rollback(inner)


def test_rollback_to_outer_consumes_inner():
    g = build(4, [(0, 1), (1, 2), (2, 3)], directed=True, s=0, t=3)
    st = EngineState(ProblemKind.ST_REACH, "dec", g)
    outer = st.checkpoint()
    st.update(DeleteEdge(0, 1))
    inner = st.checkpoint()
    st.update(DeleteEdge(1, 2))
    st.rollback(outer)  # jumps over inner
    with pytest.raises(StateError):
        st.rollback(inner)
    assert st.counters.rollback_ops == 2


def test_rollback_keeps_earlier_checkpoint_at_equal_depth():
    g = build(3, [(0, 1), (1, 2)], directed=True, s=0, t=2)
    st = EngineState(ProblemKind.ST_REACH, "dec", g)
    before = st.graph.digest()
    a = st.checkpoint()
    b = st.checkpoint()  # same depth as a, taken after it
    st.update(DeleteEdge(0, 1))
    st.rollback(b)
    with pytest.raises(StateError):
        st.rollback(b)
    st.update(DeleteEdge(1, 2))
    st.rollback(a)
    assert st.graph.digest() == before
    assert st.counters.rollback_ops == 2
    with pytest.raises(StateError):
        st.rollback(a)


def test_foreign_checkpoint_rejected():
    g = build(4, [(0, 1), (2, 3)], directed=True, s=0, t=3)
    a = DirectEngine(ProblemKind.ST_REACH, "full", g)
    b = DirectEngine(ProblemKind.ST_REACH, "full", g)
    a_cp = a.checkpoint()
    b.checkpoint()
    b.update(InsertEdge(1, 3))
    before = (_engine_digest(b), b.counters.as_dict())
    for cp in (a_cp, object()):
        with pytest.raises(StateError):
            b.rollback(cp)
        assert (_engine_digest(b), b.counters.as_dict()) == before


def test_rollback_bypasses_mode_checks():
    # undoing a deletion re-inserts, which is fine even in decremental mode
    g = build(2, [(0, 1)], directed=True, s=0, t=1)
    st = EngineState(ProblemKind.ST_REACH, "dec", g)
    cp = st.checkpoint()
    st.update(DeleteEdge(0, 1))
    st.rollback(cp)
    assert st.graph.has_edge(0, 1)


def test_rollback_weighted_edge_restores_weight():
    g = Graph(2, directed=True, weighted=True, max_weight=9, s=0, t=1)
    g.add_edge(0, 1, 7)
    st = EngineState(ProblemKind.ST_SP, "dec", g)
    cp = st.checkpoint()
    st.update(DeleteEdge(0, 1))
    st.rollback(cp)
    assert st.graph.weight(0, 1) == 7


# ---------------------------------------------------------------------------
# query correctness against the oracle layer


def random_digraph(rng, n, p, **kw):
    g = Graph(n, directed=True, **kw)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                g.add_edge(u, v)
    return g


def random_undirected(rng, n, p, **kw):
    g = Graph(n, **kw)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def test_reachability_kinds_random_walk():
    rng = random.Random(42)
    for trial in range(25):
        n = rng.randint(2, 8)
        g = random_digraph(rng, n, 0.3, s=0, t=n - 1)
        st = EngineState(ProblemKind.ST_REACH, "full", g)
        mirror = g.copy()
        for _ in range(12):
            if rng.random() < 0.5 and mirror.edge_count:
                u, v = rng.choice(mirror.edges())
                st.update(DeleteEdge(u, v))
                mirror.remove_edge(u, v)
            else:
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v and not mirror.has_edge(u, v):
                    st.update(InsertEdge(u, v))
                    mirror.add_edge(u, v)
            assert st.query(StReachable()) == oracles.st_reachable(mirror)


def test_reach_count_threshold():
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(2, 8)
        g = random_digraph(rng, n, 0.3, s=0)
        st = EngineState(ProblemKind.REACH_COUNT, "full", g)
        for limit in range(n + 2):
            assert (st.query(ReachCountLessThan(limit))
                    == (oracles.reach_count(g, 0) < limit))


def test_scc_kinds_against_oracle():
    rng = random.Random(44)
    for _ in range(25):
        n = rng.randint(1, 8)
        g = random_digraph(rng, n, 0.25)
        assert (EngineState(ProblemKind.SC, "full", g).query(StronglyConnected())
                == oracles.strongly_connected(g))
        assert (EngineState(ProblemKind.SC2, "full", g).query(MoreThanTwoSccs())
                == (oracles.scc_count(g) > 2))
        assert (EngineState(ProblemKind.SCC_2_VS_K, "full", g).query(SccCount2VsK(3))
                == (oracles.scc_count(g) > 3))
        assert (EngineState(ProblemKind.MAX_SCC, "full", g).query(MaxSccSize())
                == oracles.max_scc_size(g))


def test_st_set_reach_against_oracle():
    rng = random.Random(45)
    for _ in range(20):
        n = rng.randint(2, 7)
        ss = frozenset(rng.sample(range(n), rng.randint(1, n)))
        ts = frozenset(rng.sample(range(n), rng.randint(1, n)))
        g = random_digraph(rng, n, 0.3, s_set=ss, t_set=ts)
        st = EngineState(ProblemKind.ST_SET_REACH, "full", g)
        assert st.query(AllStReachable()) == oracles.all_st_reachable(g)


def test_diameter_against_oracle():
    rng = random.Random(46)
    for _ in range(25):
        n = rng.randint(1, 8)
        g = random_undirected(rng, n, 0.4)
        st = EngineState(ProblemKind.DIAMETER, "full", g)
        assert st.query(Diameter()) == oracles.diameter(g)


def test_subconn_against_oracle():
    rng = random.Random(47)
    for _ in range(25):
        n = rng.randint(3, 8)
        active = {v for v in range(1, n - 1) if rng.random() < 0.6}
        g = random_undirected(rng, n, 0.35, s=0, t=n - 1, active=active)
        st = EngineState(ProblemKind.ST_SUBCONN, "full", g)
        assert st.query(StConnected()) == oracles.st_connected(g)
        # toggle a node and recheck
        v = rng.randrange(1, n - 1)
        if v in g.active:
            st.update(DeactivateNode(v))
            g.active.discard(v)
        else:
            st.update(ActivateNode(v))
            g.active.add(v)
        assert st.query(StConnected()) == oracles.st_connected(g)


def test_conn_sub_against_oracle():
    rng = random.Random(48)
    for _ in range(25):
        n = rng.randint(1, 8)
        active = {v for v in range(n) if rng.random() < 0.6}
        g = random_undirected(rng, n, 0.35, active=active)
        st = EngineState(ProblemKind.CONN_SUB, "full", g)
        assert st.query(InducedConnected()) == oracles.induced_connected(g)


def test_bpmatch_against_oracle():
    rng = random.Random(49)
    for _ in range(30):
        nl, nr = rng.randint(1, 5), rng.randint(1, 5)
        g = Graph(nl + nr)
        for u in range(nl):
            for v in range(nl, nl + nr):
                if rng.random() < 0.5:
                    g.add_edge(u, v)
        st = EngineState(ProblemKind.BPMATCH, "full", g)
        assert (st.query(HasPerfectMatching())
                == oracles.oracle_matching(g).has_perfect)


def test_bpmatch_rejects_odd_cycle_at_query():
    g = build(4, [(0, 1), (1, 2)], directed=False)
    st = EngineState(ProblemKind.BPMATCH, "inc", g)
    st.update(InsertEdge(0, 2))
    with pytest.raises(DomainError):
        st.query(HasPerfectMatching())


def test_bwmatch_against_oracle():
    rng = random.Random(50)
    for _ in range(30):
        side = rng.randint(1, 4)
        g = Graph(2 * side, weighted=True, max_weight=9)
        for u in range(side):
            for v in range(side, 2 * side):
                if rng.random() < 0.7:
                    g.add_edge(u, v, rng.randint(1, 9))
        st = EngineState(ProblemKind.BWMATCH, "full", g)
        assert (st.query(MaxWeightPmWeight())
                == oracles.max_weight_pm_weight(g))


def test_bwmatch_frozen_biclique():
    g = Graph(4, weighted=True, max_weight=4)
    g.add_edge(0, 2, 1)
    g.add_edge(0, 3, 3)
    g.add_edge(1, 2, 4)
    g.add_edge(1, 3, 2)
    st = EngineState(ProblemKind.BWMATCH, "full", g)
    assert st.query(MaxWeightPmWeight()) == 7


def test_st_sp_against_oracle():
    rng = random.Random(51)
    for _ in range(25):
        n = rng.randint(2, 8)
        g = Graph(n, directed=True, weighted=True, max_weight=9, s=0, t=n - 1)
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.3:
                    g.add_edge(u, v, rng.randint(1, 9))
        st = EngineState(ProblemKind.ST_SP, "full", g)
        assert st.query(StDistance()) == oracles.st_distance(g)


# ---------------------------------------------------------------------------
# k-augmenting-path-free matching


def test_kbpm_size_and_freeness():
    rng = random.Random(52)
    for _ in range(30):
        nl, nr = rng.randint(1, 6), rng.randint(1, 6)
        g = Graph(nl + nr)
        for u in range(nl):
            for v in range(nl, nl + nr):
                if rng.random() < 0.5:
                    g.add_edge(u, v)
        for k in (1, 3, 5):
            mate = compute_kaug_free_matching(g, k)
            assert not oracles.has_short_augpath(g, mate, k)
            # folklore bound: |M| >= (k'-1)/k' * maximum, k' = (k+3)/2
            mu = oracles.oracle_matching(g).max_matching_size
            kp = Fraction(k + 3, 2)
            assert len(mate) // 2 >= (kp - 1) / kp * mu
            st = EngineState(ProblemKind.KBPM, "full", g)
            size = st.query(KAugFreeMatchingSize(k))
            assert size == len(mate) // 2


def test_kbpm_unbounded_is_maximum():
    rng = random.Random(53)
    for _ in range(20):
        nl, nr = rng.randint(1, 6), rng.randint(1, 6)
        g = Graph(nl + nr)
        for u in range(nl):
            for v in range(nl, nl + nr):
                if rng.random() < 0.5:
                    g.add_edge(u, v)
        mate = compute_kaug_free_matching(g)
        assert len(mate) // 2 == oracles.oracle_matching(g).max_matching_size


def test_kbpm_rejects_even_k():
    g = build(2, [(0, 1)])
    st = EngineState(ProblemKind.KBPM, "full", g)
    with pytest.raises(DomainError):
        st.query(KAugFreeMatchingSize(2))


def _kbpm_history_graph() -> Graph:
    return random_bipartite(random.Random(200), 100, 100, 0.02)


def test_kbpm_answer_same_on_an_engine_copy():
    g = _kbpm_history_graph()
    copy = EngineState(ProblemKind.KBPM, "full", g).graph
    assert copy.digest() == g.digest()
    assert (len(compute_kaug_free_matching(copy, 1))
            == len(compute_kaug_free_matching(g, 1)))


def test_kbpm_answer_same_after_rollback():
    st = EngineState(ProblemKind.KBPM, "full", _kbpm_history_graph())
    digest, before = st.graph.digest(), st.query(KAugFreeMatchingSize(1))
    cp = st.checkpoint()
    for u, v in list(st.graph.edges()):
        st.update(DeleteEdge(u, v))
    st.rollback(cp)
    assert st.graph.digest() == digest
    assert st.query(KAugFreeMatchingSize(1)) == before


def test_kbpm_answers_survive_partial_delete_and_rollback():
    # 200 engines, 40 edges deleted and rolled back on each: the restored
    # edge set must give the answer it gave before
    moved = 0
    for seed in range(200):
        rng = random.Random(seed)
        st = EngineState(ProblemKind.KBPM, "full", random_bipartite(rng, 60, 60, 0.03))
        before = st.query(KAugFreeMatchingSize(1))
        cp = st.checkpoint()
        for u, v in rng.sample(st.graph.edges(), 40):
            st.update(DeleteEdge(u, v))
        st.rollback(cp)
        moved += st.query(KAugFreeMatchingSize(1)) != before
    assert moved == 0


# ---------------------------------------------------------------------------
# set-system engines


def test_pp_member_and_intersect():
    ss = SetSystem(5, [[0, 1, 2], [1, 2, 3]])
    st = EngineState(ProblemKind.PP, "full", ss)
    assert st.counters.preprocess_units == 5 + 6
    new_id = st.update(IntersectSets(0, 1))
    assert new_id == 2
    assert st.query(Member(2, 1))
    assert not st.query(Member(2, 0))
    fresh = st.update(InsertSet(frozenset({4})))
    assert fresh == 3
    assert st.query(Member(3, 4))
    with pytest.raises(DomainError):
        st.query(Member(0, 9))


def test_empty_pp():
    ss = SetSystem(3, [[0], [1]])
    st = EngineState(ProblemKind.EMPTY_PP, "full", ss)
    i = st.update(IntersectSets(0, 1))
    assert st.query(IsEmpty(i))
    assert not st.query(IsEmpty(0))


def test_set_ops_are_insert_type():
    ss = SetSystem(3, [[0], [1]])
    st = EngineState(ProblemKind.EMPTY_PP, "dec", ss)
    with pytest.raises(ModeError):
        st.update(IntersectSets(0, 1))


def test_set_rollback_pops():
    ss = SetSystem(3, [[0, 1], [1, 2]])
    st = EngineState(ProblemKind.PP, "full", ss)
    cp = st.checkpoint()
    st.update(IntersectSets(0, 1))
    assert len(st.sets) == 3
    st.rollback(cp)
    assert len(st.sets) == 2
    assert st.counters.rollback_ops == 1


def test_sub_union_scope_and_cover():
    ss = SetSystem(4, [[0, 1], [2], [1, 3], [3]])
    st = EngineState(ProblemKind.SUB_UNION, "full", ss)
    assert not st.query(UnionIsUniverse())
    st.update(AddToScope(0))
    st.update(AddToScope(1))
    assert not st.query(UnionIsUniverse())
    st.update(AddToScope(2))
    assert st.query(UnionIsUniverse())
    st.update(RemoveFromScope(2))
    assert not st.query(UnionIsUniverse())
    st.update(AddToScope(2))
    st.update(AddToScope(3))
    st.update(RemoveFromScope(2))
    # element 3 stays covered by set 3 and element 1 by set 0
    assert st.query(UnionIsUniverse())
    with pytest.raises(StateError):
        st.update(AddToScope(3))  # already scoped
    with pytest.raises(StateError):
        st.update(RemoveFromScope(2))  # no longer scoped


def test_sub_union_initial_scope_and_rollback():
    ss = SetSystem(3, [[0], [1], [2]])
    st = EngineState(ProblemKind.SUB_UNION, "dec", ss, scope=[0, 1, 2])
    assert st.query(UnionIsUniverse())
    cp = st.checkpoint()
    st.update(RemoveFromScope(1))
    assert not st.query(UnionIsUniverse())
    st.rollback(cp)
    assert st.query(UnionIsUniverse())
    assert st.scope == {0, 1, 2}


def test_sub_union_cover_matches_recompute():
    rng = random.Random(54)
    for _ in range(20):
        universe = rng.randint(1, 6)
        nsets = rng.randint(1, 6)
        ss = SetSystem(universe,
                       [[x for x in range(universe) if rng.random() < 0.4]
                        for _ in range(nsets)])
        st = EngineState(ProblemKind.SUB_UNION, "full", ss)
        scoped = set()
        for _ in range(12):
            if scoped and rng.random() < 0.4:
                i = rng.choice(sorted(scoped))
                st.update(RemoveFromScope(i))
                scoped.discard(i)
            else:
                free = [i for i in range(nsets) if i not in scoped]
                if not free:
                    continue
                i = rng.choice(free)
                st.update(AddToScope(i))
                scoped.add(i)
            union = (set().union(*(frozenset(ss.members(i)) for i in scoped))
                     if scoped else set())
            assert st.query(UnionIsUniverse()) == (union == set(range(universe)))


# ---------------------------------------------------------------------------
# staged reductions: run_stage and inverse


def _reach_handle():
    return DirectEngine(ProblemKind.ST_REACH, "full",
                        build(4, [(0, 1)], directed=True, s=0, t=3))


def _undo(ops, rollback):
    """run_stage's undo: None restores by rollback, else the inverse updates."""
    return None if rollback else [inverse(op) for op in ops]


@pytest.mark.parametrize("rollback", [False, True])
def test_run_stage_restores_state(rollback):
    eng = _reach_handle()
    base = eng.graph.digest()
    ops = [InsertEdge(1, 2), InsertEdge(2, 3)]
    hit = run_stage(eng, ops, StReachable(), undo=_undo(ops, rollback))
    assert hit is True
    assert eng.graph.digest() == base
    c = eng.counters
    if rollback:
        assert (c.updates, c.queries, c.rollback_ops) == (2, 1, 2)
    else:
        assert (c.updates, c.queries, c.rollback_ops) == (4, 1, 0)


@pytest.mark.parametrize("rollback", [False, True])
def test_run_stage_keep_hit(rollback):
    eng = _reach_handle()
    base = eng.graph.digest()
    # a miss is restored even with keep_hit
    assert run_stage(eng, [InsertEdge(1, 2)], StReachable(),
                     undo=_undo([InsertEdge(1, 2)], rollback), keep_hit=True) is False
    assert eng.graph.digest() == base
    # a hit stays installed
    assert run_stage(eng, [InsertEdge(1, 3)], StReachable(),
                     undo=_undo([InsertEdge(1, 3)], rollback), keep_hit=True) is True
    assert eng.graph.has_edge(1, 3)
    # interpret maps the answer; a false interpreted answer is restored
    assert run_stage(eng, [InsertEdge(1, 2)], StReachable(), lambda ok: not ok,
                     undo=_undo([InsertEdge(1, 2)], rollback), keep_hit=True) is False
    assert not eng.graph.has_edge(1, 2)


def test_inverse_round_trips_each_paired_op():
    g = build(4, [(0, 1)], s=0, t=3, active={1})
    subconn = DirectEngine(ProblemKind.ST_SUBCONN, "full", g)
    scoped = DirectEngine(ProblemKind.SUB_UNION, "full",
                          SetSystem(2, [[0], [1]]), scope={0})
    cases = [
        (subconn, InsertEdge(0, 1)),     # edge present: delete, then insert
        (subconn, DeleteEdge(1, 2)),     # edge absent: insert, then delete
        (subconn, ActivateNode(1)),
        (subconn, DeactivateNode(2)),
        (scoped, AddToScope(0)),
        (scoped, RemoveFromScope(1)),
    ]
    for eng, op in cases:
        base = _engine_digest(eng)
        eng.update(inverse(op))
        assert _engine_digest(eng) != base
        eng.update(op)
        assert _engine_digest(eng) == base
    assert inverse(DeleteEdge(0, 1)) == InsertEdge(0, 1)
    with pytest.raises(DomainError):
        inverse(IntersectSets(0, 1))
