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
    EngineState,
    Mode,
    ProblemKind,
    compute_kaug_free_matching,
    direct_factory,
    engine_checkpoint,
    engine_new,
    engine_query,
    engine_rollback,
    engine_update,
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
    st = engine_new(ProblemKind.ST_REACH, "full", g)
    assert st.counters.preprocess_units == 6
    assert st.counters.updates == 0 and st.counters.queries == 0


def test_engine_new_copies_instance():
    g = build(3, [(0, 1)], directed=True, s=0, t=2)
    st = engine_new(ProblemKind.ST_REACH, Mode.FULL, g)
    g.add_edge(1, 2)
    assert not engine_query(st, StReachable())


def test_state_node_cap_env_override(monkeypatch):
    g = build(4, [(0, 1)], directed=True, s=0, t=3)
    monkeypatch.setenv("REDUX_MAX_STATE_NODES", "3")
    with pytest.raises(GuardError):
        engine_new(ProblemKind.ST_REACH, "full", g)
    monkeypatch.setenv("REDUX_MAX_STATE_NODES", "4")
    engine_new(ProblemKind.ST_REACH, "full", g)


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
        engine_new(ProblemKind.ST_REACH, "full", g)


def test_engine_new_shape_checks():
    with pytest.raises(DomainError):
        engine_new(ProblemKind.ST_REACH, "full", build(3, [], s=0, t=1))  # undirected
    with pytest.raises(DomainError):
        engine_new(ProblemKind.ST_REACH, "full", build(3, [], directed=True))  # no s/t
    with pytest.raises(DomainError):
        engine_new(ProblemKind.ST_REACH, "full",
                   build(3, [], directed=True, s=1, t=1))  # s == t
    with pytest.raises(DomainError):
        engine_new(ProblemKind.DIAMETER, "full", build(3, [], directed=True))
    with pytest.raises(DomainError):
        engine_new(ProblemKind.BPMATCH, "full", build(3, [(0, 1), (1, 2), (0, 2)]))
    with pytest.raises(DomainError):
        engine_new(ProblemKind.ST_SUBCONN, "full", build(3, [], s=0, t=2))  # no active
    with pytest.raises(DomainError):
        engine_new(ProblemKind.PP, "full", build(2, []))  # graph for a set kind
    with pytest.raises(DomainError):
        engine_new(ProblemKind.ST_REACH, "sideways",
                   build(2, [], directed=True, s=0, t=1))


# ---------------------------------------------------------------------------
# mode legality


def test_mode_legality():
    g = build(3, [(0, 1), (1, 2)], directed=True, s=0, t=2)
    dec = engine_new(ProblemKind.ST_REACH, "dec", g)
    with pytest.raises(ModeError):
        engine_update(dec, InsertEdge(0, 2))
    assert dec.counters.updates == 0
    engine_update(dec, DeleteEdge(0, 1))
    assert dec.counters.updates == 1

    inc = engine_new(ProblemKind.ST_REACH, "inc", g)
    with pytest.raises(ModeError):
        engine_update(inc, DeleteEdge(0, 1))
    engine_update(inc, InsertEdge(0, 2))

    full = engine_new(ProblemKind.ST_REACH, "full", g)
    engine_update(full, DeleteEdge(0, 1))
    engine_update(full, InsertEdge(0, 1))
    assert full.counters.updates == 2


def test_node_op_legality_by_mode():
    g = build(3, [(0, 1), (1, 2)], s=0, t=2, active={1})
    dec = engine_new(ProblemKind.ST_SUBCONN, "dec", g)
    with pytest.raises(ModeError):
        engine_update(dec, ActivateNode(1))
    engine_update(dec, DeactivateNode(1))
    inc = engine_new(ProblemKind.ST_SUBCONN, "inc", g)
    with pytest.raises(ModeError):
        engine_update(inc, DeactivateNode(1))


def test_update_validity_errors():
    g = build(3, [(0, 1)], directed=True, s=0, t=2)
    st = engine_new(ProblemKind.ST_REACH, "full", g)
    with pytest.raises(StateError):
        engine_update(st, InsertEdge(0, 1))  # duplicate
    with pytest.raises(StateError):
        engine_update(st, DeleteEdge(1, 2))  # absent
    with pytest.raises(DomainError):
        engine_update(st, InsertEdge(0, 5))  # out of range
    with pytest.raises(DomainError):
        engine_update(st, ActivateNode(1))  # wrong op family
    assert st.counters.updates == 0


def test_query_type_mismatch():
    g = build(3, [(0, 1)], directed=True, s=0, t=2)
    st = engine_new(ProblemKind.ST_REACH, "full", g)
    with pytest.raises(DomainError):
        engine_query(st, StronglyConnected())
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
    st = engine_new(kind, "full", make())
    before = st.counters.as_dict()
    with pytest.raises(error):
        engine_query(st, query)
    assert st.counters.as_dict() == before


# ---------------------------------------------------------------------------
# checkpoint / rollback


def test_rollback_restores_state_and_counts():
    g = build(4, [(0, 1), (1, 2), (2, 3)], directed=True, s=0, t=3)
    st = engine_new(ProblemKind.ST_REACH, "dec", g)
    before = st.graph.digest()
    cp = engine_checkpoint(st)
    engine_update(st, DeleteEdge(1, 2))
    engine_update(st, DeleteEdge(2, 3))
    assert not engine_query(st, StReachable())
    engine_rollback(st, cp)
    assert st.graph.digest() == before
    assert engine_query(st, StReachable())
    assert st.counters.rollback_ops == 2
    assert st.counters.updates == 2  # rollback does not rewind accounting


def test_rollback_consumes_checkpoint():
    g = build(3, [(0, 1), (1, 2)], directed=True, s=0, t=2)
    st = engine_new(ProblemKind.ST_REACH, "full", g)
    cp = engine_checkpoint(st)
    engine_update(st, DeleteEdge(0, 1))
    engine_rollback(st, cp)
    with pytest.raises(StateError):
        engine_rollback(st, cp)


def test_rollback_lifo_nesting():
    g = build(5, [(0, 1), (1, 2), (2, 3), (3, 4)], directed=True, s=0, t=4)
    st = engine_new(ProblemKind.ST_REACH, "dec", g)
    outer = engine_checkpoint(st)
    engine_update(st, DeleteEdge(0, 1))
    inner = engine_checkpoint(st)
    engine_update(st, DeleteEdge(1, 2))
    engine_rollback(st, inner)
    assert st.graph.has_edge(1, 2) and not st.graph.has_edge(0, 1)
    engine_rollback(st, outer)
    assert st.graph.has_edge(0, 1)
    # rolling back outer consumed the (already consumed) inner as well
    with pytest.raises(StateError):
        engine_rollback(st, inner)


def test_rollback_to_outer_consumes_inner():
    g = build(4, [(0, 1), (1, 2), (2, 3)], directed=True, s=0, t=3)
    st = engine_new(ProblemKind.ST_REACH, "dec", g)
    outer = engine_checkpoint(st)
    engine_update(st, DeleteEdge(0, 1))
    inner = engine_checkpoint(st)
    engine_update(st, DeleteEdge(1, 2))
    engine_rollback(st, outer)  # jumps over inner
    with pytest.raises(StateError):
        engine_rollback(st, inner)
    assert st.counters.rollback_ops == 2


def test_rollback_keeps_earlier_checkpoint_at_equal_depth():
    g = build(3, [(0, 1), (1, 2)], directed=True, s=0, t=2)
    st = engine_new(ProblemKind.ST_REACH, "dec", g)
    before = st.graph.digest()
    a = engine_checkpoint(st)
    b = engine_checkpoint(st)  # same depth as a, taken after it
    engine_update(st, DeleteEdge(0, 1))
    engine_rollback(st, b)
    with pytest.raises(StateError):
        engine_rollback(st, b)
    engine_update(st, DeleteEdge(1, 2))
    engine_rollback(st, a)
    assert st.graph.digest() == before
    assert st.counters.rollback_ops == 2
    with pytest.raises(StateError):
        engine_rollback(st, a)


def test_foreign_checkpoint_rejected():
    g = build(4, [(0, 1), (2, 3)], directed=True, s=0, t=3)
    a = direct_factory(ProblemKind.ST_REACH, "full", g)
    b = direct_factory(ProblemKind.ST_REACH, "full", g)
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
    st = engine_new(ProblemKind.ST_REACH, "dec", g)
    cp = engine_checkpoint(st)
    engine_update(st, DeleteEdge(0, 1))
    engine_rollback(st, cp)
    assert st.graph.has_edge(0, 1)


def test_rollback_weighted_edge_restores_weight():
    g = Graph(2, directed=True, weighted=True, max_weight=9, s=0, t=1)
    g.add_edge(0, 1, 7)
    st = engine_new(ProblemKind.ST_SP, "dec", g)
    cp = engine_checkpoint(st)
    engine_update(st, DeleteEdge(0, 1))
    engine_rollback(st, cp)
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
        st = engine_new(ProblemKind.ST_REACH, "full", g)
        mirror = g.copy()
        for _ in range(12):
            if rng.random() < 0.5 and mirror.edge_count:
                u, v = rng.choice(mirror.edges())
                engine_update(st, DeleteEdge(u, v))
                mirror.remove_edge(u, v)
            else:
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v and not mirror.has_edge(u, v):
                    engine_update(st, InsertEdge(u, v))
                    mirror.add_edge(u, v)
            assert engine_query(st, StReachable()) == oracles.st_reachable(mirror)


def test_reach_count_threshold():
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(2, 8)
        g = random_digraph(rng, n, 0.3, s=0)
        st = engine_new(ProblemKind.REACH_COUNT, "full", g)
        for limit in range(n + 2):
            assert (engine_query(st, ReachCountLessThan(limit))
                    == (oracles.reach_count(g, 0) < limit))


def test_scc_kinds_against_oracle():
    rng = random.Random(44)
    for _ in range(25):
        n = rng.randint(1, 8)
        g = random_digraph(rng, n, 0.25)
        assert (engine_query(engine_new(ProblemKind.SC, "full", g), StronglyConnected())
                == oracles.strongly_connected(g))
        assert (engine_query(engine_new(ProblemKind.SC2, "full", g), MoreThanTwoSccs())
                == (oracles.scc_count(g) > 2))
        assert (engine_query(engine_new(ProblemKind.SCC_2_VS_K, "full", g), SccCount2VsK(3))
                == (oracles.scc_count(g) > 3))
        assert (engine_query(engine_new(ProblemKind.MAX_SCC, "full", g), MaxSccSize())
                == oracles.max_scc_size(g))


def test_st_set_reach_against_oracle():
    rng = random.Random(45)
    for _ in range(20):
        n = rng.randint(2, 7)
        ss = frozenset(rng.sample(range(n), rng.randint(1, n)))
        ts = frozenset(rng.sample(range(n), rng.randint(1, n)))
        g = random_digraph(rng, n, 0.3, s_set=ss, t_set=ts)
        st = engine_new(ProblemKind.ST_SET_REACH, "full", g)
        assert engine_query(st, AllStReachable()) == oracles.all_st_reachable(g)


def test_diameter_against_oracle():
    rng = random.Random(46)
    for _ in range(25):
        n = rng.randint(1, 8)
        g = random_undirected(rng, n, 0.4)
        st = engine_new(ProblemKind.DIAMETER, "full", g)
        assert engine_query(st, Diameter()) == oracles.diameter(g)


def test_subconn_against_oracle():
    rng = random.Random(47)
    for _ in range(25):
        n = rng.randint(3, 8)
        active = {v for v in range(1, n - 1) if rng.random() < 0.6}
        g = random_undirected(rng, n, 0.35, s=0, t=n - 1, active=active)
        st = engine_new(ProblemKind.ST_SUBCONN, "full", g)
        assert engine_query(st, StConnected()) == oracles.st_connected(g)
        # toggle a node and recheck
        v = rng.randrange(1, n - 1)
        if v in g.active:
            engine_update(st, DeactivateNode(v))
            g.active.discard(v)
        else:
            engine_update(st, ActivateNode(v))
            g.active.add(v)
        assert engine_query(st, StConnected()) == oracles.st_connected(g)


def test_conn_sub_against_oracle():
    rng = random.Random(48)
    for _ in range(25):
        n = rng.randint(1, 8)
        active = {v for v in range(n) if rng.random() < 0.6}
        g = random_undirected(rng, n, 0.35, active=active)
        st = engine_new(ProblemKind.CONN_SUB, "full", g)
        assert engine_query(st, InducedConnected()) == oracles.induced_connected(g)


def test_bpmatch_against_oracle():
    rng = random.Random(49)
    for _ in range(30):
        nl, nr = rng.randint(1, 5), rng.randint(1, 5)
        g = Graph(nl + nr)
        for u in range(nl):
            for v in range(nl, nl + nr):
                if rng.random() < 0.5:
                    g.add_edge(u, v)
        st = engine_new(ProblemKind.BPMATCH, "full", g)
        assert (engine_query(st, HasPerfectMatching())
                == oracles.oracle_matching(g).has_perfect)


def test_bpmatch_rejects_odd_cycle_at_query():
    g = build(4, [(0, 1), (1, 2)], directed=False)
    st = engine_new(ProblemKind.BPMATCH, "inc", g)
    engine_update(st, InsertEdge(0, 2))
    with pytest.raises(DomainError):
        engine_query(st, HasPerfectMatching())


def test_bwmatch_against_oracle():
    rng = random.Random(50)
    for _ in range(30):
        side = rng.randint(1, 4)
        g = Graph(2 * side, weighted=True, max_weight=9)
        for u in range(side):
            for v in range(side, 2 * side):
                if rng.random() < 0.7:
                    g.add_edge(u, v, rng.randint(1, 9))
        st = engine_new(ProblemKind.BWMATCH, "full", g)
        assert (engine_query(st, MaxWeightPmWeight())
                == oracles.max_weight_pm_weight(g))


def test_bwmatch_frozen_biclique():
    g = Graph(4, weighted=True, max_weight=4)
    g.add_edge(0, 2, 1)
    g.add_edge(0, 3, 3)
    g.add_edge(1, 2, 4)
    g.add_edge(1, 3, 2)
    st = engine_new(ProblemKind.BWMATCH, "full", g)
    assert engine_query(st, MaxWeightPmWeight()) == 7


def test_st_sp_against_oracle():
    rng = random.Random(51)
    for _ in range(25):
        n = rng.randint(2, 8)
        g = Graph(n, directed=True, weighted=True, max_weight=9, s=0, t=n - 1)
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.3:
                    g.add_edge(u, v, rng.randint(1, 9))
        st = engine_new(ProblemKind.ST_SP, "full", g)
        assert engine_query(st, StDistance()) == oracles.st_distance(g)


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
            st = engine_new(ProblemKind.KBPM, "full", g)
            size = engine_query(st, KAugFreeMatchingSize(k))
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
    st = engine_new(ProblemKind.KBPM, "full", g)
    with pytest.raises(DomainError):
        engine_query(st, KAugFreeMatchingSize(2))


def _kbpm_history_graph() -> Graph:
    return random_bipartite(random.Random(200), 100, 100, 0.02)


def test_kbpm_answer_same_on_an_engine_copy():
    g = _kbpm_history_graph()
    copy = engine_new(ProblemKind.KBPM, "full", g).graph
    assert copy.digest() == g.digest()
    assert (len(compute_kaug_free_matching(copy, 1))
            == len(compute_kaug_free_matching(g, 1)))


def test_kbpm_answer_same_after_rollback():
    st = engine_new(ProblemKind.KBPM, "full", _kbpm_history_graph())
    digest, before = st.graph.digest(), engine_query(st, KAugFreeMatchingSize(1))
    cp = engine_checkpoint(st)
    for u, v in list(st.graph.edges()):
        engine_update(st, DeleteEdge(u, v))
    engine_rollback(st, cp)
    assert st.graph.digest() == digest
    assert engine_query(st, KAugFreeMatchingSize(1)) == before


def test_kbpm_answers_survive_partial_delete_and_rollback():
    # 200 engines, 40 edges deleted and rolled back on each: the restored
    # edge set must give the answer it gave before
    moved = 0
    for seed in range(200):
        rng = random.Random(seed)
        st = engine_new(ProblemKind.KBPM, "full", random_bipartite(rng, 60, 60, 0.03))
        before = engine_query(st, KAugFreeMatchingSize(1))
        cp = engine_checkpoint(st)
        for u, v in rng.sample(st.graph.edges(), 40):
            engine_update(st, DeleteEdge(u, v))
        engine_rollback(st, cp)
        moved += engine_query(st, KAugFreeMatchingSize(1)) != before
    assert moved == 0


# ---------------------------------------------------------------------------
# set-system engines


def test_pp_member_and_intersect():
    ss = SetSystem(5, [[0, 1, 2], [1, 2, 3]])
    st = engine_new(ProblemKind.PP, "full", ss)
    assert st.counters.preprocess_units == 5 + 6
    new_id = engine_update(st, IntersectSets(0, 1))
    assert new_id == 2
    assert engine_query(st, Member(2, 1))
    assert not engine_query(st, Member(2, 0))
    fresh = engine_update(st, InsertSet(frozenset({4})))
    assert fresh == 3
    assert engine_query(st, Member(3, 4))
    with pytest.raises(DomainError):
        engine_query(st, Member(0, 9))


def test_empty_pp():
    ss = SetSystem(3, [[0], [1]])
    st = engine_new(ProblemKind.EMPTY_PP, "full", ss)
    i = engine_update(st, IntersectSets(0, 1))
    assert engine_query(st, IsEmpty(i))
    assert not engine_query(st, IsEmpty(0))


def test_set_ops_are_insert_type():
    ss = SetSystem(3, [[0], [1]])
    st = engine_new(ProblemKind.EMPTY_PP, "dec", ss)
    with pytest.raises(ModeError):
        engine_update(st, IntersectSets(0, 1))


def test_set_rollback_pops():
    ss = SetSystem(3, [[0, 1], [1, 2]])
    st = engine_new(ProblemKind.PP, "full", ss)
    cp = engine_checkpoint(st)
    engine_update(st, IntersectSets(0, 1))
    assert len(st.sets) == 3
    engine_rollback(st, cp)
    assert len(st.sets) == 2
    assert st.counters.rollback_ops == 1


def test_sub_union_scope_and_cover():
    ss = SetSystem(4, [[0, 1], [2], [1, 3], [3]])
    st = engine_new(ProblemKind.SUB_UNION, "full", ss)
    assert not engine_query(st, UnionIsUniverse())
    engine_update(st, AddToScope(0))
    engine_update(st, AddToScope(1))
    assert not engine_query(st, UnionIsUniverse())
    engine_update(st, AddToScope(2))
    assert engine_query(st, UnionIsUniverse())
    engine_update(st, RemoveFromScope(2))
    assert not engine_query(st, UnionIsUniverse())
    engine_update(st, AddToScope(2))
    engine_update(st, AddToScope(3))
    engine_update(st, RemoveFromScope(2))
    # element 3 stays covered by set 3 and element 1 by set 0
    assert engine_query(st, UnionIsUniverse())
    with pytest.raises(StateError):
        engine_update(st, AddToScope(3))  # already scoped
    with pytest.raises(StateError):
        engine_update(st, RemoveFromScope(2))  # no longer scoped


def test_sub_union_initial_scope_and_rollback():
    ss = SetSystem(3, [[0], [1], [2]])
    st = engine_new(ProblemKind.SUB_UNION, "dec", ss, scope=[0, 1, 2])
    assert engine_query(st, UnionIsUniverse())
    cp = engine_checkpoint(st)
    engine_update(st, RemoveFromScope(1))
    assert not engine_query(st, UnionIsUniverse())
    engine_rollback(st, cp)
    assert engine_query(st, UnionIsUniverse())
    assert st.scope == {0, 1, 2}


def test_sub_union_cover_matches_recompute():
    rng = random.Random(54)
    for _ in range(20):
        universe = rng.randint(1, 6)
        nsets = rng.randint(1, 6)
        ss = SetSystem(universe,
                       [[x for x in range(universe) if rng.random() < 0.4]
                        for _ in range(nsets)])
        st = engine_new(ProblemKind.SUB_UNION, "full", ss)
        scoped = set()
        for _ in range(12):
            if scoped and rng.random() < 0.4:
                i = rng.choice(sorted(scoped))
                engine_update(st, RemoveFromScope(i))
                scoped.discard(i)
            else:
                free = [i for i in range(nsets) if i not in scoped]
                if not free:
                    continue
                i = rng.choice(free)
                engine_update(st, AddToScope(i))
                scoped.add(i)
            union = set().union(*(ss.get(i) for i in scoped)) if scoped else set()
            assert engine_query(st, UnionIsUniverse()) == (union == set(range(universe)))


# ---------------------------------------------------------------------------
# staged reductions: run_stage and inverse


def _reach_handle():
    return direct_factory(ProblemKind.ST_REACH, "full",
                          build(4, [(0, 1)], directed=True, s=0, t=3))


def _undo(ops, rollback):
    """run_stage's undo: None restores by rollback, else the inverse updates."""
    return None if rollback else [inverse(op) for op in ops]


@pytest.mark.parametrize("rollback", [False, True])
def test_run_stage_restores_state(rollback):
    eng = _reach_handle()
    base = eng.state.graph.digest()
    ops = [InsertEdge(1, 2), InsertEdge(2, 3)]
    hit = run_stage(eng, ops, StReachable(), undo=_undo(ops, rollback))
    assert hit is True
    assert eng.state.graph.digest() == base
    c = eng.counters
    if rollback:
        assert (c.updates, c.queries, c.rollback_ops) == (2, 1, 2)
    else:
        assert (c.updates, c.queries, c.rollback_ops) == (4, 1, 0)


@pytest.mark.parametrize("rollback", [False, True])
def test_run_stage_keep_hit(rollback):
    eng = _reach_handle()
    base = eng.state.graph.digest()
    # a miss is restored even with keep_hit
    assert run_stage(eng, [InsertEdge(1, 2)], StReachable(),
                     undo=_undo([InsertEdge(1, 2)], rollback), keep_hit=True) is False
    assert eng.state.graph.digest() == base
    # a hit stays installed
    assert run_stage(eng, [InsertEdge(1, 3)], StReachable(),
                     undo=_undo([InsertEdge(1, 3)], rollback), keep_hit=True) is True
    assert eng.state.graph.has_edge(1, 3)
    # interpret maps the answer; a false interpreted answer is restored
    assert run_stage(eng, [InsertEdge(1, 2)], StReachable(), lambda ok: not ok,
                     undo=_undo([InsertEdge(1, 2)], rollback), keep_hit=True) is False
    assert not eng.state.graph.has_edge(1, 2)


def test_inverse_round_trips_each_paired_op():
    g = build(4, [(0, 1)], s=0, t=3, active={1})
    subconn = direct_factory(ProblemKind.ST_SUBCONN, "full", g)
    scoped = direct_factory(ProblemKind.SUB_UNION, "full",
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
