"""Tests for the triangle-detection reductions against the brute-force oracles."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynred.engines import DirectEngine, Mode, ProblemKind
from dynred.generators import random_bipartite, random_graph
from dynred.model import (
    DeactivateNode,
    DeleteEdge,
    DomainError,
    Graph,
    InsertEdge,
    KAugFreeMatchingSize,
)
from dynred.oracles import oracle_all_triangles, oracle_triangle
from dynred.triangle_reductions import (
    TriangleWitness,
    build_17bpm_gadget,
    build_5bpm_gadget,
    build_streach_gadget,
    build_streach_trees,
    build_subconn_gadget,
    split_by_degree,
    triangle_via_17bpm,
    triangle_via_5bpm,
    triangle_via_empty_pp,
    triangle_via_pp,
    triangle_via_streach,
    triangle_via_streach_decremental,
    triangle_via_subconn,
)


def k3():
    g = Graph(3)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(0, 2)
    return g


def path3():
    g = Graph(3)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    return g


def star(k):
    g = Graph(k + 1)
    for v in range(1, k + 1):
        g.add_edge(0, v)
    return g


def _corpus():
    graphs = [Graph(0), Graph(1), Graph(4), k3(), path3(), star(3), star(5)]
    cycle6 = Graph(6)
    for v in range(6):
        cycle6.add_edge(v, (v + 1) % 6)
    graphs.append(cycle6)
    for seed in range(18):
        rng = random.Random(seed)
        graphs.append(random_graph(rng, rng.randint(2, 10), rng.choice([0.15, 0.3, 0.6])))
    return graphs


CORPUS = _corpus()

ANCHOR_ROUTINES = [
    (triangle_via_streach, ["full", "inc"]),
    (triangle_via_subconn, ["full", "inc", "dec"]),
    (triangle_via_5bpm, ["full", "inc", "dec"]),
    (triangle_via_17bpm, ["full", "inc", "dec"]),
]


def _min_triangle_vertex(g):
    tris = oracle_all_triangles(g)
    if not tris:
        return None
    return min(min(t) for t in tris)


# ---------------------------------------------------------------------------
# witness and gadget shapes


def test_witness_verify():
    g = k3()
    assert TriangleWitness(u=0, v=1, w=2).verify(g)
    assert not TriangleWitness(u=0, v=1, w=1).verify(g)
    assert TriangleWitness(anchor=1).verify(g)
    assert not TriangleWitness(anchor=1).verify(path3())
    assert not TriangleWitness().verify(g)


def test_streach_gadget_shape():
    h = build_streach_gadget(k3())
    assert h.node_count == 14 and h.directed
    assert len(h.edges()) == 18  # three layer hops, both labelings, three edges
    assert (h.s, h.t) == (12, 13)
    assert not h.out_neighbors(h.s)


def test_streach_tree_shape():
    h, lay = build_streach_trees(k3())
    assert lay.leaf_count == 4
    assert h.node_count == 20  # 14 core + 2 internal + 1 dummy per tree
    assert len(h.edges()) == 18 + 12  # core arcs plus 2*(2L-2) tree arcs
    assert lay.s_nodes[1] == h.s and lay.t_nodes[1] == h.t
    assert lay.s_nodes[4:7] == (0, 1, 2)  # real leaves in vertex order
    assert lay.t_nodes[4:7] == (9, 10, 11)


def test_subconn_gadget_shape():
    h = build_subconn_gadget(star(3), start_active=False)
    assert h.node_count == 10 and not h.active
    assert len(h.edges()) == 3 + 8
    assert build_subconn_gadget(star(3), start_active=True).active == set(range(8))


def test_matching_gadget_shapes():
    g = k3()
    assert len(build_5bpm_gadget(g).edges()) == 2 * 3 + 2 * 3
    assert len(build_5bpm_gadget(g, pair_edges=False).edges()) == 2 * 3
    assert len(build_17bpm_gadget(g).edges()) == 6 * 3 + 4 * 3
    assert len(build_17bpm_gadget(g, anchor_pairs=False).edges()) == 6 * 3 + 2 * 3


# ---------------------------------------------------------------------------
# worked examples


def test_k3_detected_everywhere():
    g = k3()
    assert triangle_via_streach(g)[0] == 0
    assert triangle_via_streach_decremental(g)[0] == 0
    assert triangle_via_subconn(g)[0] == 0
    assert triangle_via_5bpm(g)[0] == 0
    assert triangle_via_17bpm(g)[0] == 0
    assert triangle_via_empty_pp(g)[0] is True
    assert triangle_via_pp(g)[0] is True


def test_path_misses_with_exact_counters():
    g = path3()
    anchor, c = triangle_via_streach(g)
    assert anchor is None and c.queries == 3 and c.updates == 12
    anchor, c = triangle_via_17bpm(g)
    assert anchor is None and c.queries == 3 and c.updates == 12
    anchor, c = triangle_via_subconn(g)
    assert anchor is None and c.queries == 3 and c.updates == 16
    found, c = triangle_via_empty_pp(g)
    assert found is False and c.updates == 2 and c.queries == 2


def test_single_vertex_single_query():
    anchor, c = triangle_via_streach(Graph(1))
    assert anchor is None and c.queries == 1


def test_star_subconn_all_stages_miss():
    anchor, c = triangle_via_subconn(star(3))
    assert anchor is None and c.queries == 4


def test_streach_rejects_decremental_mode():
    with pytest.raises(DomainError):
        triangle_via_streach(k3(), mode="dec")


def test_directed_input_rejected():
    g = Graph(3, directed=True)
    with pytest.raises(DomainError):
        triangle_via_streach(g)
    with pytest.raises(DomainError):
        triangle_via_empty_pp(g)


# ---------------------------------------------------------------------------
# oracle equivalence


@pytest.mark.parametrize("fn,modes", ANCHOR_ROUTINES,
                         ids=lambda x: x.__name__ if callable(x) else "")
def test_anchor_routines_match_oracle(fn, modes):
    for g in CORPUS:
        expected = _min_triangle_vertex(g)
        for mode in modes:
            anchor, _ = fn(g, mode=mode)
            assert anchor == expected, (g.to_text(), mode)
            if anchor is not None:
                assert TriangleWitness(anchor=anchor).verify(g)


def test_decremental_streach_matches_oracle():
    for g in CORPUS:
        anchor, _ = triangle_via_streach_decremental(g)
        assert anchor == _min_triangle_vertex(g), g.to_text()


def test_empty_pp_matches_oracle():
    for g in CORPUS:
        found, _ = triangle_via_empty_pp(g)
        assert found == (oracle_triangle(g) is not None), g.to_text()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 28 - 1), st.integers(2, 7))
def test_subconn_matches_oracle_hypothesis(bits, n):
    g = Graph(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for i, (u, v) in enumerate(pairs):
        if bits >> i & 1:
            g.add_edge(u, v)
    assert triangle_via_subconn(g)[0] == _min_triangle_vertex(g)


# ---------------------------------------------------------------------------
# counters and schedules


def _triangle_free_corpus():
    graphs = [g for g in CORPUS if oracle_triangle(g) is None]
    for seed in range(6):
        rng = random.Random(100 + seed)
        graphs.append(random_bipartite(rng, rng.randint(1, 5), rng.randint(1, 5), 0.5))
    return graphs


def test_exact_counters_on_misses():
    for g in _triangle_free_corpus():
        n, m = g.node_count, len(g.edges())
        _, c = triangle_via_streach(g)
        assert (c.queries, c.updates, c.rollback_ops) == (n, 4 * n, 0)
        _, c = triangle_via_streach(g, mode="inc")
        assert (c.queries, c.updates, c.rollback_ops) == (n, 2 * n, 2 * n)
        _, c = triangle_via_17bpm(g)
        assert (c.queries, c.updates) == (n, 4 * n)
        _, c = triangle_via_subconn(g)
        assert (c.queries, c.updates) == (n, 8 * m)
        _, c = triangle_via_5bpm(g)
        assert (c.queries, c.updates) == (n, 8 * m)
        _, c = triangle_via_empty_pp(g)
        assert (c.queries, c.updates) == (m, m)


class _DeletionLog:
    """Factory wrapper recording every DeleteEdge passed to the engine."""

    def __init__(self):
        self.deleted = []

    def __call__(self, kind, mode, instance, *, scope=None):
        log = self.deleted
        inner = DirectEngine(kind, mode, instance, scope=scope)

        class Handle:
            kind = inner.kind
            mode = inner.mode

            @property
            def counters(self):
                return inner.counters

            def update(self, op):
                if isinstance(op, DeleteEdge):
                    log.append((op.u, op.v))
                return inner.update(op)

            def query(self, q):
                return inner.query(q)

            def checkpoint(self):
                return inner.checkpoint()

            def rollback(self, cp):
                inner.rollback(cp)

        return Handle()


def test_decremental_tree_schedule_accounting():
    for g in _triangle_free_corpus():
        n = g.node_count
        leaves = 1
        while leaves < n:
            leaves *= 2
        log = _DeletionLog()
        anchor, c = triangle_via_streach_decremental(g, factory=log)
        assert anchor is None
        assert c.queries == n
        # every tree edge deleted at most once, and restored exactly as often
        assert len(set(log.deleted)) == len(log.deleted)
        tree_budget = 4 * (2 * leaves - 2)
        assert c.updates + c.rollback_ops <= tree_budget
        if n == leaves:
            assert c.updates + c.rollback_ops == tree_budget
        assert c.updates == c.rollback_ops


def test_decremental_tree_deletes_only_tree_arcs():
    g = k3()
    h, lay = build_streach_trees(g)
    tree_arcs = set()
    for hh in range(1, lay.leaf_count):
        for child in (2 * hh, 2 * hh + 1):
            tree_arcs.add((lay.s_nodes[hh], lay.s_nodes[child]))
            tree_arcs.add((lay.t_nodes[child], lay.t_nodes[hh]))
    log = _DeletionLog()
    triangle_via_streach_decremental(path3(), factory=log)
    assert set(log.deleted) <= tree_arcs


def test_17bpm_threshold_law_direct_drive():
    rng = random.Random(7)
    graphs = [k3(), path3(), star(4)] + [random_graph(rng, 8, p) for p in (0.2, 0.4)]
    for g in graphs:
        n = g.node_count
        h = build_17bpm_gadget(g)
        eng = DirectEngine(ProblemKind.KBPM, Mode.FULL, h)
        in_triangle = {v for t in oracle_all_triangles(g) for v in t}
        for x in range(n):
            eng.update(DeleteEdge(x, n + x))
            eng.update(DeleteEdge(6 * n + x, 7 * n + x))
            size = eng.query(KAugFreeMatchingSize(17))
            eng.update(InsertEdge(x, n + x))
            eng.update(InsertEdge(6 * n + x, 7 * n + x))
            if x in in_triangle:
                assert size == 4 * n - 1, (g.to_text(), x)
            else:
                assert size <= 4 * n - 2, (g.to_text(), x)


# ---------------------------------------------------------------------------
# randomized membership route


def test_pp_no_false_negatives():
    for g in CORPUS:
        if oracle_triangle(g) is None:
            continue
        for seed in range(3):
            found, _ = triangle_via_pp(g, seed=seed)
            assert found is True, (g.to_text(), seed)


def test_pp_high_degree_apex_deterministic():
    g = star(8)
    g.add_edge(1, 2)  # triangle through the high-degree hub
    for seed in range(5):
        assert triangle_via_pp(g, seed=seed)[0] is True


def test_pp_false_positive_rate():
    rng = random.Random(42)
    g = random_bipartite(rng, 6, 6, 0.5)
    assert oracle_triangle(g) is None
    false_hits = sum(triangle_via_pp(g, seed=s)[0] for s in range(100))
    assert false_hits <= 1


# ---------------------------------------------------------------------------
# degree splitting


def test_split_low_degree_wedge():
    g = k3()  # degrees 2 <= threshold
    w = split_by_degree(g, 2, lambda sub: pytest.fail("dense side not needed"))
    assert w == TriangleWitness(u=0, v=1, w=2)


def test_split_dense_side():
    # triangle among three hubs, spokes push their degree above the threshold
    g = Graph(9)
    hubs = [0, 1, 2]
    for i, h in enumerate(hubs):
        g.add_edge(h, hubs[(i + 1) % 3])
        for spoke in (3 + 2 * i, 4 + 2 * i):
            g.add_edge(h, spoke)
    w = split_by_degree(g, 3, lambda sub: triangle_via_streach(sub)[0])
    assert w is not None and w.anchor in hubs and w.verify(g)


def test_split_none_on_triangle_free():
    assert split_by_degree(path3(), 1, lambda sub: triangle_via_streach(sub)[0]) is None
    assert split_by_degree(star(4), 0, lambda sub: triangle_via_streach(sub)[0]) is None


def test_split_matches_oracle():
    for g in CORPUS:
        w = split_by_degree(g, 2, lambda sub: triangle_via_streach(sub)[0])
        assert (w is not None) == (oracle_triangle(g) is not None), g.to_text()
        if w is not None:
            assert w.verify(g)


@pytest.mark.parametrize("n", [8, 40, 120])
def test_decremental_subconn_builds_each_deactivation_once(monkeypatch, n):
    """A full scan runs n stages of up to 2n deactivations each; every
    vertex's two DeactivateNode ops are built once and shared by them."""
    built = []
    init = DeactivateNode.__init__

    def counted(self, *args, **kw):
        built.append(args)
        init(self, *args, **kw)

    monkeypatch.setattr(DeactivateNode, "__init__", counted)
    g = random_bipartite(random.Random(n), n // 2, n - n // 2, 0.2)
    anchor, counters = triangle_via_subconn(g, mode="dec")
    assert anchor is None and counters.queries == n
    assert counters.updates > 2 * n
    assert len(built) <= 2 * n
