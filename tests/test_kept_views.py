"""The neighbour rows and the bipartition a graph keeps for matching queries.

`Graph.ascending_rows()` and `Graph.bipartition()` are built on first use
and then follow every edge update, rollback and stage restore. After any
sequence of those, the rows must equal the sorted adjacency sets and the
sides must be what the handwritten `oracles.bipartition` gives (BFS parity,
least id of each component on the left), or both must raise DomainError.
The views catch up lazily, so each sequence is checked both after every op
and after batches of ops.
"""

import random
from collections import Counter

import pytest

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
from dynred.model import (
    DeleteEdge,
    DomainError,
    Graph,
    HasPerfectMatching,
    InsertEdge,
    KAugFreeMatchingSize,
    MaxWeightPmWeight,
    _Sides,
)


def _check_views(g: Graph, rows: bool = True) -> None:
    """With rows false, reads the sides alone, as a BWMATCH engine does."""
    if rows:
        adj, _ = g.adjacency()
        assert g.ascending_rows() == [sorted(a) for a in adj]
    try:
        left, right = oracles.bipartition(g)
    except DomainError:
        with pytest.raises(DomainError):
            g.bipartition()
        return
    assert g.bipartition() == (sorted(left), sorted(right))


def _checker(rng, batched: bool, rows: bool = True):
    """_check_views after every op, or after a random share of them."""
    def check(g):
        if not batched or rng.random() < 0.3:
            _check_views(g, rows)
    return check


def _coloured(rng, n):
    """A hidden two-colouring of ids 0..n-1, so most edges keep the graph
    bipartite, with the ids of each colour scattered."""
    ids = list(range(n))
    rng.shuffle(ids)
    return ids[: n // 2], ids[n // 2:]


def _random_edge(rng, g, reds, blues, odd_share):
    """A missing edge: across the colours, or inside one with odd_share.
    Callers keep at most 3n/2 edges, so a missing one exists."""
    while True:
        if rng.random() < odd_share:
            u, v = rng.sample(rng.choice((reds, blues)), 2)
        else:
            u, v = rng.choice(reds), rng.choice(blues)
        if not g.has_edge(u, v):
            return u, v


@pytest.mark.parametrize("rows", [True, False], ids=["rows-and-sides", "sides"])
@pytest.mark.parametrize("batched", [False, True], ids=["each-op", "batched"])
@pytest.mark.parametrize("seed", range(6))
def test_plain_graph_views_follow_every_edit(seed, batched, rows):
    rng = random.Random(f"plain/{seed}")
    n = rng.randint(8, 30)
    reds, blues = _coloured(rng, n)
    check = _checker(rng, batched, rows)
    g = Graph(n)
    for _ in range(rng.randint(0, n)):
        g.add_edge(*_random_edge(rng, g, reds, blues, 0.0))
    _check_views(g, rows)
    for _ in range(300):
        edges = g.edges()
        if edges and (rng.random() < 0.45 or len(edges) >= 3 * n // 2):
            u, v = rng.choice(edges)
            if rng.random() < 0.5:
                g.remove_edge(u, v)
            else:
                g._unlink(u, v)  # what rollback does
        else:
            u, v = _random_edge(rng, g, reds, blues, 0.05)
            if rng.random() < 0.5:
                g.add_edge(u, v)
            else:
                g._link(u, v, None)
        check(g)
    _check_views(g, rows)
    assert (g._rows is not None) == rows


_KINDS = {
    ProblemKind.KBPM: lambda rng: KAugFreeMatchingSize(rng.choice((1, 3, 5, 17))),
    ProblemKind.BPMATCH: lambda rng: HasPerfectMatching(),
    ProblemKind.BWMATCH: lambda rng: MaxWeightPmWeight(),
}


@pytest.mark.parametrize("batched", [False, True], ids=["each-op", "batched"])
@pytest.mark.parametrize("kind", list(_KINDS), ids=lambda k: k.value)
@pytest.mark.parametrize("seed", range(4))
def test_engine_views_follow_updates_rollbacks_and_restores(kind, seed, batched):
    """Random inserts, deletes, nested checkpoints, rollbacks and full-mode
    stages restored by inverse ops; the views after each, and each answer
    equal to a fresh engine's on the same edges."""
    rng = random.Random(f"engine/{kind.value}/{seed}")
    weighted = kind is ProblemKind.BWMATCH
    n = 2 * rng.randint(4, 12)
    reds, blues = _coloured(rng, n)
    g = Graph(n, weighted=weighted, max_weight=9 if weighted else None)
    for _ in range(rng.randint(0, n)):
        g.add_edge(*_random_edge(rng, g, reds, blues, 0.0),
                   rng.randint(1, 9) if weighted else None)
    eng = DirectEngine(kind, Mode.FULL, g)
    h = eng.graph
    rows = kind is not ProblemKind.BWMATCH  # which reads the sides alone
    check = _checker(rng, batched, rows)
    live = []

    def insert_op(odd_share):
        u, v = _random_edge(rng, h, reds, blues, odd_share)
        return InsertEdge(u, v, rng.randint(1, 9) if weighted else None)

    for _ in range(200):
        r = rng.random()
        if r < 0.1:
            live.append((eng.checkpoint(), h.copy()))
        elif r < 0.2 and live:
            i = rng.randrange(len(live))
            cp, before = live[i]
            del live[i:]  # a rollback consumes every later checkpoint
            eng.rollback(cp)
            assert h == before
        elif r < 0.3 and _bipartite(h) and not (weighted and h.edge_count >= n):
            # a stage: its ops, one query, restored by their inverses (a
            # deletion's inverse carries no weight, so weighted stages insert)
            edges = h.edges()
            if not edges or (len(edges) < n and (weighted or rng.random() < 0.5)):
                ops = [insert_op(0.0) for _ in range(rng.randint(1, 3))]
                ops = list({frozenset((op.u, op.v)): op for op in ops}.values())
            else:
                ops = [DeleteEdge(*e) for e in rng.sample(edges, min(3, len(edges)))]
            before = h.copy()
            undo = [inverse(op) for op in ops]
            try:
                run_stage(eng, ops, _KINDS[kind](rng), lambda answer: answer,
                          undo=undo)
            except DomainError:  # the stage closed an odd cycle
                assert not _bipartite(h)
                for op in undo:
                    eng.update(op)
            assert h == before
        else:
            edges = h.edges()
            if edges and (rng.random() < 0.45 or len(edges) >= n):
                eng.update(DeleteEdge(*rng.choice(edges)))
            else:
                eng.update(insert_op(0.03))
        check(h)
        if rng.random() < 0.2:
            _answers_depend_only_on_edges(kind, rng, eng, h)
    _check_views(h, rows)
    assert (h._rows is not None) == rows


def _bipartite(g: Graph) -> bool:
    try:
        oracles.bipartition(g)
    except DomainError:
        return False
    return True


def _answers_depend_only_on_edges(kind, rng, eng, h):
    q = _KINDS[kind](rng)
    if not _bipartite(h):
        with pytest.raises(DomainError):
            eng.query(q)
        return
    fresh = EngineState(kind, Mode.FULL, h)  # a copy with rebuilt sets
    assert eng.query(q) == fresh.query(q)
    if kind is ProblemKind.KBPM:
        mate = compute_kaug_free_matching(h, q.k)
        assert not oracles.has_short_augpath(h, mate, q.k)


def test_smaller_isolated_node_joins_then_least_id_is_cut_away():
    """The tri-17bpm incremental stage pattern: nodes with smaller ids than
    a component's least join it through pair edges (the first flips the
    component's sides) and are cut away again in reverse order."""
    g = Graph(12)
    for u, v in ((4, 5), (5, 6), (6, 7), (7, 8), (8, 9)):
        g.add_edge(u, v)
    assert g.bipartition() == ([0, 1, 2, 3, 4, 6, 8, 10, 11], [5, 7, 9])
    for x, y in ((2, 4), (0, 5), (1, 9), (3, 6)):
        g.add_edge(x, y)
        _check_views(g)
    assert g.bipartition() == ([0, 1, 4, 6, 8, 10, 11], [2, 3, 5, 7, 9])
    for x, y in ((3, 6), (1, 9), (0, 5), (2, 4)):
        g.remove_edge(x, y)
        _check_views(g)
    assert g.bipartition() == ([0, 1, 2, 3, 4, 6, 8, 10, 11], [5, 7, 9])


def test_least_id_cut_away_in_one_batch():
    g = Graph(8)
    for u, v in ((3, 4), (4, 5), (0, 5)):
        g.add_edge(u, v)
    assert g.bipartition() == ([0, 1, 2, 4, 6, 7], [3, 5])
    g.remove_edge(0, 5)  # 0 was the component's least id; 3 now is
    g.add_edge(1, 3)  # and then 1 is
    g.add_edge(2, 7)
    _check_views(g)
    assert g.bipartition() == ([0, 1, 2, 4, 6], [3, 5, 7])


def test_odd_cycle_drops_the_sides_and_its_removal_restores_them():
    g = Graph(5)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    assert g.bipartition() == ([0, 2, 3, 4], [1])
    g.add_edge(0, 2)
    with pytest.raises(DomainError, match="not bipartite"):
        g.bipartition()
    g.add_edge(3, 4)  # a leaf edge while the view is gone
    with pytest.raises(DomainError, match="not bipartite"):
        g.bipartition()
    g.remove_edge(1, 2)
    assert g.bipartition() == ([0, 3], [1, 2, 4])
    _check_views(g)


def test_engine_on_non_bipartite_graph_is_refused_after_a_stage_closes_an_odd_cycle():
    g = Graph(4)
    for u, v in ((0, 1), (1, 2), (2, 3)):
        g.add_edge(u, v)
    eng = DirectEngine(ProblemKind.KBPM, Mode.FULL, g)
    with pytest.raises(DomainError, match="not bipartite"):
        run_stage(eng, [InsertEdge(0, 2)], KAugFreeMatchingSize(1),
                  undo=[DeleteEdge(0, 2)])
    eng.update(DeleteEdge(0, 2))  # the stage stopped before its restore
    assert eng.query(KAugFreeMatchingSize(1)) == 2
    _check_views(eng.graph)


def test_copy_carries_no_view():
    g = Graph(4)
    g.add_edge(0, 1)
    g.bipartition()
    h = g.copy()
    assert (h._arcs, h._rows, h._sides, h._pending) == (None, None, None, None)
    h.add_edge(2, 3)
    _check_views(g)
    _check_views(h)


def test_directed_graph_has_no_bipartition():
    g = Graph(3, directed=True)
    g.add_edge(0, 1)
    with pytest.raises(DomainError, match="undirected"):
        g.bipartition()
    assert g.ascending_rows() == [[1], [], []]
    g.add_edge(0, 2)
    g.add_edge(2, 0)
    assert g.ascending_rows() == [[1, 2], [], [0]]


# -- all three views on one graph, read in any order


def _check_columns(g: Graph) -> None:
    src, dst = g.arc_columns()
    assert Counter(zip(src, dst)) == Counter(list(g.adjacency()[1]))  # the _w keys


def _check_rows(g: Graph) -> None:
    assert g.ascending_rows() == [sorted(a) for a in g.adjacency()[0]]


def _check_sides(g: Graph) -> None:
    try:
        fresh = _Sides(g.adjacency()[0])
    except DomainError:
        with pytest.raises(DomainError):
            g.bipartition()
        return
    assert g.bipartition() == fresh.lists()


@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
@pytest.mark.parametrize("seed", range(8))
def test_interleaved_views_equal_fresh_builds(seed, directed):
    """Random inserts and deletes through add_edge/remove_edge and the
    unchecked _link/_unlink, and nested checkpoint rollbacks (which undo
    through _link/_unlink), with the views read in random order at random
    times. The columns are first read only after some toggles are pending
    for the views read before them."""
    rng = random.Random(f"interleaved/{directed}/{seed}")
    n = rng.randint(6, 16)
    kind = ProblemKind.SC if directed else ProblemKind.DIAMETER
    state = EngineState(kind, Mode.FULL, Graph(n, directed=directed))
    g = state.graph
    checks = [_check_columns, _check_rows] + ([] if directed else [_check_sides])
    columns_from = rng.randrange(20, 120)
    live = []
    for step in range(400):
        r = rng.random()
        if r < 0.08:
            live.append((state.checkpoint(), g.copy()))
        elif r < 0.16 and live:
            i = rng.randrange(len(live))
            cp, before = live[i]
            del live[i:]  # a rollback consumes every later checkpoint
            state.rollback(cp)
            assert g == before
        else:
            edges = g.edges()
            if edges and (rng.random() < 0.45 or len(edges) >= 2 * n):
                u, v = rng.choice(edges)
                if live or rng.random() < 0.5:  # an unlogged edit would
                    state.update(DeleteEdge(u, v))  # break a rollback
                else:
                    g._unlink(u, v)
            else:
                u, v = rng.sample(range(n), 2)
                if g.has_edge(u, v):
                    continue
                if live or rng.random() < 0.5:
                    state.update(InsertEdge(u, v))
                else:
                    g._link(u, v, None)
        if step == columns_from:
            _check_columns(g)
        for check in rng.sample(checks, rng.randint(0, len(checks))):
            if check is not _check_columns or step > columns_from:
                check(g)
    for check in checks:
        check(g)


def test_columns_first_read_while_rows_hold_pending_toggles():
    g = Graph(6, directed=True)
    for u, v in ((0, 1), (1, 2), (2, 0), (3, 4)):
        g.add_edge(u, v)
    _check_rows(g)
    g.remove_edge(1, 2)
    g.add_edge(4, 5)
    g.add_edge(1, 2)  # toggled back: cancels
    assert list(g._pending) == [(4, 5)] and g._arcs is None
    _check_columns(g)
    assert not g._pending
    g.remove_edge(0, 1)  # now a swap-remove in the built columns
    g.add_edge(5, 3)
    _check_columns(g)
    _check_rows(g)
