"""Triangle detection routed through dynamic graph, matching and set engines.

Every graph-backed routine here runs anchor stages: visit the vertices in
ascending id, install a handful of updates that specialize the gadget to the
stage vertex, ask one query whose answer says whether that vertex lies in a
triangle, and restore the gadget (inverse updates in full mode, rollback
otherwise). The set-system routines instead walk the edges with one
intersection and one query each.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .engines import DirectEngine, Mode, ProblemKind, Toggle, _as_mode, run_stage
from .model import (
    ActivateNode,
    ConstructionError,
    CostCounters,
    DeactivateNode,
    DeleteEdge,
    DomainError,
    Graph,
    InsertEdge,
    IntersectSets,
    IsEmpty,
    KAugFreeMatchingSize,
    Member,
    SetSystem,
    StConnected,
    StReachable,
)

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class TriangleWitness:
    """Either a full vertex triple or just an anchor known to sit in a triangle."""

    u: int | None = None
    v: int | None = None
    w: int | None = None
    anchor: int | None = None

    def verify(self, g: Graph) -> bool:
        if self.u is not None and self.v is not None and self.w is not None:
            if len({self.u, self.v, self.w}) != 3:
                return False
            return (g.has_edge(self.u, self.v) and g.has_edge(self.v, self.w)
                    and g.has_edge(self.u, self.w))
        if self.anchor is None:
            return False
        nb = sorted(g.out_neighbors(self.anchor))
        for i, a in enumerate(nb):
            for b in nb[i + 1:]:
                if g.has_edge(a, b):
                    return True
        return False


def _require_undirected(g: Graph) -> None:
    if g.directed:
        raise DomainError("triangle reductions take undirected graphs")


def _first_anchor(handle, n: int, stage):
    """Run anchor stages x = 0, 1, ..., n - 1; return (first hit or None, counters).

    stage(x) gives stage x's (ops, undo, query[, interpret]) for run_stage.
    A missed stage is restored; a hit returns at once with the gadget left
    specialized, so the counters are honest for the partial run.
    """
    for x in range(n):
        ops, undo, *rest = stage(x)
        if run_stage(handle, ops, *rest, undo=undo, keep_hit=True):
            return x, handle.counters
    return None, handle.counters


# ---------------------------------------------------------------------------
# reachability gadgets


def add_layer_arcs(h: Graph, g: Graph, layers=None,
                   weight_offset: int | None = None) -> None:
    """For each edge {u, v} of g, in both labelings (a, b), add to h the
    edge (i + a, j + b) of each layer pair (i, j); by default the pairs
    (0, n), (n, 2n), (2n, 3n) of a four-layer host. With weight_offset,
    each edge weighs its source edge's weight plus the offset."""
    n = g.node_count
    layers = layers or ((0, n), (n, 2 * n), (2 * n, 3 * n))
    for u, v, w in g.weighted_edges():
        w = None if weight_offset is None else w + weight_offset
        for a, b in ((u, v), (v, u)):
            for i, j in layers:
                h.add_edge(i + a, j + b, w)


def build_streach_gadget(g: Graph) -> Graph:
    """Directed four-layer host with endpoints for per-vertex reach stages.

    Vertex copies sit at offsets 0, n, 2n and 3n; s = 4n and t = 4n + 1 start
    with no incident arcs. Each source edge {u, v} contributes layer-to-layer
    arcs in both labelings, so once a stage opens s -> x and 3n + x -> t, the
    endpoints connect exactly when x closes a triangle.
    """
    n = g.node_count
    h = Graph(4 * n + 2, directed=True, s=4 * n, t=4 * n + 1)
    add_layer_arcs(h, g)
    return h


def triangle_via_streach(g: Graph, *, mode="full"):
    """Anchor search with two arc insertions and one reach query per vertex."""
    _require_undirected(g)
    mode = _as_mode(mode)
    if mode is Mode.DECREMENTAL:
        raise DomainError(
            "deletions-only runs go through triangle_via_streach_decremental")
    n = g.node_count
    h = build_streach_gadget(g)
    handle = DirectEngine(ProblemKind.ST_REACH, mode, h)
    s, t = 4 * n, 4 * n + 1
    ends = Toggle(n, lambda x: (InsertEdge(s, x), InsertEdge(3 * n + x, t)),
                  start_on=False, undo=mode is Mode.FULL)
    return _first_anchor(handle, n, lambda x: (*ends.switch((x,)), StReachable()))


@dataclass(frozen=True)
class TreeLayout:
    """Node ids of the two routing trees, heap-indexed (slot 0 unused).

    Slots [1, leaf_count) are internal nodes, slot 1 being the root (s for
    the out-tree, t for the in-tree); slots [leaf_count, 2*leaf_count) are
    the leaves in vertex order, real copies first, then inert dummies.
    """

    leaf_count: int
    s_nodes: tuple[int, ...]
    t_nodes: tuple[int, ...]


def routing_tree_layout(leaves: int, real: int, roots: tuple[int, int],
                        leaf_bases: tuple[int, int], first_id: int) -> TreeLayout:
    """Node ids of two routing trees with `leaves` leaves each, `real` of
    them vertex copies (copy j of a tree is its leaf base + j).

    Each tree takes its root, then fresh ids from first_id on for its
    internal nodes and then for its dummy leaves; the s-tree takes its ids
    before the t-tree. A one-leaf tree is that leaf alone.
    """
    ids = itertools.count(first_id)

    def tree(root: int, leaf_base: int) -> tuple[int, ...]:
        if leaves == 1:
            return (-1, leaf_base if real == 1 else next(ids))
        internal = [-1, root] + [next(ids) for _ in range(leaves - 2)]
        return tuple(internal + [leaf_base + j if j < real else next(ids)
                                 for j in range(leaves)])

    s_nodes = tree(roots[0], leaf_bases[0])
    return TreeLayout(leaves, s_nodes, tree(roots[1], leaf_bases[1]))


def add_tree_arcs(h: Graph, lay: TreeLayout, end: int) -> None:
    """Add both routing trees' arcs to h by parent slot, s-tree arcs down and
    t-tree arcs up, leaving out children at heap slots end and beyond."""
    s_nodes, t_nodes = lay.s_nodes, lay.t_nodes
    for hh in range(1, lay.leaf_count):
        for child in (2 * hh, 2 * hh + 1):
            if child < end:
                h.add_edge(s_nodes[hh], s_nodes[child])
                h.add_edge(t_nodes[child], t_nodes[hh])


def build_streach_trees(g: Graph) -> tuple[Graph, TreeLayout]:
    """Four-layer host plus two binary routing trees for deletions-only runs.

    The out-tree fans from s down to the first-layer copies and the in-tree
    funnels last-layer copies into t; leaf counts are padded to a power of
    two with dummy leaves that carry no other arcs.
    """
    n = g.node_count
    leaves = 1
    while leaves < n:
        leaves *= 2
    s, t = 4 * n, 4 * n + 1
    internal = max(leaves - 2, 0)
    dummies = leaves - n
    base = 4 * n + 2
    h = Graph(base + 2 * (internal + dummies), directed=True, s=s, t=t)
    add_layer_arcs(h, g)
    lay = routing_tree_layout(leaves, n, (s, t), (0, 3 * n), base)
    if leaves == 1:
        h.add_edge(s, lay.s_nodes[1])
        h.add_edge(lay.t_nodes[1], t)
    else:
        add_tree_arcs(h, lay, 2 * leaves)
    return h, lay


def triangle_via_streach_decremental(g: Graph, *, factory=DirectEngine):
    """Anchor search by deletions only, via the routing trees.

    A depth-first sweep keeps exactly one root-to-leaf path open per stage:
    descending into a subtree deletes the sibling edge in both trees, and
    backtracking restores it with a rollback. Every tree edge is therefore
    deleted at most once and restored at most once, and the stage for leaf x
    queries reachability with x's copies as the only open leaves.
    """
    _require_undirected(g)
    n = g.node_count
    h, lay = build_streach_trees(g)
    handle = factory(ProblemKind.ST_REACH, Mode.DECREMENTAL, h)
    return _visit(handle, lay, n, 1), handle.counters


def _visit(handle, lay, n: int, hh: int):
    """Depth-first sweep below heap slot hh: the first real leaf whose stage
    reaches t, or None. A hit returns with its path still cut.

    A module function rather than a closure, so that a run holds no
    reference cycle and is freed as soon as it returns.
    """
    leaves = lay.leaf_count
    if hh >= leaves:
        j = hh - leaves
        return j if j < n and handle.query(StReachable()) else None
    for keep, cut in ((2 * hh, 2 * hh + 1), (2 * hh + 1, 2 * hh)):
        cp = handle.checkpoint()
        handle.update(DeleteEdge(lay.s_nodes[hh], lay.s_nodes[cut]))
        handle.update(DeleteEdge(lay.t_nodes[cut], lay.t_nodes[hh]))
        found = _visit(handle, lay, n, keep)
        if found is not None:
            return found
        handle.rollback(cp)
    return None


# ---------------------------------------------------------------------------
# activation gadget


def build_subconn_gadget(g: Graph, *, start_active: bool) -> Graph:
    """Bipartite host on two vertex copies with always-on endpoints.

    Copies sit at v and n + v; s = 2n adjoins every first copy and
    t = 2n + 1 every second copy. Each source edge {u, v} appears once as
    the cross edge between the smaller id's first copy and the larger id's
    second copy. Copies start inactive unless start_active.
    """
    n = g.node_count
    h = Graph(2 * n + 2, s=2 * n, t=2 * n + 1,
              active=set(range(2 * n)) if start_active else set())
    for u, v in g.edges():
        a, b = (u, v) if u < v else (v, u)
        h.add_edge(a, n + b)
    for v in range(n):
        h.add_edge(2 * n, v)
        h.add_edge(2 * n + 1, n + v)
    return h


def triangle_via_subconn(g: Graph, *, mode="full"):
    """Anchor search by activating each vertex's neighborhood.

    With exactly the copies of N(x) active, s and t connect exactly when
    some cross edge has both endpoints in the neighborhood, i.e. when x
    closes a triangle. Deletions-only runs start all-active and deactivate
    the non-neighbors instead.
    """
    _require_undirected(g)
    mode = _as_mode(mode)
    n = g.node_count
    h = build_subconn_gadget(g, start_active=(mode is Mode.DECREMENTAL))
    handle = DirectEngine(ProblemKind.ST_SUBCONN, mode, h)
    op = DeactivateNode if mode is Mode.DECREMENTAL else ActivateNode
    copies = Toggle(n, lambda v: (op(v), op(n + v)), start_on=op is DeactivateNode,
                    undo=mode is Mode.FULL)
    return _first_anchor(handle, n, lambda x: (
        *copies.keep_on(g.out_neighbors(x)), StConnected()))


# ---------------------------------------------------------------------------
# matching gadgets


def build_5bpm_gadget(g: Graph, *, pair_edges: bool = True) -> Graph:
    """Two-copy matching host for neighborhood-deletion stages.

    Layer offsets: first copies at 0, their private partners at n, second
    copies at 2n, partners at 3n. Each source edge {u, v} appears between
    the copy layers in both labelings. Private pair edges are omitted when
    pair_edges is false so insertion-only runs can add them per stage.
    """
    n = g.node_count
    h = Graph(4 * n)
    add_layer_arcs(h, g, ((0, 2 * n),))
    if pair_edges:
        for v in range(n):
            h.add_edge(n + v, v)
            h.add_edge(3 * n + v, 2 * n + v)
    return h


def triangle_via_5bpm(g: Graph, *, mode="full"):
    """Anchor search via matchings free of length-5 augmenting paths.

    Stage x removes the private pair edges of N(x)'s copies; any such
    matching then exceeds 2(n - |N(x)|) exactly when two neighbors of x are
    adjacent. Insertion-only runs start without pair edges and insert the
    complement family per stage.
    """
    _require_undirected(g)
    mode = _as_mode(mode)
    n = g.node_count
    h = build_5bpm_gadget(g, pair_edges=(mode is not Mode.INCREMENTAL))
    handle = DirectEngine(ProblemKind.KBPM, mode, h)
    op = InsertEdge if mode is Mode.INCREMENTAL else DeleteEdge
    pairs = Toggle(n, lambda v: (op(n + v, v), op(3 * n + v, 2 * n + v)),
                   start_on=op is DeleteEdge, undo=mode is Mode.FULL)

    def stage(x):
        nbr_set = g.out_neighbors(x)
        threshold = 2 * (n - len(nbr_set))
        return (*pairs.keep_off(nbr_set), KAugFreeMatchingSize(5),
                lambda size: size > threshold)

    return _first_anchor(handle, n, stage)


def build_17bpm_gadget(g: Graph, *, anchor_pairs: bool = True) -> Graph:
    """Eight-layer matching host for two-deletion stages.

    Layers sit at offsets k*n for k in 0..7, paired as (0,1), (2,3), (4,5),
    (6,7). Each source edge {u, v} appears in both labelings between layers
    1 -> 2, 3 -> 4 and 5 -> 6; every vertex carries a private pair edge in
    each layer pair. The outer pairs (0,1) and (6,7) are omitted when
    anchor_pairs is false so insertion-only runs can add them per stage.
    """
    n = g.node_count
    h = Graph(8 * n)
    add_layer_arcs(h, g, ((n, 2 * n), (3 * n, 4 * n), (5 * n, 6 * n)))
    for v in range(n):
        h.add_edge(2 * n + v, 3 * n + v)
        h.add_edge(4 * n + v, 5 * n + v)
        if anchor_pairs:
            h.add_edge(v, n + v)
            h.add_edge(6 * n + v, 7 * n + v)
    return h


def triangle_via_17bpm(g: Graph, *, mode="full"):
    """Anchor search via matchings free of length-17 augmenting paths.

    Stage x removes only x's two outer pair edges; the matching size is at
    most 4n - 2 when x lies in no triangle and exactly 4n - 1 when it does
    (anything else trips a construction check). Four updates per full-mode
    stage, one query each.
    """
    _require_undirected(g)
    mode = _as_mode(mode)
    n = g.node_count
    h = build_17bpm_gadget(g, anchor_pairs=(mode is not Mode.INCREMENTAL))
    handle = DirectEngine(ProblemKind.KBPM, mode, h)

    def interpret(size: int) -> bool:
        if size <= 4 * n - 2:
            return False
        if size != 4 * n - 1:
            raise ConstructionError(
                f"matching size {size} exceeds the miss bound but is not {4 * n - 1}")
        return True

    op = InsertEdge if mode is Mode.INCREMENTAL else DeleteEdge
    pairs = Toggle(n, lambda v: (op(v, n + v), op(6 * n + v, 7 * n + v)),
                   start_on=op is DeleteEdge, undo=mode is Mode.FULL)
    return _first_anchor(handle, n, lambda x: (
        *pairs.keep_off((x,)), KAugFreeMatchingSize(17), interpret))


# ---------------------------------------------------------------------------
# set-system routes


def triangle_via_empty_pp(g: Graph):
    """Edge scan over neighborhood sets: one intersection and one emptiness
    query per edge; N(u) and N(v) share a member exactly when {u, v} closes
    a triangle."""
    _require_undirected(g)
    n = g.node_count
    ss = SetSystem(n, [g.out_neighbors(u) for u in range(n)])
    handle = DirectEngine(ProblemKind.EMPTY_PP, Mode.FULL, ss)
    for u, v in g.edges():
        i = handle.update(IntersectSets(u, v))
        if not handle.query(IsEmpty(i)):
            return True, handle.counters
    return False, handle.counters


def _cube_ceil(m: int) -> int:
    d = 1
    while d * d * d < m:
        d += 1
    return d


def _fold_sets(handle, set_ids) -> list[int | None]:
    """For each vertex's list of set ids, the id of their intersection,
    folded left to right with IntersectSets (None for an empty list)."""
    folded = []
    for ids in set_ids:
        acc = ids[0] if ids else None
        for j in ids[1:]:
            acc = handle.update(IntersectSets(acc, j))
        folded.append(acc)
    return folded


def triangle_via_pp(g: Graph, *, seed: int = 0):
    """Two-phase membership detection over neighborhood sets.

    The degree threshold is the cube root of the edge count. High-degree
    vertices each get an exact non-neighbor set; folding those over every
    vertex's high-degree neighbors makes the membership query along an edge
    fail exactly when the endpoints share a high-degree neighbor. Edges
    between two low-degree endpoints run the same scheme over hashed
    neighborhoods with several independent multiply-shift functions: a real
    shared neighbor collides under every function, so triangles are never
    missed, while spurious collisions must survive all functions to produce
    a false alarm.
    """
    _require_undirected(g)
    n = g.node_count
    total = CostCounters()
    edges = g.edges()
    m = len(edges)
    if m == 0:
        return False, total
    delta = _cube_ceil(m)
    deg = [g.degree(v) for v in range(n)]
    nbrs = [sorted(g.out_neighbors(v)) for v in range(n)]
    full = (1 << n) - 1

    high = [v for v in range(n) if deg[v] >= delta]
    if high:
        index = {j: i for i, j in enumerate(high)}
        high_sets = [full ^ sum(1 << c for c in nbrs[j]) for j in high]  # non-neighbours
        handle = DirectEngine(ProblemKind.PP, Mode.FULL, SetSystem.from_masks(n, high_sets))
        folded = _fold_sets(handle, [[index[c] for c in nbrs[b] if deg[c] >= delta]
                                     for b in range(n)])
        hit = False
        for a, b in edges:
            if folded[b] is not None and not handle.query(Member(folded[b], a)):
                hit = True
                break
        total.absorb(handle.counters)
        if hit:
            return True, total

    suspects = [(a, b) for a, b in edges if deg[a] < delta and deg[b] < delta]
    if not suspects:
        return False, total
    rounds = max(1, math.ceil(2 * math.log2(n)))
    bits = (max(4 * delta * delta, 2) - 1).bit_length()
    buckets = 1 << bits
    rng = random.Random(seed)
    for _ in range(rounds):
        mul = rng.getrandbits(64) | 1
        add = rng.getrandbits(64)

        def hashed(x: int, mul=mul, add=add) -> int:
            return ((mul * x + add) & _MASK64) >> (64 - bits)

        covered = [0] * buckets  # covered[j]: the vertices with a neighbour hashed to j
        for a in range(n):
            for c in nbrs[a]:
                covered[hashed(c)] |= 1 << a
        handle = DirectEngine(ProblemKind.PP, Mode.FULL,
                              SetSystem.from_masks(n, [full ^ h for h in covered]))
        folded = _fold_sets(handle, [[hashed(c) for c in nbrs[b]] for b in range(n)])
        survivors = []
        for a, b in suspects:
            if not handle.query(Member(folded[b], a)):
                survivors.append((a, b))
        total.absorb(handle.counters)
        suspects = survivors
        if not suspects:
            return False, total
    return True, total


# ---------------------------------------------------------------------------
# degree splitting


def split_by_degree(g: Graph, threshold: int, dense_routine) -> TriangleWitness | None:
    """Wedge-scan low-degree vertices, then defer to a dense-side routine.

    Every triangle with a vertex of degree at most threshold is caught by
    scanning that vertex's neighbor pairs; the remainder can only live in
    the subgraph induced by the high-degree vertices, which is relabeled and
    passed to dense_routine (a callable returning an anchor id in the
    subgraph or None). Its anchor is verified against g; a wedge witness
    is a triangle of g by construction.
    """
    _require_undirected(g)
    if threshold < 0:
        raise DomainError("threshold must be nonnegative")
    n = g.node_count
    for x in range(n):
        nb = sorted(g.out_neighbors(x))
        if len(nb) > threshold:
            continue
        for i, a in enumerate(nb):
            for b in nb[i + 1:]:
                if g.has_edge(a, b):
                    return TriangleWitness(u=x, v=a, w=b)
    high = [v for v in range(n) if g.degree(v) > threshold]
    if len(high) < 3:
        return None
    pos = {v: i for i, v in enumerate(high)}
    sub = Graph(len(high))
    for u, v in g.edges():
        if u in pos and v in pos:
            sub.add_edge(pos[u], pos[v])
    anchor = dense_routine(sub)
    if anchor is None:
        return None
    witness = TriangleWitness(anchor=high[anchor])
    if not witness.verify(g):
        raise ConstructionError("dense routine returned a vertex not in any triangle")
    return witness
