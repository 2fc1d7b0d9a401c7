"""Dynamic-problem engines.

An engine is one EngineState: it loads (preprocesses) a mutable instance,
a graph or a set system, and its update, query, checkpoint and rollback are
the uniform API; engine_new and engine_update etc. are the same class and
methods under functional names. Reductions hold the subclass DirectEngine;
a wrapper is an EngineState of its outer kind (see DirectEngine). Queries
recompute from current state; what is measured throughout the package is
how many updates and queries a reduction spends, never how fast one runs.

Mode legality: insert-type updates are rejected in decremental mode and
delete-type updates in incremental mode. Rollback is legal in every mode,
bypasses those checks, and is accounted separately in rollback_ops.

The query routines are written here from scratch, independent of oracles.py,
so the two layers can check each other.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

from . import limits
from .model import (
    ActivateNode,
    AddToScope,
    AllStReachable,
    CostCounters,
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
    StConnected,
    StDistance,
    StReachable,
    StateError,
    StronglyConnected,
    UnionIsUniverse,
)


class Mode(Enum):
    FULL = "full"
    INCREMENTAL = "inc"
    DECREMENTAL = "dec"


class ProblemKind(Enum):
    ST_REACH = "st-reach"
    REACH_COUNT = "reach-count"
    SC = "sc"
    SC2 = "sc2"
    SCC_2_VS_K = "scc-2-vs-k"
    MAX_SCC = "max-scc"
    ST_SET_REACH = "st-set-reach"
    DIAMETER = "diameter"
    ST_SUBCONN = "st-subconn"
    CONN_SUB = "conn-sub"
    BPMATCH = "bpmatch"
    KBPM = "kbpm"
    BWMATCH = "bwmatch"
    ST_SP = "st-sp"
    SUB_UNION = "sub-union"
    PP = "pp"
    EMPTY_PP = "empty-pp"


@dataclass(frozen=True)
class KindSpec:
    """What a problem kind answers and takes. directed or weighted None takes
    either; terminals is "st" (distinct s and t), "s", "sets" (s_set and
    t_set) or None; the "node" update family needs an active node set."""

    query: type
    answer: Callable  # (state, q) -> answer
    instance: type = Graph
    directed: bool | None = None
    weighted: bool | None = None
    terminals: str | None = None
    bipartite: bool = False
    families: tuple[str, ...] = ("edge",)


# Answer functions; the query routines they call are further down.


def _reach_count(state, q):
    if q.limit < 0:
        raise DomainError("limit must be nonnegative")
    g = state.graph
    return len(_bfs_from(g, g.s)) - 1 < q.limit


def _scc_count(state) -> int:
    return len(_scc_sizes(state.graph))


def _scc_more_than(state, q):
    if q.k < 2:
        raise DomainError("k must be at least 2")
    return _scc_count(state) > q.k


def _st_connected(state, q):
    g = state.graph
    return g.t in _bfs_from(g, g.s, _active_nodes(g))


def _induced_connected(state, q):
    nodes = set(state.graph.active)
    return len(nodes) <= 1 or _bfs_from(state.graph, min(nodes), nodes) == nodes


def _kaug_free_size(state, q):
    g = state.graph
    return (g.node_count - _kaug_free_mates(g, q.k).count(-1)) // 2


def _union_is_universe(state, q):
    masks = state.sets.masks
    union = 0
    for i in state.scope:
        union |= masks[i]
    return union == (1 << state.sets.universe_size) - 1


def _member(state, q):
    if not (0 <= q.u < state.sets.universe_size):
        raise DomainError(f"element {q.u} outside universe")
    return bool(state.sets.mask(q.i) >> q.u & 1)


KINDS: dict[ProblemKind, KindSpec] = {
    ProblemKind.ST_REACH: KindSpec(
        StReachable, lambda st, q: st.graph.t in _bfs_from(st.graph, st.graph.s),
        directed=True, terminals="st"),
    ProblemKind.REACH_COUNT: KindSpec(
        ReachCountLessThan, _reach_count, directed=True, terminals="s"),
    ProblemKind.SC: KindSpec(
        StronglyConnected,
        lambda st, q: st.graph.node_count <= 1 or _scc_count(st) == 1, directed=True),
    ProblemKind.SC2: KindSpec(
        MoreThanTwoSccs, lambda st, q: _scc_count(st) > 2, directed=True),
    ProblemKind.SCC_2_VS_K: KindSpec(SccCount2VsK, _scc_more_than, directed=True),
    ProblemKind.MAX_SCC: KindSpec(
        MaxSccSize, lambda st, q: max(_scc_sizes(st.graph), default=0),
        directed=True),
    ProblemKind.ST_SET_REACH: KindSpec(
        AllStReachable,
        lambda st, q: all(st.graph.t_set <= _bfs_from(st.graph, s)
                          for s in sorted(st.graph.s_set)),
        directed=True, terminals="sets"),
    ProblemKind.DIAMETER: KindSpec(
        Diameter, lambda st, q: _all_pairs_diameter(st.graph), directed=False),
    ProblemKind.ST_SUBCONN: KindSpec(
        StConnected, _st_connected, directed=False, terminals="st",
        families=("edge", "node")),
    ProblemKind.CONN_SUB: KindSpec(
        InducedConnected, _induced_connected, directed=False,
        families=("edge", "node")),
    ProblemKind.BPMATCH: KindSpec(
        HasPerfectMatching, lambda st, q: -1 not in _kaug_free_mates(st.graph, None),
        directed=False, weighted=False, bipartite=True),
    ProblemKind.KBPM: KindSpec(
        KAugFreeMatchingSize, _kaug_free_size, directed=False, weighted=False,
        bipartite=True),
    ProblemKind.BWMATCH: KindSpec(
        MaxWeightPmWeight, lambda st, q: _max_weight_pm(st.graph),
        directed=False, weighted=True, bipartite=True),
    ProblemKind.ST_SP: KindSpec(
        StDistance, lambda st, q: _dijkstra_st(st.graph), weighted=True,
        terminals="st"),
    ProblemKind.SUB_UNION: KindSpec(
        UnionIsUniverse, _union_is_universe, SetSystem, families=("scope",)),
    ProblemKind.PP: KindSpec(Member, _member, SetSystem, families=("set",)),
    ProblemKind.EMPTY_PP: KindSpec(
        IsEmpty, lambda st, q: st.sets.mask(q.i) == 0, SetSystem,
        families=("set",)),
}


INSERT_TYPE = (InsertEdge, ActivateNode, AddToScope, InsertSet, IntersectSets)
DELETE_TYPE = (DeleteEdge, DeactivateNode, RemoveFromScope)


class Checkpoint:
    """An opaque rollback target, live on the state that issued it until a
    rollback consumes it. A wrapper's carries the inner engine's in inner."""

    __slots__ = ("inner",)


class EngineState:
    """An engine: the owned instance plus undo log, live checkpoints and
    cost counters, behind the update, query, checkpoint and rollback calls."""

    def __init__(self, kind, mode, instance, *, scope=None):
        """Load an instance. preprocess_units = nodes + edges (graphs) or
        universe + total set sizes (set systems)."""
        self.kind = kind = _as_kind(kind)
        self.mode = mode = _as_mode(mode)
        self.graph: Graph | None = None
        self.sets: SetSystem | None = None
        self.scope: set[int] | None = None
        self.counters = CostCounters()
        self._apply = _DISPATCH[kind, mode]  # op type -> handler
        self._answer_fn = KINDS[kind].answer
        self._undo: list[tuple] = []  # (callable, args) pairs
        self._live: list[tuple[Checkpoint, int]] = []  # (cp, log depth), oldest first
        expected = KINDS[kind].instance
        if not isinstance(instance, expected):
            raise DomainError(f"{kind.value} expects a {expected.__name__} instance")
        if expected is Graph:
            _check_graph_shape(kind, instance)
            self.graph = instance.copy()
            if KINDS[kind].bipartite:
                self.graph.left_side()  # raises DomainError if not bipartite
            self.counters.preprocess_units = instance.node_count + instance.edge_count
            if scope is not None:
                raise DomainError("scope applies only to set-system kinds")
        else:
            self.sets = instance.copy()
            self.counters.preprocess_units = (
                instance.universe_size + sum(m.bit_count() for m in instance.masks))
            if kind is ProblemKind.SUB_UNION:
                self.scope = set()
                if scope is not None:
                    for i in scope:
                        _scope_add(self, AddToScope(i))
            elif scope is not None:
                raise DomainError("scope applies only to sub-union engines")

    @property
    def state(self) -> EngineState:
        """The engine state behind a handle: the handle itself."""
        return self

    def __repr__(self):
        return f"EngineState({self.kind.value}, {self.mode.value}, depth={len(self._undo)})"

    def update(self, op) -> int | None:
        """Apply one update. Returns the fresh set id for InsertSet/IntersectSets."""
        handler = self._apply.get(type(op))
        if handler is None:  # not in the table
            reject_update(self.kind, self.mode, op)
        result = handler(self, op)
        self.counters.updates += 1
        return result

    def query(self, q):
        """Answer q; a query that raises is not counted."""
        check_query(self.kind, q)
        answer = self._answer_fn(self, q)
        self.counters.queries += 1
        return answer

    def checkpoint(self) -> Checkpoint:
        cp = Checkpoint()
        self._live.append((cp, len(self._undo)))
        return cp

    def rollback(self, cp: Checkpoint) -> None:
        """Unwind the undo log back to cp, which must be live here (see
        live_index). Consumes cp and every checkpoint taken after it. Legal
        in every mode; each undone update counts as one rollback op."""
        i = live_index(self, cp)
        undo = self._undo
        count = len(undo) - self._live[i][1]
        for _ in range(count):
            fn, args = undo.pop()
            fn(*args)
        self.counters.rollback_ops += count
        del self._live[i:]


# the functional spelling: engine_update(state, op) is state.update(op)
engine_new = EngineState
engine_update = EngineState.update
engine_query = EngineState.query
engine_checkpoint = EngineState.checkpoint
engine_rollback = EngineState.rollback


def _as_member(enum, value, what: str):
    if isinstance(value, enum):
        return value
    try:
        return enum(value)
    except ValueError:
        raise DomainError(f"unknown {what} {value!r}")


def _as_mode(mode) -> Mode:
    return _as_member(Mode, mode, "mode")


def _as_kind(kind) -> ProblemKind:
    return _as_member(ProblemKind, kind, "problem kind")


def _check_graph_shape(kind: ProblemKind, g: Graph) -> None:
    """Raise DomainError unless g fits kind; EngineState checks that a
    bipartite kind's graph is bipartite."""
    spec, name = KINDS[kind], kind.value
    if spec.directed is not None and bool(g.directed) != spec.directed:
        orientation = "a directed" if spec.directed else "an undirected"
        raise DomainError(f"{name} needs {orientation} graph")
    if spec.terminals == "st":
        if g.s is None or g.t is None:
            raise DomainError(f"{name} needs s and t")
        if g.s == g.t:
            raise DomainError(f"{name} needs distinct s and t")
    elif spec.terminals == "s" and g.s is None:
        raise DomainError(f"{name} needs a source s")
    elif spec.terminals == "sets" and (g.s_set is None or g.t_set is None):
        raise DomainError(f"{name} needs s_set and t_set")
    if "node" in spec.families and g.active is None:
        raise DomainError(f"{name} needs an active node set")
    if spec.weighted is not None and bool(g.weighted) != spec.weighted:
        weights = "a weighted" if spec.weighted else "an unweighted"
        raise DomainError(f"{name} needs {weights} graph")


# ---------------------------------------------------------------------------
# updates

# One handler per update type: it checks the op against the state, applies
# it and, while a checkpoint is live, logs the (callable, args) pair that
# undoes it. Handlers return the fresh set id for InsertSet/IntersectSets.
#
# Logging only under a live checkpoint is sound because the log is empty
# whenever no checkpoint is live:
# - it is empty at construction, and nothing is logged while no checkpoint
#   is live, so the first checkpoint of a run of live ones has depth 0;
# - every later checkpoint of the run is taken while the first is live, and
#   rollback consumes every checkpoint taken after its target, so the first
#   is the last one consumed, and consuming it unwinds the log to depth 0;
# - while any checkpoint is live every update is logged, so the depth of
#   each live checkpoint stays valid.
# A checkpoint abandoned by keep_hit stays live, so logging stays on.


def _ins_edge(state: EngineState, op: InsertEdge) -> None:
    g = state.graph
    if g.weighted and op.w is None:
        raise DomainError("weighted graph needs an edge weight")
    g.add_edge(op.u, op.v, op.w)
    if state._live:
        state._undo.append((g._unlink, (op.u, op.v)))


def _del_edge(state: EngineState, op: DeleteEdge) -> None:
    g = state.graph
    w = g.remove_edge(op.u, op.v)
    if state._live:
        state._undo.append((g._link, (op.u, op.v, w)))


def _activate(state: EngineState, op: ActivateNode) -> None:
    g = state.graph
    v = op.v
    if not (0 <= v < g.node_count):
        raise DomainError(f"node {v} out of range")
    if v in g.active:
        raise StateError(f"node {v} already active")
    g.active.add(v)
    if state._live:
        state._undo.append((g.active.discard, (v,)))


def _deactivate(state: EngineState, op: DeactivateNode) -> None:
    active = state.graph.active
    v = op.v
    if v not in active:
        raise StateError(f"node {v} not active")
    active.discard(v)
    if state._live:
        state._undo.append((active.add, (v,)))


def _scope_add(state: EngineState, op: AddToScope) -> None:
    i = op.set_id
    state.sets.mask(i)  # range check
    scope = state.scope
    if i in scope:
        raise StateError(f"set {i} already in scope")
    scope.add(i)
    if state._live:
        state._undo.append((scope.discard, (i,)))


def _scope_remove(state: EngineState, op: RemoveFromScope) -> None:
    i = op.set_id
    scope = state.scope
    if i not in scope:
        raise StateError(f"set {i} not in scope")
    scope.discard(i)
    if state._live:
        state._undo.append((scope.add, (i,)))


def _insert_set(state: EngineState, op: InsertSet) -> int:
    sets = state.sets
    if len(sets) >= limits.MAX_SETS:
        raise GuardError("set count cap reached")
    new_id = sets.append_set(op.members)
    if state._live:
        state._undo.append((sets.pop_set, ()))
    return new_id


def _intersect_sets(state: EngineState, op: IntersectSets) -> int:
    sets = state.sets
    if len(sets) >= limits.MAX_SETS:
        raise GuardError("set count cap reached")
    a, b = sets.mask(op.i), sets.mask(op.j)
    sets.masks.append(a & b)  # members of a and b are already in the universe
    if state._live:
        state._undo.append((sets.pop_set, ()))
    return len(sets) - 1


# Update families: the handler of each op type, and how a rejection names them.
_FAMILIES = {
    "edge": ({InsertEdge: _ins_edge, DeleteEdge: _del_edge}, "edge updates"),
    "node": ({ActivateNode: _activate, DeactivateNode: _deactivate},
             "node activation"),
    "scope": ({AddToScope: _scope_add, RemoveFromScope: _scope_remove},
              "scope updates"),
    "set": ({InsertSet: _insert_set, IntersectSets: _intersect_sets},
            "set updates"),
}

_ILLEGAL_IN = {Mode.FULL: (), Mode.INCREMENTAL: DELETE_TYPE,
               Mode.DECREMENTAL: INSERT_TYPE}

# (kind, mode) -> {op type: handler}, for the op types the kind takes and
# the mode allows; every other op is rejected by the checks below.
_DISPATCH = {
    (kind, mode): {t: handler
                   for family in spec.families
                   for t, handler in _FAMILIES[family][0].items()
                   if t not in _ILLEGAL_IN[mode]}
    for kind, spec in KINDS.items() for mode in Mode
}


def reject_update(kind: ProblemKind, mode: Mode, op) -> None:
    """Raise the error for an op that kind does not take in mode (one not
    in its _DISPATCH table): the family check comes before the mode check."""
    for family, (handlers, name) in _FAMILIES.items():
        if isinstance(op, tuple(handlers)):
            if family not in KINDS[kind].families:
                raise DomainError(f"{name} not supported by {kind.value}")
            break
    else:
        raise DomainError(f"unknown update {op!r}")
    if isinstance(op, _ILLEGAL_IN[mode]):
        family = "insert" if mode is Mode.DECREMENTAL else "delete"
        raise ModeError(f"{type(op).__name__} is {family}-type, illegal in "
                        f"{mode.name.lower()} mode")
    raise DomainError(f"unknown update {op!r}")  # a subclass of an op type


# ---------------------------------------------------------------------------
# checkpoint / rollback


def live_index(state: EngineState, cp) -> int:
    """The position of cp on the live stack of state; StateError, changing
    nothing, unless state issued cp and no rollback has consumed it."""
    live = state._live
    for i in range(len(live) - 1, -1, -1):
        if live[i][0] is cp:
            return i
    raise StateError("checkpoint is not live (already rolled back or foreign)")


# ---------------------------------------------------------------------------
# query internals (independent of oracles.py)


def _active_nodes(g: Graph) -> set[int] | None:
    if g.active is None:
        return None
    allowed = set(g.active)
    for v in (g.s, g.t):
        if v is not None:
            allowed.add(v)
    return allowed


def _bfs_from(g: Graph, src: int, allowed: set[int] | None = None) -> set[int]:
    """Nodes reachable from src, moving only through allowed when given."""
    if allowed is not None and src not in allowed:
        return set()
    adj, _ = g.adjacency()
    seen = {src}
    frontier = {src}
    while frontier:
        frontier = set().union(*map(adj.__getitem__, frontier))
        frontier -= seen
        if allowed is not None:
            frontier &= allowed
        seen |= frontier
    return seen


def _tarjan_scc_sizes(g: Graph) -> list[int]:
    """Sizes of strongly connected components, iterative Tarjan.

    A node leaves the stack with its component; its index then becomes n,
    which no low value reaches, so the `< low` test skips it without a
    separate on-stack flag.
    """
    adj, _ = g.adjacency()
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    sizes: list[int] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        # frame: node, its neighbour iterator, its position on the stack
        work = [(root, iter(adj[root]), len(stack))]
        stack.append(root)
        while work:
            u, it, pos = work[-1]
            lu = low[u]
            for v in it:
                iv = index[v]
                if iv == -1:
                    low[u] = lu
                    index[v] = low[v] = counter
                    counter += 1
                    work.append((v, iter(adj[v]), len(stack)))
                    stack.append(v)
                    break
                if iv < lu:
                    lu = iv
            else:
                work.pop()
                if lu == index[u]:
                    sizes.append(len(stack) - pos)
                    for w in stack[pos:]:
                        index[w] = n
                    del stack[pos:]
                else:  # not a component root, so not the DFS root either
                    low[u] = lu
                    p = work[-1][0]
                    if lu < low[p]:
                        low[p] = lu
    return sizes


# SCC sizes on large graphs come from scipy's csgraph, which runs in C over
# a CSR built from the graph's arc columns. Below SCC_CSGRAPH_MIN_EDGES
# edges Tarjan is faster. Importing scipy.sparse.csgraph costs about what
# Tarjan spends on SCC_IMPORT_BUDGET_EDGES edges, so the process first scans
# that many edges with Tarjan, on graphs above the cutoff, and only then
# pays the import (ski rental): a short run never imports it, and a long
# one spends at most twice what the import costs before it breaks even.
# The budget left is process-wide, as the import is. CHANGES.md records how
# both constants were measured.
SCC_CSGRAPH_MIN_EDGES = 1200
SCC_IMPORT_BUDGET_EDGES = 5_000_000
_scc_budget_left = SCC_IMPORT_BUDGET_EDGES


def _scc_sizes(g: Graph) -> list[int]:
    """Sizes of the strongly connected components, in no particular order."""
    global _scc_budget_left
    m = g.edge_count
    if m < SCC_CSGRAPH_MIN_EDGES:
        return _tarjan_scc_sizes(g)
    if _scc_budget_left > 0:
        _scc_budget_left -= m
        return _tarjan_scc_sizes(g)
    return _csgraph_scc_sizes(g)


def _csgraph_scc_sizes(g: Graph) -> list[int]:
    """_tarjan_scc_sizes through scipy's strong connected_components."""
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n = g.node_count
    # copies: no view of the graph's columns outlives this call
    src, dst = (np.array(col, dtype=np.intc) for col in g.arc_columns())
    # Rows keep the order edges came in, except that a delete moves the last
    # row into its place. On a graph built source by source, as every gadget
    # is, the source column so stays mostly sorted, and timsort (the stable
    # argsort of int32 keys) runs in about linear time on it. Past one
    # descent per 64 rows it takes the stable argsort of 16-bit keys, a
    # radix sort, which is linear whatever the order (and faster than
    # timsort from about one descent per 40 rows).
    if n <= 1 << 16 and 64 * np.count_nonzero(src[1:] < src[:-1]) > len(src):
        order = np.argsort(src.astype(np.uint16), kind="stable")
    else:
        order = np.argsort(src, kind="stable")
    ids = np.arange(n + 1, dtype=np.intc)
    indptr = np.searchsorted(src[order], ids).astype(np.intc)
    # float64 data is what connected_components works on, so it copies nothing
    graph = csr_matrix((np.ones(len(order)), dst[order], indptr), shape=(n, n))
    _, labels = connected_components(graph, directed=True, connection="strong")
    return np.bincount(labels).tolist()


def _all_pairs_diameter(g: Graph) -> int | None:
    """Diameter by frontier BFS in matrix form; None when disconnected."""
    import numpy as np

    n = g.node_count
    if n == 0:
        return None
    if n * n > limits.MAX_DENSE_CELLS:
        raise GuardError(f"{n} x {n} diameter matrix exceeds the dense-buffer cap")
    adj_sets, _ = g.adjacency()
    adj = np.zeros((n, n), dtype=np.float32)
    rows = np.repeat(np.arange(n), [len(a) for a in adj_sets])
    cols = np.fromiter(itertools.chain.from_iterable(adj_sets), dtype=np.intp,
                       count=len(rows))
    adj[rows, cols] = 1.0
    visited = np.eye(n, dtype=bool)
    frontier = np.eye(n, dtype=bool)
    diam = 0
    while frontier.any():
        nxt = ((frontier.astype(np.float32) @ adj) > 0) & ~visited
        if not nxt.any():
            break
        diam += 1
        visited |= nxt
        frontier = nxt
    if not visited.all():
        return None
    return diam


def _dijkstra_st(g: Graph) -> int | None:
    adj, weight = g.adjacency()
    directed = g.directed
    dist = {g.s: 0}
    heap = [(0, g.s)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u == g.t:
            return d
        for v in adj[u]:
            nd = d + weight[(u, v) if directed or u < v else (v, u)]
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist.get(g.t)


def _kaug_free_mates(g: Graph, k: int | None) -> list[int]:
    """compute_kaug_free_matching as a list: mate[v] is v's partner or -1.

    Left vertices and their neighbours are scanned in ascending order (the
    graph's kept bipartition and rows), so the matching depends only on the
    edge set."""
    if k is not None and (k < 1 or k % 2 == 0):
        raise DomainError("k must be a positive odd integer")
    left = g.left_side()
    adj = g.ascending_rows()
    n = len(adj)
    mate = [-1] * n
    # First phase: with nothing matched, every shortest augmenting path is a
    # single edge, and extracting them reduces to a greedy scan in left order.
    free = []  # unmatched left vertices, ascending
    for u in left:
        for v in adj[u]:
            if mate[v] == -1:
                mate[u] = v
                mate[v] = u
                break
        else:
            free.append(u)
    # an augmenting path of at most k edges ends by BFS layer (k + 1) // 2
    limit = n if k is None else (k + 1) // 2
    while free:
        # layered BFS over left vertices; dist counts matched-edge hops,
        # -1 marks a vertex outside the layers (or a dead end, below)
        dist = [-1] * n
        for u in free:
            dist[u] = 0
        queue = free[:]
        found = -1  # layer of the first free right vertex reached
        last = limit  # the deepest layer worth reaching
        for u in queue:
            du = dist[u]
            if du >= last:
                break  # the queue is in layer order
            for v in adj[u]:
                w = mate[v]
                if w == -1:
                    if found == -1:
                        found = last = du + 1
                elif dist[w] == -1:
                    dist[w] = du + 1
                    queue.append(w)
        if found == -1:
            break  # no augmenting path of at most k edges
        # Depth-first extraction of augmenting paths along the layers, with
        # an explicit stack of (left vertex, its neighbour iterator). Each
        # left vertex restarts its neighbour scan whenever it is entered.
        # A path from one free root passes through matched vertices only.
        for root in free:
            stack = [(root, iter(adj[root]))]
            while stack:
                u, it = stack[-1]
                nd = dist[u] + 1
                for v in it:
                    w = mate[v]
                    if w == -1:
                        if nd == found:
                            # flip the path: each left vertex on the stack
                            # takes the right vertex the level below chose
                            for x, _ in reversed(stack):
                                nxt = mate[x]
                                mate[x] = v
                                mate[v] = x
                                v = nxt
                            stack.clear()
                            break
                    elif dist[w] == nd:
                        stack.append((w, iter(adj[w])))
                        break
                else:
                    dist[u] = -1  # dead end for this phase
                    stack.pop()
        free = [u for u in free if mate[u] == -1]
    return mate


def compute_kaug_free_matching(g: Graph, k: int | None = None) -> dict[int, int]:
    """Phase-based matching: repeatedly find the shortest augmenting length L
    and flip a maximal disjoint set of length-L paths; stop once L > k.

    With k=None this runs to a maximum matching. Each phase uses one layered
    BFS plus vertex-disjoint DFS extraction, so the number of phases is at
    most (k+3)/2 for odd k. Returns a node -> mate map (both directions).
    """
    return {v: m for v, m in enumerate(_kaug_free_mates(g, k)) if m != -1}


def _max_weight_pm(g: Graph) -> int | None:
    """Maximum-weight perfect matching via the assignment solver; None if no PM."""
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    left, right = g.bipartition()
    if len(left) != len(right):
        return None
    if not left:
        return 0
    if len(left) * len(right) > limits.MAX_DENSE_CELLS:
        raise GuardError(f"{len(left)} x {len(right)} cost matrix exceeds the "
                         "dense-buffer cap")
    _, weight = g.adjacency()
    m = len(weight)
    ends = np.fromiter(itertools.chain.from_iterable(weight), dtype=np.intp,
                       count=2 * m).reshape(m, 2)
    w = np.fromiter(weight.values(), dtype=np.int64, count=m)
    # pos[v]: v's row (left) or column (right) in the cost matrix
    pos = np.empty(g.node_count, dtype=np.intp)
    pos[left] = np.arange(len(left))
    pos[right] = np.arange(len(right))
    on_left = np.zeros(g.node_count, dtype=bool)
    on_left[left] = True
    a, b = ends[:, 0], ends[:, 1]
    a_left = on_left[a]
    top = int(w.max()) if m else 1
    forbidden = -(1 + g.node_count * top)
    cost = np.full((len(left), len(right)), forbidden, dtype=np.int64)
    cost[pos[np.where(a_left, a, b)], pos[np.where(a_left, b, a)]] = w
    rows, cols = linear_sum_assignment(cost, maximize=True)
    chosen = cost[rows, cols].tolist()
    if forbidden in chosen:
        return None  # some left node forced onto a non-edge: no PM
    return sum(chosen)


# ---------------------------------------------------------------------------
# queries


def check_query(kind: ProblemKind, q) -> None:
    """Raise DomainError unless q is the query type kind answers."""
    expected = KINDS[kind].query
    if not isinstance(q, expected):
        raise DomainError(
            f"{kind.value} answers {expected.__name__}, got {type(q).__name__}")


# ---------------------------------------------------------------------------
# handle interface

# Reductions drive engines through handle objects so that a wrapper
# (wrappers.py) can stand in for a real engine. The shared surface is:
# .kind .mode .counters .update(op) .query(q) .checkpoint() .rollback(cp)
# An EngineState has it itself, and every wrapper is one.


class DirectEngine(EngineState):
    """The engine a reduction holds as its handle. A subclass, not an alias:
    a wrapper is an EngineState of its outer kind too, so patching or
    isinstance on this class sees the engines driven, never a wrapper."""


direct_factory = DirectEngine


def innermost(handle):
    """The engine at the bottom of a chain of wrappers (handle itself when
    it wraps nothing)."""
    while getattr(handle, "inner", None) is not None:
        handle = handle.inner
    return handle


# ---------------------------------------------------------------------------
# staged reductions

# The update that undoes each paired update type. Weights are not carried:
# the inverse of a deletion is an unweighted insertion.
_INVERSE = {
    InsertEdge: lambda op: DeleteEdge(op.u, op.v),
    DeleteEdge: lambda op: InsertEdge(op.u, op.v),
    ActivateNode: lambda op: DeactivateNode(op.v),
    DeactivateNode: lambda op: ActivateNode(op.v),
    AddToScope: lambda op: RemoveFromScope(op.set_id),
    RemoveFromScope: lambda op: AddToScope(op.set_id),
}


def inverse(op):
    """The update that undoes op on an unweighted instance."""
    undo = _INVERSE.get(type(op))
    if undo is None:
        raise DomainError(f"{type(op).__name__} has no inverse update")
    return undo(op)


class Toggle:
    """Stage ops that switch items of a gadget on or off, each item's built
    once per run, when a stage first switches it.

    Items start on when start_on is true, and a stage switches some of them
    off; otherwise a stage switches some on. make(i) gives the ops that
    switch item i (0 <= i < count) away from its start state. switch(items)
    gives a stage's (ops, undo) for run_stage: the ops that switch the
    items in the order given and, when undo is true, their inverses in
    install order (otherwise None: restore by rollback).
    """

    def __init__(self, count: int, make, *, start_on: bool, undo: bool):
        self._make, self._start_on, self._undo = make, start_on, undo
        self._ops: list = [None] * count  # item -> the ops that switch it
        self._back: list = [None] * count  # item -> their inverses, with undo

    def _fill(self, i: int) -> tuple:
        ops = self._ops[i] = tuple(self._make(i))
        if self._undo:
            self._back[i] = tuple(map(inverse, ops))
        return ops

    def switch(self, items) -> tuple[list, list | None]:
        ops, fill = self._ops, self._fill
        install = [op for i in items for op in (ops[i] or fill(i))]
        return install, ([op for i in items for op in self._back[i]]
                         if self._undo else None)

    def keep_on(self, chosen) -> tuple[list, list | None]:
        """switch() for the stage that leaves exactly the items in chosen on."""
        return self._leave(chosen, True)

    def keep_off(self, chosen) -> tuple[list, list | None]:
        """switch() for the stage that leaves exactly the items in chosen off."""
        return self._leave(chosen, False)

    def _leave(self, chosen, on: bool):
        if on != self._start_on:
            return self.switch(sorted(chosen))
        chosen = set(chosen)
        return self.switch([i for i in range(len(self._ops)) if i not in chosen])

    def add_to_host(self, g: Graph) -> None:
        """With items that start on, add every item's edges to the host g."""
        if self._start_on:
            for op in self.switch(range(len(self._ops)))[0]:
                g.add_edge(op.u, op.v)


def run_stage(handle, ops, query, interpret=bool, *, undo=None,
              keep_hit: bool = False) -> bool:
    """One stage of a staged reduction: install ops, ask query, restore.

    Returns interpret(answer). With undo None the state is restored by
    rolling back to a checkpoint taken before the ops; otherwise by
    applying undo, the inverses of ops in install order (which keeps the
    op streams of the reductions as they are pinned).
    With keep_hit, a stage whose interpreted answer is true stays installed.
    """
    cp = handle.checkpoint() if undo is None else None
    for op in ops:
        handle.update(op)
    hit = interpret(handle.query(query))
    if not (keep_hit and hit):
        if undo is None:
            handle.rollback(cp)
        else:
            for op in undo:
                handle.update(op)
    return hit
