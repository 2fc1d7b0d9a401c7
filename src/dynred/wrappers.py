"""Problem-to-problem engine wrappers.

Each wrapper presents one problem kind while internally running an engine for
a different kind. Updates are translated with constant fan-out and the inner
engine can itself be a wrapper, so wrappers compose.

Each wrapper keeps the outer instance in a bare EngineState (no handle) of
the outer kind, built after the wrapper's own instance checks. An outer op
is applied to that state first, so it is checked, counted and undone as a
direct engine of the outer kind would do it, and only an accepted op is
translated and forwarded. Every answer comes from the inner engine.

A wrapper's counters are the outer state's, plus one query per answered
query: the traffic it received. The cost spent inside is on
`handle.inner.counters`. A wrapper's checkpoint is one of the outer state
that carries the inner engine's. Rollback looks it up on the outer state
before it unwinds the inner engine and then the outer state, so a checkpoint
not live there raises StateError and changes nothing.

Suppressed updates (fan-out zero) provably cannot change any outer answer;
they change only the outer state. The hosts of the reachability and
connectivity wrappers are unweighted, so an insert's weight, checked by the
outer state, goes no further.
"""

from __future__ import annotations

from functools import partial

from .engines import (
    KINDS,
    Checkpoint,
    EngineState,
    Mode,
    ProblemKind,
    _as_kind,
    _as_mode,
    check_query,
    direct_factory,
    live_index,
)
from .model import (
    ActivateNode,
    AddToScope,
    ConstructionError,
    DeactivateNode,
    DeleteEdge,
    DomainError,
    Graph,
    HasPerfectMatching,
    InducedConnected,
    InsertEdge,
    MaxWeightPmWeight,
    RemoveFromScope,
    SetSystem,
    StReachable,
    StronglyConnected,
)


class _WrapperBase:
    """Common handle plumbing: legality, counting, checkpointing. A subclass
    sets its name, the kind it serves, the query it asks its inner engine
    and inner_nodes(instance), the node count of the inner instance. It
    calls _load after its own instance checks and before building its
    inner engine."""

    outer_kind: ProblemKind = None  # set by subclasses

    def __init__(self, kind, mode, instance, scope=None):
        kind = _as_kind(kind)
        if kind is not self.outer_kind:
            raise DomainError(
                f"{type(self).__name__} serves {self.outer_kind.value}, got {kind.value}")
        self.mode = _as_mode(mode)
        if scope is not None and "scope" not in KINDS[kind].families:
            raise DomainError("scope applies only to set-system kinds")
        if KINDS[kind].instance is Graph and not isinstance(instance, Graph):
            raise DomainError(f"{kind.value} expects a Graph instance")
        self.kind = kind
        self.inner = None  # subclasses attach after building the inner instance

    def _load(self, instance, scope=None) -> None:
        """Keep the outer instance in an engine state of the outer kind."""
        self._outer = EngineState(self.kind, self.mode, instance, scope=scope)
        self.counters = self._outer.counters

    def update(self, op):
        self._outer.update(op)
        for inner_op in self._translate(op):
            self.inner.update(inner_op)

    def query(self, q):
        check_query(self.kind, q)
        answer = self._interpret(self.inner.query(self.inner_query))
        self.counters.queries += 1
        return answer

    def checkpoint(self) -> Checkpoint:
        cp = self._outer.checkpoint()
        cp.inner = self.inner.checkpoint()
        return cp

    def rollback(self, cp: Checkpoint) -> None:
        live_index(self._outer, cp)  # a checkpoint not live here changes nothing
        self.inner.rollback(cp.inner)
        self._outer.rollback(cp)

    def _translate(self, op) -> list:
        """The inner ops for an outer op the outer state has accepted."""
        raise NotImplementedError

    def _interpret(self, inner_answer):
        """The outer answer for the inner engine's answer."""
        return inner_answer


def _factory_maker(cls):
    """The public maker for cls: maker(inner_factory) returns an engine
    factory that builds cls over engines made by inner_factory."""
    def maker(inner_factory=direct_factory):
        return partial(cls, inner_factory=inner_factory)
    return maker


# ---------------------------------------------------------------------------
# subgraph s-t connectivity via directed reachability


class SubconnViaStreach(_WrapperBase):
    """Node-toggled undirected connectivity on top of a reachability engine.

    Every node v splits into v_in = v and v_out = n + v. Undirected edges
    become the two arcs (u_out, v_in) and (v_out, u_in); an active node
    contributes the arc (v_in, v_out). Toggling a node is one arc op
    (fan-out 1), an edge op is two arc ops (fan-out 2).
    """

    name = "subconn-via-streach"
    outer_kind = ProblemKind.ST_SUBCONN
    inner_query = StReachable()
    inner_nodes = staticmethod(lambda g: 2 * g.node_count)

    def __init__(self, kind, mode, instance: Graph, inner_factory, *, scope=None):
        super().__init__(kind, mode, instance, scope)
        if instance.directed or instance.s is None or instance.t is None:
            raise DomainError("needs an undirected graph with s and t")
        if instance.active is None:
            raise DomainError("needs an active node set")
        self._load(instance)
        n = instance.node_count
        self._n = n
        always_on = set(instance.active) | {instance.s, instance.t}
        h = Graph(2 * n, directed=True, s=n + instance.s, t=instance.t)
        for u, v in instance.edges():
            h.add_edge(n + u, v)
            h.add_edge(n + v, u)
        for v in sorted(always_on):
            h.add_edge(v, n + v)
        if h.node_count != self.inner_nodes(instance):
            raise ConstructionError("node budget violated")
        if h.edge_count != 2 * instance.edge_count + len(always_on):
            raise ConstructionError("edge budget violated")
        self._st = {instance.s, instance.t}
        self.inner = inner_factory(ProblemKind.ST_REACH, self.mode, h)

    def _translate(self, op):
        n = self._n
        if isinstance(op, (ActivateNode, DeactivateNode)) and op.v in self._st:
            return []  # s and t are implicitly always on
        if isinstance(op, ActivateNode):
            return [InsertEdge(op.v, n + op.v)]
        if isinstance(op, DeactivateNode):
            return [DeleteEdge(op.v, n + op.v)]
        if isinstance(op, InsertEdge):
            return [InsertEdge(n + op.u, op.v), InsertEdge(n + op.v, op.u)]
        return [DeleteEdge(n + op.u, op.v), DeleteEdge(n + op.v, op.u)]


subconn_via_streach = _factory_maker(SubconnViaStreach)


# ---------------------------------------------------------------------------
# directed reachability via perfect matching


def _split_ids(n: int, s: int, t: int):
    """Id maps for the split graph on 2n - 2 nodes: out-copies of V minus t
    in [0, n-1), in-copies of V minus s in [n-1, 2n-2)."""
    def out_id(v: int) -> int:
        return v - (v > t)

    def in_id(v: int) -> int:
        return (n - 1) + v - (v > s)

    return out_id, in_id


class StreachViaBpm(_WrapperBase):
    """s-t reachability as perfect-matching existence on a split graph.

    Arcs (u, v) become edges {u_out, v_in}; each ordinary node carries a
    permanent pair edge {v_in, v_out}. A perfect matching traces an s-to-t
    path through forced chains, so it exists iff t is reachable. Arcs into s
    or out of t cannot lie on such a path and are suppressed (fan-out 0).
    """

    name = "streach-via-bpm"
    outer_kind = ProblemKind.ST_REACH
    inner_query = HasPerfectMatching()
    inner_nodes = staticmethod(lambda g: 2 * g.node_count - 2)

    def __init__(self, kind, mode, instance: Graph, inner_factory, *, scope=None):
        super().__init__(kind, mode, instance, scope)
        if not instance.directed or instance.s is None or instance.t is None:
            raise DomainError("needs a directed graph with s and t")
        self._load(instance)
        n = instance.node_count
        s, t = instance.s, instance.t
        self._s, self._t = s, t
        self._out_id, self._in_id = _split_ids(n, s, t)
        h = Graph(2 * n - 2)
        pair_edges = 0
        for v in range(n):
            if v != s and v != t:
                h.add_edge(self._out_id(v), self._in_id(v))
                pair_edges += 1
        mapped = 0
        for u, v in instance.edges():
            if u == t or v == s:
                continue
            h.add_edge(self._out_id(u), self._in_id(v))
            mapped += 1
        if h.node_count != self.inner_nodes(instance):
            raise ConstructionError("node budget violated")
        if h.edge_count != pair_edges + mapped:
            raise ConstructionError("edge budget violated")
        self.inner = inner_factory(ProblemKind.BPMATCH, self.mode, h)

    def _translate(self, op):
        if op.u == self._t or op.v == self._s:
            return []
        if isinstance(op, InsertEdge):
            return [InsertEdge(self._out_id(op.u), self._in_id(op.v))]
        return [DeleteEdge(self._out_id(op.u), self._in_id(op.v))]


streach_via_bpm = _factory_maker(StreachViaBpm)


# ---------------------------------------------------------------------------
# shortest path via max-weight perfect matching


class StspViaBwm(_WrapperBase):
    """s-t shortest path distance through a max-weight perfect matching.

    Split graph as in StreachViaBpm; pair edges weigh B = max_weight + 1 and
    an arc of weight w maps to B - w (always >= 1). The best matching swaps
    pair edges for one forced s-to-t chain and never keeps a cycle, giving
    weight offset - dist. The offset law is confirmed on a 3-node probe at
    construction time.
    """

    name = "stsp-via-bwm"
    outer_kind = ProblemKind.ST_SP
    inner_query = MaxWeightPmWeight()
    inner_nodes = staticmethod(lambda g: 2 * g.node_count - 2)

    def __init__(self, kind, mode, instance: Graph, inner_factory, *, scope=None):
        super().__init__(kind, mode, instance, scope)
        if not instance.weighted or instance.s is None or instance.t is None:
            raise DomainError("needs a weighted graph with s and t")
        if instance.max_weight is None:
            raise DomainError("needs a declared max_weight")
        self._load(instance)
        self._directed = instance.directed
        n = instance.node_count
        s, t = instance.s, instance.t
        self._s, self._t = s, t
        self._base = instance.max_weight + 1
        self._out_id, self._in_id = _split_ids(n, s, t)
        law = _validated_offset_law()
        self._offset = (n - 1 if law == "n-1" else n) * self._base
        h = Graph(2 * n - 2, weighted=True, max_weight=self._base)
        for v in range(n):
            if v != s and v != t:
                h.add_edge(self._out_id(v), self._in_id(v), self._base)
        for u, v, w in instance.weighted_edges():
            for a, b in self._arc_pairs(u, v):
                h.add_edge(self._out_id(a), self._in_id(b), self._base - w)
        if h.node_count != self.inner_nodes(instance):
            raise ConstructionError("node budget violated")
        self.inner = inner_factory(ProblemKind.BWMATCH, self.mode, h)

    def _arc_pairs(self, u, v):
        """Arcs carried by one stored edge, with degenerate endpoints dropped."""
        arcs = [(u, v)] if self._directed else [(u, v), (v, u)]
        return [(a, b) for a, b in arcs if a != self._t and b != self._s]

    def _translate(self, op):
        arcs = self._arc_pairs(op.u, op.v)
        if isinstance(op, InsertEdge):
            return [InsertEdge(self._out_id(a), self._in_id(b), self._base - op.w)
                    for a, b in arcs]
        return [DeleteEdge(self._out_id(a), self._in_id(b)) for a, b in arcs]

    def _interpret(self, w):
        return None if w is None else self._offset - w


_OFFSET_LAW: str | None = None


def _validated_offset_law() -> str:
    """Confirm the matching-weight offset on a three-node probe path; cached.

    Probe: s -> a -> t with unit weights, so dist = 2, n = 3, B = 2. The
    matching weight W must satisfy offset - W = 2 for exactly one of the
    candidate offsets (n-1)B and nB.
    """
    global _OFFSET_LAW
    if _OFFSET_LAW is not None:
        return _OFFSET_LAW
    probe = Graph(4, weighted=True, max_weight=2)
    # nodes: s_out=0, a_out=1, a_in=2, t_in=3 with B = 2
    probe.add_edge(1, 2, 2)      # pair edge for a
    probe.add_edge(0, 2, 1)      # arc s -> a, weight B - 1
    probe.add_edge(1, 3, 1)      # arc a -> t
    w = EngineState(ProblemKind.BWMATCH, Mode.FULL, probe).query(MaxWeightPmWeight())
    if (3 - 1) * 2 - w == 2:
        _OFFSET_LAW = "n-1"
    elif 3 * 2 - w == 2:
        _OFFSET_LAW = "n"
    else:
        raise ConstructionError(f"probe matching weight {w} fits no offset law")
    return _OFFSET_LAW


stsp_via_bwm = _factory_maker(StspViaBwm)


# ---------------------------------------------------------------------------
# reachability via strong connectivity


class StreachViaSc(_WrapperBase):
    """s-t reachability as strong connectivity after adding return arcs.

    Permanent arcs (v, s) and (t, v) for every other node v (plus (t, s) when
    s and t are the only nodes) make the whole graph strongly connected
    exactly when t is reachable from s. Outer ops that coincide with a
    permanent arc, or that target arcs into s / out of t, are suppressed:
    such arcs cannot change s-to-t reachability.
    """

    name = "streach-via-sc"
    outer_kind = ProblemKind.ST_REACH
    inner_query = StronglyConnected()
    inner_nodes = staticmethod(lambda g: g.node_count)

    def __init__(self, kind, mode, instance: Graph, inner_factory, *, scope=None):
        super().__init__(kind, mode, instance, scope)
        if not instance.directed or instance.s is None or instance.t is None:
            raise DomainError("needs a directed graph with s and t")
        self._load(instance)
        n = instance.node_count
        s, t = instance.s, instance.t
        self._s, self._t = s, t
        h = Graph(n, directed=True)
        permanent = 0
        for v in range(n):
            if v not in (s, t):
                h.add_edge(v, s)
                h.add_edge(t, v)
                permanent += 2
        if n == 2:
            h.add_edge(t, s)
            permanent += 1
        mapped = 0
        for u, v in instance.edges():
            if v == s or u == t:
                continue
            h.add_edge(u, v)
            mapped += 1
        if h.edge_count != permanent + mapped:
            raise ConstructionError("edge budget violated")
        self.inner = inner_factory(ProblemKind.SC, self.mode, h)

    def _translate(self, op):
        if op.v == self._s or op.u == self._t:
            return []  # shadowed by a permanent arc or irrelevant to s -> t
        return [type(op)(op.u, op.v)]  # same node ids inside


streach_via_sc = _factory_maker(StreachViaSc)


# ---------------------------------------------------------------------------
# scoped union via induced connectivity


class SubunionViaConnsub(_WrapperBase):
    """Scope-union coverage as connectivity of an induced star-of-sets graph.

    Universe elements occupy [0, nU), one node per set follows, then a hub
    adjacent to every set node. Elements and hub are always active; a set
    node is active while the set is in scope. The active subgraph is
    connected exactly when every element is covered by some scoped set.
    """

    name = "subunion-via-connsub"
    outer_kind = ProblemKind.SUB_UNION
    inner_query = InducedConnected()
    inner_nodes = staticmethod(lambda ss: ss.universe_size + len(ss) + 1)

    def __init__(self, kind, mode, instance: SetSystem, inner_factory, *, scope=None):
        super().__init__(kind, mode, instance, scope)
        if not isinstance(instance, SetSystem):
            raise DomainError("needs a SetSystem instance")
        self._load(instance, scope)  # range-checks the scope
        n_u = instance.universe_size
        k = len(instance)
        hub = n_u + k
        g = Graph(n_u + k + 1, active=set(range(n_u)) | {hub}
                  | {n_u + i for i in self._outer.scope})
        edges = 0
        for i in range(k):
            for u in instance.members(i):
                g.add_edge(n_u + i, u)
                edges += 1
            g.add_edge(hub, n_u + i)
            edges += 1
        if g.node_count != self.inner_nodes(instance) or g.edge_count != edges:
            raise ConstructionError("size budget violated")
        self._toggles = {  # inner ops built once per set, not once per update
            AddToScope: [[ActivateNode(n_u + i)] for i in range(k)],
            RemoveFromScope: [[DeactivateNode(n_u + i)] for i in range(k)]}
        self.inner = inner_factory(ProblemKind.CONN_SUB, self.mode, g)

    def _translate(self, op):
        return self._toggles[type(op)][op.set_id]


subunion_via_connsub = _factory_maker(SubunionViaConnsub)

# every wrapper, in the order the engines suite of verify drives them
WRAPPERS = (SubconnViaStreach, StreachViaBpm, StreachViaSc, StspViaBwm,
            SubunionViaConnsub)
