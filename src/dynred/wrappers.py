"""Problem-to-problem engine wrappers.

Each wrapper presents one problem kind while internally running an engine for
a different kind. Updates are translated with constant fan-out and the inner
engine can itself be a wrapper, so wrappers compose.

A wrapper is an EngineState of the outer kind, loaded with the outer
instance after the wrapper's own instance checks. An outer op is applied to
that state first, so it is checked, counted and undone as a direct engine
of the outer kind would do it, and only an accepted op is translated and
forwarded. Every answer comes from the inner engine.

A wrapper's counters are its own state's, plus one query per answered
query: the traffic it received. The cost spent inside is on
`handle.inner.counters`. A wrapper's checkpoint is one of its own state
that carries the inner engine's. Rollback looks it up on its own state
before it unwinds the inner engine and then its own state, so a checkpoint
not live there raises StateError and changes nothing.

Suppressed updates (fan-out zero) provably cannot change any outer answer;
they change only the wrapper's own state. The hosts of the reachability and
connectivity wrappers are unweighted, so an insert's weight, checked by the
wrapper's own state, goes no further.
"""

from __future__ import annotations

from functools import partial

from .engines import (
    KINDS,
    Checkpoint,
    EngineState,
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


class _WrapperBase(EngineState):
    """An engine of the outer kind that answers through an inner engine. A
    subclass sets its name, the kind it serves, the kind and query of its
    inner engine and inner_nodes(instance), the node count of the inner
    instance. Its _check(instance) raises DomainError on an instance it
    cannot carry, and its _host(instance) builds the inner instance."""

    outer_kind: ProblemKind = None  # set by subclasses
    inner_kind: ProblemKind = None

    def __init__(self, kind, mode, instance, inner_factory, *, scope=None):
        kind = _as_kind(kind)
        if kind is not self.outer_kind:
            raise DomainError(
                f"{type(self).__name__} serves {self.outer_kind.value}, got {kind.value}")
        mode = _as_mode(mode)
        if scope is not None and "scope" not in KINDS[kind].families:
            raise DomainError("scope applies only to set-system kinds")
        if KINDS[kind].instance is Graph and not isinstance(instance, Graph):
            raise DomainError(f"{kind.value} expects a Graph instance")
        self._check(instance)
        super().__init__(kind, mode, instance, scope=scope)
        h = self._host(instance)
        if h.node_count != self.inner_nodes(instance):
            raise ConstructionError("node budget violated")
        self.inner = inner_factory(self.inner_kind, mode, h)

    def update(self, op):
        super().update(op)
        for inner_op in self._translate(op):
            self.inner.update(inner_op)

    def query(self, q):
        check_query(self.kind, q)
        answer = self._interpret(self.inner.query(self.inner_query))
        self.counters.queries += 1
        return answer

    def checkpoint(self) -> Checkpoint:
        cp = super().checkpoint()
        cp.inner = self.inner.checkpoint()
        return cp

    def rollback(self, cp: Checkpoint) -> None:
        live_index(self, cp)  # a checkpoint not live here changes nothing
        self.inner.rollback(cp.inner)
        super().rollback(cp)

    def _host(self, instance) -> Graph:
        """The inner instance for instance."""
        raise NotImplementedError

    def _translate(self, op) -> list:
        """The inner ops for an outer op this state has accepted."""
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
    inner_kind = ProblemKind.ST_REACH
    inner_query = StReachable()
    inner_nodes = staticmethod(lambda g: 2 * g.node_count)

    def _check(self, instance: Graph) -> None:
        if instance.directed or instance.s is None or instance.t is None:
            raise DomainError("needs an undirected graph with s and t")
        if instance.active is None:
            raise DomainError("needs an active node set")

    def _host(self, instance: Graph) -> Graph:
        n = instance.node_count
        self._n = n
        always_on = set(instance.active) | {instance.s, instance.t}
        h = Graph(2 * n, directed=True, s=n + instance.s, t=instance.t)
        for u, v in instance.edges():
            h.add_edge(n + u, v)
            h.add_edge(n + v, u)
        for v in sorted(always_on):
            h.add_edge(v, n + v)
        if h.edge_count != 2 * instance.edge_count + len(always_on):
            raise ConstructionError("edge budget violated")
        self._st = {instance.s, instance.t}
        return h

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


def _check_st_digraph(self, instance: Graph) -> None:
    if not instance.directed or instance.s is None or instance.t is None:
        raise DomainError("needs a directed graph with s and t")


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
    inner_kind = ProblemKind.BPMATCH
    inner_query = HasPerfectMatching()
    inner_nodes = staticmethod(lambda g: 2 * g.node_count - 2)
    _check = _check_st_digraph

    def _host(self, instance: Graph) -> Graph:
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
        if h.edge_count != pair_edges + mapped:
            raise ConstructionError("edge budget violated")
        return h

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
    weight offset - dist with offset = (n-1)B: all n-1 matched edges weigh
    B, less the weights of the chain's arcs.
    """

    name = "stsp-via-bwm"
    outer_kind = ProblemKind.ST_SP
    inner_kind = ProblemKind.BWMATCH
    inner_query = MaxWeightPmWeight()
    inner_nodes = staticmethod(lambda g: 2 * g.node_count - 2)

    def _check(self, instance: Graph) -> None:
        if not instance.weighted or instance.s is None or instance.t is None:
            raise DomainError("needs a weighted graph with s and t")
        if instance.max_weight is None:
            raise DomainError("needs a declared max_weight")

    def _host(self, instance: Graph) -> Graph:
        self._directed = instance.directed
        n = instance.node_count
        s, t = instance.s, instance.t
        self._s, self._t = s, t
        self._base = instance.max_weight + 1
        self._out_id, self._in_id = _split_ids(n, s, t)
        self._offset = (n - 1) * self._base
        h = Graph(2 * n - 2, weighted=True, max_weight=self._base)
        for v in range(n):
            if v != s and v != t:
                h.add_edge(self._out_id(v), self._in_id(v), self._base)
        for u, v, w in instance.weighted_edges():
            for a, b in self._arc_pairs(u, v):
                h.add_edge(self._out_id(a), self._in_id(b), self._base - w)
        return h

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
    inner_kind = ProblemKind.SC
    inner_query = StronglyConnected()
    inner_nodes = staticmethod(lambda g: g.node_count)
    _check = _check_st_digraph

    def _host(self, instance: Graph) -> Graph:
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
        return h

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
    inner_kind = ProblemKind.CONN_SUB
    inner_query = InducedConnected()
    inner_nodes = staticmethod(lambda ss: ss.universe_size + len(ss) + 1)

    def _check(self, instance: SetSystem) -> None:
        if not isinstance(instance, SetSystem):
            raise DomainError("needs a SetSystem instance")

    def _host(self, instance: SetSystem) -> Graph:
        n_u = instance.universe_size
        k = len(instance)
        hub = n_u + k
        g = Graph(n_u + k + 1, active=set(range(n_u)) | {hub}
                  | {n_u + i for i in self.scope})
        edges = 0
        for i in range(k):
            for u in instance.members(i):
                g.add_edge(n_u + i, u)
                edges += 1
            g.add_edge(hub, n_u + i)
            edges += 1
        if g.edge_count != edges:
            raise ConstructionError("edge budget violated")
        self._toggles = {  # inner ops built once per set, not once per update
            AddToScope: [[ActivateNode(n_u + i)] for i in range(k)],
            RemoveFromScope: [[DeactivateNode(n_u + i)] for i in range(k)]}
        return g

    def _translate(self, op):
        return self._toggles[type(op)][op.set_id]


subunion_via_connsub = _factory_maker(SubunionViaConnsub)

# every wrapper, in the order the engines suite of verify drives them
WRAPPERS = (SubconnViaStreach, StreachViaBpm, StreachViaSc, StspViaBwm,
            SubunionViaConnsub)
