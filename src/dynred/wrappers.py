"""Problem-to-problem engine wrappers.

Each wrapper presents one problem kind while internally running an engine for
a different kind. Updates are translated with constant fan-out and the inner
engine can itself be a wrapper, so wrappers compose. A wrapper class is its
own engine factory, over a DirectEngine unless partial(cls, inner_factory=f)
puts it over engines made by f, such as another wrapper class. Reductions
build their DirectEngine themselves. A factory is taken in four places only:
sat_via_subunion and min_weight_triangle_via_stsp, which the connsub and
mwt-bwm reductions run over a wrapper; triangle_via_streach_decremental,
whose deletions tests record through a substitute handle; and inner_factory
here, which stacks wrappers.

A wrapper is an EngineState of the outer kind, loaded with the outer
instance, so it accepts or rejects an instance, with the same error, as a
direct engine of that kind does. The one rule a wrapper adds is
StspViaBwm's: the instance must declare its max_weight. An outer op is
applied to that state first, so it is checked, counted and undone as a
direct engine of the outer kind would do it, and only an accepted op is
translated and forwarded. Every answer comes from the inner engine.

A subclass defines _host(instance), the inner instance, _translate(op),
the inner ops for an accepted outer op, and optionally _interpret(answer).
The query contract is EngineState's: EngineState.query checks the type,
asks the inner engine and counts the answer. StreachViaBpm and StspViaBwm
share one split graph and state only its weights.

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

from .engines import (
    KINDS,
    Checkpoint,
    DirectEngine,
    EngineState,
    ProblemKind,
    _as_kind,
    live_index,
)
from .model import (
    ActivateNode,
    AddToScope,
    DeactivateNode,
    DeleteEdge,
    DomainError,
    Graph,
    InsertEdge,
    RemoveFromScope,
    SetSystem,
)


class _WrapperBase(EngineState):
    """An engine of the outer kind that answers through an inner engine.
    KINDS says which instances it takes, as for a direct engine of that
    kind; the host is built only once that state has accepted the instance.
    A subclass sets its name, the kind it serves, the kind of its inner
    engine and inner_nodes(instance), the node count of the inner instance,
    and defines _host(instance), which builds the inner instance of that
    size, _translate(op) and optionally _interpret(answer). Queries keep
    EngineState.query's contract, with an answer function that asks the
    inner engine. The class is an engine factory; inner_factory defaults to
    DirectEngine."""

    outer_kind: ProblemKind = None  # set by subclasses
    inner_kind: ProblemKind = None

    def __init__(self, kind, mode, instance, inner_factory=DirectEngine, *, scope=None):
        kind = _as_kind(kind)
        if kind is not self.outer_kind:
            raise DomainError(
                f"{type(self).__name__} serves {self.outer_kind.value}, got {kind.value}")
        super().__init__(kind, mode, instance, scope=scope)
        inner_query = KINDS[self.inner_kind].query()
        self.inner = inner_factory(self.inner_kind, self.mode, self._host(instance))
        self._answer_fn = lambda h, q: h._interpret(h.inner.query(inner_query))

    def update(self, op):
        super().update(op)
        for inner_op in self._translate(op):
            self.inner.update(inner_op)

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
    inner_nodes = staticmethod(lambda g: 2 * g.node_count)

    def _host(self, instance: Graph) -> Graph:
        n = instance.node_count
        self._n = n
        always_on = set(instance.active) | {instance.s, instance.t}
        h = Graph(self.inner_nodes(instance), directed=True, s=n + instance.s,
                  t=instance.t)
        for u, v in instance.edges():
            h.add_edge(n + u, v)
            h.add_edge(n + v, u)
        for v in sorted(always_on):
            h.add_edge(v, n + v)
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


# ---------------------------------------------------------------------------
# reachability and shortest path via matching on the split graph


class _SplitGraphWrapper(_WrapperBase):
    """A matching engine over the split graph of an s-t graph G on n nodes.

    The host has 2n - 2 nodes: out-copies of V minus t in [0, n-1), then
    in-copies of V minus s in [n-1, 2n-2). Every node other than s and t
    carries a pair edge {v_out, v_in}; an arc (u, v) of G becomes the edge
    {u_out, v_in}, and an undirected edge both of its arcs. Arcs into s or
    out of t lie on no simple s-to-t path and are suppressed (fan-out 0).
    """

    inner_nodes = staticmethod(lambda g: 2 * g.node_count - 2)

    def _weights(self, instance: Graph):
        """(pair-edge weight, map from an arc's weight to its edge's); on
        an unweighted host the weight is None and the map gives None."""
        raise NotImplementedError

    def _host(self, instance: Graph) -> Graph:
        pair, self._arc_weight = self._weights(instance)
        n, s, t = instance.node_count, instance.s, instance.t
        self._n, self._s, self._t = n, s, t
        self._directed = instance.directed
        h = Graph(self.inner_nodes(instance), weighted=pair is not None, max_weight=pair)
        for v in range(n):
            if v != s and v != t:
                h.add_edge(*self._edge(v, v), pair)
        for u, v, w in instance.weighted_edges():
            for a, b in self._arcs(u, v):
                h.add_edge(*self._edge(a, b), self._arc_weight(w))
        return h

    def _edge(self, a: int, b: int) -> tuple[int, int]:
        """The host edge {a_out, b_in}; (v, v) gives v's pair edge."""
        return a - (a > self._t), self._n - 1 + b - (b > self._s)

    def _arcs(self, u: int, v: int) -> list[tuple[int, int]]:
        """The arcs a stored edge carries, less those suppressed."""
        arcs = [(u, v)] if self._directed else [(u, v), (v, u)]
        return [(a, b) for a, b in arcs if a != self._t and b != self._s]

    def _translate(self, op):
        if isinstance(op, InsertEdge):
            w = self._arc_weight(op.w)
            return [InsertEdge(*self._edge(a, b), w) for a, b in self._arcs(op.u, op.v)]
        return [DeleteEdge(*self._edge(a, b)) for a, b in self._arcs(op.u, op.v)]


class StreachViaBpm(_SplitGraphWrapper):
    """s-t reachability as perfect-matching existence on the split graph.

    A perfect matching traces an s-to-t path through forced chains of pair
    edges, so it exists iff t is reachable. The host is unweighted.
    """

    name = "streach-via-bpm"
    outer_kind = ProblemKind.ST_REACH
    inner_kind = ProblemKind.BPMATCH

    def _weights(self, instance):
        return None, lambda w: None


class StspViaBwm(_SplitGraphWrapper):
    """s-t shortest path distance through a max-weight perfect matching.

    On the split graph, pair edges weigh B = max_weight + 1 and an arc of
    weight w maps to B - w (always >= 1). The best matching swaps pair
    edges for one forced s-to-t chain and never keeps a cycle, giving
    weight offset - dist with offset = (n-1)B: all n-1 matched edges weigh
    B, less the weights of the chain's arcs.
    """

    name = "stsp-via-bwm"
    outer_kind = ProblemKind.ST_SP
    inner_kind = ProblemKind.BWMATCH

    def _weights(self, instance):
        if instance.max_weight is None:  # pair edges weigh max_weight + 1
            raise DomainError("needs a declared max_weight")
        base = instance.max_weight + 1
        self._offset = (instance.node_count - 1) * base
        return base, lambda w: base - w

    def _interpret(self, w):
        return None if w is None else self._offset - w


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
    inner_nodes = staticmethod(lambda g: g.node_count)

    def _host(self, instance: Graph) -> Graph:
        n = instance.node_count
        s, t = instance.s, instance.t
        self._s, self._t = s, t
        h = Graph(self.inner_nodes(instance), directed=True)
        for v in range(n):
            if v not in (s, t):
                h.add_edge(v, s)
                h.add_edge(t, v)
        if n == 2:
            h.add_edge(t, s)
        for u, v in instance.edges():
            if v == s or u == t:
                continue
            h.add_edge(u, v)
        return h

    def _translate(self, op):
        if op.v == self._s or op.u == self._t:
            return []  # shadowed by a permanent arc or irrelevant to s -> t
        return [type(op)(op.u, op.v)]  # same node ids inside


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
    inner_nodes = staticmethod(lambda ss: ss.universe_size + len(ss) + 1)

    def _host(self, instance: SetSystem) -> Graph:
        n_u = instance.universe_size
        k = len(instance)
        hub = n_u + k
        g = Graph(self.inner_nodes(instance), active=set(range(n_u)) | {hub}
                  | {n_u + i for i in self.scope})
        for i in range(k):
            for u in instance.members(i):
                g.add_edge(n_u + i, u)
            g.add_edge(hub, n_u + i)
        self._toggles = {  # inner ops built once per set, not once per update
            AddToScope: [[ActivateNode(n_u + i)] for i in range(k)],
            RemoveFromScope: [[DeactivateNode(n_u + i)] for i in range(k)]}
        return g

    def _translate(self, op):
        return self._toggles[type(op)][op.set_id]


# every wrapper, in the order the engines suite of verify drives them
WRAPPERS = (SubconnViaStreach, StreachViaBpm, StreachViaSc, StspViaBwm,
            SubunionViaConnsub)
