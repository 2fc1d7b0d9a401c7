"""A failed update or rollback changes nothing.

Engines of every kind and each of the five wrappers get random valid ops
mixed with invalid ones: ids out of range, self-loops, duplicate and
missing edges, nodes and scope sets in the wrong state, bad weights, ops of
a family the kind does not take, and ops the mode forbids. Any update that
raises must leave the innermost state digest and all four counters of every
handle in the chain exactly as they were. The same holds for a rollback to
a checkpoint the handle did not issue, or one already consumed.
"""

import random

import pytest

from dynred.engines import (
    KINDS,
    DirectEngine,
    Mode,
    ProblemKind,
    innermost,
)
from dynred.model import (
    ActivateNode,
    AddToScope,
    DeactivateNode,
    DeleteEdge,
    DomainError,
    Graph,
    GuardError,
    InsertEdge,
    InsertSet,
    IntersectSets,
    ModeError,
    RemoveFromScope,
    SetSystem,
    StateError,
)
from dynred.sat_reductions import _engine_digest
from dynred.verify import random_engine_instance, random_valid_op
from dynred.wrappers import (
    StreachViaBpm,
    StreachViaSc,
    StspViaBwm,
    SubconnViaStreach,
    SubunionViaConnsub,
)

_ERRORS = (DomainError, StateError, ModeError, GuardError)

SET_KINDS = {k for k, spec in KINDS.items() if spec.instance is SetSystem}
NODE_OP_KINDS = {k for k, spec in KINDS.items() if "node" in spec.families}

WRAPPERS = {
    "subconn-via-streach": (ProblemKind.ST_SUBCONN, SubconnViaStreach),
    "streach-via-bpm": (ProblemKind.ST_REACH, StreachViaBpm),
    "streach-via-sc": (ProblemKind.ST_REACH, StreachViaSc),
    "stsp-via-bwm": (ProblemKind.ST_SP, StspViaBwm),
    "subunion-via-connsub": (ProblemKind.SUB_UNION, SubunionViaConnsub),
}


def _chain(handle):
    chain = [handle]
    while getattr(chain[-1], "inner", None) is not None:
        chain.append(chain[-1].inner)
    return chain


def _snapshot(handle):
    return _engine_digest(handle), [h.counters.as_dict() for h in _chain(handle)]


def _invalid_op(kind, state, rng):
    """An op that the direct engine for kind rejects in state."""
    if kind in SET_KINDS:
        sets = state.sets
        k = len(sets)
        options = [InsertEdge(0, 1), ActivateNode(0),
                   AddToScope(rng.choice((k, -1))),
                   RemoveFromScope(rng.choice((k, -1))),
                   InsertSet(frozenset({sets.universe_size})),
                   IntersectSets(0, k), IntersectSets(-1, 0)]
        if kind is ProblemKind.SUB_UNION:
            if state.scope:
                options.append(AddToScope(rng.choice(sorted(state.scope))))
            out = sorted(set(range(k)) - state.scope)
            if out:
                options.append(RemoveFromScope(rng.choice(out)))
        return rng.choice(options)
    g = state.graph
    n = g.node_count
    x, y = rng.randrange(n), rng.randrange(n)
    w = rng.randint(1, g.max_weight) if g.weighted else None
    options = [InsertEdge(x, x, w), DeleteEdge(x, x),
               InsertEdge(x, rng.choice((n, -1, n + y, 2 * n)), w),
               InsertEdge(rng.choice((n, -1, n + y)), x, w),
               DeleteEdge(rng.choice((n, -1, n + y)), x),
               DeleteEdge(x, rng.choice((n, -1, n + y))),
               AddToScope(0), InsertSet(frozenset())]
    if g.weighted:
        options += [InsertEdge(x, y), InsertEdge(x, y, g.max_weight + 1),
                    InsertEdge(x, y, 0)]
    else:
        options.append(InsertEdge(x, y, 1))
    edges = g.edges()
    if edges:
        u, v = rng.choice(edges)
        options.append(InsertEdge(u, v, w))
        if not g.directed:
            options.append(InsertEdge(v, u, w))
    absent = [(u, v) for u in range(n) for v in range(n)
              if u != v and not g.has_edge(u, v)]
    if absent:
        options.append(DeleteEdge(*rng.choice(absent)))
    if kind in NODE_OP_KINDS:
        options += [ActivateNode(rng.choice((n, -1)))]
        if g.active:
            options.append(ActivateNode(rng.choice(sorted(g.active))))
        inactive = sorted(set(range(n)) - g.active)
        if inactive:
            options.append(DeactivateNode(rng.choice(inactive)))
    else:
        options.append(ActivateNode(x))
    return rng.choice(options)


def _next_op(kind, state, rng, aux):
    """A valid op (possibly illegal in mode), or an invalid one."""
    if rng.random() < 0.5:
        op = random_valid_op(kind, state, rng, aux)
        if op is not None:
            return op
    return _invalid_op(kind, state, rng)


def _drive(handle, mirror, kind, rng, aux, steps):
    """Apply steps ops to handle, drawn from mirror's state. Returns the
    number of updates that raised."""
    failed = 0
    for _ in range(steps):
        op = _next_op(kind, mirror, rng, aux)
        before = _snapshot(handle)
        try:
            handle.update(op)
        except _ERRORS:
            assert _snapshot(handle) == before, (kind, op)
            failed += 1
            continue
        if handle is not mirror:
            try:
                mirror.update(op)
            except _ERRORS:
                pass  # a wrapper accepts ops on arcs it suppresses
    return failed


@pytest.mark.parametrize("kind", list(ProblemKind), ids=lambda k: k.value)
def test_failed_engine_update_changes_nothing(kind):
    rng = random.Random(f"atomic/{kind.value}")
    failed = 0
    for _ in range(12):
        mode = rng.choice(list(Mode))
        inst, aux = random_engine_instance(kind, rng, 7)
        eng = DirectEngine(kind, mode, inst, scope=aux.get("scope"))
        if rng.random() < 0.5:
            eng.checkpoint()  # updates are logged too
        failed += _drive(eng, eng, kind, rng, aux, 30)
    assert failed > 50


@pytest.mark.parametrize("name", sorted(WRAPPERS))
def test_failed_wrapper_update_changes_nothing(name):
    kind, factory = WRAPPERS[name]
    rng = random.Random(f"atomic/{name}")
    failed = 0
    for _ in range(12):
        mode = rng.choice(list(Mode))
        inst, aux = random_engine_instance(kind, rng, 7)
        scope = aux.get("scope")
        handle = factory(kind, mode, inst, scope=scope)
        mirror = DirectEngine(kind, mode, inst, scope=scope)
        if rng.random() < 0.5:
            handle.checkpoint()
        failed += _drive(handle, mirror, kind, rng, aux, 30)
    assert failed > 50


@pytest.mark.parametrize("op", [InsertEdge(2, 2), DeleteEdge(2, 2),
                                InsertEdge(-1, 2), InsertEdge(1, 6),
                                DeleteEdge(1, 6)])
def test_two_arc_fanout_rejects_bad_ids_before_forwarding(op):
    g = Graph(4, s=0, t=3, active={1})
    g.add_edge(0, 1)
    g.add_edge(2, 3)
    handle = SubconnViaStreach(ProblemKind.ST_SUBCONN, "full", g)
    before = _snapshot(handle)
    with pytest.raises(DomainError):
        handle.update(op)
    assert _snapshot(handle) == before


def _outcome(handle, op):
    try:
        handle.update(op)
    except _ERRORS as exc:  # the exception type is what is compared
        return type(exc).__name__
    return None


@pytest.mark.parametrize("name", sorted(WRAPPERS))
def test_wrapper_raises_what_the_direct_engine_raises(name):
    """Same ops, same outcome: a wrapper and a direct engine of its outer
    kind accept the same ops and raise the same exception types."""
    kind, factory = WRAPPERS[name]
    rng = random.Random(f"parity/{name}")
    mismatched = []
    for trial in range(200):
        mode = rng.choice(list(Mode))
        inst, aux = random_engine_instance(kind, rng, 7)
        scope = aux.get("scope")
        handle = factory(kind, mode, inst, scope=scope)
        direct = DirectEngine(kind, mode, inst, scope=scope)
        for _ in range(30):
            op = _next_op(kind, direct, rng, aux)
            got, want = _outcome(handle, op), _outcome(direct, op)
            if got != want:
                mismatched.append((trial, mode.value, op, got, want))
                break
    assert mismatched == []


_ALLOW = {Mode.FULL: ("insert", "delete"), Mode.INCREMENTAL: ("insert",),
          Mode.DECREMENTAL: ("delete",)}


def _valid_updates(handle, kind, rng, aux, steps):
    """Apply up to steps random valid ops that the mode allows."""
    for _ in range(steps):
        op = random_valid_op(kind, handle, rng, aux, allow=_ALLOW[handle.mode])
        if op is not None:
            handle.update(op)


def _misused_checkpoints(handle, twin, stranger, kind, rng, aux):
    """Checkpoints handle must refuse while it has live ones with logged
    updates: a twin's, one rolled back, one consumed by a rollback to an
    earlier checkpoint, stranger's (of the other handle type) and a
    non-checkpoint. Returns them with handle's oldest live checkpoint."""
    base = handle.checkpoint()
    _valid_updates(handle, kind, rng, aux, 3)
    early = handle.checkpoint()
    _valid_updates(handle, kind, rng, aux, 3)
    done = handle.checkpoint()
    _valid_updates(handle, kind, rng, aux, 3)
    handle.rollback(done)
    consumed = handle.checkpoint()
    _valid_updates(handle, kind, rng, aux, 3)
    handle.rollback(early)
    _valid_updates(handle, kind, rng, aux, 3)
    return base, [twin.checkpoint(), done, consumed, stranger, object()]


def _check_misuse(factory, kind, stranger_of, name):
    rng = random.Random(f"checkpoints/{name}")
    undone = 0
    for _ in range(10):
        mode = rng.choice(list(Mode))
        inst, aux = random_engine_instance(kind, rng, 7)
        scope = aux.get("scope")
        handle = factory(kind, mode, inst, scope=scope)
        twin = factory(kind, mode, inst, scope=scope)
        stranger = stranger_of(handle, mode, inst, scope)
        base, misused = _misused_checkpoints(handle, twin, stranger, kind,
                                             rng, aux)
        for cp in misused:
            before = _snapshot(handle)
            with pytest.raises(StateError):
                handle.rollback(cp)
            assert _snapshot(handle) == before, (name, cp)
        before = handle.counters.rollback_ops
        handle.rollback(base)  # the live checkpoint still works
        undone += handle.counters.rollback_ops > before
    assert undone >= 3  # refused rollbacks had logged updates to undo


@pytest.mark.parametrize("kind", list(ProblemKind), ids=lambda k: k.value)
def test_misused_checkpoint_changes_nothing(kind):
    wrapper = SubconnViaStreach(
        ProblemKind.ST_SUBCONN, "full", Graph(2, s=0, t=1, active=set()))
    _check_misuse(DirectEngine, kind,
                  lambda handle, mode, inst, scope: wrapper.checkpoint(),
                  kind.value)


@pytest.mark.parametrize("name", sorted(WRAPPERS))
@pytest.mark.parametrize("stranger", ["direct", "innermost"])
def test_misused_wrapper_checkpoint_changes_nothing(name, stranger):
    kind, factory = WRAPPERS[name]

    def stranger_of(handle, mode, inst, scope):
        if stranger == "innermost":  # live on the engine under the wrapper
            return innermost(handle).checkpoint()
        return DirectEngine(kind, mode, inst, scope=scope).checkpoint()

    _check_misuse(factory, kind, stranger_of, name)
