"""A wrapper is the engine of its outer kind.

Each wrapper is an EngineState of the kind it serves, and not a
DirectEngine, the class that reductions hold. Its own graph, or its sets
and scope, follow every op and a rollback exactly as a direct engine's do,
and its counters equal the direct engine's.

Each engine call has one spelling, the method on the handle: an unbound
EngineState method called on a wrapper would skip its override and leave
the inner engine behind.
"""

import dataclasses
import random

import pytest

from dynred import engines
from dynred.engines import KINDS, DirectEngine, EngineState, Mode
from dynred.sat_reductions import _engine_digest
from dynred.verify import random_engine_instance, random_valid_op
from dynred.wrappers import WRAPPERS


def _own_state(engine):
    """The engine's own graph, or its sets and sorted scope."""
    if engine.graph is not None:
        return engine.graph._state_tuple()
    return engine.sets._state_tuple(), sorted(engine.scope)


def _own_digest(engine):
    """The digest of the engine's own graph, or of its sets and scope."""
    if engine.graph is not None:
        return engine.graph.digest()
    return engine.sets.digest(), sorted(engine.scope)


@pytest.mark.parametrize("cls", WRAPPERS, ids=lambda cls: cls.name)
def test_wrapper_is_the_engine_of_its_outer_kind(cls):
    kind = cls.outer_kind
    rng = random.Random(f"engine/{cls.name}")
    for _ in range(20):
        inst, aux = random_engine_instance(kind, rng, 7)
        scope = aux.get("scope")
        h = cls(kind, Mode.FULL, inst, DirectEngine, scope=scope)
        direct = DirectEngine(kind, Mode.FULL, inst, scope=scope)
        assert isinstance(h, EngineState) and not isinstance(h, DirectEngine)
        assert _own_state(h) == _own_state(direct)
        cp, cp_direct = h.checkpoint(), direct.checkpoint()
        for _ in range(rng.randint(1, 10)):
            op = random_valid_op(kind, direct, rng, aux)
            if op is None:
                continue
            h.update(op)
            direct.update(op)
            assert _own_state(h) == _own_state(direct)
        h.rollback(cp)
        direct.rollback(cp_direct)
        assert _own_state(h) == _own_state(direct)
        assert h.counters.as_dict() == direct.counters.as_dict()


@pytest.mark.parametrize("cls", WRAPPERS, ids=lambda cls: cls.name)
def test_handle_rollback_restores_outer_and_inner_state(cls):
    """checkpoint, one valid op and rollback through the handle bring back
    both the wrapper's own state and its inner engine's."""
    kind = cls.outer_kind
    rng = random.Random(f"rollback/{cls.name}")
    applied = 0
    for _ in range(20):
        inst, aux = random_engine_instance(kind, rng, 7)
        h = cls(kind, Mode.FULL, inst, scope=aux.get("scope"))
        op = random_valid_op(kind, h, rng, aux)
        if op is None:
            continue
        outer, inner = _own_digest(h), _engine_digest(h.inner)
        cp = h.checkpoint()
        h.update(op)
        h.rollback(cp)
        assert _own_digest(h) == outer, op
        assert _engine_digest(h.inner) == inner, op
        applied += 1
    assert applied


def _outcome(engine, q):
    """("answer", value), or ("raises", error type, message)."""
    try:
        return "answer", engine.query(q)
    except Exception as e:
        return "raises", type(e), str(e)


@pytest.mark.parametrize("cls", WRAPPERS, ids=lambda cls: cls.name)
def test_wrapper_keeps_the_query_contract_of_its_outer_kind(cls):
    """Asked one query of every type the kinds answer, and an object that
    is no query, a wrapper answers as a direct engine of its outer kind
    does or raises its error, and counts as it does. A rejected query
    reaches no inner engine."""
    kind = cls.outer_kind
    types = sorted({spec.query for spec in KINDS.values()}, key=lambda t: t.__name__)
    queries = [t(*[1] * len(dataclasses.fields(t))) for t in types] + ["StReachable"]
    rng = random.Random(f"query/{cls.name}")
    for _ in range(20):
        inst, aux = random_engine_instance(kind, rng, 7)
        scope = aux.get("scope")
        h = cls(kind, Mode.FULL, inst, scope=scope)
        direct = DirectEngine(kind, Mode.FULL, inst, scope=scope)
        for q in queries:
            inner = h.inner.counters.as_dict()
            got = _outcome(h, q)
            assert got == _outcome(direct, q), q
            if got[0] == "raises":
                assert h.inner.counters.as_dict() == inner, q
        assert h.counters.as_dict() == direct.counters.as_dict()


def test_engines_has_no_functional_spelling():
    """The functional aliases of the engine calls and the factory alias of
    DirectEngine are gone for good. The names are built from parts, so a
    search of the sources for a caller of the old names finds none."""
    names = [f"engine_{verb}" for verb in
             ("new", "update", "query", "checkpoint", "rollback")]
    for name in names + ["direct_" + "factory"]:
        assert not hasattr(engines, name), name
