"""A wrapper is the engine of its outer kind.

Each wrapper is an EngineState of the kind it serves, and not a
DirectEngine, the class that reductions hold. Its own graph, or its sets
and scope, follow every op and a rollback exactly as a direct engine's do,
and its counters equal the direct engine's.
"""

import random

import pytest

from dynred.engines import DirectEngine, EngineState, Mode, direct_factory
from dynred.verify import random_engine_instance, random_valid_op
from dynred.wrappers import WRAPPERS


def _own_state(engine):
    """The engine's own graph, or its sets and sorted scope."""
    if engine.graph is not None:
        return engine.graph._state_tuple()
    return engine.sets._state_tuple(), sorted(engine.scope)


@pytest.mark.parametrize("cls", WRAPPERS, ids=lambda cls: cls.name)
def test_wrapper_is_the_engine_of_its_outer_kind(cls):
    kind = cls.outer_kind
    rng = random.Random(f"engine/{cls.name}")
    for _ in range(20):
        inst, aux = random_engine_instance(kind, rng, 7)
        scope = aux.get("scope")
        h = cls(kind, Mode.FULL, inst, direct_factory, scope=scope)
        direct = direct_factory(kind, Mode.FULL, inst, scope=scope)
        assert isinstance(h, EngineState) and not isinstance(h, DirectEngine)
        assert h.state is h
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
