"""Set systems kept as bitmasks, against a frozenset model written here.

Random InsertSet, IntersectSets and scope updates, under nested checkpoints
and rollbacks, drive PP, EMPTY_PP and SUB_UNION engines. A model that keeps
each set as a frozenset follows the same steps. After every step the
engine's answers, get(), digest() and counters must match the model's.
Invalid ops, among them members that are negative or equal to the universe
size, must raise the model's error and change nothing.
"""

import hashlib
import random

import pytest

from dynred.engines import DirectEngine, Mode, ProblemKind
from dynred.model import (
    AddToScope,
    DomainError,
    InsertSet,
    IntersectSets,
    IsEmpty,
    Member,
    RemoveFromScope,
    SetSystem,
    StateError,
    UnionIsUniverse,
)

UNIVERSES = (0, 1, 5, 63, 64, 65, 130)  # around the machine-word boundaries


class FrozenModel:
    """The set-system engines as plain frozensets and a scope set."""

    def __init__(self, universe: int, sets, scope):
        self.universe = universe
        self.sets = [frozenset(s) for s in sets]
        self.scope = set(scope) if scope is not None else None
        self.saved: list[tuple] = []  # one (sets, scope) per live checkpoint
        self.preprocess_units = universe + sum(len(s) for s in self.sets)

    def set_at(self, i: int) -> frozenset:
        if not (0 <= i < len(self.sets)):
            raise StateError(f"set id {i} out of range")
        return self.sets[i]

    def update(self, op):
        if isinstance(op, InsertSet):
            if any(not (0 <= x < self.universe) for x in op.members):
                raise DomainError("set member outside universe")
            self.sets.append(frozenset(op.members))
            return len(self.sets) - 1
        if isinstance(op, IntersectSets):
            a, b = self.set_at(op.i), self.set_at(op.j)
            self.sets.append(a & b)
            return len(self.sets) - 1
        if isinstance(op, AddToScope):
            self.set_at(op.set_id)
            if op.set_id in self.scope:
                raise StateError(f"set {op.set_id} already in scope")
            self.scope.add(op.set_id)
        else:
            if op.set_id not in self.scope:
                raise StateError(f"set {op.set_id} not in scope")
            self.scope.discard(op.set_id)
        return None

    def query(self, q):
        if isinstance(q, Member):
            if not (0 <= q.u < self.universe):
                raise DomainError(f"element {q.u} outside universe")
            return q.u in self.set_at(q.i)
        if isinstance(q, IsEmpty):
            return not self.set_at(q.i)
        covered = frozenset().union(*(self.sets[i] for i in self.scope))
        return covered == frozenset(range(self.universe))

    def checkpoint(self):
        self.saved.append((list(self.sets),
                           set(self.scope) if self.scope is not None else None))

    def rollback(self, depth: int):
        self.sets, scope = self.saved[depth]
        self.scope = set(scope) if scope is not None else None
        del self.saved[depth:]

    def digest(self) -> str:
        state = (self.universe, tuple(tuple(sorted(s)) for s in self.sets))
        return hashlib.sha256(repr(state).encode()).hexdigest()


def _members(rng, universe: int) -> list[int]:
    """A member list with repeats, drawn sparse or dense."""
    p = rng.choice((0.1, 0.5, 0.9))
    out = [x for x in range(universe) if rng.random() < p]
    return out + rng.sample(out, min(2, len(out)))


def _outside(rng, universe: int) -> int:
    return rng.choice((-1, universe, -universe - 1))


def _random_op(rng, kind, model):
    k, u = len(model.sets), model.universe
    if kind is ProblemKind.SUB_UNION:
        i = rng.randrange(-1, k + 1)
        return AddToScope(i) if rng.random() < 0.5 else RemoveFromScope(i)
    if rng.random() < 0.5:
        members = _members(rng, u)
        if rng.random() < 0.2:
            members.insert(rng.randrange(len(members) + 1), _outside(rng, u))
        return InsertSet(frozenset(members))
    pick = lambda: rng.randrange(-1, k + 1) if rng.random() < 0.15 else rng.randrange(k)
    return IntersectSets(pick(), pick())


def _random_query(rng, kind, model):
    k, u = len(model.sets), model.universe
    if kind is ProblemKind.SUB_UNION:
        return UnionIsUniverse()
    i = rng.randrange(-1, k + 1) if rng.random() < 0.1 else rng.randrange(k)
    if kind is ProblemKind.EMPTY_PP:
        return IsEmpty(i)
    x = _outside(rng, u) if rng.random() < 0.1 or not u else rng.randrange(u)
    return Member(i, x)


def _outcome(fn, *args):
    """(value, None) or (None, (error type, message))."""
    try:
        return fn(*args), None
    except (DomainError, StateError) as exc:
        return None, (type(exc), str(exc))


def _assert_same(handle, model):
    sets = handle.sets
    assert len(sets) == len(model.sets)
    assert [frozenset(sets.members(i)) for i in range(len(sets))] == model.sets
    assert sets.digest() == model.digest()
    assert handle.scope == model.scope
    for i in (-1, len(sets)):
        with pytest.raises(StateError, match=f"set id {i} out of range"):
            frozenset(sets.members(i))


@pytest.mark.parametrize("kind", [ProblemKind.PP, ProblemKind.EMPTY_PP,
                                  ProblemKind.SUB_UNION], ids=lambda k: k.value)
@pytest.mark.parametrize("seed", range(12))
def test_engine_matches_frozenset_model(kind, seed):
    rng = random.Random(f"bitmasks/{kind.value}/{seed}")
    universe = UNIVERSES[seed % len(UNIVERSES)]
    start = [_members(rng, universe) for _ in range(rng.randint(1, 6))]
    scope = None
    if kind is ProblemKind.SUB_UNION:
        scope = rng.sample(range(len(start)), rng.randint(0, len(start)))
    handle = DirectEngine(kind, Mode.FULL, SetSystem(universe, start), scope=scope)
    model = FrozenModel(universe, start, scope if scope is not None else (
        set() if kind is ProblemKind.SUB_UNION else None))
    assert handle.counters.preprocess_units == model.preprocess_units
    live = []  # the engine's live checkpoints, oldest first
    updates = queries = 0
    for _ in range(80):
        roll = rng.random()
        if roll < 0.12:
            live.append(handle.checkpoint())
            model.checkpoint()
        elif roll < 0.22 and live:
            depth = rng.randrange(len(live))
            handle.rollback(live[depth])
            model.rollback(depth)
            del live[depth:]
        elif roll < 0.6:
            op = _random_op(rng, kind, model)
            want = _outcome(model.update, op)
            assert _outcome(handle.update, op) == want, op
            updates += want[1] is None
        else:
            q = _random_query(rng, kind, model)
            want = _outcome(model.query, q)
            assert _outcome(handle.query, q) == want, q
            queries += want[1] is None
        _assert_same(handle, model)
        assert (handle.counters.updates, handle.counters.queries) == (updates, queries)
    assert handle.counters.preprocess_units == model.preprocess_units


@pytest.mark.parametrize("universe", UNIVERSES)
def test_set_system_matches_frozensets(universe):
    rng = random.Random(universe)
    lists = [_members(rng, universe) for _ in range(5)]
    ss = SetSystem(universe, lists)
    model = FrozenModel(universe, lists, None)
    assert [frozenset(ss.members(i)) for i in range(len(ss))] == model.sets
    assert [ss.members(i) for i in range(len(ss))] == [sorted(s) for s in model.sets]
    assert ss.masks == [sum(1 << x for x in s) for s in model.sets]
    assert ss.digest() == model.digest()
    assert ss._state_tuple() == (universe, tuple(tuple(sorted(s)) for s in model.sets))
    assert ss.copy() == ss and ss.copy().masks is not ss.masks
    for bad in (-1, universe):
        with pytest.raises(DomainError, match="set member outside universe"):
            SetSystem(universe, [[0, bad] if universe else [bad]])
        with pytest.raises(DomainError, match="set member outside universe"):
            ss.append_set([bad])
        assert len(ss) == 5  # the failed append added nothing
