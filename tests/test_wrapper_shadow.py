"""Wrappers check the updates they forward nowhere as a direct engine would.

An arc into s or out of t never reaches the inner engine of the three
reachability and distance wrappers, and toggling s or t never reaches the
inner engine of the connectivity wrapper. Those updates must still fail
where the direct engine's fail: a duplicate insert, a missing delete, a
node already in the state asked for. Rollback restores what they touched.
"""

import random

import pytest

from dynred.engines import DirectEngine, Mode, ProblemKind
from dynred.model import (
    ActivateNode,
    DeactivateNode,
    DeleteEdge,
    Graph,
    InsertEdge,
    StateError,
)
from dynred.verify import random_engine_instance, random_valid_op
from dynred.wrappers import (
    WRAPPERS,
    StreachViaBpm,
    StreachViaSc,
    StspViaBwm,
    SubconnViaStreach,
)


def _outcome(handle, op):
    try:
        handle.update(op)
    except Exception as exc:  # the exception type is what is compared
        return type(exc).__name__
    return None


@pytest.mark.parametrize("cls", [StreachViaBpm, StreachViaSc, StspViaBwm])
def test_duplicate_and_missing_suppressed_arcs_raise(cls):
    weighted = cls is StspViaBwm
    w = 1 if weighted else None
    g = Graph(4, directed=True, weighted=weighted,
              max_weight=3 if weighted else None, s=0, t=3)
    g.add_edge(0, 1, w)
    kind = cls.outer_kind
    direct = DirectEngine(kind, Mode.FULL, g)
    wrapped = cls(kind, Mode.FULL, g, DirectEngine)
    for h in (direct, wrapped):
        h.update(InsertEdge(1, 0, w))
        with pytest.raises(StateError):
            h.update(InsertEdge(1, 0, w))
        with pytest.raises(StateError):
            h.update(DeleteEdge(2, 0))
        assert h.counters.updates == 1


@pytest.mark.parametrize("cls", [StreachViaBpm, StreachViaSc, StspViaBwm])
def test_rollback_restores_suppressed_arcs(cls):
    weighted = cls is StspViaBwm
    w = 2 if weighted else None
    g = Graph(3, directed=True, weighted=weighted,
              max_weight=3 if weighted else None, s=0, t=2)
    g.add_edge(2, 1, w)  # out of t: present from the start
    h = cls(cls.outer_kind, Mode.FULL, g, DirectEngine)
    cp = h.checkpoint()
    h.update(DeleteEdge(2, 1))
    h.update(InsertEdge(1, 0, w))
    h.rollback(cp)
    assert h.counters.rollback_ops == 2
    with pytest.raises(StateError):
        h.update(InsertEdge(2, 1, w))  # back in place
    h.update(InsertEdge(1, 0, w))  # gone again
    with pytest.raises(StateError):
        h.update(DeleteEdge(1, 2))  # never present, forwarded arc


def test_terminal_toggles_checked_against_the_active_set():
    g = Graph(4, s=0, t=3, active={0, 1})
    g.add_edge(0, 1)
    direct = DirectEngine(ProblemKind.ST_SUBCONN, Mode.FULL, g)
    wrapped = SubconnViaStreach(ProblemKind.ST_SUBCONN, Mode.FULL, g, DirectEngine)
    for op in (ActivateNode(0), DeactivateNode(3), ActivateNode(3),
               ActivateNode(3), DeactivateNode(0), DeactivateNode(0)):
        assert _outcome(wrapped, op) == _outcome(direct, op), op


def _invalid_op(kind, g, rng):
    """An update the direct engine rejects: a duplicate or missing arc (an
    arc into s or out of t half of the time), or a toggle of s or t in the
    wrong state."""
    n = g.node_count
    if kind is ProblemKind.ST_SUBCONN and rng.random() < 0.5:
        v = rng.choice((g.s, g.t))
        return DeactivateNode(v) if v not in g.active else ActivateNode(v)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    if rng.random() < 0.5 and g.directed:
        pairs = [(u, v) for u, v in pairs if v == g.s or u == g.t]
    present = [p for p in pairs if g.has_edge(*p)]
    absent = [p for p in pairs if not g.has_edge(*p)]
    if present and (not absent or rng.random() < 0.5):
        u, v = rng.choice(present)
        return InsertEdge(u, v, rng.randint(1, g.max_weight) if g.weighted else None)
    return DeleteEdge(*rng.choice(absent))


@pytest.mark.parametrize("cls", [c for c in WRAPPERS
                                 if c.outer_kind is not ProblemKind.SUB_UNION])
def test_wrapper_raises_like_direct_engine_across_rollbacks(cls):
    rng = random.Random(23)
    kind = cls.outer_kind
    for _ in range(40):
        inst, aux = random_engine_instance(kind, rng, 7)
        direct = DirectEngine(kind, Mode.FULL, inst)
        wrapped = cls(kind, Mode.FULL, inst, DirectEngine)
        cps = []
        for step in range(30):
            r = rng.random()
            if r < 0.15:
                cps.append((direct.checkpoint(), wrapped.checkpoint()))
                continue
            if r < 0.3 and cps:
                i = rng.randrange(len(cps))
                cp_d, cp_w = cps[i]
                del cps[i:]  # rollback consumes every later checkpoint
                direct.rollback(cp_d)
                wrapped.rollback(cp_w)
                continue
            g = direct.graph
            op = (random_valid_op(kind, direct, rng, aux)
                  if r < 0.55 else None) or _invalid_op(kind, g, rng)
            got, want = _outcome(wrapped, op), _outcome(direct, op)
            assert got == want, f"step {step}: {op!r} on {inst!r}"
        assert wrapped.counters.as_dict() == direct.counters.as_dict()
