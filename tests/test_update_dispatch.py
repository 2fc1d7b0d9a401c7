"""Update dispatch and the undo log.

`tests/data/update_outcomes.json` pins what `DirectEngine.update` does
with each op, as recorded when updates still went through a chain of
isinstance checks:
  - "modes": for every problem kind and mode, one valid op of each of the
    eight update types and one object that is not an update;
  - "invalid": in full mode, the invalid ops of the families a kind takes
    (out of range, self-loop, duplicate, missing, bad weight).
Each outcome is "ok <result> <state digest>" or "<exception>: <message>".
Regenerate the file only on purpose:

    PYTHONPATH=src python tests/test_update_dispatch.py > tests/data/update_outcomes.json
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from dynred.engines import (
    KINDS,
    DirectEngine,
    Mode,
    ProblemKind,
    run_stage,
)
from dynred.model import (
    ActivateNode,
    AddToScope,
    DeactivateNode,
    DeleteEdge,
    Graph,
    InsertEdge,
    InsertSet,
    IntersectSets,
    RemoveFromScope,
    SetSystem,
    StReachable,
    UnionIsUniverse,
)
from dynred.sat_reductions import _engine_digest
from dynred.verify import random_engine_instance, random_valid_op

OUTCOMES = Path(__file__).with_name("data") / "update_outcomes.json"

SET_KINDS = {k for k, spec in KINDS.items() if spec.instance is SetSystem}
GRAPH_KINDS = set(KINDS) - SET_KINDS
NODE_OP_KINDS = {k for k, spec in KINDS.items() if "node" in spec.families}

_DIRECTED = {ProblemKind.ST_REACH, ProblemKind.REACH_COUNT, ProblemKind.SC,
             ProblemKind.SC2, ProblemKind.SCC_2_VS_K, ProblemKind.MAX_SCC,
             ProblemKind.ST_SET_REACH}
_WEIGHTED = {ProblemKind.BWMATCH, ProblemKind.ST_SP}


def _engine(kind, mode):
    """A 4-node graph with edges {0,1} and {2,3} (node 1 active), or four
    elements in sets {0,1}, {2,3}, {1,2} (set 0 in scope)."""
    if kind in SET_KINDS:
        scope = {0} if kind is ProblemKind.SUB_UNION else None
        return DirectEngine(kind, mode, SetSystem(4, [[0, 1], [2, 3], [1, 2]]),
                            scope=scope)
    weighted = kind in _WEIGHTED
    g = Graph(4, directed=kind in _DIRECTED, weighted=weighted,
              max_weight=5 if weighted else None, s=0, t=3,
              s_set=frozenset({0}), t_set=frozenset({3}),
              active={1} if kind in NODE_OP_KINDS else None)
    for u, v in ((0, 1), (2, 3)):
        g.add_edge(u, v, 2 if weighted else None)
    return DirectEngine(kind, mode, g)


def _valid_ops(kind):
    w = 1 if kind in _WEIGHTED else None
    return [InsertEdge(1, 2, w), DeleteEdge(0, 1), ActivateNode(2),
            DeactivateNode(1), AddToScope(1), RemoveFromScope(0),
            InsertSet(frozenset({0, 3})), IntersectSets(0, 2), StReachable()]


def _invalid_ops(kind):
    ops = []
    if kind in GRAPH_KINDS:
        w = 1 if kind in _WEIGHTED else None
        ops += [InsertEdge(0, 4, w), InsertEdge(-1, 2, w), InsertEdge(2, 2, w),
                InsertEdge(0, 1, w), InsertEdge(1, 0, w), DeleteEdge(1, 2),
                DeleteEdge(0, 4), DeleteEdge(1, 1), DeleteEdge(-1, 0)]
        if kind in _WEIGHTED:
            ops += [InsertEdge(1, 2), InsertEdge(1, 2, 6), InsertEdge(1, 2, 0)]
        else:
            ops += [InsertEdge(1, 2, 3)]
    if kind in NODE_OP_KINDS:
        ops += [ActivateNode(4), ActivateNode(-1), ActivateNode(1),
                DeactivateNode(2), DeactivateNode(4)]
    if kind is ProblemKind.SUB_UNION:
        ops += [AddToScope(0), AddToScope(3), AddToScope(-1),
                RemoveFromScope(1), RemoveFromScope(3)]
    if kind in (ProblemKind.PP, ProblemKind.EMPTY_PP):
        ops += [InsertSet(frozenset({4})), InsertSet(frozenset({-1})),
                IntersectSets(0, 3), IntersectSets(-1, 0)]
    return ops


def _digest(eng) -> str:
    return hashlib.sha256(repr(_engine_digest(eng)).encode()).hexdigest()[:12]


def _outcome(kind, mode, op) -> str:
    """Apply op to a fresh engine; an op that raises must leave the state
    and the counters as they were."""
    eng = _engine(kind, mode)
    before = (_digest(eng), eng.counters.as_dict())
    try:
        result = eng.update(op)
    except Exception as exc:
        assert (_digest(eng), eng.counters.as_dict()) == before, op
        return f"{type(exc).__name__}: {exc}"
    assert eng.counters.updates == 1
    return f"ok {result} {_digest(eng)}"


def record() -> dict:
    return {
        "modes": {f"{k.value}/{m.value}": {repr(op): _outcome(k, m, op)
                                          for op in _valid_ops(k)}
                  for k in ProblemKind for m in Mode},
        "invalid": {k.value: {repr(op): _outcome(k, Mode.FULL, op)
                              for op in _invalid_ops(k)}
                    for k in ProblemKind if _invalid_ops(k)},
    }


def test_update_outcomes_match_recorded_table():
    recorded = json.loads(OUTCOMES.read_text())
    now = record()
    assert now.keys() == recorded.keys()
    for section in recorded:
        assert now[section].keys() == recorded[section].keys()
        for row, outcomes in recorded[section].items():
            assert now[section][row] == outcomes, row


def test_table_covers_every_kind_mode_and_op_type():
    recorded = json.loads(OUTCOMES.read_text())["modes"]
    assert len(recorded) == len(ProblemKind) * len(Mode) == 51
    assert all(len(row) == 9 for row in recorded.values())


# ---------------------------------------------------------------------------
# the undo log


def _toggle_edges(eng, count):
    """count updates alternating insert/delete of edge (1, 2)."""
    for i in range(count):
        eng.update(InsertEdge(1, 2) if i % 2 == 0 else DeleteEdge(1, 2))


def test_no_undo_log_without_a_checkpoint():
    eng = _engine(ProblemKind.ST_REACH, "full")
    _toggle_edges(eng, 1000)
    assert eng._undo == []
    assert eng.counters.updates == 1000
    assert eng.counters.rollback_ops == 0


def test_nested_checkpoints_restore_and_count():
    eng = _engine(ProblemKind.ST_REACH, "full")
    base = _digest(eng)
    outer = eng.checkpoint()
    eng.update(InsertEdge(1, 2))
    eng.update(InsertEdge(0, 2))
    mid = _digest(eng)
    inner = eng.checkpoint()
    eng.update(DeleteEdge(0, 1))
    eng.update(InsertEdge(2, 1))
    eng.update(DeleteEdge(2, 3))
    eng.rollback(inner)
    assert _digest(eng) == mid
    assert eng.counters.rollback_ops == 3
    eng.update(InsertEdge(3, 0))
    eng.rollback(outer)
    assert _digest(eng) == base
    assert eng.counters.rollback_ops == 6
    assert eng._undo == []
    # logging stops once no checkpoint is live
    eng.update(InsertEdge(1, 2))
    assert eng._undo == []


def test_checkpoint_after_unlogged_updates():
    eng = _engine(ProblemKind.ST_REACH, "full")
    _toggle_edges(eng, 7)  # ends with edge (1, 2) inserted, unlogged
    base = _digest(eng)
    cp = eng.checkpoint()
    eng.update(DeleteEdge(1, 2))
    eng.update(InsertEdge(0, 2))
    eng.rollback(cp)
    assert _digest(eng) == base
    assert eng.counters.rollback_ops == 2
    assert eng.counters.updates == 9


def test_abandoned_checkpoint_keeps_working():
    eng = _engine(ProblemKind.ST_REACH, "full")
    base = _digest(eng)
    # a miss is rolled back; a hit under keep_hit stays installed and leaves
    # its stage checkpoint live, so the log keeps recording
    assert run_stage(eng, [InsertEdge(2, 1)], StReachable(), undo=None,
                     keep_hit=True) is False
    assert run_stage(eng, [InsertEdge(1, 3)], StReachable(), undo=None,
                     keep_hit=True) is True
    ((abandoned, _),) = eng._live
    eng.update(InsertEdge(0, 2))
    assert len(eng._undo) == 2
    mid = _digest(eng)
    cp = eng.checkpoint()
    eng.update(DeleteEdge(0, 2))
    eng.update(InsertEdge(1, 2))
    eng.rollback(cp)
    assert _digest(eng) == mid
    assert eng.counters.rollback_ops == 1 + 2
    eng.rollback(abandoned)
    assert _digest(eng) == base
    assert eng.counters.rollback_ops == 1 + 2 + 2
    assert eng._undo == [] and not eng._live


def test_sub_union_rollback_restores_scope_and_answer():
    rng = random.Random(61)
    for _ in range(30):
        inst, aux = random_engine_instance(ProblemKind.SUB_UNION, rng, 8)
        eng = DirectEngine(ProblemKind.SUB_UNION, "full", inst,
                           scope=aux["scope"])
        base = (_digest(eng), eng.query(UnionIsUniverse()))
        cp = eng.checkpoint()
        for _ in range(rng.randint(1, 10)):
            op = random_valid_op(ProblemKind.SUB_UNION, eng, rng, aux)
            if op is not None:
                eng.update(op)
        eng.rollback(cp)
        assert (_digest(eng), eng.query(UnionIsUniverse())) == base


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1)
    sys.stdout.write("\n")
