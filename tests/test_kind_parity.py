"""Construction and query outcomes of every problem kind and wrapper.

`tests/data/kind_outcomes.json` pins, as recorded before the problem-kind
metadata moved into one table:
  - "construct": `EngineState` for every kind on about twenty instance
    shapes (orientation, weights, s/t, s = t, s_set/t_set, active set,
    non-bipartite, wrong instance type), with and without a scope;
  - "wrap": the same shapes through each of the five wrappers, each of
    which accepts or rejects a shape, with the same message, as the
    "construct" outcome of its outer kind does;
  - "query": for one valid instance per kind, the answer or error of every
    query type, bad parameters included, with the query count after it.
Each outcome is "ok <detail>" or "<exception>: <message>".
Regenerate the file only on purpose:

    PYTHONPATH=src python tests/test_kind_parity.py > tests/data/kind_outcomes.json
"""

import json
import sys
from pathlib import Path

from dynred.engines import (
    DirectEngine,
    EngineState,
    Mode,
    ProblemKind,
)
from dynred.model import (
    AllStReachable,
    Diameter,
    Graph,
    HasPerfectMatching,
    InducedConnected,
    IsEmpty,
    KAugFreeMatchingSize,
    MaxSccSize,
    MaxWeightPmWeight,
    Member,
    MoreThanTwoSccs,
    ReachCountLessThan,
    SccCount2VsK,
    SetSystem,
    StConnected,
    StDistance,
    StReachable,
    StronglyConnected,
    UnionIsUniverse,
)
from dynred.wrappers import (
    StreachViaBpm,
    StreachViaSc,
    StspViaBwm,
    SubconnViaStreach,
    SubunionViaConnsub,
)

OUTCOMES = Path(__file__).with_name("data") / "kind_outcomes.json"

_WRAPPERS = {
    "subconn-via-streach": SubconnViaStreach,
    "streach-via-bpm": StreachViaBpm,
    "streach-via-sc": StreachViaSc,
    "stsp-via-bwm": StspViaBwm,
    "subunion-via-connsub": SubunionViaConnsub,
}

# a 4-cycle 0-1-2-3 (bipartite) plus, for the odd shapes, the chord {0, 2}
_CYCLE = ((0, 1), (1, 2), (2, 3), (3, 0))


def _graph(directed=False, weighted=False, odd=False, max_weight=5, **kw):
    g = Graph(4, directed=directed, weighted=weighted,
              max_weight=max_weight if weighted else None, **kw)
    for i, (u, v) in enumerate(_CYCLE + (((0, 2),) if odd else ())):
        g.add_edge(u, v, 1 + i % 5 if weighted else None)
    return g


def _shapes() -> dict:
    st = {"s": 0, "t": 2}
    sets = {"s_set": frozenset({0}), "t_set": frozenset({2, 3})}
    return {
        "dir": _graph(True),
        "dir-st": _graph(True, **st),
        "dir-s": _graph(True, s=1),
        "dir-s=t": _graph(True, s=1, t=1),
        "dir-sets": _graph(True, **sets),
        "dir-s-set-only": _graph(True, s_set=frozenset({0})),
        "dir-w-st": _graph(True, True, **st),
        "dir-st-active": _graph(True, active={1}, **st),
        "undir": _graph(),
        "undir-st": _graph(**st),
        "undir-s": _graph(s=1),
        "undir-s=t": _graph(s=3, t=3),
        "undir-sets": _graph(**sets),
        "undir-active": _graph(active={1, 3}),
        "undir-st-active": _graph(active={1}, **st),
        "undir-s=t-active": _graph(active={1}, s=2, t=2),
        "undir-w": _graph(weighted=True),
        "undir-w-st": _graph(weighted=True, **st),
        "undir-odd": _graph(odd=True),
        "undir-w-odd-st": _graph(weighted=True, odd=True, **st),
        "undir-w-active-st": _graph(weighted=True, active={3}, **st),
        "empty-graph": Graph(0),
        "sets": SetSystem(4, [[0, 1], [2], [1, 3], []]),
        "empty-sets": SetSystem(0, []),
        "not-an-instance": "4 4 undirected",
    }


_SCOPES = {"no-scope": None, "scope": {0, 2}, "bad-scope": {9}}


def _outcome(fn) -> str:
    try:
        return "ok " + fn()
    except Exception as exc:  # every outcome is recorded, errors included
        return f"{type(exc).__name__}: {exc}"


def _state_detail(state) -> str:
    inst = state.graph if state.graph is not None else state.sets
    scope = sorted(state.scope) if state.scope is not None else None
    return f"{state.counters.as_dict()} {inst.digest()[:12]} {scope}"


def _construct(kind, shape, scope) -> str:
    return _outcome(lambda: _state_detail(
        EngineState(kind, Mode.FULL, shape, scope=scope)))


def _wrap(name, kind, shape, scope) -> str:
    def build():
        h = _WRAPPERS[name](kind, Mode.FULL, shape, scope=scope)
        return f"{h.counters.as_dict()} {h.inner.kind.value}"
    return _outcome(build)


_WRAPPED_KIND = {
    "subconn-via-streach": ProblemKind.ST_SUBCONN,
    "streach-via-bpm": ProblemKind.ST_REACH,
    "streach-via-sc": ProblemKind.ST_REACH,
    "stsp-via-bwm": ProblemKind.ST_SP,
    "subunion-via-connsub": ProblemKind.SUB_UNION,
}

# one instance per kind that EngineState accepts
_VALID = {
    ProblemKind.ST_REACH: ("dir-st", None),
    ProblemKind.REACH_COUNT: ("dir-s", None),
    ProblemKind.SC: ("dir", None),
    ProblemKind.SC2: ("dir", None),
    ProblemKind.SCC_2_VS_K: ("dir", None),
    ProblemKind.MAX_SCC: ("dir", None),
    ProblemKind.ST_SET_REACH: ("dir-sets", None),
    ProblemKind.DIAMETER: ("undir-odd", None),
    ProblemKind.ST_SUBCONN: ("undir-st-active", None),
    ProblemKind.CONN_SUB: ("undir-active", None),
    ProblemKind.BPMATCH: ("undir", None),
    ProblemKind.KBPM: ("undir", None),
    ProblemKind.BWMATCH: ("undir-w", None),
    ProblemKind.ST_SP: ("dir-w-st", None),
    ProblemKind.SUB_UNION: ("sets", {0, 2}),
    ProblemKind.PP: ("sets", None),
    ProblemKind.EMPTY_PP: ("sets", None),
}

_QUERIES = (
    StReachable(), ReachCountLessThan(3), ReachCountLessThan(0),
    ReachCountLessThan(-1), StronglyConnected(), MoreThanTwoSccs(),
    SccCount2VsK(2), SccCount2VsK(1), MaxSccSize(), AllStReachable(),
    Diameter(), StConnected(), InducedConnected(), HasPerfectMatching(),
    KAugFreeMatchingSize(1), KAugFreeMatchingSize(3), KAugFreeMatchingSize(2),
    KAugFreeMatchingSize(0), KAugFreeMatchingSize(-1), MaxWeightPmWeight(),
    StDistance(), UnionIsUniverse(), Member(0, 1), Member(1, 1), Member(0, 4),
    Member(0, -1), Member(4, 0), IsEmpty(3), IsEmpty(1), IsEmpty(4),
    IsEmpty(-1),
)


def _query(kind, q) -> str:
    shape, scope = _VALID[kind]
    state = EngineState(kind, Mode.FULL, _shapes()[shape], scope=scope)

    def ask():
        answer = state.query(q)
        return f"{answer!r}"
    return f"{_outcome(ask)} queries={state.counters.queries}"


def record() -> dict:
    shapes = _shapes()
    return {
        "construct": {
            f"{kind.value} {label} {sname}": _construct(kind, shape, scope)
            for kind in ProblemKind
            for label, shape in shapes.items()
            for sname, scope in _SCOPES.items()
        },
        "wrap": {
            f"{name} {label} {sname}": _wrap(name, kind, shape, scope)
            for name, kind in _WRAPPED_KIND.items()
            for label, shape in shapes.items()
            for sname, scope in _SCOPES.items()
        },
        "query": {
            f"{kind.value} {q!r}": _query(kind, q)
            for kind in ProblemKind for q in _QUERIES
        },
    }


def test_kind_outcomes_match_recorded_table():
    recorded = json.loads(OUTCOMES.read_text())
    now = record()
    for section in ("construct", "wrap", "query"):
        diff = {k: (recorded[section].get(k), v)
                for k, v in now[section].items()
                if recorded[section].get(k) != v}
        assert not diff, f"{section}: {len(diff)} outcomes differ, e.g. " + \
            repr(next(iter(diff.items())))
        assert set(now[section]) == set(recorded[section])


def _verdict(outcome: str) -> str:
    """"ok", or the exception and its message."""
    return "ok" if outcome.startswith("ok ") else outcome


def test_wrappers_construct_exactly_when_their_outer_kind_does():
    """On every shape and scope a wrapper builds where EngineState of its
    outer kind builds, and raises the same exception with the same message
    where it raises. The one rule a wrapper adds is StspViaBwm's declared
    max_weight, which st-sp does not need."""
    shapes = {**_shapes(), "dir-w-st-no-max": _graph(
        True, True, max_weight=None, s=0, t=2)}
    mismatched = []
    for name, kind in _WRAPPED_KIND.items():
        for label, shape in shapes.items():
            for sname, scope in _SCOPES.items():
                want = _verdict(_construct(kind, shape, scope))
                if want == "ok" and (name, label) == ("stsp-via-bwm", "dir-w-st-no-max"):
                    want = "DomainError: needs a declared max_weight"
                got = _verdict(_wrap(name, kind, shape, scope))
                if got != want:
                    mismatched.append((name, label, sname, got, want))
    assert not mismatched, f"{len(mismatched)} rows differ: {mismatched[:3]}"


def test_every_engine_constructor_matches_the_construct_table():
    """EngineState and DirectEngine are one constructor: each checks and
    loads every shape as the recorded EngineState did."""
    recorded = json.loads(OUTCOMES.read_text())["construct"]
    shapes = _shapes()
    for make in (EngineState, DirectEngine):
        differ = []
        for key, want in recorded.items():
            kind, label, sname = key.split()
            got = _outcome(lambda: _state_detail(make(
                kind, Mode.FULL, shapes[label], scope=_SCOPES[sname])))
            if got != want:
                differ.append((key, got, want))
        assert not differ, f"{make.__name__}: {len(differ)} differ: {differ[:2]}"


def test_table_covers_every_kind_and_wrapper():
    recorded = json.loads(OUTCOMES.read_text())
    kinds = {key.split()[0] for key in recorded["construct"]}
    assert kinds == {k.value for k in ProblemKind}
    assert {key.split()[0] for key in recorded["wrap"]} == set(_WRAPPERS)
    # every kind answers its own query on its valid instance
    for kind in ProblemKind:
        assert any(key.startswith(kind.value + " ") and v.startswith("ok ")
                   for key, v in recorded["query"].items())


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1)
    sys.stdout.write("\n")
