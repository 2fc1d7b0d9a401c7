import builtins
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import dynred
from dynred.model import (
    CnfFormula,
    CostCounters,
    DomainError,
    Graph,
    GuardError,
    ParseError,
    RunReport,
    SetSystem,
    StateError,
    emit_report,
    parse_cnf,
    parse_graph,
)


def test_parse_cnf_basic():
    f = parse_cnf("p cnf 2 2\n1 2 0\n-1 2 0\n")
    assert f.var_count == 2
    assert f.clauses == [[1, 2], [-1, 2]]


def test_parse_cnf_comments_and_multiline_clauses():
    f = parse_cnf("c header comment\np cnf 3 2\n1 -2\n3 0 2 0\n")
    assert f.clauses == [[1, -2, 3], [2]]


def test_parse_cnf_empty_clause_allowed():
    f = parse_cnf("p cnf 1 1\n0\n")
    assert f.clauses == [[]]


def test_parse_cnf_rejects_count_mismatch():
    with pytest.raises(ParseError):
        parse_cnf("p cnf 2 3\n1 0\n2 0\n")


def test_parse_cnf_rejects_out_of_range_literal():
    with pytest.raises(ParseError):
        parse_cnf("p cnf 2 1\n3 0\n")


def test_parse_cnf_rejects_unterminated_clause():
    with pytest.raises(ParseError):
        parse_cnf("p cnf 2 1\n1 2\n")


def test_parse_cnf_rejects_missing_header():
    with pytest.raises(ParseError):
        parse_cnf("1 2 0\n")


def test_cnf_clause_cap():
    # documented input requirement: at most 4n clauses
    CnfFormula(2, [[1]] * 8)
    with pytest.raises(DomainError):
        CnfFormula(2, [[1]] * 9)


def test_parse_graph_triangle():
    g = parse_graph("3 3 undirected\n0 1\n1 2\n0 2\n")
    assert g.node_count == 3
    assert g.edge_count == 3
    assert not g.directed and not g.weighted
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]


def test_parse_graph_checks_declared_nodes_before_building(monkeypatch):
    monkeypatch.setenv("REDUX_MAX_STATE_NODES", "10")
    assert parse_graph("10 0 undirected\n").node_count == 10
    with pytest.raises(GuardError, match="header declares 11 nodes"):
        parse_graph("11 0 undirected\n")


def test_set_system_from_masks_is_range_checked():
    ss = SetSystem.from_masks(4, [0b1010, 0, 0b1111])
    assert ss == SetSystem(4, [[1, 3], [], range(4)])
    for bad in (0b10000, -1):
        with pytest.raises(DomainError, match="outside universe"):
            SetSystem.from_masks(4, [bad])


def test_parse_graph_directed_weighted():
    g = parse_graph("3 2 directed weighted\n0 1 5\n1 2 7\n")
    assert g.directed and g.weighted
    assert g.weight(0, 1) == 5
    assert not g.has_edge(1, 0)
    assert g.max_weight == 7


@pytest.mark.parametrize(
    "text",
    [
        "3 1 undirected\n0 0\n",          # self-loop
        "3 2 undirected\n0 1\n1 0\n",     # duplicate (reversed)
        "2 1 undirected\n0 5\n",          # out of range
        "2 1 undirected\n0 1\n0 1\n",     # count mismatch
        "2 1 sideways\n0 1\n",            # bad orientation
        "2 1 undirected weighted\n0 1 0\n",  # weight below 1
        "2 1 undirected weighted\n0 1\n",    # missing weight
        "",                                # empty
    ],
)
def test_parse_graph_rejects(text):
    with pytest.raises(ParseError):
        parse_graph(text)


def test_graph_mutation_guards():
    g = Graph(3)
    g.add_edge(0, 1)
    with pytest.raises(StateError):
        g.add_edge(1, 0)
    with pytest.raises(StateError):
        g.remove_edge(1, 2)
    with pytest.raises(DomainError):
        g.add_edge(0, 3)
    g.remove_edge(0, 1)
    assert g.edge_count == 0


def test_left_side_builds_no_right_list():
    g = Graph(6)
    for u, v in ((0, 1), (1, 2), (3, 4)):
        g.add_edge(u, v)
    assert g.left_side() == [0, 2, 3, 5]
    g.add_edge(2, 5)  # joins an isolated node: the view is kept, lists go
    g.remove_edge(3, 4)  # isolates both ends
    assert g.left_side() == [0, 2, 3, 4]
    assert g._sides._right is None
    assert g.bipartition() == ([0, 2, 3, 4], [1, 5])


def test_graph_equality_ignores_weight_cap():
    a = Graph(2, weighted=True, max_weight=10)
    b = Graph(2, weighted=True, max_weight=99)
    a.add_edge(0, 1, 3)
    b.add_edge(0, 1, 3)
    assert a == b
    b.remove_edge(0, 1)
    b.add_edge(0, 1, 4)
    assert a != b


def test_graph_copy_is_deep():
    g = Graph(3, s=0, t=2, active={0, 1})
    g.add_edge(0, 1)
    h = g.copy()
    h.add_edge(1, 2)
    h.active.add(2)
    assert not g.has_edge(1, 2)
    assert g.active == {0, 1}
    assert g.digest() != h.digest()


graph_texts = st.integers(min_value=2, max_value=8).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1]),
        unique=True,
        max_size=10,
    ).map(lambda edges: (n, edges))
)


@given(graph_texts)
def test_graph_text_round_trip(case):
    n, edges = case
    g = Graph(n)
    for u, v in edges:
        g.add_edge(u, v)
    assert parse_graph(g.to_text()) == g


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(
                st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v])),
                max_size=4,
            ),
            max_size=3 * n,
        ).map(lambda cls: (n, cls))
    )
)
def test_cnf_text_round_trip(case):
    n, clauses = case
    f = CnfFormula(n, clauses)
    assert parse_cnf(f.to_text()) == f


def test_formula_has_no_hash():
    """A formula is mutable and compares by value, so hashing it raises."""
    with pytest.raises(TypeError):
        hash(CnfFormula(2, [[1, 2]]))


def test_set_system():
    ss = SetSystem(5, [[0, 1], [2]])
    i = ss.append_set([3, 4])
    assert i == 2
    assert frozenset(ss.members(2)) == frozenset({3, 4})
    ss.pop_set()
    assert len(ss) == 2
    with pytest.raises(DomainError):
        ss.append_set([9])
    with pytest.raises(StateError):
        frozenset(ss.members(7))


def test_report_key_order():
    rep = RunReport(
        reduction="ssr",
        mode="full",
        instance_digest="ab" * 32,
        answer=True,
        oracle_answer=True,
        counters=CostCounters(preprocess_units=10, updates=4, queries=2, rollback_ops=0),
        seed=0,
        elapsed_ms=12,
    )
    text = emit_report(rep)
    payload = json.loads(text)
    assert list(payload.keys()) == [
        "reduction", "mode", "instance_digest", "answer", "oracle_answer",
        "counters", "seed", "elapsed_ms",
    ]
    assert list(payload["counters"].keys()) == [
        "preprocess_units", "updates", "queries", "rollback_ops",
    ]
    assert payload["answer"] is True


def test_counters_snapshot_independent():
    c = CostCounters()
    snap = dataclasses.replace(c)
    c.updates += 5
    assert snap.updates == 0


def test_graph_and_graph_header_import_nothing(monkeypatch):
    """model loads limits with itself, so building a graph and checking a
    graph header against the state cap (read afresh each time) import
    nothing."""
    Graph(10)
    parse_graph("3 1 undirected\n0 1\n")
    imports = []
    real = builtins.__import__

    def counting(name, *args, **kw):
        imports.append(name)
        return real(name, *args, **kw)

    monkeypatch.setattr(builtins, "__import__", counting)
    Graph(10)
    parse_graph("3 1 undirected\n0 1\n")
    monkeypatch.undo()
    assert imports == []


def test_limits_imports_before_model():
    """limits needs model only to raise on a malformed cap, so it imports
    on its own, and a malformed cap still raises model's DomainError."""
    src = str(Path(dynred.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("REDUX_MAX_STATE_NODES", None)
    code = (
        "import os, sys\n"
        "import dynred.limits as limits\n"
        "assert 'dynred.model' not in sys.modules\n"
        "os.environ['REDUX_MAX_STATE_NODES'] = 'abc'\n"
        "try:\n"
        "    limits.max_state_nodes()\n"
        "except ValueError as exc:\n"
        "    from dynred.model import DomainError, Graph\n"
        "    assert type(exc) is DomainError, exc\n"
        "os.environ['REDUX_MAX_STATE_NODES'] = '3'\n"
        "assert Graph(3).node_count == 3\n"
        "print(limits.max_state_nodes())\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "3\n"
