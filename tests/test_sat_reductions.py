"""Tests for the satisfiability reductions against the exhaustive oracle."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynred.generators import random_cnf
from dynred.engines import DirectEngine, Mode, ProblemKind
from dynred.model import (
    AddToScope,
    CnfFormula,
    ConstructionError,
    CostCounters,
    DomainError,
    Graph,
    GuardError,
    InsertEdge,
    SetSystem,
    StReachable,
    UnionIsUniverse,
)
from dynred.oracles import oracle_sat
from dynred.sat_reductions import (
    _scan,
    build_fail_table,
    compute_split,
    sat_via_appx_scc,
    sat_via_diam,
    sat_via_empty_pp,
    sat_via_max_scc,
    sat_via_sc2,
    sat_via_ssr,
    sat_via_st_reach,
    sat_via_subunion,
)
from dynred.wrappers import SubunionViaConnsub

MODES = ["full", "inc", "dec"]

# routines with their block counts; two-block ones default to delta = 1/4
SINGLE_BLOCK = [sat_via_ssr, sat_via_sc2, sat_via_max_scc, sat_via_appx_scc,
                sat_via_subunion]
TWO_BLOCK = [sat_via_st_reach, sat_via_diam]
ALL_MODAL = SINGLE_BLOCK + TWO_BLOCK


def _corpus():
    formulas = [
        CnfFormula(2, [[1, 2], [-1, 2]]),
        CnfFormula(2, [[1], [-1]]),
        CnfFormula(2, [[]]),
        CnfFormula(3, []),
        CnfFormula(2, [[1, -1], [2]]),
        CnfFormula(2, [[1], [2], [-1, -2]]),
        CnfFormula(4, [[1, 2], [-1, 3], [-2, -3], [4], [-4, 1]]),
        CnfFormula(2, [[1], [-1], [2], [-2], [1, 2], [-1, -2], [1, -2], [-1, 2]]),
    ]
    for seed in range(25):
        rng = random.Random(seed)
        formulas.append(random_cnf(rng, rng.randint(2, 5)))
    return formulas


CORPUS = _corpus()
UNSAT_CORPUS = [f for f in CORPUS if not oracle_sat(f)]


def test_corpus_has_both_outcomes():
    answers = {oracle_sat(f) for f in CORPUS}
    assert answers == {True, False}


# ---------------------------------------------------------------------------
# fail table construction


def test_compute_split_uses_exact_arithmetic():
    assert compute_split(2, Fraction(1, 2)) == 1
    assert compute_split(5, Fraction(1, 2)) == 3
    assert compute_split(3, Fraction(1, 3)) == 1
    assert compute_split(4, Fraction(1, 3)) == 2
    assert compute_split(4, Fraction(1)) == 4
    assert compute_split(8, Fraction(1, 4)) == 2
    assert compute_split(0, Fraction(1, 2)) == 0
    for bad in (Fraction(0), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(DomainError):
            compute_split(4, bad)


def stage_satisfies(t, j: int, r: int) -> bool:
    """Does stage assignment r satisfy clause j via a leftover variable? The
    per-clause reference that FailTable.unsat_indices is checked against."""
    return bool(r & t._stage_pos[j]) or bool(t._stage_neg[j] & ~r)


def test_fail_table_worked_example():
    f = CnfFormula(2, [[1, 2], [-1, 2]])
    t = build_fail_table(f, Fraction(1, 2))
    assert (t.split, t.assign_count, t.stage_bits, t.blocks) == (1, 2, 1, 1)
    assert t.fail[0][0] == frozenset({0})  # x1 false fails (x1 or x2) in block
    assert t.fail[0][1] == frozenset({1})
    assert t.unsat_indices(0) == [0, 1]  # x2 false satisfies neither clause
    assert t.unsat_indices(1) == []


@pytest.mark.parametrize("seed", range(40))
def test_unsat_indices_agree_with_stage_satisfies(seed):
    rng = random.Random(f"unsat/{seed}")
    n = rng.randint(1, 12)
    f = random_cnf(rng, n, rng.randint(0, 3 * n), width=rng.randint(1, 4))
    if n >= 2 and rng.random() < 0.5:
        t = build_fail_table(f, Fraction(1, 4), blocks=2)
    else:
        t = build_fail_table(f, Fraction(rng.randint(1, 4), 4))
    for r in range(1 << t.stage_bits):
        assert t.unsat_indices(r) == [j for j in range(len(f.clauses))
                                      if not stage_satisfies(t, j, r)]


def test_fail_table_edge_clauses():
    # tautological inside the block, no block literals at all, empty clause
    f = CnfFormula(2, [[1, -1], [2], []])
    t = build_fail_table(f, Fraction(1, 2))
    assert t.fail[0][0] == frozenset()
    assert t.fail[0][1] == frozenset({0, 1})
    assert t.fail[0][2] == frozenset({0, 1})
    assert stage_satisfies(t, 1, 1) and not stage_satisfies(t, 1, 0)
    assert not stage_satisfies(t, 2, 0) and not stage_satisfies(t, 2, 1)


def test_fail_table_mixed_signs():
    t = build_fail_table(CnfFormula(2, [[1, -2]]), Fraction(1))
    # the only failing assignment has x1 false and x2 true, i.e. index 0b10
    assert t.fail[0][0] == frozenset({2})
    assert t.stage_bits == 0


def test_fail_table_two_blocks():
    f = CnfFormula(4, [[1, 2, 3], [-2, 4]])
    t = build_fail_table(f, Fraction(1, 4), blocks=2)
    assert (t.split, t.blocks, t.stage_bits) == (1, 2, 2)
    assert t.fail[0][0] == frozenset({0})  # block one holds x1
    assert t.fail[1][0] == frozenset({0})  # block two holds x2
    assert t.fail[0][1] == frozenset({0, 1})
    assert t.fail[1][1] == frozenset({1})


def test_fail_table_guards():
    with pytest.raises(DomainError):
        build_fail_table(CnfFormula(3, []), Fraction(2, 3), blocks=2)
    with pytest.raises(GuardError):
        build_fail_table(CnfFormula(21, []), Fraction(1))
    with pytest.raises(DomainError):
        build_fail_table(CnfFormula(3, []), Fraction(1, 2), blocks=3)


# ---------------------------------------------------------------------------
# oracle equivalence


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("fn", ALL_MODAL, ids=lambda f: f.__name__)
def test_matches_oracle(fn, mode):
    for f in CORPUS:
        expected = oracle_sat(f)
        answer, counters = fn(f, mode=mode)
        assert answer == expected, (f.clauses, mode)
        assert isinstance(counters, CostCounters)


def test_empty_pp_matches_oracle_in_full_mode():
    for f in CORPUS:
        answer, _ = sat_via_empty_pp(f)
        assert answer == oracle_sat(f), f.clauses


@pytest.mark.parametrize("mode", ["inc", "dec"])
def test_empty_pp_rejects_other_modes(mode):
    with pytest.raises(DomainError):
        sat_via_empty_pp(CnfFormula(2, [[1]]), mode=mode)


def test_zero_variable_formula():
    f = CnfFormula(0, [])
    for fn in ALL_MODAL:
        assert fn(f)[0] is True
    assert sat_via_empty_pp(f)[0] is True


@pytest.mark.parametrize("k", [2, 3, 5])
def test_appx_scc_clone_counts(k):
    for f in CORPUS[:12]:
        assert sat_via_appx_scc(f, k=k)[0] == oracle_sat(f)


def test_appx_scc_rejects_tiny_k():
    with pytest.raises(DomainError):
        sat_via_appx_scc(CnfFormula(2, [[1]]), k=1)


@pytest.mark.parametrize("mode", MODES)
def test_subunion_through_connectivity_wrapper(mode):
    for f in CORPUS[:12]:
        answer, _ = sat_via_subunion(f, mode=mode, factory=SubunionViaConnsub)
        assert answer == oracle_sat(f), (f.clauses, mode)


@pytest.mark.parametrize("delta", [Fraction(1, 3), Fraction(1)])
def test_other_split_fractions(delta):
    for f in CORPUS[:12]:
        assert sat_via_ssr(f, delta=delta)[0] == oracle_sat(f)
        assert sat_via_subunion(f, delta=delta)[0] == oracle_sat(f)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ssr_matches_oracle_hypothesis(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    clauses = data.draw(st.lists(
        st.lists(st.sampled_from([v for v in range(-n, n + 1) if v != 0]),
                 max_size=3),
        max_size=3 * n))
    f = CnfFormula(n, clauses)
    assert sat_via_ssr(f)[0] == oracle_sat(f)
    assert sat_via_sc2(f, mode="inc")[0] == oracle_sat(f)


# ---------------------------------------------------------------------------
# stage isolation and counters


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("fn", ALL_MODAL, ids=lambda f: f.__name__)
def test_stage_isolation_digest(fn, mode):
    for f in CORPUS[:10]:
        answer, _ = fn(f, mode=mode, check_isolation=True)
        assert answer == oracle_sat(f)


@pytest.mark.parametrize("kind,instance,leak,query", [
    (ProblemKind.ST_REACH, Graph(3, directed=True, s=0, t=2), InsertEdge(0, 1),
     StReachable()),
    (ProblemKind.SUB_UNION, SetSystem(2, [[0], [1]]), AddToScope(1),
     UnionIsUniverse()),
], ids=["graph", "scope"])
def test_stage_isolation_check_catches_a_leaked_update(kind, instance, leak, query):
    handle = DirectEngine(kind, Mode.FULL, instance)
    # an empty undo list restores nothing, so the stage's update stays
    with pytest.raises(ConstructionError, match="not isolated"):
        _scan(handle, SimpleNamespace(stage_bits=1), True,
              lambda r: ([leak], [], query, bool))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("fn", ALL_MODAL, ids=lambda f: f.__name__)
def test_unsat_runs_one_query_per_stage(fn, mode):
    blocks = 2 if fn in TWO_BLOCK else 1
    for f in UNSAT_CORPUS:
        delta = Fraction(1, 4) if blocks == 2 else Fraction(1, 2)
        split = compute_split(f.var_count, delta)
        stages = 1 << (f.var_count - blocks * split)
        _, counters = fn(f, mode=mode)
        assert counters.queries == stages, (f.clauses, mode)


def test_unsat_empty_pp_query_count():
    for f in UNSAT_CORPUS:
        split = compute_split(f.var_count, Fraction(1, 2))
        _, counters = sat_via_empty_pp(f)
        assert counters.queries == 1 << (f.var_count - split)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("fn", ALL_MODAL, ids=lambda f: f.__name__)
def test_update_volume_bounds(fn, mode):
    per_stage = 4 if fn in (sat_via_sc2, sat_via_appx_scc) else 2
    for f in UNSAT_CORPUS:
        _, counters = fn(f, mode=mode)
        stages = counters.queries
        cap = per_stage * (len(f.clauses) + 2) * stages
        assert counters.updates <= cap, (f.clauses, mode)
        if mode == "full":
            assert counters.rollback_ops == 0
        else:
            assert counters.rollback_ops == counters.updates, (f.clauses, mode)


def test_frozen_counter_trace_ssr():
    f = CnfFormula(2, [[1], [-1]])  # both clauses always unsatisfied per stage
    _, full = sat_via_ssr(f, mode="full")
    assert (full.queries, full.updates, full.rollback_ops) == (2, 8, 0)
    _, inc = sat_via_ssr(f, mode="inc")
    assert (inc.queries, inc.updates, inc.rollback_ops) == (2, 4, 4)
    _, dec = sat_via_ssr(f, mode="dec")
    assert (dec.queries, dec.updates, dec.rollback_ops) == (2, 0, 0)


def test_frozen_counter_trace_ssr_satisfiable():
    f = CnfFormula(2, [[1, 2], [-1, 2]])
    answer, c = sat_via_ssr(f, mode="full")
    assert answer is True
    # stage x2=false installs and removes two source arcs, stage x2=true none
    assert (c.queries, c.updates) == (2, 4)
