"""Satisfiability through dynamic graph and set-system engines.

Shared shape of every routine here: a block U of the first ceil(delta * n)
variables is folded into explicit "assignment nodes", one per assignment of
U. The remaining variables are enumerated stage by stage; each stage installs
a handful of updates describing which clauses the stage assignment leaves
unsatisfied, asks the engine one query that decides whether some assignment
node completes the stage, and then restores the engine (inverse updates in
full mode, checkpoint/rollback in incremental and decremental mode).

The formula is satisfiable iff some stage can be completed, so the routines
return on the first positive stage and otherwise run all 2^(n - |U|) stages.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import limits
from .engines import (
    DirectEngine,
    Mode,
    ProblemKind,
    Toggle,
    _as_mode,
    innermost,
    inverse,
    run_stage,
)
from .model import (
    AddToScope,
    AllStReachable,
    CnfFormula,
    ConstructionError,
    Diameter,
    DomainError,
    Graph,
    GuardError,
    InsertEdge,
    IntersectSets,
    IsEmpty,
    MaxSccSize,
    MoreThanTwoSccs,
    ReachCountLessThan,
    SccCount2VsK,
    SetSystem,
    UnionIsUniverse,
)


# ---------------------------------------------------------------------------
# fail tables: which block assignments fail which clauses


@dataclass
class FailTable:
    """Per-clause failing-assignment sets for one or two variable blocks.

    Block b covers variables (b*split, (b+1)*split], and bit i of an
    assignment index is the value of the (i+1)-th variable of the block.
    fail[b][j] is the set of block-b assignments satisfying no literal of
    clause j inside that block. Stage bits cover the leftover variables.
    """

    var_count: int
    split: int
    assign_count: int
    stage_bits: int
    blocks: int
    fail: list[list[frozenset[int]]]
    _stage_pos: list[int]
    _stage_neg: list[int]

    def unsat_indices(self, r: int) -> list[int]:
        """The clauses stage assignment r leaves unsatisfied, ascending."""
        nr = ~r
        return [j for j, (pos, neg) in enumerate(zip(self._stage_pos, self._stage_neg))
                if not (r & pos or neg & nr)]


def _block_fail_set(clause: list[int], lo: int, hi: int, bits: int) -> frozenset[int]:
    """Assignments of variables (lo, hi] satisfying no clause literal there."""
    pos = neg = 0
    for lit in clause:
        v = abs(lit)
        if lo < v <= hi:
            bit = 1 << (v - lo - 1)
            if lit > 0:
                pos |= bit
            else:
                neg |= bit
    if pos & neg:
        return frozenset()  # complementary literals: every assignment satisfies one
    free = ((1 << bits) - 1) & ~pos & ~neg
    out = []
    sub = free
    while True:
        out.append(sub | neg)
        if sub == 0:
            break
        sub = (sub - 1) & free
    return frozenset(out)


def compute_split(var_count: int, delta: Fraction) -> int:
    if not (0 < delta <= 1):
        raise DomainError("delta must lie in (0, 1]")
    return math.ceil(Fraction(delta) * var_count)


def build_fail_table(formula: CnfFormula, delta, *, blocks: int = 1) -> FailTable:
    if blocks not in (1, 2):
        raise DomainError("blocks must be 1 or 2")
    delta = Fraction(delta)
    n = formula.var_count
    split = compute_split(n, delta)
    if blocks * split > n:
        raise DomainError(
            f"{blocks} blocks of {split} variables do not fit into {n}")
    if split > limits.ASSIGN_BLOCK_MAX_BITS:
        raise GuardError(
            f"block of {split} variables exceeds the {limits.ASSIGN_BLOCK_MAX_BITS} cap")
    fail = [
        [_block_fail_set(cl, b * split, (b + 1) * split, split) for cl in formula.clauses]
        for b in range(blocks)
    ]
    base = blocks * split
    stage_pos, stage_neg = [], []
    for cl in formula.clauses:
        pos = neg = 0
        for lit in cl:
            v = abs(lit)
            if v > base:
                bit = 1 << (v - base - 1)
                if lit > 0:
                    pos |= bit
                else:
                    neg |= bit
        stage_pos.append(pos)
        stage_neg.append(neg)
    return FailTable(
        var_count=n,
        split=split,
        assign_count=1 << split,
        stage_bits=n - base,
        blocks=blocks,
        fail=fail,
        _stage_pos=stage_pos,
        _stage_neg=stage_neg,
    )


# ---------------------------------------------------------------------------
# shared driver plumbing


def _engine_state(handle, view: str = "_state_tuple"):
    """The innermost engine's graph or sets as their method view gives them,
    with the sorted scope of a set system; by default a tuple that is equal
    exactly when the states are."""
    st = innermost(handle)
    if st.graph is not None:
        return getattr(st.graph, view)()
    scope = tuple(sorted(st.scope)) if st.scope is not None else None
    return (getattr(st.sets, view)(), scope)


def _engine_digest(handle):
    return _engine_state(handle, "digest")


def _scan(handle, t: FailTable, check_isolation: bool, stage):
    """Run stages r = 0, 1, ... until one completes; return (answer, counters).

    stage(r) gives stage r's (ops, undo, query, interpret) for run_stage; a
    completing stage is restored too. With check_isolation the engine state
    must be back at its start value after every stage.
    """
    base = _engine_state(handle) if check_isolation else None
    for r in range(1 << t.stage_bits):
        ops, undo, *rest = stage(r)
        hit = run_stage(handle, ops, *rest, undo=undo)
        if check_isolation and _engine_state(handle) != base:
            raise ConstructionError("stage was not isolated: state digest drifted")
        if hit:
            return True, handle.counters
    return False, handle.counters


def _toggle(mode: Mode, count: int, make) -> Toggle:
    """Items switched on by the insert-type ops make(i): on at the start of a
    decremental run, off otherwise. Full mode restores by inverse updates."""
    dec = mode is Mode.DECREMENTAL
    return Toggle(count, (lambda i: map(inverse, make(i))) if dec else make,
                  start_on=dec, undo=mode is Mode.FULL)


# ---------------------------------------------------------------------------
# single-block reductions


def sat_via_ssr(formula: CnfFormula, *, delta=Fraction(1, 2), mode="full",
                check_isolation=False):
    """Satisfiability via source reach counting.

    Clause nodes point at the assignments failing them; the source points at
    the clauses the stage leaves unsatisfied. The stage is completable iff
    some assignment node escapes the source's reach, i.e. the reach count
    (source excluded) stays below assign_count + out-degree of the source.
    """
    mode = _as_mode(mode)
    t = build_fail_table(formula, delta)
    a_count, c_count = t.assign_count, len(formula.clauses)
    src = a_count + c_count
    g = Graph(a_count + c_count + 1, directed=True, s=src)
    for j in range(c_count):
        for phi in sorted(t.fail[0][j]):
            g.add_edge(a_count + j, phi)

    arcs = _toggle(mode, c_count, lambda j: (InsertEdge(src, a_count + j),))
    arcs.add_to_host(g)
    handle = DirectEngine(ProblemKind.REACH_COUNT, mode, g)

    def stage(r):
        unsat = t.unsat_indices(r)
        return *arcs.keep_on(unsat), ReachCountLessThan(a_count + len(unsat)), bool

    return _scan(handle, t, check_isolation, stage)


def _kept_clauses(t: FailTable) -> dict[int, int]:
    """Clauses that some block assignment fails, each mapped to its position
    among them. The others hold complementary literals inside the block, are
    satisfied by every block assignment, and would show up as stray
    components, so the SCC-shaped routines drop them."""
    return {j: pos for pos, j in enumerate(j for j, f in enumerate(t.fail[0]) if f)}


def _cycle_host(t: FailTable, kept: dict[int, int], clones: int, collectors: int):
    """Host graph of the SCC-shaped routines; returns (g, clause_base, s).

    Node layout: `clones` copies of the assignment nodes (copy c of phi at
    c * assign_count + phi), one clause node per kept clause from
    clause_base, then the collector s and, with two collectors, s2 = s + 1.
    Every assignment copy points at s; every clause node points at each copy
    of the assignments failing its clause.
    """
    a_count = t.assign_count
    clause_base = clones * a_count
    s = clause_base + len(kept)
    g = Graph(s + collectors, directed=True)
    for copy in range(clones):
        for phi in range(a_count):
            g.add_edge(copy * a_count + phi, s)
    for pos, j in enumerate(kept):
        for phi in sorted(t.fail[0][j]):
            for copy in range(clones):
                g.add_edge(clause_base + pos, copy * a_count + phi)
    return g, clause_base, s


def _unsat_positions(t: FailTable, kept: dict[int, int], r: int) -> list[int]:
    return [kept[j] for j in t.unsat_indices(r) if j in kept]


def _scc_gap(formula: CnfFormula, clones: int, kind: ProblemKind, query, *,
             delta, mode, check_isolation):
    """Satisfiability via an SCC count gap, every assignment node cloned
    `clones` times.

    Per stage, s points at the unsatisfied clauses (closing cycles through
    their failing assignments) while a second collector s2 pairs up with the
    satisfied clauses. An assignment failing no unsatisfied clause survives
    as `clones` singleton SCCs; otherwise everything collapses into two.
    """
    mode = _as_mode(mode)
    t = build_fail_table(formula, delta)
    kept = _kept_clauses(t)
    g, clause_base, s = _cycle_host(t, kept, clones, 2)
    s2, k = s + 1, len(kept)

    def arcs(i):  # item i < k: the cycle arc of position i; else the pair of i - k
        if i < k:
            return (InsertEdge(s, clause_base + i),)
        return InsertEdge(s2, clause_base + i - k), InsertEdge(clause_base + i - k, s2)

    toggle = _toggle(mode, 2 * k, arcs)
    toggle.add_to_host(g)
    handle = DirectEngine(kind, mode, g)

    def stage(r):
        unsat = _unsat_positions(t, kept, r)
        on = set(unsat)
        items = unsat + [k + p for p in range(k) if p not in on]
        return *toggle.keep_on(items), query, bool

    return _scan(handle, t, check_isolation, stage)


def sat_via_sc2(formula: CnfFormula, *, delta=Fraction(1, 2), mode="full",
                check_isolation=False):
    """Satisfiability via the two-or-more SCC gap.

    Permanent arcs: every assignment node points at a collector s, every
    clause node at its failing assignments. Per stage, s points at the
    unsatisfied clauses while a second collector s2 pairs up with the
    satisfied ones. An assignment failing no unsatisfied clause survives as
    its own singleton SCC, so the stage is completable iff there are more
    than two SCCs.
    """
    return _scc_gap(formula, 1, ProblemKind.SC2, MoreThanTwoSccs(), delta=delta,
                    mode=mode, check_isolation=check_isolation)


def sat_via_max_scc(formula: CnfFormula, *, delta=Fraction(1, 2), mode="full",
                    check_isolation=False):
    """Satisfiability via the largest SCC size.

    Same cycle structure as sat_via_sc2 but without the second collector.
    The big SCC holds s, the d unsatisfied clauses and every assignment
    failing one of them; an assignment survives outside iff the stage is
    completable, which caps the SCC at d + assign_count.
    """
    mode = _as_mode(mode)
    t = build_fail_table(formula, delta)
    kept = _kept_clauses(t)
    g, clause_base, s = _cycle_host(t, kept, 1, 1)
    cycles = _toggle(mode, len(kept), lambda pos: (InsertEdge(s, clause_base + pos),))
    cycles.add_to_host(g)
    handle = DirectEngine(ProblemKind.MAX_SCC, mode, g)

    def stage(r):
        unsat = _unsat_positions(t, kept, r)
        cap = len(unsat) + t.assign_count
        return *cycles.keep_on(unsat), MaxSccSize(), lambda size: size <= cap

    return _scan(handle, t, check_isolation, stage)


def sat_via_appx_scc(formula: CnfFormula, *, k: int = 3, delta=Fraction(1, 2),
                     mode="full", check_isolation=False):
    """Satisfiability via a 2-versus-more-than-k SCC count gap.

    The sc2 construction with every assignment node cloned k times: an
    uncompletable stage collapses to exactly two SCCs, a completable one
    yields at least k surviving singleton clones on top of them, so counting
    only has to separate "2" from "more than k".
    """
    if k < 2:
        raise DomainError("clone count k must be at least 2")
    return _scc_gap(formula, k, ProblemKind.SCC_2_VS_K, SccCount2VsK(k),
                    delta=delta, mode=mode, check_isolation=check_isolation)


# ---------------------------------------------------------------------------
# two-block reductions


def _two_block_host(t: FailTable, mode: Mode, extra: int = 0, **graph_kw):
    """Host graph of the two-block routines; returns (g, bridges).

    Node layout, with a = assign_count and c clauses: left assignments
    [0, a), clause nodes [a, a + c), mirrored clause nodes [a + c, a + 2c),
    right assignments [a + 2c, 2a + 2c), then `extra` nodes for the caller.
    Left assignments link to the clauses they fail and mirrored clauses to
    the right assignments failing them. Bridge j links clause j to its
    mirror; `bridges` is their Toggle, and a decremental run starts with
    every bridge in place.
    """
    a_count, c_count = t.assign_count, len(t.fail[0])
    left_c, right_c, right_a = a_count, a_count + c_count, a_count + 2 * c_count
    g = Graph(2 * a_count + 2 * c_count + extra, **graph_kw)
    for j in range(c_count):
        for phi in sorted(t.fail[0][j]):
            g.add_edge(phi, left_c + j)
        for psi in sorted(t.fail[1][j]):
            g.add_edge(right_c + j, right_a + psi)
    bridges = _toggle(mode, c_count, lambda j: (InsertEdge(left_c + j, right_c + j),))
    bridges.add_to_host(g)
    return g, bridges


def sat_via_st_reach(formula: CnfFormula, *, delta=Fraction(1, 4), mode="full",
                     check_isolation=False):
    """Satisfiability via all-pairs set reachability over two variable blocks.

    Left assignment nodes point at the clauses they fail, mirrored clause
    nodes point at the right-block assignments failing them, and each stage
    bridges clause to mirror for the clauses it leaves unsatisfied. Every
    left-right pair is connected iff no pair of block assignments completes
    the stage, so satisfiability is the negation of the query.
    """
    mode = _as_mode(mode)
    t = build_fail_table(formula, delta, blocks=2)
    a_count, c_count = t.assign_count, len(formula.clauses)
    right_a = a_count + 2 * c_count
    g, bridges = _two_block_host(
        t, mode, directed=True, s_set=frozenset(range(a_count)),
        t_set=frozenset(range(right_a, right_a + a_count)))
    handle = DirectEngine(ProblemKind.ST_SET_REACH, mode, g)
    return _scan(handle, t, check_isolation, lambda r: (
        *bridges.keep_on(t.unsat_indices(r)), AllStReachable(), operator.not_))


def sat_via_diam(formula: CnfFormula, *, delta=Fraction(1, 4), mode="full",
                 check_isolation=False):
    """Satisfiability via a diameter 3-versus-4 gap.

    Undirected double-block layout with collectors s (left), s2 (right) and
    a hub adjacent to every clause node and both collectors. Any two nodes
    sit within distance 3 except a left-right assignment pair with no shared
    stage-bridged failed clause, which sits at exactly 4. So the diameter is
    4 iff some pair completes the stage, and 3 otherwise.
    """
    mode = _as_mode(mode)
    t = build_fail_table(formula, delta, blocks=2)
    a_count, c_count = t.assign_count, len(formula.clauses)
    g, bridges = _two_block_host(t, mode, 3)
    right_a = a_count + 2 * c_count
    s = right_a + a_count
    s2, hub = s + 1, s + 2
    for j in range(c_count):
        g.add_edge(hub, a_count + j)
        g.add_edge(hub, a_count + c_count + j)
    for phi in range(a_count):
        g.add_edge(s, phi)
        g.add_edge(s2, right_a + phi)
    g.add_edge(hub, s)
    g.add_edge(hub, s2)
    handle = DirectEngine(ProblemKind.DIAMETER, mode, g)

    # fast path: a block assignment failing no clause at all completes every
    # stage on its own, so the formula is satisfiable outright
    all_left = set().union(*t.fail[0]) if t.fail[0] else set()
    all_right = set().union(*t.fail[1]) if t.fail[1] else set()
    if len(all_left) < a_count or len(all_right) < a_count:
        return True, handle.counters

    def interpret(d):
        if d not in (3, 4):
            raise ConstructionError(f"diameter {d} outside the promised gap")
        return d == 4

    return _scan(handle, t, check_isolation, lambda r: (
        *bridges.keep_on(t.unsat_indices(r)), Diameter(), interpret))


# ---------------------------------------------------------------------------
# set-system reductions


def sat_via_subunion(formula: CnfFormula, *, delta=Fraction(1, 2), mode="full",
                     factory=DirectEngine, check_isolation=False):
    """Satisfiability via scoped set union coverage.

    One set per clause holding the assignments that fail it; a stage scopes
    the unsatisfied clauses. Their union covers the whole assignment space
    iff no assignment completes the stage.
    """
    mode = _as_mode(mode)
    t = build_fail_table(formula, delta)
    c_count = len(formula.clauses)
    ss = SetSystem(t.assign_count, t.fail[0])
    scope = set(range(c_count)) if mode is Mode.DECREMENTAL else None
    handle = factory(ProblemKind.SUB_UNION, mode, ss, scope=scope)
    scoped = _toggle(mode, c_count, lambda j: (AddToScope(j),))
    return _scan(handle, t, check_isolation, lambda r: (
        *scoped.keep_on(t.unsat_indices(r)), UnionIsUniverse(), operator.not_))


def sat_via_empty_pp(formula: CnfFormula, *, delta=Fraction(1, 2), mode="full"):
    """Satisfiability via emptiness of iterated set intersections.

    One set per clause holding the assignments that satisfy it, plus the full
    assignment space as a seed. Each stage folds the unsatisfied clauses'
    sets together with intersection updates; the fold result is empty iff no
    assignment completes the stage. Intersections only ever add sets, so this
    runs in full mode with no undo; intermediate sets simply accumulate.
    """
    mode = _as_mode(mode)
    if mode is not Mode.FULL:
        raise DomainError("intersection folding runs in full mode only")
    t = build_fail_table(formula, delta)
    a_count = t.assign_count
    sat_sets = [set(range(a_count)) - f for f in t.fail[0]]
    universe_id = len(sat_sets)
    ss = SetSystem(a_count, sat_sets + [range(a_count)])
    handle = DirectEngine(ProblemKind.EMPTY_PP, mode, ss)
    answer = False
    for r in range(1 << t.stage_bits):
        unsat = t.unsat_indices(r)
        acc = universe_id
        for j in unsat:
            acc = handle.update(IntersectSets(acc, j))
        if not handle.query(IsEmpty(acc)):
            answer = True
            break
    return answer, handle.counters
