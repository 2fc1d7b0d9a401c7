"""Randomized property suites for the reductions and engines.

Each suite draws random instances, runs the relevant reductions against the
brute-force oracles, and checks the advertised counter bounds. The CLI
`verify` subcommand and the acceptance tests both drive `run_suite`; a trial
function returns a list of (property, ok, detail) triples so failures carry
enough context to reproduce.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .engines import (
    KINDS,
    DirectEngine,
    Mode,
    ProblemKind,
)
from .generators import random_cnf, random_graph, random_set_system
from .model import (
    ActivateNode,
    AddToScope,
    DeactivateNode,
    DeleteEdge,
    Graph,
    InsertEdge,
    InsertSet,
    IntersectSets,
    IsEmpty,
    KAugFreeMatchingSize,
    Member,
    ReachCountLessThan,
    RemoveFromScope,
    SccCount2VsK,
    SetSystem,
)
from .minweight_reductions import (
    min_weight_triangle_via_bwm,
    min_weight_triangle_via_stsp,
)
from .oracles import (
    oracle_all_triangles,
    oracle_min_weight_triangle,
    oracle_sat,
)
from .pair_listing import (
    OVERFLOW,
    DecrementalTraceAdapter,
    SubconnProbe,
    brute_force_pairs,
    brute_force_triangles,
    gen_tripartite_instance,
    list_pairs,
    pairs_to_triangles,
)
from .reductions import REDUCTIONS, anchor_oracle
from .sat_reductions import (
    _engine_digest,
    build_fail_table,
    sat_via_appx_scc,
    sat_via_sc2,
    sat_via_ssr,
)
from .triangle_reductions import (
    split_by_degree,
    triangle_via_empty_pp,
    triangle_via_pp,
    triangle_via_streach,
)
from .wrappers import WRAPPERS

SUITE_NAMES = ("seth", "triangle", "apsp", "threesum", "engines")

MAX_VIOLATION_DETAILS = 25


# ---------------------------------------------------------------------------
# satisfiability suite


def seth_trial(rng: random.Random, max_n: int):
    """One random formula through every satisfiability reduction and mode."""
    checks = []
    n = rng.randint(1, max(1, min(max_n, 12)))
    m = rng.randint(1, 4 * n)
    f = random_cnf(rng, n, m)
    want = oracle_sat(f)
    k = rng.choice((2, 3, 4))
    note = f"n={n} m={m} want={want}"

    # entries are looked up at each call, so a replaced entry is the one run
    for name, entry in REDUCTIONS.items():
        if entry.loader != "cnf" or (name in ("st-reach", "diam") and n < 2):
            continue  # two-block split needs at least two variables
        for mode in entry.modes:
            if name == "appx-scc":  # with a random clone count
                got, _ = sat_via_appx_scc(f, k=k, mode=mode)
                detail = f"{note} mode={mode} k={k} got={got}"
            else:
                got, _ = entry.run(f, mode, {"delta": None})
                detail = f"{note} mode={mode} got={got}"
            checks.append((f"answer:{name}", got == want, detail))

    # Stage isolation: digest drift raises inside the stage loop.
    try:
        sat_via_ssr(f, mode="inc", check_isolation=True)
        sat_via_sc2(f, mode="dec", check_isolation=True)
        checks.append(("stage-isolation", True, ""))
    except Exception as exc:  # pragma: no cover - only on regression
        checks.append(("stage-isolation", False, f"{note}: {exc!r}"))

    if not want:
        stages = 1 << build_fail_table(f, Fraction(1, 2)).stage_bits
        _, c = sat_via_ssr(f, mode="full")
        checks.append(("ssr-query-count", c.queries == stages,
                       f"{note} queries={c.queries} stages={stages}"))
        bound = 2 * stages * (m + 2)
        checks.append(("ssr-update-bound", c.updates <= bound,
                       f"{note} updates={c.updates} bound={bound}"))
        # Two collector arcs per satisfied clause, installed and undone.
        _, c = sat_via_sc2(f, mode="full")
        checks.append(("sc2-update-bound", c.updates <= 4 * stages * m,
                       f"{note} updates={c.updates} bound={4 * stages * m}"))
    return checks


# ---------------------------------------------------------------------------
# triangle-finding suite


def triangle_trial(rng: random.Random, max_n: int):
    """One random graph through every triangle routine and mode."""
    checks = []
    n = rng.randint(2, max(2, min(max_n, 40)))
    p = rng.choice((0.1, 0.2, 0.35, 0.6))
    g = random_graph(rng, n, p)
    want = anchor_oracle(g)
    note = f"n={n} p={p} want={want}"

    for name, entry in REDUCTIONS.items():
        if entry.oracle is not anchor_oracle:
            continue
        for mode in entry.modes:
            got, c = entry.run(g, mode, {"delta": None})
            checks.append((f"anchor:{name}", got == want,
                           f"{note} mode={mode} got={got}"))
        if name == "tri-streach-dec" and want is None:
            # Full schedule only: an early hit stops with work outstanding.
            leaves = max(2, 1 << max(0, (n - 1).bit_length()))
            tree_ops = c.updates + c.rollback_ops
            checks.append(("tree-op-bound",
                           tree_ops <= 4 * (2 * leaves - 2)
                           and c.updates == c.rollback_ops,
                           f"{note} updates={c.updates} "
                           f"rollback={c.rollback_ops} leaves={leaves}"))

    got, _ = triangle_via_empty_pp(g)
    checks.append(("exists:tri-empty-pp", got == (want is not None),
                   f"{note} got={got}"))

    if want is not None:
        found, _ = triangle_via_pp(g, seed=rng.getrandbits(32))
        checks.append(("no-false-negative:tri-pp", found, note))

    threshold = rng.randint(0, n)
    witness = split_by_degree(
        g, threshold, lambda sub: triangle_via_streach(sub)[0])
    ok = ((witness is not None) == (want is not None)
          and (witness is None or witness.verify(g)))
    checks.append(("witness:tri-split", ok,
                   f"{note} threshold={threshold} witness={witness}"))

    if want is None:
        _, c = triangle_via_streach(g, mode="full")
        checks.append(("miss-counters:tri-streach",
                       c.queries == n and c.updates == 4 * n,
                       f"{note} queries={c.queries} updates={c.updates}"))
        _, c = triangle_via_streach(g, mode="inc")
        checks.append(("miss-counters:tri-streach-inc",
                       c.queries == n and c.updates == 2 * n
                       and c.rollback_ops == 2 * n,
                       f"{note} {c.as_dict()}"))
    return checks


# ---------------------------------------------------------------------------
# minimum-weight-triangle suite


def apsp_trial(rng: random.Random, max_n: int):
    """One random weighted graph through both distance-based routines."""
    checks = []
    n = rng.randint(2, max(2, min(max_n, 24)))
    p = rng.choice((0.15, 0.3, 0.5))
    mw = rng.randint(1, 10)
    g = random_graph(rng, n, p, weighted=True, max_weight=mw)
    tri = oracle_min_weight_triangle(g)
    want = tri.weight if tri is not None else None
    note = f"n={n} p={p} mw={mw} want={want}"

    stages: list = []
    got, c = min_weight_triangle_via_stsp(g, mode="dec", record_stages=stages)
    checks.append(("answer:mwt-stsp-dec", got == want, f"{note} got={got}"))
    checks.append(("counters:mwt-stsp",
                   c.queries == n and c.updates <= 2 * n,
                   f"{note} queries={c.queries} updates={c.updates}"))

    # Stage decomposition: stage i isolates triangles through vertex i-1.
    m_bound = g.max_weight
    lightest: dict[int, int] = {}  # vertex -> its lightest triangle's weight
    for t in oracle_all_triangles(g):
        w = g.weight(t[0], t[1]) + g.weight(t[1], t[2]) + g.weight(t[0], t[2])
        for v in t[:3]:
            lightest[v] = min(w, lightest.get(v, w))
    stage_ok = True
    detail = ""
    for i, z in stages:
        best = lightest.get(i - 1)
        if best is None:
            if z is not None and z <= 3 * m_bound:
                stage_ok, detail = False, f"stage {i}: z={z} but no triangle"
                break
        elif z != best:
            stage_ok, detail = False, f"stage {i}: z={z} want {best}"
            break
    checks.append(("stages:mwt-stsp", stage_ok, f"{note} {detail}"))

    got_inc, c_inc = min_weight_triangle_via_stsp(g, mode="inc")
    checks.append(("answer:mwt-stsp-inc", got_inc == want,
                   f"{note} got={got_inc}"))
    checks.append(("counters:mwt-stsp-inc",
                   c_inc.queries == n and c_inc.updates <= 2 * n,
                   f"{note} queries={c_inc.queries} updates={c_inc.updates}"))

    got_b, c_b = min_weight_triangle_via_bwm(g, mode="dec")
    checks.append(("answer:mwt-bwm", got_b == want, f"{note} got={got_b}"))
    checks.append(("counters:mwt-bwm", c_b.as_dict() == c.as_dict(),
                   f"{note} bwm={c_b.as_dict()} stsp={c.as_dict()}"))
    got_bi, c_bi = min_weight_triangle_via_bwm(g, mode="inc")
    checks.append(("answer:mwt-bwm-inc", got_bi == want,
                   f"{note} got={got_bi}"))
    checks.append(("counters:mwt-bwm-inc", c_bi.as_dict() == c_inc.as_dict(),
                   f"{note} bwm={c_bi.as_dict()} stsp={c_inc.as_dict()}"))
    return checks


# ---------------------------------------------------------------------------
# pair-listing suite


def threesum_trial(rng: random.Random, max_n: int):
    """One random tripartite instance through the listing pipeline."""
    checks = []
    n_c = rng.randint(1, max(1, min(max_n, 32)))
    r = rng.randint(1, 3)
    density = rng.choice((0.1, 0.3, 0.6))
    inst = gen_tripartite_instance(n_c, r, density, seed=rng.getrandbits(32))
    want = brute_force_pairs(inst)
    note = f"n_c={n_c} r={r} density={density} pairs={len(want)}"

    # Default delta can sit below the pair count on tiny instances; lift it
    # so this run never overflows and the bound checks stay meaningful.
    delta = max(inst.delta, len(inst.e_ab))
    probe = SubconnProbe(inst)
    pairs, c = list_pairs(inst, probe, delta=delta)
    checks.append(("pairs:brute-force", pairs == want,
                   f"{note} got={pairs if pairs == OVERFLOW else len(pairs)}"))

    levels = probe.levels
    call_bound = inst.side + 2 * len(want) * (levels + 1)
    checks.append(("probe-call-bound", c.queries <= call_bound,
                   f"{note} queries={c.queries} bound={call_bound}"))
    act_bound = 2 * (levels + 1) * len(inst.e_ab)
    checks.append(("activation-bound",
                   c.updates <= act_bound and c.updates == c.rollback_ops,
                   f"{note} updates={c.updates} bound={act_bound} "
                   f"rollback={c.rollback_ops}"))

    tris = pairs_to_triangles(inst, pairs)
    checks.append(("triangles:brute-force",
                   tris == brute_force_triangles(inst),
                   f"{note} got={len(tris)}"))

    if want:
        over, _ = list_pairs(inst, SubconnProbe(inst), delta=0)
        checks.append(("overflow-sentinel", over == OVERFLOW,
                       f"{note} got={over!r}"))

    adapter = DecrementalTraceAdapter(inst)
    fresh = SubconnProbe(inst)
    agree = True
    detail = ""
    for _ in range(6):
        a = rng.randrange(inst.side)
        i = rng.randint(0, levels)
        j = rng.randint(1, 1 << i)
        if adapter.probe(a, i, j) != fresh.probe(a, i, j):
            agree, detail = False, f"probe({a},{i},{j}) disagrees"
            break
    checks.append(("adapter:probe-agreement", agree, f"{note} {detail}"))

    if inst.side <= 8:
        pairs2, c2 = list_pairs(inst, DecrementalTraceAdapter(inst),
                                delta=delta)
        checks.append(("adapter:pairs", pairs2 == want,
                       f"{note} got={pairs2}"))
        checks.append(("adapter:undo-balance",
                       c2.updates == c2.rollback_ops,
                       f"{note} updates={c2.updates} "
                       f"rollback={c2.rollback_ops}"))
    return checks


# ---------------------------------------------------------------------------
# engine trace suite


def random_engine_instance(kind: ProblemKind, rng: random.Random, max_n: int):
    """A random instance passing the shape checks for `kind`.

    Returns (instance, aux) where aux carries whatever the op generator
    needs: the left-part size for bipartite kinds, the initial scope for
    the covering kind.
    """
    spec = KINDS[kind]
    n = rng.randint(2, max(2, max_n))
    aux: dict = {}
    if spec.instance is SetSystem:
        universe = rng.randint(1, max(1, max_n))
        nsets = rng.randint(1, 6)
        ss = random_set_system(rng, universe, nsets, rng.choice((0.2, 0.5)))
        if "scope" in spec.families:
            aux["scope"] = set(
                i for i in range(nsets) if rng.random() < 0.5)
        return ss, aux

    directed = spec.directed
    if directed is None:
        directed = rng.random() < 0.5
    weighted = bool(spec.weighted)
    kw: dict = {}
    if spec.terminals == "st":
        kw["s"], kw["t"] = 0, n - 1
    elif spec.terminals == "s":
        kw["s"] = rng.randrange(n)
    elif spec.terminals == "sets":
        nodes = list(range(n))
        rng.shuffle(nodes)
        cut = rng.randint(1, n - 1)
        kw["s_set"], kw["t_set"] = set(nodes[:cut]), set(nodes[cut:])
    if "node" in spec.families:
        kw["active"] = set(v for v in range(n) if rng.random() < 0.7)
        if spec.terminals == "st":
            kw["active"] |= {0, n - 1}

    if spec.bipartite:
        nl = rng.randint(1, n - 1)
        aux["nl"] = nl
        g = Graph(n, weighted=weighted, max_weight=10 if weighted else None)
        for u in range(nl):
            for v in range(nl, n):
                if rng.random() < 0.4:
                    g.add_edge(u, v, rng.randint(1, 10) if weighted else None)
        return g, aux

    mw = 10 if weighted else 9
    g = random_graph(rng, n, rng.choice((0.2, 0.4)), directed=directed,
                     weighted=weighted, max_weight=mw, **kw)
    return g, aux


def random_valid_op(kind: ProblemKind, state, rng: random.Random, aux: dict,
                    allow=("insert", "delete")):
    """A random op legal for the engine's current state, or None."""
    families = KINDS[kind].families
    options = []
    if "set" in families:
        universe = state.sets.universe_size
        if "insert" in allow:
            members = sorted(x for x in range(universe)
                             if rng.random() < 0.5)
            options.append(InsertSet(members))
            count = len(state.sets)
            options.append(IntersectSets(rng.randrange(count),
                                         rng.randrange(count)))
        return rng.choice(options) if options else None
    if "scope" in families:
        count = len(state.sets)
        out = set(range(count)) - state.scope
        if "insert" in allow and out:
            options.append(AddToScope(rng.choice(sorted(out))))
        if "delete" in allow and state.scope:
            options.append(RemoveFromScope(rng.choice(sorted(state.scope))))
        return rng.choice(options) if options else None

    g = state.graph
    n = g.node_count
    # terminals stay active: the connectivity wrapper treats s and t as
    # permanently on, so traces never toggle them
    terminals = {g.s, g.t} - {None}
    if "insert" in allow:
        nl = aux.get("nl")
        free = []
        for u in range(nl if nl is not None else n):
            for v in range(nl, n) if nl is not None else range(n):
                if u != v and not g.has_edge(u, v):
                    if not g.directed and v < u:
                        continue
                    free.append((u, v))
        if free:
            u, v = rng.choice(free)
            w = rng.randint(1, g.max_weight) if g.weighted else None
            options.append(InsertEdge(u, v, w))
        if "node" in families:
            inactive = sorted(set(range(n)) - g.active - terminals)
            if inactive:
                options.append(ActivateNode(rng.choice(inactive)))
    if "delete" in allow:
        edges = g.edges()
        if edges:
            u, v = rng.choice(sorted(edges))
            options.append(DeleteEdge(u, v))
        if "node" in families:
            togglable = sorted(g.active - terminals)
            if togglable:
                options.append(DeactivateNode(rng.choice(togglable)))
    return rng.choice(options) if options else None


def _random_query(kind: ProblemKind, state, rng: random.Random):
    query = KINDS[kind].query
    if query is ReachCountLessThan:
        return ReachCountLessThan(rng.randint(0, state.graph.node_count + 1))
    if query is SccCount2VsK:
        return SccCount2VsK(rng.choice((2, 3, 4)))
    if query is KAugFreeMatchingSize:
        return KAugFreeMatchingSize(rng.choice((1, 3, 5, 17)))
    if query in (Member, IsEmpty):
        i = rng.randrange(len(state.sets))
        if query is Member:
            return Member(i, rng.randrange(state.sets.universe_size))
        return IsEmpty(i)
    return query()


def rollback_trace(kind: ProblemKind, rng: random.Random, max_n: int):
    """Checkpoint, mutate, roll back; the state digest must return exactly."""
    inst, aux = random_engine_instance(kind, rng, max_n)
    eng = DirectEngine(kind, Mode.FULL, inst, scope=aux.get("scope"))
    base = _engine_digest(eng)
    cp = eng.checkpoint()
    applied = 0
    for _ in range(rng.randint(1, 12)):
        op = random_valid_op(kind, eng, rng, aux)
        if op is None:
            continue
        eng.update(op)
        applied += 1
        if rng.random() < 0.3:
            eng.query(_random_query(kind, eng, rng))
        if rng.random() < 0.2:
            inner = eng.checkpoint()
            nested = random_valid_op(kind, eng, rng, aux)
            if nested is not None:
                eng.update(nested)
            eng.rollback(inner)
    eng.rollback(cp)
    ok = _engine_digest(eng) == base
    return ok, f"kind={kind.value} ops={applied}"


def wrapper_trace(name: str, rng: random.Random, max_n: int):
    """Drive a wrapper and a direct engine with one op trace; answers and
    counters must agree."""
    cls = next((w for w in WRAPPERS if w.name == name), None)
    if cls is None:
        raise ValueError(f"unknown wrapper {name!r}")
    kind = cls.outer_kind
    query = KINDS[kind].query()

    inst, aux = random_engine_instance(kind, rng, max_n)
    scope = aux.get("scope")
    direct = DirectEngine(kind, Mode.FULL, inst, scope=scope)
    wrapped = cls(kind, Mode.FULL, inst, scope=scope)

    if wrapped.query(query) != direct.query(query):
        return False, f"{name}: initial answers differ"
    ops = 0
    for _ in range(rng.randint(1, 10)):
        op = random_valid_op(kind, direct, rng, aux)
        if op is None:
            continue
        direct.update(op)
        wrapped.update(op)
        ops += 1
        if direct.query(query) != wrapped.query(query):
            return False, f"{name}: answers diverge after {op!r}"
    if rng.random() < 0.5:
        cp_d, cp_w = direct.checkpoint(), wrapped.checkpoint()
        for _ in range(rng.randint(1, 3)):
            op = random_valid_op(kind, direct, rng, aux)
            if op is None:
                continue
            direct.update(op)
            wrapped.update(op)
            ops += 1
        direct.rollback(cp_d)
        wrapped.rollback(cp_w)
        if direct.query(query) != wrapped.query(query):
            return False, f"{name}: answers diverge after rollback"
    if wrapped.counters.as_dict() != direct.counters.as_dict():
        return False, (f"{name}: counters {wrapped.counters.as_dict()} "
                       f"vs {direct.counters.as_dict()}")
    return True, f"{name}: ops={ops}"


def engines_trial(rng: random.Random, max_n: int):
    checks = []
    for kind in ProblemKind:
        ok, detail = rollback_trace(kind, rng, max_n)
        checks.append((f"rollback:{kind.value}", ok, detail))
    for cls in WRAPPERS:
        ok, detail = wrapper_trace(cls.name, rng, max_n)
        checks.append((f"wrapper:{cls.name}", ok, detail))
    return checks


# ---------------------------------------------------------------------------
# suite driver


_TRIAL_FN = {
    "seth": seth_trial,
    "triangle": triangle_trial,
    "apsp": apsp_trial,
    "threesum": threesum_trial,
    "engines": engines_trial,
}


def run_suite(suite: str, *, trials: int = 25, seed: int = 0,
              max_n: int = 12) -> dict:
    """Run `trials` independent trials of one suite (or all of them).

    Returns a JSON-ready summary: per-property pass/fail tallies, the first
    few violation details, and an overall `ok` flag. Zero trials pass
    vacuously but carry a warning field.
    """
    if suite == "all":
        subs = {name: run_suite(name, trials=trials, seed=seed, max_n=max_n)
                for name in SUITE_NAMES}
        out = {
            "suite": "all",
            "trials": trials,
            "seed": seed,
            "max_n": max_n,
            "suites": subs,
            "ok": all(s["ok"] for s in subs.values()),
        }
        if trials == 0:
            out["warning"] = "zero trials requested: vacuous pass"
        return out
    if suite not in _TRIAL_FN:
        raise ValueError(f"unknown suite {suite!r}")
    if trials < 0:
        raise ValueError("trials must be nonnegative")

    rng = random.Random(seed)
    tallies: dict[str, list[int]] = {}
    violations: list[str] = []
    for t in range(trials):
        for prop, ok, detail in _TRIAL_FN[suite](rng, max_n):
            tally = tallies.setdefault(prop, [0, 0])
            tally[0 if ok else 1] += 1
            if not ok and len(violations) < MAX_VIOLATION_DETAILS:
                violations.append(f"trial {t}: {prop}: {detail}")
    out = {
        "suite": suite,
        "trials": trials,
        "seed": seed,
        "max_n": max_n,
        "properties": {prop: {"pass": p, "fail": f}
                       for prop, (p, f) in sorted(tallies.items())},
        "violations": violations,
        "ok": all(f == 0 for _, f in tallies.values()),
    }
    if trials == 0:
        out["warning"] = "zero trials requested: vacuous pass"
    return out
