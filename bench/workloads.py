"""The three workloads: seeded inputs, the fixed job list of one pass, and
the check each job's output must pass.

A `dynred run` job is one in-process call of dynred.cli.main on an instance
file written during set-up; a verify job is one call of a public trial
function of dynred.verify. Sizes are fixed per workload; --seed only picks
the random parts of the inputs, so every seed runs the same job list.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import re

import reference as ref

from dynred import cli, generators, verify
from dynred.engines import ProblemKind
from dynred.model import CnfFormula, Graph
from dynred.pair_listing import dump_instance, gen_tripartite_instance

SAT_REDUCTIONS = {"ssr", "sc2", "appx-scc", "max-scc", "st-reach", "diam",
                  "subunion", "connsub", "empty-pp"}
TWO_BLOCK = {"st-reach", "diam"}
ANCHOR = {"tri-streach", "tri-streach-dec", "tri-subconn", "tri-5bpm",
          "tri-17bpm"}
EXISTS = {"tri-empty-pp", "tri-pp"}
MINWEIGHT = {"mwt-stsp", "mwt-bwm"}
LISTING = {"3sum-listpairs", "3sum-triangles"}


def family(reduction: str) -> str:
    """The module that drives a reduction, as named in the layer metrics."""
    if reduction in SAT_REDUCTIONS:
        return "sat_reductions"
    if reduction in MINWEIGHT:
        return "minweight_reductions"
    if reduction in LISTING:
        return "pair_listing"
    return "triangle_reductions"


# ---------------------------------------------------------------------------
# inputs


def _regions(n: int) -> list[tuple[int, int]]:
    """Variable ranges that set a clause's cost in every SAT reduction: the
    two blocks of the two-block reductions (ceil(n/4) variables each), the
    rest of the one-block reductions' block (ceil(n/2) variables), and the
    stage variables of both."""
    q, h = math.ceil(n / 4), math.ceil(n / 2)
    cuts = sorted({0, q, h, 2 * q, n})
    return [(lo + 1, hi) for lo, hi in zip(cuts, cuts[1:])]


def _shape(clause, regions) -> tuple[int, ...]:
    return tuple(sum(lo <= abs(x) <= hi for x in clause) for lo, hi in regions)


def shaped_clauses(rng: random.Random, n: int, m: int) -> list[list[int]]:
    """m clauses from dynred.generators.random_cnf, drawn one at a time and
    kept while their shape (variables per region) is under quota. The
    quotas are the expected counts of random_cnf's own distribution, so
    each formula has the same number of literals in every block and stage
    range: the same gadget sizes and stage work for every seed."""
    regions = _regions(n)
    sizes = [hi - lo + 1 for lo, hi in regions]
    expected = {}
    for width in (1, 2, 3):
        for counts in itertools.product(*(range(min(s, width) + 1) for s in sizes)):
            if sum(counts) == width:
                ways = math.prod(math.comb(s, c) for s, c in zip(sizes, counts))
                expected[counts] = m * ways / math.comb(n, width) / 3
    quota = {k: int(v) for k, v in expected.items()}
    rest = m - sum(quota.values())
    for k in sorted(expected, key=lambda k: quota[k] - expected[k])[:rest]:
        quota[k] += 1
    clauses = []
    while len(clauses) < m:
        cl = generators.random_cnf(rng, n, 1).clauses[0]
        key = _shape(cl, regions)
        if quota[key]:
            quota[key] -= 1
            clauses.append(cl)
    return clauses


def unsat_cnf(rng: random.Random, n: int, m: int) -> CnfFormula:
    """Shaped random clauses plus all eight sign patterns over three
    variables, one from each block range and one stage variable:
    unsatisfiable by construction, so every SAT reduction scans all stages."""
    regions = _regions(n)
    core = [rng.randint(*regions[i]) for i in (0, 1, -1)]
    clauses = shaped_clauses(rng, n, m - 8)
    clauses += [[v if mask >> i & 1 else -v for i, v in enumerate(core)]
                for mask in range(8)]
    return CnfFormula(n, clauses)


def sat_cnf(rng: random.Random, n: int, m: int) -> CnfFormula:
    """Shaped random clauses bent to agree with a planted assignment, plus a
    unit clause for each stage variable of the one-block reductions.
    Satisfiable by construction, and only in the last stage, so a positive
    answer costs the same full scan for every seed."""
    stage = range(math.ceil(n / 2) + 1, n + 1)
    planted = rng.getrandbits(n) | sum(1 << (v - 1) for v in stage)
    clauses = []
    for cl in shaped_clauses(rng, n, m - len(stage)):
        if not any((lit > 0) == bool(planted >> (abs(lit) - 1) & 1) for lit in cl):
            cl = [-cl[0]] + cl[1:]
        clauses.append(cl)
    return CnfFormula(n, clauses + [[v] for v in stage])


def with_edges(draw, edges: int):
    """Redraw until the graph has exactly `edges` edges: a uniform graph with
    that edge count, so every seed gives the same amount of work."""
    while True:
        g = draw()
        if g.edge_count == edges:
            return g


def bipartite(rng: random.Random, side: int, p: float) -> Graph:
    """Triangle-free by construction: every edge joins the two sides."""
    return with_edges(lambda: generators.random_bipartite(rng, side, side, p),
                      round(side * side * p))


def planted_triangle(rng: random.Random, side: int, p: float) -> Graph:
    """Bipartite graph plus one edge inside the left part. Every triangle
    runs through that edge {side-2, side-1}, so the anchor is side-2."""
    g = bipartite(rng, side, p)
    a, b, c = side - 2, side - 1, 2 * side - 1
    g.add_edge(a, b)
    for x in (a, b):
        if not g.has_edge(x, c):
            g.add_edge(x, c)
    return g


def weighted(rng: random.Random, n: int, p: float) -> Graph:
    return with_edges(lambda: generators.random_graph(
        rng, n, p, weighted=True, max_weight=9), round(n * (n - 1) / 2 * p))


def tripartite(rng: random.Random, n_c: int, r: int, density: float):
    """Redrawn until |E_AB| is its expected side^2 * density."""
    while True:
        inst = gen_tripartite_instance(n_c, r, density, seed=rng.getrandbits(32))
        if len(inst.e_ab) == round(inst.side * inst.side * density):
            return inst


# Fixed, seed-independent inputs for the warm-up jobs (one per loader).
_WARM_TEXT = {
    "cnf": "p cnf 4 4\n1 2 0\n-1 3 0\n-2 -3 0\n4 0\n",
    "graph": "4 4 undirected\n0 2\n0 3\n1 2\n1 3\n",
    "weighted": "4 4 undirected weighted\n0 1 1\n1 2 2\n0 2 3\n2 3 1\n",
}


# ---------------------------------------------------------------------------
# jobs


class RunJob:
    """One `dynred run` call; checks the report against the reference
    answer and the stage-count and rollback properties."""

    def __init__(self, reduction: str, mode: str, instance: str, *,
                 full_scan: bool):
        self.reduction, self.mode, self.instance = reduction, mode, instance
        self.name = f"{reduction}/{mode}/{instance}"
        self.suite = None
        self.family = family(reduction)
        self.full_scan = full_scan
        self.path = None
        self.expected = None
        self.stages = None
        self.counters = None  # first pass's counters; later passes must repeat them

    def argv(self) -> list[str]:
        return ["run", "--reduction", self.reduction, "--input", self.path,
                "--mode", self.mode]

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(self.argv())
        return rc, out.getvalue(), err.getvalue()

    def prepare(self, text: str) -> None:
        """Reference answer and expected stage count, from the instance text."""
        r = self.reduction
        if r in SAT_REDUCTIONS:
            n, clauses = ref.parse_cnf(text)
            self.expected = ref.satisfiable(n, clauses)
            split = math.ceil(n / 4) if r in TWO_BLOCK else math.ceil(n / 2)
            blocks = 2 if r in TWO_BLOCK else 1
            self.stages = 1 << (n - blocks * split)
        elif r in LISTING:
            parts = ref.parse_tripartite(text)
            self.expected = (ref.triangle_pairs(parts) if r == "3sum-listpairs"
                             else ref.tripartite_triangles(parts))
        else:
            n, edges = ref.parse_graph(text)
            if r in MINWEIGHT:
                self.expected = ref.min_weight_triangle(n, edges)
                self.stages = n
            else:
                anchor = ref.triangle_anchor(n, edges)
                self.expected = anchor if r in ANCHOR else anchor is not None
                self.stages = len(edges) if r == "tri-empty-pp" else n

    def check(self, result) -> list[str]:
        rc, out, err = result
        if rc != 0:
            return [f"exit {rc}: {err.strip()}"]
        report = json.loads(out)
        c = report["counters"]
        bad = []
        if report["answer"] != self.expected:
            bad.append(f"answer {report['answer']!r} != reference {self.expected!r}")
        if self.full_scan and c["queries"] != self.stages:
            bad.append(f"queries {c['queries']} != {self.stages} stages")
        if self.full_scan and self.mode != "full" and self.reduction not in MINWEIGHT \
                and c["rollback_ops"] != c["updates"]:
            bad.append(f"rollback_ops {c['rollback_ops']} != updates {c['updates']}")
        if self.reduction in LISTING and c["rollback_ops"] != c["updates"]:
            bad.append(f"rollback_ops {c['rollback_ops']} != updates {c['updates']}")
        if self.counters is None:
            self.counters = c
        elif c != self.counters:
            bad.append(f"counters {c} differ from the first pass {self.counters}")
        return bad

    def reported_counters(self, result) -> dict:
        return json.loads(result[1])["counters"]


class VerifyJob:
    """One trial of a dynred.verify suite. Every property must pass, and the
    expected answer the trial states (from dynred.oracles) must match the
    benchmark's own brute force on the same regenerated instance."""

    _WANT = {"seth": r"want=(\S+)", "triangle": r"want=(\S+)",
             "apsp": r"want=(\S+)", "threesum": r"pairs=(\d+)"}

    def __init__(self, suite: str, key: str, max_n: int, expected):
        self.suite, self.key, self.max_n = suite, key, max_n
        self.name = key
        self.expected = expected
        self.trial = getattr(verify, f"{suite}_trial")
        self.checks = len(ProblemKind) + 5 if suite == "engines" else None

    def run(self):
        return self.trial(random.Random(self.key), self.max_n)

    def check(self, result) -> list[str]:
        bad = [f"{prop}: {detail}" for prop, ok, detail in result if not ok]
        if self.checks is not None and len(result) != self.checks:
            bad.append(f"{len(result)} properties, expected {self.checks}")
        pattern = self._WANT.get(self.suite)
        if pattern is not None:
            m = re.search(pattern, result[0][2]) if result else None
            stated = m.group(1) if m else None
            if stated != str(self.expected):
                bad.append(f"trial states {stated}, reference {self.expected}")
        return bad


def _draw_seth(r: random.Random, max_n: int):
    n = r.randint(1, max(1, min(max_n, 12)))
    m = r.randint(1, 4 * n)
    f = generators.random_cnf(r, n, m)
    return n, ref.satisfiable(f.var_count, f.clauses)


def _draw_triangle(r: random.Random, max_n: int):
    n = r.randint(2, max(2, min(max_n, 40)))
    p = r.choice((0.1, 0.2, 0.35, 0.6))
    g = generators.random_graph(r, n, p)
    return n, ref.triangle_anchor(n, g.edges())


def _draw_apsp(r: random.Random, max_n: int):
    n = r.randint(2, max(2, min(max_n, 24)))
    p = r.choice((0.15, 0.3, 0.5))
    mw = r.randint(1, 10)
    g = generators.random_graph(r, n, p, weighted=True, max_weight=mw)
    return n, ref.min_weight_triangle(n, dict(((u, v), g.weight(u, v))
                                             for u, v in g.edges()))


def _draw_threesum(r: random.Random, max_n: int):
    n_c = r.randint(1, max(1, min(max_n, 32)))
    rr = r.randint(1, 3)
    density = r.choice((0.1, 0.3, 0.6))
    inst = gen_tripartite_instance(n_c, rr, density, seed=r.getrandbits(32))
    return n_c, len(ref.triangle_pairs(ref.parse_tripartite(dump_instance(inst))))


_DRAW = {"seth": _draw_seth, "triangle": _draw_triangle, "apsp": _draw_apsp,
         "threesum": _draw_threesum}


def _stratified_key(seed: int, suite: str, slot: int, max_n: int, want_n,
                    positive) -> tuple[str, object]:
    """First trial seed of this slot whose instance has size want_n and,
    when positive is not None, the wanted yes/no answer. The trials draw
    their size uniformly, and trial cost grows fast with it (2^n for seth),
    so fixing the size mix per slot keeps a pass's work steady across seeds
    while --seed still picks every instance."""
    for attempt in range(10_000):
        key = f"{seed}/{suite}/{slot}/{attempt}"
        if suite == "engines":
            return key, None
        n, expected = _DRAW[suite](random.Random(key), max_n)
        is_positive = expected not in (False, None, 0)
        if n == want_n and (positive is None or is_positive == positive):
            return key, expected
    raise RuntimeError(f"no trial seed for {suite} slot {slot}")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    def __init__(self, name: str, seed: int, workdir: str):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.rng = random.Random(f"{name}/{seed}")
        self.files: dict[str, str] = {}
        self.texts: dict[str, str] = {}
        self.jobs: list = []
        self.warm: list = []
        # answers known by construction, per instance tag, in anchor form:
        # False/True for CNF, the anchor vertex or None for graphs
        self.known: dict[str, object] = {}

    def write(self, tag: str, text: str, suffix: str) -> None:
        path = os.path.join(self.workdir, f"{tag}.{suffix}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.files[tag], self.texts[tag] = path, text

    def add(self, reduction, modes, instance, *, full_scan=True):
        for mode in modes:
            job = RunJob(reduction, mode, instance, full_scan=full_scan)
            job.path = self.files[instance]
            self.jobs.append(job)

    def add_warmups(self) -> None:
        """One tiny job per reduction in the job list, on fixed inputs."""
        for kind, text in _WARM_TEXT.items():
            self.write(f"warm-{kind}", text, kind)
        self.write("warm-tripartite", dump_instance(
            gen_tripartite_instance(2, 1, 0.5, seed=0)), "txt")
        seen = set()
        for job in self.jobs:
            if not isinstance(job, RunJob) or job.reduction in seen:
                continue
            seen.add(job.reduction)
            tag = ("warm-cnf" if job.family == "sat_reductions" else
                   "warm-weighted" if job.family == "minweight_reductions" else
                   "warm-tripartite" if job.family == "pair_listing" else
                   "warm-graph")
            warm = RunJob(job.reduction, job.mode, tag, full_scan=False)
            warm.path = self.files[tag]
            self.warm.append(warm)

    def prepare(self) -> None:
        """Reference answers; not part of set-up time. Each reference on an
        instance with a planted or constructed answer must find that answer."""
        check_references(random.Random(f"references/{self.seed}"))
        for job in self.jobs:
            if not isinstance(job, RunJob):
                continue
            job.prepare(self.texts[job.instance])
            if job.instance in self.known:
                known = self.known[job.instance]
                if job.reduction in EXISTS:
                    known = known is not None
                if job.reduction not in MINWEIGHT | LISTING and job.expected != known:
                    raise AssertionError(
                        f"reference for {job.name} gives {job.expected!r}, "
                        f"the instance was built to give {known!r}")


def check_references(rng: random.Random) -> None:
    """Every brute-force checker must find the answer planted in small
    seeded instances, positive and negative, or the run stops untimed."""
    def graph(g):
        return ref.parse_graph(g.to_text())

    found = {
        "unsat": ref.satisfiable(*ref.parse_cnf(unsat_cnf(rng, 10, 24).to_text())),
        "sat": ref.satisfiable(*ref.parse_cnf(sat_cnf(rng, 10, 24).to_text())),
        "triangle-free": ref.triangle_anchor(*graph(bipartite(rng, 8, 0.4))),
        "anchor": ref.triangle_anchor(*graph(planted_triangle(rng, 8, 0.4))),
    }
    n, edges = graph(weighted(rng, 12, 0.3))
    for e in ((0, 1), (0, 2), (1, 2)):
        edges[e] = 1  # no triangle weighs less than three unit edges
    found["min-weight"] = ref.min_weight_triangle(n, edges)
    parts = ref.parse_tripartite(dump_instance(tripartite(rng, 16, 2, 0.2)))
    a, b, c = 0, 0, 0
    parts["ab"].add((a, b))
    parts["ac"].add((a, c))
    parts["bc"].add((b, c))
    found["pair"] = [a, b] in ref.triangle_pairs(parts)
    found["triangle"] = [a, b, c] in ref.tripartite_triangles(parts)
    parts["ac"] = set()
    found["no-pair"] = ref.triangle_pairs(parts)
    want = {"unsat": False, "sat": True, "triangle-free": None, "anchor": 6,
            "min-weight": 3, "pair": True, "triangle": True, "no-pair": []}
    if found != want:
        raise AssertionError(f"reference checkers found {found}, planted {want}")


ALL_MODES = ("full", "inc", "dec")


def query_heavy(w: Workload) -> None:
    rng = w.rng
    w.write("unsat13", unsat_cnf(rng, 13, 48).to_text(), "cnf")
    w.write("sat13", sat_cnf(rng, 13, 48).to_text(), "cnf")
    w.write("bip80", bipartite(rng, 40, 0.15).to_text(), "graph")
    w.write("tri80", planted_triangle(rng, 40, 0.15).to_text(), "graph")
    w.known.update(unsat13=False, sat13=True, bip80=None, tri80=38)
    w.write("w24", weighted(rng, 24, 0.3).to_text(), "graph")
    for r in ("sc2", "max-scc", "appx-scc", "diam", "st-reach", "connsub"):
        w.add(r, ALL_MODES, "unsat13")
    for r in ("tri-5bpm", "tri-17bpm"):
        w.add(r, ALL_MODES, "bip80")
        w.add(r, ("full",), "tri80", full_scan=False)
    for r in ("mwt-stsp", "mwt-bwm"):
        w.add(r, ("inc", "dec"), "w24")
    for r in ("max-scc", "appx-scc"):
        w.add(r, ("full",), "sat13")


def update_heavy(w: Workload) -> None:
    rng = w.rng
    w.write("unsat14", unsat_cnf(rng, 14, 56).to_text(), "cnf")
    w.write("sat14", sat_cnf(rng, 14, 56).to_text(), "cnf")
    w.write("bip120", bipartite(rng, 60, 0.1).to_text(), "graph")
    w.write("tri120", planted_triangle(rng, 60, 0.1).to_text(), "graph")
    w.write("parts", dump_instance(tripartite(rng, 64, 3, 0.3)), "txt")
    w.known.update(unsat14=False, sat14=True, bip120=None, tri120=58)
    for r in ("ssr", "subunion"):
        w.add(r, ALL_MODES, "unsat14")
    w.add("empty-pp", ("full",), "unsat14")
    w.add("tri-subconn", ("dec",), "bip120")
    w.add("tri-streach", ("full", "inc"), "bip120")
    w.add("tri-streach-dec", ("dec",), "bip120")
    w.add("tri-empty-pp", ("full",), "bip120")
    w.add("tri-pp", ("full",), "bip120", full_scan=False)
    for r in ("3sum-listpairs", "3sum-triangles"):
        w.add(r, ("full", "dec"), "parts", full_scan=False)
    w.add("ssr", ("full",), "sat14")
    w.add("tri-streach", ("full",), "tri120", full_scan=False)
    w.add("tri-subconn", ("dec",), "tri120", full_scan=False)


# (suite, max_n, [(size, positive or None)] per slot)
VERIFY_SLOTS = (
    ("seth", 8, [(n, False) for n in (5, 6, 7, 7)] * 3
     + [(n, True) for n in (6, 7, 8)]),
    ("triangle", 16, [(n, None) for n in range(8, 17)]
     + [(n, False) for n in (10, 12, 14)]),
    ("apsp", 12, [(n, None) for n in range(6, 13)] * 2),
    ("threesum", 12, [(n, None) for n in range(4, 13)] * 2),
    ("engines", 6, [(None, None)] * 8),
)


def verify_small(w: Workload) -> None:
    for suite, max_n, slots in VERIFY_SLOTS:
        for slot, (n, positive) in enumerate(slots):
            key, expected = _stratified_key(w.seed, suite, slot, max_n, n, positive)
            w.jobs.append(VerifyJob(suite, key, max_n, expected))
    for suite, _, _ in VERIFY_SLOTS:
        w.warm.append(VerifyJob(suite, "warm-up", 4, None))


WORKLOADS = {"query-heavy": query_heavy, "update-heavy": update_heavy,
             "verify-small": verify_small}


def build(name: str, seed: int, workdir: str) -> Workload:
    """Generate the inputs, write the instance files, list the jobs."""
    w = Workload(name, seed, workdir)
    WORKLOADS[name](w)
    if name != "verify-small":
        w.add_warmups()
    return w
