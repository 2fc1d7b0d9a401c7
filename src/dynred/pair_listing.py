"""Listing triangle pairs of a tripartite graph through connectivity probes.

An instance has parts A and B of equal size and a smaller part C; every
A/B vertex keeps a capped number of C-neighbors.  The goal is to list all
pairs (a, b) in E_AB that close a triangle through some c in C, stopping
early once more than a configured number of pairs has been reported.

The listing drives a block binary search over B: a probe asks whether a
fixed a forms a triangle with any of its B-neighbors inside a block of
contiguous B-indices.  Probes are answered either by a fully dynamic
subgraph-connectivity engine (activate the copies, query, roll back) or,
through the decremental adapter, by an edge-deletion-only reachability
engine that prunes two routing trees instead of activating nodes.
"""

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field

from .engines import DirectEngine, Mode, ProblemKind, Toggle, run_stage
from .limits import TRIPARTITE_MAX_SIDE
from .model import (
    ActivateNode,
    ConstructionError,
    CostCounters,
    DeleteEdge,
    DomainError,
    Graph,
    GuardError,
    StConnected,
    StReachable,
)
from .triangle_reductions import add_tree_arcs, routing_tree_layout

CAP_FACTOR = 2  # slack multiplier in the degree and pair-count caps

OVERFLOW = "overflow"  # distinguished list_pairs result, not an error


def _ceil_log2(x: int) -> int:
    return max(0, (x - 1).bit_length())


@dataclass
class TripartiteInstance:
    """Tripartite graph with index-based parts A, B (size `side`) and C.

    Edge sets hold 0-based index pairs: e_ab over A x B, e_ac over A x C,
    e_bc over B x C.  degree_cap bounds every A/B vertex's C-degree and
    delta caps how many pairs a listing run may report.
    """

    n_c: int
    r: int
    side: int
    e_ab: frozenset = field(default_factory=frozenset)
    e_ac: frozenset = field(default_factory=frozenset)
    e_bc: frozenset = field(default_factory=frozenset)
    degree_cap: int = 0
    delta: int = 0

    def validate(self) -> None:
        if self.n_c < 1 or self.r < 1 or self.side < 1:
            raise DomainError("parts must be nonempty")
        if self.side > TRIPARTITE_MAX_SIDE:
            raise GuardError(f"side {self.side} exceeds {TRIPARTITE_MAX_SIDE}")
        for a, b in self.e_ab:
            if not (0 <= a < self.side and 0 <= b < self.side):
                raise DomainError(f"ab edge ({a},{b}) out of range")
        for name, pairs in (("ac", self.e_ac), ("bc", self.e_bc)):
            degrees: dict[int, int] = {}
            for u, c in pairs:
                if not (0 <= u < self.side and 0 <= c < self.n_c):
                    raise DomainError(f"{name} edge ({u},{c}) out of range")
                degrees[u] = degrees.get(u, 0) + 1
            worst = max(degrees.values(), default=0)
            if worst > self.degree_cap:
                raise DomainError(
                    f"{name} degree {worst} exceeds cap {self.degree_cap}")
        if len(self.e_ab) > CAP_FACTOR * self.n_c * self.r:
            raise DomainError(
                f"{len(self.e_ab)} ab edges exceed cap {CAP_FACTOR * self.n_c * self.r}")


def _derived_side(n_c: int, r: int) -> int:
    """Exact ceil(r * sqrt(n_c)) without floating point."""
    t = r * r * n_c
    s = math.isqrt(t)
    return s if s * s == t else s + 1


def _default_delta(n_c: int, r: int) -> int:
    return max(1, -(-CAP_FACTOR * n_c * n_c // r))


def gen_tripartite_instance(n_c: int, r: int, density: float, seed: int) -> TripartiteInstance:
    """Sample an instance under the degree and pair-count caps, reproducibly."""
    if n_c < 1 or r < 1:
        raise DomainError("n_c and r must be positive")
    if not 0 <= density <= 1:
        raise DomainError(f"density {density} outside [0, 1]")
    side = _derived_side(n_c, r)
    TripartiteInstance(n_c=n_c, r=r, side=side).validate()  # the cap, before any draw
    rng = random.Random(seed)
    degree_cap = -(-CAP_FACTOR * n_c // r)
    parts = []
    for _ in range(2):
        edges = set()
        for u in range(side):
            picks = [c for c in range(n_c) if rng.random() < density]
            if len(picks) > degree_cap:
                picks = rng.sample(picks, degree_cap)
            edges.update((u, c) for c in picks)
        parts.append(edges)
    e_ac, e_bc = parts
    ab = [(a, b) for a in range(side) for b in range(side)
          if rng.random() < density]
    ab_cap = CAP_FACTOR * n_c * r
    if len(ab) > ab_cap:
        ab = rng.sample(ab, ab_cap)
    inst = TripartiteInstance(
        n_c=n_c, r=r, side=side,
        e_ab=frozenset(ab), e_ac=frozenset(e_ac), e_bc=frozenset(e_bc),
        degree_cap=degree_cap, delta=_default_delta(n_c, r))
    inst.validate()
    return inst


def dump_instance(inst: TripartiteInstance) -> str:
    lines = [f"parts {inst.side} {inst.n_c} {inst.r}"]
    for tag, pairs in (("ab", inst.e_ab), ("ac", inst.e_ac), ("bc", inst.e_bc)):
        for u, v in sorted(pairs):
            lines.append(f"{tag} {u} {v}")
    return "\n".join(lines) + "\n"


def load_instance(text: str) -> TripartiteInstance:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("parts "):
        raise DomainError("missing partition header line")
    try:
        side, n_c, r = (int(x) for x in lines[0].split()[1:])
    except ValueError as exc:
        raise DomainError(f"bad header: {lines[0]!r}") from exc
    if n_c < 1 or r < 1:
        raise DomainError(f"bad header: {lines[0]!r} needs n_c and r >= 1")
    buckets: dict[str, set] = {"ab": set(), "ac": set(), "bc": set()}
    for ln in lines[1:]:
        fields = ln.split()
        if len(fields) != 3 or fields[0] not in buckets:
            raise DomainError(f"bad edge line: {ln!r}")
        try:
            buckets[fields[0]].add((int(fields[1]), int(fields[2])))
        except ValueError as exc:
            raise DomainError(f"bad edge line: {ln!r}") from exc
    inst = TripartiteInstance(
        n_c=n_c, r=r, side=side,
        e_ab=frozenset(buckets["ab"]), e_ac=frozenset(buckets["ac"]),
        e_bc=frozenset(buckets["bc"]),
        degree_cap=-(-CAP_FACTOR * n_c // r), delta=_default_delta(n_c, r))
    inst.validate()
    return inst


def _c_neighbors(inst: TripartiteInstance) -> tuple[dict, dict]:
    """The A -> C and B -> C neighbor sets; vertices without one are absent."""
    maps: tuple[dict, dict] = ({}, {})
    for nbrs, pairs in zip(maps, (inst.e_ac, inst.e_bc)):
        for u, c in pairs:
            nbrs.setdefault(u, set()).add(c)
    return maps


def brute_force_pairs(inst: TripartiteInstance) -> list[tuple[int, int]]:
    """All (a, b) in E_AB sharing a C-neighbor; the listing reference answer."""
    ac, bc = _c_neighbors(inst)
    return sorted((a, b) for a, b in inst.e_ab
                  if ac.get(a, set()) & bc.get(b, set()))


def brute_force_triangles(inst: TripartiteInstance) -> list[tuple[int, int, int]]:
    ac, bc = _c_neighbors(inst)
    return sorted((a, b, c) for a, b in inst.e_ab
                  for c in ac.get(a, set()) & bc.get(b, set()))


def _b_adjacency(inst: TripartiteInstance) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for a, b in inst.e_ab:
        adj.setdefault(a, []).append(b)
    for lst in adj.values():
        lst.sort()
    return adj


class _BlockProbe:
    """Block bookkeeping shared by the probes: a probe (a, i, j) asks whether
    a closes a triangle with some B-neighbor in block j of level i."""

    def __init__(self, inst: TripartiteInstance):
        inst.validate()
        self.inst = inst
        self.levels = _ceil_log2(inst.side)
        self._b_adj = _b_adjacency(inst)

    @property
    def counters(self) -> CostCounters:
        return self.eng.counters

    def block_members(self, a: int, i: int, j: int) -> list[int]:
        """B-neighbors of a inside block j of level i (1-indexed blocks)."""
        if not 0 <= a < self.inst.side:
            raise DomainError(f"a {a} out of range")
        if not 0 <= i <= self.levels or not 1 <= j <= 1 << i:
            raise DomainError(f"block ({i},{j}) out of range")
        size = (1 << self.levels) >> i
        lo = (j - 1) * size
        lst = self._b_adj.get(a, [])
        return lst[bisect_left(lst, lo):bisect_left(lst, lo + size)]


class SubconnProbe(_BlockProbe):
    """Block probe over a fully dynamic subgraph-connectivity engine.

    The engine's graph keeps C and the terminals always active while every
    A/B copy starts inactive; a probe activates one a-copy plus its
    B-neighbors inside the block, queries, and rolls the activations back.
    """

    def __init__(self, inst: TripartiteInstance):
        super().__init__(inst)
        side, n_c = inst.side, inst.n_c
        s, t = 2 * side + n_c, 2 * side + n_c + 1
        h = Graph(2 * side + n_c + 2, s=s, t=t,
                  active=set(range(2 * side, 2 * side + n_c)) | {s, t})
        for a, c in inst.e_ac:
            h.add_edge(a, 2 * side + c)
        for b, c in inst.e_bc:
            h.add_edge(side + b, 2 * side + c)
        for a in range(side):
            h.add_edge(s, a)
        for b in range(side):
            h.add_edge(side + b, t)
        self.eng = DirectEngine(ProblemKind.ST_SUBCONN, Mode.FULL, h)
        self._copies = Toggle(2 * side, lambda v: (ActivateNode(v),),
                              start_on=False, undo=False)

    def probe(self, a: int, i: int, j: int) -> bool:
        """Does a close a triangle with some B-neighbor in block (i, j)?

        With no such neighbor the probe costs one query and no updates."""
        members = self.block_members(a, i, j)
        side = self.inst.side
        ops = (self._copies.switch([a] + [side + b for b in members])[0]
               if members else [])
        return run_stage(self.eng, ops, StConnected())


def list_pairs(inst: TripartiteInstance, probe, delta: int | None = None):
    """Binary-search listing of all triangle pairs, or OVERFLOW past delta.

    Descends the block tree only below positive probes, so a pair is
    reported exactly when its leaf block answers yes; blocks holding no
    real B-index are never probed.
    """
    if delta is None:
        delta = inst.delta
    pairs: list[tuple[int, int]] = []
    levels = _ceil_log2(inst.side)
    for a in range(inst.side):
        if _search(probe, inst.side, levels, delta, pairs, a, 0, 1):
            return OVERFLOW, probe.counters
    return sorted(pairs), probe.counters


def _search(probe, side: int, levels: int, delta: int, pairs: list,
            a: int, i: int, j: int) -> bool:
    """Pre-order descent below block j of level i for a, appending each
    pair found to pairs; True once more than delta pairs are listed.

    A module function rather than a closure, so that a run holds no
    reference cycle and is freed as soon as it returns.
    """
    if not probe.probe(a, i, j):
        return False
    if i == levels:
        pairs.append((a, j - 1))
        return len(pairs) > delta
    for cj in (2 * j - 1, 2 * j):
        if (cj - 1) << (levels - i - 1) >= side:
            continue  # dummy-only block
        if _search(probe, side, levels, delta, pairs, a, i + 1, cj):
            return True
    return False


def pairs_to_triangles(inst: TripartiteInstance, pairs) -> list[tuple[int, int, int]]:
    """Expand listed pairs to full triangles by intersecting their C-neighborhoods."""
    ac, bc = _c_neighbors(inst)
    return sorted({(a, b, c) for a, b in pairs
                   for c in ac.get(a, set()) & bc.get(b, set())})


class DecrementalTraceAdapter(_BlockProbe):
    """Probe answered by a decremental reachability engine.

    Two routing trees stand in for activation: an out-tree below s over the
    A-copies and an in-tree above t over the B-copies.  A probe deletes the
    boundary edges that cut every leaf except a on the s-side and except
    the block's B-neighbors on the t-side, queries, and rolls back.
    """

    def __init__(self, inst: TripartiteInstance):
        super().__init__(inst)
        side, n_c = inst.side, inst.n_c
        leaves = max(2, 1 << self.levels)
        self._tree_leaves = leaves
        self._dummies_from = leaves + side  # heap slots of the dummy leaves
        base = 2 * side + n_c
        s, t = base, base + 1
        self._layout = routing_tree_layout(leaves, side, (s, t), (0, side), base + 2)
        s_nodes, t_nodes = self._layout.s_nodes, self._layout.t_nodes
        h = Graph(base + 2 + 2 * (leaves - 2) + 2 * (leaves - side),
                  directed=True, s=s, t=t)
        add_tree_arcs(h, self._layout, self._dummies_from)
        for a, c in inst.e_ac:
            h.add_edge(a, 2 * side + c)
        for b, c in inst.e_bc:
            h.add_edge(2 * side + c, side + b)
        self.eng = DirectEngine(ProblemKind.ST_REACH, Mode.DECREMENTAL, h)
        # the deletion of the edge from each heap slot to its parent
        self._s_cuts, self._t_cuts = (
            Toggle(2 * leaves, make, start_on=True, undo=False) for make in (
                lambda c: (DeleteEdge(s_nodes[c >> 1], s_nodes[c]),),
                lambda c: (DeleteEdge(t_nodes[c], t_nodes[c >> 1]),)))
        # list_pairs probes many blocks for one a in a row, and the s-side
        # deletions depend on a alone: a (None: no leaf kept) -> deletions
        self._s_side: dict[int | None, list[DeleteEdge]] = {}

    def _prune(self, cuts: Toggle, kept_leaves) -> list[DeleteEdge]:
        """The boundary edge deletions that cut every leaf outside kept_leaves:
        the edges from the root and from the root paths of the kept leaves
        to children off those paths, other than dummy leaves, by parent slot."""
        leaves, end, path = self._tree_leaves, self._dummies_from, {1}
        for x in kept_leaves:
            hh = leaves + x
            while hh not in path:
                path.add(hh)
                hh >>= 1
        return cuts.switch([c for hh in sorted(path) if hh < leaves
                            for c in (2 * hh, 2 * hh + 1)
                            if c not in path and c < end])[0]

    def _s_prune(self, a: int | None) -> list[DeleteEdge]:
        ops = self._s_side.get(a)
        if ops is None:
            ops = self._s_side[a] = self._prune(
                self._s_cuts, () if a is None else (a,))
        return ops

    def probe(self, a: int, i: int, j: int) -> bool:
        members = self.block_members(a, i, j)
        if members:
            ops = self._s_prune(a) + self._prune(self._t_cuts, members)
        else:
            # no candidate partner: cutting s from its tree already forces no
            ops = self._s_prune(None)
        log = max(1, self.levels)
        if len(ops) > 2 * len(members) * log + 2 * log:
            raise ConstructionError(
                f"probe deleted {len(ops)} edges for {len(members)} members")
        return run_stage(self.eng, ops, StReachable())
