"""Minimum-weight triangle via staged s-t shortest-path queries.

The input graph is rebuilt as a directed 4-partite ladder: layers A, B, C,
A2 each hold one copy of every vertex, every original edge of weight w
contributes a forward arc of weight w + 2M between consecutive layers in
both labelings, and per-vertex anchor arcs (s, v_A) and (v_A2, t) of weight
3iM open stage i (vertices 1-indexed).  While stage i's anchors are the
cheapest ones present, the shortest s-t walk costs (6i+6)M + W where W is
the lightest triangle through vertex i, or overshoots 3M when there is
none, so one distance query per stage recovers the global minimum.

Decremental runs walk the stages in ascending order and delete each stage's
anchors once queried; incremental runs walk them in reverse and insert.
"""

from .engines import DirectEngine, Mode, ProblemKind, _as_mode
from .model import (
    CostCounters,
    DeleteEdge,
    DomainError,
    Graph,
    GuardError,
    InsertEdge,
    StDistance,
)
from .triangle_reductions import add_layer_arcs
from .wrappers import StspViaBwm

WEIGHT_BITS = 63  # distances are kept inside signed 64-bit range


def _weight_bound(g: Graph) -> int:
    if g.max_weight is not None:
        return g.max_weight
    weights = [w for _, _, w in g.weighted_edges()]
    return max(weights) if weights else 1


def build_stsp_gadget(g: Graph, *, anchors: bool = True) -> Graph:
    """Directed layered gadget; anchors=False leaves the stage arcs out."""
    if g.directed or not g.weighted:
        raise DomainError("needs an undirected weighted graph")
    n = g.node_count
    m_bound = _weight_bound(g)
    cap = max(3 * n * m_bound, 3 * m_bound)
    h = Graph(4 * n + 2, directed=True, weighted=True, max_weight=cap,
              s=4 * n, t=4 * n + 1)
    add_layer_arcs(h, g, weight_offset=2 * m_bound)
    if anchors:
        for v in range(n):
            h.add_edge(4 * n, v, 3 * (v + 1) * m_bound)
            h.add_edge(3 * n + v, 4 * n + 1, 3 * (v + 1) * m_bound)
    return h


def min_weight_triangle_via_stsp(
    g: Graph,
    *,
    mode: str | Mode = "dec",
    factory=DirectEngine,
    record_stages: list | None = None,
) -> tuple[int | None, CostCounters]:
    """Minimum triangle weight, or None when the graph is triangle-free.

    record_stages, when given, receives (stage, z) for every stage; z is the
    defect of that stage's distance and is meaningful only when <= 3M.
    """
    mode = _as_mode(mode)
    if mode is Mode.FULL:
        raise DomainError("stage schedule needs an incremental or decremental engine")
    if g.directed or not g.weighted:
        raise DomainError("needs an undirected weighted graph")
    n = g.node_count
    m_bound = _weight_bound(g)
    if 7 * n * m_bound >= 1 << WEIGHT_BITS:
        raise GuardError(f"weight range 7*{n}*{m_bound} exceeds {WEIGHT_BITS} bits")
    h = build_stsp_gadget(g, anchors=(mode is Mode.DECREMENTAL))
    eng = factory(ProblemKind.ST_SP, mode, h)
    src, snk = 4 * n, 4 * n + 1
    best = None
    stages = range(1, n + 1) if mode is Mode.DECREMENTAL else range(n, 0, -1)
    for i in stages:
        v = i - 1
        if mode is Mode.INCREMENTAL:
            eng.update(InsertEdge(src, v, 3 * i * m_bound))
            eng.update(InsertEdge(3 * n + v, snk, 3 * i * m_bound))
        y = eng.query(StDistance())
        z = None if y is None else y - 6 * i * m_bound - 6 * m_bound
        if record_stages is not None:
            record_stages.append((i, z))
        if z is not None and z <= 3 * m_bound and (best is None or z < best):
            best = z
        if mode is Mode.DECREMENTAL:
            eng.update(DeleteEdge(src, v))
            eng.update(DeleteEdge(3 * n + v, snk))
    return best, eng.counters


def min_weight_triangle_via_bwm(
    g: Graph, *, mode: str | Mode = "dec"
) -> tuple[int | None, CostCounters]:
    """Same stage schedule with the distance engine emulated by weighted matching."""
    return min_weight_triangle_via_stsp(g, mode=mode, factory=StspViaBwm)
