"""Brute-force reference implementations.

Everything here is deliberately simple: exhaustive enumeration, textbook BFS,
Kuhn's algorithm, bitmask DP. These are the ground truth the engines and
reductions are tested against, so they must stay independent of the code they
check. Sizes are capped by limits.py.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from dataclasses import dataclass

from . import limits
from .model import CnfFormula, DomainError, Graph, GuardError

Triangle = namedtuple("Triangle", "u v w")
WeightedTriangle = namedtuple("WeightedTriangle", "u v w weight")


# ---------------------------------------------------------------------------
# satisfiability


def assignment_satisfies(bits: int, clause: list[int]) -> bool:
    """Does the assignment (bit i-1 of `bits` = value of variable i) satisfy the clause?"""
    for lit in clause:
        val = (bits >> (abs(lit) - 1)) & 1
        if (lit > 0) == bool(val):
            return True
    return False


def oracle_sat(formula: CnfFormula) -> bool:
    """Exhaustive satisfiability check."""
    n = formula.var_count
    if n > limits.ORACLE_SAT_MAX_VARS:
        raise GuardError(f"{n} variables exceeds the {limits.ORACLE_SAT_MAX_VARS} cap")
    for bits in range(1 << n):
        if all(assignment_satisfies(bits, cl) for cl in formula.clauses):
            return True
    return False


# ---------------------------------------------------------------------------
# triangles


def oracle_triangle(g: Graph) -> Triangle | None:
    """First triangle in lexicographic order, or None."""
    if g.directed:
        raise DomainError("triangle search is defined on undirected graphs")
    for u in range(g.node_count):
        nu = g.out_neighbors(u)
        for v in sorted(nu):
            if v <= u:
                continue
            for w in sorted(nu & g.out_neighbors(v)):
                if w > v:
                    return Triangle(u, v, w)
    return None


def oracle_all_triangles(g: Graph) -> list[Triangle]:
    if g.directed:
        raise DomainError("triangle search is defined on undirected graphs")
    out = []
    for u in range(g.node_count):
        nu = g.out_neighbors(u)
        for v in sorted(nu):
            if v <= u:
                continue
            for w in sorted(nu & g.out_neighbors(v)):
                if w > v:
                    out.append(Triangle(u, v, w))
    return out


def oracle_min_weight_triangle(g: Graph) -> WeightedTriangle | None:
    """Minimum total-weight triangle, ties broken lexicographically."""
    if g.directed or not g.weighted:
        raise DomainError("needs an undirected weighted graph")
    best = None
    for u in range(g.node_count):
        nu = g.out_neighbors(u)
        for v in sorted(nu):
            if v <= u:
                continue
            for w in sorted(nu & g.out_neighbors(v)):
                if w <= v:
                    continue
                total = g.weight(u, v) + g.weight(u, w) + g.weight(v, w)
                cand = WeightedTriangle(u, v, w, total)
                if best is None or (cand.weight, cand[:3]) < (best.weight, best[:3]):
                    best = cand
    return best


# ---------------------------------------------------------------------------
# graph metrics


def _allowed_nodes(g: Graph) -> set[int] | None:
    """Active set plus the distinguished vertices, or None when everything counts."""
    if g.active is None:
        return None
    allowed = set(g.active)
    for v in (g.s, g.t):
        if v is not None:
            allowed.add(v)
    return allowed


def reachable_from(g: Graph, src: int) -> set[int]:
    """Nodes reachable from src (src included), restricted to active nodes when set."""
    allowed = _allowed_nodes(g)
    if allowed is not None and src not in allowed:
        return set()
    seen = {src}
    stack = [src]
    while stack:
        u = stack.pop()
        for v in g.out_neighbors(u):
            if v in seen or (allowed is not None and v not in allowed):
                continue
            seen.add(v)
            stack.append(v)
    return seen


def reach_count(g: Graph, src: int) -> int:
    """Number of nodes reachable from src, the source itself not counted."""
    return len(reachable_from(g, src)) - 1


def st_reachable(g: Graph) -> bool:
    if g.s is None or g.t is None:
        raise DomainError("graph has no s/t pair")
    return g.t in reachable_from(g, g.s)


def st_connected(g: Graph) -> bool:
    if g.directed:
        raise DomainError("connectivity queries are for undirected graphs")
    return st_reachable(g)


def all_st_reachable(g: Graph) -> bool:
    if g.s_set is None or g.t_set is None:
        raise DomainError("graph has no s_set/t_set pair")
    for s in g.s_set:
        reach = reachable_from(g, s)
        if not g.t_set <= reach:
            return False
    return True


def scc_list(g: Graph) -> list[set[int]]:
    """Strongly connected components, Kosaraju's two passes, iterative."""
    if not g.directed:
        raise DomainError("SCCs are defined on directed graphs")
    n = g.node_count
    order = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        stack = [(root, iter(g.out_neighbors(root)))]
        seen[root] = True
        while stack:
            u, it = stack[-1]
            advanced = False
            for v in it:
                if not seen[v]:
                    seen[v] = True
                    stack.append((v, iter(g.out_neighbors(v))))
                    advanced = True
                    break
            if not advanced:
                order.append(u)
                stack.pop()
    radj: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in g.out_neighbors(u):
            radj[v].append(u)
    comp = [-1] * n
    comps: list[set[int]] = []
    for root in reversed(order):
        if comp[root] != -1:
            continue
        cur = {root}
        comp[root] = len(comps)
        stack = [root]
        while stack:
            u = stack.pop()
            for v in radj[u]:
                if comp[v] == -1:
                    comp[v] = len(comps)
                    cur.add(v)
                    stack.append(v)
        comps.append(cur)
    return comps


def scc_count(g: Graph) -> int:
    return len(scc_list(g))


def max_scc_size(g: Graph) -> int:
    comps = scc_list(g)
    return max((len(c) for c in comps), default=0)


def strongly_connected(g: Graph) -> bool:
    return g.node_count <= 1 or scc_count(g) == 1


def _bfs_dists(g: Graph, src: int) -> list[int]:
    dist = [-1] * g.node_count
    dist[src] = 0
    queue = [src]
    for u in queue:
        for v in g.out_neighbors(u):
            if dist[v] == -1:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def diameter(g: Graph) -> int | None:
    """Largest pairwise distance; None when the graph is disconnected."""
    if g.directed:
        raise DomainError("diameter is defined on undirected graphs")
    if g.node_count == 0:
        return None
    best = 0
    for src in range(g.node_count):
        dist = _bfs_dists(g, src)
        if min(dist) == -1:
            return None
        best = max(best, max(dist))
    return best


def st_distance(g: Graph) -> int | None:
    """Shortest s-to-t distance (weighted: Dijkstra; unweighted: BFS). None if unreachable."""
    if g.s is None or g.t is None:
        raise DomainError("graph has no s/t pair")
    if not g.weighted:
        d = _bfs_dists(g, g.s)[g.t]
        return None if d == -1 else d
    dist = {g.s: 0}
    heap = [(0, g.s)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u == g.t:
            return d
        for v in g.out_neighbors(u):
            nd = d + g.weight(u, v)
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist.get(g.t)


def induced_connected(g: Graph) -> bool:
    """Is the subgraph induced by the active set connected? At most one node: yes."""
    if g.directed:
        raise DomainError("connectivity queries are for undirected graphs")
    if g.active is None:
        raise DomainError("graph has no active set")
    nodes = set(g.active)
    if len(nodes) <= 1:
        return True
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in g.out_neighbors(u):
            if v in nodes and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen == nodes


# ---------------------------------------------------------------------------
# bipartite matching


def bipartition(g: Graph) -> tuple[set[int], set[int]]:
    """Two-color by BFS. Per component, the side holding its smallest id goes left.

    Raises DomainError on odd cycles or directed graphs.
    """
    if g.directed:
        raise DomainError("bipartition is defined on undirected graphs")
    color = [-1] * g.node_count
    left: set[int] = set()
    right: set[int] = set()
    for root in range(g.node_count):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        for u in queue:
            for v in g.out_neighbors(u):
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    queue.append(v)
                elif color[v] == color[u]:
                    raise DomainError("graph is not bipartite")
        # root is the smallest id in its component (outer loop is ascending)
        for u in queue:
            (left if color[u] == 0 else right).add(u)
    return left, right


def max_matching(g: Graph) -> dict[int, int]:
    """Maximum bipartite matching via Kuhn's augmenting DFS. Returns node -> mate."""
    left, _right = bipartition(g)
    mate: dict[int, int] = {}

    def try_augment(u: int, visited: set[int]) -> bool:
        for v in g.out_neighbors(u):
            if v in visited:
                continue
            visited.add(v)
            if v not in mate or try_augment(mate[v], visited):
                mate[v] = u
                mate[u] = v
                return True
        return False

    for u in sorted(left):
        if u not in mate:
            try_augment(u, set())
    return mate


def has_short_augpath(g: Graph, mate: dict[int, int], k: int) -> bool:
    """Is there an augmenting path of length <= k edges for the given matching?

    Alternating BFS from each free left vertex. Since the graph is bipartite
    the first time a node is reached is along a shortest alternating path, so
    a plain BFS with alternation baked into the step rule is exact.
    """
    left, _ = bipartition(g)
    for src in sorted(left):
        if src in mate:
            continue
        dist = {src: 0}
        queue = [src]
        for u in queue:
            d = dist[u]
            if d >= k:
                continue
            if d % 2 == 0:  # at a left node: step over non-matching edges
                for v in g.out_neighbors(u):
                    if v in dist or mate.get(u) == v:
                        continue
                    if v not in mate:
                        return True  # free right endpoint: augmenting, length d+1 <= k
                    dist[v] = d + 1
                    queue.append(v)
            else:  # at a matched right node: step over its matching edge
                v = mate[u]
                if v not in dist:
                    dist[v] = d + 1
                    queue.append(v)
    return False


def max_weight_pm_weight(g: Graph) -> int | None:
    """Maximum total weight over perfect matchings, bitmask DP. None when no PM."""
    if not g.weighted:
        raise DomainError("needs a weighted graph")
    left, right = bipartition(g)
    if len(left) != len(right):
        return None
    r_list = sorted(right)
    r_index = {v: i for i, v in enumerate(r_list)}
    side = len(r_list)
    if side > limits.ORACLE_PM_DP_MAX_SIDE:
        raise GuardError(f"side {side} exceeds the {limits.ORACLE_PM_DP_MAX_SIDE} DP cap")
    NEG = float("-inf")
    dp = [NEG] * (1 << side)
    dp[0] = 0
    l_list = sorted(left)
    for mask in range(1 << side):
        if dp[mask] == NEG:
            continue
        i = bin(mask).count("1")
        if i == side:
            continue
        u = l_list[i]
        for v in g.out_neighbors(u):
            bit = 1 << r_index[v]
            if mask & bit:
                continue
            cand = dp[mask] + g.weight(u, v)
            if cand > dp[mask | bit]:
                dp[mask | bit] = cand
    full = dp[(1 << side) - 1]
    return None if full == NEG else int(full)


@dataclass
class MatchingMetrics:
    max_matching_size: int
    has_perfect: bool
    max_weight_pm_weight: int | None


def oracle_matching(g: Graph) -> MatchingMetrics:
    mate = max_matching(g)
    size = len(mate) // 2
    perfect = 2 * size == g.node_count
    weight = None
    if g.weighted:
        weight = max_weight_pm_weight(g)
    return MatchingMetrics(size, perfect, weight)
