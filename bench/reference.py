"""Reference answers computed apart from the program.

Every checker here reads the instance text that the benchmark wrote, with
its own parser, and answers by plain brute force: all assignments for CNF,
adjacency-matrix scans for triangles and minimum-weight triangles, set
intersection for tripartite pair listing. Nothing is imported from dynred,
so a fault shared by the engines and dynred.oracles cannot hide here.
"""

from __future__ import annotations


def parse_cnf(text: str) -> tuple[int, list[list[int]]]:
    var_count = 0
    clauses: list[list[int]] = []
    current: list[int] = []
    for line in text.splitlines():
        tok = line.split()
        if not tok or tok[0] == "c":
            continue
        if tok[0] == "p":
            var_count = int(tok[2])
            continue
        for lit in map(int, tok):
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    if current:
        clauses.append(current)
    return var_count, clauses


def parse_graph(text: str) -> tuple[int, dict[tuple[int, int], int]]:
    """(node count, {(u, v) with u < v: weight}); unweighted edges weigh 1."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    n = int(lines[0][0])
    if lines[0][2] != "undirected":
        raise ValueError("reference checkers take undirected graphs")
    edges = {}
    for tok in lines[1:]:
        u, v = int(tok[0]), int(tok[1])
        edges[(min(u, v), max(u, v))] = int(tok[2]) if len(tok) > 2 else 1
    return n, edges


def parse_tripartite(text: str) -> dict[str, set[tuple[int, int]]]:
    parts: dict[str, set[tuple[int, int]]] = {"ab": set(), "ac": set(), "bc": set()}
    for line in text.splitlines()[1:]:
        tok = line.split()
        if tok:
            parts[tok[0]].add((int(tok[1]), int(tok[2])))
    return parts


def satisfiable(var_count: int, clauses: list[list[int]]) -> bool:
    """Try all 2^n assignments; bit i-1 of an assignment is variable i."""
    masks = []
    for cl in clauses:
        pos = neg = 0
        for lit in cl:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        masks.append((pos, neg))
    full = (1 << var_count) - 1
    for a in range(1 << var_count):
        na = full & ~a
        if all(a & pos or na & neg for pos, neg in masks):
            return True
    return False


def _matrix(n: int, edges) -> list[int]:
    """Adjacency matrix as one bitset row per vertex."""
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def triangle_anchor(n: int, edges) -> int | None:
    """Smallest vertex lying on a triangle, or None: the anchor routines'
    answer, since the smallest such vertex is also the smallest vertex of
    the triangle through it."""
    rows = _matrix(n, edges)
    for x in range(n):
        for a in range(n):
            if rows[x] >> a & 1 and rows[x] & rows[a]:
                return x
    return None


def min_weight_triangle(n: int, edges: dict[tuple[int, int], int]) -> int | None:
    best = None
    for i in range(n):
        for j in range(i + 1, n):
            wij = edges.get((i, j))
            if wij is None:
                continue
            for k in range(j + 1, n):
                wik, wjk = edges.get((i, k)), edges.get((j, k))
                if wik is not None and wjk is not None:
                    total = wij + wik + wjk
                    if best is None or total < best:
                        best = total
    return best


def triangle_pairs(parts) -> list[list[int]]:
    """(a, b) in E_AB whose C-neighborhoods intersect, sorted."""
    ac: dict[int, set[int]] = {}
    bc: dict[int, set[int]] = {}
    for a, c in parts["ac"]:
        ac.setdefault(a, set()).add(c)
    for b, c in parts["bc"]:
        bc.setdefault(b, set()).add(c)
    return sorted([a, b] for a, b in parts["ab"]
                  if ac.get(a, set()) & bc.get(b, set()))


def tripartite_triangles(parts) -> list[list[int]]:
    ac: dict[int, set[int]] = {}
    bc: dict[int, set[int]] = {}
    for a, c in parts["ac"]:
        ac.setdefault(a, set()).add(c)
    for b, c in parts["bc"]:
        bc.setdefault(b, set()).add(c)
    return sorted([a, b, c] for a, b in parts["ab"]
                  for c in ac.get(a, set()) & bc.get(b, set()))
