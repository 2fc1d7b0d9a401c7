"""Core instance types, update/query vocabulary, parsing, and run reports.

Node ids are dense 0-based ints. Gadget builders elsewhere allocate nodes in
contiguous blocks so tests can address them by offset arithmetic.
"""

from __future__ import annotations

import json
from array import array
from bisect import insort
from dataclasses import dataclass
from itertools import compress
from typing import Iterable

# hashlib maps OpenSSL's libcrypto (about 3.7 MB resident); the builtin
# module gives the same digests, so try it first, as random.py does
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from . import limits  # limits imports this module only to raise DomainError


class ParseError(ValueError):
    """Malformed input text. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DomainError(ValueError):
    """Instance or argument outside an operation's domain."""


class GuardError(RuntimeError):
    """Desk-scale size guard tripped (see limits.py for the caps)."""


class ModeError(RuntimeError):
    """Update variant not legal in the engine's mode."""


class StateError(RuntimeError):
    """Update or rollback inconsistent with current state."""


class ConstructionError(RuntimeError):
    """A built gadget violated one of its own size or sanity contracts."""


# ---------------------------------------------------------------------------
# cost accounting


@dataclass
class CostCounters:
    preprocess_units: int = 0
    updates: int = 0
    queries: int = 0
    rollback_ops: int = 0

    def as_dict(self) -> dict:
        # key order is part of the report contract
        return {
            "preprocess_units": self.preprocess_units,
            "updates": self.updates,
            "queries": self.queries,
            "rollback_ops": self.rollback_ops,
        }

    def absorb(self, other: "CostCounters") -> None:
        """Fold another engine's totals into this one (multi-engine reductions)."""
        self.preprocess_units += other.preprocess_units
        self.updates += other.updates
        self.queries += other.queries
        self.rollback_ops += other.rollback_ops


# ---------------------------------------------------------------------------
# graphs


def check_edge_ids(u: int, v: int, node_count: int) -> None:
    """Raise DomainError unless u and v are distinct ids in [0, node_count)."""
    if not (0 <= u < node_count) or not (0 <= v < node_count):
        raise DomainError(f"edge ({u},{v}) out of range for {node_count} nodes")
    if u == v:
        raise DomainError(f"self-loop ({u},{u}) not allowed")


def edge_key(u: int, v: int, directed: bool) -> tuple[int, int]:
    if directed or u <= v:
        return (u, v)
    return (v, u)


class Graph:
    """Mutable graph with optional weights, distinguished vertices and an active set.

    Invariants enforced on every mutation: ids in [0, node_count), no self-loops,
    no duplicate edges, weights are ints in [1, max_weight].
    """

    def __init__(
        self,
        node_count: int,
        *,
        directed: bool = False,
        weighted: bool = False,
        max_weight: int | None = None,
        s: int | None = None,
        t: int | None = None,
        s_set: frozenset[int] | None = None,
        t_set: frozenset[int] | None = None,
        active: set[int] | None = None,
    ):
        if node_count < 0:
            raise DomainError("node_count must be nonnegative")
        if node_count > limits.max_state_nodes():  # before any per-node list exists
            raise GuardError(f"{node_count} nodes exceed the state cap")
        if weighted and max_weight is not None and max_weight < 1:
            raise DomainError("max_weight must be >= 1")
        self.node_count = node_count
        self.directed = directed
        self.weighted = weighted
        self.max_weight = max_weight if weighted else None
        self._adj: list[set[int]] = [set() for _ in range(node_count)]
        self._w: dict[tuple[int, int], int] = {}
        # Kept views, each built on first use: arc_columns() as (key -> row,
        # sources, targets), ascending_rows() and bipartition(). All catch
        # up at their next read with _pending, the edge keys toggled since
        # (in first-touch order), which is None until a view is kept.
        self._arcs: tuple[dict, array, array] | None = None
        self._rows: list[list[int]] | None = None
        self._sides: _Sides | None = None
        self._pending: dict[tuple[int, int], None] | None = None
        self.edge_count = 0
        for name, v in (("s", s), ("t", t)):
            if v is not None and not (0 <= v < node_count):
                raise DomainError(f"{name} out of range")
        self.s = s
        self.t = t
        for name, vs in (("s_set", s_set), ("t_set", t_set)):
            if vs is not None and any(not (0 <= v < node_count) for v in vs):
                raise DomainError(f"{name} contains an out-of-range id")
        self.s_set = frozenset(s_set) if s_set is not None else None
        self.t_set = frozenset(t_set) if t_set is not None else None
        if active is not None and any(not (0 <= v < node_count) for v in active):
            raise DomainError("active set contains an out-of-range id")
        self.active: set[int] | None = set(active) if active is not None else None

    # -- mutation

    def add_edge(self, u: int, v: int, w: int | None = None) -> None:
        check_edge_ids(u, v, self.node_count)
        directed = self.directed
        key = (u, v) if directed or u <= v else (v, u)
        if key in self._w:
            raise StateError(f"duplicate edge ({u},{v})")
        if self.weighted:
            if w is None:
                raise DomainError(f"edge ({u},{v}) missing weight on weighted graph")
            if not isinstance(w, int) or w < 1:
                raise DomainError(f"edge ({u},{v}) weight must be a positive int")
            if self.max_weight is not None and w > self.max_weight:
                raise DomainError(f"edge ({u},{v}) weight {w} exceeds cap {self.max_weight}")
            self._w[key] = w
        else:
            if w is not None:
                raise DomainError(f"edge ({u},{v}) carries weight on unweighted graph")
            self._w[key] = 0  # presence marker; weight unused
        self._adj[u].add(v)
        if not directed:
            self._adj[v].add(u)
        self.edge_count += 1
        if self._pending is not None:
            self._toggle(key)

    def remove_edge(self, u: int, v: int) -> int | None:
        check_edge_ids(u, v, self.node_count)
        directed = self.directed
        key = (u, v) if directed or u <= v else (v, u)
        w = self._w.pop(key, None)
        if w is None:
            raise StateError(f"missing edge ({u},{v})")
        self._adj[u].discard(v)
        if not directed:
            self._adj[v].discard(u)
        self.edge_count -= 1
        if self._pending is not None:
            self._toggle(key)
        return w if self.weighted else None

    # Unchecked edits for engine rollback: each restores an edge state the
    # graph held a moment ago, which add_edge/remove_edge already checked.

    def _link(self, u: int, v: int, w: int | None) -> None:
        """Re-insert edge (u, v) with the weight remove_edge returned."""
        key = (u, v) if self.directed or u <= v else (v, u)
        self._w[key] = 0 if w is None else w
        self._adj[u].add(v)
        if not self.directed:
            self._adj[v].add(u)
        self.edge_count += 1
        if self._pending is not None:
            self._toggle(key)

    def _unlink(self, u: int, v: int) -> None:
        """Remove edge (u, v), which add_edge inserted."""
        key = (u, v) if self.directed or u <= v else (v, u)
        del self._w[key]
        self._adj[u].discard(v)
        if not self.directed:
            self._adj[v].discard(u)
        self.edge_count -= 1
        if self._pending is not None:
            self._toggle(key)

    # -- kept views

    def _toggle(self, key: tuple[int, int]) -> None:
        pending = self._pending
        if key in pending:
            del pending[key]  # toggled back: the views hold this state already
        else:
            pending[key] = None

    def _catch_up(self) -> None:
        """Catch the kept views up, or start noting toggles for them."""
        if self._pending is None:
            self._pending = {}
        else:
            self._sync()

    def _sync(self) -> None:
        """Apply each pending edge toggle to the kept views: the only place
        a built view changes."""
        pending = self._pending
        if not pending:
            return
        at, src, dst = self._arcs or (None, None, None)
        rows, sides = self._rows, self._sides
        present, directed = self._w, self.directed
        for key in pending:
            u, v = key
            if key in present:
                if at is not None:
                    at[key] = len(src)
                    src.append(u)
                    dst.append(v)
                if rows is not None:
                    insort(rows[u], v)
                    if not directed:
                        insort(rows[v], u)
                if sides is not None and not sides.link(u, v):
                    sides = None
            else:
                if at is not None:  # the last row moves into key's place
                    i = at.pop(key)
                    x, y = src.pop(), dst.pop()
                    if i < len(src):
                        src[i], dst[i] = x, y
                        at[x, y] = i
                if rows is not None:
                    rows[u].remove(v)
                    if not directed:
                        rows[v].remove(u)
                if sides is not None and not sides.cut(u, v):
                    sides = None
        pending.clear()
        self._sides = sides  # None: the next bipartition() rebuilds it

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v, self.directed) in self._w

    def weight(self, u: int, v: int) -> int:
        key = edge_key(u, v, self.directed)
        if key not in self._w:
            raise StateError(f"missing edge ({u},{v})")
        if not self.weighted:
            raise DomainError("graph is unweighted")
        return self._w[key]

    # -- access

    def out_neighbors(self, u: int) -> set[int]:
        return self._adj[u]

    def adjacency(self) -> tuple[list[set[int]], dict[tuple[int, int], int]]:
        """The graph's own adjacency list and edge -> weight map, for
        read-only use by query code that visits every edge.

        adj[u] is the set out_neighbors(u) returns (every neighbour when
        undirected). Set order follows each set's insert/delete history, so
        code whose result depends on the order of neighbours reads
        ascending_rows() instead. The map is keyed by edge_key(u, v,
        directed) and holds each edge's weight, or 0 on an unweighted graph.
        Neither is a copy: callers must not mutate them or hold them across
        a mutation of the graph.
        """
        return self._adj, self._w

    def arc_columns(self) -> tuple[array, array]:
        """The edge keys as two int arrays (sources, targets), one row per
        edge in no particular order; an arc per row on a directed graph.

        A kept view, as ascending_rows() and bipartition() are: the first
        call builds it, and each later call catches it up with the edges
        whose state changed since the last read of any kept view; an edge
        deleted and put back in between costs nothing. copy() does not carry
        kept views. The columns are the graph's own: callers must not mutate
        them, and must release any buffer view of them (a numpy frombuffer
        array) before the next read of any kept view, which may resize them
        and would then raise BufferError.
        """
        self._catch_up()
        if self._arcs is None:
            keys = list(self._w)
            self._arcs = ({key: i for i, key in enumerate(keys)},
                          array("i", [u for u, _ in keys]),
                          array("i", [v for _, v in keys]))
        return self._arcs[1], self._arcs[2]

    def ascending_rows(self) -> list[list[int]]:
        """rows[u] lists out_neighbors(u) in ascending order, so code that
        iterates neighbours gets the same result on equal graphs whatever
        their history. A kept view that catches up as arc_columns() does.
        The lists are the graph's own, and callers must not mutate them.
        """
        self._catch_up()
        if self._rows is None:
            self._rows = [sorted(a) for a in self._adj]
        return self._rows

    def bipartition(self) -> tuple[list[int], list[int]]:
        """The (left, right) node lists, each ascending: each component is
        two-coloured by BFS parity, with its least id on the left. Raises
        DomainError when an odd cycle exists.

        A kept view that catches up as ascending_rows() does. An edge that
        joins an isolated node to a component, or removes a node's last
        edge, updates it in O(1) big-int operations; an edge inside a
        component checks the two sides. Any other change (merging or maybe
        splitting two components, or an odd cycle) drops it, and the next
        call rebuilds it with one BFS. The lists are the graph's own, and
        callers must not mutate them.
        """
        return self._sides_view().lists()

    def left_side(self) -> list[int]:
        """The left list of bipartition(), without building the right one."""
        return self._sides_view().left_list()

    def _sides_view(self) -> "_Sides":
        if self.directed:
            raise DomainError("bipartition is defined on undirected graphs")
        self._catch_up()
        if self._sides is None:
            self._sides = _Sides(self._adj)
        return self._sides

    def edges(self) -> list[tuple[int, int]]:
        return sorted(self._w.keys())

    def weighted_edges(self) -> list[tuple[int, int, int]]:
        return sorted((u, v, w) for (u, v), w in self._w.items())

    def degree(self, u: int) -> int:
        if self.directed:
            raise DomainError("degree is defined on undirected graphs")
        return len(self._adj[u])

    def copy(self) -> "Graph":
        g = Graph(
            self.node_count,
            directed=self.directed,
            weighted=self.weighted,
            max_weight=self.max_weight,
            s=self.s,
            t=self.t,
            s_set=self.s_set,
            t_set=self.t_set,
            active=set(self.active) if self.active is not None else None,
        )
        g._adj = [set(a) for a in self._adj]
        g._w = dict(self._w)
        g.edge_count = self.edge_count
        return g

    def _state_tuple(self):
        return (
            self.node_count,
            self.directed,
            self.weighted,
            self.s,
            self.t,
            tuple(sorted(self.s_set)) if self.s_set is not None else None,
            tuple(sorted(self.t_set)) if self.t_set is not None else None,
            tuple(sorted(self.active)) if self.active is not None else None,
            tuple(sorted(self._w.items())),
        )

    def __eq__(self, other) -> bool:
        # max_weight is declared capacity, not structure
        return isinstance(other, Graph) and self._state_tuple() == other._state_tuple()

    def digest(self) -> str:
        return sha256(repr(self._state_tuple()).encode()).hexdigest()

    def to_text(self) -> str:
        head = f"{self.node_count} {self.edge_count} "
        head += "directed" if self.directed else "undirected"
        if self.weighted:
            head += " weighted"
        lines = [head]
        for (u, v), w in sorted(self._w.items()):
            lines.append(f"{u} {v} {w}" if self.weighted else f"{u} {v}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"Graph(n={self.node_count}, m={self.edge_count}, {kind})"


# format(bitmask) digits -> one selector byte per node for itertools.compress
_ON = bytes.maketrans(b"01", b"\x00\x01")
_OFF = bytes.maketrans(b"01", b"\x01\x00")


def _mask(nodes) -> int:
    return sum(map((1).__lshift__, nodes))


def _select(mask: int, ids, table: bytes = _ON) -> list[int]:
    """The ids whose bit in mask is set (table _ON) or clear (_OFF), in
    ascending order; ids is range(n) or list(range(n))."""
    digits = format(mask, f"0{len(ids)}b")[::-1].encode()
    return list(compress(ids, digits.translate(table)))


class _Sides:
    """The bipartition() view. deg[v] is v's degree; left is a bitmask of
    the nodes on the left, and comp[v] the record [least id, member bitmask]
    that all nodes of v's component share. link() and cut() keep them after
    an edge toggle, and return False when the view must be rebuilt instead.
    A rebuild leaves left and comp to the first link() or cut() that needs
    them, as a view rebuilt at each query often is dropped again unread.
    After a toggle each node list is rebuilt from left when first read."""

    __slots__ = ("deg", "left", "comp", "_groups", "_left", "_right", "_ids")

    def __init__(self, adj: list[set[int]]):
        n = len(adj)
        self.deg = list(map(len, adj))
        sides: tuple[list[int], list[int]] = ([], [])
        groups = []  # each component's nodes, its least id first
        seen: set[int] = set()
        for root in range(n):
            if root in seen:
                continue
            seen.add(root)
            members = []
            layer = {root}
            parity = 0
            while layer:
                members += layer
                sides[parity].extend(layer)
                reach = set().union(*map(adj.__getitem__, layer))
                # BFS layers: an edge inside one layer closes an odd cycle
                if not reach.isdisjoint(layer):
                    raise DomainError("graph is not bipartite")
                layer = reach - seen
                seen |= layer
                parity ^= 1
            groups.append(members)
        self._left, self._right = sorted(sides[0]), sorted(sides[1])
        self._groups, self.comp, self.left, self._ids = groups, None, 0, None

    def _records(self) -> None:
        comp: list = [None] * len(self.deg)
        for members in self._groups:
            rec = [members[0], _mask(members)]
            for v in members:
                comp[v] = rec
        self.comp, self.left, self._groups = comp, _mask(self._left), None

    def left_list(self) -> list[int]:
        if self._left is None:
            self._left = _select(self.left, self._node_ids())
        return self._left

    def lists(self) -> tuple[list[int], list[int]]:
        if self._right is None:
            self._right = _select(self.left, self._node_ids(), _OFF)
        return self.left_list(), self._right

    def _node_ids(self) -> list[int]:
        if self._ids is None:
            self._ids = list(range(len(self.deg)))  # compress() makes no ints
        return self._ids

    def link(self, u: int, v: int) -> bool:
        deg = self.deg
        deg[u] += 1
        deg[v] += 1
        if self.comp is None:
            self._records()
        comp, left = self.comp, self.left
        ru, rv = comp[u], comp[v]
        if ru is rv:  # on one side the new edge closes an odd cycle
            return bool((left >> u ^ left >> v) & 1)
        if deg[u] == 1:
            x, y, rec = u, v, rv
        elif deg[v] == 1:
            x, y, rec = v, u, ru
        else:
            return False  # two components merge
        # the isolated x joins y's component on the side opposite y
        bit = 1 << x
        comp[x] = rec
        rec[1] |= bit
        y_left = left >> y & 1
        if y_left:
            left ^= bit
        if x < rec[0]:
            rec[0] = x  # the new least id goes left: flip the component
            if y_left:
                left ^= rec[1]
        self.left = left
        self._left = self._right = None
        return True

    def cut(self, u: int, v: int) -> bool:
        deg = self.deg
        deg[u] -= 1
        deg[v] -= 1
        if deg[u] and deg[v]:
            return False  # the component may split
        if self.comp is None:
            self._records()
        comp, left = self.comp, self.left
        for x in (u, v):
            if deg[x]:
                continue
            # x, now isolated, leaves its component for one of its own
            bit = 1 << x
            rec = comp[x]
            rec[1] ^= bit
            comp[x] = [x, bit]
            left |= bit
            members = rec[1]
            if rec[0] == x and members:
                least = (members & -members).bit_length() - 1
                rec[0] = least
                if not left >> least & 1:
                    left ^= members
        self.left = left
        self._left = self._right = None
        return True


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: "n m directed|undirected [weighted]" then one edge per line."""
    lines = text.splitlines()
    body = [(i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()]
    if not body:
        raise ParseError("empty graph text")
    ln_no, head = body[0]
    toks = head.split()
    if len(toks) not in (3, 4):
        raise ParseError("header must be 'n m directed|undirected [weighted]'", ln_no)
    try:
        n, m = int(toks[0]), int(toks[1])
    except ValueError:
        raise ParseError("header counts must be integers", ln_no)
    if toks[2] not in ("directed", "undirected"):
        raise ParseError(f"unknown orientation {toks[2]!r}", ln_no)
    weighted = False
    if len(toks) == 4:
        if toks[3] != "weighted":
            raise ParseError(f"unknown header flag {toks[3]!r}", ln_no)
        weighted = True
    if n < 0 or m < 0:
        raise ParseError("negative counts in header", ln_no)
    if n > limits.max_state_nodes():  # before Graph(n) allocates per node
        raise GuardError(f"header declares {n} nodes, over the state cap")
    # max_weight is set after all weights are read
    g = Graph(n, directed=(toks[2] == "directed"), weighted=weighted)
    seen = 0
    max_w = 0
    for ln_no, ln in body[1:]:
        toks = ln.split()
        want = 3 if weighted else 2
        if len(toks) != want:
            raise ParseError(f"expected {want} tokens on edge line", ln_no)
        try:
            vals = [int(t) for t in toks]
        except ValueError:
            raise ParseError("edge tokens must be integers", ln_no)
        u, v = vals[0], vals[1]
        w = vals[2] if weighted else None
        if weighted and w is not None and w < 1:
            raise ParseError(f"non-positive weight {w}", ln_no)
        try:
            g.add_edge(u, v, w)
        except (DomainError, StateError) as exc:
            raise ParseError(str(exc), ln_no)
        if weighted:
            max_w = max(max_w, w)
        seen += 1
    if seen != m:
        raise ParseError(f"header promised {m} edges, found {seen}")
    if weighted:
        g.max_weight = max(max_w, 1)
    return g


# ---------------------------------------------------------------------------
# CNF formulas


class CnfFormula:
    """CNF over variables 1..var_count; clauses are lists of signed ints.

    The clause count is capped at CLAUSE_CAP_FACTOR * var_count, a documented
    requirement on inputs standing in for sparsification.
    """

    CLAUSE_CAP_FACTOR = 4

    def __init__(self, var_count: int, clauses: list[list[int]]):
        if var_count < 0:
            raise DomainError("var_count must be nonnegative")
        cap = self.CLAUSE_CAP_FACTOR * var_count
        if len(clauses) > cap:
            raise DomainError(
                f"{len(clauses)} clauses exceed the {cap} cap for {var_count} variables")
        for cl in clauses:
            for lit in cl:
                if lit == 0 or abs(lit) > var_count:
                    raise DomainError(f"literal {lit} out of range for {var_count} variables")
        self.var_count = var_count
        self.clauses = [list(cl) for cl in clauses]

    def _state_tuple(self):
        return (self.var_count, tuple(tuple(cl) for cl in self.clauses))

    def __eq__(self, other):
        return isinstance(other, CnfFormula) and self._state_tuple() == other._state_tuple()

    def digest(self) -> str:
        return sha256(repr(self._state_tuple()).encode()).hexdigest()

    def to_text(self) -> str:
        lines = [f"p cnf {self.var_count} {len(self.clauses)}"]
        for cl in self.clauses:
            lines.append(" ".join(str(l) for l in cl) + " 0")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"CnfFormula(n={self.var_count}, clauses={len(self.clauses)})"


def parse_cnf(text: str) -> CnfFormula:
    """Parse DIMACS CNF. Clause and variable counts must match the header."""
    n = m = None
    clauses: list[list[int]] = []
    current: list[int] = []
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        ln = raw.strip()
        if not ln or ln.startswith("c"):
            continue
        if ln.startswith("p"):
            if n is not None:
                raise ParseError("duplicate problem line", ln_no)
            toks = ln.split()
            if len(toks) != 4 or toks[1] != "cnf":
                raise ParseError("problem line must be 'p cnf <vars> <clauses>'", ln_no)
            try:
                n, m = int(toks[2]), int(toks[3])
            except ValueError:
                raise ParseError("problem line counts must be integers", ln_no)
            if n < 0 or m < 0:
                raise ParseError("negative counts in problem line", ln_no)
            continue
        if n is None:
            raise ParseError("clause before problem line", ln_no)
        for tok in ln.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(f"bad literal token {tok!r}", ln_no)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                if abs(lit) > n:
                    raise ParseError(f"literal {lit} exceeds variable count {n}", ln_no)
                current.append(lit)
    if n is None:
        raise ParseError("missing problem line")
    if current:
        raise ParseError("unterminated clause at end of input")
    if len(clauses) != m:
        raise ParseError(f"header promised {m} clauses, found {len(clauses)}")
    try:
        return CnfFormula(n, clauses)
    except DomainError as exc:
        raise ParseError(str(exc))


# ---------------------------------------------------------------------------
# set systems


class SetSystem:
    """Append-only collection of subsets of [0, universe_size). Ids are stable.

    Each set is kept as one int, bit x set when x is a member: masks[i] (or
    mask(i), which range-checks i) for set i.
    """

    def __init__(self, universe_size: int, sets: Iterable[Iterable[int]] = ()):
        if universe_size < 0:
            raise DomainError("universe_size must be nonnegative")
        self.universe_size = universe_size
        self.masks: list[int] = []
        for members in sets:
            self.append_set(members)

    @classmethod
    def from_masks(cls, universe_size: int, masks: Iterable[int]) -> "SetSystem":
        """The system whose set i is masks[i], range-checked as append_set is."""
        out = cls(universe_size)
        out.masks = list(masks)
        if any(m < 0 or m >> universe_size for m in out.masks):
            raise DomainError("set member outside universe")
        return out

    def append_set(self, members: Iterable[int]) -> int:
        size = self.universe_size
        mask = 0
        for x in members:
            if not (0 <= x < size):
                raise DomainError("set member outside universe")
            mask |= 1 << x
        self.masks.append(mask)
        return len(self.masks) - 1

    def pop_set(self) -> None:
        # only used by rollback; ids above the popped one never existed afterwards
        if not self.masks:
            raise StateError("no sets to pop")
        self.masks.pop()

    def mask(self, i: int) -> int:
        if not (0 <= i < len(self.masks)):
            raise StateError(f"set id {i} out of range")
        return self.masks[i]

    def members(self, i: int) -> list[int]:
        """The members of set i, ascending."""
        return _select(self.mask(i), range(self.universe_size))

    def __len__(self):
        return len(self.masks)

    def _state_tuple(self):
        ids = range(self.universe_size)
        return (self.universe_size, tuple(tuple(_select(m, ids)) for m in self.masks))

    def __eq__(self, other):
        return (isinstance(other, SetSystem)
                and self.universe_size == other.universe_size
                and self.masks == other.masks)

    def digest(self) -> str:
        return sha256(repr(self._state_tuple()).encode()).hexdigest()

    def copy(self) -> "SetSystem":
        out = SetSystem(self.universe_size)
        out.masks = list(self.masks)
        return out

    def __repr__(self):
        return f"SetSystem(universe={self.universe_size}, sets={len(self.masks)})"


# ---------------------------------------------------------------------------
# update and query vocabulary


@dataclass(frozen=True)
class InsertEdge:
    u: int
    v: int
    w: int | None = None


@dataclass(frozen=True)
class DeleteEdge:
    u: int
    v: int


@dataclass(frozen=True)
class ActivateNode:
    v: int


@dataclass(frozen=True)
class DeactivateNode:
    v: int


@dataclass(frozen=True)
class InsertSet:
    members: frozenset[int]


@dataclass(frozen=True)
class IntersectSets:
    i: int
    j: int


@dataclass(frozen=True)
class AddToScope:
    set_id: int


@dataclass(frozen=True)
class RemoveFromScope:
    set_id: int


@dataclass(frozen=True)
class StConnected:
    """s and t connected in the subgraph induced by the active set plus {s,t}."""


@dataclass(frozen=True)
class StReachable:
    pass


@dataclass(frozen=True)
class ReachCountLessThan:
    """Is |reachable from s, excluding s itself| < limit?"""
    limit: int


@dataclass(frozen=True)
class StronglyConnected:
    pass


@dataclass(frozen=True)
class MoreThanTwoSccs:
    pass


@dataclass(frozen=True)
class SccCount2VsK:
    """True iff the SCC count exceeds k (callers promise it is 2 or > k)."""
    k: int


@dataclass(frozen=True)
class MaxSccSize:
    pass


@dataclass(frozen=True)
class InducedConnected:
    """Is the subgraph induced by the active set connected? (<=1 node: yes)"""


@dataclass(frozen=True)
class UnionIsUniverse:
    pass


@dataclass(frozen=True)
class HasPerfectMatching:
    pass


@dataclass(frozen=True)
class KAugFreeMatchingSize:
    """Size of a matching with no augmenting path of length <= k (k odd)."""
    k: int


@dataclass(frozen=True)
class MaxWeightPmWeight:
    pass


@dataclass(frozen=True)
class StDistance:
    pass


@dataclass(frozen=True)
class AllStReachable:
    """Every node of t_set reachable from every node of s_set."""


@dataclass(frozen=True)
class Diameter:
    pass


@dataclass(frozen=True)
class Member:
    i: int
    u: int


@dataclass(frozen=True)
class IsEmpty:
    i: int


# ---------------------------------------------------------------------------
# run reports


@dataclass
class RunReport:
    reduction: str
    mode: str | None
    instance_digest: str
    answer: object
    oracle_answer: object
    counters: CostCounters
    seed: int
    elapsed_ms: int


def emit_report(report: RunReport) -> str:
    """Serialize a run report as JSON with a fixed key order."""
    payload = {
        "reduction": report.reduction,
        "mode": report.mode,
        "instance_digest": report.instance_digest,
        "answer": report.answer,
        "oracle_answer": report.oracle_answer,
        "counters": report.counters.as_dict(),
        "seed": report.seed,
        "elapsed_ms": report.elapsed_ms,
    }
    return json.dumps(payload, separators=(", ", ": "))
