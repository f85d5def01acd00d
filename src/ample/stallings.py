"""Folded core graphs for finitely generated subgroups of free groups.

A subgroup graph is stored as a tuple of per-vertex adjacency dicts:
``adj[v][code] == w`` means an edge from v to w reading the letter ``code``
(signed int as in :mod:`ample.words`); the reverse arc ``adj[w][-code] == v``
is always present.  Graphs are folded, connected, canonically numbered by a
BFS from the basepoint (vertex 0) with labels visited in sorted order, so
two graphs represent the same subgroup iff their adjacency tuples are equal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .words import Word, CyclicWord, cyclic_reduce, invert, letter_key, multiply

Adj = dict[int, dict[int, int]]


# ---------------------------------------------------------------------------
# Folding
# ---------------------------------------------------------------------------

class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root


def _fold(num_vertices: int, arcs: Iterable[tuple[int, int, int]]) -> tuple[_UnionFind, Adj]:
    """Fold the graph given by directed arcs (u, code, v); returns (uf, adj).

    The returned adjacency is keyed by union-find representatives; targets may
    be stale and must be resolved through ``uf.find``.
    """
    uf = _UnionFind(num_vertices)
    adj: list[dict[int, int]] = [dict() for _ in range(num_vertices)]
    pending: deque[tuple[int, int]] = deque()

    def add_arc(u: int, code: int, v: int) -> None:
        u = uf.find(u)
        cur = adj[u].get(code)
        if cur is None:
            adj[u][code] = v
        else:
            cur = uf.find(cur)
            v = uf.find(v)
            if cur != v:
                pending.append((cur, v))

    for u, code, v in arcs:
        add_arc(u, code, v)
        add_arc(v, -code, u)
        while pending:
            a, b = pending.popleft()
            a, b = uf.find(a), uf.find(b)
            if a == b:
                continue
            if len(adj[a]) < len(adj[b]):
                a, b = b, a
            uf.parent[b] = a
            moved = adj[b]
            adj[b] = {}
            for code2, tgt in moved.items():
                add_arc(a, code2, tgt)
    result: Adj = {}
    for v in range(num_vertices):
        if uf.find(v) == v:
            result[v] = {code: uf.find(t) for code, t in adj[v].items()}
    return uf, result


def _peel(adj: Adj, keep: Optional[int]) -> Adj:
    """Strip degree<=1 vertices (every vertex except ``keep``, if given)."""
    adj = {v: dict(nbrs) for v, nbrs in adj.items()}
    queue = deque(v for v in adj if v != keep and len(adj[v]) <= 1)
    while queue:
        v = queue.popleft()
        if v not in adj or v == keep or len(adj[v]) > 1:
            continue
        for code, t in list(adj[v].items()):
            del adj[t][-code]
            if t != keep and len(adj[t]) <= 1:
                queue.append(t)
        del adj[v]
    return adj


def _component(adj: Adj, start: int) -> set[int]:
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for t in adj[v].values():
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


def _bfs_order(adj: Adj, start: int) -> list[int]:
    order = [start]
    pos = {start: 0}
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for code in sorted(adj[v], key=letter_key):
            t = adj[v][code]
            if t not in pos:
                pos[t] = len(order)
                order.append(t)
    return order


def _encoding(adj: Sequence[dict[int, int]]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Hashable, totally ordered form of a renumbered adjacency tuple."""
    return tuple(tuple(sorted(r.items())) for r in adj)


def _renumber(adj: Adj, order: list[int]) -> tuple[dict[int, int], ...]:
    pos = {v: i for i, v in enumerate(order)}
    rows = []
    for v in order:
        rows.append({code: pos[adj[v][code]]
                     for code in sorted(adj[v], key=letter_key)})
    return tuple(rows)


# ---------------------------------------------------------------------------
# Graph classes
# ---------------------------------------------------------------------------

class SubgroupGraph:
    """Folded based core graph; basepoint is vertex 0; canonical numbering."""

    __slots__ = ("adj", "ambient_rank", "_core")

    adj: tuple[dict[int, int], ...]
    ambient_rank: Optional[int]

    def __init__(self, adj: tuple[dict[int, int], ...], ambient_rank: Optional[int] = None):
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "_core", None)

    def __setattr__(self, name, value):
        raise AttributeError("SubgroupGraph is immutable")

    @staticmethod
    def _from_raw(adj: Adj, base: int, ambient_rank: Optional[int]) -> "SubgroupGraph":
        comp = _component(adj, base)
        adj = {v: nbrs for v, nbrs in adj.items() if v in comp}
        adj = _peel(adj, keep=base)
        return SubgroupGraph(_renumber(adj, _bfs_order(adj, base)), ambient_rank)

    @property
    def num_vertices(self) -> int:
        return len(self.adj)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, SubgroupGraph) and self.adj == other.adj

    def __hash__(self) -> int:
        return hash(_encoding(self.adj))

    def __repr__(self) -> str:
        return f"SubgroupGraph(vertices={self.num_vertices}, rank={rank(self)})"


class CyclicCore:
    """Folded graph with no basepoint and all degrees >= 2; may be empty."""

    __slots__ = ("adj",)

    adj: tuple[dict[int, int], ...]

    def __init__(self, adj: tuple[dict[int, int], ...]):
        object.__setattr__(self, "adj", adj)

    def __setattr__(self, name, value):
        raise AttributeError("CyclicCore is immutable")

    @staticmethod
    def _from_raw(adj: Adj) -> "CyclicCore":
        adj = _peel(adj, keep=None)
        if not adj:
            return CyclicCore(())
        # canonical start: the vertex whose BFS encoding is least
        return CyclicCore(min((_renumber(adj, _bfs_order(adj, start)) for start in adj),
                              key=_encoding))

    @property
    def num_vertices(self) -> int:
        return len(self.adj)

    def __eq__(self, other) -> bool:
        return isinstance(other, CyclicCore) and self.adj == other.adj

    def __hash__(self) -> int:
        return hash(_encoding(self.adj))

    def __bool__(self) -> bool:
        return bool(self.adj)

    def __repr__(self) -> str:
        return f"CyclicCore(vertices={self.num_vertices})"


@dataclass(frozen=True)
class ComponentWitness:
    """One cycle-bearing component of a conjugacy fiber product."""

    graph: SubgroupGraph
    witness: Word


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _path_arcs(arcs: list[tuple[int, int, int]], codes: tuple[int, ...],
               start: int, end: int, next_v: int) -> int:
    """Append the arcs of a path reading ``codes`` from start to end through
    fresh vertices numbered from next_v (no arcs for the empty word);
    returns the next unused vertex."""
    prev = start
    for code in codes[:-1]:
        arcs.append((prev, code, next_v))
        prev, next_v = next_v, next_v + 1
    if codes:
        arcs.append((prev, codes[-1], end))
    return next_v


def build_core(generators: Sequence[Word], ambient_rank: Optional[int] = None) -> SubgroupGraph:
    """Folded based core graph of the subgroup generated by the given words."""
    arcs: list[tuple[int, int, int]] = []
    next_v = 1
    for w in generators:
        next_v = _path_arcs(arcs, w.letters, 0, 0, next_v)
    uf, adj = _fold(next_v, arcs)
    return SubgroupGraph._from_raw(adj, uf.find(0), ambient_rank)


def contains(g: SubgroupGraph, w: Word) -> bool:
    """True iff w reads a closed loop at the basepoint."""
    v = 0
    for code in w.letters:
        nxt = g.adj[v].get(code)
        if nxt is None:
            return False
        v = nxt
    return v == 0


def in_double_coset(h_gens: Sequence[Word], b1: Word, k_gens: Sequence[Word], b2: Word) -> bool:
    """True iff b2 = x b1 y for some x in <h_gens> and y in <k_gens>.

    That holds iff <h_gens> meets the coset b2 <k_gens> b1^-1, whose elements
    are the labels of the paths s -> f in the folded graph of a b2 path
    s -> t, the k loops at t and a b1 path f -> t; so it holds iff the
    product of that graph with the core of <h_gens> joins (0, s) to (0, f).
    """
    t, s, f = 0, (1 if b2 else 0), (2 if b1 else 0)
    arcs: list[tuple[int, int, int]] = []
    next_v = _path_arcs(arcs, b2.letters, s, t, 3)
    next_v = _path_arcs(arcs, b1.letters, f, t, next_v)
    for w in k_gens:
        next_v = _path_arcs(arcs, w.letters, t, t, next_v)
    uf, coset = _fold(next_v, arcs)
    h = build_core(h_gens).adj
    start, goal = (0, uf.find(s)), (0, uf.find(f))
    seen = {start}
    queue = deque([start])
    while queue:
        u, v = pair = queue.popleft()
        if pair == goal:
            return True
        row = coset[v]
        for code, x in h[u].items():
            y = row.get(code)
            if y is not None and (x, y) not in seen:
                seen.add((x, y))
                queue.append((x, y))
    return False


def rank(g: SubgroupGraph) -> int:
    return g.num_edges - g.num_vertices + 1


def _spanning_tree(adj: Sequence[dict[int, int]]) -> tuple[dict[int, tuple[int, int]], list[tuple[int, int, int]]]:
    """BFS tree (sorted-label order) from vertex 0.

    Returns (parent arc per non-root vertex, list of non-tree arcs (u, code, v)
    with one representative per undirected edge).
    """
    parent: dict[int, tuple[int, int]] = {}
    seen = {0}
    order = [0]
    i = 0
    while i < len(order):
        u = order[i]
        i += 1
        for code in sorted(adj[u], key=letter_key):
            t = adj[u][code]
            if t not in seen:
                seen.add(t)
                parent[t] = (u, code)
                order.append(t)
    tree_arcs = {(u, code, t) for t, (u, code) in parent.items()}
    non_tree = []
    for u in range(len(adj)):
        for code in sorted(adj[u], key=letter_key):
            if code < 0:
                continue
            t = adj[u][code]
            if (u, code, t) in tree_arcs or (t, -code, u) in tree_arcs:
                continue
            non_tree.append((u, code, t))
    return parent, non_tree


def _path_word(parent: dict[int, tuple[int, int]], v: int) -> list[int]:
    codes: list[int] = []
    while v != 0:
        u, code = parent[v]
        codes.append(code)
        v = u
    codes.reverse()
    return codes


def basis(g: SubgroupGraph) -> list[Word]:
    """A free basis, one word per non-tree edge of a BFS spanning tree."""
    parent, non_tree = _spanning_tree(g.adj)
    words = []
    for u, code, t in non_tree:
        p_u = _path_word(parent, u)
        p_t = _path_word(parent, t)
        words.append(Word(p_u + [code] + [-c for c in reversed(p_t)]))
    return words


def equals(g1: SubgroupGraph, g2: SubgroupGraph) -> bool:
    """Same subgroup iff identical canonical folded based core graphs."""
    return g1.adj == g2.adj


def intersect(g1: SubgroupGraph, g2: SubgroupGraph) -> SubgroupGraph:
    """Based fiber product restricted to the component of the basepoints."""
    pair_ids: dict[tuple[int, int], int] = {(0, 0): 0}
    adj: Adj = {0: {}}
    queue = deque([(0, 0)])
    while queue:
        v1, v2 = queue.popleft()
        vid = pair_ids[(v1, v2)]
        row1, row2 = g1.adj[v1], g2.adj[v2]
        keys = row1 if len(row1) <= len(row2) else row2
        for code in keys:
            t1 = row1.get(code)
            t2 = row2.get(code)
            if t1 is None or t2 is None:
                continue
            pair = (t1, t2)
            tid = pair_ids.get(pair)
            if tid is None:
                tid = len(pair_ids)
                pair_ids[pair] = tid
                adj[tid] = {}
                queue.append(pair)
            adj[vid][code] = tid
    ambient = g1.ambient_rank if g1.ambient_rank == g2.ambient_rank else None
    return SubgroupGraph._from_raw(adj, 0, ambient)


def cyclic_core(g: SubgroupGraph) -> CyclicCore:
    """Strip all degree<=1 vertices, basepoint included (built once per g)."""
    if g._core is None:
        object.__setattr__(g, "_core", CyclicCore._from_raw(dict(enumerate(g.adj))))
    return g._core


def _traces_loop(adj: Sequence[dict[int, int]], start: int, codes: tuple[int, ...]) -> bool:
    v = start
    for code in codes:
        nxt = adj[v].get(code)
        if nxt is None:
            return False
        v = nxt
    return v == start


def is_conjugate_into(w: Word, g: SubgroupGraph) -> bool:
    """True iff the cyclic reduction of w reads a closed path somewhere in
    the cyclic core of g."""
    core = cyclic_core(g)
    if not core:
        return not w
    cw, _ = cyclic_reduce(w)
    codes = cw.letters
    return any(_traces_loop(core.adj, v, codes) for v in range(core.num_vertices))


def conjugacy_intersection(g1: SubgroupGraph, g2: SubgroupGraph) -> list[ComponentWitness]:
    """Cycle-bearing components of the fiber product of the two cyclic cores
    over all vertex pairs.

    A nontrivial word is conjugate into both g1 and g2 iff it is conjugate
    into the subgroup of some returned component.
    """
    c1, c2 = cyclic_core(g1), cyclic_core(g2)
    if not c1 or not c2:
        return []
    n2 = c2.num_vertices
    adj: Adj = {}
    for v1 in range(c1.num_vertices):
        row1 = c1.adj[v1]
        for v2 in range(n2):
            row2 = c2.adj[v2]
            row = {}
            for code, t1 in row1.items():
                t2 = row2.get(code)
                if t2 is not None:
                    row[code] = t1 * n2 + t2
            adj[v1 * n2 + v2] = row
    adj = _peel(adj, keep=None)
    witnesses = []
    remaining = set(adj)
    while remaining:
        start = min(remaining)
        comp = _component(adj, start)
        remaining -= comp
        comp_adj = {v: adj[v] for v in comp}
        core = CyclicCore._from_raw(comp_adj)
        if not core:
            continue
        graph = SubgroupGraph(core.adj)
        words = basis(graph)
        assert words, "cycle-bearing component must have rank >= 1"
        witnesses.append(ComponentWitness(graph=graph, witness=words[0]))
    witnesses.sort(key=lambda cw: _encoding(cw.graph.adj))
    return witnesses


def immerses_into(src: CyclicCore, dst: CyclicCore) -> bool:
    """True iff a label-preserving graph morphism src -> dst exists.

    Both graphs are folded, so the morphism is determined by the image of one
    vertex; a successful morphism conjugates every loop of src into dst at
    once (single-conjugator sufficient condition per component).
    """
    if not src:
        return True
    if not dst:
        return False
    for target_start in range(dst.num_vertices):
        mapping = {0: target_start}
        queue = deque([0])
        ok = True
        while queue and ok:
            u = queue.popleft()
            v = mapping[u]
            for code, t in src.adj[u].items():
                img = dst.adj[v].get(code)
                if img is None:
                    ok = False
                    break
                if t in mapping:
                    if mapping[t] != img:
                        ok = False
                        break
                else:
                    mapping[t] = img
                    queue.append(t)
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# Bounded-length enumeration oracle
# ---------------------------------------------------------------------------

def _distances(adj: Sequence[dict[int, int]], start: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[start] = 0
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for t in adj[v].values():
            if dist[t] < 0:
                dist[t] = dist[v] + 1
                queue.append(t)
    return dist


def _extend(adj: Sequence[dict[int, int]], dists: list[list[int]], max_len: int,
            classes: set[CyclicWord], start: int, v: int, path: list[int]) -> None:
    """Record every closed cyclically reduced path of length <= max_len that
    extends ``path`` (start -> v) with no letter below its first one: each
    class has a rotation that starts at its least letter."""
    first = letter_key(path[0]) if path else None
    for code, t in adj[v].items():
        if path and (code == -path[-1] or letter_key(code) < first):
            continue
        if len(path) + 1 + dists[start][t] > max_len:
            continue
        path.append(code)
        if t == start and path[0] != -path[-1]:
            classes.add(CyclicWord(tuple(path)))
        if len(path) < max_len:
            _extend(adj, dists, max_len, classes, start, t, path)
        path.pop()


def enumerate_cyclic_classes(core: CyclicCore, max_len: int) -> set[CyclicWord]:
    """All nontrivial conjugacy classes of cyclically reduced length <= max_len
    whose class meets the subgroups carried by ``core`` (i.e. cyclic words
    readable as closed paths in the core), up to rotation."""
    classes: set[CyclicWord] = set()
    if not core:
        return classes
    adj = core.adj
    dists = [_distances(adj, v) for v in range(len(adj))]
    for start in range(len(adj)):
        _extend(adj, dists, max_len, classes, start, start, [])
    return classes
