"""Folded core graphs for finitely generated subgroups of free groups.

A subgroup graph is stored as a tuple of per-vertex adjacency dicts:
``adj[v][code] == w`` means an edge from v to w reading the letter ``code``
(signed int as in :mod:`ample.words`); the reverse arc ``adj[w][-code] == v``
is always present.  Graphs are folded, connected, canonically numbered by a
BFS from the basepoint (vertex 0) with labels visited in sorted order, so
two graphs represent the same subgroup iff their adjacency tuples are equal.

A cyclic core is a :class:`SubgroupGraph` too: every vertex has degree >= 2,
and it is based at the vertex whose BFS numbering encodes least, so two
nontrivial subgroups are conjugate iff their cyclic cores' tuples are equal.
The trivial group's cyclic core is the one-vertex graph ``({},)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .words import Word, CyclicWord, cyclic_reduce, letter_key

Adj = dict[int, dict[int, int]]
Rows = Sequence[dict[int, int]] | Adj   # adjacency rows of a tuple or a raw graph


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


def _bfs(adj: Rows, start: int) -> dict[int, Optional[tuple[int, int]]]:
    """Breadth-first search from ``start`` taking each vertex's arcs in letter
    order; maps every reached vertex, in visiting order, to its tree arc
    (parent, code), or to None for ``start`` itself."""
    tree: dict[int, Optional[tuple[int, int]]] = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        row = adj[u]
        for code in sorted(row, key=letter_key):
            t = row[code]
            if t not in tree:
                tree[t] = (u, code)
                queue.append(t)
    return tree


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
    """Folded based core graph; basepoint is vertex 0; canonical numbering.

    Cyclic cores are instances too (based at their canonical start, their
    own ``_core``); false iff vertex 0 has no arc, i.e. the trivial group.
    """

    __slots__ = ("adj", "_core")

    adj: tuple[dict[int, int], ...]

    def __init__(self, adj: tuple[dict[int, int], ...]):
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "_core", None)

    def __setattr__(self, name, value):
        raise AttributeError("SubgroupGraph is immutable")

    @staticmethod
    def _from_raw(adj: Adj, base: int) -> "SubgroupGraph":
        """Canonical form of a connected folded graph based at ``base``."""
        adj = _peel(adj, keep=base)
        return SubgroupGraph(_renumber(adj, list(_bfs(adj, base))))

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

    def __bool__(self) -> bool:
        return bool(self.adj[0])

    def __repr__(self) -> str:
        return f"SubgroupGraph(vertices={self.num_vertices}, rank={rank(self)})"


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


def _product(adj1: Rows, adj2: Rows,
             starts: Iterable[tuple[int, int]]) -> tuple[dict[tuple[int, int], int], Adj]:
    """Fiber product of two folded graphs over the vertex pairs reachable from
    ``starts``, each pair numbered in visiting order, ``starts`` first;
    returns (pair -> number, adjacency over the numbers)."""
    order = list(dict.fromkeys(starts))
    ids = {pair: i for i, pair in enumerate(order)}
    adj: Adj = {}
    for vid, (v1, v2) in enumerate(order):   # order grows as pairs are reached
        row2 = adj2[v2]
        adj[vid] = row = {}
        for code, t1 in adj1[v1].items():
            if code in row2:
                pair = (t1, row2[code])
                if pair not in ids:
                    ids[pair] = len(order)
                    order.append(pair)
                row[code] = ids[pair]
    return ids, adj


def build_core(generators: Sequence[Word]) -> SubgroupGraph:
    """Folded based core graph of the subgroup generated by the given words."""
    arcs: list[tuple[int, int, int]] = []
    next_v = 1
    for w in generators:
        next_v = _path_arcs(arcs, w.letters, 0, 0, next_v)
    uf, adj = _fold(next_v, arcs)
    return SubgroupGraph._from_raw(adj, uf.find(0))


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
    reached, _ = _product(build_core(h_gens).adj, coset, [(0, uf.find(s))])
    return (0, uf.find(f)) in reached


def rank(g: SubgroupGraph) -> int:
    return g.num_edges - g.num_vertices + 1


def _path_word(tree: dict[int, Optional[tuple[int, int]]], v: int) -> list[int]:
    """Label of the tree path from the root of ``tree`` to v."""
    codes: list[int] = []
    while tree[v] is not None:
        v, code = tree[v]
        codes.append(code)
    codes.reverse()
    return codes


def basis(g: SubgroupGraph) -> list[Word]:
    """A free basis, one word per non-tree edge of the BFS spanning tree from
    the basepoint, in order of (source vertex, positive label)."""
    tree = _bfs(g.adj, 0)
    words = []
    for u, row in enumerate(g.adj):
        for code in sorted(c for c in row if c > 0):
            t = row[code]
            if tree[t] != (u, code) and tree[u] != (t, -code):
                words.append(Word(_path_word(tree, u) + [code]
                                  + [-c for c in reversed(_path_word(tree, t))]))
    return words


def equals(g1: SubgroupGraph, g2: SubgroupGraph) -> bool:
    """Same subgroup iff identical canonical folded based core graphs."""
    return g1.adj == g2.adj


def intersect(g1: SubgroupGraph, g2: SubgroupGraph) -> SubgroupGraph:
    """Based fiber product restricted to the component of the basepoints."""
    _, adj = _product(g1.adj, g2.adj, [(0, 0)])
    return SubgroupGraph._from_raw(adj, 0)


def _cyclic_graph(adj: Adj) -> SubgroupGraph:
    """Cyclic core of a connected folded graph: every degree<=1 vertex
    peeled, then numbered from the start whose numbering encodes least (the
    one-vertex graph if nothing is left); the result is its own core."""
    adj = _peel(adj, keep=None)
    core = SubgroupGraph(min((_renumber(adj, list(_bfs(adj, start))) for start in adj),
                             key=_encoding, default=({},)))
    object.__setattr__(core, "_core", core)
    return core


def cyclic_core(g: SubgroupGraph) -> SubgroupGraph:
    """Strip all degree<=1 vertices, basepoint included (built once per g)."""
    if g._core is None:
        object.__setattr__(g, "_core", _cyclic_graph(dict(enumerate(g.adj))))
    return g._core


def reads_closed_path(core: SubgroupGraph, codes: Sequence[int]) -> bool:
    """True iff ``codes`` reads a closed path from some vertex of ``core``
    (the empty word reads one at every vertex)."""
    adj = core.adj
    for start in range(len(adj)):
        v = start
        for code in codes:
            v = adj[v].get(code)
            if v is None:
                break
        else:
            if v == start:
                return True
    return False


def is_conjugate_into(w: Word, g: SubgroupGraph) -> bool:
    """True iff the cyclic reduction of w reads a closed path somewhere in
    the cyclic core of g."""
    return reads_closed_path(cyclic_core(g), cyclic_reduce(w)[0].letters)


def _cyclic_product(c1: SubgroupGraph, c2: SubgroupGraph) -> Adj:
    """Peeled fiber product of two cyclic cores over all vertex pairs: the
    product walk starts from every pair in row-major order, so the pair
    (v1, v2) is numbered v1 * |c2| + v2.  A cyclically reduced word reads a
    closed path in it iff it reads one in each core."""
    pairs = [(v1, v2) for v1 in range(c1.num_vertices) for v2 in range(c2.num_vertices)]
    return _peel(_product(c1.adj, c2.adj, pairs)[1], keep=None)


def conjugacy_intersection(g1: SubgroupGraph, g2: SubgroupGraph) -> list[ComponentWitness]:
    """Cycle-bearing components of the fiber product of the two cyclic cores
    over all vertex pairs.

    A nontrivial word is conjugate into both g1 and g2 iff it is conjugate
    into the subgroup of some returned component.
    """
    adj = _cyclic_product(cyclic_core(g1), cyclic_core(g2))
    witnesses = []
    remaining = set(adj)
    while remaining:
        comp = _bfs(adj, min(remaining))
        remaining -= comp.keys()
        graph = _cyclic_graph({v: adj[v] for v in comp})
        witnesses.append(ComponentWitness(graph=graph, witness=basis(graph)[0]))
    witnesses.sort(key=lambda cw: _encoding(cw.graph.adj))
    return witnesses


def immerses_into(src: SubgroupGraph, dst: SubgroupGraph) -> bool:
    """True iff a label-preserving graph morphism src -> dst exists.

    Both graphs are folded and src is connected, so the morphism is fixed by
    the image t of vertex 0: it exists iff the product walk from (0, t)
    pairs each vertex of src with one vertex of dst and keeps all its arcs.
    A morphism conjugates every loop of src into dst at once
    (single-conjugator sufficient condition per component).
    """
    for t in range(dst.num_vertices):
        ids, adj = _product(src.adj, dst.adj, [(0, t)])
        if len(ids) == src.num_vertices and all(
                len(adj[i]) == len(src.adj[v]) for (v, _), i in ids.items()):
            return True
    return False


# ---------------------------------------------------------------------------
# Bounded-length enumeration oracle
# ---------------------------------------------------------------------------

Arcs = list[list[tuple[int, int, int]]]


def _distances(arcs: Arcs, start: int) -> list[int]:
    dist = [-1] * len(arcs)
    dist[start] = 0
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for _, _, t in arcs[v]:
            if dist[t] < 0:
                dist[t] = dist[v] + 1
                queue.append(t)
    return dist


def _extend(arcs: Arcs, dist: list[int], max_len: int, found: set[tuple[int, ...]],
            start: int, v: int, path: list[int], first: int) -> None:
    """Record every closed cyclically reduced path of length <= max_len that
    extends ``path`` (start -> v) with no letter ranked below its first one
    (rank ``first``; 0 while the path is empty): each class has a rotation
    that starts at its least letter."""
    depth = len(path) + 1
    back = -path[-1] if path else 0
    for rank_, code, t in arcs[v]:
        if rank_ < first or code == back or depth + dist[t] > max_len:
            continue
        path.append(code)
        if t == start and path[0] != -code:
            found.add(tuple(path))
        if depth < max_len:
            _extend(arcs, dist, max_len, found, start, t, path, first or rank_)
        path.pop()


def enumerate_cyclic_classes(core: SubgroupGraph, max_len: int,
                             other: Optional[SubgroupGraph] = None) -> set[CyclicWord]:
    """All nontrivial conjugacy classes of cyclically reduced length <= max_len
    whose class meets the subgroups carried by ``core`` (i.e. cyclic words
    readable as closed paths in the core), up to rotation.

    With ``other``, only the classes readable in both cores: one walk over
    their peeled product, equal to the intersection of the two class sets.
    """
    adj = dict(enumerate(core.adj)) if other is None else _cyclic_product(core, other)
    index = {v: i for i, v in enumerate(adj)}
    arcs = [sorted((letter_key(code), code, index[t]) for code, t in row.items())
            for row in adj.values()]
    found: set[tuple[int, ...]] = set()
    for start in range(len(arcs)):
        _extend(arcs, _distances(arcs, start), max_len, found, start, start, [], 0)
    return {CyclicWord(path) for path in found}
