"""Folded core graphs for finitely generated subgroups of free groups.

A subgroup graph is stored as a tuple of per-vertex adjacency dicts:
``adj[v][code] == w`` means an edge from v to w reading the letter ``code``
(signed int as in :mod:`ample.words`); the reverse arc ``adj[w][-code] == v``
is always present, and each row lists its codes in ``letter_key`` order.
Graphs are folded, connected, canonically numbered by a BFS from the
basepoint (vertex 0) that walks the rows as stored, so two graphs represent
the same subgroup iff their adjacency tuples are equal.  Each path is read
along the arcs already folded and only its unread part added (Stallings).

A cyclic core is a :class:`SubgroupGraph` too: every vertex has degree >= 2,
and it is based at the vertex whose BFS numbering encodes least, so two
nontrivial subgroups are conjugate iff their cyclic cores' tuples are equal.
The trivial group's cyclic core is the one-vertex graph ``({},)``.  Conjugacy
questions read folded graphs whole: hairs (trees off the cyclic core) carry no
closed cyclically reduced path, as a reduced path entering a tree cannot come
back, and a reduced path in a folded product projects to one in each factor.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

from .words import Word, cyclic_reduce, letter_key

Adj = dict[int, dict[int, int]]
Rows = Sequence[dict[int, int]] | Adj   # adjacency rows of a tuple or a raw graph


# ---------------------------------------------------------------------------
# Folding
# ---------------------------------------------------------------------------

def _fold(named: int,
          paths: Iterable[tuple[int, Sequence[int], int]]) -> tuple[list[int], Rows]:
    """Fold the paths (start, codes, end) between the named vertices
    0..named-1, which the paths must connect; returns (each named vertex's
    number, the canonical adjacency tuple based at named vertex 0).

    Each path is read forward from its start, then backward from its end,
    along the arcs already there; only the unread middle gets fresh
    vertices.  Vertices merge (and the folds cascade) only where the reads
    meet: the middle is empty, or start = end and the middle reads
    c ... c^-1, so its last arc clashes with its first.  One BFS from vertex
    0 resolves the rows, sorts them by ``letter_key`` (the only row sort)
    and numbers them as ``_renumber`` would."""
    adj: list[dict[int, int]] = [{} for _ in range(named)]
    parent = list(range(named))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    def merge(a: int, b: int) -> None:
        pending = [(a, b)]
        while pending:
            a, b = pending.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if len(adj[a]) < len(adj[b]):
                a, b = b, a
            parent[b] = a
            row = adj[a]
            for code, t in adj[b].items():
                cur = row.setdefault(code, t)
                if cur != t:
                    pending.append((cur, t))
            adj[b] = {}

    for start, codes, end in paths:
        i, j = 0, len(codes)
        u, v = find(start), find(end)
        while i < j and (t := adj[u].get(codes[i])) is not None:
            u = t if parent[t] == t else find(t)
            i += 1
        while j > i and (t := adj[v].get(-codes[j - 1])) is not None:
            v = t if parent[t] == t else find(t)
            j -= 1
        if i == j:
            merge(u, v)
            continue
        for code in codes[i:j - 1]:
            w = len(adj)
            adj[u][code] = w
            adj.append({-code: u})
            parent.append(w)
            u = w
        code = codes[j - 1]
        adj[u][code] = v
        first = adj[v].setdefault(-code, u)
        if first != u:
            merge(first, u)
    root = [v if p == v else find(v) for v, p in enumerate(parent)]
    pos, order, rows = {root[0]: 0}, [root[0]], []
    for v in order:   # order grows as vertices are met
        row, numbered = adj[v], {}
        for code in sorted(row, key=letter_key):
            t = root[row[code]]
            if t not in pos:
                pos[t] = len(order)
                order.append(t)
            numbered[code] = pos[t]
        rows.append(numbered)
    return [pos[v] for v in root[:named]], tuple(rows)


def _peel(adj: Adj, keep: Optional[int]) -> Adj:
    """Strip degree<=1 vertices (all but ``keep``, if given); rows keep their order."""
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
    """Breadth-first search from ``start`` taking each row's arcs as stored
    (letter order); maps every reached vertex, in visiting order, to its tree
    arc (parent, code), or to None for ``start`` itself."""
    tree: dict[int, Optional[tuple[int, int]]] = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for code, t in adj[u].items():
            if t not in tree:
                tree[t] = (u, code)
                queue.append(t)
    return tree


def _encoding(adj: Sequence[dict[int, int]]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Hashable, totally ordered form of a renumbered adjacency tuple."""
    # Sorted by code, not as stored: the hash must agree with the order-blind
    # ``__eq__``, and this order picks a cyclic core's start, which reports name.
    return tuple(tuple(sorted(r.items())) for r in adj)


def _renumber(adj: Rows, start: int) -> tuple[dict[int, int], ...]:
    """Adjacency tuple of the vertices reached from ``start``, numbered in
    one pass in the order a BFS walking the rows as stored meets them."""
    pos = {start: 0}
    order = [start]
    for v in order:   # order grows as vertices are met
        for t in adj[v].values():
            if t not in pos:
                pos[t] = len(order)
                order.append(t)
    return tuple([{code: pos[t] for code, t in adj[v].items()} for v in order])


# ---------------------------------------------------------------------------
# Graph classes
# ---------------------------------------------------------------------------

class SubgroupGraph:
    """Folded based core graph; basepoint 0; canonical numbering; rows in letter order.

    Cyclic cores are instances too (based at their canonical start, their
    own cyclic core); false iff vertex 0 has no arc, i.e. the trivial group.
    Conjugacy reads ``adj`` hairs and all: no cyclically reduced loop enters one.
    """

    __slots__ = ("adj",)

    adj: tuple[dict[int, int], ...]

    def __init__(self, adj: tuple[dict[int, int], ...]):
        object.__setattr__(self, "adj", adj)

    def __setattr__(self, name, value):
        raise AttributeError("SubgroupGraph is immutable")

    @staticmethod
    def _from_raw(adj: Adj, base: int) -> "SubgroupGraph":
        """Canonical form of a connected folded graph based at ``base``."""
        return SubgroupGraph(_renumber(_peel(adj, keep=base), base))

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


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _product(adj1: Rows, adj2: Rows,
             starts: Iterable[tuple[int, int]]) -> tuple[dict[tuple[int, int], int], Adj]:
    """Fiber product of two folded graphs over the vertex pairs reachable from
    ``starts``, each pair numbered in visiting order, ``starts`` first;
    returns (pair -> number, adjacency over the numbers), rows in adj1's order."""
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
    """Folded based core graph of the subgroup generated by the given words,
    numbered by ``_fold``.  Nothing is peeled: every vertex but the basepoint
    lies on the image of a freely reduced word, a reduced path in a folded
    graph, so has degree >= 2."""
    return SubgroupGraph(_fold(1, [(0, w.letters, 0) for w in generators])[1])


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
    s -> t, the k loops at t and a b1 path f -> t (an empty b1 or b2 path
    merges its ends); so it holds iff the product of that graph with the
    core of <h_gens> joins (0, s) to (0, f).
    """
    t, s, f = 0, 1, 2
    pos, coset = _fold(3, [(s, b2.letters, t), (f, b1.letters, t),
                           *((t, w.letters, t) for w in k_gens)])
    reached, _ = _product(build_core(h_gens).adj, coset, [(0, pos[s])])
    return (0, pos[f]) in reached


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
        for code, t in row.items():
            if code > 0 and tree[t] != (u, code) and tree[u] != (t, -code):
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


def _first_row(row: dict[int, int], start: int) -> tuple[tuple[int, int], ...]:
    """Row 0 of the ``_encoding`` of the numbering from ``start``, read off
    its own arcs: a loop maps to 0, other targets to 1, 2, ... in stored row
    order (as ``_bfs`` meets them), sorted by code."""
    ids = {start: 0}
    for t in row.values():
        ids.setdefault(t, len(ids))
    return tuple(sorted((code, ids[t]) for code, t in row.items()))


def _cyclic_graph(adj: Adj) -> SubgroupGraph:
    """Cyclic core of a connected folded graph with no degree<=1 vertex,
    numbered from the start whose numbering encodes least (one vertex if empty).

    ``_encoding`` compares row 0 first, so only the starts whose first row
    is least can win, and only they are numbered in full."""
    firsts = {start: _first_row(row, start) for start, row in adj.items()}
    least = min(firsts.values(), default=None)
    return SubgroupGraph(min((_renumber(adj, start)
                              for start, first in firsts.items() if first == least),
                             key=_encoding, default=({},)))


def cyclic_core(g: SubgroupGraph) -> SubgroupGraph:
    """Strip all degree<=1 vertices, basepoint included; this loses no closed
    cyclically reduced path, as a reduced path entering a tree cannot return."""
    return _cyclic_graph(_peel(dict(enumerate(g.adj)), keep=None))


def reads_closed_path(g: SubgroupGraph, codes: Sequence[int]) -> bool:
    """True iff ``codes`` reads a closed path from some vertex of ``g``
    (the empty word reads one at every vertex)."""
    adj = g.adj
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
    """True iff the cyclic reduction of w reads a closed path in g, which lies in
    its cyclic core: a reduced path entering a hair (a tree) cannot come back."""
    return reads_closed_path(g, cyclic_reduce(w)[0].letters)


def conjugacy_intersection(g1: SubgroupGraph, g2: SubgroupGraph) -> list[SubgroupGraph]:
    """Cycle-bearing components of the fiber product of the two cyclic cores
    over all vertex pairs, each numbered as its own cyclic core.

    A nontrivial word is conjugate into both g1 and g2 iff it is conjugate
    into the subgroup of some returned component: a cyclically reduced word
    reads a closed path in the peeled product iff it reads one in each core.
    The product of g1 and g2 themselves peels to the same graph: a reduced
    path in it projects to one in each, which cannot enter a hair of either.
    """
    pairs = [(v1, v2) for v1 in range(g1.num_vertices) for v2 in range(g2.num_vertices)]
    adj = _peel(_product(g1.adj, g2.adj, pairs)[1], keep=None)
    components = []
    remaining = set(adj)
    while remaining:
        comp = _bfs(adj, min(remaining))
        remaining -= comp.keys()
        components.append(_cyclic_graph({v: adj[v] for v in comp}))
    components.sort(key=lambda graph: _encoding(graph.adj))
    return components


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

def _extend(arcs: list[list[tuple[int, int, int]]], dist: list[int], max_len: int,
            found: set[tuple[int, ...]], start: int, v: int, path: list[int],
            ranks: list[int], period: int) -> None:
    """Record every closed cyclically reduced path of length <= max_len that
    extends ``path`` (start -> v, letter ranks ``ranks``) and is its own
    least rotation.

    The path is kept a prenecklace (Fredricksen-Kessler-Maiorana): a letter
    ranked below the one ``period`` places back is skipped, and one ranked
    above it makes the whole path the new period.  A prenecklace is its
    least rotation iff its period divides its length, so each class comes
    out once per start that reads it, as its least rotation."""
    depth = len(path) + 1
    back = -path[-1] if path else 0
    least = ranks[-period] if path else 0
    for rank_, code, t in arcs[v]:
        if rank_ < least or code == back or depth + dist[t] > max_len:
            continue
        next_period = depth if rank_ > least else period
        path.append(code)
        ranks.append(rank_)
        if t == start and depth % next_period == 0 and path[0] != -code:
            found.add(tuple(path))
        if depth < max_len:
            _extend(arcs, dist, max_len, found, start, t, path, ranks, next_period)
        path.pop()
        ranks.pop()


def enumerate_cyclic_classes(core: SubgroupGraph, max_len: int) -> set[tuple[int, ...]]:
    """All nontrivial conjugacy classes of cyclically reduced length <= max_len
    readable as closed paths in ``core``, each as its least rotation under
    ``letter_key`` (``words.least_rotation``); a path is dropped once the BFS
    depth of its end from its start says it cannot close."""
    arcs = [[(letter_key(code), code, t) for code, t in row.items()]
            for row in core.adj]
    found: set[tuple[int, ...]] = set()
    for start in range(len(arcs)):
        dist = [0] * len(arcs)
        for v, arc in _bfs(core.adj, start).items():
            if arc is not None:
                dist[v] = dist[arc[0]] + 1
        _extend(arcs, dist, max_len, found, start, start, [], [], 0)
    return found
