"""Whitehead automorphisms: orbit minimization, primitivity, basis and
free-factor recognition.

A cut-type automorphism is given by a multiplier letter x and a letter set S
with x in S and x^-1 not in S; it fixes x and sends any other letter y to
(x^-1 if y^-1 in S) y (x if y in S).  Permutation-type automorphisms are
signed permutations of the basis; they never change a length.

``minimize`` finds the best cut without enumerating cuts.  A linear word
w = y1..yk is read as the cyclic word w z, with z a fresh letter that every
cut fixes; its Whitehead graph has one edge {y_i, y_(i+1)^-1} per junction,
plus {yk, z^-1} and {z, y1^-1}.  Under the cut (S, x) the length of w
changes by cap(S, S^c) - deg(x) in that graph (Whitehead 1936; Gersten,
Bull. AMS 1984), so the best cut with multiplier x is a minimum cut
separating x from {x^-1, z, z^-1}: one small unit-capacity max-flow per
letter.  Greedy descent applies, each round, the cut with the greatest
strict reduction, and stops when no letter has a positive gain; that is the
peak-reduction certificate that the total is minimal in the orbit.

``enumerate_whitehead_autos`` streams every cut (identities removed) and the
signed-permutation generators in a fixed order; it is the brute-force
reference the flow engine is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .stallings import basis as core_basis, build_core
from .words import Word, letter_key

Table = tuple[tuple[int, ...], ...]


class RankMismatchError(ValueError):
    """A word uses generator indices beyond the declared rank."""


def _letters_in_order(rank: int) -> list[int]:
    out = []
    for k in range(1, rank + 1):
        out.extend((k, -k))
    return out


class WhiteheadAut:
    """One Whitehead automorphism of a fixed finite rank."""

    __slots__ = ("rank", "kind", "multiplier", "subset", "mapping", "_table")

    def __init__(self, rank: int, kind: str, multiplier: Optional[int] = None,
                 subset: Optional[frozenset[int]] = None,
                 mapping: Optional[tuple[int, ...]] = None):
        if kind == "cut":
            if multiplier is None or subset is None:
                raise ValueError("cut automorphism needs multiplier and subset")
            if multiplier not in subset or -multiplier in subset:
                raise ValueError("subset must contain the multiplier and not its inverse")
            if any(c == 0 or abs(c) > rank for c in subset):
                raise ValueError(f"subset letters must lie in ±1..±{rank}")
            table = self._cut_table(rank, multiplier, subset)
        elif kind == "perm":
            if mapping is None or len(mapping) != rank:
                raise ValueError("permutation automorphism needs images of e1..e<rank>")
            if sorted(abs(c) for c in mapping) != list(range(1, rank + 1)):
                raise ValueError("mapping is not a signed permutation")
            table = self._perm_table(rank, mapping)
        else:
            raise ValueError(f"unknown kind {kind!r}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "multiplier", multiplier)
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "mapping", mapping)
        object.__setattr__(self, "_table", table)

    def __setattr__(self, name, value):
        raise AttributeError("WhiteheadAut is immutable")

    @staticmethod
    def _cut_table(rank: int, x: int, subset: frozenset[int]) -> Table:
        rows: list[tuple[int, ...]] = [()] * (2 * rank + 1)
        for c in _letters_in_order(rank):
            if c == x or c == -x:
                rows[c + rank] = (c,)
            else:
                prefix = (-x,) if -c in subset else ()
                suffix = (x,) if c in subset else ()
                rows[c + rank] = prefix + (c,) + suffix
        return tuple(rows)

    @staticmethod
    def _perm_table(rank: int, mapping: tuple[int, ...]) -> Table:
        rows: list[tuple[int, ...]] = [()] * (2 * rank + 1)
        for k in range(1, rank + 1):
            img = mapping[k - 1]
            rows[k + rank] = (img,)
            rows[-k + rank] = (-img,)
        return tuple(rows)

    @property
    def table(self) -> Table:
        return self._table

    def descriptor(self) -> dict:
        if self.kind == "cut":
            return {"kind": "cut", "rank": self.rank, "multiplier": self.multiplier,
                    "subset": sorted(self.subset, key=letter_key)}
        return {"kind": "perm", "rank": self.rank, "mapping": list(self.mapping)}

    @staticmethod
    def from_descriptor(d: dict) -> "WhiteheadAut":
        if d["kind"] == "cut":
            return WhiteheadAut(d["rank"], "cut", multiplier=d["multiplier"],
                                subset=frozenset(d["subset"]))
        return WhiteheadAut(d["rank"], "perm", mapping=tuple(d["mapping"]))

    def __eq__(self, other) -> bool:
        return (isinstance(other, WhiteheadAut)
                and self.descriptor() == other.descriptor())

    def __hash__(self) -> int:
        return hash(str(self.descriptor()))

    def __repr__(self) -> str:
        if self.kind == "cut":
            subset = " ".join(f"e{c}" if c > 0 else f"E{-c}"
                              for c in sorted(self.subset, key=letter_key))
            mult = f"e{self.multiplier}" if self.multiplier > 0 else f"E{-self.multiplier}"
            return f"WhiteheadAut(cut x={mult} S={{{subset}}})"
        return f"WhiteheadAut(perm {self.mapping})"


def enumerate_whitehead_autos(rank: int) -> Iterator[WhiteheadAut]:
    """Stream all cut-type automorphisms (identities removed) followed by the
    signed-permutation generators (inversions, then transpositions)."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    letters = _letters_in_order(rank)
    for x in letters:
        others = [c for c in letters if c != x and c != -x]
        for mask in range(1, 1 << len(others)):
            subset = frozenset([x] + [c for i, c in enumerate(others) if mask >> i & 1])
            yield WhiteheadAut(rank, "cut", multiplier=x, subset=subset)
    for k in range(1, rank + 1):
        mapping = tuple(-k if j == k else j for j in range(1, rank + 1))
        yield WhiteheadAut(rank, "perm", mapping=mapping)
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            mapping = tuple(j if t == i else i if t == j else t
                            for t in range(1, rank + 1))
            yield WhiteheadAut(rank, "perm", mapping=mapping)


def _check_rank(words: Sequence[Word], rank: int) -> None:
    for w in words:
        if w.max_index() > rank:
            raise RankMismatchError(
                f"word {w} uses index {w.max_index()} beyond rank {rank}")


def _apply_codes(table: Table, rank: int, codes: Sequence[int]) -> list[int]:
    out: list[int] = []
    for c in codes:
        for d in table[c + rank]:
            if out and out[-1] == -d:
                out.pop()
            else:
                out.append(d)
    return out


def apply(aut: WhiteheadAut, w: Word) -> Word:
    """Reduced image of w under the automorphism."""
    _check_rank([w], aut.rank)
    return Word(_apply_codes(aut.table, aut.rank, w.letters))


@dataclass(frozen=True)
class MinimizationTrace:
    """Audit trail of a greedy Whitehead descent."""

    start: tuple[Word, ...]
    end: tuple[Word, ...]
    automorphisms_applied: tuple[WhiteheadAut, ...]
    total_lengths: tuple[int, ...]

    @property
    def minimal_total(self) -> int:
        return self.total_lengths[-1]

    def to_dict(self) -> dict:
        return {
            "start": [str(w) for w in self.start],
            "end": [str(w) for w in self.end],
            "automorphisms": [a.descriptor() for a in self.automorphisms_applied],
            "total_lengths": list(self.total_lengths),
        }


def replay(trace: MinimizationTrace) -> tuple[Word, ...]:
    """Re-apply the recorded automorphisms to the start tuple."""
    current = trace.start
    for aut in trace.automorphisms_applied:
        current = tuple(apply(aut, w) for w in current)
    return current


def _whitehead_graph(words: Sequence[Sequence[int]], rank: int) -> list[dict[int, int]]:
    """Edge multiplicities of the Whitehead graph of the cyclic words w z.

    Letter c is vertex c + rank; z and z^-1 share the vertex ``rank`` (the
    slot of the absent code 0), since every cut puts both on the sink side.
    """
    adj: list[dict[int, int]] = [{} for _ in range(2 * rank + 1)]

    def join(u: int, v: int) -> None:
        adj[u][v] = adj[u].get(v, 0) + 1
        adj[v][u] = adj[v].get(u, 0) + 1

    for codes in words:
        if not codes:
            continue
        prev = rank
        for c in codes:
            join(prev, rank - c)
            prev = rank + c
        join(prev, rank)
    return adj


def _min_cut(adj: list[dict[int, int]], source: int,
             sinks: tuple[int, ...]) -> tuple[int, set[int]]:
    """Max-flow value from source to the merged sinks, and the source side
    of the minimum cut (the vertices the final residual graph reaches)."""
    residual = [dict(row) for row in adj]
    flow = 0
    while True:
        parent = {source: source}
        queue = [source]
        found = None
        for u in queue:
            for v, cap in residual[u].items():
                if cap and v not in parent:
                    parent[v] = u
                    if v in sinks:
                        found = v
                        break
                    queue.append(v)
            if found is not None:
                break
        if found is None:
            return flow, set(parent)
        path = []
        v = found
        while v != source:
            u = parent[v]
            path.append((u, v))
            v = u
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        flow += push


def _best_cut(words: Sequence[Sequence[int]], rank: int) -> Optional[WhiteheadAut]:
    """The cut with the greatest strict total-length reduction, or None.

    Ties go to the first multiplier in letter order (e1, E1, e2, ...); the
    subset is the source side of that multiplier's minimum cut.
    """
    adj = _whitehead_graph(words, rank)
    best_gain = 0
    best: Optional[tuple[int, set[int]]] = None
    for x in _letters_in_order(rank):
        source = rank + x
        degree = sum(adj[source].values())
        if degree <= best_gain:
            continue
        flow, side = _min_cut(adj, source, (rank, rank - x))
        if degree - flow > best_gain:
            best_gain = degree - flow
            best = (x, side)
    if best is None:
        return None
    x, side = best
    return WhiteheadAut(rank, "cut", multiplier=x,
                        subset=frozenset(v - rank for v in side))


def minimize(words: Sequence[Word], rank: int) -> MinimizationTrace:
    """Greedy descent to the minimal total length in the Aut(F_rank)-orbit.

    Each round solves one minimum cut per multiplier letter on the Whitehead
    graph of the tuple and applies the cut with the greatest strict length
    reduction; on a tie, the first multiplier in letter order (e1, E1, e2,
    ...) wins.  At the stopping point no Whitehead automorphism shortens the
    tuple, which certifies minimality.  Descent stops early when the total
    reaches the arithmetic floor of one letter per word.
    """
    if not words:
        raise ValueError("minimize needs a nonempty tuple of words")
    _check_rank(words, rank)
    start = tuple(Word(w.letters) for w in words)
    current: list[tuple[int, ...]] = [w.letters for w in words]
    total = sum(len(c) for c in current)
    applied: list[WhiteheadAut] = []
    lengths = [total]
    floor = sum(1 for c in current if c)
    while total > floor:
        aut = _best_cut(current, rank)
        if aut is None:
            break
        current = [tuple(_apply_codes(aut.table, rank, codes)) for codes in current]
        shorter = sum(len(c) for c in current)
        if shorter >= total:
            raise RuntimeError(f"{aut!r} does not shorten a tuple of total {total}")
        total = shorter
        applied.append(aut)
        lengths.append(total)
    end = tuple(Word(codes) for codes in current)
    return MinimizationTrace(start=start, end=end,
                             automorphisms_applied=tuple(applied),
                             total_lengths=tuple(lengths))


def is_primitive(w: Word, rank: int) -> bool:
    """True iff w belongs to some basis of F_rank.

    The identity word is non-primitive by convention.
    """
    if not w:
        return False
    return minimize([w], rank).minimal_total == 1


def is_basis(words: Sequence[Word], rank: int) -> bool:
    """True iff the tuple is a basis of F_rank.

    A generating set of full size is a basis (free groups are Hopfian), so it
    suffices that the folded core is the one-vertex graph carrying every
    generator e1..e<rank> as a loop.
    """
    if len(words) != rank:
        return False
    core = build_core(words)
    if core.num_vertices != 1:
        return False
    loops = {abs(code) for code in core.adj[0]}
    return loops == set(range(1, rank + 1))


def is_free_factor_tuple(words: Sequence[Word], rank: int) -> bool:
    """True iff the subgroup generated by the tuple is a free factor of F_rank.

    The input is first normalised to a basis of the subgroup it generates;
    the tuple generates a free factor iff Whitehead descent carries it to a
    tuple of distinct basis letters (total length == tuple size).
    """
    _check_rank(words, rank)
    normalized = core_basis(build_core(words))
    if not normalized:
        return True
    trace = minimize(normalized, rank)
    if trace.minimal_total != len(normalized):
        return False
    indices = [w.letters[0] for w in trace.end]
    return len({abs(c) for c in indices}) == len(indices)
