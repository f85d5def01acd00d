"""Whitehead automorphisms: orbit minimization, primitivity, basis and
free-factor recognition.

A cut-type automorphism is given by a multiplier letter x and a letter set S
with x in S and x^-1 not in S; it fixes x and sends any other letter y to
(x^-1 if y^-1 in S) y (x if y in S).

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

A vertex of the graph is a letter code, and z and z^-1 share vertex 0.  Only
the letters the words use are vertices: any other letter has degree 0 and
never gains, so a round costs time and memory in the words, not the rank.

``enumerate_whitehead_autos`` streams every cut (identities removed) in a
fixed order; it is the brute-force reference the flow engine is tested
against.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .stallings import basis as core_basis, build_core
from .words import Word, letter_key


class RankMismatchError(ValueError):
    """A word uses generator indices beyond the declared rank."""


@dataclass(frozen=True)
class WhiteheadAut:
    """The cut automorphism of F_rank with multiplier x and letter set S."""

    rank: int
    multiplier: int
    subset: frozenset[int]

    def __post_init__(self):
        x, subset = self.multiplier, frozenset(self.subset)
        if x not in subset or -x in subset:
            raise ValueError("subset must contain the multiplier and not its inverse")
        if any(c == 0 or abs(c) > self.rank for c in subset):
            raise ValueError(f"subset letters must lie in ±1..±{self.rank}")
        object.__setattr__(self, "subset", subset)

    @cached_property
    def table(self) -> dict[int, tuple[int, ...]]:
        """Images of the letters the cut moves; every other letter is fixed."""
        x, s = self.multiplier, self.subset
        return {y: ((-x,) if -y in s else ()) + (y,) + ((x,) if y in s else ())
                for c in s if c != x for y in (c, -c)}

    def descriptor(self) -> dict:
        return {"kind": "cut", "rank": self.rank, "multiplier": self.multiplier,
                "subset": sorted(self.subset, key=letter_key)}

    @staticmethod
    def from_descriptor(d: dict) -> "WhiteheadAut":
        if d["kind"] != "cut":
            raise ValueError(f"unknown automorphism kind {d['kind']!r}")
        return WhiteheadAut(d["rank"], d["multiplier"], d["subset"])


def enumerate_whitehead_autos(rank: int) -> Iterator[WhiteheadAut]:
    """Stream all cut automorphisms, identities removed: multipliers in
    letter order, then subsets by bit mask over the other letters."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    letters = [c for k in range(1, rank + 1) for c in (k, -k)]
    for x in letters:
        others = [c for c in letters if c != x and c != -x]
        for mask in range(1, 1 << len(others)):
            subset = frozenset([x] + [c for i, c in enumerate(others) if mask >> i & 1])
            yield WhiteheadAut(rank, x, subset)


def _check_rank(words: Sequence[Word], rank: int) -> None:
    for w in words:
        if w.max_index() > rank:
            raise RankMismatchError(
                f"word {w} uses index {w.max_index()} beyond rank {rank}")


def _image(aut: WhiteheadAut, w: Word) -> Word:
    """``apply`` without its rank check, for callers that made it."""
    return Word([d for c in w.letters for d in aut.table.get(c, (c,))])


def apply(aut: WhiteheadAut, w: Word) -> Word:
    """Reduced image of w under the automorphism."""
    _check_rank([w], aut.rank)
    return _image(aut, w)


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


def _whitehead_graph(words: Sequence[Word]) -> dict[int, dict[int, int]]:
    """Edge multiplicities of the Whitehead graph of the cyclic words w z.

    A vertex is a letter code: letter c is vertex c, and z and z^-1 share
    vertex 0 (no letter's code), since every cut puts both on the sink side.
    Only the letters the words use are vertices.
    """
    adj: defaultdict[int, dict[int, int]] = defaultdict(dict)
    for w in words:
        if w:
            path = (0, *w.letters, 0)
            for u, c in zip(path, path[1:]):
                adj[u][-c] = adj[u].get(-c, 0) + 1
                adj[-c][u] = adj[-c].get(u, 0) + 1
    return adj


def _min_cut(adj: dict[int, dict[int, int]], source: int,
             sinks: tuple[int, ...]) -> tuple[int, set[int]]:
    """Max-flow value from source to the merged sinks, and the source side
    of the minimum cut (the vertices the final residual graph reaches)."""
    residual = {v: row.copy() for v, row in adj.items()}
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


def _best_cut(words: Sequence[Word], rank: int) -> Optional[WhiteheadAut]:
    """The cut with the greatest strict total-length reduction, or None.

    Ties go to the first multiplier in letter order (e1, E1, e2, ...); the
    subset is the source side of that multiplier's minimum cut.
    """
    adj = _whitehead_graph(words)
    best_gain = 0
    best: Optional[WhiteheadAut] = None
    for x in sorted((c for c in adj if c), key=letter_key):
        degree = sum(adj[x].values())
        if degree <= best_gain:
            continue
        flow, side = _min_cut(adj, x, (0, -x))
        if degree - flow > best_gain:
            best_gain = degree - flow
            best = WhiteheadAut(rank, x, frozenset(side))
    return best


def minimize(words: Sequence[Word], rank: int) -> MinimizationTrace:
    """Greedy descent to the minimal total length in the Aut(F_rank)-orbit.

    Each round solves one minimum cut per letter the tuple uses on its
    Whitehead graph and applies the cut with the greatest strict length
    reduction; on a tie, the first multiplier in letter order (e1, E1, e2,
    ...) wins.  At the stopping point no Whitehead automorphism shortens the
    tuple, which certifies minimality.  Descent stops early when the total
    reaches the arithmetic floor of one letter per word.
    """
    if not words:
        raise ValueError("minimize needs a nonempty tuple of words")
    _check_rank(words, rank)
    start = tuple(words)
    current = start
    total = sum(len(w) for w in current)
    applied: list[WhiteheadAut] = []
    lengths = [total]
    floor = sum(1 for w in current if w)
    while total > floor:
        aut = _best_cut(current, rank)
        if aut is None:
            break
        current = tuple(_image(aut, w) for w in current)
        shorter = sum(len(w) for w in current)
        if shorter >= total:
            raise RuntimeError(f"{aut!r} does not shorten a tuple of total {total}")
        total = shorter
        applied.append(aut)
        lengths.append(total)
    return MinimizationTrace(start=start, end=current,
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
