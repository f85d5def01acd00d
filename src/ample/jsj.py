"""Catalog of explicit graphs of groups: cyclic splittings with rigid and
surface-type vertices, plus extraction of algebraic-closure data from them.

The catalog entries are constructed programmatically, so a new
decomposition needs a new constructor.  ``serialize`` (a flat text format,
one record per vertex / edge) and ``to_dot`` are output formats only:
nothing parses them back.  The splitting property itself is catalog data:
``validate`` checks the necessary structural conditions (connectivity, Euler
bookkeeping, containments, surface rank formula, root closure) but does not
derive the decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .sequence import commutator_chain, witness
from .stallings import SubgroupGraph, build_core, contains, rank
from .words import MAX_WORD_LETTERS, Word, commutator, format_word, primitive_root, relabel


@dataclass(frozen=True)
class SurfaceData:
    genus: int
    boundary_components: int


@dataclass(frozen=True)
class VertexGroup:
    id: str
    kind: str  # "rigid" | "surface"
    generators: tuple[Word, ...]
    surface: Optional[SurfaceData] = None

    def __post_init__(self):
        if self.kind not in ("rigid", "surface"):
            raise ValueError(f"unknown vertex kind {self.kind!r}")
        if self.kind == "surface" and self.surface is None:
            raise ValueError("surface vertex needs genus/boundary data")


@dataclass(frozen=True)
class EdgeGroup:
    endpoints: tuple[str, str]
    generator: Word


@dataclass(frozen=True)
class GraphOfGroups:
    ambient_rank: int
    vertices: tuple[VertexGroup, ...]
    edges: tuple[EdgeGroup, ...]
    relative_to: tuple[Word, ...]
    # True when the decomposed group is the full free group on e1..e<rank>;
    # degenerate acl entries decompose a proper subgroup instead.
    standard_basis_ambient: bool = True

    def vertex(self, vid: str) -> VertexGroup:
        for v in self.vertices:
            if v.id == vid:
                return v
        raise KeyError(vid)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# Catalog constructors
# ---------------------------------------------------------------------------

def _cap_rigid_letters(count: int) -> None:
    """Refuse an entry whose rigid generators would hold more than
    MAX_WORD_LETTERS letters, before any of them is built."""
    if count > MAX_WORD_LETTERS:
        raise ValueError(f"catalog entry needs {count} rigid-generator letters, "
                         f"more than {MAX_WORD_LETTERS}")


def _witness_letters(i: int) -> tuple[int, int]:
    """Rigid-generator letters of witness_jsj_left(i) and witness_jsj_right(i):
    a_0..a_i, and a_0..a_(i-1) then a_(i+1), with |a_j| = 4j + 1."""
    return (i + 1) * (2 * i + 1), i * (2 * i - 1) + 4 * i + 5


def cap_witness_entries(i: int) -> None:
    """Refuse i as witness_jsj_left(i) and witness_jsj_right(i) would, without
    building either; both counts grow with i."""
    for count in _witness_letters(i):
        _cap_rigid_letters(count)


def example_jsj(n: int) -> GraphOfGroups:
    """Splitting of the rank-2n free group relative to the single commutator
    product [e1,e2]...[e(2n-1),e(2n)]: one surface vertex (genus n, one
    boundary component) amalgamated to a cyclic rigid vertex over that word."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _cap_rigid_letters(4 * n)
    product = relabel(commutator_chain(n), -1)
    surface_gens = tuple(Word((k,)) for k in range(1, 2 * n + 1))
    vertices = (
        VertexGroup(id="r0", kind="rigid", generators=(product,)),
        VertexGroup(id="s0", kind="surface", generators=surface_gens,
                    surface=SurfaceData(genus=n, boundary_components=1)),
    )
    edges = (EdgeGroup(endpoints=("r0", "s0"), generator=product),)
    return GraphOfGroups(ambient_rank=2 * n, vertices=vertices, edges=edges,
                         relative_to=(product,))


def _rigid_with_tori(rigid_gens: tuple[Word, ...],
                     tori: int) -> tuple[list[VertexGroup], list[EdgeGroup]]:
    """A rigid vertex r0 on ``rigid_gens`` and once-punctured-torus vertices
    s1..s<tori>, s_j on <e(2j), e(2j+1)> glued to r0 over [e(2j), e(2j+1)]."""
    vertices = [VertexGroup(id="r0", kind="rigid", generators=rigid_gens)]
    edges = []
    for j in range(1, tori + 1):
        x, y = Word((2 * j,)), Word((2 * j + 1,))
        vertices.append(VertexGroup(id=f"s{j}", kind="surface", generators=(x, y),
                                    surface=SurfaceData(genus=1, boundary_components=1)))
        edges.append(EdgeGroup(endpoints=("r0", f"s{j}"), generator=commutator(x, y)))
    return vertices, edges


def witness_jsj_left(i: int) -> GraphOfGroups:
    """Splitting of the rank-(2i+1) free group relative to <a0,...,ai>:
    a rigid vertex on the witness words with i once-punctured-torus vertices
    <e(2j), e(2j+1)> glued over their boundary commutators."""
    if i < 1:
        raise ValueError("i must be >= 1")
    _cap_rigid_letters(_witness_letters(i)[0])
    rigid_gens = tuple(witness(j) for j in range(i + 1))
    vertices, edges = _rigid_with_tori(rigid_gens, i)
    return GraphOfGroups(ambient_rank=2 * i + 1, vertices=tuple(vertices),
                         edges=tuple(edges), relative_to=rigid_gens)


def witness_jsj_right(i: int) -> GraphOfGroups:
    """Splitting of the rank-(2i+3) free group relative to
    <a0,...,a(i-1),a(i+1)>: a rigid vertex on those words, i-1 once-punctured
    tori, and one genus-2 once-punctured surface vertex on
    e(2i)..e(2i+3) glued over [e(2i),e(2i+1)][e(2i+2),e(2i+3)]."""
    if i < 1:
        raise ValueError("i must be >= 1")
    _cap_rigid_letters(_witness_letters(i)[1])
    rigid_gens = tuple(witness(j) for j in range(i)) + (witness(i + 1),)
    vertices, edges = _rigid_with_tori(rigid_gens, i - 1)
    big_gens = tuple(Word((k,)) for k in range(2 * i, 2 * i + 4))
    vertices.append(VertexGroup(id=f"s{i}", kind="surface", generators=big_gens,
                                surface=SurfaceData(genus=2, boundary_components=1)))
    edges.append(EdgeGroup(endpoints=("r0", f"s{i}"),
                           generator=relabel(commutator_chain(2), 2 * i - 2)))
    return GraphOfGroups(ambient_rank=2 * i + 3, vertices=tuple(vertices),
                         edges=tuple(edges), relative_to=rigid_gens)


def singleton_jsj(w: Word) -> GraphOfGroups:
    """Degenerate one-vertex entry recording that a cyclic subgroup is its
    own algebraic closure; the decomposed group is the subgroup itself."""
    if not w:
        raise ValueError("singleton entry needs a nontrivial word")
    vertex = VertexGroup(id="r0", kind="rigid", generators=(w,))
    return GraphOfGroups(ambient_rank=1, vertices=(vertex,), edges=(),
                         relative_to=(w,), standard_basis_ambient=False)


# ---------------------------------------------------------------------------
# acl extraction
# ---------------------------------------------------------------------------

def acl_from_catalog(g: GraphOfGroups) -> SubgroupGraph:
    """The Stallings graph of the rigid vertex group containing the words the
    decomposition is relative to.

    In all catalog cases the elliptic abelian neighborhood of that vertex is
    the vertex group itself; ``validate`` asserts the root-closure facts this
    rests on rather than trusting them.
    """
    candidates = [v for v in g.vertices if v.kind == "rigid"]
    for v in candidates:
        core = build_core(v.generators)
        if all(contains(core, w) for w in g.relative_to):
            return core
    raise ValueError("no rigid vertex group contains the relative words")


# ---------------------------------------------------------------------------
# Structural validation
# ---------------------------------------------------------------------------

def validate(g: GraphOfGroups) -> list[CheckResult]:
    """Structural sanity checks; failures are reported as data, not raised."""
    results = []

    ids = [v.id for v in g.vertices]
    adjacency = {vid: set() for vid in ids}
    for e in g.edges:
        a, b = e.endpoints
        if a in adjacency and b in adjacency:
            adjacency[a].add(b)
            adjacency[b].add(a)
    seen = set()
    stack = [ids[0]] if ids else []
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adjacency[v] - seen)
    results.append(CheckResult("connected", seen == set(ids),
                               f"{len(seen)}/{len(ids)} vertices reachable"))

    cores = {v.id: build_core(v.generators) for v in g.vertices}
    euler = sum(rank(core) for core in cores.values()) - len(g.edges)
    results.append(CheckResult(
        "euler", euler == g.ambient_rank,
        f"sum of vertex ranks - edges = {euler}, ambient = {g.ambient_rank}"))

    ok = True
    details = []
    for e in g.edges:
        for vid in e.endpoints:
            if vid not in cores:
                ok = False
                details.append(f"edge endpoint {vid} names no vertex")
            elif not contains(cores[vid], e.generator):
                ok = False
                details.append(f"{format_word(e.generator)} not in vertex {vid}")
    results.append(CheckResult("edge-containment", ok, "; ".join(details)))

    ok = True
    details = []
    for v in g.vertices:
        if v.kind != "surface":
            continue
        want = 2 * v.surface.genus + v.surface.boundary_components - 1
        got = rank(cores[v.id])
        if got != want:
            ok = False
            details.append(f"vertex {v.id}: rank {got} != {want}")
    results.append(CheckResult("surface-rank", ok, "; ".join(details)))

    rigid_cores = [cores[v.id] for v in g.vertices if v.kind == "rigid"]
    ok = all(any(contains(core, w) for core in rigid_cores) for w in g.relative_to)
    results.append(CheckResult("relative-elliptic", ok))

    ok = True
    details = []
    for e in g.edges:
        _, exponent = primitive_root(e.generator)
        if exponent != 1:
            ok = False
            details.append(f"edge word {format_word(e.generator)} is a proper power")
    for v in g.vertices:
        if v.kind != "rigid":
            continue
        for w in v.generators:
            _, exponent = primitive_root(w)
            if exponent != 1:
                ok = False
                details.append(f"rigid generator {format_word(w)} is a proper power")
    results.append(CheckResult("root-closure", ok, "; ".join(details)))

    all_gens = [w for v in g.vertices for w in v.generators]
    union = build_core(all_gens)
    if g.standard_basis_ambient:
        ok = all(contains(union, Word((k,))) for k in range(1, g.ambient_rank + 1))
        detail = "every basis letter generated"
    else:
        ok = rank(union) == g.ambient_rank
        detail = f"union rank {rank(union)} vs ambient {g.ambient_rank}"
    results.append(CheckResult("generation", ok, detail))

    return results


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize(g: GraphOfGroups) -> str:
    lines = [f"graph ambient={g.ambient_rank}"
             + ("" if g.standard_basis_ambient else " subgroup")]
    lines.append("relative: " + "; ".join(format_word(w) for w in g.relative_to))
    for v in g.vertices:
        gens = "; ".join(format_word(w) for w in v.generators)
        if v.kind == "surface":
            lines.append(f"vertex {v.id} surface genus={v.surface.genus} "
                         f"boundary={v.surface.boundary_components} gens: {gens}")
        else:
            lines.append(f"vertex {v.id} rigid gens: {gens}")
    for e in g.edges:
        lines.append(f"edge {e.endpoints[0]} {e.endpoints[1]} gen: "
                     f"{format_word(e.generator)}")
    return "\n".join(lines) + "\n"


def to_dot(g: GraphOfGroups) -> str:
    """Dot-compatible adjacency text for quick visualisation."""
    lines = ["graph decomposition {"]
    for v in g.vertices:
        shape = "box" if v.kind == "rigid" else "ellipse"
        label = f"{v.id} ({v.kind}): " + "; ".join(format_word(w) for w in v.generators)
        lines.append(f'  "{v.id}" [shape={shape}, label="{label}"];')
    for e in g.edges:
        lines.append(f'  "{e.endpoints[0]}" -- "{e.endpoints[1]}" '
                     f'[label="{format_word(e.generator)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
