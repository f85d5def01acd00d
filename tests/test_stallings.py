import random
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from ample.jsj import acl_from_catalog, witness_jsj_left, witness_jsj_right
from ample.sequence import witness
from ample.stallings import (
    SubgroupGraph,
    _bfs,
    _cyclic_graph,
    _encoding,
    _peel,
    _product,
    _seed_pairs,
    build_core,
    basis,
    conjugacy_intersection,
    contains,
    cyclic_core,
    enumerate_cyclic_classes,
    equals,
    immerses_into,
    in_double_coset,
    intersect,
    is_conjugate_into,
    rank,
    reads_closed_path,
)
from ample.verifier import _conjugacy_part
from ample.words import (
    Word, cyclic_reduce, invert, least_rotation, letter_key, multiply, parse_word)

from conftest import (
    all_reduced_words, naive_products, nonempty_words, random_reduced_word, words)

W = parse_word


def brute_force_cyclic_classes(core, max_len):
    """Every cyclically reduced word of length <= max_len over the core's
    letters that reads a closed path from some vertex, as its least rotation.

    Words are listed by length and a prefix is dropped once it reads no path
    from any vertex, since no extension of it can then read a closed one.
    """
    letters = sorted({code for row in core.adj for code in row})
    classes = set()
    # (word, {(start, end) of every path reading the word})
    frontier = [((), {(v, v) for v in range(core.num_vertices)})]
    for _ in range(max_len):
        nxt = []
        for codes, ends in frontier:
            for c in letters:
                if codes and c == -codes[-1]:
                    continue
                new_ends = {(s, core.adj[e][c]) for s, e in ends if c in core.adj[e]}
                if not new_ends:
                    continue
                new = codes + (c,)
                nxt.append((new, new_ends))
                if new[0] != -new[-1] and any(s == e for s, e in new_ends):
                    classes.add(least_rotation(new))
        frontier = nxt
    return classes


def bfs_immerses_into(src, dst):
    """Reference for ``immerses_into``: try each image of vertex 0 and extend
    the morphism along src's arcs by BFS, failing at the first arc dst
    lacks or the first vertex sent to two places."""
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


def sorting_bfs(adj, start):
    """Reference for ``_bfs``: sorts each row by ``letter_key`` as it pops
    it, where ``_bfs`` takes the stored row order."""
    tree = {start: None}
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


def two_pass_renumber(adj, start):
    """Reference for ``_renumber``: list the BFS order first, then number
    the rows by position in it."""
    order = list(_bfs(adj, start))
    pos = {v: i for i, v in enumerate(order)}
    return tuple({code: pos[t] for code, t in adj[v].items()} for v in order)


def all_starts_cyclic_core(adj):
    """Reference for ``_cyclic_graph``'s numbering: peel, then number from
    every start and keep the least encoding, where ``_cyclic_graph`` numbers
    only the starts whose first row is least."""
    adj = _peel(adj, keep=None)
    return min((two_pass_renumber(adj, start) for start in adj),
               key=_encoding, default=({},))


def core_is_conjugate_into(w, g):
    """Reference for ``is_conjugate_into``: read the cyclic reduction of w
    in the cyclic core of g, where ``is_conjugate_into`` reads g itself."""
    core = SubgroupGraph(all_starts_cyclic_core(dict(enumerate(g.adj))))
    return reads_closed_path(core, cyclic_reduce(w)[0].letters)


def core_conjugacy_intersection(g1, g2):
    """Reference for ``conjugacy_intersection``: the peeled product of the
    two cyclic cores over all vertex pairs, where ``conjugacy_intersection``
    peels the product of g1 and g2 themselves; each component is peeled
    again and numbered from every start."""
    c1, c2 = (SubgroupGraph(all_starts_cyclic_core(dict(enumerate(g.adj))))
              for g in (g1, g2))
    pairs = [(v1, v2) for v1 in range(c1.num_vertices) for v2 in range(c2.num_vertices)]
    adj = _peel(_product(c1.adj, c2.adj, pairs)[1], keep=None)
    components = []
    remaining = set(adj)
    while remaining:
        comp = _bfs(adj, min(remaining))
        remaining -= comp.keys()
        components.append(SubgroupGraph(all_starts_cyclic_core({v: adj[v] for v in comp})))
    return sorted(components, key=lambda graph: _encoding(graph.adj))


def all_pairs_conjugacy_intersection(g1, g2):
    """Reference for the seeded ``conjugacy_intersection``: the same peel,
    components and order, but the product walked from every vertex pair."""
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


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root


def path_arcs(arcs, codes, start, end, next_v):
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


def union_find_fold(num_vertices, arcs):
    """Reference for ``_fold``: every letter gets its own arc between fresh
    vertices, and each arc is added with a union-find merge of the targets
    it clashes with; returns (uf, adjacency), the adjacency keyed by
    representatives, rows in letter order."""
    uf = UnionFind(num_vertices)
    adj = [dict() for _ in range(num_vertices)]
    pending = deque()

    def add_arc(u, code, v):
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
    result = {}
    for v in range(num_vertices):
        if uf.find(v) == v:
            result[v] = {c: uf.find(adj[v][c]) for c in sorted(adj[v], key=letter_key)}
    return uf, result


def union_find_core(generators):
    """Reference for ``build_core``: one fresh vertex per letter, the
    union-find fold, a peel and a two-pass numbering."""
    arcs = []
    next_v = 1
    for w in generators:
        next_v = path_arcs(arcs, w.letters, 0, 0, next_v)
    uf, adj = union_find_fold(next_v, arcs)
    base = uf.find(0)
    return two_pass_renumber(_peel(adj, keep=base), base)


def union_find_double_coset(h_gens, b1, k_gens, b2):
    """Reference for ``in_double_coset``: the coset graph folded by
    ``union_find_fold``, an empty b1 or b2 path replaced by its end t."""
    t, s, f = 0, (1 if b2 else 0), (2 if b1 else 0)
    arcs = []
    next_v = path_arcs(arcs, b2.letters, s, t, 3)
    next_v = path_arcs(arcs, b1.letters, f, t, next_v)
    for w in k_gens:
        next_v = path_arcs(arcs, w.letters, t, t, next_v)
    uf, coset = union_find_fold(next_v, arcs)
    reached, _ = _product(union_find_core(h_gens), coset, [(0, uf.find(s))])
    return (0, uf.find(f)) in reached


@st.composite
def fold_inputs(draw):
    """(h generators, b1, k generators, b2) over rank 1-4: generators may be
    empty, not cyclically reduced (a drawn conjugate), repeated, or
    conjugates of one another; b1 and b2 are often empty, and half the time
    b2 is planted in the double coset."""
    rank_ = draw(st.integers(min_value=1, max_value=4))

    def gens():
        base = draw(st.lists(words(rank_, 6), max_size=4))
        extra = []
        for w in base:
            pick = draw(st.integers(min_value=0, max_value=3))
            if pick == 1:       # a repeat
                extra.append(w)
            elif pick == 2:     # a conjugate, usually not cyclically reduced
                x = draw(words(rank_, 3))
                extra.append(multiply(multiply(x, w), invert(x)))
        return base + extra

    h_gens, k_gens = gens(), gens()
    b1 = draw(st.one_of(st.just(Word()), words(rank_, 6)))
    b2 = draw(st.one_of(st.just(Word()), words(rank_, 6)))
    if h_gens and k_gens and draw(st.booleans()):
        x, y = draw(st.sampled_from(h_gens)), draw(st.sampled_from(k_gens))
        b2 = multiply(multiply(x, b1), y)
    return h_gens, b1, k_gens, b2


@st.composite
def immersion_pairs(draw):
    """(src generators, dst generators) over rank 1-3, 0-3 generators each
    (so either core may be trivial); half the time src is generated by
    products of dst's generators, so that src often immerses."""
    rank_ = draw(st.integers(min_value=1, max_value=3))
    dst = draw(st.lists(words(rank_, 5), max_size=3))
    if dst and draw(st.booleans()):
        factor = st.tuples(st.sampled_from(dst), st.booleans()).map(
            lambda fb: invert(fb[0]) if fb[1] else fb[0])
        products = st.lists(factor, min_size=1, max_size=3).map(
            lambda fs: Word([c for f in fs for c in f.letters]))
        return draw(st.lists(products, max_size=3)), dst
    return draw(st.lists(words(rank_, 5), max_size=3)), dst


@st.composite
def sharing_pairs(draw):
    """(generators 1, generators 2, length bound) over rank 1-4: the second
    tuple shares a drawn prefix of the first, so the two class sets often
    meet; a generator may reduce to the identity, so either core may be
    empty."""
    rank_ = draw(st.integers(min_value=1, max_value=4))
    gens1 = draw(st.lists(words(rank_, 6), min_size=1, max_size=3))
    shared = draw(st.integers(min_value=0, max_value=len(gens1)))
    gens2 = gens1[:shared] + draw(
        st.lists(words(rank_, 6), min_size=0 if shared else 1, max_size=3 - shared))
    return gens1, gens2, draw(st.integers(min_value=1, max_value=7))


@st.composite
def hairy_cases(draw):
    """(generators 1, generators 2, word) over rank 1-4, 0-3 generators
    each.  Half the time a tuple is conjugated by one word of 1-3 letters,
    so that its folded graph has a hair at the basepoint; otherwise each
    generator is, half the time, by its own.  Half the time the word is a
    product of the first tuple's generators conjugated by 0-3 letters, so it
    is conjugate into the first subgroup."""
    rank_ = draw(st.integers(min_value=1, max_value=4))

    def conjugate(x, w):
        return multiply(multiply(x, w), invert(x))

    def gens():
        base = draw(st.lists(words(rank_, 5), max_size=3))
        if draw(st.booleans()):
            x = draw(nonempty_words(rank_, 3))
            return [conjugate(x, w) for w in base]
        return [conjugate(draw(nonempty_words(rank_, 3)), w) if draw(st.booleans()) else w
                for w in base]

    gens1, gens2 = gens(), gens()
    if gens1 and draw(st.booleans()):
        factors = draw(st.lists(st.sampled_from(gens1), min_size=1, max_size=2))
        w = conjugate(draw(words(rank_, 3)), Word([c for f in factors for c in f.letters]))
    else:
        w = draw(words(rank_, 6))
    return gens1, gens2, w


@st.composite
def circle_pairs(draw):
    """(generators 1, generators 2) over rank 1-3: one conjugated power of a
    cyclically reduced word each, the second often of the first's word, so
    the product's components are circles, every vertex of degree exactly 2."""
    rank_ = draw(st.integers(min_value=1, max_value=3))
    cyclic = nonempty_words(rank_, 4).map(lambda w: cyclic_reduce(w)[0].to_word())

    def circle(u):
        x = draw(words(rank_, 2))
        return [multiply(multiply(x, u ** draw(st.integers(1, 3))), invert(x))]

    u = draw(cyclic)
    return circle(u), circle(u if draw(st.booleans()) else draw(cyclic))


@st.composite
def oracle_cases(draw):
    """(generators, length bound) over rank 1-4: 1-3 generators of length <= 6
    and a bound of 1-7."""
    rank_ = draw(st.integers(min_value=1, max_value=4))
    gens = draw(st.lists(words(rank_, 6), min_size=1, max_size=3))
    return gens, draw(st.integers(min_value=1, max_value=7))


def random_subgroup(rng, rank_=2, max_gens=3, max_len=5):
    gens = [random_reduced_word(rng, rank_, rng.randint(1, max_len))
            for _ in range(rng.randint(0, max_gens))]
    return gens, build_core(gens)


class TestBuildAndMembership:
    def test_single_loop(self):
        g = build_core([W("e1")])
        assert g.num_vertices == 1 and rank(g) == 1
        assert contains(g, W("e1 e1")) and not contains(g, W("e2"))

    def test_product_closure(self):
        g = build_core([W("e1 e2"), W("e2")])
        assert contains(g, W("e1"))

    def test_witness_pair_contains_commutator(self):
        g = build_core([witness(0), witness(1)])
        assert rank(g) == 2
        assert contains(g, W("[e2,e3]"))

    def test_first_letter_recovered_from_witness_word(self):
        # a1 = e1 [e2,e3], so e1 = a1 [e3,e2] lands in <e2,e3,e4,e5,a1>;
        # a 5-factor product of the generators exhibits it.
        gens = [W("e2"), W("e3"), W("e4"), W("e5"), witness(1)]
        g = build_core(gens)
        assert contains(g, W("e1"))
        assert W("e1") in naive_products(gens, 5)
        # without the witness word the letter stays out
        without = build_core(gens[:4])
        assert not contains(without, W("e1"))
        assert W("e1") not in naive_products(gens[:4], 6)

    def test_trivial_subgroup(self):
        g = build_core([])
        assert g.num_vertices == 1 and rank(g) == 0
        assert contains(g, Word())
        assert not contains(g, W("e1"))
        assert equals(g, build_core([Word(), Word()]))

    def test_membership_oracle_random(self, rng):
        # products of <= 4 generator factors are all members; membership of
        # short words agrees with exhaustive products of tree-basis factors
        for _ in range(25):
            rank_ = rng.choice((2, 2, 3))
            gens, g = random_subgroup(rng, rank_)
            for p in naive_products(gens, 4):
                assert contains(g, p)
            tree_basis = basis(g)
            max_len = 5
            members = {w for w in naive_products(tree_basis, max_len)
                       if len(w) <= max_len}
            for w in all_reduced_words(rank_, max_len):
                assert contains(g, w) == (w in members)


class TestDoubleCoset:
    def test_examples(self):
        a, b, c = W("e1"), W("e3"), W("e2")
        assert in_double_coset([a], b, [c], W("E1 E1 e3 e2 e2 e2"))
        assert in_double_coset([a], Word(), [c], W("e1 e2"))
        assert not in_double_coset([a], Word(), [c], W("e2 e1"))
        # in <e1, e3 e2 E3> e3, but not in <e1> e3 <e2>
        assert not in_double_coset([a], b, [c], W("e1 e3 e2 E3 e1 e3"))
        assert in_double_coset([], b, [], b)
        assert not in_double_coset([], b, [], W("e3 e3"))
        assert in_double_coset([W("e1"), W("e2")], W("e1"), [], W("E2 E2"))

    def test_trivial_right_factor_is_membership(self, rng):
        for _ in range(100):
            gens = [random_reduced_word(rng, 2, rng.randint(1, 4)) for _ in range(2)]
            w = random_reduced_word(rng, 2, rng.randint(0, 6))
            assert in_double_coset(gens, Word(), [], w) == contains(build_core(gens), w)

    def test_random_against_search(self, rng):
        for _ in range(150):
            hg = [random_reduced_word(rng, 2, rng.randint(1, 3))
                  for _ in range(rng.randint(1, 2))]
            kg = [random_reduced_word(rng, 2, rng.randint(1, 3))
                  for _ in range(rng.randint(1, 2))]
            b1 = random_reduced_word(rng, 2, rng.randint(0, 3))
            hs, ks = sorted(naive_products(hg, 3), key=Word.sort_key), \
                sorted(naive_products(kg, 3), key=Word.sort_key)
            planted = multiply(multiply(rng.choice(hs), b1), rng.choice(ks))
            assert in_double_coset(hg, b1, kg, planted)
            b2 = random_reduced_word(rng, 2, rng.randint(0, 5))
            got = in_double_coset(hg, b1, kg, b2)
            k_core = build_core(kg)
            if any(contains(k_core, multiply(invert(multiply(x, b1)), b2)) for x in hs):
                assert got
            # double cosets partition the group, and inversion swaps the sides
            assert got == in_double_coset(hg, b2, kg, b1)
            assert got == in_double_coset(kg, invert(b1), hg, invert(b2))


class TestReadThenAddFold:
    @given(case=fold_inputs())
    @example(case=([W("e1 e2 E1")], Word(), [], Word()))          # the clash merge
    @example(case=([W("e1 e2"), W("e1 e2")], Word(), [], Word()))  # the read reaches the end
    @example(case=([W("e1")], W("e2"), [W("e1 e2 E1")], W("e1 e2 e2")))  # b1 reads back along b2
    @settings(max_examples=150, deadline=None)
    def test_matches_union_find_fold(self, case):
        h_gens, b1, k_gens, b2 = case
        for gens in (h_gens, k_gens):
            assert build_core(gens).adj == union_find_core(gens)
        assert in_double_coset(h_gens, b1, k_gens, b2) == union_find_double_coset(
            h_gens, b1, k_gens, b2)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_nothing_to_peel(self, data):
        rank_ = data.draw(st.integers(min_value=1, max_value=4))
        g = build_core(data.draw(st.lists(words(rank_, 8), max_size=4)))
        assert all(len(row) >= 2 for row in g.adj[1:])
        assert _peel(dict(enumerate(g.adj)), keep=0) == dict(enumerate(g.adj))


class TestBasisAndRank:
    def test_basis_round_trip_examples(self):
        g = build_core([W("e1"), W("e2")])
        assert equals(build_core(basis(g)), g)
        assert basis(build_core([])) == []
        g2 = build_core([W("e1 e2"), W("e2 e1")])
        b = basis(g2)
        assert len(b) == 2
        assert equals(build_core(b), g2)

    def test_rank_examples(self):
        assert rank(build_core([W("e1")])) == 1
        for i in (1, 2, 3):
            g = build_core([witness(j) for j in range(i + 1)])
            assert rank(g) == i + 1
            assert len(basis(g)) == i + 1
        assert rank(build_core([])) == 0

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_build_core_basis_round_trip(self, data):
        seed = data.draw(st.integers(min_value=0, max_value=10 ** 9))
        rng = random.Random(seed)
        _, g = random_subgroup(rng, rng.choice((2, 3)))
        assert equals(build_core(basis(g)), g)


class TestRowOrder:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_stored_in_letter_order(self, data):
        rank_ = data.draw(st.integers(min_value=1, max_value=4))
        g1, g2 = (build_core(data.draw(st.lists(words(rank_, 8), max_size=4)))
                  for _ in range(2))
        graphs = [g1, g2, intersect(g1, g2), cyclic_core(g1), cyclic_core(g2),
                  *conjugacy_intersection(g1, g2)]
        for g in graphs:
            for row in g.adj:
                assert list(row) == sorted(row, key=letter_key)
            for start in range(g.num_vertices):
                assert list(_bfs(g.adj, start).items()) == list(sorting_bfs(g.adj, start).items())


class TestEquals:
    def test_nielsen_move(self):
        assert equals(build_core([W("e1 e2"), W("e2")]),
                      build_core([W("e1"), W("e2")]))

    def test_proper_subgroup(self):
        assert not equals(build_core([W("e1")]), build_core([W("e1 e1")]))


class TestIntersect:
    def test_basic_example_with_oracle(self):
        g1 = build_core([W("e1"), W("e2")])
        g2 = build_core([W("e2"), W("e3")])
        meet = intersect(g1, g2)
        assert equals(meet, build_core([W("e2")]))
        for w in all_reduced_words(3, 6):
            assert contains(meet, w) == (contains(g1, w) and contains(g2, w))

    def test_idempotence(self, rng):
        for _ in range(10):
            _, g = random_subgroup(rng)
            assert equals(intersect(g, g), g)

    def test_witness_intersection(self):
        h1 = build_core([witness(0), witness(1)])
        h2 = build_core([witness(0), witness(2)])
        assert equals(intersect(h1, h2), build_core([witness(0)]))

    def test_intersection_oracle_random(self, rng):
        for _ in range(30):
            rank_ = rng.choice((2, 2, 3))
            _, g1 = random_subgroup(rng, rank_)
            _, g2 = random_subgroup(rng, rank_)
            meet = intersect(g1, g2)
            for w in all_reduced_words(rank_, 5):
                assert contains(meet, w) == (contains(g1, w) and contains(g2, w))

    def test_hanna_neumann_bound(self, rng):
        for _ in range(60):
            _, g1 = random_subgroup(rng, 2)
            _, g2 = random_subgroup(rng, 2)
            meet = intersect(g1, g2)
            red = lambda g: max(rank(g) - 1, 0)
            assert red(meet) <= 2 * red(g1) * red(g2)


class TestCyclicCore:
    def test_tail_stripped(self):
        core = cyclic_core(build_core([W("e2 e1 E2")]))
        assert core.num_vertices == 1
        assert core.adj[0] == {1: 0, -1: 0}

    def test_wedge(self):
        core = cyclic_core(build_core([W("e1"), W("e2")]))
        assert core.num_vertices == 1 and len(core.adj[0]) == 4

    def test_trivial_empty(self):
        assert not cyclic_core(build_core([]))

    def test_equal_graphs_give_equal_cores(self, rng):
        for _ in range(20):
            _, g = random_subgroup(rng, rng.choice((2, 3)))
            core = cyclic_core(g)
            assert cyclic_core(g) == core
            fresh = SubgroupGraph(tuple(dict(row) for row in g.adj))
            assert cyclic_core(fresh) == core
        with pytest.raises(AttributeError):
            g.adj = ()

    def test_core_is_its_own_core(self, rng):
        trivial = cyclic_core(build_core([]))
        assert trivial.adj == ({},) and cyclic_core(trivial) == trivial
        for _ in range(20):
            _, g = random_subgroup(rng, rng.choice((2, 3)))
            core = cyclic_core(g)
            assert cyclic_core(core) == core
            assert bool(core) == (rank(g) > 0)
        for comp in conjugacy_intersection(build_core([W("e1"), W("e2 e2")]),
                                           build_core([W("e1"), W("e2")])):
            assert cyclic_core(comp) == comp

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_least_first_row_starts_match_all_starts(self, data):
        rank_ = data.draw(st.integers(min_value=1, max_value=4))
        g1, g2 = (build_core(data.draw(st.lists(words(rank_, 8), max_size=4)))
                  for _ in range(2))
        for g in (g1, g2):
            assert cyclic_core(g).adj == all_starts_cyclic_core(dict(enumerate(g.adj)))
        for comp in conjugacy_intersection(g1, g2):
            assert comp.adj == all_starts_cyclic_core(dict(enumerate(comp.adj)))


class TestImmersion:
    def test_examples(self):
        circle = cyclic_core(build_core([W("e1")]))
        trivial = cyclic_core(build_core([]))
        assert immerses_into(cyclic_core(build_core([W("e1 e1")])), circle)
        assert not immerses_into(circle, cyclic_core(build_core([W("e1 e1")])))
        assert not immerses_into(cyclic_core(build_core([W("e1"), W("e2")])), circle)
        assert immerses_into(trivial, circle) and immerses_into(trivial, trivial)
        assert not immerses_into(circle, trivial)

    @given(pair=immersion_pairs())
    @example(pair=([W("e1")], [W("e1 e1")]))          # one vertex would go to two
    @example(pair=([W("e1"), W("e2")], [W("e1")]))    # an arc dst lacks
    @settings(max_examples=200, deadline=None)
    def test_matches_bfs_on_cyclic_cores(self, pair):
        src, dst = (cyclic_core(build_core(gens)) for gens in pair)
        assert immerses_into(src, dst) == bfs_immerses_into(src, dst)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_bfs_on_components(self, data):
        # h1 and h2 share h0's generators, so components often immerse into
        # the cyclic core of h0; each always immerses into both factors
        rank_ = data.draw(st.integers(min_value=1, max_value=3))
        shared = data.draw(st.lists(words(rank_, 5), max_size=2))
        h1, h2 = (build_core(shared + data.draw(st.lists(words(rank_, 5), max_size=2)))
                  for _ in range(2))
        h0_core = cyclic_core(build_core(shared))
        for comp in conjugacy_intersection(h1, h2):
            assert (immerses_into(comp, h0_core)
                    == bfs_immerses_into(comp, h0_core))
            assert immerses_into(comp, cyclic_core(h1))
            assert immerses_into(comp, cyclic_core(h2))


class TestConjugacy:
    def test_is_conjugate_into_examples(self):
        assert is_conjugate_into(W("e2 e1 E2"), build_core([W("e1")]))
        assert not is_conjugate_into(W("e2"), build_core([W("e1")]))
        g = build_core([witness(0), witness(1)])
        assert is_conjugate_into(W("[e2,e3]"), g)

    @given(case=hairy_cases())
    @example(case=([W("e2 e1 E2")], [], W("e1")))          # the loop is off the basepoint
    @example(case=([W("E3 e1 e3")], [W("e1")], W("e1")))   # a hair in one factor only
    @settings(max_examples=300, deadline=None)
    def test_folded_graph_reads_match_cyclic_core_reads(self, case):
        gens1, gens2, w = case
        g1, g2 = build_core(gens1), build_core(gens2)
        for g in (g1, g2):
            assert is_conjugate_into(w, g) == core_is_conjugate_into(w, g)
        assert conjugacy_intersection(g1, g2) == core_conjugacy_intersection(g1, g2)

    def test_conjugacy_intersection_examples(self):
        assert conjugacy_intersection(build_core([W("e1")]),
                                      build_core([W("e2")])) == []
        comps = conjugacy_intersection(build_core([W("e1")]),
                                       build_core([W("e1")]))
        assert len(comps) == 1
        assert equals(comps[0], build_core([W("e1")]))

    def test_witness_components_conjugate_into_h0(self):
        h1 = build_core([witness(0), witness(1)])
        h2 = build_core([witness(0), witness(2)])
        h0 = build_core([witness(0)])
        comps = conjugacy_intersection(h1, h2)
        assert comps
        for comp in comps:
            assert immerses_into(cyclic_core(comp), cyclic_core(h0))
        # bounded-length oracle, L = 8: every common class is an e1-power class
        common = (enumerate_cyclic_classes(cyclic_core(h1), 8)
                  & enumerate_cyclic_classes(cyclic_core(h2), 8))
        for codes in common:
            assert is_conjugate_into(Word(codes), h0)

    def test_conjugacy_oracle_random(self, rng):
        for _ in range(25):
            gens1 = [random_reduced_word(rng, 2, rng.randint(1, 4))
                     for _ in range(rng.randint(1, 2))]
            gens2 = [random_reduced_word(rng, 2, rng.randint(1, 4))
                     for _ in range(rng.randint(1, 2))]
            g1, g2 = build_core(gens1), build_core(gens2)
            comps = conjugacy_intersection(g1, g2)
            bound = 8
            common = (enumerate_cyclic_classes(cyclic_core(g1), bound)
                      & enumerate_cyclic_classes(cyclic_core(g2), bound))
            covered = set()
            for comp in comps:
                covered |= enumerate_cyclic_classes(cyclic_core(comp), bound)
            assert common == covered

    def test_subgroup_classes_covered(self, rng):
        # H <= K: every class of H appears in the conjugacy intersection
        for _ in range(20):
            gens, k_graph = random_subgroup(rng, 2, max_gens=2, max_len=4)
            if not gens:
                continue
            h_words = [multiply(gens[0], g) for g in gens] + [gens[0]]
            h_graph = build_core(h_words)
            comps = conjugacy_intersection(h_graph, k_graph)
            for b in basis(h_graph):
                assert any(is_conjugate_into(b, c) for c in comps)

    def test_enumerate_cyclic_classes_circle(self):
        core = cyclic_core(build_core([W("e1")]))
        classes = enumerate_cyclic_classes(core, 3)
        expected = {(1,), (-1,), (1, 1), (-1, -1), (1, 1, 1), (-1, -1, -1)}
        assert classes == expected

    @given(case=oracle_cases())
    # each of these kills a mutant of the closing-length prune: a table over
    # arcs ranked strictly above the first letter's (e1 e1 and e1 e2 e1 e2
    # reuse it), a walk that stops at its first return to the start (on a
    # rose every arc returns), and the prune depth + close > max_len, which
    # loses every class of length exactly max_len
    @example(case=([W("e1")], 2))                   # the circle on e1
    @example(case=([W("e1"), W("e2")], 4))          # the rose on e1, e2
    @example(case=([W("e1 e2 E1 E2"), W("e1 e1")], 6))
    @settings(max_examples=80, deadline=None)
    def test_enumerate_cyclic_classes_matches_brute_force(self, case):
        gens, max_len = case
        core = cyclic_core(build_core(gens))
        assert (enumerate_cyclic_classes(core, max_len)
                == brute_force_cyclic_classes(core, max_len))

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_enumerated_classes_are_least_rotations(self, data):
        rank_ = data.draw(st.integers(min_value=1, max_value=4))
        gens = data.draw(st.lists(words(rank_, 6), min_size=1, max_size=3))
        max_len = data.draw(st.integers(min_value=1, max_value=7))
        core = cyclic_core(build_core(gens))
        for codes in enumerate_cyclic_classes(core, max_len):
            assert 0 < len(codes) <= max_len
            assert codes == least_rotation(codes)
            assert cyclic_reduce(Word(codes))[0].letters == codes
            assert reads_closed_path(core, codes)

    @given(case=sharing_pairs())
    @example(case=([W("e1")], [], 4))                  # empty second core
    @example(case=([], [W("e1")], 4))                  # empty first core
    # two components, circles of e1 and of e3, with disjoint classes
    @example(case=([W("e1"), W("e2 e3 E2")], [W("e1"), W("e3")], 5))
    @settings(max_examples=80, deadline=None)
    def test_product_walk_matches_intersection(self, case):
        gens1, gens2, max_len = case
        g1, g2 = build_core(gens1), build_core(gens2)
        c1, c2 = cyclic_core(g1), cyclic_core(g2)
        common = (enumerate_cyclic_classes(c1, max_len)
                  & enumerate_cyclic_classes(c2, max_len))
        assert common == (brute_force_cyclic_classes(c1, max_len)
                          & brute_force_cyclic_classes(c2, max_len))
        covered = set().union(*(enumerate_cyclic_classes(comp, max_len)
                                for comp in conjugacy_intersection(g1, g2)))
        assert covered == common
        # the verifier counts the same union; against the trivial group as
        # h0 its cross-check holds iff there is no common class
        _, _, count, oracle_ok = _conjugacy_part(g1, g2, build_core([]), max_len)
        assert count == len(common) and oracle_ok == (not common)

    @given(case=st.one_of(sharing_pairs().map(lambda case: case[:2]),
                          hairy_cases().map(lambda case: case[:2]), circle_pairs()))
    @example(case=([W("e1")], [W("e1")]))                     # one circle, degree 2
    @example(case=([W("e1 e2 E1")], [W("e2 e2"), W("e1")]))   # a circle off a hair
    @settings(max_examples=300, deadline=None)
    def test_seeded_product_matches_all_pairs(self, case):
        g1, g2 = build_core(case[0]), build_core(case[1])
        assert conjugacy_intersection(g1, g2) == all_pairs_conjugacy_intersection(g1, g2)

    def test_seed_pairs_grow_linearly_on_the_ladder(self):
        # clause 4's product at rung i: the seeds number 3i + 1, where all
        # pairs number |h1| |h2|, which grows 4.0 times per doubling
        seeds = {}
        for i in (15, 31):
            h1 = acl_from_catalog(witness_jsj_left(i))
            h2 = acl_from_catalog(witness_jsj_right(i))
            seeds[i] = len(_seed_pairs(h1, h2))
            assert conjugacy_intersection(h1, h2) == [cyclic_core(build_core(
                [witness(j) for j in range(i)]))]
        assert seeds == {15: 46, 31: 94}
        assert seeds[31] / seeds[15] <= 2.2

    def test_product_walk_with_empty_core(self):
        # a trivial factor leaves the product with no cycle: no component,
        # and the verifier counts no common class on either side
        circle, empty = build_core([W("e1")]), build_core([])
        for g1, g2 in ((circle, empty), (empty, circle)):
            assert conjugacy_intersection(g1, g2) == []
            _, _, count, oracle_ok = _conjugacy_part(g1, g2, empty, 4)
            assert count == 0 and oracle_ok

    def test_reads_closed_path(self):
        g = build_core([W("e1"), W("E3 e2 e3")])
        core = cyclic_core(g)
        assert reads_closed_path(core, (1,)) and reads_closed_path(core, (2,))
        assert not reads_closed_path(core, (1, 2))
        assert reads_closed_path(core, ())
        assert reads_closed_path(cyclic_core(build_core([])), ())
        assert not reads_closed_path(cyclic_core(build_core([])), (1,))
