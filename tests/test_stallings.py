import random
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from ample.sequence import witness
from ample.stallings import (
    SubgroupGraph,
    _bfs,
    _encoding,
    _peel,
    _renumber,
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

from conftest import all_reduced_words, naive_products, random_reduced_word, words

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


def all_starts_cyclic_core(adj):
    """Reference for ``_cyclic_graph``'s numbering: peel, then number from
    every start and keep the least encoding, where ``_cyclic_graph`` numbers
    only the starts whose first row is least."""
    adj = _peel(adj, keep=None)
    return min((_renumber(adj, list(_bfs(adj, start))) for start in adj),
               key=_encoding, default=({},))


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

    def test_core_built_once_per_graph(self, rng):
        for _ in range(20):
            _, g = random_subgroup(rng, rng.choice((2, 3)))
            core = cyclic_core(g)
            assert cyclic_core(g) is core
            fresh = SubgroupGraph(tuple(dict(row) for row in g.adj))
            assert cyclic_core(fresh) == core
        with pytest.raises(AttributeError):
            g._core = None

    def test_core_is_its_own_core(self, rng):
        trivial = cyclic_core(build_core([]))
        assert trivial.adj == ({},) and cyclic_core(trivial) is trivial
        for _ in range(20):
            _, g = random_subgroup(rng, rng.choice((2, 3)))
            core = cyclic_core(g)
            assert cyclic_core(core) is core
            assert bool(core) == (rank(g) > 0)
        for comp in conjugacy_intersection(build_core([W("e1"), W("e2 e2")]),
                                           build_core([W("e1"), W("e2")])):
            assert cyclic_core(comp) is comp

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

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_enumerate_cyclic_classes_matches_brute_force(self, data):
        rank_ = data.draw(st.integers(min_value=1, max_value=4))
        gens = data.draw(st.lists(words(rank_, 6), min_size=1, max_size=3))
        max_len = data.draw(st.integers(min_value=1, max_value=7))
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
