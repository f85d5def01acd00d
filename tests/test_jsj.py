import hashlib

import pytest

from ample.jsj import (
    EdgeGroup,
    GraphOfGroups,
    SurfaceData,
    VertexGroup,
    acl_from_catalog,
    cap_witness_entries,
    example_jsj,
    serialize,
    singleton_jsj,
    to_dot,
    validate,
    witness_jsj_left,
    witness_jsj_right,
)
from ample.sequence import witness
from ample.stallings import (
    build_core,
    contains,
    cyclic_core,
    enumerate_cyclic_classes,
    equals,
    is_conjugate_into,
    rank,
)
from ample.words import Word, invert, multiply, parse_word

W = parse_word


def _check_map(graph):
    return {c.name: c.passed for c in validate(graph)}


class TestExampleEntries:
    def test_n1_shape(self):
        g = example_jsj(1)
        assert len(g.vertices) == 2 and len(g.edges) == 1
        surface = g.vertex("s0")
        assert surface.surface == SurfaceData(genus=1, boundary_components=1)
        assert g.edges[0].generator == W("[e1,e2]")
        assert g.relative_to == (W("[e1,e2]"),)

    def test_n2_shape(self):
        g = example_jsj(2)
        assert g.ambient_rank == 4
        assert g.vertex("s0").surface.genus == 2
        assert g.edges[0].generator == W("[e1,e2] [e3,e4]")

    def test_n3_surface_rank_formula(self):
        g = example_jsj(3)
        surface = g.vertex("s0")
        assert rank(build_core(surface.generators)) == 2 * 3 + 1 - 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_validates(self, n):
        assert all(_check_map(example_jsj(n)).values())


class TestWitnessEntries:
    def test_left_i1(self):
        g = witness_jsj_left(1)
        assert g.ambient_rank == 3
        assert g.vertex("r0").generators == (witness(0), witness(1))
        assert g.vertex("s1").generators == (W("e2"), W("e3"))
        assert g.edges[0].generator == W("[e2,e3]")

    def test_left_i2(self):
        g = witness_jsj_left(2)
        assert g.ambient_rank == 5
        assert sum(v.kind == "surface" for v in g.vertices) == 2

    def test_left_edge_generators_in_rigid_vertex(self):
        for i in (1, 2, 3):
            g = witness_jsj_left(i)
            rigid = build_core(g.vertex("r0").generators)
            for j, edge in enumerate(g.edges, start=1):
                assert edge.generator == multiply(invert(witness(j - 1)), witness(j))
                assert contains(rigid, edge.generator)

    def test_right_i1(self):
        g = witness_jsj_right(1)
        assert g.ambient_rank == 5
        assert g.vertex("r0").generators == (witness(0), witness(2))
        big = g.vertex("s1")
        assert big.surface == SurfaceData(genus=2, boundary_components=1)
        assert big.generators == (W("e2"), W("e3"), W("e4"), W("e5"))

    def test_right_i2(self):
        g = witness_jsj_right(2)
        assert g.ambient_rank == 7
        kinds = sorted(v.surface.genus for v in g.vertices if v.kind == "surface")
        assert kinds == [1, 2]

    def test_right_big_edge_word(self):
        for i in (1, 2, 3):
            g = witness_jsj_right(i)
            big_edge = g.edges[-1].generator
            assert big_edge == multiply(invert(witness(i - 1)), witness(i + 1))
            assert contains(build_core(g.vertex("r0").generators), big_edge)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_validates(self, i):
        assert all(_check_map(witness_jsj_left(i)).values())
        assert all(_check_map(witness_jsj_right(i)).values())

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_euler_bookkeeping(self, i):
        for g in (witness_jsj_left(i), witness_jsj_right(i)):
            total = sum(rank(build_core(v.generators)) for v in g.vertices)
            assert total - len(g.edges) == g.ambient_rank


class TestAclExtraction:
    def test_left_catalog_closure(self):
        for i in (1, 2):
            got = acl_from_catalog(witness_jsj_left(i))
            assert equals(got, build_core([witness(j) for j in range(i + 1)]))

    def test_right_catalog_closure(self):
        for i in (1, 2):
            got = acl_from_catalog(witness_jsj_right(i))
            expected = [witness(j) for j in range(i)] + [witness(i + 1)]
            assert equals(got, build_core(expected))

    def test_singleton_closure(self):
        assert equals(acl_from_catalog(singleton_jsj(W("e1"))),
                      build_core([W("e1")]))

    def test_singleton_validates(self):
        assert all(_check_map(singleton_jsj(witness(1))).values())

    def test_unlocatable_relative_words_raise(self):
        g = GraphOfGroups(
            ambient_rank=2,
            vertices=(VertexGroup(id="r0", kind="rigid", generators=(W("e1"),)),),
            edges=(),
            relative_to=(W("e2"),))
        with pytest.raises(ValueError):
            acl_from_catalog(g)


class TestAclcMembership:
    """The conjugacy part of the closure: words conjugate into the acl."""

    @staticmethod
    def member(g, w):
        return is_conjugate_into(w, acl_from_catalog(g))

    def test_rigid_member(self):
        assert self.member(witness_jsj_left(1), witness(0))

    def test_non_member_with_oracle(self):
        g = witness_jsj_left(1)
        assert not self.member(g, W("e2"))
        h1 = build_core(g.vertex("r0").generators)
        assert (2,) not in enumerate_cyclic_classes(cyclic_core(h1), 4)

    def test_commutator_member(self):
        assert self.member(witness_jsj_left(1), W("[e2,e3]"))

    def test_boundary_words_are_members(self):
        g = witness_jsj_right(2)
        for edge in g.edges:
            assert self.member(g, edge.generator)


class TestValidateNegativeControl:
    def test_edge_word_outside_vertex_group(self):
        g = GraphOfGroups(
            ambient_rank=2,
            vertices=(
                VertexGroup(id="r0", kind="rigid", generators=(W("e1"),)),
                VertexGroup(id="s0", kind="surface", generators=(W("e1"), W("e2")),
                            surface=SurfaceData(genus=1, boundary_components=1)),
            ),
            edges=(EdgeGroup(endpoints=("r0", "s0"), generator=W("e2")),),
            relative_to=(W("e1"),))
        checks = _check_map(g)
        assert not checks["edge-containment"]

    def test_disconnected_graph_detected(self):
        g = GraphOfGroups(
            ambient_rank=2,
            vertices=(
                VertexGroup(id="r0", kind="rigid", generators=(W("e1"),)),
                VertexGroup(id="r1", kind="rigid", generators=(W("e2"),)),
            ),
            edges=(),
            relative_to=(W("e1"),))
        checks = _check_map(g)
        assert not checks["connected"]

    def test_proper_power_flagged(self):
        g = singleton_jsj(W("e1 e1"))
        checks = _check_map(g)
        assert not checks["root-closure"]

    def test_edge_to_unknown_vertex_reported(self):
        g = GraphOfGroups(
            ambient_rank=1,
            vertices=(VertexGroup(id="r0", kind="rigid", generators=(W("e1"),)),),
            edges=(EdgeGroup(endpoints=("r0", "s9"), generator=W("e1")),),
            relative_to=(W("e1"),))
        checks = {c.name: c for c in validate(g)}
        assert not checks["edge-containment"].passed
        assert checks["edge-containment"].detail == "edge endpoint s9 names no vertex"


class TestCatalogCap:
    # the rigid generators a_0..a_i (or a_0..a_(i-1), a_(i+1)) hold about 2i^2
    # letters; an entry past words.MAX_WORD_LETTERS is refused before building
    @pytest.mark.parametrize("factory,letters", [
        (witness_jsj_left, 99_235), (witness_jsj_right, 99_239)])
    def test_witness_entries_capped_at_223(self, factory, letters):
        g = factory(222)
        assert sum(len(w) for w in g.vertices[0].generators) == letters
        with pytest.raises(ValueError, match="100000"):
            factory(223)

    def test_ladder_cap_without_building(self):
        # the check verify_ample makes for clause 4 at i = n - 1
        cap_witness_entries(222)
        with pytest.raises(ValueError, match="100128"):
            cap_witness_entries(223)

    def test_example_capped_at_4n(self):
        assert len(example_jsj(25_000).relative_to[0]) == 100_000
        with pytest.raises(ValueError, match="100000"):
            example_jsj(25_001)


class TestSerialization:
    # sha256 of serialize(g); nothing parses the format back, so its bytes
    # are pinned instead (the singleton's "subgroup" header included)
    SERIALIZED_DIGESTS = {
        "example_jsj": "ee59be69dfa51060b47d77310e8ecd5ad1368fb2f3c96099e7f6a0ba527dacbc",
        "witness_jsj_left": "1da5e3a6ef6ddecb3c97dc11beff1e3f1b985a9ad58a22603a6e839118d771e0",
        "witness_jsj_right": "9f6083291974cfd66d5421223f8257d0815103f23bfa8ea1f1514e02f9a1fea8",
        "singleton_jsj": "ccc3ba15ea32936f99db8fb67e43af0872660671f191ad4ea49852247b92eed0",
    }

    @pytest.mark.parametrize("factory,arg", [
        (example_jsj, 2), (witness_jsj_left, 2), (witness_jsj_right, 2),
        (singleton_jsj, None),
    ])
    def test_serialize_pinned(self, factory, arg):
        g = factory(witness(1)) if arg is None else factory(arg)
        digest = hashlib.sha256(serialize(g).encode()).hexdigest()
        assert digest == self.SERIALIZED_DIGESTS[factory.__name__]

    def test_dot_output_mentions_every_vertex(self):
        g = witness_jsj_left(2)
        dot = to_dot(g)
        for v in g.vertices:
            assert f'"{v.id}"' in dot
        assert dot.startswith("graph")
