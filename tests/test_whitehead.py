import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

from ample.sequence import commutator_chain, witness
from ample.stallings import build_core, contains
from ample.whitehead import (
    RankMismatchError,
    WhiteheadAut,
    apply,
    enumerate_whitehead_autos,
    is_basis,
    is_free_factor_tuple,
    is_primitive,
    minimize,
    replay,
)
from ample.words import Word, commutator, invert, multiply, parse_word, relabel

from conftest import words

W = parse_word


@functools.lru_cache(maxsize=None)
def reference_autos(rank: int) -> tuple[WhiteheadAut, ...]:
    return tuple(enumerate_whitehead_autos(rank))


def brute_force_total(words_, aut: WhiteheadAut) -> int:
    return sum(len(apply(aut, w)) for w in words_)


def brute_force_minimal_total(words_, rank: int) -> int:
    """Greedy descent over the full reference enumeration: each round applies
    the first automorphism with the smallest strictly shorter total."""
    current = list(words_)
    total = sum(len(w) for w in current)
    while True:
        best = min(reference_autos(rank),
                   key=lambda aut: brute_force_total(current, aut))
        best_total = brute_force_total(current, best)
        if best_total >= total:
            return total
        current = [apply(best, w) for w in current]
        total = best_total


@st.composite
def word_tuples(draw):
    """Tuples of 1-3 reduced words at rank 2-4; conjugating by a drawn word
    makes many of them not cyclically reduced."""
    rank = draw(st.integers(min_value=2, max_value=4))
    tuple_ = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        w = draw(words(max_rank=rank, max_len=7))
        g = draw(words(max_rank=rank, max_len=3))
        tuple_.append(multiply(multiply(g, w), invert(g)))
    return rank, tuple_


def cut_type_count(rank: int) -> int:
    """Number of cut-type automorphisms after removing identities."""
    return 2 * rank * ((1 << (2 * rank - 2)) - 1)


class TestEnumeration:
    def test_rank1_only_inversion(self):
        autos = list(enumerate_whitehead_autos(1))
        assert len(autos) == 1
        assert autos[0].kind == "perm" and autos[0].mapping == (-1,)

    def test_rank2_cut_count(self):
        # 2 * rank * 2^(2 rank - 2) = 16 total, minus the 4 identities
        cuts = [a for a in enumerate_whitehead_autos(2) if a.kind == "cut"]
        assert 2 * 2 * 2 ** 2 == 16
        assert len(cuts) == cut_type_count(2) == 12

    def test_rank3_all_send_basis_to_basis(self):
        count = 0
        for aut in enumerate_whitehead_autos(3):
            images = [apply(aut, Word((k,))) for k in (1, 2, 3)]
            assert is_basis(images, 3)
            count += 1
        assert count == cut_type_count(3) + 3 + 3

    def test_enumeration_is_deterministic(self):
        first = [a.descriptor() for a in enumerate_whitehead_autos(2)]
        second = [a.descriptor() for a in enumerate_whitehead_autos(2)]
        assert first == second


class TestApply:
    def test_identity_permutation(self):
        ident = WhiteheadAut(3, "perm", mapping=(1, 2, 3))
        w = W("e1 [e2,e3]")
        assert apply(ident, w) == w

    def test_cut_action_definition(self):
        aut = WhiteheadAut(2, "cut", multiplier=2, subset=frozenset({2, 1}))
        assert apply(aut, W("e1")) == W("e1 e2")
        assert apply(aut, W("E1")) == W("E2 E1")
        assert apply(aut, W("e2")) == W("e2")

    def test_conjugation_is_a_cut_automorphism(self):
        conj = WhiteheadAut(2, "cut", multiplier=1, subset=frozenset({1, 2, -2}))
        assert apply(conj, W("e2")) == W("E1 e2 e1")
        assert apply(conj, W("e1 e2 E1")) == W("e2")

    @given(u=words(max_rank=3, max_len=6), v=words(max_rank=3, max_len=6),
           data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_homomorphism_on_commutators(self, u, v, data):
        autos = list(enumerate_whitehead_autos(3))
        aut = data.draw(st.sampled_from(autos))
        assert apply(aut, commutator(u, v)) == commutator(apply(aut, u), apply(aut, v))

    def test_rank_mismatch(self):
        aut = WhiteheadAut(2, "perm", mapping=(1, 2))
        with pytest.raises(RankMismatchError):
            apply(aut, W("e3"))


class TestCutValidation:
    @pytest.mark.parametrize("subset", [{1, 0, 7}, {1, 0}, {1, 3}, {1, -3}])
    def test_subset_outside_rank_rejected(self, subset):
        with pytest.raises(ValueError):
            WhiteheadAut(2, "cut", multiplier=1, subset=frozenset(subset))

    def test_malformed_descriptor_rejected(self):
        good = {"kind": "cut", "rank": 2, "multiplier": 1, "subset": [1, 2, -2]}
        assert WhiteheadAut.from_descriptor(good).descriptor() == good
        with pytest.raises(ValueError):
            WhiteheadAut.from_descriptor(dict(good, subset=[1, 0, 7]))


class TestMinimize:
    def test_primitive_pair_word(self):
        trace = minimize([W("e1 e2")], 2)
        assert trace.minimal_total == 1

    def test_commutator_is_minimal_at_4(self):
        trace = minimize([W("[e1,e2]")], 2)
        assert trace.minimal_total == 4
        assert trace.automorphisms_applied == ()
        # exhaustive no-shortening certificate
        for aut in enumerate_whitehead_autos(2):
            assert len(apply(aut, W("[e1,e2]"))) >= 4

    def test_witness_minimizes_to_length_1(self):
        trace = minimize([witness(1)], 3)
        assert trace.minimal_total == 1

    def test_trace_replays(self):
        trace = minimize([witness(1)], 3)
        assert replay(trace) == trace.end
        assert trace.total_lengths[0] == len(witness(1))
        assert all(a > b for a, b in zip(trace.total_lengths, trace.total_lengths[1:]))

    def test_trace_descriptor_round_trip(self):
        trace = minimize([witness(1)], 3)
        for aut in trace.automorphisms_applied:
            assert WhiteheadAut.from_descriptor(aut.descriptor()) == aut

    def test_tuple_minimization(self):
        trace = minimize([W("e1 e2"), W("e2")], 2)
        assert trace.minimal_total == 2

    def test_empty_tuple_rejected(self):
        with pytest.raises(ValueError):
            minimize([], 2)

    @given(case=word_tuples())
    @settings(max_examples=150, deadline=None)
    def test_min_cut_engine_matches_brute_force(self, case):
        rank, words_ = case
        total = sum(len(w) for w in words_)
        trace = minimize(words_, rank)
        best_reduction = max(
            total - brute_force_total(words_, aut)
            for aut in reference_autos(rank))
        lengths = trace.total_lengths
        engine_reduction = lengths[0] - lengths[1] if len(lengths) > 1 else 0
        assert engine_reduction == best_reduction
        assert trace.minimal_total == brute_force_minimal_total(words_, rank)
        assert all(a > b for a, b in zip(lengths, lengths[1:]))
        assert all(aut.kind == "cut" for aut in trace.automorphisms_applied)
        assert replay(trace) == trace.end


class TestPrimitivity:
    def test_letters_are_primitive(self):
        for rank in (1, 2, 3):
            assert is_primitive(W("e1"), rank)

    def test_identity_convention(self):
        assert not is_primitive(Word(), 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_commutator_chains_not_primitive(self, n):
        chain = relabel(commutator_chain(n), -1)
        assert not is_primitive(chain, 2 * n)

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_witnesses_primitive(self, i):
        assert is_primitive(witness(i), 2 * i + 1)

    @given(w=words(max_rank=3, max_len=8), g=words(max_rank=3, max_len=4))
    @settings(max_examples=60, deadline=None)
    def test_invariance_under_conjugation_and_inversion(self, w, g):
        p = is_primitive(w, 3)
        assert is_primitive(invert(w), 3) == p
        conj = multiply(multiply(g, w), invert(g))
        assert is_primitive(conj, 3) == p

    @given(w=words(max_rank=2, max_len=8))
    @settings(max_examples=120, deadline=None)
    def test_rank2_abelianization_oracle(self, w):
        # one-sided: primitivity forces coprime exponent sums
        if is_primitive(w, 2):
            s1 = sum(1 if c == 1 else -1 if c == -1 else 0 for c in w.letters)
            s2 = sum(1 if c == 2 else -1 if c == -2 else 0 for c in w.letters)
            assert math.gcd(s1, s2) == 1


class TestBasisRecognition:
    def test_standard_basis(self):
        assert is_basis([W("e1"), W("e2")], 2)

    def test_nielsen_basis(self):
        assert is_basis([W("e1 e2"), W("e2")], 2)

    def test_factorization_tuple(self):
        words_ = [W("e2"), W("e3"), witness(1), W("e4"), W("e5")]
        assert is_basis(words_, 5)

    def test_non_bases(self):
        assert not is_basis([W("e1")], 2)
        assert not is_basis([W("e1"), W("e1")], 2)
        assert not is_basis([W("e1 e1"), W("e2")], 2)
        assert not is_basis([W("e2"), W("e3"), W("[e2,e3]"), W("e4"), W("e5")], 5)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_basis_contains_every_generator(self, data):
        autos = list(enumerate_whitehead_autos(2))
        aut = data.draw(st.sampled_from(autos))
        images = [apply(aut, Word((k,))) for k in (1, 2)]
        assert is_basis(images, 2)
        g = build_core(images)
        assert contains(g, W("e1")) and contains(g, W("e2"))


class TestFreeFactor:
    def test_single_letter(self):
        assert is_free_factor_tuple([W("e1")], 3)

    def test_witness_word(self):
        assert is_free_factor_tuple([witness(1)], 5)

    def test_commutator_not_a_factor(self):
        assert not is_free_factor_tuple([W("[e2,e3]")], 3)

    def test_conjugate_letter_pair_not_a_factor(self):
        # <e1, e2 e1 e2 E1 E2> has rank 2 but is a proper subgroup of F2
        assert not is_free_factor_tuple([W("e1"), W("e2 e1 e2 E1 E2")], 2)

    def test_full_basis_is_a_factor(self):
        assert is_free_factor_tuple([W("e1 e2"), W("e2")], 2)

    def test_trivial_tuple(self):
        assert is_free_factor_tuple([], 2)
