import pytest
from hypothesis import given, settings, strategies as st

from ample.words import (
    MAX_NESTING,
    MAX_WORD_LETTERS,
    CyclicWord,
    GeneratorIndexError,
    Word,
    WordSyntaxError,
    canonical_root,
    commutator,
    cyclic_reduce,
    format_word,
    invert,
    is_conjugate,
    least_rotation,
    letter_key,
    multiply,
    parse_word,
    power,
    primitive_root,
    relabel,
)

from conftest import words, nonempty_words


W = parse_word


class TestParse:
    def test_cancellation(self):
        assert W("e1 E1") == Word()

    def test_commutator_sugar(self):
        assert W("[e2,e3]") == Word((2, 3, -2, -3))

    def test_prefixed_commutator(self):
        assert W("e1 [e2,e3]") == Word((1, 2, 3, -2, -3))

    def test_empty_input_is_identity(self):
        assert W("") == Word()
        assert W("   ") == Word()

    def test_repeat_sugar(self):
        assert W("( e1 e2 )^3") == Word((1, 2, 1, 2, 1, 2))
        assert W("(e1)^-2") == Word((-1, -1))
        assert W("(e1)^0") == Word()

    def test_nested_sugar(self):
        assert W("[e1, [e2,e3]]") == commutator(Word((1,)), commutator(Word((2,)), Word((3,))))

    def test_nesting_limit(self):
        assert W("(" * MAX_NESTING + "e1" + ")^1" * MAX_NESTING) == Word((1,))
        deep = MAX_NESTING + 1
        with pytest.raises(WordSyntaxError, match="nested deeper"):
            W("(" * deep + "e1" + ")^1" * deep)
        with pytest.raises(WordSyntaxError, match="nested deeper"):
            W("[" * deep + "e1, e2" + "]" * deep)

    def test_expansion_cap(self):
        cap = MAX_WORD_LETTERS
        assert len(W(f"(e1)^{cap}")) == cap
        assert len(W(f"[(e1)^{cap // 2 - 1}, e2]")) == cap
        for text in (f"(e1)^{cap + 1}", f"(E1)^-{cap + 1}",
                     f"[(e1)^{cap // 2}, e2]", f"(e1)^{cap} e2",
                     f"(e1)^{cap} (E1)^{cap}", f"(e1 e2)^{10 ** 12}"):
            with pytest.raises(WordSyntaxError, match="more than"):
                W(text)

    def test_whitespace_inside_brackets(self):
        assert W("[ e1 e2 , e3 ]") == commutator(Word((1, 2)), Word((3,)))

    def test_multi_digit_indices(self):
        assert W("e12 E12") == Word()
        assert W("e10").letters == (10,)

    def test_index_zero_rejected(self):
        with pytest.raises(GeneratorIndexError):
            W("e0")

    @pytest.mark.parametrize("bad", ["e", "x1", "e1e2", "[e1 e2", "(e1)^", "(e1) 3", "e1,,"])
    def test_syntax_errors(self, bad):
        with pytest.raises(WordSyntaxError):
            W(bad)

    def test_format_round_trip(self):
        w = W("e1 [e2,e3] E4")
        assert W(format_word(w)) == w


class TestAlgebra:
    def test_multiply_middle_cancellation(self):
        assert multiply(W("e1 e2"), W("E2 e3")) == W("e1 e3")

    def test_multiply_identity(self):
        w = W("e1 e2 e3")
        assert multiply(Word(), w) == w

    def test_multiply_inverse(self):
        assert multiply(W("e1"), W("E1")) == Word()

    def test_invert_examples(self):
        assert invert(W("e1 e2")) == W("E2 E1")
        assert invert(Word()) == Word()
        assert invert(W("[e2,e3]")) == W("[e3,e2]")

    def test_commutator_examples(self):
        assert commutator(W("e2"), W("e3")) == W("e2 e3 E2 E3")
        assert commutator(W("e1"), W("e1")) == Word()
        assert commutator(W("e1"), Word()) == Word()

    @given(u=words(), v=words(), w=words())
    def test_associativity(self, u, v, w):
        assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))

    @given(u=words())
    def test_inverse_law(self, u):
        assert multiply(u, invert(u)) == Word()
        assert invert(invert(u)) == u

    @given(u=words())
    def test_power_consistency(self, u):
        assert power(u, 3) == multiply(multiply(u, u), u)
        assert power(u, -2) == invert(multiply(u, u))

    def test_relabel(self):
        assert relabel(W("e2 e3 E2 E3"), -1) == W("e1 e2 E1 E2")
        with pytest.raises(GeneratorIndexError):
            relabel(W("e1"), -1)


class TestCyclic:
    def test_cyclic_reduce_examples(self):
        core, conj = cyclic_reduce(W("e1 e2 E1"))
        assert core == CyclicWord((2,))
        assert conj == W("e1")
        core, conj = cyclic_reduce(W("e1 e2"))
        assert core == CyclicWord((1, 2))
        assert conj == Word()
        core, conj = cyclic_reduce(Word())
        assert core == CyclicWord() and conj == Word()

    @given(u=words())
    def test_round_trip(self, u):
        core, conj = cyclic_reduce(u)
        rebuilt = multiply(multiply(conj, core.to_word()), invert(conj))
        # same element, and the conjugation reassembles without cancellation
        assert rebuilt == u
        assert len(core) + 2 * len(conj) == len(u)

    def test_rotation_equality(self):
        assert CyclicWord((1, 2)) == CyclicWord((2, 1))
        assert CyclicWord((1, 2)) != CyclicWord((1, -2))
        assert CyclicWord((1, 2, 3)) == CyclicWord((3, 1, 2))
        assert CyclicWord((1, 2)) != CyclicWord((1, 2, 1))

    def test_letter_key_order(self):
        assert [letter_key(c) for c in (1, -1, 2, -2, 3)] == [1, 2, 3, 4, 5]

    @staticmethod
    def _least_by_min(codes):
        return min((codes[i:] + codes[:i] for i in range(len(codes))),
                   key=lambda r: [letter_key(c) for c in r], default=())

    def test_least_rotation_examples(self):
        assert least_rotation(()) == ()
        assert least_rotation((2, -1, 1)) == (1, 2, -1)
        assert least_rotation((1,) * 7) == (1,) * 7
        assert least_rotation((2, 1, 2, 1, 2, 1)) == (1, 2, 1, 2, 1, 2)
        # E1 sorts after e1 although its code is smaller
        assert least_rotation((-1, 1, 2)) == (1, 2, -1)

    @given(base=st.lists(st.sampled_from((1, -1, 2, -2)), max_size=6),
           repeats=st.integers(min_value=1, max_value=5))
    @settings(max_examples=300)
    def test_least_rotation_matches_min(self, base, repeats):
        # a repeated base gives periodic words, where rotations tie
        codes = tuple(base * repeats)
        assert least_rotation(codes) == self._least_by_min(codes)

    def test_is_conjugate_examples(self):
        assert is_conjugate(W("e1 e2"), W("e2 e1"))
        assert not is_conjugate(W("e1"), W("e2"))
        assert is_conjugate(W("e1 e2 E1"), W("e2"))
        assert not is_conjugate(W("e1"), W("E1"))
        assert is_conjugate(Word(), Word())

    @given(u=words(max_rank=2, max_len=10), v=words(max_rank=2, max_len=10),
           w=words(max_rank=2, max_len=10))
    @settings(max_examples=200)
    def test_is_conjugate_equivalence(self, u, v, w):
        assert is_conjugate(u, u)
        assert is_conjugate(u, v) == is_conjugate(v, u)
        if is_conjugate(u, v) and is_conjugate(v, w):
            assert is_conjugate(u, w)

    @given(u=words(), g=words())
    def test_conjugation_invariance(self, u, g):
        assert is_conjugate(u, multiply(multiply(g, u), invert(g)))


class TestPrimitiveRoot:
    def test_visible_period(self):
        root, exp = primitive_root(W("e1 e2 e1 e2 e1 e2"))
        assert (root, exp) == (W("e1 e2"), 3)

    def test_single_letter(self):
        assert primitive_root(W("e1")) == (W("e1"), 1)

    def test_conjugated_square(self):
        u = multiply(W("e1 e2 E1"), W("e1 e2 E1"))
        root, exp = primitive_root(u)
        assert exp == 2
        assert root == W("e1 e2 E1")
        assert power(root, exp) == u

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            primitive_root(Word())

    @given(u=nonempty_words())
    def test_root_power_reassembles(self, u):
        root, exp = primitive_root(u)
        assert power(root, exp) == u
        assert primitive_root(root)[1] == 1

    @given(u=nonempty_words(max_rank=2, max_len=4),
           k=st.integers(min_value=1, max_value=4))
    def test_root_of_power(self, u, k):
        root, _ = primitive_root(u)
        root2, _ = primitive_root(power(u, k))
        assert root2 in (root, invert(root))

    def test_canonical_root_inversion_stable(self):
        assert canonical_root(W("e1 e1")) == canonical_root(W("E1 E1"))
