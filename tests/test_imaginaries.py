import random

import pytest

from ample.imaginaries import (
    e1_conjugation,
    e2_left_coset,
    e3_right_coset,
    e4_double_coset,
    e4_exponent_bound,
)
from ample.words import MAX_WORD_LETTERS, Word, invert, multiply, parse_word, power

from conftest import random_reduced_word
from relation_suites import (
    brute_force_double_coset,
    run_e1_suite,
    run_e2_suite,
    run_e3_suite,
    run_e4_suite,
)

W = parse_word


class TestE1:
    def test_rotation(self):
        assert e1_conjugation(W("e1 e2"), W("e2 e1"))

    def test_distinct_letters(self):
        assert not e1_conjugation(W("e1"), W("e2"))

    def test_identity_pair(self):
        assert e1_conjugation(Word(), Word())


class TestE2:
    def test_explicit_witness(self):
        assert e2_left_coset(2, (W("e2"), W("e1")), (W("e2 (e1)^4"), W("e1")))

    def test_odd_power_fails_mod_2(self):
        assert not e2_left_coset(2, (W("e2"), W("e1")), (W("e2 e1"), W("e1")))

    def test_trivial_b_fails_even_on_equal_pairs(self):
        pair = (W("e1"), Word())
        assert not e2_left_coset(1, pair, pair)

    def test_root_mismatch_fails(self):
        assert not e2_left_coset(1, (W("e2"), W("e1")), (W("e2"), W("e2")))

    def test_roots_matched_up_to_inversion(self):
        assert e2_left_coset(1, (W("e2"), W("e1")), (W("e2 e1"), W("E1")))


class TestE3:
    def test_left_residue_not_in_cyclic(self):
        assert not e3_right_coset(1, (W("e1 e2"), W("e2")), (W("e2"), W("e2")))

    def test_conjugated_residue_fails(self):
        assert not e3_right_coset(1, (W("e2 e1"), W("e1")), (W("e2"), W("e1")))

    def test_cubed_witness(self):
        assert e3_right_coset(3, (W("(e1)^3 e2"), W("e1")), (W("e2"), W("e1")))


class TestE4:
    def test_explicit_witness(self):
        t1 = (W("e1"), W("e2"), W("e1"))
        t2 = (W("e1"), W("e1 e2 e1"), W("e1"))
        assert e4_double_coset(1, 1, t1, t2)

    def test_parity_obstruction(self):
        t1 = (W("e1"), W("e2"), W("e1"))
        t2 = (W("e1"), W("e1 e2 e1"), W("e1"))
        assert not e4_double_coset(2, 2, t1, t2)

    def test_identity_exponents(self):
        t1 = (W("e1 e1"), W("e2 e3"), W("e2"))
        t2 = (W("e1"), W("e2 e3"), W("e2 e2"))
        assert e4_double_coset(3, 2, t1, t2)

    def test_trivial_side_component_fails(self):
        t = (Word(), W("e2"), W("e1"))
        assert not e4_double_coset(1, 1, t, t)

    def test_m_is_inert(self):
        t1 = (W("e1"), W("e2"), W("e1"))
        t2 = (W("e1"), W("e1 e2 e1"), W("e1"))
        for m in (1, 2, 5):
            assert e4_double_coset(m, 1, t1, t2)

    def test_agrees_with_brute_force(self, rng):
        for _ in range(150):
            n = rng.randint(1, 2)
            t1 = (random_reduced_word(rng, 2, rng.randint(0, 2)),
                  random_reduced_word(rng, 3, rng.randint(0, 4)),
                  random_reduced_word(rng, 2, rng.randint(0, 2)))
            t2 = (random_reduced_word(rng, 2, rng.randint(0, 2)),
                  random_reduced_word(rng, 3, rng.randint(0, 4)),
                  random_reduced_word(rng, 2, rng.randint(0, 2)))
            assert e4_double_coset(1, n, t1, t2) == \
                brute_force_double_coset(n, t1, t2)

    @staticmethod
    def _conjugated_root(rng):
        """A nontrivial word p u p^-1 that is not cyclically reduced."""
        while True:
            p = random_reduced_word(rng, 4, rng.randint(1, 3))
            u = random_reduced_word(rng, 4, rng.randint(1, 3))
            w = multiply(multiply(p, u), invert(p))
            if len(w) > 1 and w.letters[0] == -w.letters[-1]:
                return w

    def test_exact_on_conjugated_roots(self):
        # planted members with large exponents on roots that are not
        # cyclically reduced; each power adds only the root's cyclic core
        rng = random.Random(146)
        for idx in range(400):
            n = rng.randint(1, 3)
            ra, rc = self._conjugated_root(rng), self._conjugated_root(rng)
            b1 = random_reduced_word(rng, 4, rng.randint(0, 5))
            k, l = rng.randint(-30, 30), rng.randint(-30, 30)
            b2 = multiply(multiply(power(ra, n * k), b1), power(rc, n * l))
            e = [rng.choice((-2, -1, 1, 2)) for _ in range(4)]
            t1 = (power(ra, e[0]), b1, power(rc, e[1]))
            t2 = (power(ra, e[2]), b2, power(rc, e[3]))
            assert e4_double_coset(1, n, t1, t2), (idx, t1, t2, n)
        # toolkit-mix q0146: k = -7 on the root e1 E4 E1 with n = 3
        a = W("e1 E4 E4 E1")
        b2 = W("e1 " + "e4 " * 21 + "E1 e3 e2 E4")
        assert e4_double_coset(1, 3, (a, W("e3 e2 E4"), W("e1 e2")),
                               (a, b2, W("E2 E1 E2 E1")))
        # e1 (e3 e2 E3) e1 e3 lies in <e1, e3 e2 E3> e3 but not in <e1> e3 <e2>
        t1 = (W("e1"), W("e3"), W("e2"))
        t2 = (W("e1"), W("e1 e3 e2 E3 e1 e3"), W("e2"))
        assert not e4_double_coset(1, 1, t1, t2)
        assert not brute_force_double_coset(1, t1, t2)

    def test_growth_past_bound(self, rng):
        # with unit-length roots on distinct letters, products with k past
        # the bound are strictly longer than b2, monotonically in k
        for _ in range(40):
            n = rng.randint(1, 3)
            a, c = W("e1"), W("e2")
            b1 = random_reduced_word(rng, 3, rng.randint(0, 4))
            k0, l0 = rng.randint(-2, 2), rng.randint(-2, 2)
            b2 = multiply(multiply(power(a, n * k0), b1), power(c, n * l0))
            bound = e4_exponent_bound(n, a, b1, b2)
            assert abs(k0) <= bound
            for l in (-1, 0, 1):
                prev = None
                for k in (bound + 1, bound + 2, bound + 3):
                    length = len(multiply(multiply(power(a, n * k), b1),
                                          power(c, n * l)))
                    assert length > len(b2)
                    if prev is not None:
                        assert length > prev
                    prev = length


class TestPowerCap:
    """Root powers are capped at MAX_WORD_LETTERS letters, like parsed words."""

    PAIR = (W("e1"), W("e1"))
    TRIPLE = (W("e1"), W("e2"), W("e1"))

    @pytest.mark.parametrize("decide,args", [
        (e2_left_coset, (MAX_WORD_LETTERS + 1, PAIR, PAIR)),
        (e3_right_coset, (MAX_WORD_LETTERS + 1, PAIR, PAIR)),
        (e2_left_coset, (MAX_WORD_LETTERS // 2 + 1, (W("e1"), W("e1 e2")),
                         (W("e1"), W("e1 e2")))),
        (e4_double_coset, (1, MAX_WORD_LETTERS + 1, TRIPLE, TRIPLE)),
    ], ids=["e2", "e3", "e2-root-2", "e4"])
    def test_past_cap_raises(self, decide, args):
        with pytest.raises(ValueError, match="more than 100000 letters"):
            decide(*args)

    def test_at_cap_decided(self):
        assert e2_left_coset(MAX_WORD_LETTERS, self.PAIR, self.PAIR)


class TestCosetOracles:
    """e2/e3 against brute-force enumeration of powers of b**m."""

    @staticmethod
    def _power_set(b, m, limit):
        out = {Word()}
        step = power(b, m)
        fwd = bwd = Word()
        while True:
            fwd = multiply(fwd, step)
            bwd = multiply(bwd, power(b, -m))
            if len(fwd) > limit:
                break
            out.add(fwd)
            out.add(bwd)
        return out

    def test_e2_e3_agree_with_power_enumeration(self, rng):
        for _ in range(150):
            m = rng.randint(1, 3)
            b = random_reduced_word(rng, 2, rng.randint(1, 3))
            exps = [rng.choice((-2, -1, 1, 2)) for _ in range(2)]
            pair1 = (random_reduced_word(rng, 3, rng.randint(0, 4)), power(b, exps[0]))
            if rng.random() < 0.5:
                pair2 = (multiply(pair1[0], power(b, m * rng.randint(-2, 2))),
                         power(b, exps[1]))
            else:
                pair2 = (random_reduced_word(rng, 3, rng.randint(0, 4)),
                         power(b, exps[1]))
            limit = len(pair1[0]) + len(pair2[0])
            powers = self._power_set(b, m, limit)
            d_left = multiply(invert(pair1[0]), pair2[0])
            assert e2_left_coset(m, pair1, pair2) == (d_left in powers)
            d_right = multiply(pair1[0], invert(pair2[0]))
            assert e3_right_coset(m, pair1, pair2) == (d_right in powers)


class TestEquivalenceSuites:
    """Smaller counterparts of the acceptance suites (seeded, deterministic)."""

    def test_e1(self):
        assert run_e1_suite(random.Random(11), 200) == 200

    def test_e2(self):
        assert run_e2_suite(random.Random(22), 200) == 200

    def test_e3(self):
        assert run_e3_suite(random.Random(33), 200) == 200

    def test_e4(self):
        assert run_e4_suite(random.Random(44), 100) == 100
