"""Randomized reflexivity/symmetry/transitivity suites for the basic
equivalence relations, plus a brute-force double-coset oracle.

Suites sample on the relations' domains (nontrivial b-components for the
coset relations, nontrivial a/c-components for the double coset) and build
genuinely related chains so transitivity is exercised on positive cases.
"""

from __future__ import annotations

import random

from ample.imaginaries import (
    e1_conjugation,
    e2_left_coset,
    e3_right_coset,
    e4_double_coset,
)
from ample.words import Word, canonical_root, invert, multiply, power

from conftest import random_reduced_word


def _nonempty(rng: random.Random, rank: int, max_len: int) -> Word:
    return random_reduced_word(rng, rank, rng.randint(1, max_len))


def run_e1_suite(rng: random.Random, count: int) -> int:
    checked = 0
    for _ in range(count):
        u = random_reduced_word(rng, 3, rng.randint(0, 6))
        g = random_reduced_word(rng, 3, rng.randint(0, 4))
        h = random_reduced_word(rng, 3, rng.randint(0, 4))
        v = multiply(multiply(g, u), invert(g))
        w = multiply(multiply(h, v), invert(h))
        assert e1_conjugation(u, u)
        assert e1_conjugation(u, v) and e1_conjugation(v, u)
        assert e1_conjugation(u, w)
        other = random_reduced_word(rng, 3, rng.randint(0, 6))
        assert e1_conjugation(u, other) == e1_conjugation(other, u)
        checked += 1
    return checked


def _coset_instance(rng: random.Random, m: int):
    """Three pairs forming an E2-chain over a common root."""
    b = _nonempty(rng, 3, 3)
    a1 = random_reduced_word(rng, 3, rng.randint(0, 4))
    step1 = power(b, m * rng.randint(-2, 2))
    step2 = power(b, m * rng.randint(-2, 2))
    a2 = multiply(a1, step1)
    a3 = multiply(a2, step2)
    exps = [rng.choice((-2, -1, 1, 2)) for _ in range(3)]
    return (a1, power(b, exps[0])), (a2, power(b, exps[1])), (a3, power(b, exps[2]))


def run_e2_suite(rng: random.Random, count: int) -> int:
    checked = 0
    for _ in range(count):
        m = rng.randint(1, 3)
        p1, p2, p3 = _coset_instance(rng, m)
        assert e2_left_coset(m, p1, p1)
        assert e2_left_coset(m, p1, p2) == e2_left_coset(m, p2, p1)
        if e2_left_coset(m, p1, p2) and e2_left_coset(m, p2, p3):
            assert e2_left_coset(m, p1, p3)
        q = (_nonempty(rng, 3, 4), _nonempty(rng, 3, 3))
        assert e2_left_coset(m, p1, q) == e2_left_coset(m, q, p1)
        checked += 1
    return checked


def run_e3_suite(rng: random.Random, count: int) -> int:
    checked = 0
    for _ in range(count):
        m = rng.randint(1, 3)
        (a1, b1), (a2, b2), (a3, b3) = _coset_instance(rng, m)
        p1, p2, p3 = (invert(a1), b1), (invert(a2), b2), (invert(a3), b3)
        assert e3_right_coset(m, p1, p1)
        assert e3_right_coset(m, p1, p2) == e3_right_coset(m, p2, p1)
        if e3_right_coset(m, p1, p2) and e3_right_coset(m, p2, p3):
            assert e3_right_coset(m, p1, p3)
        q = (_nonempty(rng, 3, 4), _nonempty(rng, 3, 3))
        assert e3_right_coset(m, p1, q) == e3_right_coset(m, q, p1)
        checked += 1
    return checked


def _double_coset_instance(rng: random.Random, n: int):
    """Three triples forming an E4-chain over common roots."""
    root_a = _nonempty(rng, 2, 2)
    root_c = _nonempty(rng, 2, 2)
    b1 = random_reduced_word(rng, 3, rng.randint(0, 4))
    triples = []
    b = b1
    for _ in range(3):
        pa = rng.choice((-2, -1, 1, 2))
        pc = rng.choice((-2, -1, 1, 2))
        triples.append((power(root_a, pa), b, power(root_c, pc)))
        b = multiply(multiply(power(root_a, n * rng.randint(-2, 2)), b),
                     power(root_c, n * rng.randint(-2, 2)))
    return tuple(triples)


def run_e4_suite(rng: random.Random, count: int, oracle_every: int = 5) -> int:
    checked = 0
    for idx in range(count):
        m = rng.randint(1, 3)
        n = rng.randint(1, 2)
        t1, t2, t3 = _double_coset_instance(rng, n)
        assert e4_double_coset(m, n, t1, t1)
        r12 = e4_double_coset(m, n, t1, t2)
        assert r12 == e4_double_coset(m, n, t2, t1)
        assert r12, "constructed chain must be related"
        if e4_double_coset(m, n, t2, t3):
            assert e4_double_coset(m, n, t1, t3)
        # m-inertness: the verdict never depends on m
        assert e4_double_coset(m + 1, n, t1, t2) == r12
        if idx % oracle_every == 0:
            q = (_nonempty(rng, 2, 2), random_reduced_word(rng, 3, rng.randint(0, 4)),
                 _nonempty(rng, 2, 2))
            for lhs, rhs in ((t1, q), (t1, t2), (t1, t3)):
                assert e4_double_coset(m, n, lhs, rhs) == \
                    brute_force_double_coset(n, lhs, rhs)
        checked += 1
    return checked


def brute_force_double_coset(n: int, triple1, triple2, slack: int = 4) -> bool:
    """Independent search for a**(n k) b1 c**(n l) == b2 over the window
    |k|, |l| <= |b1| + |b2| + slack, shared with no decider: the powers of
    c**n are listed once, then each k asks whether (a**(n k) b1)^-1 b2 is
    one of them."""
    (a1, b1, c1) = triple1
    (a2, b2, c2) = triple2
    if not a1 or not a2 or not c1 or not c2:
        return False
    ra1, ra2 = canonical_root(a1), canonical_root(a2)
    rc1, rc2 = canonical_root(c1), canonical_root(c2)
    if ra1 != ra2 or rc1 != rc2:
        return False
    window = range(-(len(b1) + len(b2) + slack), len(b1) + len(b2) + slack + 1)
    right_powers = {power(rc1, n * l) for l in window}
    return any(multiply(invert(multiply(power(ra1, n * k), b1)), b2) in right_powers
               for k in window)
