"""Decision procedures for the four basic equivalence relations over free
groups: conjugation, m-left-coset, m-right-coset and the (m,n) double coset.

Side conditions are strict: whenever a required component is trivial
(b1 or b2 for the coset relations, a or c components for the double coset)
the relation does not hold, matching the defining conditions exactly.  The
double-coset relation carries an inert index m: its defining condition only
uses n, so m never affects the verdict (kept as a parameter and documented).

Every verdict is an exact decision on the Stallings folding engine, with no
search bound on lengths or exponents: E2 and E3 test membership in the
folded core of <root**m>, and E4 decides b2 in <a**n> b1 <c**n> with
:func:`ample.stallings.in_double_coset`.  A root power longer than
``words.MAX_WORD_LETTERS`` letters raises ``ValueError`` before it is built.
"""

from __future__ import annotations

from typing import Optional

from .stallings import build_core, contains, in_double_coset
from .words import (MAX_WORD_LETTERS, Word, canonical_root, invert, is_conjugate,
                    multiply, power)

Pair = tuple[Word, Word]
Triple = tuple[Word, Word, Word]


def e1_conjugation(a: Word, b: Word) -> bool:
    """Conjugation: some g carries a to b."""
    return is_conjugate(a, b)


def _common_root(u: Word, v: Word) -> Optional[Word]:
    """The shared primitive root (up to inversion), or None.

    Centralizers in a free group are generated by the primitive root, so
    equal centralizers means equal roots up to inversion.
    """
    if not u or not v:
        return None
    ru = canonical_root(u)
    rv = canonical_root(v)
    return ru if ru == rv else None


def _check_moduli(**moduli: int) -> None:
    for name, value in moduli.items():
        if value < 1:
            raise ValueError(f"modulus {name} must be >= 1, got {value}")


def _root_power(root: Word, exponent: int, name: str) -> Word:
    """root**exponent, refused before it is built when it would exceed
    MAX_WORD_LETTERS letters (the parser's cap, counted before reduction)."""
    if len(root) * exponent > MAX_WORD_LETTERS:
        raise ValueError(f"modulus {name} = {exponent} asks for a root power of "
                         f"more than {MAX_WORD_LETTERS} letters")
    return power(root, exponent)


def e2_left_coset(m: int, pair1: Pair, pair2: Pair) -> bool:
    """m-left-coset relation on pairs (a, b): requires b1, b2 nontrivial
    with a common centralizer generator b, and a1^-1 a2 in <b**m>."""
    _check_moduli(m=m)
    (a1, b1), (a2, b2) = pair1, pair2
    root = _common_root(b1, b2)
    if root is None:
        return False
    return contains(build_core([_root_power(root, m, "m")]), multiply(invert(a1), a2))


def e3_right_coset(m: int, pair1: Pair, pair2: Pair) -> bool:
    """Mirror of the left-coset relation, with a1 a2^-1."""
    _check_moduli(m=m)
    (a1, b1), (a2, b2) = pair1, pair2
    root = _common_root(b1, b2)
    if root is None:
        return False
    return contains(build_core([_root_power(root, m, "m")]), multiply(a1, invert(a2)))


# No decider uses this bound any more; it stays only because the benchmark
# tracer (perfbench/spans.py) wraps it, until that tracer drops it.
def e4_exponent_bound(n: int, root: Word, b1: Word, b2: Word) -> int:
    """Former exhaustive-search bound of the E4 exponents."""
    return (len(b1) + len(b2)) // (n * len(root)) + 2


def e4_double_coset(m: int, n: int, triple1: Triple, triple2: Triple) -> bool:
    """(m,n) double coset on triples (a, b, c): requires a1, a2, c1, c2
    nontrivial with common roots a and c, and integers k, l with
    a**(n k) b1 c**(n l) == b2.

    The index m is inert: the defining condition uses only n.
    """
    _check_moduli(m=m, n=n)
    (a1, b1, c1) = triple1
    (a2, b2, c2) = triple2
    root_a = _common_root(a1, a2)
    root_c = _common_root(c1, c2)
    if root_a is None or root_c is None:
        return False
    return in_double_coset([_root_power(root_a, n, "n")], b1,
                           [_root_power(root_c, n, "n")], b2)
