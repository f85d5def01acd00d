"""Decision procedures for the four basic equivalence relations over free
groups: conjugation, m-left-coset, m-right-coset and the (m,n) double coset.

Side conditions are strict: whenever a required component is trivial
(b1 or b2 for the coset relations, a or c components for the double coset)
the relation does not hold, matching the defining conditions exactly.  The
double-coset relation carries an inert index m: its defining condition only
uses n, so m never affects the verdict (kept as a parameter and documented).

Every verdict is an exact decision on the Stallings folding engine, with no
length or exponent bound: E2 and E3 test membership in the folded core of
<root**m>, and E4 decides b2 in <a**n> b1 <c**n> with
:func:`ample.stallings.in_double_coset`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .stallings import build_core, contains, in_double_coset
from .words import Word, canonical_root, invert, is_conjugate, multiply, power

Pair = tuple[Word, Word]
Triple = tuple[Word, Word, Word]


@dataclass(frozen=True)
class CosetQuery:
    """One basic-sort membership question, as posed on the command line."""

    relation: str  # "E1" | "E2" | "E3" | "E4"
    modulus_m: int
    modulus_n: int
    left: tuple[Word, ...]
    right: tuple[Word, ...]

    ARITY = {"E1": 1, "E2": 2, "E3": 2, "E4": 3}

    def __post_init__(self):
        arity = self.ARITY.get(self.relation)
        if arity is None:
            raise ValueError(f"unknown relation {self.relation!r}")
        if len(self.left) != arity or len(self.right) != arity:
            raise ValueError(f"{self.relation} compares tuples of arity {arity}")

    def evaluate(self) -> bool:
        if self.relation == "E1":
            return e1_conjugation(self.left[0], self.right[0])
        if self.relation == "E2":
            return e2_left_coset(self.modulus_m, self.left, self.right)
        if self.relation == "E3":
            return e3_right_coset(self.modulus_m, self.left, self.right)
        return e4_double_coset(self.modulus_m, self.modulus_n,
                               self.left, self.right)


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


def e2_left_coset(m: int, pair1: Pair, pair2: Pair) -> bool:
    """m-left-coset relation on pairs (a, b): requires b1, b2 nontrivial
    with a common centralizer generator b, and a1^-1 a2 in <b**m>."""
    _check_moduli(m=m)
    (a1, b1), (a2, b2) = pair1, pair2
    root = _common_root(b1, b2)
    if root is None:
        return False
    return contains(build_core([power(root, m)]), multiply(invert(a1), a2))


def e3_right_coset(m: int, pair1: Pair, pair2: Pair) -> bool:
    """Mirror of the left-coset relation, with a1 a2^-1."""
    _check_moduli(m=m)
    (a1, b1), (a2, b2) = pair1, pair2
    root = _common_root(b1, b2)
    if root is None:
        return False
    return contains(build_core([power(root, m)]), multiply(a1, invert(a2)))


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
    return in_double_coset([power(root_a, n)], b1, [power(root_c, n)], b2)
