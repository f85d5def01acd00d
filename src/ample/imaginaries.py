"""Decision procedures for the four basic equivalence relations over free
groups: conjugation, m-left-coset, m-right-coset and the (m,n) double coset.

Side conditions are strict: whenever a required component is trivial
(b1 or b2 for the coset relations, a or c components for the double coset)
the relation does not hold, matching the defining conditions exactly.  The
double-coset relation carries an inert index m: its defining condition only
uses n, so m never affects the verdict (kept as a parameter and documented).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .words import (
    Word,
    canonical_root,
    cyclic_reduce,
    invert,
    is_conjugate,
    multiply,
    power,
)

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


def _power_exponent(d: Word, b: Word) -> Optional[int]:
    """The integer j with d == b**j, or None."""
    if not d:
        return 0
    core, conj = cyclic_reduce(b)
    stripped = multiply(multiply(invert(conj), d), conj)
    clen = len(core)
    if clen == 0 or len(stripped) % clen:
        return None
    j = len(stripped) // clen
    base = multiply(multiply(invert(conj), b), conj)
    if power(base, j) == stripped:
        return j
    if power(base, -j) == stripped:
        return -j
    return None


def _check_moduli(**moduli: int) -> None:
    for name, value in moduli.items():
        if value < 1:
            raise ValueError(f"modulus {name} must be >= 1, got {value}")


def _in_cyclic_power(d: Word, b: Word, m: int) -> bool:
    """True iff d lies in the cyclic subgroup generated by b**m."""
    j = _power_exponent(d, b)
    return j is not None and j % m == 0


def e2_left_coset(m: int, pair1: Pair, pair2: Pair) -> bool:
    """m-left-coset relation on pairs (a, b): requires b1, b2 nontrivial
    with a common centralizer generator b, and a1^-1 a2 in <b**m>."""
    _check_moduli(m=m)
    (a1, b1), (a2, b2) = pair1, pair2
    root = _common_root(b1, b2)
    if root is None:
        return False
    return _in_cyclic_power(multiply(invert(a1), a2), root, m)


def e3_right_coset(m: int, pair1: Pair, pair2: Pair) -> bool:
    """Mirror of the left-coset relation, with a1 a2^-1."""
    _check_moduli(m=m)
    (a1, b1), (a2, b2) = pair1, pair2
    root = _common_root(b1, b2)
    if root is None:
        return False
    return _in_cyclic_power(multiply(a1, invert(a2)), root, m)


def e4_exponent_bound(n: int, root: Word, b1: Word, b2: Word) -> int:
    """Exhaustive-search bound: past it, the reduced product length must
    exceed |b2|."""
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
    bound_k = e4_exponent_bound(n, root_a, b1, b2)
    bound_l = e4_exponent_bound(n, root_c, b1, b2)
    step_a = power(root_a, n)
    step_c = power(root_c, n)
    left = power(step_a, -bound_k)
    for k in range(-bound_k, bound_k + 1):
        prefix = multiply(left, b1)
        right = power(step_c, -bound_l)
        for l in range(-bound_l, bound_l + 1):
            if multiply(prefix, right) == b2:
                return True
            right = multiply(right, step_c)
        left = multiply(left, step_a)
    return False
