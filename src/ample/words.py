"""Exact algebra of reduced words over the standard basis e1, e2, ...

Letters are encoded as nonzero integers: +k is the generator ``e<k>`` and
-k its inverse ``E<k>``.  A :class:`Word` is always freely reduced; a
:class:`CyclicWord` is cyclically reduced and compared up to rotation.
Generator indices are unbounded; operations that need an ambient rank take
it as an explicit argument elsewhere in the package.

Every ``Word`` is reduced, so two words cancel only at their seam: a product
joins what is left of each, and ``_word`` wraps such a join (or a slice of a
reduced word) without reducing it again.
"""

from __future__ import annotations

import re
from operator import neg
from typing import Iterable, Iterator, Sequence


class WordSyntaxError(ValueError):
    """Malformed token or unbalanced structure in word text."""


class GeneratorIndexError(WordSyntaxError):
    """Generator index outside the allowed range (indices start at 1)."""


def letter_key(code: int) -> int:
    """Integer rank realising the order e1 < E1 < e2 < E2 < ...:
    e1 -> 1, E1 -> 2, e2 -> 3, ..."""
    return 2 * code - 1 if code > 0 else -2 * code


def _reduce(codes: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for c in codes:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


class Word:
    """A freely reduced word; the empty word is the identity."""

    __slots__ = ("letters",)

    letters: tuple[int, ...]

    def __init__(self, codes: Iterable[int] = ()):
        codes = tuple(codes)
        if 0 in codes:
            raise GeneratorIndexError("letter code 0 is not a generator")
        object.__setattr__(self, "letters", _reduce(codes))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

    def __invert__(self) -> "Word":
        return invert(self)

    def __pow__(self, n: int) -> "Word":
        return power(self, n)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"

    def __str__(self) -> str:
        return format_word(self)

    def sort_key(self):
        """Shortlex key under the letter order e1 < E1 < e2 < E2 < ..."""
        return (len(self.letters), tuple(letter_key(c) for c in self.letters))

    def max_index(self) -> int:
        """Largest generator index appearing (0 for the identity)."""
        return max((abs(c) for c in self.letters), default=0)


def _word(letters: tuple[int, ...]) -> Word:
    """A ``Word`` of letters already freely reduced."""
    w = object.__new__(Word)
    object.__setattr__(w, "letters", letters)
    return w


def _seam(a: Sequence[int], b: Sequence[int]) -> int:
    """How many letters cancel where reduced a meets reduced b."""
    k, n = 0, min(len(a), len(b))
    while k < n and a[-1 - k] == -b[k]:
        k += 1
    return k


def multiply(u: Word, v: Word) -> Word:
    k = _seam(u.letters, v.letters)
    return _word(u.letters[:len(u) - k] + v.letters[k:])


def invert(u: Word) -> Word:
    return _word(tuple(map(neg, reversed(u.letters))))


def power(u: Word, n: int) -> Word:
    """u^n: u's cyclic reduction repeated n times inside its conjugator."""
    if n < 0:
        return power(invert(u), -n)
    lo, hi = _cyclic_bounds(u.letters)
    return _word(u.letters[:lo] + u.letters[lo:hi] * n + u.letters[hi:]) if n else Word()


def commutator(u: Word, v: Word) -> Word:
    return multiply(multiply(u, v), multiply(invert(u), invert(v)))


def relabel(u: Word, offset: int) -> Word:
    """Shift every generator index by ``offset`` (e.g. e2..e5 -> e1..e4)."""
    codes = []
    for c in u.letters:
        idx = abs(c) + offset
        if idx < 1:
            raise GeneratorIndexError(f"relabel drives index {abs(c)} below 1")
        codes.append(idx if c > 0 else -idx)
    return Word(codes)


# ---------------------------------------------------------------------------
# Parsing and formatting
#
# Grammar (tokens separated by whitespace unless structural):
#   word   := factor*
#   factor := e<k> | E<k> | '[' word ',' word ']' | '(' word ')' '^' <int>
# `[u,v]` expands to u v u^-1 v^-1 before reduction.  Brackets nest at most
# MAX_NESTING deep, well inside Python's recursion limit, and no expansion
# (a word, a power or a commutator) may exceed MAX_WORD_LETTERS letters, so
# nested powers cannot ask for exponentially many.
# ---------------------------------------------------------------------------

MAX_NESTING = 200
MAX_WORD_LETTERS = 100_000


def _check_letters(count: int) -> None:
    if count > MAX_WORD_LETTERS:
        raise WordSyntaxError(
            f"word expands to more than {MAX_WORD_LETTERS} letters")


# A generator, a structural character, an integer, or an error: an index may
# not run on into another generator (`e1e2`).  \d is str.isdecimal, as int().
_TOKEN = re.compile(r"([eE])(\d+)(?![\deE])|([\[\],()^])|(-?\d+)|(\S)")


def _tokenize(text: str) -> list:
    """Generator codes, structural characters and ("int", n) exponents."""
    tokens: list = []
    for m in _TOKEN.finditer(text):
        sign, index, punct, number, _ = m.groups()
        if index is not None:
            k = int(index)
            if k < 1:
                raise GeneratorIndexError("generator index 0 is not allowed")
            tokens.append(k if sign == "e" else -k)
        elif punct is not None:
            tokens.append(punct)
        elif number is not None:
            tokens.append(("int", int(number)))
        else:
            i, ch = m.start(), m.group()
            if ch in "eE":
                msg = ("generator token missing index at" if not text[i + 1:i + 2].isdecimal()
                       else "generator tokens must be whitespace-separated near")
            else:
                msg = "malformed integer at" if ch == "-" else f"unexpected character {ch!r} at"
            raise WordSyntaxError(f"{msg} position {i}")
    return tokens


class _Parser:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse_word(self, stop=(), depth=0) -> tuple[int, ...]:
        if depth > MAX_NESTING:
            raise WordSyntaxError(f"brackets nested deeper than {MAX_NESTING}")
        out: list[int] = []
        count = 0   # the factors' letters before they cancel, as the cap counts
        while True:
            tok = self.peek()
            if tok is None or tok in stop:
                return tuple(out)
            if isinstance(tok, int):
                self.pos += 1
                if out and out[-1] == -tok:
                    out.pop()
                else:
                    out.append(tok)
                count += 1
            else:
                factor = self.parse_factor(depth)
                k = _seam(out, factor)
                del out[len(out) - k:]
                out.extend(factor[k:])
                count += len(factor)
            _check_letters(count)

    def parse_factor(self, depth: int) -> tuple[int, ...]:
        tok = self.next()
        if tok == "[":
            u = self.parse_word(stop=(",",), depth=depth + 1)
            if self.next() != ",":
                raise WordSyntaxError("expected ',' inside [ , ]")
            v = self.parse_word(stop=("]",), depth=depth + 1)
            if self.next() != "]":
                raise WordSyntaxError("unbalanced '['")
            _check_letters(2 * (len(u) + len(v)))
            return commutator(_word(u), _word(v)).letters
        if tok == "(":
            u = self.parse_word(stop=(")",), depth=depth + 1)
            if self.next() != ")":
                raise WordSyntaxError("unbalanced '('")
            if self.next() != "^":
                raise WordSyntaxError("expected '^' after ')'")
            m = self.next()
            if not (isinstance(m, tuple) and m[0] == "int"):
                raise WordSyntaxError("expected integer exponent after '^'")
            _check_letters(len(u) * abs(m[1]))
            return power(_word(u), m[1]).letters
        raise WordSyntaxError(f"unexpected token {tok!r}")


def parse_word(text: str) -> Word:
    """Parse word text; empty input denotes the identity."""
    parser = _Parser(_tokenize(text))
    w = parser.parse_word()
    if parser.peek() is not None:
        raise WordSyntaxError(f"trailing token {parser.peek()!r}")
    return _word(w)


def format_word(u: Word) -> str:
    return " ".join(f"e{c}" if c > 0 else f"E{-c}" for c in u.letters)


# ---------------------------------------------------------------------------
# Cyclic words and conjugacy
# ---------------------------------------------------------------------------

def least_rotation(codes: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least rotation under e1 < E1 < e2 < E2 < ...

    Two-pointer scan in O(n): i is the least start so far and j the next
    start not ruled out.  When the rotations at i and j agree on k letters
    and then differ, the k + 1 starts from the one with the larger letter
    on are each beaten by the start as far past the other, so all are ruled
    out and the pointer moves past them (j taking i's place if i lost).
    """
    keyed = [letter_key(c) for c in codes]
    n = len(codes)
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = keyed[(i + k) % n], keyed[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(j, i + k) + 1
        else:
            j += k + 1
        k = 0
    return codes[i:] + codes[:i]


class CyclicWord:
    """A cyclically reduced word considered up to rotation.

    ``letters`` keeps the rotation the word was constructed with (so exact
    reassembly round-trips); equality, hashing and ordering go through the
    canonical least rotation.
    """

    __slots__ = ("letters", "canonical")

    letters: tuple[int, ...]
    canonical: tuple[int, ...]

    def __init__(self, codes: Iterable[int] = ()):
        codes = tuple(codes)
        if _reduce(codes) != codes:
            raise ValueError("cyclic word must be freely reduced")
        if codes and codes[0] == -codes[-1]:
            raise ValueError("cyclic word must be cyclically reduced")
        object.__setattr__(self, "letters", codes)
        object.__setattr__(self, "canonical", least_rotation(codes))

    def __setattr__(self, name, value):
        raise AttributeError("CyclicWord is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, CyclicWord) and self.canonical == other.canonical

    def __hash__(self) -> int:
        return hash(("cyclic", self.canonical))

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __repr__(self) -> str:
        return f"CyclicWord({format_word(self.to_word())!r})"

    def to_word(self) -> Word:
        return Word(self.letters)


def _cyclic_bounds(codes: tuple[int, ...]) -> tuple[int, int]:
    """(lo, hi): reduced codes[lo:hi] is cyclically reduced, codes[hi:] inverts codes[:lo]."""
    lo, hi = 0, len(codes)
    while hi - lo >= 2 and codes[lo] == -codes[hi - 1]:
        lo += 1
        hi -= 1
    return lo, hi


def cyclic_reduce(u: Word) -> tuple[CyclicWord, Word]:
    """Split u as conjugator * core * conjugator^-1 with minimal conjugator."""
    codes = u.letters
    lo, hi = _cyclic_bounds(codes)
    return CyclicWord(codes[lo:hi]), _word(codes[:lo])


def is_conjugate(u: Word, v: Word) -> bool:
    """True iff the cyclic reductions are rotations of each other."""
    return cyclic_reduce(u)[0] == cyclic_reduce(v)[0]


def primitive_root(u: Word) -> tuple[Word, int]:
    """Return (root, exponent) with u = root**exponent, exponent maximal.

    The centralizer of u in the ambient free group is generated by root, u's
    conjugator around the period of its cyclic reduction (nothing cancels).
    """
    if not u:
        raise ValueError("the identity has no primitive root")
    lo, hi = _cyclic_bounds(u.letters)
    inner = u.letters[lo:hi]
    n = len(inner)
    for p in range(1, n + 1):
        if n % p == 0 and inner == inner[:p] * (n // p):
            return _word(u.letters[:lo] + inner[:p] + u.letters[hi:]), n // p
    raise AssertionError("unreachable: every word is a power of itself")


def canonical_root(u: Word) -> Word:
    """Primitive root normalised up to inversion (least by shortlex)."""
    root, _ = primitive_root(u)
    inv = invert(root)
    return root if root.sort_key() <= inv.sort_key() else inv
