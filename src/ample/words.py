"""Exact algebra of reduced words over the standard basis e1, e2, ...

Letters are encoded as nonzero integers: +k is the generator ``e<k>`` and
-k its inverse ``E<k>``.  A :class:`Word` is always freely reduced; a
:class:`CyclicWord` is cyclically reduced and compared up to rotation.
Generator indices are unbounded; operations that need an ambient rank take
it as an explicit argument elsewhere in the package.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class WordSyntaxError(ValueError):
    """Malformed token or unbalanced structure in word text."""


class GeneratorIndexError(WordSyntaxError):
    """Generator index outside the allowed range (indices start at 1)."""


def letter_key(code: int) -> tuple[int, int]:
    """Sort key realising the order e1 < E1 < e2 < E2 < ..."""
    return (abs(code), 0 if code > 0 else 1)


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

    __slots__ = ("letters", "_hash")

    letters: tuple[int, ...]

    def __init__(self, codes: Iterable[int] = ()):
        codes = tuple(codes)
        for c in codes:
            if c == 0:
                raise GeneratorIndexError("letter code 0 is not a generator")
        object.__setattr__(self, "letters", _reduce(codes))
        object.__setattr__(self, "_hash", hash(self.letters))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return self._hash

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


EMPTY = Word()


def multiply(u: Word, v: Word) -> Word:
    w = Word()
    object.__setattr__(w, "letters", _reduce(u.letters + v.letters))
    object.__setattr__(w, "_hash", hash(w.letters))
    return w


def invert(u: Word) -> Word:
    w = Word()
    object.__setattr__(w, "letters", tuple(-c for c in reversed(u.letters)))
    object.__setattr__(w, "_hash", hash(w.letters))
    return w


def power(u: Word, n: int) -> Word:
    if n < 0:
        return power(invert(u), -n)
    result = EMPTY
    base = u
    while n:
        if n & 1:
            result = multiply(result, base)
        base = multiply(base, base)
        n >>= 1
    return result


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


def _tokenize(text: str) -> list:
    tokens: list = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "[],()^":
            tokens.append(ch)
            i += 1
            continue
        if ch in "eE":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            digits = text[i + 1:j]
            if not digits:
                raise WordSyntaxError(f"generator token missing index at position {i}")
            if j < n and text[j] in "eE":
                raise WordSyntaxError(
                    f"generator tokens must be whitespace-separated near position {i}")
            k = int(digits)
            if k < 1:
                raise GeneratorIndexError("generator index 0 is not allowed")
            tokens.append(k if ch == "e" else -k)
            i = j
            continue
        if ch == "-" or ch.isdigit():
            j = i + 1 if ch == "-" else i
            while j < n and text[j].isdigit():
                j += 1
            if j == i or (ch == "-" and j == i + 1):
                raise WordSyntaxError(f"malformed integer at position {i}")
            tokens.append(("int", int(text[i:j])))
            i = j
            continue
        raise WordSyntaxError(f"unexpected character {ch!r} at position {i}")
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

    def parse_word(self, stop=(), depth=0) -> Word:
        if depth > MAX_NESTING:
            raise WordSyntaxError(f"brackets nested deeper than {MAX_NESTING}")
        codes: list[int] = []
        while True:
            tok = self.peek()
            if tok is None or tok in stop:
                return Word(codes)
            codes.extend(self.parse_factor(depth).letters)
            _check_letters(len(codes))

    def parse_factor(self, depth: int) -> Word:
        tok = self.next()
        if isinstance(tok, int):
            return Word((tok,))
        if tok == "[":
            u = self.parse_word(stop=(",",), depth=depth + 1)
            if self.next() != ",":
                raise WordSyntaxError("expected ',' inside [ , ]")
            v = self.parse_word(stop=("]",), depth=depth + 1)
            if self.next() != "]":
                raise WordSyntaxError("unbalanced '['")
            _check_letters(2 * (len(u) + len(v)))
            return commutator(u, v)
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
            return power(u, m[1])
        raise WordSyntaxError(f"unexpected token {tok!r}")


def parse_word(text: str) -> Word:
    """Parse word text; empty input denotes the identity."""
    parser = _Parser(_tokenize(text))
    w = parser.parse_word()
    if parser.peek() is not None:
        raise WordSyntaxError(f"trailing token {parser.peek()!r}")
    return w


def format_word(u: Word) -> str:
    return " ".join(f"e{c}" if c > 0 else f"E{-c}" for c in u.letters)


# ---------------------------------------------------------------------------
# Cyclic words and conjugacy
# ---------------------------------------------------------------------------

def is_rotation(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Rotation equality by doubling-and-substring search."""
    if len(a) != len(b):
        return False
    if not a:
        return True
    doubled = b + b
    n = len(a)
    for start in range(n):
        if doubled[start:start + n] == a:
            return True
    return False


def least_rotation(codes: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least rotation under e1 < E1 < e2 < E2 < ..."""
    if not codes:
        return codes
    keyed = [letter_key(c) for c in codes]
    n = len(codes)
    best = 0
    for start in range(1, n):
        for off in range(n):
            ka = keyed[(best + off) % n]
            kb = keyed[(start + off) % n]
            if kb < ka:
                best = start
                break
            if kb > ka:
                break
    return codes[best:] + codes[:best]


class CyclicWord:
    """A cyclically reduced word considered up to rotation.

    ``letters`` keeps the rotation the word was constructed with (so exact
    reassembly round-trips); equality, hashing and ordering go through the
    canonical least rotation.
    """

    __slots__ = ("letters", "canonical", "_hash")

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
        object.__setattr__(self, "_hash", hash(("cyclic", self.canonical)))

    def __setattr__(self, name, value):
        raise AttributeError("CyclicWord is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, CyclicWord) and self.canonical == other.canonical

    def __hash__(self) -> int:
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __repr__(self) -> str:
        return f"CyclicWord({format_word(self.to_word())!r})"

    def to_word(self) -> Word:
        return Word(self.letters)

    def sort_key(self):
        return (len(self.canonical), tuple(letter_key(c) for c in self.canonical))


def cyclic_reduce(u: Word) -> tuple[CyclicWord, Word]:
    """Split u as conjugator * core * conjugator^-1 with minimal conjugator."""
    codes = u.letters
    lo, hi = 0, len(codes)
    while hi - lo >= 2 and codes[lo] == -codes[hi - 1]:
        lo += 1
        hi -= 1
    return CyclicWord(codes[lo:hi]), Word(codes[:lo])


def is_conjugate(u: Word, v: Word) -> bool:
    """True iff the cyclic reductions are rotations of each other."""
    cu, _ = cyclic_reduce(u)
    cv, _ = cyclic_reduce(v)
    return is_rotation(cu.letters, cv.letters)


def primitive_root(u: Word) -> tuple[Word, int]:
    """Return (root, exponent) with u = root**exponent, exponent maximal.

    The centralizer of u in the ambient free group is generated by root.
    """
    if not u:
        raise ValueError("the identity has no primitive root")
    core, conj = cyclic_reduce(u)
    inner = core.letters
    n = len(inner)
    for p in range(1, n + 1):
        if n % p:
            continue
        if inner == inner[:p] * (n // p):
            root_core = Word(inner[:p])
            root = multiply(multiply(conj, root_core), invert(conj))
            return root, n // p
    raise AssertionError("unreachable: every word is a power of itself")


def canonical_root(u: Word) -> Word:
    """Primitive root normalised up to inversion (least by shortlex)."""
    root, _ = primitive_root(u)
    inv = invert(root)
    return root if root.sort_key() <= inv.sort_key() else inv
