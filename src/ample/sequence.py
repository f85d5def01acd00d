"""The recursive witnessing sequence a0 = e1, a(i+1) = a(i) [e(2i+2), e(2i+3)]."""

from __future__ import annotations

from functools import lru_cache

from .words import Word


def _chain_letters(n: int) -> list[int]:
    """Letters of [e2,e3]...[e(2n),e(2n+1)]; no two adjacent ones cancel."""
    out: list[int] = []
    for j in range(1, n + 1):
        out += (2 * j, 2 * j + 1, -2 * j, -2 * j - 1)
    return out


@lru_cache(maxsize=None)
def witness(i: int) -> Word:
    """The i-th witness word; uses letters e1 .. e(2i+1), length 4i+1."""
    if i < 0:
        raise ValueError("witness index must be >= 0")
    return Word([1] + _chain_letters(i))


def commutator_chain(n: int) -> Word:
    """[e2,e3][e4,e5]...[e(2n),e(2n+1)]: the difference between a0 and a_n."""
    if n < 1:
        raise ValueError("chain length must be >= 1")
    return Word(_chain_letters(n))
