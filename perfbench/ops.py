"""Operations the benchmark times, and the independent word algebra its
checks use.

An operation is one call (or a short fixed sequence of calls) into the
library whose output the benchmark can check without trusting the code
under test.  Checks run after the timed pass, with tracing inactive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional

# A failure matching this label is the standing E4 defect: a planted E4
# member whose a-root or c-root is not cyclically reduced, answered false
# because ``e4_exponent_bound`` divides by the root's full length.
E4_MISS = "e4-planted-miss"


@dataclass(frozen=True)
class Op:
    """One timed operation with its built-in output check.

    ``run`` performs the library call(s); ``check`` returns None when the
    output is right and a reason otherwise; ``fingerprint`` is compared
    byte for byte across passes; ``spec`` describes the inputs for the
    inputs digest.  ``known_defect`` labels a wrong answer that is a
    recorded standing defect rather than a new failure.
    """

    id: str
    kind: str
    spec: object
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    fingerprint: Callable[[object], str] = repr
    known_defect: Optional[str] = None


_MILLIS = re.compile(r'"millis": [-+0-9.eE]+')


def strip_millis(text: str) -> str:
    """Report text with every ``millis`` value blanked."""
    return _MILLIS.sub('"millis": 0', text)


# ---------------------------------------------------------------------------
# Independent free-group arithmetic on letter tuples (+k = e<k>, -k = E<k>)
# ---------------------------------------------------------------------------

def reduce(codes) -> tuple[int, ...]:
    out: list[int] = []
    for c in codes:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def inv(codes) -> tuple[int, ...]:
    return tuple(-c for c in reversed(codes))


def mul(*parts) -> tuple[int, ...]:
    return reduce(c for p in parts for c in p)


def pw(codes, k: int) -> tuple[int, ...]:
    if k < 0:
        codes, k = inv(codes), -k
    return reduce(tuple(codes) * k)


def comm(u, v) -> tuple[int, ...]:
    return mul(u, v, inv(u), inv(v))


def reads_loop(adj, codes, start: int = 0) -> bool:
    """True iff ``codes`` reads a closed path at ``start`` in a folded graph
    stored as a sequence of {letter: target} rows."""
    v = start
    for c in codes:
        v = adj[v].get(c)
        if v is None:
            return False
    return v == start
