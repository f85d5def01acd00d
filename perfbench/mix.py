"""The toolkit-mix workload: a seeded set of independent library queries,
each carrying the answer it must give by construction.

Many small words and graphs, and Whitehead scans at rank 3-4 where the
per-automorphism set-up dominates, so a change tuned to the ladders' large
inputs still shows here if it slows small queries.  Counts are weighted so
that no module takes much more than half of a pass.

Every query is drawn from a generator fixed per kind and then relabelled
by a signed permutation of the generators drawn from the workload seed.
A relabelling is an automorphism, so every planted answer still holds, and
it preserves lengths and cancellations, so every seed asks for the same
amount of work with different words.
"""

from __future__ import annotations

import random

from ample import imaginaries, jsj, stallings, whitehead, words

from ops import E4_MISS, Op, comm, inv, mul, pw, reads_loop, reduce

COUNTS = {
    "parse": 300, "conj": 240, "member": 360, "intersect": 240,
    "primitive": 60, "free_factor": 40, "e1": 160, "e2": 140, "e3": 140,
    "e4": 128, "jsj": 70,
}


# ---------------------------------------------------------------------------
# Random words
# ---------------------------------------------------------------------------

def _letters(rank: int) -> list[int]:
    return [c for k in range(1, rank + 1) for c in (k, -k)]


def _word(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    """Uniform freely reduced word of exactly ``length`` letters."""
    out: list[int] = []
    letters = _letters(rank)
    while len(out) < length:
        c = rng.choice(letters)
        if not out or c != -out[-1]:
            out.append(c)
    return tuple(out)


def _is_proper_power(codes: tuple[int, ...]) -> bool:
    n = len(codes)
    return any(n % p == 0 and codes == codes[:p] * (n // p) for p in range(1, n))


def _root(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    """Cyclically reduced word that is not a proper power."""
    while True:
        w = _word(rng, rank, length)
        if (len(w) == 1 or w[0] != -w[-1]) and not _is_proper_power(w):
            return w


def _conjugated_root(rng: random.Random, rank: int, length: int,
                     conjugator: int) -> tuple[int, ...]:
    """A root conjugated by a word of ``conjugator`` letters that survives
    reduction, so that the result is not cyclically reduced when
    ``conjugator`` > 0."""
    r = _root(rng, rank, length)
    if not conjugator:
        return r
    g = _word(rng, rank, conjugator - 1)
    last = [c for c in _letters(rank)
            if c not in (-r[0], r[-1]) and not (g and c == -g[-1])]
    g += (rng.choice(last),)
    return g + r + inv(g)


def _rotate(rng: random.Random, codes: tuple[int, ...]) -> tuple[int, ...]:
    k = rng.randrange(len(codes)) if codes else 0
    return codes[k:] + codes[:k]


def W(codes) -> words.Word:
    return words.Word(codes)


def _fmt(codes) -> str:
    return " ".join(f"e{c}" if c > 0 else f"E{-c}" for c in codes)


def _relabeller(rng: random.Random):
    """``relabel(rank)`` draws a signed permutation of e1..e<rank> and
    returns it as a map on letter tuples."""
    def relabel(rank: int):
        targets = list(range(1, rank + 1))
        rng.shuffle(targets)
        image = {k: t * rng.choice((1, -1)) for k, t in zip(range(1, rank + 1), targets)}
        return lambda codes: tuple(image[c] if c > 0 else -image[-c] for c in codes)
    return relabel


# ---------------------------------------------------------------------------
# Whitehead automorphisms, applied independently of the library
# ---------------------------------------------------------------------------

def _apply_cut(x: int, subset: set[int], codes) -> tuple[int, ...]:
    """Image under the cut automorphism (x, subset): y -> (x^-1 if y^-1 in
    subset) y (x if y in subset), x fixed."""
    out = []
    for y in codes:
        if abs(y) == abs(x):
            out.append(y)
            continue
        if -y in subset:
            out.append(-x)
        out.append(y)
        if y in subset:
            out.append(x)
    return reduce(out)


def _aut_images(rng: random.Random, rank: int, gens: list[tuple[int, ...]],
                total: int) -> list[tuple[int, ...]]:
    """Images of ``gens`` under a product of random cut automorphisms whose
    lengths add up to exactly ``total``."""
    letters = _letters(rank)
    while True:
        images = gens
        for _ in range(4):
            x = rng.choice(letters)
            subset = {x} | {c for c in letters if abs(c) != abs(x) and rng.random() < 0.5}
            images = [_apply_cut(x, subset, g) for g in images]
            length = sum(len(g) for g in images)
            if length == total:
                return images
            if length > total:
                break


# ---------------------------------------------------------------------------
# Query kinds.  Each function returns the Op fields of one query.
# ---------------------------------------------------------------------------

def _planted(spec, run, truth, known_defect=None) -> dict:
    def check(out):
        return None if out == truth else f"answered {out!r}, planted {truth!r}"
    return dict(spec=spec, run=run, check=check, known_defect=known_defect)


def _expr(size, sigma, depth: int) -> tuple[str, tuple[int, ...]]:
    """Random word text with commutator and power sugar, and its value."""
    parts_text, parts_val = [], []
    for _ in range(size.randint(1, 3)):
        choice = size.random() if depth > 0 else 0.0
        if choice < 0.4:
            w = sigma(_word(size, 4, size.randint(1, 4)))
            parts_text.append(_fmt(w))
            parts_val.append(w)
        elif choice < 0.7:
            (ut, uv), (vt, vv) = _expr(size, sigma, depth - 1), _expr(size, sigma, depth - 1)
            parts_text.append(f"[{ut}, {vt}]")
            parts_val.append(comm(uv, vv))
        else:
            (ut, uv), m = _expr(size, sigma, depth - 1), size.choice([-3, -2, -1, 2, 3])
            parts_text.append(f"( {ut} )^{m}")
            parts_val.append(pw(uv, m))
    return " ".join(parts_text), mul(*parts_val)


def _q_parse(size, relabel, i):
    text, value = _expr(size, relabel(4), 2)
    return _planted((text,), lambda: words.parse_word(text).letters, value)


def _conjugate_pair(size, relabel, i, max_len: int):
    """(u, v) with v a conjugate of a rotation of u, or v = u^2 (never
    conjugate to u) for every third i."""
    sigma = relabel(3)
    u = _word(size, 3, size.randint(3, max_len))
    if i % 3 == 0:
        return sigma(u), sigma(pw(u, 2)), False
    g = _word(size, 3, size.randint(0, 5))
    return sigma(u), sigma(mul(g, _rotate(size, u), inv(g))), True


def _q_conj(size, relabel, i):
    u, v, truth = _conjugate_pair(size, relabel, i, 10)
    wu, wv = W(u), W(v)
    return _planted((u, v), lambda: words.is_conjugate(wu, wv), truth)


def _q_e1(size, relabel, i):
    u, v, truth = _conjugate_pair(size, relabel, i, 8)
    wu, wv = W(u), W(v)
    return _planted((u, v), lambda: imaginaries.e1_conjugation(wu, wv), truth)


def _q_member(size, relabel, i):
    """A product of the generators is a member; a word through a letter no
    generator uses (every fifth query) is not."""
    rank = size.choice([3, 4])
    sigma = relabel(rank)
    lengths = [size.randint(2, 8) for _ in range(size.randint(2, 4))]
    if i % 5:
        gens = [_word(size, rank, n) for n in lengths]
        target = mul(*(pw(gens[size.randrange(len(gens))], size.choice([-1, 1]))
                       for _ in range(size.randint(3, 6))))
        truth = True
    else:
        gens = [_word(size, rank - 1, n) for n in lengths]
        target = mul(gens[0], (rank,), gens[-1])
        truth = False
    gens, target = [sigma(g) for g in gens], sigma(target)
    wgens, wt = [W(g) for g in gens], W(target)

    def run():
        return stallings.contains(stallings.build_core(wgens), wt)
    return _planted((gens, target), run, truth)


def _q_intersect(size, relabel, i):
    """Two subgroups sharing a generator: the intersection must contain it,
    and every word of its basis must lie in both parents."""
    sigma = relabel(3)
    common = sigma(_word(size, 3, size.randint(2, 6)))
    left = [common] + [sigma(_word(size, 3, size.randint(2, 8))) for _ in range(2)]
    right = [common] + [sigma(_word(size, 3, size.randint(2, 8))) for _ in range(2)]
    wl, wr = [W(g) for g in left], [W(g) for g in right]

    def run():
        g1, g2 = stallings.build_core(wl), stallings.build_core(wr)
        meet = stallings.intersect(g1, g2)
        return g1, g2, meet, tuple(b.letters for b in stallings.basis(meet))

    def check(out):
        g1, g2, meet, basis = out
        if not reads_loop(meet.adj, common):
            return "shared generator missing from the intersection"
        if not basis:
            return "intersection basis is empty"
        for b in basis:
            if not (reads_loop(g1.adj, b) and reads_loop(g2.adj, b)):
                return f"basis word {_fmt(b)} not in both parents"
        return None

    return dict(spec=(left, right), run=run, check=check,
                fingerprint=lambda out: repr((out[2].adj, out[3])))


def _q_primitive(size, relabel, i):
    """The image of a letter under random Whitehead automorphisms is
    primitive; its square (every fourth query) is not."""
    rank = 3 if i % 3 else 4
    (w,) = _aut_images(size, rank, [(size.choice(_letters(rank)),)], size.randint(4, 9))
    truth = i % 4 != 3
    w = relabel(rank)(w if truth else pw(w, 2))
    ww = W(w)
    return _planted((rank, w), lambda: whitehead.is_primitive(ww, rank), truth)


def _q_free_factor(size, relabel, i):
    """The images of e1, e2 generate a free factor; with the first squared
    (every fourth query) they do not, since free factors are root-closed."""
    rank = size.choice([3, 4])
    x, y = _aut_images(size, rank, [(1,), (2,)], size.randint(4, 8))
    truth = i % 4 != 3
    sigma = relabel(rank)
    x, y = sigma(x if truth else pw(x, 2)), sigma(y)
    pair = [W(x), W(y)]
    return _planted((rank, x, y),
                    lambda: whitehead.is_free_factor_tuple(pair, rank), truth)


def _q_coset(size, relabel, i, left: bool):
    """E2 (left) or E3: b1, b2 are powers of one root (conjugated for odd
    i); a2 differs from a1 by root^e, a member iff m divides e."""
    m = size.randint(1, 3) if i % 3 else size.randint(2, 3)
    root = _conjugated_root(size, 3, size.randint(1, 3), size.randint(1, 2) * (i % 2))
    b1 = pw(root, size.choice([-2, -1, 1, 2, 3]))
    b2 = pw(root, size.choice([-3, -1, 1, 2]))
    a1 = _word(size, 3, size.randint(0, 6))
    exp = m * size.randint(-3, 3) + (0 if i % 3 else 1)
    a2 = mul(a1, pw(root, exp)) if left else mul(pw(root, -exp), a1)
    sigma = relabel(3)
    a1, b1, a2, b2 = (sigma(w) for w in (a1, b1, a2, b2))
    p1, p2 = (W(a1), W(b1)), (W(a2), W(b2))
    name = "e2_left_coset" if left else "e3_right_coset"

    def run():
        return getattr(imaginaries, name)(m, p1, p2)
    return _planted((m, a1, b1, a2, b2), run, exp % m == 0)


E4_SMALL = (-2, -1, 0, 1, 2)
E4_LARGE = (-10, -9, -8, -7, 7, 8, 9, 10)


def _q_e4(size, relabel, i):
    """b2 = ra^(n k) b1 rc^(n l) is always a member.  Bit 0 of i conjugates
    the a-root and bit 1 the c-root; bit 2 makes k large and bit 3 makes l
    large.  A large exponent on a conjugated root can exceed
    ``e4_exponent_bound``, which divides by the root's full length although
    each power adds only its cyclic core: that miss is the standing defect.
    Small exponents are always inside the bound, and so is any exponent on
    a cyclically reduced root."""
    conj_a, conj_c, large_k, large_l = (bool(i >> bit & 1) for bit in range(4))
    k = size.choice(E4_LARGE if large_k else E4_SMALL)
    l = size.choice(E4_LARGE if large_l else E4_SMALL)
    n, m = size.randint(1, 3), size.randint(1, 3)
    ra = _conjugated_root(size, 4, size.randint(1, 3), size.randint(1, 3) * conj_a)
    rc = _conjugated_root(size, 4, size.randint(1, 3), size.randint(1, 3) * conj_c)
    a1, a2 = (pw(ra, size.choice([-2, -1, 1, 2])) for _ in range(2))
    c1, c2 = (pw(rc, size.choice([-2, -1, 1, 2])) for _ in range(2))
    b1 = _word(size, 4, size.randint(1, 5))
    b2 = mul(pw(ra, n * k), b1, pw(rc, n * l))
    sigma = relabel(4)
    a1, b1, c1, a2, b2, c2 = (sigma(w) for w in (a1, b1, c1, a2, b2, c2))
    t1, t2 = (W(a1), W(b1), W(c1)), (W(a2), W(b2), W(c2))
    defect = E4_MISS if (conj_a and large_k) or (conj_c and large_l) else None

    def run():
        return imaginaries.e4_double_coset(m, n, t1, t2)
    return _planted((m, n, a1, b1, c1, a2, b2, c2, k, l), run, True, defect)


def _q_jsj(size, relabel, i):
    """Catalog entries pass every structural check, and their acl vertex
    group contains the words the entry is relative to."""
    kind = ("example", "left", "right", "singleton")[i % 4]
    if kind == "example":
        index = size.randint(1, 3)
        entry = jsj.example_jsj(index)
    elif kind == "left":
        index = size.randint(1, 5)
        entry = jsj.witness_jsj_left(index)
    elif kind == "right":
        index = size.randint(1, 5)
        entry = jsj.witness_jsj_right(index)
    else:
        index = relabel(3)(_root(size, 3, size.randint(2, 6)))
        entry = jsj.singleton_jsj(W(index))
    relative = [w.letters for w in entry.relative_to]

    def run():
        checks = jsj.validate(entry)
        return tuple((c.name, c.passed) for c in checks), jsj.acl_from_catalog(entry)

    def check(out):
        checks, acl = out
        failed = [name for name, ok in checks if not ok]
        if failed:
            return f"catalog checks failed: {failed}"
        if not all(reads_loop(acl.adj, w) for w in relative):
            return "acl vertex group misses a relative word"
        return None

    return dict(spec=(kind, index), run=run, check=check,
                fingerprint=lambda out: repr((out[0], out[1].adj)))


QUERY_KINDS = {
    "parse": _q_parse, "conj": _q_conj, "member": _q_member,
    "intersect": _q_intersect, "primitive": _q_primitive,
    "free_factor": _q_free_factor, "e1": _q_e1,
    "e2": lambda size, relabel, i: _q_coset(size, relabel, i, True),
    "e3": lambda size, relabel, i: _q_coset(size, relabel, i, False),
    "e4": _q_e4, "jsj": _q_jsj,
}


def build_toolkit_mix(seed: int) -> list[Op]:
    rng = random.Random(seed)
    relabel = _relabeller(rng)
    queries = []
    for kind, count in COUNTS.items():
        size = random.Random(f"toolkit-mix/{kind}")
        queries.extend((kind, QUERY_KINDS[kind](size, relabel, i)) for i in range(count))
    rng.shuffle(queries)
    return [Op(id=f"q{i:04d}", kind=kind, **fields)
            for i, (kind, fields) in enumerate(queries)]
