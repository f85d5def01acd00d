"""Mechanical checker for the four ampleness clauses on the witnessing
sequence a0 = e1, a(i+1) = a(i) [e(2i+2), e(2i+3)].

Clause 1 (a0 forks with a_n) is certified through non-primitivity of the
commutator chain: only non-primitivity is machine-checked, the forking
conclusion rides on the classical chain non-primitive => non-generic =>
forks.  Clause 2 is certificate-checked through an explicit free
factorization separating the two sides.  Clauses 3 and 4 split the
imaginary-closure equality into a real part (subgroup intersection of
Stallings graphs) and a conjugacy part (fiber product of cyclic cores),
which is how the equality is decided without ever modelling imaginary
sorts directly.

Conjugacy parts record per component whether it immerses into the cyclic
core of the expected meet h0 (a single-conjugator certificate; a component
that does not immerse fails the clause, and in clause 3, whose h0 is
trivial, every component does) plus a bounded-length enumeration
cross-check whose bound L is always recorded: the classes of length <= L
the two cyclic cores share, listed component by component, each once as
its least rotation, must each read a closed path in the cyclic core of h0.
Reports state what was checked, they do not claim unconditional proof of
the conjugacy-closure equality.

Every clause runs in time polynomial in n (clause 1 solves one max-flow per
letter of F_2n), so the one size limit is the catalog letter cap that
clause 4's entries meet (``jsj.cap_witness_entries``: n <= 223).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .config import Config
from .jsj import (acl_from_catalog, cap_witness_entries, singleton_jsj,
                  witness_jsj_left, witness_jsj_right)
from .sequence import commutator_chain, witness
from .stallings import (SubgroupGraph, _letter_index, basis, build_core, conjugacy_intersection,
                        contains, cyclic_core, enumerate_cyclic_classes, equals, immerses_into,
                        intersect, is_conjugate_into, reads_closed_path)
from .whitehead import MinimizationTrace, is_basis, minimize
from .words import Word, format_word, relabel

CLAUSE1_METHOD = "whitehead-non-primitivity"
CLAUSE2_METHOD = "certificate-checked (free-factorization criterion)"
ACL_METHOD = "stallings-intersection + conjugacy-fiber-product + bounded-oracle"


@dataclass(frozen=True)
class ForksResult:
    passed: bool
    rank: int
    word: Word
    trace: MinimizationTrace
    millis: float

    def to_clause(self) -> dict:
        return {
            "id": "clause1",
            "status": "pass" if self.passed else "fail",
            "method": CLAUSE1_METHOD,
            "evidence": {
                "word": format_word(self.word),
                "rank": self.rank,
                "minimal_orbit_length": self.trace.minimal_total,
                "trace": self.trace.to_dict(),
            },
            "bound": None,
            "millis": self.millis,
        }


@dataclass(frozen=True)
class FactorizationResult:
    passed: bool
    i: int
    basis_ok: bool
    lower_memberships: tuple[bool, ...]
    upper_membership: bool
    tuple_words: tuple[Word, ...]
    millis: float

    def to_clause(self) -> dict:
        return {
            "id": f"clause2.i{self.i}",
            "status": "pass" if self.passed else "fail",
            "method": CLAUSE2_METHOD,
            "evidence": {
                "basis_tuple": [format_word(w) for w in self.tuple_words],
                "basis_ok": self.basis_ok,
                "lower_words_in_left_factor": list(self.lower_memberships),
                "next_word_in_right_factor": self.upper_membership,
            },
            "bound": None,
            "millis": self.millis,
        }


@dataclass(frozen=True)
class AclResult:
    passed: bool
    clause_id: str
    real_ok: bool
    conjugacy_ok: bool
    component_reports: tuple[dict, ...]
    oracle_common_classes: int
    oracle_ok: bool
    bound: int
    millis: float
    extra: dict

    def to_clause(self) -> dict:
        evidence = {
            "real_intersection_ok": self.real_ok,
            "conjugacy_ok": self.conjugacy_ok,
            "components": list(self.component_reports),
            "oracle_common_classes": self.oracle_common_classes,
            "oracle_ok": self.oracle_ok,
        }
        evidence.update(self.extra)
        return {
            "id": self.clause_id,
            "status": "pass" if self.passed else "fail",
            "method": ACL_METHOD,
            "evidence": evidence,
            "bound": self.bound,
            "millis": self.millis,
        }


def _vacuous(clause_id: str) -> dict:
    return {"id": clause_id, "status": "vacuous",
            "method": "not applicable at n=1", "evidence": {},
            "bound": None, "millis": 0.0}


@dataclass(frozen=True)
class VerificationReport:
    n: int
    clause1: ForksResult
    clause2: tuple[FactorizationResult, ...]
    clause3: AclResult
    clause4: tuple[AclResult, ...]
    overall: bool

    def clause_dicts(self) -> list[dict]:
        clauses = [self.clause1.to_clause()]
        if self.n == 1:
            clauses.append(_vacuous("clause2"))
        else:
            clauses.extend(r.to_clause() for r in self.clause2)
        clauses.append(self.clause3.to_clause())
        if self.n == 1:
            clauses.append(_vacuous("clause4"))
        else:
            clauses.extend(r.to_clause() for r in self.clause4)
        return clauses

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "clauses": self.clause_dicts(),
            "overall": "pass" if self.overall else "fail",
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_text(self) -> str:
        lines = []
        for clause in self.clause_dicts():
            bound = f" bound={clause['bound']}" if clause["bound"] is not None else ""
            lines.append(f"{clause['id']:<12} {clause['status']:<8} "
                         f"method={clause['method']}{bound} "
                         f"({clause['millis']:.0f} ms)")
        lines.append(f"overall: {'pass' if self.overall else 'fail'}")
        return "\n".join(lines) + "\n"


REPORT_SCHEMA = {
    "type": "object",
    "required": ["n", "clauses", "overall"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "clauses": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "status", "method", "evidence", "bound", "millis"],
                "properties": {
                    "id": {"type": "string"},
                    "status": {"enum": ["pass", "fail", "vacuous"]},
                    "method": {"type": "string"},
                    "evidence": {"type": "object"},
                    "bound": {"type": ["integer", "null"]},
                    "millis": {"type": "number"},
                },
            },
        },
        "overall": {"enum": ["pass", "fail"]},
    },
}


# ---------------------------------------------------------------------------
# Clause checks
# ---------------------------------------------------------------------------

def check_clause1(n: int) -> ForksResult:
    """a0 forks with a_n: the commutator chain a0^-1 a_n, relabelled onto
    e1..e(2n), must not be primitive; the minimization trace is the evidence."""
    if n < 1:
        raise ValueError("n must be >= 1")
    start = time.perf_counter()
    chain = commutator_chain(n)
    relabelled = relabel(chain, -1)
    trace = minimize([relabelled], 2 * n)
    millis = (time.perf_counter() - start) * 1000
    return ForksResult(passed=trace.minimal_total > 1, rank=2 * n,
                       word=chain, trace=trace, millis=millis)


def check_clause2(i: int) -> FactorizationResult:
    """The free factorization splitting a(i+1) from a0..a(i-1) over <a_i>:
    (e2..e(2i+1), a_i, e(2i+2), e(2i+3)) is a basis, the earlier witness
    words lie in the left factor and a(i+1) lies in the right factor."""
    if i < 1:
        raise ValueError("i must be >= 1")
    start = time.perf_counter()
    a_i = witness(i)
    middle_letters = [Word((k,)) for k in range(2, 2 * i + 2)]
    tail_letters = [Word((2 * i + 2,)), Word((2 * i + 3,))]
    tuple_words = tuple(middle_letters + [a_i] + tail_letters)
    basis_ok = is_basis(tuple_words, 2 * i + 3)
    left = build_core(middle_letters + [a_i])
    lower = tuple(contains(left, witness(j)) for j in range(i))
    right = build_core([a_i] + tail_letters)
    upper = contains(right, witness(i + 1))
    millis = (time.perf_counter() - start) * 1000
    return FactorizationResult(passed=basis_ok and all(lower) and upper,
                               i=i, basis_ok=basis_ok, lower_memberships=lower,
                               upper_membership=upper, tuple_words=tuple_words,
                               millis=millis)


def _conjugacy_part(h1: SubgroupGraph, h2: SubgroupGraph, h0: SubgroupGraph,
                    bound: int) -> tuple[bool, tuple[dict, ...], int, bool]:
    """Check that every conjugacy class meeting both h1 and h2 is conjugate
    into h0: each component of the conjugacy fiber product must immerse into,
    and each class of length <= bound it reads must read a closed path in,
    the cyclic core of h0; returns (ok, component reports, class count, oracle ok)."""
    h0_core = cyclic_core(h0)
    components = conjugacy_intersection(h1, h2)
    reports = tuple({"component": idx, "method": "component-immersion",
                     "ok": immerses_into(comp, h0_core),
                     "witness": format_word(basis(comp)[0])}
                    for idx, comp in enumerate(components))
    common = set().union(*(enumerate_cyclic_classes(comp, bound) for comp in components))
    leaves = _letter_index(h0_core)
    oracle_ok = all(reads_closed_path(h0_core, c, leaves.get(c[0], ())) for c in common)
    return all(r["ok"] for r in reports) and oracle_ok, reports, len(common), oracle_ok


def _check_acl(clause_id: str, h1: SubgroupGraph, h2: SubgroupGraph, h0: SubgroupGraph,
               config: Config, start: float, extra: dict[str, bool]) -> AclResult:
    """An acl^eq equality, timed from ``start``: h1 and h2 intersect in h0
    (real part), every conjugacy class meeting both is conjugate into h0
    (conjugacy part), and every check in ``extra`` holds."""
    real_ok = equals(intersect(h1, h2), h0)
    conj_ok, reports, common_count, oracle_ok = _conjugacy_part(
        h1, h2, h0, config.oracle_bound)
    millis = (time.perf_counter() - start) * 1000
    return AclResult(passed=real_ok and conj_ok and all(extra.values()),
                     clause_id=clause_id, real_ok=real_ok,
                     conjugacy_ok=conj_ok, component_reports=reports,
                     oracle_common_classes=common_count, oracle_ok=oracle_ok,
                     bound=config.oracle_bound, millis=millis, extra=extra)


def check_clause3(config: Config = Config()) -> AclResult:
    """acl^eq(a0) and acl^eq(a1) meet trivially: the Stallings intersection
    of <a0> and <a1> is trivial and the two cyclic cores share no conjugacy
    class (the trivial group's cyclic core is the one-vertex graph with no
    arc, so any component of the fiber product or class found by the
    bounded oracle fails the clause)."""
    start = time.perf_counter()
    g1 = acl_from_catalog(singleton_jsj(witness(0)))
    g2 = acl_from_catalog(singleton_jsj(witness(1)))
    return _check_acl("clause3", g1, g2, build_core([]), config, start, {})


def check_clause4(i: int, config: Config = Config()) -> AclResult:
    """acl^eq of (a0..a_i) and of (a0..a(i-1), a(i+1)) meet in acl^eq of
    (a0..a(i-1)): real part via Stallings intersection of the catalog
    closures, conjugacy part via the fiber product of cyclic cores."""
    if i < 1:
        raise ValueError("i must be >= 1")
    start = time.perf_counter()
    h1 = acl_from_catalog(witness_jsj_left(i))
    h2 = acl_from_catalog(witness_jsj_right(i))
    h0 = build_core([witness(j) for j in range(i)])
    trivial_inclusion = all(
        is_conjugate_into(b, h1) and is_conjugate_into(b, h2) for b in basis(h0))
    return _check_acl(f"clause4.i{i}", h1, h2, h0, config, start,
                      {"h0_basis_conjugate_into_both": trivial_inclusion})


def verify_ample(n: int, config: Config = Config()) -> VerificationReport:
    """Run all four clause checks for the given n and aggregate the report.

    For n = 1 clauses 2 and 4 are vacuous and reported as such.  The one
    size limit, the catalog letter cap that clause 4 meets at i = n - 1
    (n <= 223), is checked before any clause runs and raises ``ValueError``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 1:
        cap_witness_entries(n - 1)
    clause1 = check_clause1(n)
    clause2 = tuple(check_clause2(i) for i in range(1, n))
    clause3 = check_clause3(config)
    clause4 = tuple(check_clause4(i, config) for i in range(1, n))
    overall = (clause1.passed and clause3.passed
               and all(r.passed for r in clause2)
               and all(r.passed for r in clause4))
    return VerificationReport(n=n, clause1=clause1, clause2=clause2,
                              clause3=clause3, clause4=clause4,
                              overall=overall)
