"""The two ladder workloads: the user-facing ``verify-ample`` command, and
the verifier's clause 2-4 checks called directly at a larger oracle bound.

Both ladders are fixed by their definition, so the seed changes nothing
here; their steps run in ladder order every pass.
"""

from __future__ import annotations

import contextlib
import io
import json

from ample import cli, verifier, whitehead, words
from ample.config import Config

from ops import Op, strip_millis

VERIFY_NS = (1, 2, 3, 4)

ACL_BOUND = 10
ACL_IS = tuple(range(1, 8))
# oracle_common_classes at L = 10, as the verifier computes them today.
ACL_COMMON_CLASSES = {"clause3": 0, "clause4.i1": 20, "clause4.i2": 66,
                      "clause4.i3": 164, "clause4.i4": 314, "clause4.i5": 516,
                      "clause4.i6": 770, "clause4.i7": 1076}


# ---------------------------------------------------------------------------
# verify-ladder
# ---------------------------------------------------------------------------

def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _expected_clause_ids(n: int) -> set[str]:
    if n == 1:
        return {"clause1", "clause2", "clause3", "clause4"}
    return ({"clause1", "clause3"}
            | {f"clause2.i{i}" for i in range(1, n)}
            | {f"clause4.i{i}" for i in range(1, n)})


def _check_clause1_trace(n: int, clause: dict) -> str | None:
    """Replay the minimisation trace: it must start from the relabelled
    chain [e1,e2]...[e(2n-1),e(2n)], shorten strictly at every step, end at
    the reported tuple and stay longer than one letter."""
    trace = clause["evidence"]["trace"]
    chain: tuple[int, ...] = ()
    for j in range(1, n + 1):
        chain += (2 * j - 1, 2 * j, -(2 * j - 1), -2 * j)
    current = [words.parse_word(text) for text in trace["start"]]
    if [w.letters for w in current] != [chain]:
        return "clause1 trace does not start at the commutator chain"
    lengths = trace["total_lengths"]
    if lengths[0] != sum(len(w) for w in current):
        return "clause1 trace start length mismatch"
    if len(lengths) != len(trace["automorphisms"]) + 1:
        return "clause1 trace has one length per step plus the start"
    for step, desc in enumerate(trace["automorphisms"], start=1):
        aut = whitehead.WhiteheadAut.from_descriptor(desc)
        current = [whitehead.apply(aut, w) for w in current]
        if sum(len(w) for w in current) != lengths[step]:
            return f"clause1 replay length differs at step {step}"
        if lengths[step] >= lengths[step - 1]:
            return f"clause1 trace does not shorten at step {step}"
    if [str(w) for w in current] != trace["end"]:
        return "clause1 replay does not reproduce the end tuple"
    if lengths[-1] <= 1:
        return "clause1 minimal total is not > 1"
    return None


def _verify_check(n: int):
    def check(out) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        if report["n"] != n or report["overall"] != "pass":
            return f"overall {report['overall']!r} for n={report['n']}"
        clauses = report["clauses"]
        ids = {c["id"] for c in clauses}
        if ids != _expected_clause_ids(n) or len(ids) != len(clauses):
            return f"clause ids {sorted(ids)}"
        bad = [c["id"] for c in clauses if c["status"] not in ("pass", "vacuous")]
        if bad:
            return f"clauses not passing: {bad}"
        return _check_clause1_trace(n, next(c for c in clauses if c["id"] == "clause1"))
    return check


def build_verify_ladder() -> list[Op]:
    """``ample verify-ample --n N --json`` in-process for N = 1..4."""
    ops = []
    for n in VERIFY_NS:
        argv = ["verify-ample", "--n", str(n), "--json"]
        ops.append(Op(id=f"verify.n{n}", kind="verify-ample", spec=argv,
                      run=lambda argv=argv: _run_cli(argv),
                      check=_verify_check(n),
                      fingerprint=lambda out: f"{out[0]}\n{strip_millis(out[1])}"))
    return ops


# ---------------------------------------------------------------------------
# acl-ladder
# ---------------------------------------------------------------------------

def _clause_fingerprint(result) -> str:
    clause = dict(result.to_clause())
    clause.pop("millis")
    return json.dumps(clause, sort_keys=True)


def _acl_check(clause_id: str):
    def check(result) -> str | None:
        clause = result.to_clause()
        if clause["id"] != clause_id:
            return f"clause id {clause['id']!r}"
        if not result.passed or clause["status"] != "pass":
            return f"{clause_id} status {clause['status']}"
        want = ACL_COMMON_CLASSES.get(clause_id)
        if want is not None and result.oracle_common_classes != want:
            return (f"{clause_id} oracle_common_classes "
                    f"{result.oracle_common_classes} != {want}")
        return None
    return check


def build_acl_ladder() -> list[Op]:
    """check_clause3 plus check_clause2(i) and check_clause4(i) for
    i = 1..7 at oracle bound L = 10."""
    config = Config(oracle_bound=ACL_BOUND)
    steps = [("clause3", lambda: verifier.check_clause3(config))]
    for i in ACL_IS:
        steps.append((f"clause2.i{i}", lambda i=i: verifier.check_clause2(i)))
        steps.append((f"clause4.i{i}", lambda i=i: verifier.check_clause4(i, config)))
    return [Op(id=clause_id, kind=clause_id.split(".")[0],
               spec=[clause_id, ACL_BOUND], run=run, check=_acl_check(clause_id),
               fingerprint=_clause_fingerprint)
            for clause_id, run in steps]
