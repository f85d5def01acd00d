"""Command-line front end.

Exit codes: 0 success / predicate true / verification pass; 1 predicate
false / verification fail; 2 usage error; 3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import imaginaries, jsj, stallings, whitehead
from .config import Config
from .verifier import ResourceLimitError, verify_ample
from .words import (
    Word,
    WordSyntaxError,
    format_word,
    invert,
    is_conjugate,
    multiply,
    parse_word,
)

E4_NOTE = ("note: the double-coset relation E4 is indexed by both m and n "
           "but its defining condition uses only n (powers of the two "
           "centralizer roots); m is accepted and reported, and never "
           "affects the verdict.")

SIDE_CONDITION_NOTE = ("side conditions are strict: trivial b-components "
                       "(E2/E3) or a/c-components (E4) make the relation "
                       "fail, identical tuples included.")


def _parse_words_arg(text: str) -> list[Word]:
    text = text.strip()
    if not text:
        return []
    return [parse_word(part) for part in text.split(";")]


def _compress_support(w: Word, rank: int) -> Word:
    """Relabel the word's distinct generator indices onto e1..e<k>."""
    if w.max_index() <= rank:
        return w
    support = sorted({abs(c) for c in w.letters})
    if len(support) > rank:
        raise ValueError(
            f"word uses {len(support)} distinct generators, rank is {rank}")
    mapping = {idx: new for new, idx in enumerate(support, start=1)}
    return Word(mapping[abs(c)] * (1 if c > 0 else -1) for c in w.letters)


def _bool_exit(value: bool) -> int:
    print("true" if value else "false")
    return 0 if value else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ample",
        description="Free-group toolkit and ampleness-sequence verifier.")
    sub = parser.add_subparsers(dest="command", required=True)

    word = sub.add_parser("word", help="reduced word algebra")
    word_sub = word.add_subparsers(dest="word_op", required=True)
    p = word_sub.add_parser("reduce", help="parse and freely reduce")
    p.add_argument("text")
    p = word_sub.add_parser("mul", help="product of the given words")
    p.add_argument("texts", nargs="+")
    p = word_sub.add_parser("inv", help="inverse word")
    p.add_argument("text")
    p = word_sub.add_parser("conj", help="are the two words conjugate?")
    p.add_argument("left")
    p.add_argument("right")

    subgroup = sub.add_parser("subgroup", help="Stallings graph queries "
                              "(generators: semicolon-separated words)")
    sg_sub = subgroup.add_subparsers(dest="subgroup_op", required=True)
    p = sg_sub.add_parser("build", help="fold and summarize the core graph")
    p.add_argument("generators")
    p = sg_sub.add_parser("member", help="is the word in the subgroup?")
    p.add_argument("generators")
    p.add_argument("word")
    p = sg_sub.add_parser("basis", help="free basis from a spanning tree")
    p.add_argument("generators")
    p = sg_sub.add_parser("rank", help="rank of the subgroup")
    p.add_argument("generators")
    p = sg_sub.add_parser("intersect", help="basis of the intersection")
    p.add_argument("generators")
    p.add_argument("generators2")

    p = sub.add_parser(
        "primitive", help="is the word primitive in F_rank?",
        epilog="a word whose generator indices exceed the rank is first "
               "relabelled onto e1..e<k> (k = number of distinct indices, "
               "which must be <= rank); primitivity is preserved by this.")
    p.add_argument("word")
    p.add_argument("--rank", type=int, required=True)

    p = sub.add_parser("minimize", help="greedy Whitehead descent trace")
    p.add_argument("words", nargs="+")
    p.add_argument("--rank", type=int, required=True)

    p = sub.add_parser(
        "basic-sort", help="basic equivalence relations E1-E4",
        epilog=E4_NOTE + " " + SIDE_CONDITION_NOTE)
    p.add_argument("--relation", choices=["e1", "e2", "e3", "e4"], required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("words", nargs="+",
                   help="2 words for e1, 4 for e2/e3 (a1 b1 a2 b2), "
                        "6 for e4 (a1 b1 c1 a2 b2 c2)")

    p = sub.add_parser("jsj", help="catalog decompositions")
    jsj_sub = p.add_subparsers(dest="jsj_op", required=True)
    p = jsj_sub.add_parser("show", help="print a catalog entry")
    p.add_argument("entry", choices=["example", "left", "right"])
    p.add_argument("--index", type=int, required=True,
                   help="n for example, i for left/right")
    p.add_argument("--format", choices=["text", "dot"], default="text")
    p.add_argument("--validate", action="store_true",
                   help="also run structural checks")

    p = sub.add_parser("verify-ample", help="check the four ampleness clauses")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--oracle-bound", type=int, default=None,
                   help="conjugacy cross-check length bound (default 8, "
                        "env AMPLE_ORACLE_BOUND)")
    p.add_argument("--max-rank", type=int, default=None,
                   help="largest allowed Whitehead scan rank; clause 1 at n "
                        "needs rank 2n (default 24, env AMPLE_MAX_RANK)")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    return parser


def _run_word(args) -> int:
    if args.word_op == "reduce":
        print(format_word(parse_word(args.text)))
        return 0
    if args.word_op == "mul":
        out = Word()
        for text in args.texts:
            out = multiply(out, parse_word(text))
        print(format_word(out))
        return 0
    if args.word_op == "inv":
        print(format_word(invert(parse_word(args.text))))
        return 0
    return _bool_exit(is_conjugate(parse_word(args.left), parse_word(args.right)))


def _run_subgroup(args) -> int:
    gens = _parse_words_arg(args.generators)
    graph = stallings.build_core(gens)
    if args.subgroup_op == "build":
        print(f"vertices={graph.num_vertices} edges={graph.num_edges} "
              f"rank={stallings.rank(graph)}")
        print("basis: " + "; ".join(format_word(w) for w in stallings.basis(graph)))
        return 0
    if args.subgroup_op == "member":
        return _bool_exit(stallings.contains(graph, parse_word(args.word)))
    if args.subgroup_op == "basis":
        print("; ".join(format_word(w) for w in stallings.basis(graph)))
        return 0
    if args.subgroup_op == "rank":
        print(stallings.rank(graph))
        return 0
    other = stallings.build_core(_parse_words_arg(args.generators2))
    meet = stallings.intersect(graph, other)
    print("; ".join(format_word(w) for w in stallings.basis(meet)))
    return 0


def _run_basic_sort(args) -> int:
    words = [parse_word(t) for t in args.words]
    arity = {"e1": 1, "e2": 2, "e3": 2, "e4": 3}[args.relation]
    if len(words) != 2 * arity:
        raise SystemExit(f"ample basic-sort: {args.relation} needs "
                         f"{2 * arity} words, got {len(words)}")
    left = tuple(words[:arity])
    right = tuple(words[arity:])
    query = imaginaries.CosetQuery(relation=args.relation.upper(),
                                   modulus_m=args.m, modulus_n=args.n,
                                   left=left, right=right)
    return _bool_exit(query.evaluate())


def _run_jsj(args) -> int:
    if args.entry == "example":
        graph = jsj.example_jsj(args.index)
    elif args.entry == "left":
        graph = jsj.witness_jsj_left(args.index)
    else:
        graph = jsj.witness_jsj_right(args.index)
    if args.format == "dot":
        sys.stdout.write(jsj.to_dot(graph))
    else:
        sys.stdout.write(jsj.serialize(graph))
    if args.validate:
        checks = jsj.validate(graph)
        for c in checks:
            detail = f" ({c.detail})" if c.detail else ""
            print(f"check {c.name}: {'pass' if c.passed else 'fail'}{detail}")
        if not all(c.passed for c in checks):
            return 1
    return 0


def _run_verify(args) -> int:
    config = Config.from_env(max_rank=args.max_rank,
                             oracle_bound=args.oracle_bound)
    try:
        report = verify_ample(args.n, config)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    if args.json:
        print(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.overall else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "word":
            return _run_word(args)
        if args.command == "subgroup":
            return _run_subgroup(args)
        if args.command == "primitive":
            w = _compress_support(parse_word(args.word), args.rank)
            return _bool_exit(whitehead.is_primitive(w, args.rank))
        if args.command == "minimize":
            words = [parse_word(t) for t in args.words]
            trace = whitehead.minimize(words, args.rank)
            for step, length in enumerate(trace.total_lengths):
                print(f"step {step}: total length {length}")
            print("end: " + "; ".join(format_word(w) for w in trace.end))
            return 0
        if args.command == "basic-sort":
            return _run_basic_sort(args)
        if args.command == "jsj":
            return _run_jsj(args)
        if args.command == "verify-ample":
            return _run_verify(args)
    except (WordSyntaxError, ValueError) as exc:
        print(f"ample: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
