"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import json
import random
import time

import pytest

from ample.cli import main
from ample.sequence import commutator_chain, witness
from ample.stallings import (
    basis,
    build_core,
    conjugacy_intersection,
    contains,
    cyclic_core,
    enumerate_cyclic_classes,
    equals,
    intersect,
)
from ample.whitehead import WhiteheadAut, apply, enumerate_whitehead_autos, is_primitive, minimize
from ample.words import Word, parse_word, relabel

from conftest import all_reduced_words, naive_products, random_reduced_word
from relation_suites import run_e1_suite, run_e2_suite, run_e3_suite, run_e4_suite

W = parse_word


def _announce(name: str):
    print(f"\nACCEPTANCE {name}: PASS")


def _run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestAcceptance:
    def test_verify_ample_n1_to_n3(self, capsys):
        budgets = {1: 10.0, 2: 10.0, 3: 600.0}
        for n, budget in budgets.items():
            start = time.perf_counter()
            code, out = _run_cli(capsys, "verify-ample", "--n", str(n), "--json")
            elapsed = time.perf_counter() - start
            assert code == 0, f"verify-ample --n {n} exited {code}"
            assert elapsed < budget, f"n={n} took {elapsed:.1f}s > {budget}s"
            payload = json.loads(out)
            assert payload["overall"] == "pass"
            trace = payload["clauses"][0]["evidence"]["trace"]
            current = [W(t) for t in trace["start"]]
            for desc in trace["automorphisms"]:
                current = [apply(WhiteheadAut.from_descriptor(desc), w)
                           for w in current]
            assert [str(w) for w in current] == trace["end"]
            assert sum(len(w) for w in current) == trace["total_lengths"][-1]
        _announce("verify-ample n=1..3 exit 0 within budgets, traces replay")

    def test_nonprimitivity_certificates(self):
        expectations = {1: 4, 2: None, 3: None}  # exact value for n=1, >1 beyond
        for n, exact in expectations.items():
            scan_rank = 2 * n
            chain = relabel(commutator_chain(n), -1)
            trace = minimize([chain], scan_rank)
            if exact is not None:
                assert trace.minimal_total == exact
            assert trace.minimal_total > 1
            # exhaustive no-shortening scan at the minimum
            end = trace.end[0]
            for aut in enumerate_whitehead_autos(scan_rank):
                assert len(apply(aut, end)) >= trace.minimal_total
        _announce("non-primitivity of commutator chains n=1..3 certified")

    def test_witness_primitivity(self):
        for i in range(4):
            assert is_primitive(witness(i), 2 * i + 1), f"a_{i} must be primitive"
        _announce("witness words a_0..a_3 primitive in their ambient ranks")

    def test_subgroup_intersection_equalities(self):
        for i in (1, 2):
            h1 = build_core([witness(j) for j in range(i + 1)])
            h2 = build_core([witness(j) for j in range(i)] + [witness(i + 1)])
            h0 = build_core([witness(j) for j in range(i)])
            assert equals(intersect(h1, h2), h0), f"i={i} intersection equality"
        h1 = build_core([witness(0), witness(1)])
        bad = build_core([witness(1), witness(2)])
        assert not equals(intersect(h1, bad), build_core([witness(0)]))
        _announce("witness subgroup intersections (i=1,2) and negative control")

    def test_oracle_equivalences(self):
        rng = random.Random(0xFEED)
        discrepancies = 0

        membership_instances = 0
        while membership_instances < 100:
            rank_ = 2 if membership_instances % 4 else 3
            gens = [random_reduced_word(rng, rank_, rng.randint(1, 5))
                    for _ in range(rng.randint(0, 3))]
            g = build_core(gens)
            for p in naive_products(gens, 4):
                if not contains(g, p):
                    discrepancies += 1
            max_len = 6 if rank_ == 2 else 5
            members = {w for w in naive_products(basis(g), max_len)
                       if len(w) <= max_len}
            for w in all_reduced_words(rank_, max_len):
                if contains(g, w) != (w in members):
                    discrepancies += 1
            membership_instances += 1

        intersection_instances = 0
        while intersection_instances < 100:
            rank_ = 2 if intersection_instances % 4 else 3
            g1 = build_core([random_reduced_word(rng, rank_, rng.randint(1, 5))
                             for _ in range(rng.randint(0, 3))])
            g2 = build_core([random_reduced_word(rng, rank_, rng.randint(1, 5))
                             for _ in range(rng.randint(0, 3))])
            meet = intersect(g1, g2)
            max_len = 6 if rank_ == 2 else 5
            for w in all_reduced_words(rank_, max_len):
                if contains(meet, w) != (contains(g1, w) and contains(g2, w)):
                    discrepancies += 1
            intersection_instances += 1

        conjugacy_instances = 0
        while conjugacy_instances < 100:
            g1 = build_core([random_reduced_word(rng, 2, rng.randint(1, 4))
                             for _ in range(rng.randint(1, 2))])
            g2 = build_core([random_reduced_word(rng, 2, rng.randint(1, 4))
                             for _ in range(rng.randint(1, 2))])
            comps = conjugacy_intersection(g1, g2)
            common = (enumerate_cyclic_classes(cyclic_core(g1), 8)
                      & enumerate_cyclic_classes(cyclic_core(g2), 8))
            covered = set()
            for comp in comps:
                covered |= enumerate_cyclic_classes(cyclic_core(comp), 8)
            if common != covered:
                discrepancies += 1
            conjugacy_instances += 1

        assert discrepancies == 0
        assert membership_instances >= 100
        assert intersection_instances >= 100
        assert conjugacy_instances >= 100
        _announce("membership/intersection/conjugacy oracles: "
                  "300 instances, zero discrepancies")

    def test_basic_sort_property_suites(self, capsys):
        assert run_e1_suite(random.Random(1001), 1000) == 1000
        assert run_e2_suite(random.Random(1002), 1000) == 1000
        assert run_e3_suite(random.Random(1003), 1000) == 1000
        assert run_e4_suite(random.Random(1004), 1000) == 1000
        with pytest.raises(SystemExit) as exc:
            main(["basic-sort", "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        assert "uses only n" in help_text  # m-inertness quirk documented
        _announce("basic sorts E1-E4: 1000-case suites, E4 brute-force "
                  "agreement, --help documents the inert m")

    def test_catalog_validity(self):
        from ample.jsj import example_jsj, validate, witness_jsj_left, witness_jsj_right
        for n in (1, 2, 3):
            assert all(c.passed for c in validate(example_jsj(n)))
        for i in (1, 2, 3):
            assert all(c.passed for c in validate(witness_jsj_left(i)))
            assert all(c.passed for c in validate(witness_jsj_right(i)))
        _announce("catalog entries validate (example n<=3, witness i<=3)")

    def test_determinism(self, capsys):
        code1, out1 = _run_cli(capsys, "verify-ample", "--n", "2", "--json")
        code2, out2 = _run_cli(capsys, "verify-ample", "--n", "2", "--json")
        assert code1 == code2 == 0

        def scrub(text):
            payload = json.loads(text)
            for clause in payload["clauses"]:
                clause["millis"] = 0.0
            return json.dumps(payload, indent=2)

        assert scrub(out1) == scrub(out2)
        _announce("verify-ample --n 2 --json byte-identical modulo millis")
