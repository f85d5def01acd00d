import argparse
import gc
import hashlib
import json
import random
import re
import runpy
import sys
import time
import tracemalloc
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ample import cli, verifier, whitehead
from ample.cli import main
from ample.config import Config
from ample.verifier import REPORT_SCHEMA
from ample.words import Word, format_word, multiply, parse_word

from conftest import random_reduced_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(code: int, out: str, err: str, prefix: str = "ample: ") -> None:
    assert code == 2 and out == ""
    assert err.startswith(prefix) and err.count("\n") == 1
    assert "Traceback" not in err


def spy_scan_ranks(monkeypatch) -> list[int]:
    """Record the rank of every Whitehead descent the CLI starts."""
    ranks: list[int] = []
    original = whitehead.minimize

    def spy(words, rank):
        ranks.append(rank)
        return original(words, rank)

    monkeypatch.setattr(whitehead, "minimize", spy)
    return ranks


def scrub_millis(payload: dict) -> dict:
    clone = json.loads(json.dumps(payload))
    for clause in clone["clauses"]:
        clause["millis"] = 0.0
    return clone


class TestWordCommands:
    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "word", "reduce", "e1 E1 e2")
        assert code == 0 and out.strip() == "e2"

    def test_mul(self, capsys):
        code, out, _ = run(capsys, "word", "mul", "e1 e2", "E2 e3")
        assert code == 0 and out.strip() == "e1 e3"

    def test_inv(self, capsys):
        code, out, _ = run(capsys, "word", "inv", "[e2,e3]")
        assert code == 0 and out.strip() == "e3 e2 E3 E2"

    def test_conj(self, capsys):
        code, out, _ = run(capsys, "word", "conj", "e1 e2", "e2 e1")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(capsys, "word", "conj", "e1", "e2")
        assert code == 1 and out.strip() == "false"

    def test_syntax_error_is_usage_error(self, capsys):
        code, _, err = run(capsys, "word", "reduce", "x1")
        assert code == 2 and "ample:" in err

    def test_non_decimal_digit_is_usage_error(self, capsys):
        code, out, err = run(capsys, "primitive", "--rank", "2", "e²")
        assert_usage_error(code, out, err)
        assert "missing index at position 0" in err

    def test_deep_nesting_is_usage_error(self, capsys):
        code, out, err = run(capsys, "word", "reduce", "(" * 600 + "e1" + ")^1" * 600)
        assert code == 2 and out == ""
        assert err.startswith("ample: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "(" * 200 + "e1 e2" + ")^2" * 200,
        "[" * 60 + "e1" + "".join(f",e{i % 5 + 2}]" for i in range(60)),
    ])
    def test_expansion_blowup_is_usage_error(self, capsys, text):
        start = time.perf_counter()
        code, out, err = run(capsys, "word", "reduce", text)
        assert time.perf_counter() - start < 10
        assert code == 2 and out == ""
        assert err.startswith("ample: word expands to more than")
        assert err.count("\n") == 1


class TestParser:
    def test_no_parser_garbage_per_call(self, capsys):
        main(["word", "reduce", "e1"])
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(2):
                main(["word", "reduce", "e1 E1 e2"])
            gc.collect()
            leaked = [o for o in gc.garbage if type(o).__name__ == "HelpFormatter"]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        capsys.readouterr()
        assert leaked == []


class TestSubgroupCommands:
    def test_member(self, capsys):
        code, out, _ = run(capsys, "subgroup", "member", "e1 e2; e2", "e1")
        assert code == 0 and out.strip() == "true"

    def test_rank_and_basis(self, capsys):
        code, out, _ = run(capsys, "subgroup", "rank", "e1 e2; e2")
        assert code == 0 and out.strip() == "2"
        code, out, _ = run(capsys, "subgroup", "basis", "e1 e2; e2")
        assert code == 0 and out.strip() == "e1; e2"

    def test_intersect(self, capsys):
        code, out, _ = run(capsys, "subgroup", "intersect", "e1; e2", "e2; e3")
        assert code == 0 and out.strip() == "e2"

    def test_build_summary(self, capsys):
        code, out, _ = run(capsys, "subgroup", "build", "e1; e2")
        assert code == 0 and "rank=2" in out

    # sha256 of `subgroup basis` and `subgroup intersect` stdout and exit
    # codes over seeded random generator tuples; basis words are listed in
    # BFS order, so this pins the order in which the folded rows are walked
    SUBGROUP_DIGEST = "ee805dd79dd9cd66286b412ca94a6a211ec8c72a6281668cbef23ffbb59a0078"

    def test_subgroup_bytes_pinned(self, capsys):
        rng = random.Random(0x5AB6)
        digest = hashlib.sha256()
        for _ in range(300):
            rank_ = rng.randint(1, 4)
            gens = [random_reduced_word(rng, rank_, rng.randint(1, 8))
                    for _ in range(rng.randint(1, 4))]
            # products of the first tuple's generators, so that the two
            # subgroups often meet nontrivially, and one random word
            others = [multiply(rng.choice(gens), rng.choice(gens))
                      for _ in range(rng.randint(0, 2))]
            others.append(random_reduced_word(rng, rank_, rng.randint(1, 8)))
            text1, text2 = ("; ".join(format_word(w) for w in ws if w)
                            for ws in (gens, others))
            for argv in (("basis", text1), ("intersect", text1, text2)):
                code, out, _ = run(capsys, "subgroup", *argv)
                digest.update(f"{code}\n{out}".encode())
        assert digest.hexdigest() == self.SUBGROUP_DIGEST


class TestPrimitiveCommand:
    def test_commutator_not_primitive(self, capsys):
        code, out, _ = run(capsys, "primitive", "[e2,e3]", "--rank", "2")
        assert code == 1 and out.strip() == "false"

    def test_witness_primitive(self, capsys):
        code, out, _ = run(capsys, "primitive", "e1 [e2,e3]", "--rank", "3")
        assert code == 0 and out.strip() == "true"

    def test_support_too_wide(self, capsys):
        code, _, err = run(capsys, "primitive", "e1 e2 e3", "--rank", "2")
        assert code == 2 and "distinct generators" in err

    def test_scans_at_largest_index(self, capsys, monkeypatch):
        ranks = spy_scan_ranks(monkeypatch)
        code, out, _ = run(capsys, "primitive", "e5 e9 E5 e9", "--rank", "10000")
        assert code == 1 and out == "false\n" and ranks == [9]
        code, out, _ = run(capsys, "primitive", "e4 [e7,e9]", "--rank", "10000")
        assert code == 0 and out == "true\n" and ranks == [9, 9]


class TestMinimizeCommand:
    def test_trace_output(self, capsys):
        code, out, _ = run(capsys, "minimize", "e1 [e2,e3]", "--rank", "3")
        assert code == 0
        assert out.startswith("step 0: total length 5")
        assert "end:" in out

    def test_scans_at_largest_index(self, capsys):
        # a cut through a letter the words do not use never shortens them
        _, at_rank_7, _ = run(capsys, "minimize", "e1 [e2,e3]", "e7 e1", "--rank", "7")
        code, out, _ = run(capsys, "minimize", "e1 [e2,e3]", "e7 e1", "--rank", "10000")
        assert code == 0 and out == at_rank_7

    def test_index_past_rank_is_usage_error(self, capsys):
        code, out, err = run(capsys, "minimize", "e1", "e1 e5", "--rank", "3")
        assert_usage_error(code, out, err)
        assert err == "ample: word e1 e5 uses index 5 beyond rank 3\n"


@pytest.mark.parametrize("argv", [("primitive", "e1 e2 E1 e2"),
                                  ("minimize", "e1 e2 E1 E2 e1", "e2 e3")])
def test_whitehead_memory_independent_of_rank(capsys, argv):
    # the scan used to build 2 * rank + 1 rows: about 370 MB at this rank
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, *argv, "--rank", "1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (0, 1) and peak < 2_000_000


# word texts over indices up to 10^6, small ones often enough to repeat
WORD_TEXTS = st.lists(
    st.tuples(st.one_of(st.integers(1, 4), st.integers(1, 10 ** 6)), st.booleans()),
    max_size=6).map(lambda letters: " ".join(
        f"{'e' if positive else 'E'}{k}" for k, positive in letters))


@given(command=st.sampled_from(["primitive", "minimize"]),
       texts=st.lists(WORD_TEXTS, min_size=1, max_size=3),
       rank=st.integers(-2, 10 ** 6))
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_whitehead_commands_fuzz(capsys, command, texts, rank):
    argv = [command, *(texts[:1] if command == "primitive" else texts)]
    code, out, err = run(capsys, *argv, "--rank", str(rank))
    assert code in (0, 1, 2) and "Traceback" not in err
    largest = max(parse_word(text).max_index() for text in argv[1:])
    if largest <= rank:
        assert run(capsys, *argv, "--rank", str(largest))[:2] == (code, out)


def relabelled_primitive_exit(text: str, rank: int) -> int:
    """Reference: relabel the word's indices onto e1..e<k>, then scan in F_k."""
    w = parse_word(text)
    support = sorted({abs(c) for c in w.letters})
    if len(support) > rank:
        return 2
    new_index = {idx: new for new, idx in enumerate(support, start=1)}
    relabelled = Word(new_index[abs(c)] * (1 if c > 0 else -1) for c in w.letters)
    return 0 if whitehead.is_primitive(relabelled, len(support)) else 1


@given(text=WORD_TEXTS, rank=st.integers(-2, 8))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_primitive_matches_relabelled_scan(capsys, text, rank):
    code, _, _ = run(capsys, "primitive", text, "--rank", str(rank))
    assert code == relabelled_primitive_exit(text, rank)


class TestBasicSortCommand:
    def test_e2_true(self, capsys):
        code, out, _ = run(capsys, "basic-sort", "--relation", "e2", "--m", "2",
                           "e2", "e1", "e2 (e1)^4", "e1")
        assert code == 0 and out.strip() == "true"

    def test_e4_parity_false(self, capsys):
        code, out, _ = run(capsys, "basic-sort", "--relation", "e4",
                           "--m", "2", "--n", "2",
                           "e1", "e2", "e1", "e1", "e1 e2 e1", "e1")
        assert code == 1 and out.strip() == "false"

    @pytest.mark.parametrize("argv,verdict", [
        (("--relation", "e1", "e1 e2", "e2 e1"), True),
        (("--relation", "e1", "e1", "e2"), False),
        (("--relation", "e2", "--m", "2", "e2", "e1", "e2 e1", "e1"), False),
        (("--relation", "e3", "--m", "3", "(e1)^3 e2", "e1", "e2", "e1"), True),
        (("--relation", "e3", "e1 e2", "e2", "e2", "e2"), False),
        (("--relation", "e4", "e1", "e2", "e1", "e1", "e1 e2 e1", "e1"), True),
    ], ids=["e1-true", "e1-false", "e2-false", "e3-true", "e3-false", "e4-true"])
    def test_relation_verdicts(self, capsys, argv, verdict):
        code, out, _ = run(capsys, "basic-sort", *argv)
        assert (code, out) == ((0, "true\n") if verdict else (1, "false\n"))

    @pytest.mark.parametrize("argv", [
        ("--relation", "e2", "--m", "1000000000", "e1", "e1", "e1", "e1"),
        ("--relation", "e3", "--m", "1000000000", "e1", "e1", "e1", "e1"),
        ("--relation", "e4", "--n", "1000000000", "e1", "e2", "e1", "e1", "e2", "e1"),
    ])
    def test_power_past_cap_usage_error(self, capsys, argv):
        assert_usage_error(*run(capsys, "basic-sort", *argv))

    @pytest.mark.parametrize("argv", [
        ("--relation", "e2", "--m", "0", "e1", "e2", "e1", "e2"),
        ("--relation", "e3", "--m", "-1", "e1", "e2", "e1", "e2"),
        ("--relation", "e4", "--n", "0", "e1", "e2", "e3", "e1", "e2", "e3"),
        ("--relation", "e4", "--m", "0", "e1", "e2", "e3", "e1", "e2", "e3"),
    ])
    def test_modulus_below_one_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "basic-sort", *argv)
        assert code == 2 and out == ""
        assert "must be >= 1" in err and "Traceback" not in err

    def test_wrong_arity_usage_error(self, capsys):
        code, out, err = run(capsys, "basic-sort", "--relation", "e1", "e1", "e2", "e3")
        assert code == 2 and out == ""
        assert err == "ample: e1 needs 2 words, got 3\n"

    def test_help_documents_m_inertness(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["basic-sort", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "uses only n" in out
        assert "side conditions are strict" in out


class TestJsjCommand:
    def test_show_left(self, capsys):
        code, out, _ = run(capsys, "jsj", "show", "left", "--index", "1")
        assert code == 0
        assert "vertex r0 rigid gens: e1; e1 e2 e3 E2 E3" in out
        assert "edge r0 s1 gen: e2 e3 E2 E3" in out

    def test_show_dot(self, capsys):
        code, out, _ = run(capsys, "jsj", "show", "example", "--index", "2",
                           "--format", "dot")
        assert code == 0 and out.startswith("graph decomposition")

    def test_show_validate(self, capsys):
        code, out, _ = run(capsys, "jsj", "show", "right", "--index", "2",
                           "--validate")
        assert code == 0
        assert "check generation: pass" in out

    @pytest.mark.parametrize("entry,index", [
        ("left", 223), ("right", 223), ("example", 10 ** 9)])
    def test_show_past_letter_cap_is_usage_error(self, capsys, entry, index):
        assert_usage_error(*run(capsys, "jsj", "show", entry, "--index", str(index)))

    # sha256 of `jsj show ENTRY --index I` stdout in each mode; nothing
    # parses the printed formats back, so their bytes are pinned
    SHOW_DIGESTS = {
        ("example", 1, "text"): "2f0c4e4b54ffd15c1978d0d6d014bcdeacb253c721b06b679b25564d50bfe80d",
        ("example", 1, "dot"): "bb5afba12785878e1fb3c197527f19a91e63d014e75cb07cdb9efc972396ffef",
        ("example", 1, "validate"): "e6acb728d578378ffc1fcdc127d8a331cd2d1dee477d4394ae79ed8b490ca50a",
        ("example", 2, "text"): "ee59be69dfa51060b47d77310e8ecd5ad1368fb2f3c96099e7f6a0ba527dacbc",
        ("example", 2, "dot"): "1cc4453dfdfa6ce4bc841774e67d10aa3b05c2152bf40d854c31ce9abbc2382c",
        ("example", 2, "validate"): "eb1293f6c73907e1e15a0986636f728158ccb30841f3674949bae20b6aa0a209",
        ("example", 3, "text"): "3026a6db564c309700dd7bef25d183105b8bf2911d07078551a02b66b575ff14",
        ("example", 3, "dot"): "d1299e211a1d07b3a80039675b64501c2813e52827e4daf1aa143a310632edef",
        ("example", 3, "validate"): "4e84f4402d660b98d596e46908a7726effbb53ad6c15de0e6db6f96e99356818",
        ("left", 1, "text"): "40205ecb3f9d2b1cb53df46498b99c5a4927a10cd679b13f344f6fda578a2eb9",
        ("left", 1, "dot"): "ac3b95d2df1ce33aa728f42077f87fb87b8e7cf661abee7a50c52652369e1d38",
        ("left", 1, "validate"): "244f24e5c2d827a6fef2d3ec6728977e0cd2d5ce663c63c5ee3450b8dd22ecb0",
        ("left", 2, "text"): "1da5e3a6ef6ddecb3c97dc11beff1e3f1b985a9ad58a22603a6e839118d771e0",
        ("left", 2, "dot"): "57e90dde65c7f4642fa1c9972c88a36f8ecb6521c98ed74734d2c9c36a280966",
        ("left", 2, "validate"): "486dd8b8443350269560404702ed2f4b95d868a9e1dec21091c05b80fdb0c0ae",
        ("left", 3, "text"): "b203d761d31bfdd95d2756732b04059968da909f551c47a296b65b24e998733e",
        ("left", 3, "dot"): "bab83f9b3867f08981cc7161a006972d0545a79c2b7ba8e2ee8c0573273e0332",
        ("left", 3, "validate"): "608e6c517eda0fabf5d698daee01fc17b9fa4abdcac577871f7b1e059391d0a8",
        ("right", 1, "text"): "88c006e455dcf4b490aac6f01018754128eb7fffbb692921ac34d40d2f591b3a",
        ("right", 1, "dot"): "7391e44d1d500021bc89269fe9f6b4baa08f396f12ea1f105724caf81fa6a896",
        ("right", 1, "validate"): "6d0823448b40fa2541d10d8c51876c71422492e919459be36dcb039b589b1f1d",
        ("right", 2, "text"): "9f6083291974cfd66d5421223f8257d0815103f23bfa8ea1f1514e02f9a1fea8",
        ("right", 2, "dot"): "7642e04293db4702250e43c9ea996fc9856e3779ab24b2b55cacc803a1d1f359",
        ("right", 2, "validate"): "09a0b4439e9ffc127ce50d35e288bf793a569e456fc7677c3417456edc1d9789",
        ("right", 3, "text"): "d53ba8a01101f63342dd8d4d1fe8c2b50f65c5383ed1c602af3cd8427efc87c5",
        ("right", 3, "dot"): "0164295536fd2c89951d378c47a9da8c236e14c5638018f293146f197657e730",
        ("right", 3, "validate"): "24899329755fab3f2a72328cb1b6b070b772b70338a5b0513e3ea2bfcb2379f2",
    }
    MODE_FLAGS = {"text": ("--format", "text"), "dot": ("--format", "dot"),
                  "validate": ("--validate",)}

    @pytest.mark.parametrize("entry,index,mode", sorted(SHOW_DIGESTS))
    def test_show_bytes_pinned(self, capsys, entry, index, mode):
        code, out, _ = run(capsys, "jsj", "show", entry, "--index", str(index),
                           *self.MODE_FLAGS[mode])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.SHOW_DIGESTS[entry, index, mode]


class TestVerifyCommand:
    def test_n2_text(self, capsys):
        code, out, _ = run(capsys, "verify-ample", "--n", "2")
        assert code == 0
        for cid in ("clause1", "clause2.i1", "clause3", "clause4.i1"):
            assert cid in out
        assert "overall: pass" in out

    def test_n1_vacuous(self, capsys):
        code, out, _ = run(capsys, "verify-ample", "--n", "1")
        assert code == 0 and "vacuous" in out

    def test_help_reads_config_defaults(self, capsys, monkeypatch):
        monkeypatch.setattr(Config, "oracle_bound", 9)
        parser = cli._build_parser.__wrapped__()   # the cached one predates the patch
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["verify-ample", "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "(default 9," in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "verify-ample", "--n", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, REPORT_SCHEMA)

    def test_json_determinism_modulo_millis(self, capsys):
        _, out1, _ = run(capsys, "verify-ample", "--n", "2", "--json")
        _, out2, _ = run(capsys, "verify-ample", "--n", "2", "--json")
        a = scrub_millis(json.loads(out1))
        b = scrub_millis(json.loads(out2))
        assert json.dumps(a) == json.dumps(b)

    def test_past_former_rank_cap_passes(self, capsys):
        # n = 13 needed --max-rank 26 while the rank budget existed
        code, out, err = run(capsys, "verify-ample", "--n", "13")
        assert code == 0 and out.endswith("overall: pass\n") and err == ""

    def test_catalog_cap_exits_2_before_any_clause(self, capsys, monkeypatch):
        # clause 4 at i = 223 needs rigid generators past the letter cap
        def no_clause(*args):
            raise AssertionError("a clause ran")

        monkeypatch.setattr(verifier, "check_clause1", no_clause)
        code, out, err = run(capsys, "verify-ample", "--n", "224")
        assert_usage_error(code, out, err)
        assert "100000" in err

    def test_oracle_bound_flag_recorded(self, capsys):
        code, out, _ = run(capsys, "verify-ample", "--n", "2", "--json",
                           "--oracle-bound", "6")
        bounds = {c["id"]: c["bound"] for c in json.loads(out)["clauses"]}
        assert code == 0 and bounds == {"clause1": None, "clause2.i1": None,
                                        "clause3": 6, "clause4.i1": 6}

    def test_max_rank_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-ample", "--n", "2", "--max-rank", "24"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-rank 24" in capsys.readouterr().err

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-ample"])
        assert exc.value.code == 2

    def test_oracle_bound_above_cap_flag(self, capsys):
        assert_usage_error(*run(capsys, "verify-ample", "--n", "2",
                                "--oracle-bound", "990"))

    # sha256 of the `verify-ample --n N --json` output with every millis
    # value blanked; a change to the report must update these digests
    REPORT_DIGESTS = {
        1: "fbee6d3b220c46a7300515b143fff82724e7b994cfd25b22b9d3954574d916c6",
        2: "3cbb30ff701c43579ae62f7b327e93e55b5b09ce0f6967b865fd4982d27a03ee",
        3: "d79a4829cd163ea6fc7b82774fb1a84a994fac3e66bbcbb8566f76c71f6db35c",
        4: "87ba31b72d0009aa2fa9d647bb653926733c9bce6864d72cb2ac7f2ec888c252",
        8: "2165710a33fbbe7122275b7c36210d44bfe4d18847702cf2199a0875e719fd86",
        12: "5062f62ca601fe481f248138b816219f0956e8d353cc49c9a46a4c4dc9ebde90",
    }

    @pytest.mark.parametrize("n", sorted(REPORT_DIGESTS))
    def test_report_bytes_pinned(self, capsys, n):
        code, out, _ = run(capsys, "verify-ample", "--n", str(n), "--json")
        blanked = re.sub(r'"millis": [^,\n]+', '"millis": 0', out)
        assert code == 0
        assert hashlib.sha256(blanked.encode()).hexdigest() == self.REPORT_DIGESTS[n]

    def test_environment_does_not_change_report(self, capsys, monkeypatch):
        # only flags set the run: exported bounds must not reach the report
        monkeypatch.setenv("AMPLE_MAX_RANK", "2")
        monkeypatch.setenv("AMPLE_ORACLE_BOUND", "12")
        code, out, _ = run(capsys, "verify-ample", "--n", "2", "--json")
        blanked = re.sub(r'"millis": [^,\n]+', '"millis": 0', out)
        assert code == 0
        assert hashlib.sha256(blanked.encode()).hexdigest() == self.REPORT_DIGESTS[2]

    # the same digest for `verify-ample --n 6 --oracle-bound L --json`: the
    # oracle's class counts are pinned at bounds other than the default
    BOUND_DIGESTS = {
        4: "c8487b1a0f5a77f7d074c1244a712c7d26550de7a82941462434552f3579f0e0",
        10: "098bfd07b1ea30d5d856bc162b92c8af82f3551e2222f92dd50634a6eee3d221",
        12: "5b44701b19cc96fad25588532831f495d614f0f3c952fe93cbd5ab654286fd20",
    }

    @pytest.mark.parametrize("bound", sorted(BOUND_DIGESTS))
    def test_report_bytes_pinned_at_bound(self, capsys, bound):
        code, out, _ = run(capsys, "verify-ample", "--n", "6",
                           "--oracle-bound", str(bound), "--json")
        blanked = re.sub(r'"millis": [^,\n]+', '"millis": 0', out)
        assert code == 0
        assert hashlib.sha256(blanked.encode()).hexdigest() == self.BOUND_DIGESTS[bound]


class TestRunVerificationScript:
    SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"

    def run_script(self, capsys, monkeypatch, *argv):
        monkeypatch.setattr(sys, "argv", [str(self.SCRIPT), *argv])
        code = runpy.run_path(str(self.SCRIPT), run_name="run_verification")["main"]()
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_passes_n2(self, capsys, monkeypatch):
        code, out, _ = self.run_script(capsys, monkeypatch, "--max-n", "2")
        assert code == 0 and "n=2: pass" in out

    @pytest.mark.parametrize("max_n", ["0", "-1"])
    def test_max_n_below_one_usage_error(self, capsys, monkeypatch, max_n):
        code, out, err = self.run_script(capsys, monkeypatch, "--max-n", max_n)
        assert_usage_error(code, out, err, prefix="run_verification: ")
        assert err == "run_verification: --max-n must be >= 1\n"

    def test_max_n_past_catalog_cap_exits_2(self, capsys, monkeypatch):
        # the script imports verify_ample when it runs, so it gets the patched one
        def no_run(*args):
            raise AssertionError("a verification ran")

        monkeypatch.setattr(verifier, "verify_ample", no_run)
        code, out, err = self.run_script(capsys, monkeypatch, "--max-n", "224")
        assert_usage_error(code, out, err, prefix="run_verification: ")
        assert "100000" in err

    @pytest.mark.parametrize("bound", ["0", "990"])
    def test_bad_oracle_bound_usage_error(self, capsys, monkeypatch, bound):
        assert_usage_error(*self.run_script(capsys, monkeypatch, "--oracle-bound", bound),
                           prefix="run_verification: ")

    def test_unwritable_out_dir_exits_2(self, capsys, monkeypatch, tmp_path):
        not_a_dir = tmp_path / "report.txt"
        not_a_dir.write_text("")
        assert_usage_error(*self.run_script(capsys, monkeypatch, "--out-dir", str(not_a_dir)),
                           prefix="run_verification: ")

    def test_unwritable_report_exits_2(self, capsys, monkeypatch, tmp_path):
        (tmp_path / "report-n1.json").mkdir()
        code, _, err = self.run_script(capsys, monkeypatch, "--max-n", "1",
                                       "--out-dir", str(tmp_path))
        assert code == 2 and err.startswith("run_verification: ")
        assert "Traceback" not in err


# argv tokens for the exit-code fuzz: valid words (drawn twice as often),
# and malformed ones (fused or zero indices, bare letters, unbalanced
# brackets, expansions past the letter cap) that must be usage errors
VALID_WORDS = st.sampled_from([
    "", "e1", "E2", "e1 e2 E1 E2", "[e1,e2]", "e1 [e2,e3]", "(e1 E2)^3", "(e2)^-2",
    "e99999999999"])
MALFORMED_WORDS = st.sampled_from([
    "e1e2", "e0", "e", "E", "x1", "[e1,e2", "e1,e2]", "[e1 e2]", "(e1", "e1)^2",
    "(e1)^", "e1^2", "(e1 e2)^99999999", "(e1)^-100001"])
FUZZ_WORDS = st.one_of(VALID_WORDS, VALID_WORDS, MALFORMED_WORDS)
FUZZ_INTS = st.integers(-3, 6).map(str)


@st.composite
def cli_argv(draw) -> list[str]:
    """argv for any subcommand, sometimes cut short; verify-ample only at
    n <= 3 and --oracle-bound <= 4, so each call stays cheap."""
    def words(lo: int, hi: int) -> list[str]:
        return draw(st.lists(FUZZ_WORDS, min_size=lo, max_size=hi))

    def gens() -> str:
        return ";".join(words(0, 3))

    command = draw(st.sampled_from(["word", "subgroup", "primitive", "minimize",
                                    "basic-sort", "jsj", "verify-ample"]))
    if command == "word":
        op = draw(st.sampled_from(["reduce", "mul", "inv", "conj"]))
        argv = ["word", op, *words(*{"mul": (1, 3), "conj": (2, 2)}.get(op, (1, 1)))]
    elif command == "subgroup":
        op = draw(st.sampled_from(["build", "member", "basis", "rank", "intersect"]))
        argv = ["subgroup", op, gens(), *{"member": words(1, 1),
                                          "intersect": [gens()]}.get(op, [])]
    elif command in ("primitive", "minimize"):
        argv = [command, *words(1, 1 if command == "primitive" else 3),
                "--rank", draw(FUZZ_INTS)]
    elif command == "basic-sort":
        relation = draw(st.sampled_from(list(cli.ARITY)))
        count = draw(st.one_of(st.just(2 * cli.ARITY[relation]), st.integers(1, 6)))
        argv = ["basic-sort", "--relation", relation, "--m", draw(FUZZ_INTS),
                "--n", draw(FUZZ_INTS), *words(count, count)]
    elif command == "jsj":
        argv = ["jsj", "show", draw(st.sampled_from(["example", "left", "right"])),
                "--index", draw(st.one_of(FUZZ_INTS, st.just("1000000"))),
                "--format", draw(st.sampled_from(["text", "dot"])),
                *draw(st.sampled_from([[], ["--validate"]]))]
    else:
        argv = ["verify-ample", "--n", str(draw(st.integers(-2, 3))),
                "--oracle-bound", str(draw(st.integers(-1, 4))),
                *draw(st.sampled_from([[], ["--json"]]))]
    return argv[:draw(st.one_of(st.just(len(argv)), st.integers(1, len(argv))))]


def is_predicate(argv: list[str]) -> bool:
    """The commands whose exit 1 means "false" or "verification failed"."""
    return (argv[:2] in (["word", "conj"], ["subgroup", "member"])
            or argv[0] in ("primitive", "basic-sort", "verify-ample")
            or (argv[0] == "jsj" and "--validate" in argv))


@given(argv=cli_argv())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_exit_codes_fuzz(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:   # argparse refusing the argv
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2) and "Traceback" not in err
    assert code != 1 or is_predicate(argv)


def test_readme_usage_names_only_real_flags():
    """Every ``--flag`` on an ``ample ...`` line of README's usage block is
    an option of the (sub)command that line names."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    lines = [line.split("#")[0].split() for line in block.splitlines()
             if line.startswith("ample ")]
    assert len(lines) >= 10

    def choices(parser: argparse.ArgumentParser) -> dict:
        return next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))

    for tokens in lines:
        parsers = [choices(cli._build_parser())[tokens[1]]]
        if tokens[1] in ("word", "subgroup", "jsj"):
            parsers = [choices(parsers[0])[op] for op in tokens[2].split("|")]
        flags = set(re.findall(r"--[\w-]+", " ".join(tokens)))
        for parser in parsers:
            known = {s for action in parser._actions for s in action.option_strings}
            assert flags <= known, (tokens, sorted(flags - known))
