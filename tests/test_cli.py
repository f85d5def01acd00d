import json

import jsonschema
import pytest

from ample.cli import main
from ample.verifier import REPORT_SCHEMA


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_deep_nesting_is_usage_error(self, capsys):
        code, out, err = run(capsys, "word", "reduce", "(" * 600 + "e1" + ")^1" * 600)
        assert code == 2 and out == ""
        assert err.startswith("ample: ") and err.count("\n") == 1
        assert "Traceback" not in err


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


class TestMinimizeCommand:
    def test_trace_output(self, capsys):
        code, out, _ = run(capsys, "minimize", "e1 [e2,e3]", "--rank", "3")
        assert code == 0
        assert out.startswith("step 0: total length 5")
        assert "end:" in out


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
        with pytest.raises(SystemExit):
            main(["basic-sort", "--relation", "e1", "e1", "e2", "e3"])

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

    def test_resource_limit_exit_3(self, capsys):
        code, _, err = run(capsys, "verify-ample", "--n", "13")
        assert code == 3 and "resource limit" in err

    def test_oracle_bound_flag_recorded(self, capsys):
        code, out, _ = run(capsys, "verify-ample", "--n", "1", "--json",
                           "--oracle-bound", "6")
        payload = json.loads(out)
        assert payload["config"]["oracle_bound"] == 6

    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("AMPLE_ORACLE_BOUND", "5")
        code, out, _ = run(capsys, "verify-ample", "--n", "1", "--json")
        payload = json.loads(out)
        assert payload["config"]["oracle_bound"] == 5
        # flag wins over environment
        code, out, _ = run(capsys, "verify-ample", "--n", "1", "--json",
                           "--oracle-bound", "7")
        payload = json.loads(out)
        assert payload["config"]["oracle_bound"] == 7

    def test_env_max_rank_limits(self, capsys, monkeypatch):
        monkeypatch.setenv("AMPLE_MAX_RANK", "2")
        code, _, _ = run(capsys, "verify-ample", "--n", "2")
        assert code == 3

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-ample"])
        assert exc.value.code == 2
