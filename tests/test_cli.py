import json

import pytest

from qcluster.cli import main

EXAM1 = "fixtures/exam1.json"
EXAM3 = "fixtures/exam3.json"
CORRUPTED = "fixtures/corrupted.json"

# `suite --format json` on the fixtures, every terms and residue pinned.
EXAM1_SUITE_JSON = [
    '{"check": "validate", "ok": true}',
    '{"check": "serre", "i": 1, "j": 2, "ok": true, "residue": "0", "terms": 18}',
    '{"check": "serre", "i": 2, "j": 1, "ok": true, "residue": "0", "terms": 32}',
    '{"check": "serre-opposite", "i": 2, "j": 1, "ok": true, "residue": "0", "terms": 18}',
    '{"check": "higher", "i": 1, "j": 2, "l": 1, "m": 1, "ok": true, "residue": "0", "terms": 18}',
    '{"check": "higher", "i": 2, "j": 1, "l": 1, "m": 2, "ok": true, "residue": "0", "terms": 32}',
    '{"check": "higher", "i": 2, "j": 1, "l": 2, "m": 4, "ok": true, "residue": "0", "terms": 108}',
]

EXAM3_SUITE_JSON = [
    '{"check": "validate", "ok": true}',
    '{"check": "serre", "i": 1, "j": 2, "ok": true, "residue": "0", "terms": 32}',
    '{"check": "serre", "i": 1, "j": 3, "ok": true, "residue": "0", "terms": 32}',
    '{"check": "serre-opposite", "i": 1, "j": 3, "ok": true, "residue": "0", "terms": 32}',
    '{"check": "serre", "i": 2, "j": 1, "ok": true, "residue": "0", "terms": 32}',
    '{"check": "serre-opposite", "i": 2, "j": 1, "ok": true, "residue": "0", "terms": 32}',
    '{"check": "serre", "i": 2, "j": 3, "ok": true, "residue": "0", "terms": 32}',
    '{"check": "serre", "i": 3, "j": 1, "ok": true, "residue": "0", "terms": 32}',
    '{"check": "serre", "i": 3, "j": 2, "ok": true, "residue": "0", "terms": 32}',
    '{"check": "serre-opposite", "i": 3, "j": 2, "ok": true, "residue": "0", "terms": 32}',
    '{"check": "higher", "i": 1, "j": 2, "l": 1, "m": 2, "ok": true, "residue": "0", "terms": 32}',
    '{"check": "higher", "i": 1, "j": 2, "l": 2, "m": 4, "ok": true, "residue": "0", "terms": 108}',
    '{"check": "higher", "i": 1, "j": 3, "l": 1, "m": 2, "ok": true, "residue": "0", "terms": 32}',
    '{"check": "higher", "i": 1, "j": 3, "l": 2, "m": 4, "ok": true, "residue": "0", "terms": 108}',
    '{"check": "higher", "i": 2, "j": 1, "l": 1, "m": 2, "ok": true, "residue": "0", "terms": 32}',
    '{"check": "higher", "i": 2, "j": 1, "l": 2, "m": 4, "ok": true, "residue": "0", "terms": 108}',
    '{"check": "higher", "i": 2, "j": 3, "l": 1, "m": 2, "ok": true, "residue": "0", "terms": 32}',
    '{"check": "higher", "i": 2, "j": 3, "l": 2, "m": 4, "ok": true, "residue": "0", "terms": 108}',
    '{"check": "higher", "i": 3, "j": 1, "l": 1, "m": 2, "ok": true, "residue": "0", "terms": 32}',
    '{"check": "higher", "i": 3, "j": 1, "l": 2, "m": 4, "ok": true, "residue": "0", "terms": 108}',
    '{"check": "higher", "i": 3, "j": 2, "l": 1, "m": 2, "ok": true, "residue": "0", "terms": 32}',
    '{"check": "higher", "i": 3, "j": 2, "l": 2, "m": 4, "ok": true, "residue": "0", "terms": 108}',
]


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestValidate:
    def test_good_seed(self, capsys):
        status, out, _ = run(capsys, "validate", "--seed", EXAM1)
        assert status == 0
        assert out == "valid seed: n=2, m=4, d=[2, 1]\n"

    def test_corrupted_seed(self, capsys):
        status, _, err = run(capsys, "validate", "--seed", CORRUPTED)
        assert status == 2
        assert "compatibility fails at (i, j) = (1, 1)" in err

    def test_missing_file(self, capsys):
        status, _, err = run(capsys, "validate", "--seed", "no/such/file.json")
        assert status == 2
        assert "error:" in err


class TestMutate:
    def test_direction_1_golden_matrices(self, capsys):
        status, out, _ = run(capsys, "mutate", "--seed", EXAM1, "--k", "1")
        assert status == 0
        assert out.splitlines() == [
            "Lambda':",
            "   0  0  2 -2",
            "   0  0  0 -1",
            "  -2  0  0 -2",
            "   2  1  2  0",
            "Btilde':",
            "   0 -1",
            "   2  0",
            "  -1  1",
            "   0  1",
        ]

    def test_direction_2(self, capsys):
        status, out, _ = run(capsys, "mutate", "--seed", EXAM1, "--k", "2")
        assert status == 0
        assert out.splitlines() == [
            "Lambda':",
            "   0  0 -2  0",
            "   0  0  0  1",
            "   2  0  0 -2",
            "   0 -1  2  0",
            "Btilde':",
            "   0 -1",
            "   2  0",
            "   1  0",
            "   0 -1",
        ]

    def test_out_of_range(self, capsys):
        status, _, err = run(capsys, "mutate", "--seed", EXAM1, "--k", "5")
        assert status == 2

    def test_json_and_out_file(self, capsys, tmp_path):
        target = tmp_path / "mutated.json"
        status, out, _ = run(
            capsys, "mutate", "--seed", EXAM1, "--k", "1", "--out", str(target), "--format", "json"
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["lambda"][0] == [0, 0, 2, -2]
        from qcluster.seeds import load_seed

        assert load_seed(target).exchange.btilde == ((0, -1), (2, 0), (-1, 1), (0, 1))


class TestVars:
    def test_text(self, capsys):
        status, out, _ = run(capsys, "vars", "--seed", EXAM1)
        assert status == 0
        assert out.splitlines() == [
            "y1 = 1 * X^[-1,0,1,0] + 1 * X^[-1,2,0,0]",
            "y2 = 1 * X^[0,-1,0,0] + 1 * X^[1,-1,0,1]",
        ]

    def test_json(self, capsys):
        status, out, _ = run(capsys, "vars", "--seed", EXAM1, "--format", "json")
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["k"] for r in records] == [1, 2]


class TestVerify:
    def test_serre_pass(self, capsys):
        status, out, _ = run(capsys, "verify-serre", "--seed", EXAM1, "--i", "2", "--j", "1")
        assert status == 0
        assert out == "serre(i=2, j=1): PASS [terms=32]\n"

    def test_serre_with_opposite_json(self, capsys):
        status, out, _ = run(
            capsys, "verify-serre", "--seed", EXAM1, "--i", "2", "--j", "1",
            "--opposite", "--format", "json",
        )
        assert status == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["check"] for r in records] == ["serre", "serre-opposite"]
        assert all(r["ok"] for r in records)

    def test_higher(self, capsys):
        status, out, _ = run(
            capsys, "verify-higher", "--seed", EXAM1, "--i", "2", "--j", "1", "--l", "2", "--m", "4"
        )
        assert status == 0 and "PASS" in out

    def test_higher_out_of_range(self, capsys):
        status, _, err = run(
            capsys, "verify-higher", "--seed", EXAM1, "--i", "2", "--j", "1", "--l", "2", "--m", "3"
        )
        assert status == 2 and "below the bound" in err

    def test_higher_exploratory_failure_is_exit_1(self, capsys):
        status, out, _ = run(
            capsys, "verify-higher", "--seed", EXAM1, "--i", "2", "--j", "1",
            "--l", "2", "--m", "3", "--exploratory",
        )
        assert status == 1
        assert "[exploratory]: FAIL" in out
        assert "remainder:" in out

    def test_lemmas(self, capsys):
        status, out, _ = run(capsys, "verify-lemmas", "--seed", EXAM1, "--i", "2", "--j", "1")
        assert status == 0 and "lemma-sum(i=2, j=1, variant=L32): PASS" in out
        status, out, _ = run(
            capsys, "verify-lemmas", "--seed", EXAM1, "--i", "2", "--j", "1",
            "--variant", "L41", "--m", "4", "--t", "1",
        )
        assert status == 0 and "variant=L41" in out


class TestIdentities:
    def test_single_instance(self, capsys):
        status, out, _ = run(capsys, "identities", "--family", "VANISHING", "--params", "3")
        assert status == 0
        assert out == "VANISHING(d=3) = PASS\n"

    def test_family_sweep(self, capsys):
        status, out, _ = run(capsys, "identities", "--family", "DOUBLE_SUM_NEG")
        assert status == 0
        lines = out.splitlines()
        assert len(lines) == 36
        assert all(line.endswith("PASS") for line in lines)

    def test_bad_params(self, capsys):
        status, _, err = run(capsys, "identities", "--family", "VANISHING", "--params", "0")
        assert status == 2 and "requires d >= 1" in err

    def test_full_sweep_json(self, capsys):
        status, out, _ = run(capsys, "identities", "--format", "json")
        assert status == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) > 900
        assert all(r["ok"] for r in records)


class TestSuite:
    def test_exam1(self, capsys):
        status, out, _ = run(capsys, "suite", "--seed", EXAM1)
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "validate: PASS"
        assert len(lines) == 7  # validate + 3 serre-family + 3 higher
        assert all("PASS" in line for line in lines)

    def test_exam3(self, capsys):
        status, out, _ = run(capsys, "suite", "--seed", EXAM3)
        assert status == 0
        assert len(out.splitlines()) == 1 + 9 + 12

    def test_corrupted(self, capsys):
        status, _, err = run(capsys, "suite", "--seed", CORRUPTED)
        assert status == 2

    @pytest.mark.parametrize("path, golden", [(EXAM1, EXAM1_SUITE_JSON), (EXAM3, EXAM3_SUITE_JSON)])
    def test_json_golden(self, capsys, path, golden):
        status, out, _ = run(capsys, "suite", "--seed", path, "--format", "json")
        assert status == 0
        assert out.splitlines() == golden


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("suite", "--seed", EXAM1),
            ("suite", "--seed", EXAM1, "--format", "json"),
            ("vars", "--seed", EXAM3),
            ("mutate", "--seed", EXAM3, "--k", "2"),
            ("identities", "--family", "VANISHING"),
        ],
    )
    def test_identical_bytes_across_runs(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    def test_global_flag_position_equivalent(self, capsys):
        before = run(capsys, "--format", "json", "vars", "--seed", EXAM1)
        after = run(capsys, "vars", "--seed", EXAM1, "--format", "json")
        assert before == after
