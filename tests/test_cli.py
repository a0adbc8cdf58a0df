import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcluster import cli, relations, seeds
from qcluster.cli import main
from qcluster.identities import IdentityReport

ROOT = Path(__file__).resolve().parent.parent

EXAM1 = "fixtures/exam1.json"
EXAM3 = "fixtures/exam3.json"
CORRUPTED = "fixtures/corrupted.json"
LAMBDA11 = "fixtures/lambda11.json"

# sha256 of the whole `identities` sweep output, json and text.
SWEEP_JSON_SHA256 = "33fb6b30e38a7ef9e70d1fb9a1ebadb754107986bde809fbeceee70ff2af28cc"
SWEEP_TEXT_SHA256 = "f6112b65fba9d9850e33eb887f2bc377f9aa90a30d88f807887e7cf17d71c93b"

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

# sha256 of `qcluster [command] --help` at COLUMNS=80.  argparse wraps usage
# lines differently from Python 3.13 on, so that version has its own pins.
# Regenerate one with `COLUMNS=80 qcluster verify-serre --help | sha256sum`.
HELP_SHA256 = {
    "": "73215f2d27644cdc5aa4c94a21d89cfbb83d21cd98262289fe0799bcc0113c9f",
    "validate": "30195fca757032db8b222f72792c528009bd424420480f0f0f46c4d453a254a5",
    "mutate": "eac8d0708357e338309affc3624af839db1488f40dd7f359672cb3452c5a90f0",
    "vars": "6afe56bcf1cdc9fb26ecb500e27bd8972055d86f08acebeffedccf5c661904bb",
    "verify-serre": "c6d47803dbe1dddc706990e3991bd0d5cea914cd17b2c6cf94990c0c870fa78b",
    "verify-higher": "231a74d400c1cbb56260a90e7339a4e120aa5ef86ac87590f1337d9d1e7dd972",
    "verify-lemmas": "8f3b857cae1a84e2b3a4588cf4f28ac2ce95b4f98820322ec830e9f42e4ad80c",
    "identities": "a81360e5042f7afc0feead28331d4aebed29e5b9c2481beae86f047b61032576",
    "suite": "7a7ccca2481cf15cf74f468eb8121b732742400e72883796e0d06ef945ef7e5a",
}
HELP_SHA256_BY_VERSION = {
    (3, 10): HELP_SHA256,
    (3, 11): HELP_SHA256,
    (3, 12): HELP_SHA256,
    (3, 13): {
        **HELP_SHA256,
        "": "6cc8b7d772fb11b7400c937cfaf94db6eee08a97c33762f7360eaa8c0b719556",
        "mutate": "6b3d2b5ea5ab20331df78132e0e12d8a4932abe7716f9e8a7a689f497c687e3b",
        "verify-serre": "81970285b3eefc8b62854a36fa1d1a6390b9ba7d83b7bb2f69d13a55968fdc71",
        "verify-higher": "d789991c784b43dd29dda2ebeb394005e4812716f543535e032e16eff2aa7e90",
        "verify-lemmas": "7f0a6357fe81d00302b1228480cdf3dfa6099c0652bad880ec0839bdca68efa4",
    },
}


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

    def test_deeply_nested_seed(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "qcluster", "validate", "--seed", str(deep)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 2 and result.stdout == ""
        assert "Traceback" not in result.stderr
        assert "error: seed file nests too deeply to be a seed object" in result.stderr

    def test_non_utf8_seed(self, tmp_path):
        raw = tmp_path / "latin1.json"
        raw.write_bytes(b'{"n": 2, "labels": ["\xff"]}\n')
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "qcluster", "validate", "--seed", str(raw)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 2 and result.stdout == ""
        assert "Traceback" not in result.stderr
        assert "error: seed file is not UTF-8 text: byte 0xff at offset 21" in result.stderr

    def test_integer_too_long_for_decoder(self, tmp_path):
        # Past the interpreter's digit limit the decoder raises a plain
        # ValueError whose wording differs between Python versions.
        huge = tmp_path / "huge.json"
        huge.write_text('{"n": ' + "1" * 5000 + ', "m": 4}\n')
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "qcluster", "validate", "--seed", str(huge)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 2 and result.stdout == ""
        assert "Traceback" not in result.stderr
        assert result.stderr == "error: seed file holds an integer too long to be a seed entry\n"


class TestCompatibilityCheckedOnce:
    @pytest.mark.parametrize(
        "argv,calls",
        [
            (("suite", "--seed", EXAM3), 1),
            (("mutate", "--seed", EXAM1, "--k", "1"), 2),
        ],
        ids=["suite", "mutate"],
    )
    def test_one_check_per_built_seed(self, capsys, monkeypatch, argv, calls):
        original = seeds.validate_compatibility
        seen = []

        def counting(seed):
            seen.append(seed)
            return original(seed)

        # Rebind every module-level reference, so that a module holding its
        # own import of the check is counted too.
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "qcluster" and vars(module).get("validate_compatibility") is original:
                monkeypatch.setattr(module, "validate_compatibility", counting)
        status, _, _ = run(capsys, *argv)
        assert status == 0
        assert len(seen) == calls


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

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_unwritable_out_prints_nothing(self, capsys, tmp_path, fmt):
        target = tmp_path / "no" / "such" / "dir" / "mutated.json"
        status, out, err = run(
            capsys, "mutate", "--seed", EXAM1, "--k", "1", "--out", str(target), "--format", fmt
        )
        assert status == 2 and out == ""
        assert "error:" in err and not target.exists()


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

    def test_opposite_refusal_expands_nothing(self, capsys, monkeypatch):
        # b_12 = 1 > 0 on exam1: the reversed side is refused before
        # serre(1, 2) is expanded, so a huge b_12 costs nothing either
        calls = []
        kernel = relations._commutator_lines
        monkeypatch.setattr(relations, "_commutator_lines", lambda *a: calls.append(a) or kernel(*a))
        status, out, err = run(capsys, "verify-serre", "--seed", EXAM1, "--i", "1", "--j", "2", "--opposite")
        assert (status, out, calls) == (2, "", [])
        assert err == "error: reversed-side relation needs b_ij <= 0, got b_ij=1\n"

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

    def test_l32_refuses_m_and_t(self, capsys):
        status, out, err = run(
            capsys, "verify-lemmas", "--seed", EXAM1, "--i", "2", "--j", "1",
            "--variant", "L32", "--m", "99", "--t", "7",
        )
        assert status == 2 and out == ""
        assert "L32 fixes m_exp = |b_ij| and t_shift = 0" in err


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
        for params in ("a", "1,,2"):
            status, out, err = run(capsys, "identities", "--family", "VANDERMONDE", "--params", params)
            assert status == 2 and out == ""
            assert f"--params must be comma-separated integers, got {params!r}" in err
            assert "invalid literal" not in err

    def test_params_without_family(self, capsys):
        status, out, err = run(capsys, "identities", "--params", "5")
        assert status == 2 and out == ""
        assert "--params needs --family" in err

    def test_empty_family_is_a_family(self, capsys):
        # an empty tag names no known family; it is neither "no family"
        # (a full sweep) nor missing next to --params
        for extra in ((), ("--params", "3")):
            status, out, err = run(capsys, "identities", "--family", "", *extra)
            assert status == 2 and out == ""
            assert err == "error: unknown identity family ''\n"

    def test_full_sweep_json(self, capsys):
        status, out, _ = run(capsys, "identities", "--format", "json")
        assert status == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) > 900
        assert all(r["ok"] for r in records)
        assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_JSON_SHA256
        status, out, _ = run(capsys, "identities")
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_TEXT_SHA256

    def test_closed_stdout_exits_141(self):
        # The JSON sweep (about 78 KB) overfills a 64 KiB pipe plus the
        # reader's buffer, so the writer always meets the closed pipe.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "qcluster", "identities", "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert json.loads(first) == {"family": "BASE_CHANGE", "params": [1, 1, 1], "ok": True}
        assert proc.returncode == cli.EXIT_CLOSED_STDOUT == 141
        assert err == b""


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

    def test_nonzero_mutable_lambda_block(self, capsys):
        # a principal seed whose Lambda11 is nonzero: every relation holds
        # once its sum carries the twist read from Lambda
        seed = seeds.load_seed(LAMBDA11)
        assert seed.is_principal and any(seed.form.entry(1, c) for c in (2, 3))
        status, out, _ = run(capsys, "suite", "--seed", LAMBDA11)
        lines = out.splitlines()
        assert status == 0 and len(lines) == 1 + 9 + 8
        assert all(", twist=" in line and ": PASS [terms=" in line for line in lines[1:])
        status, out, _ = run(capsys, "verify-lemmas", "--seed", LAMBDA11, "--i", "2", "--j", "1", "--variant", "L41", "--t", "1")
        assert (status, out) == (0, "lemma-sum(i=2, j=1, variant=L41, m=4, t=1, twist=-12): PASS [terms=25]\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_non_principal_prints_nothing(self, capsys, tmp_path, fmt):
        # exam1 mutated at 1 loads and validates, but the suite needs a
        # principal seed: exit 2 with one error line and nothing on stdout.
        target = tmp_path / "mutated.json"
        seeds.dump_seed(seeds.mutate(seeds.load_seed(EXAM1), 1), target)
        status, out, err = run(capsys, "suite", "--seed", str(target), "--format", fmt)
        assert status == 2 and out == ""
        assert err.startswith("error: seed is not principal") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("path, golden", [(EXAM1, EXAM1_SUITE_JSON), (EXAM3, EXAM3_SUITE_JSON)])
    def test_json_golden(self, capsys, path, golden):
        status, out, _ = run(capsys, "suite", "--seed", path, "--format", "json")
        assert status == 0
        assert out.splitlines() == golden


class TestInternalErrors:
    # Only a fault of the program gets past the input checks, so anything
    # but ValueError and OSError is an internal error: exit 70, one stderr
    # line, no traceback, and never 1, which says a relation failed.
    @pytest.mark.parametrize("error", [ArithmeticError, TypeError, MemoryError, RecursionError])
    @pytest.mark.parametrize("target, argv", [
        ("full_suite", ("suite", "--seed", EXAM1)),
        ("check_identity", ("identities", "--family", "VANDERMONDE", "--params", "5,2,3")),
    ])
    def test_internal_error_exits_70(self, capsys, monkeypatch, error, target, argv):
        def broken(*args):
            raise error("broken on purpose")

        monkeypatch.setattr(cli, target, broken)
        status, out, err = run(capsys, *argv)
        assert status == cli.EXIT_INTERNAL == 70
        assert out == ""
        assert err == f"error: internal error: {error.__name__}: broken on purpose\n"


class TestRaiseMidCommand:
    # A command returns its lines and main alone writes them, so a command
    # that raises after building some of its lines writes none of them.
    @pytest.mark.parametrize("owner, name, argv", [
        (cli, "render_torus_elem", ("vars", "--seed", EXAM1)),
        (IdentityReport, "render", ("identities", "--family", "PASCAL")),
    ], ids=["vars", "identities"])
    def test_second_render_raises_writes_nothing(self, capsys, monkeypatch, owner, name, argv):
        original, calls = getattr(owner, name), []

        def second_call_raises(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("broken on purpose")
            return original(*args)

        monkeypatch.setattr(owner, name, second_call_raises)
        status, out, err = run(capsys, *argv)
        assert len(calls) == 2
        assert status == cli.EXIT_INTERNAL == 70 and out == ""
        assert err == "error: internal error: RuntimeError: broken on purpose\n"


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


class TestSharedParser:
    @pytest.mark.parametrize("command", sorted(HELP_SHA256))
    def test_help_text_pinned(self, capsys, monkeypatch, command):
        pins = HELP_SHA256_BY_VERSION.get(sys.version_info[:2])
        if pins is None:
            pytest.skip("no --help pins recorded for this Python version")
        monkeypatch.setenv("COLUMNS", "80")
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--help"] if command else ["--help"])
            captured = capsys.readouterr()
            assert exit_info.value.code == 0 and captured.err == ""
            assert hashlib.sha256(captured.out.encode()).hexdigest() == pins[command]

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        run(capsys, "validate", "--seed", EXAM1)
        first = len(built)
        run(capsys, "verify-serre", "--seed", EXAM1, "--i", "2", "--j", "1")
        assert first > 0 and len(built) == first

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("verify-serre", "--seed", EXAM1, "--i", "x", "--j", "1"), 2),
            (("verify-higher", "--seed", EXAM1), 2),
            (("--format", "xml", "vars", "--seed", EXAM1), 2),
            (("--help",), 0),
            (("verify-serre", "--help"), 0),
        ],
    )
    def test_exit_leaves_next_call_unchanged(self, capsys, monkeypatch, argv, code):
        monkeypatch.setenv("COLUMNS", "80")
        follow_up = ("verify-serre", "--seed", EXAM1, "--i", "2", "--j", "1", "--opposite")

        def exiting_call():
            with pytest.raises(SystemExit) as exit_info:
                main(list(argv))
            captured = capsys.readouterr()
            return exit_info.value.code, captured.out, captured.err

        cli._build_parser.cache_clear()
        first_exit = exiting_call()
        cli._build_parser.cache_clear()
        first_follow_up = run(capsys, *follow_up)
        assert first_exit[0] == code and first_follow_up[0] == 0
        assert exiting_call() == first_exit
        assert run(capsys, *follow_up) == first_follow_up

    @pytest.mark.parametrize("position", ["before", "after"])
    def test_shared_flags_do_not_carry_over(self, capsys, position):
        plain = ("verify-serre", "--seed", EXAM1, "--i", "2", "--j", "1")
        flags = ("--format", "json", "--timings")
        argv = flags + plain if position == "before" else plain + flags
        status, out, _ = run(capsys, *argv)
        record = json.loads(out)
        assert status == 0 and "seconds" in record
        assert run(capsys, *plain) == (0, "serre(i=2, j=1): PASS [terms=32]\n", "")
