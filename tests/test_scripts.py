"""Smoke test: the bundled scripts run to completion on the relations API."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from qcluster.seeds import dump_seed, load_seed, mutate

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/run_bundled_examples.py"],
        ["scripts/explore_higher_orders.py"],
        ["scripts/random_relation_sweep.py", "--count", "3"],
        ["scripts/random_relation_sweep.py", "--count", "3", "--kind", "lambda11"],
        ["scripts/pair_integer_box.py"],
    ],
)
def test_script_exits_zero(argv):
    result = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stdout + result.stderr


# sha256 of the 66 lines `run_bundled_examples.py` prints: the matrices,
# one-step variables, commutator witnesses and full suite of both fixtures.
BUNDLED_EXAMPLES_SHA256 = "704139f501931426b500b55a8ded5c03551b7767ac52253edcd119bd2e47eec7"


def test_bundled_examples_output_pinned():
    result = subprocess.run(
        [sys.executable, "scripts/run_bundled_examples.py"],
        cwd=ROOT, capture_output=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 66
    assert hashlib.sha256(result.stdout).hexdigest() == BUNDLED_EXAMPLES_SHA256


@pytest.mark.parametrize(
    "pair",
    [["--i", "1", "--j", "1"], ["--i", "1", "--j", "3"], ["--i", "3", "--j", "1"], ["--i", "0", "--j", "2"]],
)
def test_explore_rejects_bad_index_pair(pair):
    # exam1 has n = 2: one error line on stderr and exit 2, no traceback
    result = subprocess.run(
        [sys.executable, "scripts/explore_higher_orders.py", *pair],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: need two distinct indices in [1, 2]")
    assert len(result.stderr.splitlines()) == 1


def test_explore_rejects_non_principal_seed(tmp_path):
    # exam1 mutated at 1 loads, but is not principal: one error line on
    # stderr and exit 2, no traceback
    target = tmp_path / "mutated.json"
    dump_seed(mutate(load_seed(ROOT / "fixtures" / "exam1.json"), 1), target)
    result = subprocess.run(
        [sys.executable, "scripts/explore_higher_orders.py", "--seed", str(target)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: seed is not principal")
    assert len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--max-d", "0"], "error: random seeds need max_d >= 1 and max_entry >= 0, got max_d=0, max_entry=3"),
        (["--max-entry", "-1"], "error: random seeds need max_d >= 1 and max_entry >= 0, got max_d=3, max_entry=-1"),
        (["--count", "-2"], "error: --count must be >= 0, got -2"),
    ],
)
def test_sweep_rejects_bad_bounds(argv, message):
    # exit 1 means a relation failed, so a bad argument exits 2 with one
    # error line: --max-d 0 and --max-entry -1 once ended in tracebacks
    # (exit 1) and --count -2 in an empty sweep (exit 0)
    result = subprocess.run(
        [sys.executable, "scripts/random_relation_sweep.py", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == message + "\n"


@pytest.mark.parametrize("argv", [["--max-l", "0"], ["--max-m", "-3"]])
def test_explore_rejects_empty_grid(argv):
    # an empty grid once printed only its header and exited 0
    result = subprocess.run(
        [sys.executable, "scripts/explore_higher_orders.py", *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: need --max-l >= 1 and --max-m >= 0")
    assert len(result.stderr.splitlines()) == 1
