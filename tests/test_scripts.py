"""Smoke test: the bundled scripts run to completion on the relations API."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/run_bundled_examples.py"],
        ["scripts/explore_higher_orders.py"],
        ["scripts/random_relation_sweep.py", "--count", "3"],
    ],
)
def test_script_exits_zero(argv):
    result = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stdout + result.stderr
