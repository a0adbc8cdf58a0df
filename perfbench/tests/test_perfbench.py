"""Self-tests of the benchmark: deterministic inputs and repeatable counts.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _materialized(workload, seed, tmp_path, tag):
    requests, expected = run.request_list(workload, seed, seconds=0, count=40)
    directory = tmp_path / tag
    directory.mkdir()
    workloads.materialize(requests, str(directory))
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    return [r.resolve(str(directory)) for r in requests], files, expected


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_argv_and_seed_files(workload, tmp_path):
    argv_a, files_a, expected_a = _materialized(workload, 7, tmp_path, "a")
    argv_b, files_b, expected_b = _materialized(workload, 7, tmp_path, "b")
    assert [[arg.replace(str(tmp_path / "a"), "") for arg in argv] for argv in argv_a] == [
        [arg.replace(str(tmp_path / "b"), "") for arg in argv] for argv in argv_b
    ]
    assert files_a == files_b
    assert expected_a == expected_b
    other, _, _ = _materialized(workload, 8, tmp_path, "c")
    assert len(other) == len(argv_a) and other != argv_a


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_covers_every_pool_entry(workload):
    data = reference.load(workload)
    keys = [workloads.pool_entry(workload, k).key() for k in range(len(data["pool"]))]
    assert keys == [row[0] for row in data["pool"]]
    assert [r.key() for r in workloads.FIXED[workload]] == [row[0] for row in data["fixed"]]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _traced(workload):
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--requests", "25", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True, cwd=ROOT,
    )
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_traced_runs_give_identical_counts(workload):
    first, second = _traced(workload), _traced(workload)
    assert first["correct"] and second["correct"]
    counters = tracing.counter_names()
    assert {n: first["metrics"][n]["value"] for n in counters} == {
        n: second["metrics"][n]["value"] for n in counters
    }
    calls = first["metrics"]["cli.main.calls"]["value"]
    assert calls == first["attempted"] == len(workloads.FIXED[workload]) + 25
