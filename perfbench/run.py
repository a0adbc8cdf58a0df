"""Benchmark harness for qcluster.

Drives the public entry point ``qcluster.cli.main(argv)`` in-process as a
closed loop: one client, and each request starts only after the previous
one has returned.  Every run is a fresh interpreter, so the q_binom,
q_int and q_factorial caches start empty, as they do for a CLI user.

    python3 perfbench/run.py --workload suite_random --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run over the same request list (see README.md).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = (
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
)

# Fresh interpreters timed for setup_s; one more runs first, untimed, to
# warm the file cache and write the bytecode cache.
SETUP_SPAWNS = 9

CHILD_TIMEOUT_S = 170


def import_qcluster():
    """Import qcluster.cli from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import qcluster.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import qcluster from {SRC}: {exc}")
    resolved = Path(qcluster.__file__).resolve()
    if resolved.parent != (SRC / "qcluster").resolve():
        sys.exit(f"perfbench: qcluster resolves to {resolved}, outside {SRC}")
    return qcluster.cli, resolved


def environment(qcluster_file: Path) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        commit = result.stdout.strip() or None
    digest = hashlib.sha256()
    for source in sorted(qcluster_file.parent.glob("*.py")):
        digest.update(source.name.encode() + b"\0" + source.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "qcluster_file": str(qcluster_file),
        "start": "cold: fresh interpreter per run, qcluster caches empty",
        "loop": "closed, one client, in-process qcluster.cli.main(argv)",
    }


def request_list(workload: str, seed: int, seconds: float, count: int | None):
    """The run's requests and the expected outcome of each."""
    ref = reference.load(workload)
    fixed = workloads.FIXED[workload]
    costs = [row[4] / 1000 for row in ref["pool"]]
    if count is None:
        count = workloads.request_count(seconds, costs, [row[4] / 1000 for row in ref["fixed"]])
    picks = workloads.sample_indices(workload, seed, count, costs)
    entries: dict[int, workloads.Request] = {}
    requests = list(fixed)
    expected = list(ref["fixed"])
    for k in picks:
        if k not in entries:
            entries[k] = workloads.pool_entry(workload, k)
        requests.append(entries[k])
        expected.append(ref["pool"][k])
    for request, row in zip(requests, expected):
        if request.key() != row[0]:
            sys.exit(f"perfbench: {reference.path(workload)} is out of date; rebuild it")
    return requests, expected


def measure(main, requests, expected, directory: str):
    """Run the requests in order; per-request wall times and failure notes."""
    latencies = []
    failures = []
    for request, row in zip(requests, expected):
        argv = request.resolve(directory)
        started = perf_counter()
        status, stdout, error = reference.invoke(main, argv)
        latencies.append(perf_counter() - started)
        got = reference.outcome(status, stdout)
        if error is not None or got != row[1:4]:
            failures.append(f"{' '.join(request.argv)}: expected {row[1:4]}, got {got} {error or ''}")
    return latencies, failures


def setup_seconds() -> float:
    # The child prints perf_counter() once qcluster.cli is imported.  On
    # Linux that clock is CLOCK_MONOTONIC, shared by all processes, so the
    # difference is spawn-to-imported time.  Timing the wait in the parent
    # instead would quantize to subprocess's polling steps under a timeout.
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); import qcluster.cli; "
            "print(repr(time.perf_counter()))")
    times = []
    for spawn in range(SETUP_SPAWNS + 1):
        started = perf_counter()
        result = subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                                stdin=subprocess.DEVNULL, capture_output=True, text=True)
        if spawn:
            times.append(float(result.stdout) - started)
    return statistics.median(times)


def run_child(args: argparse.Namespace, workload: str, extra: list[str]) -> tuple[list[str], dict]:
    """Run this script for one workload in a fresh interpreter; its lines and result."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    if args.requests is not None:
        argv += ["--requests", str(args.requests)]
    result = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    sys.stderr.write(result.stderr)
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} run exited with status {result.returncode}")
    return lines[:-1], json.loads(lines[-1])


def print_metrics(metrics: dict, notes: dict[str, str]) -> None:
    for name, entry in metrics.items():
        print(f"{name:34s} {entry['value']:>14.6g} {entry['unit']:8s} {notes.get(name, '')}".rstrip())


def run_all(args: argparse.Namespace) -> None:
    """Every workload in its own fresh interpreter, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads.WORKLOADS:
        lines, result = run_child(args, workload, ["--trace", str(args.trace)])
        print("\n".join(lines))
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="intended run length; sets the request count from the reference costs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=None,
                        help="sampled request count, overriding --seconds (quick checks)")
    parser.add_argument("--loop-only", action="store_true",
                        help="untraced loop only; prints its wall time (used by --trace 1)")
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
        return

    cli, qcluster_file = import_qcluster()
    requests, expected = request_list(args.workload, args.seed, args.seconds, args.requests)
    if args.trace:
        _, untraced = run_child(args, args.workload, ["--loop-only"])
        tracer = tracing.Tracer()
        tracer.install()
    setup_s = setup_seconds() if not (args.trace or args.loop_only) else None

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as directory:
        workloads.materialize(requests, directory)
        latencies, failures = measure(cli.main, requests, expected, directory)
    wall = sum(latencies)
    attempted = len(requests)
    for note in failures[:10]:
        print(f"perfbench: mismatch: {note}", file=sys.stderr)

    if args.loop_only:
        print(json.dumps({"wall_s": wall, "attempted": attempted, "failed": len(failures)}))
        return

    correct = not failures
    notes: dict[str, str] = {}
    if args.trace:
        values = tracer.metrics()
        values["driver.self_s"] = wall - tracer.top_level_s
        values["trace.wall_s"] = wall
        values["trace.overhead_ratio"] = wall / untraced["wall_s"]
        accounted = sum(values[f"{op}.self_s"] for op, _ in tracing.OPS) + values["driver.self_s"]
        notes["trace.wall_s"] = f"(layer self times + driver.self_s = {accounted:.6f} s)"
        correct = correct and untraced["failed"] == 0 and abs(accounted - wall) <= 1e-6 * wall
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.metric_units()}
    else:
        latencies_ms = sorted(t * 1000 for t in latencies)
        values = {
            "requests_per_s": attempted / wall,
            "latency_p50_ms": statistics.median(latencies_ms),
            "latency_p90_ms": statistics.quantiles(latencies_ms, n=10)[8],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        notes = {
            "latency_p50_ms": f"(n={attempted})",
            "latency_p90_ms": f"(n={attempted})",
            "setup_s": f"(median of {SETUP_SPAWNS} fresh interpreters)",
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(environment(qcluster_file))}")
    print_metrics(metrics, notes)
    print(f"{'fail_ratio':34s} {len(failures) / attempted:>14.6g} {'ratio':8s} "
          f"({len(failures)} of {attempted} requests failed)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
