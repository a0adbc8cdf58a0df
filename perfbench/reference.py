"""Expected outcomes of every pool request, and the code that records them.

An outcome is the exit status, the verdict of each output record (P or
F, in order) and a digest of the normalized standard output.  JSON
records lose their ``terms`` and ``seconds`` keys and text certificates
their ``[terms=...]`` tag before digesting, so a change that redefines
the work statistic but keeps verdicts, residues and the rest of the
output still matches.  Standard error is not compared: only its exit
status matters for a rejected request.

Rebuild the reference files (only needed when ``workloads.py`` changes
what a pool entry is) from the repository root with::

    python3 perfbench/reference.py

This records the outcomes of the checked-out code, so run it on a commit
whose outputs are trusted.  Each entry also stores the request's digest
and its cost in milliseconds (the fastest of three warm calls), which
the run uses to stratify its sample.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"

_TERMS_TAG = re.compile(r" \[terms=\d+(?:, [0-9.]+s)?\]")
_TEXT_VERDICT = re.compile(r"(?::|=) (PASS|FAIL)\b")

# Warm calls timed per entry; the fastest is the recorded cost.
COST_REPEATS = 3


def invoke(main, argv: list[str]) -> tuple[int | None, str, str | None]:
    """Call ``main(argv)`` with captured output: (status, stdout, uncaught error)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = main(argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an uncaught exception is a failed request
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return status, out.getvalue(), None


def outcome(status: int | None, stdout: str) -> list:
    """[exit status, verdict string, digest of the normalized output]."""
    verdicts = []
    lines = []
    for line in stdout.splitlines():
        if line.startswith("{"):
            record = json.loads(line)
            if "ok" in record:
                verdicts.append("P" if record["ok"] else "F")
            record.pop("terms", None)
            record.pop("seconds", None)
            lines.append(json.dumps(record, sort_keys=True))
        else:
            match = _TEXT_VERDICT.search(line)
            if match:
                verdicts.append(match.group(1)[0])
            lines.append(_TERMS_TAG.sub("", line))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]
    return [status, "".join(verdicts), digest]


def path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load(workload: str) -> dict:
    """The reference of one workload; entries are [key, exit, verdicts, digest, cost_ms]."""
    with open(path(workload), encoding="utf-8") as handle:
        data = json.load(handle)
    if len(data["pool"]) != workloads.POOL_SIZES[workload]:
        raise ValueError(f"{path(workload)} does not match the pool size in workloads.py")
    return data


def _record(main, request: workloads.Request, directory: str) -> list:
    argv = request.resolve(directory)
    status, stdout, error = invoke(main, argv)
    if error is not None:
        raise RuntimeError(f"{request.argv} raised {error}")
    costs = []
    for _ in range(COST_REPEATS):
        started = time.perf_counter()
        invoke(main, argv)
        costs.append(time.perf_counter() - started)
    return [request.key(), *outcome(status, stdout), round(min(costs) * 1000, 3)]


def _check_seed_generator() -> None:
    """The benchmark's seed generator must draw what qcluster's own does."""
    import random

    from qcluster.seeds import random_principal_seed, seed_to_dict

    for k in range(50):
        for n, entry, top in ((2, 3, 3), (3, 3, 3), (4, 2, 2)):
            ours = workloads.principal_seed_dict(random.Random(k), n, entry, top)
            theirs = seed_to_dict(random_principal_seed(random.Random(k), n, entry, top))
            if ours != theirs:
                raise RuntimeError(f"seed generator differs from qcluster's for Random({k}), n={n}")


def build(workload: str) -> None:
    from qcluster.cli import main

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    fixed = workloads.FIXED[workload]
    pool = [workloads.pool_entry(workload, k) for k in range(workloads.POOL_SIZES[workload])]
    with tempfile.TemporaryDirectory(dir=work) as directory:
        workloads.materialize([*fixed, *pool], directory)
        data = {
            "workload": workload,
            "fixed": [_record(main, r, directory) for r in fixed],
            "pool": [_record(main, r, directory) for r in pool],
        }
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(path(workload), "w", encoding="utf-8") as handle:
        handle.write("{\n")
        handle.write(f'"workload": {json.dumps(workload)},\n')
        for part in ("fixed", "pool"):
            rows = ",\n".join(json.dumps(row) for row in data[part])
            handle.write(f'"{part}": [\n{rows}\n]' + (",\n" if part == "fixed" else "\n"))
        handle.write("}\n")
    exits = {}
    for row in data["fixed"] + data["pool"]:
        exits[row[1]] = exits.get(row[1], 0) + 1
    print(f"{workload}: {len(pool)} pool entries, exit statuses {exits}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    _check_seed_generator()
    for name in sys.argv[1:] or workloads.WORKLOADS:
        build(name)
