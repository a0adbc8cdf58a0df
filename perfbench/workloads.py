"""Request generation for the qcluster benchmark.

Each workload owns a pool of requests.  Pool entry k is generated from
``random.Random(f"{workload}/{k}")`` by the code in this file alone, so the
inputs never depend on the code under measurement.  A run draws its request
list from the pool with ``random.Random(f"{workload}/run/{seed}")``: the pool
is sorted by the per-entry cost recorded in the reference file, cut into as
many equal slices as the run has requests, and one entry is drawn from each
slice (stratified sampling).  Every seed therefore sees the same cost mix,
which keeps run-to-run spread small while each seed still draws different
inputs.  The list is then shuffled by the same generator.

A request is an argv list plus the seed files it names.  File arguments are
written as ``@<name>`` and resolved against a scratch directory when the
files are materialized.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

# Requests per run never drop below this, so that at least 10 latency
# samples lie beyond the 90th percentile.
MIN_REQUESTS = 100

POOL_SIZES = {"suite_random": 600, "identity_oracle": 2200, "cli_mix": 2400}
WORKLOADS = tuple(POOL_SIZES)


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    files: tuple[tuple[str, str], ...]

    def key(self) -> str:
        """Digest of the argv template and file contents (path independent)."""
        text = json.dumps([list(self.argv), [list(f) for f in self.files]])
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def resolve(self, directory: str) -> list[str]:
        return [os.path.join(directory, a[1:]) if a.startswith("@") else a for a in self.argv]


# -- seed files ---------------------------------------------------------------


def principal_seed_dict(rng: random.Random, n: int, max_entry: int, max_d: int) -> dict:
    """The seed-file payload of ``qcluster.seeds.random_principal_seed``.

    Draws from ``rng`` exactly as that function does, then builds the
    principal seed Lambda = [[0, -D], [D, -DB]], Btilde = [B; I].
    """
    d = [rng.randint(1, max_d) for _ in range(n)]
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            choices = [
                v
                for v in range(-max_entry, max_entry + 1)
                if (d[i] * v) % d[j] == 0 and abs(d[i] * v) // d[j] <= max_entry
            ]
            b[i][j] = rng.choice(choices)
            b[j][i] = -(d[i] * b[i][j]) // d[j]
    m = 2 * n
    lam = [[0] * m for _ in range(m)]
    for i in range(n):
        lam[i][n + i] = -d[i]
        lam[n + i][i] = d[i]
        for j in range(n):
            lam[n + i][n + j] = -d[i] * b[i][j]
    btilde = [list(row) for row in b] + [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    return {
        "n": n,
        "m": m,
        "lambda": lam,
        "btilde": btilde,
        "d": d,
        "labels": [f"x{i}" for i in range(1, m + 1)],
    }


def corrupted(payload: dict) -> dict:
    """The same seed with lambda_(1, n+1) negated: still skew, no longer compatible."""
    n = payload["n"]
    lam = [list(row) for row in payload["lambda"]]
    lam[0][n], lam[n][0] = -lam[0][n], -lam[n][0]
    return {**payload, "lambda": lam}


def seed_text(payload: dict) -> str:
    return json.dumps(payload) + "\n"


# -- suite_random ---------------------------------------------------------------


def _suite_entry(k: int) -> Request:
    rng = random.Random(f"suite_random/{k}")
    n = rng.choice([2, 3])
    payload = principal_seed_dict(rng, n, max_entry=3, max_d=3)
    name = f"suite{k}.json"
    return Request(("suite", "--seed", "@" + name, "--format", "json"), ((name, seed_text(payload)),))


# -- identity_oracle ------------------------------------------------------------


def _identity_params(rng: random.Random, family: str, top: int) -> tuple[int, ...]:
    """Parameters inside the family's precondition; ``top`` bounds n."""
    n = rng.randint(1, top)
    if family == "VANISHING":
        return (rng.randint(1, top * 3 // 2),)
    if family == "SHIFTED_VANISHING":
        return (n, rng.randint(0, n - 1))
    if family in ("PRODUCT_EXPANSION", "PRODUCT_EXPANSION_BIVAR"):
        return (rng.randint(1, top * 3 // 5),)
    if family == "VANDERMONDE":
        return (n, rng.randint(0, n), rng.randint(0, n))
    if family == "DOUBLE_SUM_NEG":
        return (n, rng.randint(1, n))
    if family == "DOUBLE_SUM_POS":
        v = rng.randint(1, n)
        return (n, v, rng.randint(0, v - 1))
    if family == "PASCAL":
        return (n, rng.randint(0, n + 1), rng.randint(1, 3))
    if family == "REVERSAL":
        return (n, rng.randint(1, 3))
    if family == "SYMMETRY":
        return (n, rng.randint(0, n), rng.randint(1, 3))
    if family == "BASE_CHANGE":
        return (n, rng.randint(1, top), rng.randint(1, 3))
    raise ValueError(f"unknown identity family {family!r}")


FAMILIES = (
    "VANISHING",
    "SHIFTED_VANISHING",
    "PRODUCT_EXPANSION",
    "PRODUCT_EXPANSION_BIVAR",
    "VANDERMONDE",
    "DOUBLE_SUM_NEG",
    "DOUBLE_SUM_POS",
    "PASCAL",
    "REVERSAL",
    "SYMMETRY",
    "BASE_CHANGE",
)


def _identity_request(family: str, params: tuple[int, ...], fmt: str) -> Request:
    argv = ("identities", "--family", family, "--params", ",".join(map(str, params)), "--format", fmt)
    return Request(argv, ())


def _identity_entry(k: int) -> Request:
    # n <= 40, VANISHING d <= 60, product expansions n <= 24.
    rng = random.Random(f"identity_oracle/{k}")
    family = FAMILIES[k % len(FAMILIES)]
    return _identity_request(family, _identity_params(rng, family, 40), "json")


# -- cli_mix --------------------------------------------------------------------

CLI_SEEDS = 200

# One cycle of request kinds; a kind listed twice is drawn twice as often.
CLI_KINDS = (
    "validate",
    "mutate",
    "mutate",
    "vars",
    "serre",
    "serre",
    "serre_opposite",
    "lemmas",
    "higher",
    "higher",
    "higher_exploratory",
    "identities",
    "identities",
    "corrupted",
    "bad_index",
)


def _cli_seed(s: int) -> dict:
    rng = random.Random(f"cli_mix/seed/{s}")
    return principal_seed_dict(rng, rng.choice([2, 3, 4]), max_entry=2, max_d=2)


def _pairs(payload: dict, nonzero: bool) -> list[tuple[int, int]]:
    n, b = payload["n"], payload["btilde"]
    return [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j and (b[i - 1][j - 1] != 0 or not nonzero)
    ]


def _cli_entry(k: int) -> Request:
    rng = random.Random(f"cli_mix/{k}")
    kind = CLI_KINDS[k % len(CLI_KINDS)]
    fmt = "json" if (k // len(CLI_KINDS)) % 2 else "text"
    if kind == "identities":
        family = rng.choice(FAMILIES)
        return _identity_request(family, _identity_params(rng, family, 8), fmt)
    needs_nonzero = kind in ("lemmas", "higher_exploratory")
    while True:
        s = rng.randrange(CLI_SEEDS)
        payload = _cli_seed(s)
        if _pairs(payload, nonzero=True) or not needs_nonzero:
            break
    n, b = payload["n"], payload["btilde"]
    name = f"cli{s}.json"
    if kind == "corrupted":
        name = f"cli{s}.corrupted.json"
        payload = corrupted(payload)
    files = ((name, seed_text(payload)),)
    argv: list[str]
    if kind in ("validate", "vars", "corrupted"):
        argv = ["validate" if kind != "vars" else "vars"]
    elif kind == "mutate":
        argv = ["mutate", "--k", str(rng.randint(1, n))]
    elif kind == "bad_index":
        argv = rng.choice(
            [
                ["mutate", "--k", str(rng.choice([0, n + 1]))],
                ["verify-serre", "--i", "1", "--j", "1"],
                ["verify-higher", "--i", "1", "--j", str(n + 1), "--l", "1", "--m", "1"],
            ]
        )
    else:
        i, j = rng.choice(_pairs(payload, nonzero=needs_nonzero))
        size = abs(b[i - 1][j - 1])
        if kind == "serre_opposite" and b[i - 1][j - 1] > 0:
            i, j = j, i
        pair = ["--i", str(i), "--j", str(j)]
        if kind == "serre":
            argv = ["verify-serre", *pair]
        elif kind == "serre_opposite":
            argv = ["verify-serre", *pair, "--opposite"]
        elif kind == "lemmas":
            t = rng.randrange(size)
            m = (t + 1) * size + rng.randint(0, 1)
            argv = rng.choice(
                [
                    ["verify-lemmas", *pair, "--variant", "L32"],
                    ["verify-lemmas", *pair, "--variant", "L41", "--m", str(m), "--t", str(t)],
                ]
            )
        elif kind == "higher":
            l = rng.randint(1, max(size, 1))
            m = l * size + rng.randint(0, 1 if size else 2)
            argv = ["verify-higher", *pair, "--l", str(l), "--m", str(m)]
        else:
            l = rng.randint(1, size + 1)
            m = max(0, l * size + rng.randint(-2, 1))
            argv = ["verify-higher", *pair, "--l", str(l), "--m", str(m), "--exploratory"]
    argv[1:1] = ["--seed", "@" + name]
    return Request((*argv, "--format", fmt), files)


# -- pools and run lists ----------------------------------------------------------

_ENTRY = {"suite_random": _suite_entry, "identity_oracle": _identity_entry, "cli_mix": _cli_entry}

# Requests every run of the workload starts with, before the sampled ones.
FIXED = {
    "suite_random": (),
    "identity_oracle": (Request(("identities", "--format", "json"), ()),),
    "cli_mix": (),
}


def pool_entry(workload: str, k: int) -> Request:
    return _ENTRY[workload](k)


def sample_indices(workload: str, seed: int, count: int, costs: list[float]) -> list[int]:
    """``count`` pool indices, one from each equal slice of the cost-sorted pool."""
    size = len(costs)
    order = sorted(range(size), key=lambda k: (costs[k], k))
    rng = random.Random(f"{workload}/run/{seed}")
    picks = [order[int((j + rng.random()) * size / count)] for j in range(count)]
    rng.shuffle(picks)
    return picks


def request_count(seconds: float, costs: list[float], fixed_costs: list[float]) -> int:
    """Sampled requests for a run meant to last about ``seconds`` at the reference costs."""
    mean = sum(costs) / len(costs)
    return max(MIN_REQUESTS, round((seconds - sum(fixed_costs)) / mean))


def materialize(requests: list[Request], directory: str) -> None:
    """Write every seed file the requests name into ``directory``."""
    written: dict[str, str] = {}
    for request in requests:
        for name, text in request.files:
            if written.setdefault(name, text) != text:
                raise ValueError(f"two different seed files named {name}")
    for name, text in written.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write(text)
