"""Compatible pairs and quantum seeds.

A quantum seed bundles a skew-symmetric form Lambda, an m x n exchange
matrix Btilde whose principal n x n part is skew-symmetrizable by a
positive diagonal D, variable labels, and a linear order on the mutable
indices.  Seeds are immutable; mutation returns a fresh seed over a fresh
form, so torus elements stay pinned to the form they were built over.

Indices in the public API are 1-based, matching the usual notation
(mutation direction k in [1, n], generators x_1 .. x_m).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .qarith import QLaurent
from .qtorus import ExpVec, SkewForm, TorusElem

Matrix = tuple[tuple[int, ...], ...]


class SeedFormatError(ValueError):
    """A seed file or seed datum violates one of the seed invariants."""


def _freeze_matrix(rows: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(int(v) for v in row) for row in rows)


def pos_part(value: int) -> int:
    """max(value, 0), applied entrywise throughout mutation formulas."""
    return value if value > 0 else 0


@dataclass(frozen=True)
class ExchangeMatrix:
    """An m x n integer matrix whose columns drive mutation."""

    btilde: Matrix
    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < self.n:
            raise SeedFormatError(f"need m >= n >= 1, got m={self.m}, n={self.n}")
        if len(self.btilde) != self.m or any(len(row) != self.n for row in self.btilde):
            raise SeedFormatError(f"btilde must be {self.m}x{self.n}")

    def entry(self, i: int, j: int) -> int:
        """b_{ij} with 1-based indices, i in [1, m], j in [1, n]."""
        return self.btilde[i - 1][j - 1]

    def column(self, j: int) -> ExpVec:
        """Column b_j as an exponent vector of length m (1-based j)."""
        return tuple(self.btilde[i][j - 1] for i in range(self.m))

    def principal_part(self) -> Matrix:
        return tuple(row[: self.n] for row in self.btilde[: self.n])

    def coefficient_part(self) -> Matrix:
        return tuple(row[: self.n] for row in self.btilde[self.n :])


def is_skew_symmetrizer(d: Sequence[int], b: Sequence[Sequence[int]]) -> bool:
    """Whether diag(d) * b is skew-symmetric with every d_i positive."""
    n = len(b)
    if len(d) != n or any(not isinstance(v, int) or v <= 0 for v in d):
        return False
    return all(d[i] * b[i][j] == -d[j] * b[j][i] for i in range(n) for j in range(n))


def find_symmetrizer(b: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """A minimal positive diagonal making diag(d) * b skew-symmetric.

    Raises SeedFormatError when b is not skew-symmetrizable.
    """
    n = len(b)
    ratio: list[Fraction | None] = [None] * n
    for start in range(n):
        if ratio[start] is not None:
            continue
        ratio[start] = Fraction(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if b[i][j] == 0 and b[j][i] == 0:
                    continue
                if (b[i][j] == 0) != (b[j][i] == 0) or b[i][j] * b[j][i] > 0:
                    raise SeedFormatError(
                        f"principal part is not skew-symmetrizable at ({i + 1}, {j + 1})"
                    )
                candidate = ratio[i] * Fraction(-b[i][j], b[j][i])
                if ratio[j] is None:
                    ratio[j] = candidate
                    queue.append(j)
                elif ratio[j] != candidate:
                    raise SeedFormatError(
                        f"principal part is not skew-symmetrizable at ({i + 1}, {j + 1})"
                    )
    scale = lcm(*(r.denominator for r in ratio)) if n else 1
    d = tuple(int(r * scale) for r in ratio)
    common = 0
    for v in d:
        common = gcd(common, v)
    d = tuple(v // common for v in d) if common else d
    if not is_skew_symmetrizer(d, b):
        raise SeedFormatError("principal part is not skew-symmetrizable")
    return d


@dataclass(frozen=True)
class CompatibilityVerdict:
    ok: bool
    violation: tuple[int, int] | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class QuantumSeed:
    """The triple (labels, Lambda, Btilde) with its skew-symmetrizer D.

    `order` is the linear order on mutable indices used whenever an
    ordered generator product is rendered; relation verdicts never depend
    on it.
    """

    form: SkewForm
    exchange: ExchangeMatrix
    d: tuple[int, ...]
    labels: tuple[str, ...] = ()
    order: tuple[int, ...] = field(default=())

    def __post_init__(self):
        n, m = self.exchange.n, self.exchange.m
        if self.form.dim != m:
            raise SeedFormatError(
                f"lambda is {self.form.dim}x{self.form.dim} but btilde has m={m} rows"
            )
        if len(self.d) != n or any(not isinstance(v, int) or v <= 0 for v in self.d):
            raise SeedFormatError("d must be a length-n vector of positive integers")
        if not is_skew_symmetrizer(self.d, self.exchange.principal_part()):
            raise SeedFormatError("d does not skew-symmetrize the principal part")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(f"x{i}" for i in range(1, m + 1)))
        elif len(self.labels) != m:
            raise SeedFormatError(f"labels must have length m={m}")
        if not self.order:
            object.__setattr__(self, "order", tuple(range(1, n + 1)))
        elif sorted(self.order) != list(range(1, n + 1)):
            raise SeedFormatError(f"order must be a permutation of [1, {n}]")

    @property
    def n(self) -> int:
        return self.exchange.n

    @property
    def m(self) -> int:
        return self.exchange.m

    def b_entry(self, i: int, j: int) -> int:
        return self.exchange.entry(i, j)

    @property
    def is_principal(self) -> bool:
        """m = 2n with the coefficient block equal to the identity."""
        if self.m != 2 * self.n:
            return False
        coeff = self.exchange.coefficient_part()
        return all(
            coeff[i][j] == (1 if i == j else 0)
            for i in range(self.n)
            for j in range(self.n)
        )

    def generator(self, index: int) -> TorusElem:
        """x_index as a torus element over this seed's form (1-based)."""
        return TorusElem.generator(self.form, index)


def validate_compatibility(seed: QuantumSeed) -> CompatibilityVerdict:
    """Check Btilde^T * Lambda = [D 0] entrywise.

    Equivalently pairing(b_j, e_i) = delta_ij * d_j.  Reports the first
    violating (i, j), scanning columns j in [1, n] and rows i in [1, m].
    """
    for j in range(1, seed.n + 1):
        column = seed.exchange.column(j)
        for i in range(1, seed.m + 1):
            expected = seed.d[j - 1] if i == j else 0
            actual = sum(column[t] * seed.form.entry(t + 1, i) for t in range(seed.m))
            if actual != expected:
                return CompatibilityVerdict(
                    False,
                    (i, j),
                    f"pairing(b_{j}, e_{i}) = {actual}, expected {expected}",
                )
    return CompatibilityVerdict(True)


def principal_seed(b: Sequence[Sequence[int]], d: Sequence[int], labels: Sequence[str] = ()) -> QuantumSeed:
    """The principal-coefficients seed for an n x n exchange matrix b.

    Lambda = [[0, -D], [D, -DB]] and Btilde = [B; I_n] with m = 2n;
    compatibility holds by construction and is re-verified.
    """
    b = _freeze_matrix(b)
    n = len(b)
    d = tuple(int(v) for v in d)
    if any(len(row) != n for row in b):
        raise SeedFormatError("exchange matrix must be square")
    if not is_skew_symmetrizer(d, b):
        raise SeedFormatError("d does not skew-symmetrize the exchange matrix")
    lam = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        lam[i][n + i] = -d[i]
        lam[n + i][i] = d[i]
        for j in range(n):
            lam[n + i][n + j] = -d[i] * b[i][j]
    btilde = [list(row) for row in b]
    for i in range(n):
        btilde.append([1 if j == i else 0 for j in range(n)])
    seed = QuantumSeed(
        form=SkewForm(lam),
        exchange=ExchangeMatrix(_freeze_matrix(btilde), n=n, m=2 * n),
        d=d,
        labels=tuple(labels),
    )
    verdict = validate_compatibility(seed)
    if not verdict:
        raise SeedFormatError(f"principal seed failed compatibility: {verdict.message}")
    return seed


def mutate(seed: QuantumSeed, k: int) -> QuantumSeed:
    """One-step mutation in direction k (1-based, k in [1, n]).

    Produces the mutated exchange matrix and skew form; the result is
    compatible with the same D.  Mutation is an involution.
    """
    n, m = seed.n, seed.m
    if not 1 <= k <= n:
        raise ValueError(f"mutation direction {k} out of range [1, {n}]")
    verdict = validate_compatibility(seed)
    if not verdict:
        raise SeedFormatError(f"cannot mutate an incompatible seed: {verdict.message}")
    kk = k - 1
    old_b = seed.exchange.btilde
    new_b = [list(row) for row in old_b]
    for i in range(m):
        for j in range(n):
            if i == kk or j == kk:
                new_b[i][j] = -old_b[i][j]
            else:
                bump = abs(old_b[i][kk]) * old_b[kk][j] + old_b[i][kk] * abs(old_b[kk][j])
                quotient, parity = divmod(bump, 2)
                if parity:
                    raise ArithmeticError(f"mutation bump {bump} at ({i + 1}, {j + 1}) is odd")
                new_b[i][j] = old_b[i][j] + quotient

    lam = seed.form.rows()
    new_lam = [list(row) for row in lam]
    for j in range(m):
        if j == kk:
            continue
        value = -lam[kk][j] + sum(pos_part(old_b[t][kk]) * lam[t][j] for t in range(m))
        new_lam[kk][j] = value
        new_lam[j][kk] = -value
    new_lam[kk][kk] = 0

    new_labels = list(seed.labels)
    new_labels[kk] = seed.labels[kk] + "'"
    mutated = QuantumSeed(
        form=SkewForm(new_lam),
        exchange=ExchangeMatrix(_freeze_matrix(new_b), n=n, m=m),
        d=seed.d,
        labels=tuple(new_labels),
        order=seed.order,
    )
    verdict = validate_compatibility(mutated)
    if not verdict:
        raise SeedFormatError(f"mutation broke compatibility: {verdict.message}")
    return mutated


def mutated_variable(seed: QuantumSeed, k: int) -> TorusElem:
    """The one-step variable x'_k = X^(-e_k + [b_k]_+) + X^(-e_k + [-b_k]_+).

    Lives over the *original* seed's form; [.]_+ acts entrywise on
    column b_k.
    """
    n, m = seed.n, seed.m
    if not 1 <= k <= n:
        raise ValueError(f"variable index {k} out of range [1, {n}]")
    column = seed.exchange.column(k)
    base = tuple(-1 if t == k - 1 else 0 for t in range(m))
    plus = tuple(base[t] + pos_part(column[t]) for t in range(m))
    minus = tuple(base[t] + pos_part(-column[t]) for t in range(m))
    return TorusElem(seed.form, {plus: QLaurent.one(), minus: QLaurent.one()})


def quiver_edges(seed: QuantumSeed) -> list[tuple[int, int]]:
    """Directed edges i -> j on [1, n] wherever b_{ij} > 0, sorted."""
    return sorted(
        (i, j)
        for i in range(1, seed.n + 1)
        for j in range(1, seed.n + 1)
        if seed.b_entry(i, j) > 0
    )


def random_principal_seed(rng: random.Random, n: int, max_entry: int = 3, max_d: int = 3) -> QuantumSeed:
    """A random principal seed with |b_ij| <= max_entry and d_i <= max_d."""
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
    return principal_seed(b, d)


# -- seed file interchange ---------------------------------------------------


def seed_to_dict(seed: QuantumSeed) -> dict:
    payload = {
        "n": seed.n,
        "m": seed.m,
        "lambda": [list(row) for row in seed.form.rows()],
        "btilde": [list(row) for row in seed.exchange.btilde],
        "d": list(seed.d),
    }
    payload["labels"] = list(seed.labels)
    return payload


def _json_int(value, field: str) -> int:
    # JSON booleans are Python ints; a seed file must spell out integers.
    if isinstance(value, bool) or not isinstance(value, int):
        raise SeedFormatError(f"field {field!r} must hold integers, got {value!r}")
    return value


def _json_ints(values, field: str) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise SeedFormatError(f"field {field!r} must be a list of integers")
    return tuple(_json_int(v, field) for v in values)


def _json_matrix(rows, field: str) -> Matrix:
    if not isinstance(rows, list):
        raise SeedFormatError(f"field {field!r} must be a list of integer rows")
    return tuple(_json_ints(row, field) for row in rows)


def seed_from_dict(payload: dict) -> QuantumSeed:
    """Build and fully validate a seed from parsed JSON data.

    Fails with the first violated invariant: field shapes, skew-symmetry
    of lambda, positivity of d, skew-symmetrizability, compatibility.
    """
    for key in ("n", "m", "lambda", "btilde", "d"):
        if key not in payload:
            raise SeedFormatError(f"seed file is missing required field {key!r}")
    n, m = _json_int(payload["n"], "n"), _json_int(payload["m"], "m")
    lam_rows = _json_matrix(payload["lambda"], "lambda")
    btilde = _json_matrix(payload["btilde"], "btilde")
    d = _json_ints(payload["d"], "d")
    if len(lam_rows) != m or any(len(row) != m for row in lam_rows):
        raise SeedFormatError(f"lambda must be {m}x{m}")
    try:
        form = SkewForm(lam_rows)
    except ValueError as exc:
        raise SeedFormatError(str(exc)) from exc
    labels = payload.get("labels", [])
    if not isinstance(labels, list) or (
        labels and (len(labels) != m or not all(isinstance(v, str) for v in labels))
    ):
        raise SeedFormatError(f"labels must be {m} strings in a JSON list")
    seed = QuantumSeed(
        form=form,
        exchange=ExchangeMatrix(btilde, n=n, m=m),
        d=d,
        labels=tuple(labels),
    )
    verdict = validate_compatibility(seed)
    if not verdict:
        at = verdict.violation
        raise SeedFormatError(
            f"compatibility fails at (i, j) = ({at[0]}, {at[1]}): {verdict.message}"
        )
    return seed


def loads_seed(text: str) -> QuantumSeed:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SeedFormatError(f"seed file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SeedFormatError("seed file must hold a JSON object")
    return seed_from_dict(payload)


def load_seed(path) -> QuantumSeed:
    with open(path, "r", encoding="utf-8") as handle:
        return loads_seed(handle.read())


def dump_seed(seed: QuantumSeed, path) -> None:
    payload = seed_to_dict(seed)

    def matrix_lines(rows: list) -> str:
        return ",\n".join("    " + json.dumps(row) for row in rows)

    text = (
        "{\n"
        f'  "n": {payload["n"]},\n'
        f'  "m": {payload["m"]},\n'
        '  "lambda": [\n' + matrix_lines(payload["lambda"]) + "\n  ],\n"
        '  "btilde": [\n' + matrix_lines(payload["btilde"]) + "\n  ],\n"
        f'  "d": {json.dumps(payload["d"])},\n'
        f'  "labels": {json.dumps(payload["labels"])}\n'
        "}\n"
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
