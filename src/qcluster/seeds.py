"""Compatible pairs and quantum seeds.

A quantum seed bundles a skew-symmetric form Lambda, an m x n exchange
matrix Btilde whose principal n x n part is skew-symmetrizable by a
positive diagonal D, and variable labels.  Seeds are immutable; mutation
returns a fresh seed over a fresh form, so torus elements stay pinned to
the form they were built over.

Each invariant is checked once, by the constructor that owns it; the
order is in `seed_from_dict`, which checks only the JSON shape.

Indices in the public API are 1-based, matching the usual notation
(mutation direction k in [1, n], generators x_1 .. x_m).
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .qarith import QLaurent, _require_int
from .qtorus import ExpVec, SkewForm, TorusElem, vec_add

Matrix = tuple[tuple[int, ...], ...]


class SeedFormatError(ValueError):
    """A seed file or seed datum violates one of the seed invariants."""


def _field_int(value, field: str) -> None:
    # JSON booleans are Python ints; a seed must spell out integers.
    if isinstance(value, bool) or not isinstance(value, int):
        raise SeedFormatError(f"field {field!r} must hold integers, got {value!r}")


def pos_part(value: int) -> int:
    """max(value, 0), applied entrywise throughout mutation formulas."""
    return value if value > 0 else 0


@dataclass(frozen=True)
class ExchangeMatrix:
    """An m x n matrix of ints (bool excluded) whose columns drive mutation."""

    btilde: Matrix
    n: int
    m: int

    def __post_init__(self):
        _field_int(self.n, "n")
        _field_int(self.m, "m")
        # Rows passed as lists would leave the matrix unhashable and unequal
        # to the same matrix given as tuples.
        object.__setattr__(self, "btilde", tuple(map(tuple, self.btilde)))
        if self.n < 1 or self.m < self.n:
            raise SeedFormatError(f"need m >= n >= 1, got m={self.m}, n={self.n}")
        if len(self.btilde) != self.m or any(len(row) != self.n for row in self.btilde):
            raise SeedFormatError(f"btilde must be {self.m}x{self.n}")
        for row in self.btilde:
            for value in row:
                _field_int(value, "btilde")

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
    if len(d) != n or any(isinstance(v, bool) or not isinstance(v, int) or v <= 0 for v in d):
        return False
    return all(d[i] * b[i][j] == -d[j] * b[j][i] for i in range(n) for j in range(n))


@dataclass(frozen=True)
class QuantumSeed:
    """The triple (labels, Lambda, Btilde) with its skew-symmetrizer D.

    Every seed is a compatible pair: construction raises SeedFormatError
    unless Btilde^T * Lambda = [D 0].  `is_principal`, the one-step
    exponents `one_step_exponents` and the one-step variables `one_step`
    are derived once, on first use.
    """

    form: SkewForm
    exchange: ExchangeMatrix
    d: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(self.d))
        object.__setattr__(self, "labels", tuple(self.labels))
        n, m = self.exchange.n, self.exchange.m
        if self.form.dim != m:
            raise SeedFormatError(
                f"lambda must be {m}x{m} to match btilde's m={m} rows, got {self.form.dim}x{self.form.dim}"
            )
        if not is_skew_symmetrizer(self.d, self.exchange.principal_part()):
            # The one decision on d; what follows only names the fault.
            for value in self.d:
                _field_int(value, "d")
            if len(self.d) != n or any(v <= 0 for v in self.d):
                raise SeedFormatError("d must be a length-n vector of positive integers")
            raise SeedFormatError("d does not skew-symmetrize the principal part")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(f"x{i}" for i in range(1, m + 1)))
        elif len(self.labels) != m:
            raise SeedFormatError(f"labels must be {m} strings, got {list(self.labels)!r}")
        elif not all(isinstance(label, str) for label in self.labels):
            raise SeedFormatError(f"labels must be strings, got {list(self.labels)!r}")
        validate_compatibility(self)

    @property
    def n(self) -> int:
        return self.exchange.n

    @property
    def m(self) -> int:
        return self.exchange.m

    def b_entry(self, i: int, j: int) -> int:
        return self.exchange.entry(i, j)

    @functools.cached_property
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

    @functools.cached_property
    def one_step_exponents(self) -> tuple[tuple[ExpVec, ExpVec], ...]:
        """(g(y_k), b_k) for k = 1 .. n, read from column b_k:
        y_k = X^(g(y_k) + b_k) + X^g(y_k), g(y_k) = -e_k + [-b_k]_+."""
        columns = map(self.exchange.column, range(1, self.n + 1))
        return tuple((tuple(pos_part(-b) - (r == k) for r, b in enumerate(column)), column) for k, column in enumerate(columns))

    @functools.cached_property
    def one_step(self) -> tuple[TorusElem, ...]:
        """y_1, ..., y_n over this seed's form, each built by `mutated_variable`."""
        return tuple(mutated_variable(self, k) for k in range(1, self.n + 1))


def validate_compatibility(seed: QuantumSeed) -> None:
    """Check Btilde^T * Lambda = [D 0] entrywise.

    Equivalently pairing(b_j, e_i) = delta_ij * d_j.  Raises
    SeedFormatError at the first violating (i, j), scanning columns j in
    [1, n] and rows i in [1, m].  QuantumSeed runs it on construction.
    """
    lam_columns = tuple(zip(*seed.form.rows()))
    for j in range(1, seed.n + 1):
        column = seed.exchange.column(j)
        for i, lam_column in enumerate(lam_columns, 1):
            expected = seed.d[j - 1] if i == j else 0
            actual = sum(map(mul, column, lam_column))
            if actual != expected:
                raise SeedFormatError(
                    f"compatibility fails at (i, j) = ({i}, {j}): "
                    f"pairing(b_{j}, e_{i}) = {actual}, expected {expected}"
                )


def principal_seed(b: Sequence[Sequence[int]], d: Sequence[int]) -> QuantumSeed:
    """The principal-coefficients seed for an n x n exchange matrix b.

    Lambda = [[0, -D], [D, -DB]] and Btilde = [B; I_n] with m = 2n, a
    compatible pair by construction.  Every entry of b and d must be an
    int (bool excluded), as in a seed file; SeedFormatError otherwise.
    `ExchangeMatrix` checks b and `QuantumSeed` checks d; a d that Lambda
    cannot be built from is refused here.
    """
    n = len(b)
    exchange = ExchangeMatrix([*b, *([int(r == c) for c in range(n)] for r in range(n))], n=n, m=2 * n)
    b, d = exchange.principal_part(), tuple(d)
    lam = [[0] * (2 * n) for _ in range(2 * n)]
    try:
        # zip stops at the shorter, and -DB is filled from its upper triangle,
        # which is -DB itself when d skew-symmetrizes b: the form is skew for
        # any d, and QuantumSeed decides d, its length included.
        for i, d_i in zip(range(n), d):
            lam[i][n + i] = -d_i
            lam[n + i][i] = d_i
            for j in range(i + 1, n):
                lam[n + i][n + j] = -d_i * b[i][j]
                lam[n + j][n + i] = d_i * b[i][j]
        form = SkewForm(lam)
    except TypeError as exc:
        raise SeedFormatError("field 'd' must hold integers") from exc
    return QuantumSeed(form=form, exchange=exchange, d=d)


def with_mutable_block(seed: QuantumSeed, lam11: Sequence[Sequence[int]]) -> QuantumSeed:
    """The principal seed with the exchange matrix and d of the principal
    `seed` whose Lambda has the skew mutable block `lam11`:
    Lambda12 = -D - Lambda11 B, Lambda21 = -Lambda12^T and
    Lambda22 = B^T D + B^T Lambda11 B make Btilde^T Lambda = [D 0]."""
    n, b, d = seed.n, seed.exchange.principal_part(), seed.d
    lam12 = [[-d[r] * (r == c) - sum(lam11[r][t] * b[t][c] for t in range(n)) for c in range(n)] for r in range(n)]
    lam22 = [[b[c][r] * d[c] + sum(b[s][r] * lam11[s][t] * b[t][c] for s in range(n) for t in range(n)) for c in range(n)] for r in range(n)]
    rows = [list(lam11[r]) + lam12[r] for r in range(n)] + [[-lam12[c][r] for c in range(n)] + lam22[r] for r in range(n)]
    return QuantumSeed(form=SkewForm(rows), exchange=seed.exchange, d=d)


def mutate(seed: QuantumSeed, k: int) -> QuantumSeed:
    """One-step mutation in direction k (1-based, k in [1, n]).

    Produces the mutated exchange matrix and skew form over the same D;
    like every seed, the result is checked for compatibility when it is
    built.  Mutation is an involution.
    """
    _require_int("mutation direction k", k)
    n, m = seed.n, seed.m
    if not 1 <= k <= n:
        raise ValueError(f"mutation direction {k} out of range [1, {n}]")
    kk = k - 1
    old_b = seed.exchange.btilde
    new_b = [list(row) for row in old_b]
    for i in range(m):
        for j in range(n):
            if i == kk or j == kk:
                new_b[i][j] = -old_b[i][j]
            else:
                # |x|y + x|y| is 0 or +-2xy for any ints x, y, so // 2 is exact.
                bump = abs(old_b[i][kk]) * old_b[kk][j] + old_b[i][kk] * abs(old_b[kk][j])
                new_b[i][j] = old_b[i][j] + bump // 2

    lam = seed.form.rows()
    new_lam = [list(row) for row in lam]
    for j in range(m):
        if j == kk:
            continue
        value = -lam[kk][j] + sum(pos_part(old_b[t][kk]) * lam[t][j] for t in range(m))
        new_lam[kk][j] = value
        new_lam[j][kk] = -value

    new_labels = list(seed.labels)
    new_labels[kk] = seed.labels[kk] + "'"
    return QuantumSeed(
        form=SkewForm(new_lam),
        exchange=ExchangeMatrix(new_b, n=n, m=m),
        d=seed.d,
        labels=tuple(new_labels),
    )


def mutated_variable(seed: QuantumSeed, k: int) -> TorusElem:
    """The one-step variable x'_k = X^(-e_k + [b_k]_+) + X^(-e_k + [-b_k]_+).

    Lives over the *original* seed's form; [.]_+ acts entrywise on
    column b_k.
    """
    _require_int("variable index k", k)
    if not 1 <= k <= seed.n:
        raise ValueError(f"variable index {k} out of range [1, {seed.n}]")
    g, column = seed.one_step_exponents[k - 1]
    # Seed entries are ints, so the exponents are canonical.  They differ:
    # compatibility forces pairing(b_k, e_k) = d_k >= 1, so b_k != 0.
    return TorusElem._raw(seed.form, {vec_add(g, column): QLaurent.one(), g: QLaurent.one()})


def random_principal_seed(rng: random.Random, n: int, max_entry: int = 3, max_d: int = 3, mutable_block: bool = False) -> QuantumSeed:
    """A random principal seed with |b_ij| <= max_entry (>= 0) and 1 <= d_i <= max_d;
    with `mutable_block`, Lambda's mutable block is then drawn skew with
    entries in {-2, -1, 1, 2} (`with_mutable_block`)."""
    if max_d < 1 or max_entry < 0:
        raise ValueError(f"random seeds need max_d >= 1 and max_entry >= 0, got max_d={max_d}, max_entry={max_entry}")
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
    if not mutable_block:
        return principal_seed(b, d)
    upper = {(r, c): rng.choice((-2, -1, 1, 2)) for r in range(n) for c in range(r + 1, n)}
    lam11 = [[upper.get((r, c), 0) - upper.get((c, r), 0) for c in range(n)] for r in range(n)]
    return with_mutable_block(principal_seed(b, d), lam11)


# -- seed file interchange ---------------------------------------------------


def seed_to_dict(seed: QuantumSeed) -> dict:
    return {
        "n": seed.n,
        "m": seed.m,
        "lambda": [list(row) for row in seed.form.rows()],
        "btilde": [list(row) for row in seed.exchange.btilde],
        "d": list(seed.d),
        "labels": list(seed.labels),
    }


def seed_from_dict(payload: dict) -> QuantumSeed:
    """Build and fully validate a seed from parsed JSON data.

    Only the JSON shape is checked here: the required keys, and a list (of
    lists, for lambda and btilde) wherever one belongs.  The constructors
    check each value once and raise the first violation, in this order:
    `ExchangeMatrix` (n, m, btilde's shape and ints), `SkewForm` (lambda's
    ints, square shape and skew-symmetry, re-raised naming lambda), then
    `QuantumSeed` (lambda's size against m; d's ints, length, positivity
    and skew-symmetrizing; labels; compatibility).
    """
    for key in ("n", "m", "lambda", "btilde", "d"):
        if key not in payload:
            raise SeedFormatError(f"seed file is missing required field {key!r}")
    for field in ("lambda", "btilde"):
        rows = payload[field]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise SeedFormatError(f"field {field!r} must be a list of integer rows")
    if not isinstance(payload["d"], list):
        raise SeedFormatError("field 'd' must be a list of integers")
    exchange = ExchangeMatrix(payload["btilde"], n=payload["n"], m=payload["m"])
    labels = payload.get("labels", [])
    if not isinstance(labels, list):
        raise SeedFormatError(f"labels must be {exchange.m} strings in a JSON list")
    try:
        form = SkewForm(payload["lambda"])
    except TypeError as exc:
        raise SeedFormatError("field 'lambda' must hold integers") from exc
    except ValueError as exc:
        raise SeedFormatError(f"field 'lambda': {exc}") from exc
    return QuantumSeed(form=form, exchange=exchange, d=payload["d"], labels=labels)


def loads_seed(text: str) -> QuantumSeed:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SeedFormatError(f"seed file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SeedFormatError("seed file nests too deeply to be a seed object") from exc
    except ValueError as exc:
        # The decoder's own limit on integer digits; its wording varies by version.
        raise SeedFormatError("seed file holds an integer too long to be a seed entry") from exc
    if not isinstance(payload, dict):
        raise SeedFormatError("seed file must hold a JSON object")
    return seed_from_dict(payload)


def load_seed(path) -> QuantumSeed:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SeedFormatError(
            f"seed file is not UTF-8 text: byte {data[exc.start]:#04x} at offset {exc.start}"
        ) from exc
    return loads_seed(text)


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
