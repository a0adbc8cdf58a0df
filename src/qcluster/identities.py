"""Executable oracle suite for the standalone q-identities.

Each identity family expands both sides exactly and compares canonical
forms; vanishing families compare against the zero polynomial.  Scalar
families expand in QLaurent.  The product expansions are polynomials in
commuting indeterminates, expanded as TorusElem values over the zero skew
form (one variable x, or x and y for the bivariate family).  Families
carry their precondition ranges as data, so a single sweep can enumerate
and report every instance uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Sequence

from .qarith import QLaurent, q_binom, q_int
from .qtorus import SkewForm, TorusElem


@dataclass(frozen=True)
class IdentityReport:
    """One identity check: the family tag, its parameters, and the verdict
    (pass iff both sides expand to the same canonical form)."""

    family: str
    params: tuple[int, ...]
    verdict: bool

    def render(self) -> str:
        names = FAMILIES[self.family].param_names
        inner = ",".join(f"{n}={v}" for n, v in zip(names, self.params))
        return f"{self.family}({inner}) = {'PASS' if self.verdict else 'FAIL'}"


# -- the expansions ----------------------------------------------------------


def _alternating_terms(top: int, shift: int) -> Iterator[QLaurent]:
    """(-1)^r q^(r(r-1)/2 - shift*r) [top, r] for r = 0..top, one at a time."""
    for r in range(top + 1):
        term = q_binom(top, r).shift(r * (r - 1) - 2 * shift * r)
        yield -term if r % 2 else term


def _vanishing(d: int) -> tuple[QLaurent, QLaurent]:
    return sum(_alternating_terms(d, 0), QLaurent.zero()), QLaurent.zero()


def _shifted_vanishing(d: int, c: int) -> tuple[QLaurent, QLaurent]:
    return sum(_alternating_terms(d, c), QLaurent.zero()), QLaurent.zero()


def _double_sum(n: int, shift: int, slope: int) -> tuple[QLaurent, QLaurent]:
    """sum_{t=0}^{n} q^(slope*t) sum_{r=0}^{t} (-1)^r q^(r(r-1)/2 - shift*r) [n+1, r]."""
    total = inner = QLaurent.zero()
    for t, term in enumerate(islice(_alternating_terms(n + 1, shift), n + 1)):
        inner = inner + term
        total = total + inner.shift(2 * slope * t)
    return total, QLaurent.zero()


_LINE = SkewForm([[0]])
_PLANE = SkewForm([[0, 0], [0, 0]])


def _product_expansion(n: int) -> tuple[TorusElem, TorusElem]:
    # prod_{r=1}^{n} (1 + q^r x) in the commuting variable x = X^[1].
    lhs = TorusElem.unit(_LINE)
    for r in range(1, n + 1):
        lhs = lhs * TorusElem(_LINE, {(0,): 1, (1,): QLaurent.q_power(2 * r)})
    rhs = TorusElem(_LINE, {(k,): q_binom(n, k).shift(k * (k + 1)) for k in range(n + 1)})
    return lhs, rhs


def _product_expansion_bivar(n: int) -> tuple[TorusElem, TorusElem]:
    # Homogenized: prod_{r=1}^{n} (y + q^r x) with x = X^[1,0], y = X^[0,1].
    lhs = TorusElem.unit(_PLANE)
    for r in range(1, n + 1):
        lhs = lhs * TorusElem(_PLANE, {(0, 1): 1, (1, 0): QLaurent.q_power(2 * r)})
    rhs = TorusElem(_PLANE, {(k, n - k): q_binom(n, k).shift(k * (k + 1)) for k in range(n + 1)})
    return lhs, rhs


def _vandermonde(n: int, d: int, k: int) -> tuple[QLaurent, QLaurent]:
    lhs = q_binom(n, k)
    rhs = QLaurent.zero()
    for r in range(k + 1):
        rhs = rhs + QLaurent.q_power(2 * (d - r) * (k - r)) * q_binom(d, r) * q_binom(n - d, k - r)
    return lhs, rhs


def _pascal(n: int, r: int, d: int) -> tuple[QLaurent, QLaurent]:
    lhs = q_binom(n + 1, r, d)
    upper, lower = q_binom(n, r, d), q_binom(n, r - 1, d)
    first = upper + QLaurent.q_power(2 * d * (n + 1 - r)) * lower
    second = QLaurent.q_power(2 * d * r) * upper + lower
    if first != second:
        # Return an unequal pair so a broken recurrence fails the check.
        return first, second
    return lhs, first


def _reversal(n: int, d: int) -> tuple[QLaurent, QLaurent]:
    lhs = q_int(n, d)
    rhs = QLaurent.q_power(2 * d * (n - 1)) * q_int(n, d).bar()
    return lhs, rhs


def _symmetry(n: int, r: int, d: int) -> tuple[QLaurent, QLaurent]:
    lhs = q_binom(n, r, d)
    rhs = QLaurent.q_power(2 * d * r * (n - r)) * lhs.bar()
    return lhs, rhs


def _base_change(n: int, r: int, d: int) -> tuple[QLaurent, QLaurent]:
    # Cross-multiplied: [n]_{q^(rd)} * [r]_{q^d} = [n]_{q^d} * [r]_{q^(dn)}.
    lhs = q_int(n, r * d) * q_int(r, d)
    rhs = q_int(n, d) * q_int(r, d * n)
    return lhs, rhs


# -- the family registry -----------------------------------------------------


@dataclass(frozen=True)
class IdentityFamily:
    name: str
    param_names: tuple[str, ...]
    precondition: str
    validate: Callable[..., bool]
    expand: Callable[..., tuple[object, object]]
    sweep: Callable[[], Iterator[tuple[int, ...]]]


def _sweep_vanishing() -> Iterator[tuple[int, ...]]:
    for d in range(1, 11):
        yield (d,)


def _sweep_shifted() -> Iterator[tuple[int, ...]]:
    for d in range(1, 11):
        for c in range(d):
            yield (d, c)


def _sweep_n(top: int) -> Callable[[], Iterator[tuple[int, ...]]]:
    def gen() -> Iterator[tuple[int, ...]]:
        for n in range(1, top + 1):
            yield (n,)

    return gen


def _sweep_vandermonde() -> Iterator[tuple[int, ...]]:
    for n in range(9):
        for d in range(n + 1):
            for k in range(9):
                yield (n, d, k)


def _sweep_double_neg() -> Iterator[tuple[int, ...]]:
    for n in range(1, 9):
        for k in range(1, n + 1):
            yield (n, k)


def _sweep_double_pos() -> Iterator[tuple[int, ...]]:
    for n in range(1, 9):
        for v in range(1, n + 1):
            for k in range(v):
                yield (n, v, k)


def _sweep_pascal() -> Iterator[tuple[int, ...]]:
    for n in range(12):
        for r in range(n + 2):
            for d in range(1, 4):
                yield (n, r, d)


def _sweep_reversal() -> Iterator[tuple[int, ...]]:
    for n in range(13):
        for d in range(1, 4):
            yield (n, d)


def _sweep_symmetry() -> Iterator[tuple[int, ...]]:
    for n in range(11):
        for r in range(n + 1):
            for d in range(1, 4):
                yield (n, r, d)


def _sweep_base_change() -> Iterator[tuple[int, ...]]:
    for n in range(1, 9):
        for r in range(1, 9):
            for d in range(1, 4):
                yield (n, r, d)


FAMILIES: dict[str, IdentityFamily] = {
    family.name: family
    for family in (
        IdentityFamily(
            "VANISHING",
            ("d",),
            "d >= 1",
            lambda d: d >= 1,
            _vanishing,
            _sweep_vanishing,
        ),
        IdentityFamily(
            "SHIFTED_VANISHING",
            ("d", "c"),
            "d >= 1 and 0 <= c <= d-1",
            lambda d, c: d >= 1 and 0 <= c <= d - 1,
            _shifted_vanishing,
            _sweep_shifted,
        ),
        IdentityFamily(
            "PRODUCT_EXPANSION",
            ("n",),
            "n >= 1",
            lambda n: n >= 1,
            _product_expansion,
            _sweep_n(10),
        ),
        IdentityFamily(
            "PRODUCT_EXPANSION_BIVAR",
            ("n",),
            "n >= 1",
            lambda n: n >= 1,
            _product_expansion_bivar,
            _sweep_n(10),
        ),
        IdentityFamily(
            "VANDERMONDE",
            ("n", "d", "k"),
            "k >= 0 and 0 <= d <= n",
            lambda n, d, k: k >= 0 and 0 <= d <= n,
            _vandermonde,
            _sweep_vandermonde,
        ),
        IdentityFamily(
            "DOUBLE_SUM_NEG",
            ("n", "k"),
            "1 <= k <= n",
            lambda n, k: 1 <= k <= n,
            lambda n, k: _double_sum(n, 0, -k),
            _sweep_double_neg,
        ),
        IdentityFamily(
            "DOUBLE_SUM_POS",
            ("n", "v", "k"),
            "v <= n and 0 <= k <= v-1",
            lambda n, v, k: v <= n and 0 <= k <= v - 1,
            lambda n, v, k: _double_sum(n, n, v - k),
            _sweep_double_pos,
        ),
        IdentityFamily(
            "PASCAL",
            ("n", "r", "d"),
            "n >= 0 and r >= 0 and d >= 1",
            lambda n, r, d: n >= 0 and r >= 0 and d >= 1,
            _pascal,
            _sweep_pascal,
        ),
        IdentityFamily(
            "REVERSAL",
            ("n", "d"),
            "n >= 0 and d >= 1",
            lambda n, d: n >= 0 and d >= 1,
            _reversal,
            _sweep_reversal,
        ),
        IdentityFamily(
            "SYMMETRY",
            ("n", "r", "d"),
            "0 <= r <= n and d >= 1",
            lambda n, r, d: 0 <= r <= n and d >= 1,
            _symmetry,
            _sweep_symmetry,
        ),
        IdentityFamily(
            "BASE_CHANGE",
            ("n", "r", "d"),
            "n >= 1 and r >= 1 and d >= 1",
            lambda n, r, d: n >= 1 and r >= 1 and d >= 1,
            _base_change,
            _sweep_base_change,
        ),
    )
}


def check_identity(family: str, params: Sequence[int]) -> IdentityReport:
    """Expand both sides of one identity instance and compare exactly.

    Rejects unknown families and out-of-range parameters with a message
    naming the family's precondition.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown identity family {family!r}")
    spec = FAMILIES[family]
    params = tuple(int(v) for v in params)
    if len(params) != len(spec.param_names):
        raise ValueError(
            f"{family} takes parameters ({', '.join(spec.param_names)}), got {params}"
        )
    if not spec.validate(*params):
        shown = ", ".join(f"{n}={v}" for n, v in zip(spec.param_names, params))
        raise ValueError(f"{family} requires {spec.precondition}; got {shown}")
    lhs, rhs = spec.expand(*params)
    return IdentityReport(family=family, params=params, verdict=lhs == rhs)


def sweep_reports(families: Sequence[str] | None = None) -> list[IdentityReport]:
    """Run every family over its stated ranges, ordered by family then
    lexicographic parameters."""
    chosen = sorted(families) if families is not None else sorted(FAMILIES)
    reports = []
    for name in chosen:
        if name not in FAMILIES:
            raise ValueError(f"unknown identity family {name!r}")
        for params in sorted(FAMILIES[name].sweep()):
            reports.append(check_identity(name, params))
    return reports
