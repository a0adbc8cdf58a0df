"""Relations between one-step mutated quantum cluster variables.

Every check here expands an alternating sum (or a difference against a
closed form) exactly in the torus and decides the verdict by canonical
emptiness, never by sampling.  Certificates record the instance, the
verdict, the canonical remainder and expansion statistics.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .qarith import QLaurent, q_binom
from .qtorus import TorusElem
from .seeds import (
    QuantumSeed,
    SeedFormatError,
    find_symmetrizer,
    is_skew_symmetrizer,
    mutated_variable,
    pos_part,
    validate_compatibility,
)


@dataclass(frozen=True)
class VerificationCertificate:
    """Outcome of one exact relation check.

    `residue` is the canonical string of the element that must vanish
    ("0" on a pass).  For the alternating sums (serre, serre-opposite,
    higher, lemma-sum) `terms` is the summed term counts of the scaled
    summands; the commutator check reports the term count of
    y_i y_j - y_j y_i, and the power-product check the summed term counts
    of its three expansions.  `seconds` is wall time.
    """

    check: str
    params: tuple[tuple[str, object], ...]
    ok: bool
    residue: str
    terms: int
    seconds: float
    exploratory: bool = False

    def describe(self) -> str:
        inner = ", ".join(f"{name}={value}" for name, value in self.params)
        tag = " [exploratory]" if self.exploratory else ""
        return f"{self.check}({inner}){tag}"

    def render(self, timings: bool = False) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        stats = f"terms={self.terms}"
        if timings:
            stats += f", {self.seconds:.3f}s"
        line = f"{self.describe()}: {verdict} [{stats}]"
        if not self.ok:
            line += f"\n  remainder: {self.residue}"
        return line

    def summary_json(self, timings: bool = False) -> str:
        record: dict[str, object] = {"check": self.check}
        record.update({name: value for name, value in self.params})
        if self.exploratory:
            record["exploratory"] = True
        record["ok"] = self.ok
        record["residue"] = self.residue
        record["terms"] = self.terms
        if timings:
            record["seconds"] = round(self.seconds, 6)
        return json.dumps(record)


@dataclass(frozen=True)
class RelationInstance:
    """Validated parameters (i, j, l, m_exp) for a higher-order relation.

    m_exp defaults to the minimal admissible outer exponent l*|b_ij|.
    """

    seed: QuantumSeed
    i: int
    j: int
    l: int = 1
    m_exp: int | None = None

    def __post_init__(self):
        seed, i, j = self.seed, self.i, self.j
        _require_pair(seed, i, j)
        b = abs(seed.b_entry(i, j))
        if self.l < 1:
            raise ValueError(f"order l must be positive, got l={self.l}")
        if self.m_exp is None:
            object.__setattr__(self, "m_exp", self.l * b)
        if b == 0:
            if self.m_exp < 0:
                raise ValueError(f"b_ij = 0 needs m >= 0, got m={self.m_exp}")
        else:
            if self.l > b:
                raise ValueError(f"order l={self.l} exceeds |b_ij| = {b}")
            if self.m_exp < self.l * b:
                raise ValueError(
                    f"outer exponent m={self.m_exp} below the bound l*|b_ij| = {self.l * b}"
                )

    @property
    def family(self) -> str:
        b = self.seed.b_entry(self.i, self.j)
        return "b<0" if b < 0 else ("b=0" if b == 0 else "b>0")


# -- small helpers -----------------------------------------------------------


def _require_principal(seed: QuantumSeed) -> None:
    if not seed.is_principal:
        raise ValueError("seed is not principal (m = 2n with identity coefficient block)")
    verdict = validate_compatibility(seed)
    if not verdict:
        raise SeedFormatError(f"seed is incompatible: {verdict.message}")


def _require_pair(seed: QuantumSeed, i: int, j: int) -> None:
    n = seed.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices (i, j) = ({i}, {j}) out of range [1, {n}]")
    if i == j:
        raise ValueError("need two distinct mutable indices")


def _gen_power(seed: QuantumSeed, index: int, power: int) -> TorusElem:
    return TorusElem.monomial(
        seed.form, tuple(power if t == index - 1 else 0 for t in range(seed.m))
    )


def _ordered_power_product(seed: QuantumSeed, exponent_of: Callable[[int], int], skip: int | None = None) -> TorusElem:
    """prod over mutable k in the seed's order of x_k^exponent_of(k), skipping one index."""
    acc = TorusElem.unit(seed.form)
    for k in seed.order:
        if k == skip:
            continue
        power = exponent_of(k)
        if power:
            acc = acc * _gen_power(seed, k, power)
    return acc


def _alternating_coeffs(top: int, d: int, shift: int) -> list[QLaurent]:
    """(-1)^r q^(d*r*(r-1)/2 - d*r*shift) [top, r] at base q^d, r = 0..top."""
    out = []
    for r in range(top + 1):
        coeff = q_binom(top, r, d) * QLaurent.q_power(d * r * (r - 1) - 2 * d * r * shift)
        out.append(-coeff if r % 2 else coeff)
    return out


def _partial_sums(values: Sequence[QLaurent]) -> list[QLaurent]:
    out = []
    acc = QLaurent.zero()
    for value in values:
        acc = acc + value
        out.append(acc)
    return out


def _certify(check: str, params: Sequence[tuple[str, object]], residue: TorusElem, terms: int, started: float, exploratory: bool = False) -> VerificationCertificate:
    return VerificationCertificate(
        check=check,
        params=tuple(params),
        ok=residue.is_zero(),
        residue=str(residue),
        terms=terms,
        seconds=time.perf_counter() - started,
        exploratory=exploratory,
    )


def _sandwich(outer: TorusElem, middle: TorusElem, coeffs: Sequence[QLaurent]) -> tuple[TorusElem, int]:
    """sum_r coeffs[r] * outer^(L-r) * middle * outer^r with L = len(coeffs) - 1.

    Every relation check is one such sum.  Returns it together with the
    summed term counts of the scaled summands.
    """
    top = len(coeffs) - 1
    powers = [TorusElem.unit(outer.form)]
    for _ in range(top):
        powers.append(powers[-1] * outer)
    acc = TorusElem.zero(outer.form)
    terms = 0
    for r, coeff in enumerate(coeffs):
        summand = (powers[top - r] * middle * powers[r]).scale(coeff)
        terms += summand.term_count()
        acc = acc + summand
    return acc, terms


def _order_sum(seed: QuantumSeed, i: int, j: int, l: int, m_exp: int) -> tuple[TorusElem, int]:
    """sum_r +/- [m+1, r] y_i^(m+1-r) y_j^l y_i^r at base q^(d_i).

    The twist is q^(d_i * r(r-1)/2), times q^(-d_i * r * m) when b_ij > 0.
    """
    shift = m_exp if seed.b_entry(i, j) > 0 else 0
    coeffs = _alternating_coeffs(m_exp + 1, seed.d[i - 1], shift)
    return _sandwich(mutated_variable(seed, i), mutated_variable(seed, j) ** l, coeffs)


# -- one-step variables ------------------------------------------------------


def one_step_variables(seed: QuantumSeed) -> list[TorusElem]:
    """y_1, ..., y_n: every one-step mutated variable over the initial form."""
    _require_principal(seed)
    return [mutated_variable(seed, k) for k in range(1, seed.n + 1)]


# -- commutator closed form --------------------------------------------------


def witness_scalar(seed: QuantumSeed, i: int, j: int) -> QLaurent:
    """The scalar multiplying the commutator witness monomial.

    q^(-d_i/2 - d_i*b_ij) - q^(-d_i/2) when b_ij < 0, and
    q^(-d_j/2) - q^(-d_j/2 - d_j*b_ji) when b_ij > 0; zero when b_ij = 0.
    """
    _require_pair(seed, i, j)
    b_ij = seed.b_entry(i, j)
    if b_ij == 0:
        return QLaurent.zero()
    if b_ij < 0:
        d_i = seed.d[i - 1]
        return QLaurent({-d_i - 2 * d_i * b_ij: 1, -d_i: -1})
    d_j = seed.d[j - 1]
    b_ji = seed.b_entry(j, i)
    return QLaurent({-d_j: 1, -d_j - 2 * d_j * b_ji: -1})


def witness_monomial(seed: QuantumSeed, i: int, j: int) -> TorusElem:
    """The ordered generator word carrying the commutator of y_i and y_j.

    For b_ij < 0 this is
        x_i^(-b_ij-1) x_j^(b_ji-1)
        * prod_{k != j} x_k^([b_ki]_+) * prod_{k != i} x_k^([-b_kj]_+)
        * x_{n+i},
    and for b_ij > 0
        x_i^(b_ij-1) x_j^(-b_ji-1)
        * prod_{k != j} x_k^([-b_ki]_+) * prod_{k != i} x_k^([b_kj]_+)
        * x_{n+j},
    products over mutable indices in the seed's order.
    """
    _require_pair(seed, i, j)
    b_ij = seed.b_entry(i, j)
    b_ji = seed.b_entry(j, i)
    n = seed.n
    if b_ij == 0:
        return TorusElem.zero(seed.form)
    if b_ij < 0:
        head = _gen_power(seed, i, -b_ij - 1) * _gen_power(seed, j, b_ji - 1)
        first = _ordered_power_product(seed, lambda k: pos_part(seed.b_entry(k, i)), skip=j)
        second = _ordered_power_product(seed, lambda k: pos_part(-seed.b_entry(k, j)), skip=i)
        frozen = _gen_power(seed, n + i, 1)
    else:
        head = _gen_power(seed, i, b_ij - 1) * _gen_power(seed, j, -b_ji - 1)
        first = _ordered_power_product(seed, lambda k: pos_part(-seed.b_entry(k, i)), skip=j)
        second = _ordered_power_product(seed, lambda k: pos_part(seed.b_entry(k, j)), skip=i)
        frozen = _gen_power(seed, n + j, 1)
    return head * first * second * frozen


def commutator_witness(seed: QuantumSeed, i: int, j: int) -> TorusElem:
    """Closed form of y_i y_j - y_j y_i."""
    return witness_monomial(seed, i, j).scale(witness_scalar(seed, i, j))


def commutator_check(seed: QuantumSeed, i: int, j: int) -> VerificationCertificate:
    """Compare y_i y_j - y_j y_i against its closed-form witness."""
    started = time.perf_counter()
    _require_principal(seed)
    _require_pair(seed, i, j)
    y_i = mutated_variable(seed, i)
    y_j = mutated_variable(seed, j)
    commutator = y_i * y_j - y_j * y_i
    residue = commutator - commutator_witness(seed, i, j)
    terms = commutator.term_count()
    return _certify("commutator", (("i", i), ("j", j)), residue, terms, started)


# -- power products y_i^t x_i^t and x_i^t y_i^t ------------------------------


def _power_product_factor(seed: QuantumSeed, i: int, r: int, side: str) -> TorusElem:
    neg_part = _ordered_power_product(seed, lambda k: pos_part(-seed.b_entry(k, i)))
    plus_part = _ordered_power_product(seed, lambda k: pos_part(seed.b_entry(k, i)))
    d_i = seed.d[i - 1]
    half = -d_i + 2 * d_i * r if side == "left" else d_i - 2 * d_i * r
    return neg_part + (plus_part * _gen_power(seed, seed.n + i, 1)).scale(QLaurent.q_power(half))


def _power_product_expansion(seed: QuantumSeed, i: int, t: int, side: str) -> TorusElem:
    d_i = seed.d[i - 1]
    acc = TorusElem.zero(seed.form)
    for k in range(t + 1):
        half = d_i * k * k if side == "left" else d_i * k * (k - 2 * t)
        coeff = q_binom(t, k, d_i) * QLaurent.q_power(half)
        word = (
            _ordered_power_product(seed, lambda v: (t - k) * pos_part(-seed.b_entry(v, i)))
            * _ordered_power_product(seed, lambda v: k * pos_part(seed.b_entry(v, i)))
            * _gen_power(seed, seed.n + i, k)
        )
        acc = acc + word.scale(coeff)
    return acc


def power_product_check(seed: QuantumSeed, i: int, t: int, side: str = "left") -> VerificationCertificate:
    """Triple agreement for y_i^t x_i^t (left) or x_i^t y_i^t (right).

    The brute-force fold must equal both the telescoping product form and
    the q-binomial expansion.
    """
    started = time.perf_counter()
    _require_principal(seed)
    if not 1 <= i <= seed.n:
        raise ValueError(f"index i={i} out of range [1, {seed.n}]")
    if t < 1:
        raise ValueError(f"power t must be >= 1, got {t}")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    y_i = mutated_variable(seed, i)
    x_i = _gen_power(seed, i, 1)
    brute = (y_i ** t) * (x_i ** t) if side == "left" else (x_i ** t) * (y_i ** t)
    product_form = TorusElem.unit(seed.form)
    for r in range(1, t + 1):
        product_form = product_form * _power_product_factor(seed, i, r, side)
    expansion = _power_product_expansion(seed, i, t, side)
    first_diff = brute - product_form
    second_diff = brute - expansion
    residue = first_diff if first_diff else second_diff
    terms = brute.term_count() + product_form.term_count() + expansion.term_count()
    return _certify("power-product", (("i", i), ("t", t), ("side", side)), residue, terms, started)


# -- vanishing-sum lemmas ----------------------------------------------------


def lemma_sum_check(
    seed: QuantumSeed,
    i: int,
    j: int,
    variant: str = "L32",
    m_exp: int | None = None,
    t_shift: int | None = None,
) -> VerificationCertificate:
    """The alternating vanishing sums feeding the relation proofs.

    L32 is the one-step version and takes neither m_exp nor t_shift;
    L41 generalizes it: t_shift >= 0 plays the inner-decomposition role
    and the sum runs to m_exp.  L32 is L41 at t_shift = 0, m_exp = |b_ij|.
    Requires b_ij != 0.
    """
    started = time.perf_counter()
    _require_principal(seed)
    _require_pair(seed, i, j)
    if variant not in ("L32", "L41"):
        raise ValueError(f"variant must be 'L32' or 'L41', got {variant!r}")
    if variant == "L32" and (m_exp is not None or t_shift is not None):
        raise ValueError(
            f"L32 fixes m_exp = |b_ij| and t_shift = 0 and takes neither; "
            f"got m_exp={m_exp}, t_shift={t_shift}"
        )
    b = seed.b_entry(i, j)
    if b == 0:
        raise ValueError("lemma sums need b_ij != 0")
    size = abs(b)
    if variant == "L32":
        m_exp, t_shift = size, 0
        params: tuple[tuple[str, object], ...] = (("i", i), ("j", j), ("variant", "L32"))
    else:
        if t_shift is None:
            t_shift = 0
        if m_exp is None:
            m_exp = (t_shift + 1) * size
        if t_shift < 0 or t_shift + 1 > size:
            raise ValueError(
                f"L41 needs 0 <= t_shift <= |b_ij| - 1 = {size - 1}, got t_shift={t_shift}"
            )
        if m_exp < (t_shift + 1) * size:
            raise ValueError(
                f"L41 needs m_exp >= (t_shift+1)*|b_ij| = {(t_shift + 1) * size}, got m_exp={m_exp}"
            )
        params = (("i", i), ("j", j), ("variant", "L41"), ("m", m_exp), ("t", t_shift))
    d_i = seed.d[i - 1]
    step = size * (1 + t_shift)
    # summand t carries the partial sum of coefficients 0..t, twisted by
    # q^(-d_i*t) when b_ij < 0 and by q^(d_i*t*step) when b_ij > 0
    slope = step if b > 0 else -1
    sums = _partial_sums(_alternating_coeffs(m_exp + 1, d_i, m_exp if b > 0 else 0))
    coeffs = [sums[t] * QLaurent.q_power(2 * d_i * t * slope) for t in range(m_exp + 1)]
    total, terms = _sandwich(mutated_variable(seed, i), _gen_power(seed, i, step - 1), coeffs)
    return _certify("lemma-sum", params, total, terms, started)


# -- fundamental (quantum Serre-type) relations ------------------------------


def serre_verify(seed: QuantumSeed, i: int, j: int) -> VerificationCertificate:
    """The degree-(|b_ij|+1) alternating relation between y_i and y_j.

    This is the order-1 relation at outer exponent |b_ij|: for b_ij <= 0
    the twist is q^(d_i * r(r-1)/2); for b_ij > 0 it picks up the extra
    factor q^(-d_i * r * b_ij).
    """
    started = time.perf_counter()
    _require_principal(seed)
    _require_pair(seed, i, j)
    total, terms = _order_sum(seed, i, j, 1, abs(seed.b_entry(i, j)))
    return _certify("serre", (("i", i), ("j", j)), total, terms, started)


def serre_verify_opposite(seed: QuantumSeed, i: int, j: int) -> VerificationCertificate:
    """The reversed-side relation sum_r +/- [b_ji+1, r] y_j^r y_i y_j^(b_ji+1-r).

    Obtained from the b_ij > 0 relation through the bar involution;
    requires b_ij <= 0 (so b_ji >= 0).
    """
    started = time.perf_counter()
    _require_principal(seed)
    _require_pair(seed, i, j)
    b_ij = seed.b_entry(i, j)
    if b_ij > 0:
        raise ValueError(f"reversed-side relation needs b_ij <= 0, got b_ij={b_ij}")
    coeffs = _alternating_coeffs(seed.b_entry(j, i) + 1, seed.d[j - 1], 0)
    total, terms = _sandwich(mutated_variable(seed, j), mutated_variable(seed, i), coeffs[::-1])
    return _certify("serre-opposite", (("i", i), ("j", j)), total, terms, started)


def higher_verify(
    seed: QuantumSeed,
    i: int,
    j: int,
    l: int,
    m_exp: int,
    exploratory: bool = False,
) -> VerificationCertificate:
    """The order-l relation sum_r +/- [m+1, r] y_i^(m+1-r) y_j^l y_i^r.

    Admissible ranges: b_ij = 0 with m_exp >= 0, or 0 < l <= |b_ij| with
    m_exp >= l*|b_ij|.  With exploratory=True an out-of-range instance is
    expanded anyway and its remainder reported without any expectation.
    """
    started = time.perf_counter()
    _require_principal(seed)
    if exploratory:
        _require_pair(seed, i, j)
        if l < 1 or m_exp < 0:
            raise ValueError("even exploratory instances need l >= 1 and m_exp >= 0")
    else:
        RelationInstance(seed, i, j, l, m_exp)
    total, terms = _order_sum(seed, i, j, l, m_exp)
    params = (("i", i), ("j", j), ("l", l), ("m", m_exp))
    return _certify("higher", params, total, terms, started, exploratory=exploratory)


# -- Cartan matrix and the full relation suite -------------------------------


def cartan_matrix(b: Sequence[Sequence[int]], d: Sequence[int] | None = None) -> tuple[tuple[int, ...], ...]:
    """The generalized Cartan matrix: c_ii = 2, c_ij = -|b_ij|.

    Shares b's symmetrizer; d*C symmetric is re-verified (with a computed
    symmetrizer when d is not supplied).
    """
    rows = tuple(tuple(int(v) for v in row) for row in b)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("exchange matrix must be square")
    if d is None:
        d = find_symmetrizer(rows)
    elif not is_skew_symmetrizer(tuple(d), rows):
        raise ValueError("d does not skew-symmetrize the exchange matrix")
    cartan = tuple(
        tuple(2 if i == j else -abs(rows[i][j]) for j in range(n)) for i in range(n)
    )
    for i in range(n):
        for j in range(n):
            if d[i] * cartan[i][j] != d[j] * cartan[j][i]:
                raise ArithmeticError(f"Cartan symmetrization failed at ({i + 1}, {j + 1})")
    return cartan


def quantum_group_suite(seed: QuantumSeed) -> list[VerificationCertificate]:
    """Both defining-relation families on the images theta_k -> y_k.

    For every ordered pair (i, j) the direct relation is checked, plus
    the reversed-side relation whenever b_ij <= 0.
    """
    _require_principal(seed)
    certificates = []
    for i in range(1, seed.n + 1):
        for j in range(1, seed.n + 1):
            if i == j:
                continue
            certificates.append(serre_verify(seed, i, j))
            if seed.b_entry(i, j) <= 0:
                certificates.append(serre_verify_opposite(seed, i, j))
    return certificates


def default_higher_instances(seed: QuantumSeed) -> list[RelationInstance]:
    """Every (i, j, l, l*|b_ij|) with b_ij != 0 and 1 <= l <= |b_ij|."""
    out = []
    for i in range(1, seed.n + 1):
        for j in range(1, seed.n + 1):
            if i == j or seed.b_entry(i, j) == 0:
                continue
            size = abs(seed.b_entry(i, j))
            for l in range(1, size + 1):
                out.append(RelationInstance(seed, i, j, l, l * size))
    return out


def full_suite(seed: QuantumSeed) -> list[VerificationCertificate]:
    """The relation suite: all direct and reversed-side relations plus the
    higher-order instances at their minimal admissible outer exponents.

    The l = 1 instance at m = |b_ij| is the Serre sum itself, so its
    certificate is the pair's `serre` certificate relabelled, not a second
    expansion; its `seconds` is the time of that shared expansion.
    """
    certificates = quantum_group_suite(seed)
    serre = {c.params: c for c in certificates if c.check == "serre"}
    for instance in default_higher_instances(seed):
        pair = (("i", instance.i), ("j", instance.j))
        if instance.l == 1:
            params = pair + (("l", 1), ("m", instance.m_exp))
            certificates.append(replace(serre[pair], check="higher", params=params))
        else:
            certificates.append(
                higher_verify(seed, instance.i, instance.j, instance.l, instance.m_exp)
            )
    return certificates
