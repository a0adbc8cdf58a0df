"""Relations between one-step mutated quantum cluster variables.

Every check here expands an alternating sum (or a difference against a
closed form) exactly in the torus and decides the verdict by canonical
emptiness, never by sampling.  The alternating sums are evaluated as
iterated q-commutators (the q-adjoint action), so the relation kernel
expands no q-binomial coefficient.  Certificates record the instance, the
verdict, the canonical remainder and expansion statistics.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from typing import Sequence

from .qarith import QLaurent, _require_int, q_binom
from .qtorus import TorusElem, iterated_q_commutator, vec_add
from .seeds import QuantumSeed, pos_part


@dataclass(frozen=True)
class VerificationCertificate:
    """Outcome of one exact relation check.

    `residue` is the canonical string of the element that must vanish
    ("0" on a pass).  The alternating sums (serre, serre-opposite, higher,
    lemma-sum) each expand one validated plan (`_run`); their `terms` is
    the summed term counts of the scaled summands c_r A^(L-r) M A^r, which
    the kernel never builds.  It is the closed form |supp M| * (L+1)^2,
    known from the plan before any coefficient work (see `_plan`);
    serre-opposite bars serre(j, i)'s plan and has its `terms`.  The
    commutator check reports the term count of y_i y_j - q^(s/2) y_j y_i,
    one kernel step at twist s = 2*lambda(g(y_i), g(y_j)), and the
    power-product check the summed term counts of its three expansions.
    `seconds` is wall time.

    An alternating sum whose plan twists every step by a nonzero shift
    (see `_plan`), or a commutator check at a nonzero s, reports it as a
    last param ("twist", shift); a principal seed whose Lambda has a zero
    mutable block has none.  serre-opposite reports serre(j, i)'s twist
    negated, as bar negates it.
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
class _Plan:
    """A validated alternating-sum check, built by `_plan`: the arguments
    of `qtorus.iterated_q_commutator`, which `_run` expands, and the
    `terms` of its certificate."""

    outer: TorusElem
    middle: TorusElem
    halves: tuple[int, ...]
    terms: int
    twist: int


# -- small helpers -----------------------------------------------------------


def _require_pair(seed: QuantumSeed, i: int, j: int) -> tuple[TorusElem, ...]:
    """y_1 .. y_n of a principal seed with a valid pair (i, j) of distinct
    mutable indices; the one validation of every pair check."""
    ys = one_step_variables(seed)
    _require_int("index i", i)
    _require_int("index j", j)
    n = seed.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices (i, j) = ({i}, {j}) out of range [1, {n}]")
    if i == j:
        raise ValueError("need two distinct mutable indices")
    return ys


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


def _free_exponent(seed: QuantumSeed, k: int) -> tuple[int, ...]:
    """g(y_k) = -e_k + [-b_k]_+, the exponent of the term of y_k without x_(n+k)."""
    return next(e for e in seed.one_step[k - 1]._terms if not e[seed.n + k - 1])


def _twisted(params: Sequence[tuple[str, object]], twist: int) -> tuple[tuple[str, object], ...]:
    return tuple(params) + ((("twist", twist),) if twist else ())


def _plan(outer: TorusElem, middle: TorusElem, d: int, steps: int, first: int, shift: int = 0) -> _Plan:
    """The iterated q-commutator of `middle` with A = `outer`.

    Starting from M = middle, step k = 0 .. steps-1 replaces M by
    A*M - q^(d(first+k)) * (M*A), in one pass of
    `qtorus.iterated_q_commutator`.  Left and right multiplication by A
    commute as operators and q is central, so by Gauss's binomial formula
    at Q = q^d the result is the alternating sum

        sum_r (-1)^r Q^(r(r-1)/2 + r*first) [L, r]_Q * A^(L-r) M A^r

    with L = steps; with first = 0 it is (ad_q A)^L (M).  `shift` is added
    to every twist.  The builders pass 2*lambda(g(A), g(M)), g the exponent
    of the coefficient-free term: X^g(A) X^g(M) = q^(shift/2) X^g(M) X^g(A),
    so a step twisted by it q-commutes those terms, and the sum above gains
    the factor q^(r*shift/2).  It is 0 when Lambda's mutable block is.  The
    steps commute, so `halves` holds their twists 2d(first+k) + shift,
    least twisted first: those steps cancel most terms early and keep the
    intermediates small; their order does not change the sum.

    `terms` counts the terms of the L+1 scaled summands without building
    them, from three facts that hold for every plan the builders make on a
    principal seed:
    - A is y_i, which `mutated_variable` builds as X^f0 + X^f1 with
      f0 = g(y_i) and f1 = f0 + b_i, two distinct unit terms, since column
      b_i has a 1 in row n+i (the kernel refuses any other outer);
    - M is y_j^l, a product of elements with positive coefficients, so
      nothing in it cancels, or it is x_i^(step-1), with coefficient 1;
    - coordinate n+i is 0 on supp(M), as no exponent of y_j or x_i has
      x_(n+i), and it is 0 on f0 and 1 on f1.
    Then no product cancels, so every summand has the support
    {e + L*f0 + t*b_i : e in supp(M), 0 <= t <= L}, where coordinate n+i
    reads off t and then e: |supp(M)| * (L+1) points.  Scaling by a
    nonzero q-binomial multiple keeps them, since Z[q^(1/2), q^(-1/2)] has
    no zero divisors, so `terms` is |supp(M)| * (L+1)^2.
    """
    halves = tuple(sorted((2 * d * (first + k) + shift for k in range(steps)), key=abs))
    return _Plan(outer, middle, halves, middle.term_count() * (steps + 1) ** 2, shift)


def _run(check: str, params: Sequence[tuple[str, object]], plan: _Plan, exploratory: bool = False) -> VerificationCertificate:
    """Expand `plan` and certify it, its twist last in `params`; `seconds`
    is the time of the expansion."""
    started = time.perf_counter()
    total = iterated_q_commutator(plan.outer, plan.middle, plan.halves)
    return _certify(check, _twisted(params, plan.twist), total, plan.terms, started, exploratory)


# -- one-step variables ------------------------------------------------------


def one_step_variables(seed: QuantumSeed) -> tuple[TorusElem, ...]:
    """y_1, ..., y_n of a principal seed over its form (ValueError otherwise).

    Derived once per seed (`QuantumSeed.one_step`); every check takes its
    operands from here.
    """
    if not seed.is_principal:
        raise ValueError("seed is not principal (m = 2n with identity coefficient block)")
    return seed.one_step


# -- closed forms on based monomials ----------------------------------------


def _power_terms(seed: QuantumSeed, k: int, t: int) -> list[tuple[tuple[int, ...], QLaurent]]:
    """The t+1 terms (e, c) of y_k^t, built without a torus product:

        y_k^t = sum_s q^(-d_k s(t-s)/2) [t, s]_(q^(d_k)) X^(t*g(y_k) + s*b_k),

    b_k column k of Btilde.  This is the q-binomial theorem for
    y_k = X^g(y_k) + X^(g(y_k) + b_k), whose two terms pair to
    lambda(g(y_k), g(y_k) + b_k) = d_k by compatibility.
    """
    d_k, free, column = seed.d[k - 1], _free_exponent(seed, k), seed.exchange.column(k)
    return [
        (tuple(t * g + s * b for g, b in zip(free, column)), q_binom(t, s, d_k).shift(-d_k * s * (t - s)))
        for s in range(t + 1)
    ]


def commutator_witness(seed: QuantumSeed, i: int, j: int) -> TorusElem:
    """Closed form of y_i y_j - q^(s/2) y_j y_i, s = 2*lambda(a, c).

    Here a = g(y_i) and c = g(y_j), so s is 0 when Lambda's mutable block
    is.  With D = d_i|b_ij| = d_j|b_ji| the closed form is the based
    monomial
        q^(lambda(a,c)/2) (q^(D/2) - q^(-D/2)) X^(a + c + b_i)   when b_ij < 0,
        q^(lambda(a,c)/2) (q^(-D/2) - q^(D/2)) X^(a + c + b_j)   when b_ij > 0,
    and 0 when b_ij = 0.  The X^(a+c) term cancels by the choice of s, and
    the X^(a+c+b_i+b_j) term because d_i b_ij = -d_j b_ji.
    """
    _require_pair(seed, i, j)
    b_ij = seed.b_entry(i, j)
    if b_ij == 0:
        return TorusElem.zero(seed.form)
    a, c = _free_exponent(seed, i), _free_exponent(seed, j)
    half, size = seed.form.pairing(a, c), seed.d[i - 1] * abs(b_ij)
    sign = 1 if b_ij < 0 else -1
    column = seed.exchange.column(i if b_ij < 0 else j)
    coeff = QLaurent({half + size: sign, half - size: -sign})
    return TorusElem.monomial(seed.form, [x + y + b for x, y, b in zip(a, c, column)], coeff)


def commutator_check(seed: QuantumSeed, i: int, j: int) -> VerificationCertificate:
    """Compare y_i y_j - q^(s/2) y_j y_i, one kernel step at twist s,
    against `commutator_witness`; a nonzero s is reported as ("twist", s)."""
    started = time.perf_counter()
    ys = _require_pair(seed, i, j)
    twist = 2 * seed.form.pairing(_free_exponent(seed, i), _free_exponent(seed, j))
    commutator = iterated_q_commutator(ys[i - 1], ys[j - 1], (twist,))
    residue = commutator - commutator_witness(seed, i, j)
    terms = commutator.term_count()
    return _certify("commutator", _twisted((("i", i), ("j", j)), twist), residue, terms, started)


def power_product_check(seed: QuantumSeed, i: int, t: int, side: str = "left") -> VerificationCertificate:
    """Triple agreement for y_i^t x_i^t (left) or x_i^t y_i^t (right).

    The brute-force fold must equal both closed forms, with sign = +1 on
    the left and -1 on the right, a = g(y_i) and f = t*e_i:
    - the expansion: each term X^e of y_i^t (`_power_terms`) becomes
      q^(sign*lambda(e, f)/2) X^(e + f);
    - the telescoping product q^(sign*t^2*lambda(a, e_i)/2) *
      prod_(r=1..t) (X^([-b_i]_+) + q^(sign*d_i(2r-1)/2) X^([b_i]_+)).
    """
    started = time.perf_counter()
    ys = one_step_variables(seed)
    _require_int("index i", i)
    _require_int("power t", t)
    if not 1 <= i <= seed.n:
        raise ValueError(f"index i={i} out of range [1, {seed.n}]")
    if t < 1:
        raise ValueError(f"power t must be >= 1, got {t}")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    form, sign = seed.form, 1 if side == "left" else -1
    e_i = tuple(int(r == i - 1) for r in range(seed.m))
    power = tuple(t * v for v in e_i)
    y_i_t = ys[i - 1] ** t
    x_i_t = TorusElem.monomial(form, power)
    brute = y_i_t * x_i_t if side == "left" else x_i_t * y_i_t
    expansion = TorusElem(
        form, [(vec_add(e, power), c.shift(sign * form.pairing(e, power))) for e, c in _power_terms(seed, i, t)]
    )
    column, d_i = seed.exchange.column(i), seed.d[i - 1]
    low, high = tuple(pos_part(-b) for b in column), tuple(pos_part(b) for b in column)
    lean = form.pairing(_free_exponent(seed, i), e_i)
    product_form = TorusElem.monomial(form, (0,) * seed.m, QLaurent.q_power(sign * t * t * lean))
    for r in range(1, t + 1):
        product_form = product_form * TorusElem(form, {low: 1, high: QLaurent.q_power(sign * d_i * (2 * r - 1))})
    first_diff = brute - product_form
    second_diff = brute - expansion
    residue = first_diff if first_diff else second_diff
    terms = brute.term_count() + product_form.term_count() + expansion.term_count()
    return _certify("power-product", (("i", i), ("t", t), ("side", side)), residue, terms, started)


# -- vanishing-sum lemmas ----------------------------------------------------


def _lemma_plan(
    seed: QuantumSeed, i: int, j: int, variant: str, m_exp: int | None, t_shift: int | None
) -> tuple[tuple[tuple[str, object], ...], _Plan]:
    """The certificate params and plan of a lemma sum, validated.

    L32 is L41 at L41's defaults, t_shift = 0 and m_exp = (t_shift+1)*|b_ij|.
    """
    ys = _require_pair(seed, i, j)
    if m_exp is not None:
        _require_int("outer exponent m_exp", m_exp)
    if t_shift is not None:
        _require_int("t_shift", t_shift)
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
    t_shift = 0 if t_shift is None else t_shift
    m_exp = (t_shift + 1) * size if m_exp is None else m_exp
    if t_shift < 0 or t_shift + 1 > size:
        raise ValueError(
            f"L41 needs 0 <= t_shift <= |b_ij| - 1 = {size - 1}, got t_shift={t_shift}"
        )
    if m_exp < (t_shift + 1) * size:
        raise ValueError(
            f"L41 needs m_exp >= (t_shift+1)*|b_ij| = {(t_shift + 1) * size}, got m_exp={m_exp}"
        )
    params: tuple[tuple[str, object], ...] = (("i", i), ("j", j), ("variant", variant))
    if variant == "L41":
        params += (("m", m_exp), ("t", t_shift))
    step = size * (1 + t_shift)
    # Summand t carries the partial sum of the order-sum coefficients 0..t,
    # twisted by q^(-d_i*t) when b_ij < 0 and by q^(d_i*t*step) when
    # b_ij > 0.  At Q = q^(d_i) those partial sums close up:
    #   (-1)^t Q^(t(t+1)/2) [m, t]_Q         when b_ij < 0,
    #   (-1)^t Q^(t(t-1)/2 - t*m) [m, t]_Q   when b_ij > 0,
    # so the sum is m q-commutator steps, the first at Q^(step - m) when
    # b_ij > 0 and at Q^0 otherwise.
    first = step - m_exp if b > 0 else 0
    e_i = tuple(int(t == i - 1) for t in range(seed.m))
    middle = TorusElem.monomial(seed.form, [(step - 1) * v for v in e_i])
    shift = 2 * (step - 1) * seed.form.pairing(_free_exponent(seed, i), e_i)
    return params, _plan(ys[i - 1], middle, seed.d[i - 1], m_exp, first, shift)


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
    params, plan = _lemma_plan(seed, i, j, variant, m_exp, t_shift)
    return _run("lemma-sum", params, plan)


# -- fundamental (quantum Serre-type) relations ------------------------------


def _order_plan(seed: QuantumSeed, i: int, j: int, l: int, m_exp: int, exploratory: bool = False) -> _Plan:
    """sum_r +/- [m+1, r] y_i^(m+1-r) y_j^l y_i^r at base q^(d_i).

    The caller has validated the seed and the pair (`_require_pair`); the
    order (l, m_exp) is checked as `higher_verify` says.  The twist is
    q^(d_i * r(r-1)/2), times q^(-d_i * r * m) when b_ij > 0: m+1
    q-commutator steps, the first at q^(-d_i * m) when b_ij > 0.
    """
    _require_int("order l", l)
    _require_int("outer exponent m_exp", m_exp)
    b = seed.b_entry(i, j)
    size = abs(b)
    if exploratory:
        if l < 1 or m_exp < 0:
            raise ValueError("even exploratory instances need l >= 1 and m_exp >= 0")
    elif l < 1:
        raise ValueError(f"order l must be positive, got l={l}")
    elif size == 0:
        if m_exp < 0:
            raise ValueError(f"b_ij = 0 needs m >= 0, got m={m_exp}")
    elif l > size:
        raise ValueError(f"order l={l} exceeds |b_ij| = {size}")
    elif m_exp < l * size:
        raise ValueError(f"outer exponent m={m_exp} below the bound l*|b_ij| = {l * size}")
    first = -m_exp if b > 0 else 0
    shift = 2 * l * seed.form.pairing(_free_exponent(seed, i), _free_exponent(seed, j))
    return _plan(seed.one_step[i - 1], seed.one_step[j - 1] ** l, seed.d[i - 1], m_exp + 1, first, shift)


def serre_verify(seed: QuantumSeed, i: int, j: int) -> VerificationCertificate:
    """The quantum Serre relation (ad_q y_i)^(1-c_ij)(y_j) = 0.

    With c_ij = -|b_ij| this is the order-1 relation at outer exponent
    |b_ij|: 1 - c_ij = 1 + |b_ij| q-commutator steps at base q^(d_i), the
    twist of step k being q^(d_i * k) for b_ij <= 0 and
    q^(d_i * (k - b_ij)) for b_ij > 0, on operands derived once per seed.
    """
    _require_pair(seed, i, j)
    return _run("serre", (("i", i), ("j", j)), _order_plan(seed, i, j, 1, abs(seed.b_entry(i, j))))


def serre_verify_opposite(seed: QuantumSeed, i: int, j: int) -> VerificationCertificate:
    """The reversed-side relation sum_r +/- [b_ji+1, r] y_j^r y_i y_j^(b_ji+1-r).

    The right q-adjoint action of y_j, 1 + |b_ji| steps at base q^(d_j);
    requires b_ij <= 0 (so b_ji >= 0).  Bar reverses products, fixes every
    y_k and negates the twists into serre(j, i)'s, so this is serre(j, i)'s
    plan expanded once and barred.
    """
    _require_pair(seed, i, j)
    if seed.b_entry(i, j) > 0:
        raise ValueError(f"reversed-side relation needs b_ij <= 0, got b_ij={seed.b_entry(i, j)}")
    plan = _order_plan(seed, j, i, 1, abs(seed.b_entry(j, i)))
    started = time.perf_counter()
    total = iterated_q_commutator(plan.outer, plan.middle, plan.halves).bar()
    return _certify("serre-opposite", _twisted((("i", i), ("j", j)), -plan.twist), total, plan.terms, started)


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
    m_exp >= l*|b_ij|; an instance outside them raises ValueError.  With
    exploratory=True an out-of-range instance is expanded anyway and its
    remainder reported without any expectation.
    """
    _require_pair(seed, i, j)
    plan = _order_plan(seed, i, j, l, m_exp, exploratory)
    return _run("higher", (("i", i), ("j", j), ("l", l), ("m", m_exp)), plan, exploratory)


# -- the relation suite ------------------------------------------------------


def full_suite(seed: QuantumSeed) -> list[VerificationCertificate]:
    """Both defining-relation families on E_k -> y_k, then the higher orders.

    For every ordered pair (i, j): the quantum Serre relation
    (ad_q y_i)^(1-c_ij)(y_j) = 0, c_ij = -|b_ij|, plus the reversed side
    when b_ij <= 0.  Together they make E_k -> y_k a homomorphism from the
    positive part of the quantum group of that Cartan matrix.  Then the
    instances (i, j, l, l*|b_ij|), b_ij != 0, 1 <= l <= |b_ij|.  Each
    `serre` sum is expanded once: the l = 1 plan is the Serre plan, and the
    reversed side is bar of serre(j, i), with the same `terms` and
    bar(0) = 0.  So both relabel a `serre` certificate, `seconds` included,
    the reversed side with its twist negated, unless serre(j, i) fails;
    then `serre_verify_opposite` bars it.
    """
    one_step_variables(seed)  # the principal check, even when n = 1 gives no pair
    serre = {(i, j): serre_verify(seed, i, j) for i in range(1, seed.n + 1) for j in range(1, seed.n + 1) if i != j}
    certificates, higher = [], []
    for (i, j), cert in serre.items():
        certificates.append(cert)
        pair, twist = cert.params[:2], cert.params[2:]
        if seed.b_entry(i, j) <= 0:
            mirror = serre[j, i]
            negated = tuple((name, -value) for name, value in mirror.params[2:])
            relabelled = replace(mirror, check="serre-opposite", params=pair + negated)
            certificates.append(relabelled if mirror.ok else serre_verify_opposite(seed, i, j))
        size = abs(seed.b_entry(i, j))
        if size:
            higher.append(replace(cert, check="higher", params=pair + (("l", 1), ("m", size)) + twist))
        higher.extend(higher_verify(seed, i, j, l, l * size) for l in range(2, size + 1))
    return certificates + higher
