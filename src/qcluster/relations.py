"""Relations between one-step mutated quantum cluster variables.

Every check here expands an alternating sum (or a difference against a
closed form) exactly in the torus and decides the verdict by canonical
emptiness, never by sampling.  The alternating sums are evaluated as
iterated q-commutators (the q-adjoint action), so no q-binomial
coefficient of the sum is expanded.  A plan holds integers only, its
steps a range run in the order the sign of b_ij fixes (`_plan`).  Each
middle term's line is first walked on its spans alone
(`lattice._line_dies`); when every line dies there, as on every
admissible plan, the plan is certified "0" with no coefficient built.
Only a plan with a live line builds y_j^l's q-binomials as QLaurents by
Pascal's rule (`_power_terms`) and runs the kernel, whose surviving keys
keep their coefficients.  No check writes process-global state.
Certificates record the instance, the verdict, the canonical remainder
and expansion statistics.

The module imports only the integer layer (`lattice`, `seeds`), so a
passing request loads no coefficient ring.  The functions that build a
QLaurent or a TorusElem (`_keys` and `_expand` past a live line,
`_power_terms`, `_witness` and `power_product_check`) import `qarith`
and `qtorus` when they run.
"""

from __future__ import annotations

import time
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .lattice import _line_dies, _require_int, vec_add
from .seeds import QuantumSeed, pos_part

if TYPE_CHECKING:
    from .qarith import QLaurent
    from .qtorus import TorusElem


class VerificationCertificate(NamedTuple):
    """Outcome of one exact relation check, a named tuple.

    `residue` is the canonical string of the element that must vanish
    ("0" on a pass).  An alternating sum (serre, serre-opposite, higher,
    lemma-sum) expands one validated plan (`_run`); its `terms` is the
    closed form |supp M| * (L+1)^2 of the summed term counts of the scaled
    summands c_r A^(L-r) M A^r, which the kernel never builds (`_plan`);
    serre-opposite bars serre(j, i)'s plan and has its `terms`.  The
    commutator check reports the term count of y_i y_j - q^(s/2) y_j y_i,
    the order plan (1, 0) at twist s = 2*lambda(g(y_i), g(y_j)), and the
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
        """json.dumps of {check, *params, exploratory if true, ok, residue, terms, seconds if timings}."""
        params = "".join([f", {_quote(name)}: {value if type(value) is int else _scalar(value)}" for name, value in self.params])
        tail = (', "seconds": ' + repr(round(self.seconds, 6))) if timings else ""
        flag = ', "exploratory": true' if self.exploratory else ""
        return f'{{"check": {_quote(self.check)}{params}{flag}, "ok": {"true" if self.ok else "false"}, "residue": {_quote(self.residue)}, "terms": {self.terms}{tail}}}'


def _scalar(value: object) -> str:
    """A bool, int (of any int subclass) or str param as json.dumps writes it."""
    return ("true" if value else "false") if type(value) is bool else int.__repr__(value) if isinstance(value, int) else _quote(value)


class _Plan(NamedTuple):
    """A validated alternating-sum check, built by `_plan` from integers:
    c = lambda(f0, f1), each middle term's `pairings` (p0, p1), the range
    of the steps' `halves` in run order, the `twist`, the basis (form, l,
    g_j, b_j, g_i, b_i) that `_expand` places keys by, and (d_j, l) of
    the middle y_j^l, l = 0 for the lemma's unit middle x_i^(step-1).  The
    kernel's `middle` is a read-only property, built only when read
    (`_keys`)."""

    c: int
    pairings: tuple[tuple[int, int], ...]
    halves: range
    twist: int
    basis: tuple
    d_j: int
    l: int

    @property
    def steps(self) -> int:
        """L, the length of `halves`, from the range's own integers: len()
        of a range longer than sys.maxsize raises OverflowError."""
        halves = self.halves
        return (halves.stop - halves.start) // halves.step

    @property
    def terms(self) -> int:
        """|supp M| * (L+1)^2, the summed term counts of the summands (`_plan`)."""
        return len(self.pairings) * (self.steps + 1) ** 2

    @property
    def middle(self) -> list[tuple[int, int, QLaurent]]:
        """The kernel's middle terms (p0, p1, a): term s of y_j^l has
        a = q^(-d_j s(l-s)/2) [l, s]_(q^d_j) (`_power_terms`)."""
        d_j, l = self.d_j, self.l
        return [(p0, p1, a.shift(-d_j * s * (l - s))) for s, ((p0, p1), a) in enumerate(zip(self.pairings, _power_terms(d_j, l)))]


# -- small helpers -----------------------------------------------------------


def _require_pair(seed: QuantumSeed, i: int, j: int) -> tuple:
    """(form, d_i, d_j, b_ij, b_ji, pi, g_i, b_i, g_j, b_j), pi = lambda(g_j, g_i),
    of a valid pair of distinct mutable indices of a principal seed, the one
    validation of every pair check; (g_k, b_k) from `seed.one_step_exponents`."""
    _principal(seed)
    _require_int("index i", i)
    _require_int("index j", j)
    n = seed.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices (i, j) = ({i}, {j}) out of range [1, {n}]")
    if i == j:
        raise ValueError("need two distinct mutable indices")
    (g_i, b_i), (g_j, b_j) = seed.one_step_exponents[i - 1], seed.one_step_exponents[j - 1]
    return seed.form, seed.d[i - 1], seed.d[j - 1], b_j[i - 1], b_i[j - 1], seed.form.pairing(g_j, g_i), g_i, b_i, g_j, b_j


def _certify(check: str, params: Sequence[tuple[str, object]], residue: TorusElem | None, terms: int, started: float, exploratory: bool = False, twist: int = 0) -> VerificationCertificate:
    """The certificate of `residue` (None: it vanished), a nonzero twist last in its params; "0" is not rendered."""
    params = tuple(params) + ((("twist", twist),) if twist else ())
    return VerificationCertificate(check, params, not residue, str(residue) if residue else "0", terms, time.perf_counter() - started, exploratory)


def _plan(c: int, pairings: Sequence[tuple[int, int]], xs: range, basis: tuple, d_j: int, l: int) -> _Plan:
    """The iterated q-commutator of the middle M = y_j^l (x_i^(step-1) when
    l = 0), whose terms pair to `pairings` (p0, p1) with f0 and f1, by
    A = y_i = X^f0 + X^f1, c = lambda(f0, f1): step x of `xs`, in its
    order, sets M to A*M - q^(c*x) (M*A).  Left and right multiplication
    by A commute and q is central, so the steps commute, and by Gauss's
    binomial formula at Q = q^c, with L = len(xs), x_0 = min(xs), this is

        sum_r (-1)^r Q^(r(r-1)/2 + r*x_0) [L, r]_Q * A^(L-r) M A^r.

    Every twist gains shift = 2*lambda(f0, e_0) = -2*p0(e_0), e_0 the
    exponent of M's first, coefficient-free term, so coefficient r gains
    q^(r*shift/2); `halves` is the range 2c*x + shift over `xs`.  The
    builders run x up when b_ij <= 0 and down when b_ij > 0; so each line
    of an admissible plan holds one key until it dies on its spans alone
    (`lattice._line_dies`).  No field grows with L, and no row or
    coefficient is built here.

    Compatibility, Btilde^T Lambda = [D 0], is lambda(b_k, x) = d_k x_k.
    With g_k = g(y_k) = -e_k + [-b_k]_+, f0 = g_i and f1 = g_i + b_i, it
    gives c = lambda(g_i, b_i) = d_i and p1 = p0 - d_i*e_i for X^e in M.

    `terms` = |supp M| * (L+1)^2 counts the summands' terms unbuilt: on a
    principal seed A = y_i has two distinct unit terms; M is y_j^l, with
    positive coefficients (`_power_terms`), or x_i^(step-1); coordinate
    n+i is 0 on supp(M) and f0 and 1 on f1.  So no product cancels, and
    each summand's support {e + L*f0 + t*b_i : e in supp(M), 0 <= t <= L}
    has |supp M| * (L+1) points, coordinate n+i reading off t and then e,
    which also keeps the kernel's keys apart (`_expand`); a nonzero
    q-binomial scalar keeps them, as Z[q^(1/2), q^(-1/2)] is a domain.
    """
    shift = -2 * pairings[0][0]
    halves = range(2 * c * xs.start + shift, 2 * c * xs.stop + shift, 2 * c * xs.step)
    return _Plan(c, tuple(pairings), halves, shift, basis, d_j, l)


def _has_live_line(plan: _Plan) -> bool:
    """Whether some middle term's line survives its spans (`lattice._line_dies`)."""
    c, halves = plan.c, plan.halves
    return not all(_line_dies(c, p0, p1, halves) for p0, p1 in plan.pairings)


def _keys(plan: _Plan) -> list[tuple[int, int, QLaurent]]:
    """The kernel's nonzero keys (s, t, a) of `plan`: none when every line
    dies on its spans, with no row built and no ring loaded, and otherwise
    `qtorus._commutator_lines` on `plan.middle`."""
    if not _has_live_line(plan):
        return []
    from .qtorus import _commutator_lines

    return _commutator_lines(plan.c, plan.middle, plan.halves)


def _expand(plan: _Plan, keys: list | None = None) -> TorusElem:
    """The element `plan` sums, each key (s, t, a) of `_keys(plan)` (or
    `keys`, its result) placed at its basis exponent
    l*g_j + s*b_j + L*g_i + t*b_i."""
    from .qtorus import TorusElem

    form, l, g_j, b_j, g_i, b_i = plan.basis
    keys = _keys(plan) if keys is None else keys
    steps = plan.steps
    return TorusElem._raw(form, {
        tuple(l * a + s * u + steps * x + t * y for a, u, x, y in zip(g_j, b_j, g_i, b_i)): coeff
        for s, t, coeff in keys
    })


def _run(check: str, params: Sequence[tuple[str, object]], plan: _Plan, exploratory: bool = False) -> VerificationCertificate:
    """Expand `plan` and certify it, its twist last in `params`, building
    no element when every key vanished; `seconds` is the time of the expansion."""
    started = time.perf_counter()
    keys = _keys(plan)
    return _certify(check, params, _expand(plan, keys) if keys else None, plan.terms, started, exploratory, plan.twist)


# -- one-step variables ------------------------------------------------------


def _principal(seed: QuantumSeed) -> QuantumSeed:
    if not seed.is_principal:
        raise ValueError("seed is not principal (m = 2n with identity coefficient block)")
    return seed


def one_step_variables(seed: QuantumSeed) -> tuple[TorusElem, ...]:
    """y_1, ..., y_n of a principal seed over its form (ValueError otherwise),
    derived once per seed (`QuantumSeed.one_step`); the alternating sums
    need none (`_order_plan`)."""
    return _principal(seed).one_step


# -- closed forms on based monomials ----------------------------------------


def _power_terms(d: int, t: int) -> list[QLaurent]:
    """[t, s]_(q^d) for s = 0 .. t, t >= 0, the coefficients of y_k^t for
    d = d_k:

        y_k^t = sum_s q^(-d s(t-s)/2) [t, s]_(q^d) X^(t*g(y_k) + s*b_k),

    the q-binomial theorem, as y_k's terms pair to d by compatibility; the
    caller shifts term s by -d s(t-s).  The row is built from [1] by
    Pascal's rule [k, s] = [k-1, s] + Q^(k-s) [k-1, s-1] at Q = q^d, so
    no q-binomial table row is read or written."""
    from .qarith import QLaurent

    one = QLaurent.one()
    row = [one]
    for k in range(1, t + 1):
        row = [one, *[row[s] + row[s - 1].shift(2 * d * (k - s)) for s in range(1, k)], one]
    return row


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
    return _witness(_require_pair(seed, i, j))


def _witness(pair: tuple) -> TorusElem:
    """`commutator_witness` of the validated `pair` (`_require_pair`)."""
    from .qarith import QLaurent
    from .qtorus import TorusElem

    form, d_i, _, b_ij, _, pi, a, b_i, c, b_j = pair
    if b_ij == 0:
        return TorusElem.zero(form)
    size, sign = d_i * abs(b_ij), 1 if b_ij < 0 else -1
    coeff = QLaurent({size - pi: sign, -size - pi: -sign})
    return TorusElem.monomial(form, [x + y + b for x, y, b in zip(a, c, b_i if b_ij < 0 else b_j)], coeff)


def commutator_check(seed: QuantumSeed, i: int, j: int) -> VerificationCertificate:
    """Compare y_i y_j - q^(s/2) y_j y_i, the order plan (1, 0), built with
    no y_k, against `commutator_witness`; a nonzero s is reported as ("twist", s)."""
    started = time.perf_counter()
    pair = _require_pair(seed, i, j)
    plan = _order_plan(pair, 1, 0, exploratory=True)
    commutator = _expand(plan)
    residue = commutator - _witness(pair)
    return _certify("commutator", (("i", i), ("j", j)), residue, commutator.term_count(), started, twist=plan.twist)


def power_product_check(seed: QuantumSeed, i: int, t: int, side: str = "left") -> VerificationCertificate:
    """Triple agreement for y_i^t x_i^t (left) or x_i^t y_i^t (right).

    The brute-force fold must equal both closed forms, with sign = +1 on
    the left and -1 on the right, a = g(y_i) and f = t*e_i:
    - the expansion: each term X^e of y_i^t (`_power_terms`) becomes
      q^(sign*lambda(e, f)/2) X^(e + f);
    - the telescoping product q^(sign*t^2*lambda(a, e_i)/2) *
      prod_(r=1..t) (X^([-b_i]_+) + q^(sign*d_i(2r-1)/2) X^([b_i]_+)).
    """
    from .qarith import QLaurent
    from .qtorus import TorusElem

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
    (g, column), d_i = seed.one_step_exponents[i - 1], seed.d[i - 1]
    terms_t = [(tuple(t * a + s * b for a, b in zip(g, column)), coeff.shift(-d_i * s * (t - s))) for s, coeff in enumerate(_power_terms(d_i, t))]
    expansion = TorusElem(form, [(vec_add(e, power), coeff.shift(sign * form.pairing(e, power))) for e, coeff in terms_t])
    low, high = tuple(pos_part(-b) for b in column), tuple(pos_part(b) for b in column)
    lean = form.pairing(g, e_i)
    product_form = TorusElem.monomial(form, (0,) * seed.m, QLaurent.q_power(sign * t * t * lean))
    for r in range(1, t + 1):
        product_form = product_form * TorusElem(form, {low: 1, high: QLaurent.q_power(sign * d_i * (2 * r - 1))})
    residue = (brute - product_form) or (brute - expansion)
    terms = brute.term_count() + product_form.term_count() + expansion.term_count()
    return _certify("power-product", (("i", i), ("t", t), ("side", side)), residue, terms, started)


# -- vanishing-sum lemmas ----------------------------------------------------


def _lemma_plan(seed: QuantumSeed, i: int, j: int, variant: str, m_exp: int | None, t_shift: int | None) -> tuple[tuple[tuple[str, object], ...], _Plan]:
    """The certificate params and plan of a lemma sum, validated.

    L32 is L41 at L41's defaults, t_shift = 0 and m_exp = (t_shift+1)*|b_ij|.
    """
    form, d_i, _, b, _, _, g_i, b_i, _, _ = _require_pair(seed, i, j)
    if m_exp is not None:
        _require_int("outer exponent m_exp", m_exp)
    if t_shift is not None:
        _require_int("t_shift", t_shift)
    if variant not in ("L32", "L41"):
        raise ValueError(f"variant must be 'L32' or 'L41', got {variant!r}")
    if variant == "L32" and (m_exp is not None or t_shift is not None):
        raise ValueError(f"L32 fixes m_exp = |b_ij| and t_shift = 0 and takes neither; got m_exp={m_exp}, t_shift={t_shift}")
    if b == 0:
        raise ValueError("lemma sums need b_ij != 0")
    size = abs(b)
    t_shift = 0 if t_shift is None else t_shift
    m_exp = (t_shift + 1) * size if m_exp is None else m_exp
    if t_shift < 0 or t_shift + 1 > size:
        raise ValueError(f"L41 needs 0 <= t_shift <= |b_ij| - 1 = {size - 1}, got t_shift={t_shift}")
    if m_exp < (t_shift + 1) * size:
        raise ValueError(f"L41 needs m_exp >= (t_shift+1)*|b_ij| = {(t_shift + 1) * size}, got m_exp={m_exp}")
    params: tuple[tuple[str, object], ...] = (("i", i), ("j", j), ("variant", variant))
    if variant == "L41":
        params += (("m", m_exp), ("t", t_shift))
    step = size * (1 + t_shift)
    # Summand t carries the partial sum of the order-sum coefficients 0..t,
    # twisted by q^(-d_i*t) when b_ij < 0 and by q^(d_i*t*step) when
    # b_ij > 0.  At Q = q^(d_i) those partial sums close up:
    #   (-1)^t Q^(t(t+1)/2) [m, t]_Q         when b_ij < 0,
    #   (-1)^t Q^(t(t-1)/2 - t*m) [m, t]_Q   when b_ij > 0,
    # so the sum is m q-commutator steps at Q^x, x from step-1 down to
    # step-m when b_ij > 0 and from 0 up to m-1 otherwise.  The middle
    # x_i^(step-1) is one term, s = 0, with coefficient 1: the row [1] of
    # l = 0 at any base, so the plan takes (d_j, l) = (0, 0) and its basis
    # needs no b_j (e_i stands in).
    xs = range(step - 1, step - 1 - m_exp, -1) if b > 0 else range(m_exp)
    e_i = tuple(int(t == i - 1) for t in range(seed.m))
    p0 = (step - 1) * form.pairing(e_i, g_i)
    return params, _plan(d_i, [(p0, p0 - (step - 1) * d_i)], xs, (form, step - 1, e_i, e_i, g_i, b_i), 0, 0)


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


def _order_plan(pair: tuple, l: int, m_exp: int, exploratory: bool = False) -> _Plan:
    """sum_r +/- [m+1, r] y_i^(m+1-r) y_j^l y_i^r at base q^(d_i), from the
    integers of `pair` (`_require_pair`), (l, m_exp) checked as
    `higher_verify` says: m+1 steps, x from 0 down to -m if b_ij > 0, up
    to m otherwise; the one validation of every order plan.  Term s of
    y_j^l sits at e_s = l*g_j + s*b_j; with pi = lambda(g_j, g_i) and
    coordinate j of g_i equal to [-b_ji]_+, compatibility (`_plan`) gives

        p0(s) = l*pi + s*d_j*[-b_ji]_+,  p1(s) = p0(s) - d_i (l*[-b_ij]_+ + s*b_ij),

    and shift -2*l*pi.  The plan keeps these and (d_j, l); y_j^l's row
    is built only for a plan with a live line (`_Plan.middle`).  No
    exponent is built; coordinates n+i and n+j of key (s, t)'s exponent
    l*g_j + s*b_j + L*g_i + t*b_i read off t and s.
    """
    _require_int("order l", l)
    _require_int("outer exponent m_exp", m_exp)
    form, d_i, d_j, b, b_ji, pi, g_i, b_i, g_j, b_j = pair
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
    p0, p1, slope = l * pi, l * (pi - d_i * pos_part(-b)), d_j * pos_part(-b_ji)
    pairings = [(p0 + s * slope, p1 + s * (slope - d_i * b)) for s in range(l + 1)]
    return _plan(d_i, pairings, range(0, -m_exp - 1, -1) if b > 0 else range(m_exp + 1), (form, l, g_j, b_j, g_i, b_i), d_j, l)


def serre_verify(seed: QuantumSeed, i: int, j: int) -> VerificationCertificate:
    """The quantum Serre relation (ad_q y_i)^(1-c_ij)(y_j) = 0.

    With c_ij = -|b_ij| this is the order-1 relation at outer exponent
    |b_ij|: 1 - c_ij = 1 + |b_ij| q-commutator steps at base q^(d_i), the
    twist of step k being q^(d_i * k) for b_ij <= 0 and
    q^(d_i * (k - b_ij)) for b_ij > 0, on the pair's integers.
    """
    pair = _require_pair(seed, i, j)
    return _run("serre", (("i", i), ("j", j)), _order_plan(pair, 1, abs(pair[3])))


def serre_verify_opposite(seed: QuantumSeed, i: int, j: int) -> VerificationCertificate:
    """The reversed-side relation sum_r +/- [b_ji+1, r] y_j^r y_i y_j^(b_ji+1-r).

    The right q-adjoint action of y_j, 1 + |b_ji| steps at base q^(d_j);
    requires b_ij <= 0 (so b_ji >= 0).  Bar reverses products, fixes every
    y_k and negates the twists into serre(j, i)'s, so this is serre(j, i)'s
    plan expanded once and barred.
    """
    b = _require_pair(seed, i, j)[3]
    if b > 0:
        raise ValueError(f"reversed-side relation needs b_ij <= 0, got b_ij={b}")
    mirror = _require_pair(seed, j, i)
    plan = _order_plan(mirror, 1, abs(mirror[3]))
    started = time.perf_counter()
    keys = _keys(plan)
    residue = _expand(plan, keys).bar() if keys else None
    return _certify("serre-opposite", (("i", i), ("j", j)), residue, plan.terms, started, twist=-plan.twist)


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
    plan = _order_plan(_require_pair(seed, i, j), l, m_exp, exploratory)
    return _run("higher", (("i", i), ("j", j), ("l", l), ("m", m_exp)), plan, exploratory)


# -- the relation suite ------------------------------------------------------


def full_suite(seed: QuantumSeed) -> list[VerificationCertificate]:
    """Both defining-relation families on E_k -> y_k, then the higher orders.

    For every ordered pair (i, j): the quantum Serre relation
    (ad_q y_i)^(1-c_ij)(y_j) = 0, c_ij = -|b_ij|, plus the reversed side
    when b_ij <= 0.  Together they make E_k -> y_k a homomorphism from the
    positive part of the quantum group of that Cartan matrix.  Then the
    instances (i, j, l, l*|b_ij|), b_ij != 0, 1 <= l <= |b_ij|.

    One pass per ordered pair reads its integers once and runs its plans
    l = 1 .. max(|b_ij|, 1), building no one-step variable.  The l = 1 plan
    is the Serre plan, and the reversed side is bar of serre(j, i) (same
    `terms`, bar(0) = 0), so both relabel a `serre` certificate, `seconds`
    included, the reversed side with its twist negated, unless serre(j, i)
    fails; then `serre_verify_opposite` bars it.
    """
    indices = range(1, _principal(seed).n + 1)
    serre, higher = {}, []
    for i in indices:
        for j in indices:
            if i != j:
                pair, named = _require_pair(seed, i, j), (("i", i), ("j", j))
                size = abs(pair[3])
                serre[i, j] = cert = _run("serre", named, _order_plan(pair, 1, size))
                if size:
                    higher.append(VerificationCertificate("higher", named + (("l", 1), ("m", size)) + cert.params[2:], cert.ok, cert.residue, cert.terms, cert.seconds))
                higher.extend(_run("higher", named + (("l", l), ("m", l * size)), _order_plan(pair, l, l * size)) for l in range(2, size + 1))
    certificates = []
    for (i, j), cert in serre.items():
        certificates.append(cert)
        if seed.b_entry(i, j) <= 0:
            mirror = serre[j, i]
            negated = tuple((name, -value) for name, value in mirror.params[2:])
            opposite = VerificationCertificate("serre-opposite", cert.params[:2] + negated, True, "0", mirror.terms, mirror.seconds)
            certificates.append(opposite if mirror.ok else serre_verify_opposite(seed, i, j))
    return certificates + higher
