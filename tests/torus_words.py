"""Test oracles in the based quantum torus: generator words, built as one
twisted monomial, and q-commutator steps on an arbitrary middle.

The relation checks build their closed forms from exponent vectors and
SkewForm.pairing; the tests state expected values as words in the
generators x_i = X^(e_i) instead, and build them here.  The relation
plans feed the kernel `qtorus._commutator_lines` a middle whose keys never
collide; `iterated_q_commutator` feeds it any middle, summing keys that
name one exponent, so the kernel is checked beyond the plans' shapes.
"""

from qcluster.lattice import _require_int
from qcluster.qarith import QLaurent
from qcluster.qtorus import SkewForm, TorusElem, _commutator_lines


def ordered_product(form: SkewForm, letters) -> TorusElem:
    """The word x_{i_1}^{p_1} * ... * x_{i_k}^{p_k} of (index, power) letters.

    Indices are 1-based and may repeat; the letters multiply in the order
    given.  x_i^p = X^(p*e_i), so by the twist rule the word is the single
    term q^(1/2 * sum_{s<t} p_s p_t lambda_{i_s i_t}) * X^(sum_s p_s e_{i_s}),
    built without a torus product.  Indices and powers must be ints
    (TypeError otherwise, bool included).
    """
    rows = form.rows()
    dim = len(rows)
    expo = [0] * dim
    half = 0
    for index, power in letters:
        _require_int("generator index", index)
        _require_int("generator power", power)
        if not 1 <= index <= dim:
            raise ValueError(f"generator index {index} out of range [1, {dim}]")
        # the letters so far, summed into expo, pair with this one
        half += power * sum(e * row[index - 1] for e, row in zip(expo, rows) if e)
        expo[index - 1] += power
    return TorusElem.monomial(form, expo, QLaurent.q_power(half))


def iterated_q_commutator(outer: TorusElem, middle: TorusElem, halves) -> TorusElem:
    """Starting from M = middle, M <- A*M - q^(h/2) * (M*A) for each h in
    `halves`, with A = `outer` = X^f0 + X^f1, the shape of every one-step
    variable y_i, by `_commutator_lines` on M paired by `SkewForm.pairing`.
    Keys naming one exponent (possible for a general middle) are summed,
    and a zero sum is dropped.
    Twists must be ints (TypeError otherwise, bool included); an outer of
    any other shape raises ArithmeticError."""
    outer._check_form(middle)
    halves = tuple(halves)
    for half in halves:
        _require_int("q-commutator twist", half)
    if len(outer._terms) != 2 or any(a != 1 for a in outer._terms.values()):
        raise ArithmeticError("q-commutator outer must be X^f0 + X^f1: two terms, each with coefficient 1")
    steps, pairing = len(halves), outer.form.pairing
    (f0, f1), exponents = outer._terms, list(middle._terms)
    lines = [(pairing(e, f0), pairing(e, f1), middle._terms[e]) for e in exponents]
    data = {}
    for s, t, coeff in _commutator_lines(pairing(f0, f1), lines, halves):
        expo = tuple(a + (steps - t) * x + t * y for a, x, y in zip(exponents[s], f0, f1))
        data[expo] = data[expo] + coeff if expo in data else coeff
    return TorusElem._raw(outer.form, {e: coeff for e, coeff in data.items() if coeff})
