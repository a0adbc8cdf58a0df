"""Generator words in the based quantum torus, built as one twisted monomial.

The relation checks build their closed forms from exponent vectors and
SkewForm.pairing; the tests state expected values as words in the
generators x_i = X^(e_i) instead, and build them here.
"""

from qcluster.qarith import QLaurent, _require_int
from qcluster.qtorus import SkewForm, TorusElem


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
