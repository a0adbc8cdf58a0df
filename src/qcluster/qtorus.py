"""The based quantum torus: twisted monomials X^e over a skew-symmetric form.

An element is a finite sum of basis monomials X^e (e an integer vector of
length m) with QLaurent coefficients, multiplied by the twist rule

    X^e * X^f = q^(pairing(e, f)/2) * X^(e+f).

Exponent vectors are plain int tuples.  Elements are immutable, pinned to
the SkewForm they were built over, and refuse cross-form arithmetic.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, Tuple, Union

from .qarith import QLaurent, parse_qlaurent

ExpVec = Tuple[int, ...]


def vec_add(left: Sequence[int], right: Sequence[int]) -> ExpVec:
    return tuple(a + b for a, b in zip(left, right))

def vec_neg(vec: Sequence[int]) -> ExpVec:
    return tuple(-a for a in vec)

def unit_vector(dim: int, index: int) -> ExpVec:
    """The standard basis vector e_index (1-based) in Z^dim."""
    if not 1 <= index <= dim:
        raise ValueError(f"generator index {index} out of range [1, {dim}]")
    return tuple(1 if k == index - 1 else 0 for k in range(dim))


class SkewForm:
    """A skew-symmetric integer matrix seen as a bilinear form on Z^m."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Sequence[int]]):
        mat = tuple(tuple(int(v) for v in row) for row in rows)
        dim = len(mat)
        for row in mat:
            if len(row) != dim:
                raise ValueError("skew form matrix must be square")
        for i in range(dim):
            if mat[i][i] != 0:
                raise ValueError(f"skew form has nonzero diagonal entry at {i + 1}")
            for j in range(i + 1, dim):
                if mat[i][j] != -mat[j][i]:
                    raise ValueError(
                        f"skew form is not skew-symmetric at ({i + 1}, {j + 1})"
                    )
        self._rows = mat

    @property
    def dim(self) -> int:
        return len(self._rows)

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def entry(self, i: int, j: int) -> int:
        """lambda_{ij} with 1-based indices."""
        return self._rows[i - 1][j - 1]

    def pairing(self, left: Sequence[int], right: Sequence[int]) -> int:
        """The bilinear value e^T * Lambda * f."""
        if len(left) != self.dim or len(right) != self.dim:
            raise ValueError("exponent vector length does not match the form")
        total = 0
        for i, a in enumerate(left):
            if not a:
                continue
            row = self._rows[i]
            total += a * sum(row[j] * b for j, b in enumerate(right) if b)
        return total

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SkewForm):
            return self._rows is other._rows or self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"SkewForm({list(map(list, self._rows))})"


CoeffLike = Union[QLaurent, int]


class TorusElem:
    """A finite QLaurent-combination of torus basis monomials X^e."""

    __slots__ = ("form", "_terms")

    def __init__(self, form: SkewForm, terms: Union[Mapping[ExpVec, CoeffLike], Iterable[Tuple[ExpVec, CoeffLike]], None] = None):
        data: dict[ExpVec, QLaurent] = {}
        if terms is not None:
            items = terms.items() if hasattr(terms, "items") else terms
            for expo, coeff in items:
                expo = tuple(int(v) for v in expo)
                if len(expo) != form.dim:
                    raise ValueError(
                        f"exponent vector of length {len(expo)} in a torus of dimension {form.dim}"
                    )
                if isinstance(coeff, int):
                    coeff = QLaurent.from_int(coeff)
                merged = data.get(expo, QLaurent.zero()) + coeff
                if merged:
                    data[expo] = merged
                else:
                    data.pop(expo, None)
        self.form = form
        self._terms = data

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, form: SkewForm) -> "TorusElem":
        return cls(form)

    @classmethod
    def unit(cls, form: SkewForm) -> "TorusElem":
        return cls(form, {(0,) * form.dim: QLaurent.one()})

    @classmethod
    def monomial(cls, form: SkewForm, expo: Sequence[int], coeff: CoeffLike = 1) -> "TorusElem":
        """The single-term element coeff * X^expo (empty when coeff = 0)."""
        return cls(form, {tuple(expo): coeff})

    @classmethod
    def generator(cls, form: SkewForm, index: int) -> "TorusElem":
        """The generator x_index = X^(e_index), 1-based."""
        return cls.monomial(form, unit_vector(form.dim, index))

    # -- inspection ---------------------------------------------------

    def items(self) -> list[tuple[ExpVec, QLaurent]]:
        """(exponent vector, coefficient) pairs in graded-lex order."""
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def coefficient(self, expo: Sequence[int]) -> QLaurent:
        return self._terms.get(tuple(expo), QLaurent.zero())

    def support(self) -> set[ExpVec]:
        return set(self._terms)

    def term_count(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- module structure ----------------------------------------------

    def _check_form(self, other: "TorusElem") -> None:
        if self.form != other.form:
            raise ValueError("torus elements live over different skew forms")

    def __add__(self, other: "TorusElem") -> "TorusElem":
        if not isinstance(other, TorusElem):
            return NotImplemented
        self._check_form(other)
        data = dict(self._terms)
        for expo, coeff in other._terms.items():
            merged = data.get(expo, QLaurent.zero()) + coeff
            if merged:
                data[expo] = merged
            else:
                del data[expo]
        return self._raw(self.form, data)

    def __sub__(self, other: "TorusElem") -> "TorusElem":
        if not isinstance(other, TorusElem):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "TorusElem":
        return self._raw(self.form, {e: -c for e, c in self._terms.items()})

    def scale(self, coeff: CoeffLike) -> "TorusElem":
        """Multiply every coefficient by a central QLaurent scalar."""
        if isinstance(coeff, int):
            coeff = QLaurent.from_int(coeff)
        if not coeff:
            return TorusElem.zero(self.form)
        return self._raw(self.form, {e: c * coeff for e, c in self._terms.items()})

    # -- twisted multiplication -----------------------------------------

    def __mul__(self, other: Union["TorusElem", CoeffLike]) -> "TorusElem":
        if isinstance(other, (QLaurent, int)):
            return self.scale(other)
        if not isinstance(other, TorusElem):
            return NotImplemented
        self._check_form(other)
        form = self.form
        data: dict[ExpVec, QLaurent] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                expo = vec_add(ea, eb)
                contrib = (ca * cb).shift(form.pairing(ea, eb))
                merged = data[expo] + contrib if expo in data else contrib
                if merged:
                    data[expo] = merged
                else:
                    del data[expo]
        return self._raw(form, data)

    def __rmul__(self, other: CoeffLike) -> "TorusElem":
        if isinstance(other, (QLaurent, int)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> "TorusElem":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("torus powers need a nonnegative integer exponent")
        acc = TorusElem.unit(self.form)
        for _ in range(exponent):
            acc = acc * self
        return acc

    def bar(self) -> "TorusElem":
        """Bar involution: q^(l/2) X^c -> q^(-l/2) X^c (an anti-automorphism)."""
        return self._raw(self.form, {e: c.bar() for e, c in self._terms.items()})

    def inverse_monomial(self) -> "TorusElem":
        """Invert a single-term element c*X^e with c a unit power of q."""
        if len(self._terms) != 1:
            raise ValueError("only monomials are invertible in the torus")
        ((expo, coeff),) = self._terms.items()
        units = coeff.items()
        if len(units) != 1 or units[0][1] not in (1, -1):
            raise ValueError("monomial coefficient is not a unit")
        half, sign = units[0]
        return TorusElem.monomial(self.form, vec_neg(expo), QLaurent({-half: sign}))

    @classmethod
    def _raw(cls, form: SkewForm, data: dict[ExpVec, QLaurent]) -> "TorusElem":
        out = cls.__new__(cls)
        out.form = form
        out._terms = data
        return out

    # -- comparisons and rendering ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TorusElem):
            return NotImplemented
        return self.form == other.form and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.form, frozenset(self._terms.items())))

    def __str__(self) -> str:
        return render_torus_elem(self)

    __repr__ = __str__


def ordered_product(form: SkewForm, exponents: Sequence[int], order: Sequence[int] | None = None) -> TorusElem:
    """The product x_{s(1)}^{a_{s(1)}} * ... * x_{s(m)}^{a_{s(m)}}.

    `order` is a permutation of [1, m] (natural order when omitted).  For
    the natural order this differs from X^a by the twist
    q^(-1/2 * sum_{l<k} a_k a_l lambda_{kl}).
    """
    dim = form.dim
    if len(exponents) != dim:
        raise ValueError("exponent vector length does not match the form")
    if order is None:
        order = range(1, dim + 1)
    if sorted(order) != list(range(1, dim + 1)):
        raise ValueError(f"order {list(order)} is not a permutation of [1, {dim}]")
    acc = TorusElem.unit(form)
    for index in order:
        power = exponents[index - 1]
        if power:
            # x_i^p = X^(p*e_i): the self-pairing vanishes, so no twist.
            acc = acc * TorusElem.monomial(form, tuple(power if k == index - 1 else 0 for k in range(dim)))
    return acc


# -- canonical text form ----------------------------------------------------


def render_torus_elem(elem: TorusElem) -> str:
    """Terms in graded-lex order, each as `<coeff> * X^[e1,...,em]`.

    Multi-term coefficients are parenthesized; the zero element is "0".
    """
    if elem.is_zero():
        return "0"
    pieces = []
    for expo, coeff in elem.items():
        coeff_text = str(coeff)
        if coeff.term_count() > 1:
            coeff_text = f"({coeff_text})"
        pieces.append(f"{coeff_text} * X^[{','.join(str(v) for v in expo)}]")
    return " + ".join(pieces)


def _split_top_level_plus(text: str) -> list[str]:
    # Split at " + " outside parentheses (q^(k/2) and wrapped coefficients).
    parts: list[str] = []
    depth = 0
    start = 0
    pos = 0
    while pos < len(text):
        char = text[pos]
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        elif depth == 0 and text.startswith(" + ", pos):
            parts.append(text[start:pos])
            pos += 3
            start = pos
            continue
        pos += 1
    parts.append(text[start:])
    return parts


def parse_torus_elem(text: str, form: SkewForm) -> TorusElem:
    """Parse the canonical text form produced by render_torus_elem."""
    stripped = text.strip()
    if stripped == "0":
        return TorusElem.zero(form)
    terms: list[tuple[ExpVec, QLaurent]] = []
    for chunk in _split_top_level_plus(stripped):
        head, sep, tail = chunk.rpartition("* X^[")
        if not sep or not tail.rstrip().endswith("]"):
            raise ValueError(f"malformed torus term {chunk!r}")
        coeff_text = head.strip()
        if coeff_text.startswith("(") and coeff_text.endswith(")"):
            coeff_text = coeff_text[1:-1]
        coeff = parse_qlaurent(coeff_text)
        expo_text = tail.rstrip()[:-1].strip()
        expo = tuple(int(v) for v in expo_text.split(",")) if expo_text else ()
        terms.append((expo, coeff))
    return TorusElem(form, terms)
