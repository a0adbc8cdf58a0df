"""The based quantum torus: twisted monomials X^e over a skew-symmetric form.

An element is a finite sum of basis monomials X^e (e an integer vector of
length m) with QLaurent coefficients, multiplied by the twist rule

    X^e * X^f = q^(pairing(e, f)/2) * X^(e+f).

Exponent vectors are plain int tuples.  Elements are immutable, pinned to
the SkewForm they were built over, and refuse cross-form arithmetic.
`iterated_q_commutator` fuses the two products and the difference of each
q-commutator step by an outer X^f0 + X^f1 into one pass; `TorusElem.bar`
gives the mirrored step.  The pass holds every coefficient as one signed
int, its value at q^(1/2) = 2^W, with W chosen from the middle's l1 norm
and the number of steps so that every coefficient of every step stays
below 2^(W-1) in absolute value.  Then an int is 0 exactly when its
polynomial is, so a step drops vanished terms without decoding them, and
a result that vanishes decodes nothing.
"""

from __future__ import annotations

from operator import add, mul
from typing import Iterable, Mapping, Sequence, Tuple, Union

from .qarith import QLaurent, _require_int, _slot_width, _slots, parse_qlaurent

ExpVec = Tuple[int, ...]


def vec_add(left: Sequence[int], right: Sequence[int]) -> ExpVec:
    return tuple(map(add, left, right))

def _int_tuple(values: Iterable[object], what: str) -> ExpVec:
    # bool is an int subclass, but True is neither an exponent nor a form entry.
    out = tuple(values)
    for value in out:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{what} must be ints, got {value!r}")
    return out


class SkewForm:
    """A skew-symmetric integer matrix seen as a bilinear form on Z^m."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Sequence[int]]):
        mat = tuple(_int_tuple(row, "skew form entries") for row in rows)
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
        return sum(a * sum(map(mul, row, right)) for a, row in zip(left, self._rows) if a)

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
                expo = _int_tuple(expo, "exponent vector entries")
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

    # -- inspection ---------------------------------------------------

    def items(self) -> list[tuple[ExpVec, QLaurent]]:
        """(exponent vector, coefficient) pairs in graded-lex order."""
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

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

    def bar(self) -> "TorusElem":
        """The bar involution q^(1/2) -> q^(-1/2), X^e fixed.  It reverses
        products: X^e * X^f = q^(p/2) X^(e+f), p = pairing(e, f), goes to
        q^(-p/2) X^(e+f) = X^f * X^e, since the form is skew-symmetric."""
        return self._raw(self.form, {e: c.bar() for e, c in self._terms.items()})

    # -- twisted multiplication -----------------------------------------

    def __mul__(self, other: "TorusElem") -> "TorusElem":
        if not isinstance(other, TorusElem):
            return NotImplemented
        self._check_form(other)
        rows = self.form.rows()
        # pairing(ea, eb) = ea . (Lambda eb), with Lambda eb computed once per term of `other`
        right = [(eb, cb, [sum(map(mul, row, eb)) for row in rows]) for eb, cb in other._terms.items()]
        data: dict[ExpVec, QLaurent] = {}
        for ea, ca in self._terms.items():
            for eb, cb, lam_b in right:
                expo = vec_add(ea, eb)
                contrib = (ca * cb).shift(sum(map(mul, ea, lam_b)))
                merged = data[expo] + contrib if expo in data else contrib
                if merged:
                    data[expo] = merged
                else:
                    del data[expo]
        return self._raw(self.form, data)

    def __pow__(self, exponent: int) -> "TorusElem":
        _require_int("torus power exponent", exponent)
        if exponent < 0:
            raise ValueError(f"torus powers need a nonnegative exponent, got {exponent}")
        if not exponent:
            return TorusElem.unit(self.form)
        acc = self
        for _ in range(exponent - 1):
            acc = acc * self
        return acc

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


def _pack(coeff: QLaurent, width: int) -> tuple[int, int]:
    """(lo, P) with lo the lowest half-exponent of `coeff` and P its packed
    value sum_h c_h 2^(width (h - lo)), a signed int."""
    lo = min(coeff._terms)
    return lo, sum(value << width * (half - lo) for half, value in coeff._terms.items())


def _unpack(lo: int, packed: int, width: int) -> QLaurent:
    """The nonzero polynomial that (lo, packed) encodes, every coefficient
    below 2^(width-1) in absolute value.  Biased by 2^(width-1), each slot
    is a digit in [1, 2^width - 1] that borrows nothing from the next, so
    one read of the biased int's bytes gives every coefficient."""
    count = abs(packed).bit_length() // width + 1
    bias = 1 << (width - 1)
    biased = packed + int.from_bytes(bias.to_bytes(width // 8, "little") * count, "little")
    return QLaurent._raw({lo + j: v - bias for j, v in enumerate(_slots(biased, width, count)) if v != bias})


def iterated_q_commutator(outer: TorusElem, middle: TorusElem, halves: Iterable[int]) -> TorusElem:
    """Starting from M = middle, M <- A*M - q^(h/2) * (M*A) for each h in
    `halves`, with A = `outer` = X^f0 + X^f1, the shape of every one-step
    variable y_i.  Twists must be ints (TypeError otherwise, bool
    included); an outer of any other shape raises ArithmeticError.

    For a term X^f of A and c X^e of M, p = e . (Lambda f) is the only
    twist: X^f * X^e = q^(-p/2) X^(e+f) and X^e * X^f = q^(p/2) X^(e+f)
    by skew-symmetry, so the pair adds c*(q^(-p/2) - q^((p+h)/2)) to
    X^(e+f).  Lambda f is computed once per term of A for all steps, and
    each term pair costs one dot product.

    Every coefficient is held packed at q^(1/2) = 2^W, which is a ring map:
    c = sum_h c_h q^(h/2) is the pair (lo, P), P = sum_h c_h 2^(W(h-lo)) a
    signed int.  The pair's contribution is then one shift and one
    subtraction of P, and merging it into X^(e+f) is one shift that aligns
    the two lo's.

    Why W = _slot_width(4^L * ||M||_1), L = len(halves), is wide enough,
    with ||x||_1 the sum of the absolute values of every coefficient of x:
    ||A||_1 = 2, so each of A*M and M*A has l1 norm at most 2 ||M||_1, a
    step at most 4 ||M||_1, and after k <= L steps every coefficient is at
    most 4^L ||M||_1 in absolute value, hence below 2^(W-1).  Such a
    polynomial packs to 0 only if it is 0 (see qarith._slot_width).  So
    after each step a key whose int is 0 is dropped, exactly, and a result
    that vanishes is returned with nothing decoded.  The keys left at the
    end are decoded once each, in time linear in their size (`_unpack`).
    """
    outer._check_form(middle)
    halves = tuple(halves)
    for half in halves:
        _require_int("q-commutator twist", half)
    if len(outer._terms) != 2 or any(a != 1 for a in outer._terms.values()):
        raise ArithmeticError("q-commutator outer must be X^f0 + X^f1: two terms, each with coefficient 1")
    norm_m = sum(abs(v) for c in middle._terms.values() for v in c._terms.values())
    width = _slot_width(4 ** len(halves) * norm_m)
    rows = outer.form.rows()
    factors = [(f, [sum(map(mul, row, f)) for row in rows]) for f in outer._terms]
    terms = {e: _pack(c, width) for e, c in middle._terms.items()}
    for half in halves:
        data: dict[ExpVec, tuple[int, int]] = {}
        for f, lam_f in factors:
            for e, (lo, packed) in terms.items():
                p = sum(map(mul, e, lam_f))
                # q^(-p/2) - q^((p+h)/2) is q^(-p/2) (1 - q^(span/2)), span = 2p + h
                span = 2 * p + half
                if span >= 0:
                    lo -= p
                    packed -= packed << width * span
                else:
                    lo += p + half
                    packed = (packed << -width * span) - packed
                expo = tuple(map(add, e, f))
                held = data.get(expo)
                if held is not None:
                    held_lo, held_packed = held
                    if held_lo < lo:
                        packed = held_packed + (packed << width * (lo - held_lo))
                        lo = held_lo
                    else:
                        packed += held_packed << width * (held_lo - lo)
                data[expo] = lo, packed
        terms = {expo: held for expo, held in data.items() if held[1]}
    return TorusElem._raw(outer.form, {e: _unpack(lo, packed, width) for e, (lo, packed) in terms.items()})


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
