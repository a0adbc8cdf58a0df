"""The based quantum torus: twisted monomials X^e over a skew-symmetric form.

An element is a finite sum of basis monomials X^e (e an integer vector of
length m) with QLaurent coefficients, multiplied by the twist rule

    X^e * X^f = q^(pairing(e, f)/2) * X^(e+f).

Exponent vectors are plain int tuples, and the form is a
`lattice.SkewForm`, bound here too as `qtorus.SkewForm`.  Elements are
immutable, pinned to the SkewForm they were built over, and refuse
cross-form arithmetic.  This is the ring half of the torus: no passing
relation request loads it, since `lattice._line_dies` decides every
admissible plan on spans alone.  Only a plan with a live line runs
`_commutator_lines`, the q-commutator steps by an outer X^f0 + X^f1, the
shape of every one-step variable, on pairings alone: a middle term X^e
walks the line X^(e + (k-t) f0 + t f1) and is seen only through its
pairings with f0 and f1.  It returns keys (s, t) with their QLaurent
coefficients for the plan to place at the exponents of its basis; a
step drops a key whose coefficient is 0.  `TorusElem.bar` gives the
mirrored step.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Mapping, Sequence, Tuple, Union

from .lattice import ExpVec, SkewForm, _int_tuple, _require_int, vec_add
from .qarith import QLaurent, parse_qlaurent

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


def _commutator_lines(c: int, middle: Iterable[tuple[int, int, QLaurent]], halves: Sequence[int]) -> list[tuple[int, int, QLaurent]]:
    """The steps M <- A*M - q^(h/2) * (M*A), h in `halves`, A = X^f0 + X^f1,
    on pairings alone: c = lambda(f0, f1), and middle term s, a X^(e_s),
    comes as (p0, p1, a), p_u = lambda(e_s, f_u).  It returns the nonzero
    keys (s, t, a), the coefficients of X^(e_s + (L-t) f0 + t f1),
    L = len(halves), for the caller to place.

    A term X^f of A and a X^e of M twist by p = lambda(e, f) alone
    (X^f X^e = q^(-p) X^e X^f), so the pair adds a*(q^(-p/2) - q^((p+h)/2))
    to X^(e+f).  After k steps a term born from X^(e_s) with t factors
    X^f1 pairs to p0 - t*c with f0 and p1 + (k-t)*c with f1, so each middle
    term walks its own line, keys ascending in t.  A zero sum is dropped; a
    child of span 2p + h = 0 adds a*(q^(-p/2) - q^(-p/2)) = 0 and is
    skipped; a line that empties stops.

    A plan runs this only when some line survives `lattice._line_dies`: a
    failing or exploratory plan; no admissible plan reaches it.
    """
    keys: list[tuple[int, int, QLaurent]] = []
    for s, (p0, p1, a) in enumerate(middle):
        line = [(0, a)]
        for k, half in enumerate(halves):
            out: list[tuple[int, QLaurent]] = []
            for t, a in line:
                # the X^f0 child joins key t-1's X^f1 child, made last, and
                # the X^f1 child is new
                p = p0 - t * c
                if 2 * p + half:
                    child = a.shift(-p) - a.shift(p + half)
                    if out and out[-1][0] == t:
                        child = out.pop()[1] + child
                    if child:
                        out.append((t, child))
                p = p1 + (k - t) * c
                if 2 * p + half:
                    out.append((t + 1, a.shift(-p) - a.shift(p + half)))
            line = out
            if not line:
                break
        keys.extend((s, *key) for key in line)
    return keys


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
