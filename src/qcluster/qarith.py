"""Exact arithmetic in the ring of integer Laurent polynomials in q^(1/2).

Everything downstream (torus elements, seed mutation, relation checking)
delegates its coefficient arithmetic here.  A polynomial is kept in
canonical sparse form: a map from half-exponents to nonzero integer
coefficients, where half-exponent k stands for the monomial q^(k/2).
Coefficients and half-exponents are plain Python ints, so nothing can
silently overflow.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Mapping, Tuple, Union

TermSource = Union[Mapping[int, int], Iterable[Tuple[int, int]], None]


class QLaurent:
    """An integer Laurent polynomial in q^(1/2), immutable and canonical.

    The zero polynomial is the empty term map; no stored coefficient is
    zero.  Instances may be shared freely between threads.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: TermSource = None):
        data: dict[int, int] = {}
        if terms is not None:
            items = terms.items() if hasattr(terms, "items") else terms
            for half, coeff in items:
                if not isinstance(half, int) or not isinstance(coeff, int):
                    raise TypeError("half-exponents and coefficients must be ints")
                merged = data.get(half, 0) + coeff
                if merged:
                    data[half] = merged
                else:
                    data.pop(half, None)
        self._terms = data

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "QLaurent":
        return _ZERO

    @classmethod
    def one(cls) -> "QLaurent":
        return _ONE

    @classmethod
    def from_int(cls, value: int) -> "QLaurent":
        return cls({0: value})

    @classmethod
    def q_power(cls, half: int) -> "QLaurent":
        """The monomial q^(half/2)."""
        return cls({half: 1})

    # -- inspection ---------------------------------------------------

    def items(self) -> list[tuple[int, int]]:
        """(half-exponent, coefficient) pairs in ascending half-exponent order."""
        return sorted(self._terms.items())

    def coefficient(self, half: int) -> int:
        return self._terms.get(half, 0)

    def term_count(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def at_one(self) -> int:
        """Evaluate at q = 1 (the sum of all coefficients)."""
        return sum(self._terms.values())

    # -- ring structure -----------------------------------------------

    def __add__(self, other: Union["QLaurent", int]) -> "QLaurent":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data = dict(self._terms)
        for half, coeff in other._terms.items():
            merged = data.get(half, 0) + coeff
            if merged:
                data[half] = merged
            else:
                del data[half]
        out = QLaurent.__new__(QLaurent)
        out._terms = data
        return out

    __radd__ = __add__

    def __neg__(self) -> "QLaurent":
        out = QLaurent.__new__(QLaurent)
        out._terms = {half: -coeff for half, coeff in self._terms.items()}
        return out

    def __sub__(self, other: Union["QLaurent", int]) -> "QLaurent":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Union["QLaurent", int]) -> "QLaurent":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: Union["QLaurent", int]) -> "QLaurent":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        data: dict[int, int] = {}
        for ha, ca in self._terms.items():
            for hb, cb in other._terms.items():
                half = ha + hb
                merged = data.get(half, 0) + ca * cb
                if merged:
                    data[half] = merged
                else:
                    del data[half]
        out = QLaurent.__new__(QLaurent)
        out._terms = data
        return out

    __rmul__ = __mul__

    def shift(self, half: int) -> "QLaurent":
        """self * q^(half/2): every half-exponent moves by `half`."""
        if not half:
            return self
        out = QLaurent.__new__(QLaurent)
        out._terms = {h + half: coeff for h, coeff in self._terms.items()}
        return out

    def __pow__(self, exponent: int) -> "QLaurent":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        acc = _ONE
        for _ in range(exponent):
            acc = acc * self
        return acc

    # -- involutions and substitutions ----------------------------------

    def bar(self) -> "QLaurent":
        """The bar involution q^(k/2) -> q^(-k/2); coefficients unchanged."""
        out = QLaurent.__new__(QLaurent)
        out._terms = {-half: coeff for half, coeff in self._terms.items()}
        return out

    def scale_exponents(self, factor: int) -> "QLaurent":
        """Substitute q -> q^factor (half-exponent k -> factor*k).

        factor may be negative (base inversion) but not zero, which
        would collapse distinct monomials.
        """
        if not isinstance(factor, int) or factor == 0:
            raise ValueError("exponent scale factor must be a nonzero integer")
        if factor == 1:
            return self
        out = QLaurent.__new__(QLaurent)
        out._terms = {factor * half: coeff for half, coeff in self._terms.items()}
        return out

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QLaurent):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- rendering ------------------------------------------------------

    def __str__(self) -> str:
        return render_qlaurent(self)

    __repr__ = __str__


_ZERO = QLaurent()
_ONE = QLaurent({0: 1})


def _coerce(value: object) -> "QLaurent":
    if isinstance(value, QLaurent):
        return value
    if isinstance(value, int):
        return QLaurent({0: value})
    return NotImplemented


# -- canonical text form ---------------------------------------------------


def _monomial_str(half: int) -> str:
    if half % 2 == 0:
        power = half // 2
        return "q" if power == 1 else f"q^{power}"
    return f"q^({half}/2)"


def render_qlaurent(poly: QLaurent) -> str:
    """Canonical rendering: terms in ascending half-exponent order.

    Integer powers print as q^j (plain q for j = 1), odd half-exponents
    as q^(j/2); unit coefficients are elided.
    """
    if poly.is_zero():
        return "0"
    pieces: list[str] = []
    for half, coeff in poly.items():
        mag = abs(coeff)
        if half == 0:
            body = str(mag)
        elif mag == 1:
            body = _monomial_str(half)
        else:
            body = f"{mag}*{_monomial_str(half)}"
        if not pieces:
            pieces.append(("-" if coeff < 0 else "") + body)
        else:
            pieces.append((" - " if coeff < 0 else " + ") + body)
    return "".join(pieces)


_TERM_RE = re.compile(
    r"""^\s*
        (?:(?P<coeff>\d+)\s*(?P<star>\*)?\s*)?      # optional integer coefficient
        (?:q
            (?:\^
                (?:
                    \((?P<halfnum>-?\d+)/2\)        # q^(k/2)
                    |
                    (?P<intpow>-?\d+)               # q^j
                )
            )?
        )?
        \s*$""",
    re.VERBOSE,
)


def parse_qlaurent(text: str) -> QLaurent:
    """Parse the canonical text form produced by render_qlaurent."""
    stripped = text.strip()
    if stripped == "0":
        return QLaurent.zero()
    if not stripped:
        raise ValueError("empty polynomial text")
    # Split into signed terms at top level (no parentheses in this grammar
    # except inside q^(k/2), which never contains +/-).
    chunks = re.split(r"(?<![\^(])\s*([+-])\s*", stripped)
    if chunks[0] == "":
        chunks = chunks[1:]
    else:
        chunks = ["+"] + chunks
    if len(chunks) % 2 != 0:
        raise ValueError(f"malformed polynomial text: {text!r}")
    terms: list[tuple[int, int]] = []
    for sign_token, body in zip(chunks[0::2], chunks[1::2]):
        match = _TERM_RE.match(body)
        if not match or not body.strip():
            raise ValueError(f"malformed term {body!r} in {text!r}")
        has_q = "q" in body
        coeff_text = match.group("coeff")
        if coeff_text is None and not has_q:
            raise ValueError(f"malformed term {body!r} in {text!r}")
        coeff = int(coeff_text) if coeff_text is not None else 1
        if sign_token == "-":
            coeff = -coeff
        if not has_q:
            half = 0
        elif match.group("halfnum") is not None:
            half = int(match.group("halfnum"))
        elif match.group("intpow") is not None:
            half = 2 * int(match.group("intpow"))
        else:
            half = 2
        terms.append((half, coeff))
    return QLaurent(terms)


# -- q-integers, q-factorials, Gaussian binomials ---------------------------


def _check_base(d: int) -> None:
    if not isinstance(d, int) or d <= 0:
        raise ValueError(f"base exponent d must be a positive integer, got {d!r}")


@lru_cache(maxsize=None)
def _q_int_base(n: int) -> QLaurent:
    return QLaurent({2 * j: 1 for j in range(n)})


def q_int(n: int, d: int = 1) -> QLaurent:
    """[n] at base q^d: 1 + q^d + ... + q^((n-1)d); zero when n = 0."""
    _check_base(d)
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"q_int needs n >= 0, got {n!r}")
    return _q_int_base(n).scale_exponents(d)


@lru_cache(maxsize=None)
def _q_factorial_base(n: int) -> QLaurent:
    if n == 0:
        return QLaurent.one()
    return _q_factorial_base(n - 1) * _q_int_base(n)


def q_factorial(n: int, d: int = 1) -> QLaurent:
    """[n]! at base q^d: the product [1][2]...[n]; one when n = 0."""
    _check_base(d)
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"q_factorial needs n >= 0, got {n!r}")
    return _q_factorial_base(n).scale_exponents(d)


@lru_cache(maxsize=None)
def _q_binom_base(n: int, r: int) -> QLaurent:
    # Pascal recurrence [n, r] = [n-1, r] + q^(n-r) [n-1, r-1]; no division.
    if r < 0 or r > n:
        return QLaurent.zero()
    if r == 0 or r == n:
        return QLaurent.one()
    return _q_binom_base(n - 1, r) + QLaurent.q_power(2 * (n - r)) * _q_binom_base(n - 1, r - 1)


def q_binom(n: int, r: int, d: int = 1) -> QLaurent:
    """The Gaussian binomial coefficient [n choose r] at base q^d.

    Zero when r < 0 or r > n (hence for every r when n < 0).  Always a
    genuine polynomial in q^d.
    """
    _check_base(d)
    if r < 0 or r > n:
        return QLaurent.zero()
    return _q_binom_base(n, r).scale_exponents(d)


def q_binom_factorial(n: int, r: int, d: int = 1) -> QLaurent:
    """[n choose r] at base q^d by the factorial-quotient definition.

    Retained as an independent cross-check of the Pascal-recurrence path;
    raises ArithmeticError if the quotient fails to divide exactly, which
    would signal an arithmetic bug.
    """
    _check_base(d)
    if r < 0 or r > n:
        return QLaurent.zero()
    numerator = q_factorial(n)
    denominator = q_factorial(r) * q_factorial(n - r)
    quotient = exact_div(numerator, denominator)
    return quotient.scale_exponents(d)


def exact_div(numerator: QLaurent, denominator: QLaurent) -> QLaurent:
    """Divide exactly in Z[q^(1/2), q^(-1/2)].

    Raises ZeroDivisionError on a zero denominator and ArithmeticError
    when the division leaves a remainder.
    """
    if denominator.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if numerator.is_zero():
        return QLaurent.zero()
    remainder = dict(numerator._terms)
    den_items = sorted(denominator._terms.items())
    den_lead_half, den_lead_coeff = den_items[-1]
    # An exact quotient cannot reach below the difference of valuations.
    shift_floor = min(remainder) - den_items[0][0]
    quotient: dict[int, int] = {}
    while remainder:
        lead_half = max(remainder)
        lead_coeff = remainder[lead_half]
        factor, leftover = divmod(lead_coeff, den_lead_coeff)
        shift = lead_half - den_lead_half
        if leftover or shift < shift_floor:
            raise ArithmeticError("factorial quotient does not divide exactly")
        quotient[shift] = factor
        for half, coeff in den_items:
            target = half + shift
            merged = remainder.get(target, 0) - factor * coeff
            if merged:
                remainder[target] = merged
            else:
                remainder.pop(target, None)
    return QLaurent(quotient)
