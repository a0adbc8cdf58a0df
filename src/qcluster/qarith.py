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
import sys
from array import array
from math import comb
from typing import Iterable, Mapping, Sequence, Tuple, Union

from .lattice import _require_int

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
                # bool is an int subclass, but q^(True/2) is no canonical term.
                if (type(half) is bool or type(coeff) is bool
                        or not isinstance(half, int) or not isinstance(coeff, int)):
                    raise TypeError(
                        f"half-exponents and coefficients must be ints, got {half!r}: {coeff!r}"
                    )
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

    @classmethod
    def _raw(cls, data: dict[int, int]) -> "QLaurent":
        # Trusted constructor for kernels that build canonical term maps
        # themselves: int keys, no zero value, and `data` is not shared.
        out = cls.__new__(cls)
        out._terms = data
        return out

    # -- inspection ---------------------------------------------------

    def items(self) -> list[tuple[int, int]]:
        """(half-exponent, coefficient) pairs in ascending half-exponent order."""
        return sorted(self._terms.items())

    def term_count(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

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
        data = {}
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

    # -- the bar involution ---------------------------------------------

    def bar(self) -> "QLaurent":
        """The bar involution q^(k/2) -> q^(-k/2); coefficients unchanged."""
        out = QLaurent.__new__(QLaurent)
        out._terms = {-half: coeff for half, coeff in self._terms.items()}
        return out

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QLaurent):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        # A constant compares equal to its int, so it must hash like it.
        if not self._terms.keys() - {0}:
            return hash(self._terms.get(0, 0))
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


# Compiled on first use, through re's pattern cache: no CLI path parses text.
_TERM_RE = r"""^\s*
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
        \s*$"""


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
        match = re.match(_TERM_RE, body, re.VERBOSE)
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


# -- Gaussian binomials ----------------------------------------------------


def _check_base(d: int) -> None:
    _require_int("base exponent d", d)
    if d <= 0:
        raise ValueError(f"base exponent d must be a positive integer, got {d!r}")


# A Gaussian binomial [k, s] = sum_j c_j q^j is stored packed, as the one
# int sum_j c_j 2^(W j): its value at q = 2^W.  Packing is a ring map, so the
# Pascal recurrence [k, s] = [k-1, s] + q^(k-s) [k-1, s-1] becomes
# P[k, s] = P[k-1, s] + (P[k-1, s-1] << W (k-s)) on plain ints.
#
# Why decoding is exact: every coefficient of [k, s] is a nonnegative integer
# (it counts partitions of j into at most s parts of size at most k-s), and
# they sum to C(k, s), so each is at most C(k, s).  The fill for (n, r) only
# touches entries with s <= r and k-s <= n-r, and C(k, s) grows in both s and
# k-s, so each has C(k, s) <= C(n, r).  With 2^W > C(n, r) no W-bit slot ever
# carries into the next, and reading the slots back as unsigned W-bit
# integers returns the coefficients.  Every coefficient in degrees
# 0 .. s(k-s) is positive, so the decoded term map has no zero value.
#
# W is 64 whenever C(n, r) < 2^64, which covers every n <= 67; a larger
# request rounds its bit length up to a multiple of 64.  Entries are keyed
# by (W, k, s): each width has its own table, and every entry in it obeys
# C(k, s) < 2^W whichever request filled it.
_SLOT_BITS = 64
_Q_BINOM_TABLE: dict[tuple[int, int, int], int] = {}


def _fill_q_binom_table(n: int, r: int, width: int) -> int:
    # The table is filled row by row, bottom-up, over exactly the entries a
    # memoized recursion from (n, r) would compute, so no call recurses.
    table = _Q_BINOM_TABLE

    def entry(k: int, s: int) -> int:
        return 1 if s == 0 or s == k else table[width, k, s]

    rows = []
    missing = {r}
    k = n
    while missing:
        rows.append((k, missing))
        missing = {t for s in missing for t in (s, s - 1) if 0 < t < k - 1 and (width, k - 1, t) not in table}
        k -= 1
    for k, columns in reversed(rows):
        for s in columns:
            table[width, k, s] = entry(k - 1, s) + (entry(k - 1, s - 1) << width * (k - s))
    return table[width, n, r]


def _words(packed: int, count: int) -> array:
    """The lowest `count` 64-bit words of a nonnegative int, lowest first."""
    words = array("Q", packed.to_bytes(8 * count, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _slots(packed: int, width: int, count: int) -> Sequence[int]:
    """The lowest `count` width-bit slots of a nonnegative int, as unsigned ints."""
    if width == _SLOT_BITS:
        return _words(packed, count)
    size = width // 8
    raw = packed.to_bytes(size * count, "little")
    return [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]


def _q_binom_entry(n: int, r: int) -> tuple[int, int]:
    """The Gaussian binomial [n choose r] as stored in the table, packed at
    q = 2^W, and W; (0, 64) when r < 0 or r > n.  Nothing is decoded."""
    if r < 0 or r > n:
        return 0, _SLOT_BITS
    if r == 0 or r == n:
        return 1, _SLOT_BITS
    width = _SLOT_BITS
    packed = _Q_BINOM_TABLE.get((width, n, r))
    if packed is None:
        width = _SLOT_BITS * -(-comb(n, r).bit_length() // _SLOT_BITS)
        packed = _Q_BINOM_TABLE.get((width, n, r)) or _fill_q_binom_table(n, r, width)
    return packed, width


def q_binom(n: int, r: int, d: int = 1) -> QLaurent:
    """The Gaussian binomial coefficient [n choose r] at base q^d.

    Zero when r < 0 or r > n (hence for every r when n < 0).  Always a
    genuine polynomial in q^d.
    """
    _check_base(d)
    _require_int("q_binom's n", n)
    _require_int("q_binom's r", r)
    if r < 0 or r > n:
        return QLaurent.zero()
    packed, width = _q_binom_entry(n, r)
    # Slot j of the entry is the coefficient of q^(d j), half-exponent 2 d j.
    step = 2 * d
    count = r * (n - r) + 1
    return QLaurent._raw(dict(zip(range(0, step * count, step), _slots(packed, width, count))))


# -- polynomials in q packed as ints ------------------------------------------
#
# A polynomial P = sum_j c_j q^j is packed as the one int P(2^W), with a
# W-bit slot per degree.  Evaluation at q = 2^W is a ring map, so sums,
# products and shifts (q^e P is P(2^W) << W e) of packed values are exactly
# the packed sums, products and shifts of the polynomials, whatever the
# coefficients.  W is a multiple of 64, so the slots are whole 8-byte words.
#
# A polynomial whose coefficients are all nonnegative and below 2^W, such
# as a Gaussian binomial from the table, is read back from its slots: read
# as unsigned W-bit digits, they are its coefficients.  The base-2^W digits
# of a nonnegative int are unique, so two such polynomials are equal exactly
# when their packed ints are, and packed ints of them can be compared
# without decoding either.  _respread moves one to another slot width by
# reading its digits at the one and writing them at the other, which is
# exact while every digit fits the narrower width.


def _slot_width(bound: int) -> int:
    """The least multiple of 64, W, with bound < 2^(W-1).

    A polynomial S whose coefficients are all below 2^(W-1) in absolute
    value, of either sign, packs to 0 only if it is 0: if c q^j is its
    lowest nonzero term, S(2^W) / 2^(W j) is c modulo 2^W, and 0 < |c| < 2^W.
    So a signed packed sum is tested for zero without decoding it."""
    return _SLOT_BITS * (bound.bit_length() // _SLOT_BITS + 1)


def _respread(packed: int, width: int, new_width: int, count: int) -> int:
    """The nonnegative `packed`, read as `count` unsigned width-bit slots,
    with each slot moved to a new_width-bit slot: the same polynomial with
    nonnegative coefficients, packed at q = 2^new_width instead of 2^width.
    A slot that does not fit in new_width bits raises ArithmeticError."""
    if width == new_width or packed.bit_length() <= min(width, new_width):
        return packed
    step, new_step = width // _SLOT_BITS, new_width // _SLOT_BITS
    words = _words(packed, step * count)
    if any(any(words[j::step]) for j in range(new_step, step)):
        raise ArithmeticError(f"a {width}-bit slot does not fit in {new_width} bits")
    out = array("Q", bytes(8 * new_step * count))
    for j in range(min(step, new_step)):
        out[j::new_step] = words[j::step]
    if sys.byteorder == "big":
        out.byteswap()
    return int.from_bytes(out.tobytes(), "little")

