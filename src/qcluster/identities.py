"""Executable oracle suite for the standalone q-identities.

Each identity family expands both sides exactly and compares them;
vanishing families compare against zero.  Every family works on the
q-binomial table's packed entries as they are stored, at one slot width
per check bounded by ceilings folded from the entries' own bits, and
compares packed ints, so none of them decodes anything.  A q-integer [n]
is the entry [n, 1].  A family at base q^d is decided in Q = q^d: that
substitution is an injective ring map Z[Q] -> Z[q], so an identity holds
at base q^d exactly when it holds in Q, and d changes no verdict.  The
product expansions are polynomials in a commuting indeterminate x,
expanded as lists of packed coefficients of x^0 .. x^n.  A family's
sweep is data: one range per parameter, each a function of the
parameters before it, which `_grid` walks, so one sweep enumerates and
reports every instance of every family the same way.
"""

from __future__ import annotations

from math import comb
from typing import Callable, NamedTuple, Sequence

from .lattice import _require_int
from .qarith import _q_binom_entry, _respread, _slot_width


class IdentityReport(NamedTuple):
    """One identity check, a named tuple: the family tag, its parameters,
    and the verdict (pass iff both sides expand to the same canonical form)."""

    family: str
    params: tuple[int, ...]
    verdict: bool

    def render(self) -> str:
        names = FAMILIES[self.family].param_names
        inner = ",".join(f"{n}={v}" for n, v in zip(names, self.params))
        return f"{self.family}({inner}) = {'PASS' if self.verdict else 'FAIL'}"


# -- the expansions ----------------------------------------------------------


# Every family runs on ints.  Each q-binomial operand is read from the
# table as it is stored (qarith._q_binom_entry): packed at q = 2^w, one
# unsigned w-bit slot per coefficient, and never decoded.  Packing is a
# ring map, so the packed sum of shifted operands (for Vandermonde and
# BASE_CHANGE, of their products) at one width W is exactly the sum's value
# at 2^W, times a power of 2^W.  A family at base q^d is expanded in
# Q = q^d (module docstring), so a slot j holds the coefficient of Q^j.
# Every entry is read before anything is added, and W is chosen once, by
# qarith._slot_width, from a bound on the coefficients of the sum; each
# entry is moved to W (qarith._respread, exact because its slots are at
# most the bound).  SYMMETRY and REVERSAL only reorder one entry's slots,
# so they keep its own width.
#
# The bound: a coefficient of the sum is at most sum_r mult_r * height_r,
# where height_r is the largest coefficient of term r (||a||_1 * max b for
# a product a*b) and mult_r is how often term r is added (once, or for a
# double sum once per prefix it lies in).  Each largest coefficient is
# replaced by a ceiling, 2^B - 1 for B the bit length of the widest slot
# (_ceiling), and each ||a||_1 by a's slot count times its ceiling; neither
# is below what it replaces, so W can only widen, never narrow.  Every bit of
# every slot of the entries actually returned reaches the ceiling, never
# C(n, r), so a wrong entry cannot alias to a false PASS.  W = 64 for every
# top <= 62 is pinned by TestPackedSums.test_64_bit_slots_through_row_62.
#
# A vanishing sum is then decided by comparing its packed int with 0, which
# is exact for coefficients of either sign within the bound (see
# qarith._slot_width).  The two sides of every other family are
# polynomials with nonnegative coefficients below 2^W, compared as ints,
# which is exact by qarith's argument for unsigned digits.


def _entry(n: int, r: int) -> tuple[int, int, int]:
    """[n, r] as _q_binom_entry returned it: packed, its slot width and its
    slot count (read from the int, so no slot goes unread)."""
    packed, width = _q_binom_entry(n, r)
    if type(packed) is not int or packed < 0:
        raise ArithmeticError(f"the packed q-binomial [{n}, {r}] must be a nonnegative int, got {packed!r}")
    return packed, width, -(-packed.bit_length() // width)


def _ceiling(*entries: tuple[int, int, int]) -> int:
    """2^B - 1, B the bit length of the widest slot of any entry.  The
    entries of each width are ORed and folded in halves, low slots OR high
    slots, to one slot, so every bit of every slot reaches it."""
    ors: dict[int, int] = {}
    for packed, width, _ in entries:
        ors[width] = ors.get(width, 0) | packed
    folded = 0
    for width, packed in ors.items():
        while packed >> width:
            half = width * -(-packed.bit_length() // (2 * width))
            packed = packed & ~(-1 << half) | packed >> half
        folded |= packed
    return (1 << folded.bit_length()) - 1


def _alternating_sum(top: int, shift: int, slope: int | None = None) -> int:
    """sum_{r=0}^{top} (-1)^r q^(r(r-1)/2 - shift*r) [top, r], packed, times
    a power of q that makes every term a polynomial: 0 exactly when the
    sum is.

    With a slope: sum_{t=0}^{top-1} q^(slope*t) times that sum cut after
    r = t.
    """
    steps = top + 1 if slope is None else top
    entries = [_entry(top, t) for t in range(steps)]
    width = _slot_width((steps if slope is None else steps * (steps + 1) // 2) * _ceiling(*entries))
    low = min(r * (r - 1) // 2 - shift * r for r in range(steps))
    outer = 0 if slope is None else min(0, slope * (steps - 1))
    inner = total = 0
    for t, (entry, entry_width, count) in enumerate(entries):
        packed = _respread(entry, entry_width, width, count) << width * (t * (t - 1) // 2 - shift * t - low)
        inner = inner - packed if t % 2 else inner + packed
        if slope is not None:
            total += inner << width * (slope * t - outer)
    return inner if slope is None else total


def _product_expansion(n: int) -> tuple[list[int], list[int]]:
    """Both sides of prod_{r=1}^{n} (1 + q^r x) = sum_k q^(k(k+1)/2) [n, k] x^k
    as the coefficients of x^0 .. x^n, each packed at q = 2^W.

    W is the widest slot of the row's entries.  Left side: each factor
    adds q^r times coefficient k-1 to coefficient k, top down so that
    coefficient k-1 is still the one before this factor.  After r factors
    coefficient k is q^(k(k+1)/2) [r, k], whose coefficients are
    nonnegative and at most C(r, k) <= C(n, floor(n/2)) < 2^W (checked, not
    assumed), and every entry's slots fit W, so both sides are nonnegative
    polynomials within their slots and compare exactly as ints.
    """
    entries = [_entry(n, k) for k in range(n + 1)]
    width = max(entry_width for _, entry_width, _ in entries)
    if comb(n, n // 2) >> width:
        raise ArithmeticError(f"{width}-bit slots cannot hold the coefficients of row {n}")
    lhs = [1] + [0] * n
    for r in range(1, n + 1):
        for k in range(r, 0, -1):
            lhs[k] += lhs[k - 1] << width * r
    rhs = [
        _respread(entry, entry_width, width, count) << width * (k * (k + 1) // 2)
        for k, (entry, entry_width, count) in enumerate(entries)
    ]
    return lhs, rhs


def _vandermonde(n: int, d: int, k: int) -> tuple[int, int]:
    """Both sides of [n, k] = sum_r q^((d-r)(k-r)) [d, r] [n-d, k-r], packed
    at one width W.

    Here d is the split index, not a base.  Both factors are nonzero only
    for max(0, k - (n-d)) <= r <= min(d, k), so only those products are
    read and bounded, and each shift is nonnegative.
    """
    lhs, lhs_width, lhs_count = _entry(n, k)
    products = [(r, _entry(d, r), _entry(n - d, k - r)) for r in range(max(0, k - (n - d)), min(d, k) + 1)]
    width = _slot_width(
        _ceiling((lhs, lhs_width, lhs_count)) + sum(a[2] * _ceiling(a) * _ceiling(b) for _, a, b in products)
    )
    rhs = 0
    for r, (a, a_width, a_count), (b, b_width, b_count) in products:
        a, b = _respread(a, a_width, width, a_count), _respread(b, b_width, width, b_count)
        rhs += a * b << width * (d - r) * (k - r)
    return _respread(lhs, lhs_width, width, lhs_count), rhs


def _pascal(n: int, r: int) -> tuple[int, int]:
    """Both sides of [n+1, r] = [n, r] + Q^(n+1-r) [n, r-1], packed at
    Q = 2^W: PASCAL at base q^d, in Q = q^d.

    The other recurrence, [n+1, r] = Q^r [n, r] + [n, r-1], is checked
    first: if the two right sides differ, that unequal pair is returned, so
    a broken recurrence fails the check.  Every side is multiplied by
    Q^low, low >= 0 the least power that keeps each shift nonnegative:
    beyond r = n+1 all three entries are zero and n+1-r is negative.
    """
    entries = [_entry(n + 1, r), _entry(n, r), _entry(n, r - 1)]
    width = _slot_width(3 * _ceiling(*entries))
    lhs, upper, lower = (_respread(packed, entry_width, width, count) for packed, entry_width, count in entries)
    low = max(0, r - n - 1)
    first = (upper << width * low) + (lower << width * (n + 1 - r + low))
    second = (upper << width * (r + low)) + (lower << width * low)
    if first != second:
        return first, second
    return lhs << width * low, first


def _symmetry(n: int, r: int) -> tuple[int, int]:
    """Both sides of [n, r] = Q^(r(n-r)) bar([n, r]), packed at Q = 2^W, W
    the entry's own slot width: SYMMETRY at base q^d, in Q = q^d.

    The right side is the entry's slots 0 .. r(n-r) in reverse order.  It
    reflects about the identity's degree r(n-r), not about the entry's
    length, so an entry with a nonzero slot above that degree has a left
    side the right side lacks, and FAILs.  REVERSAL is r = 1, since
    [n]_Q = [n, 1]_Q; at n = 0 the degree is -1 and both sides are 0.
    """
    packed, width, _ = _entry(n, r)
    slots = r * (n - r) + 1
    size = width // 8
    raw = (packed & ~(-1 << width * slots)).to_bytes(size * slots, "little")
    mirrored = bytearray(len(raw))
    for k in range(size):
        mirrored[k::size] = raw[k::size][::-1]
    return packed, int.from_bytes(mirrored, "little")


def _base_change(n: int, r: int) -> tuple[int, int]:
    """Both sides of [n]_(Q^r) [r]_Q = [n]_Q [r]_(Q^n), the base change
    [n]_(Q^r) = [nr]_Q / [r]_Q cross-multiplied, packed at Q = 2^W:
    BASE_CHANGE at base q^d, in Q = q^d.

    [m] at base Q^e is the entry [m, 1] moved to stride eW.  Each side is a
    product of a = [n, 1] and b = [r, 1], at different strides, so every
    coefficient is at most ||a||_1 * max b, bounded from the entries' bits.
    """
    (a, a_width, a_count), (b, b_width, b_count) = _entry(n, 1), _entry(r, 1)
    width = _slot_width(a_count * _ceiling((a, a_width, a_count)) * _ceiling((b, b_width, b_count)))
    lhs = _respread(a, a_width, r * width, a_count) * _respread(b, b_width, width, b_count)
    rhs = _respread(a, a_width, width, a_count) * _respread(b, b_width, n * width, b_count)
    return lhs, rhs


# -- the family registry -----------------------------------------------------


class IdentityFamily(NamedTuple):
    """One identity family.  `sweep` holds one range per parameter, each a
    function of the parameters before it; `_grid` walks them."""

    name: str
    param_names: tuple[str, ...]
    precondition: str
    validate: Callable[..., bool]
    expand: Callable[..., tuple[int | list[int], int | list[int]]]
    sweep: tuple[Callable[..., range], ...]


def _grid(ranges: Sequence[Callable[..., range]]) -> list[tuple[int, ...]]:
    """Every parameter tuple of a sweep, in lexicographic order."""
    points: list[tuple[int, ...]] = [()]
    for values in ranges:
        points = [p + (v,) for p in points for v in values(*p)]
    return points


_PRODUCT_EXPANSION = IdentityFamily(
    "PRODUCT_EXPANSION",
    ("n",),
    "n >= 1",
    lambda n: n >= 1,
    _product_expansion,
    (lambda: range(1, 11),),
)

FAMILIES: dict[str, IdentityFamily] = {
    family.name: family
    for family in (
        IdentityFamily(
            "VANISHING",
            ("d",),
            "d >= 1",
            lambda d: d >= 1,
            lambda d: (_alternating_sum(d, 0), 0),
            (lambda: range(1, 11),),
        ),
        IdentityFamily(
            "SHIFTED_VANISHING",
            ("d", "c"),
            "d >= 1 and 0 <= c <= d-1",
            lambda d, c: d >= 1 and 0 <= c <= d - 1,
            lambda d, c: (_alternating_sum(d, c), 0),
            (lambda: range(1, 11), lambda d: range(d)),
        ),
        _PRODUCT_EXPANSION,
        # prod_{r=1}^{n} (y + q^r x) is homogeneous of degree n, so its
        # x^k y^(n-k) coefficient is entry k of the one-variable expansion.
        _PRODUCT_EXPANSION._replace(name="PRODUCT_EXPANSION_BIVAR"),
        IdentityFamily(
            "VANDERMONDE",
            ("n", "d", "k"),
            "k >= 0 and 0 <= d <= n",
            lambda n, d, k: k >= 0 and 0 <= d <= n,
            _vandermonde,
            (lambda: range(9), lambda n: range(n + 1), lambda n, d: range(9)),
        ),
        # The double sums: sum_{t=0}^{n} q^(slope*t) sum_{r=0}^{t} (-1)^r
        # q^(r(r-1)/2 - shift*r) [n+1, r], (shift, slope) = (0, -k) or (n, v-k).
        IdentityFamily(
            "DOUBLE_SUM_NEG",
            ("n", "k"),
            "1 <= k <= n",
            lambda n, k: 1 <= k <= n,
            lambda n, k: (_alternating_sum(n + 1, 0, -k), 0),
            (lambda: range(1, 9), lambda n: range(1, n + 1)),
        ),
        IdentityFamily(
            "DOUBLE_SUM_POS",
            ("n", "v", "k"),
            "v <= n and 0 <= k <= v-1",
            lambda n, v, k: v <= n and 0 <= k <= v - 1,
            lambda n, v, k: (_alternating_sum(n + 1, n, v - k), 0),
            (lambda: range(1, 9), lambda n: range(1, n + 1), lambda n, v: range(v)),
        ),
        # r <= n+1 bounds the sweep only: [n+1, r] is zero beyond it.
        IdentityFamily(
            "PASCAL",
            ("n", "r", "d"),
            "n >= 0 and r >= 0 and d >= 1",
            lambda n, r, d: n >= 0 and r >= 0 and d >= 1,
            lambda n, r, d: _pascal(n, r),
            (lambda: range(12), lambda n: range(n + 2), lambda n, r: range(1, 4)),
        ),
        IdentityFamily(
            "REVERSAL",
            ("n", "d"),
            "n >= 0 and d >= 1",
            lambda n, d: n >= 0 and d >= 1,
            lambda n, d: _symmetry(n, 1),
            (lambda: range(13), lambda n: range(1, 4)),
        ),
        IdentityFamily(
            "SYMMETRY",
            ("n", "r", "d"),
            "0 <= r <= n and d >= 1",
            lambda n, r, d: 0 <= r <= n and d >= 1,
            lambda n, r, d: _symmetry(n, r),
            (lambda: range(11), lambda n: range(n + 1), lambda n, r: range(1, 4)),
        ),
        IdentityFamily(
            "BASE_CHANGE",
            ("n", "r", "d"),
            "n >= 1 and r >= 1 and d >= 1",
            lambda n, r, d: n >= 1 and r >= 1 and d >= 1,
            lambda n, r, d: _base_change(n, r),
            (lambda: range(1, 9), lambda n: range(1, 9), lambda n, r: range(1, 4)),
        ),
    )
}


def check_identity(family: str, params: Sequence[int]) -> IdentityReport:
    """Expand both sides of one identity instance and compare exactly.

    Rejects unknown families and out-of-range parameters with a message
    naming the family's precondition.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown identity family {family!r}")
    spec = FAMILIES[family]
    params = tuple(params)
    for value in params:
        _require_int(f"{family} parameter", value)
    if len(params) != len(spec.param_names):
        raise ValueError(
            f"{family} takes parameters ({', '.join(spec.param_names)}), got {params}"
        )
    if not spec.validate(*params):
        shown = ", ".join(f"{n}={v}" for n, v in zip(spec.param_names, params))
        raise ValueError(f"{family} requires {spec.precondition}; got {shown}")
    lhs, rhs = spec.expand(*params)
    return IdentityReport(family=family, params=params, verdict=lhs == rhs)


def sweep_reports(families: Sequence[str] | None = None) -> list[IdentityReport]:
    """Run every family over its stated ranges, ordered by family then
    lexicographic parameters."""
    chosen = sorted(families) if families is not None else sorted(FAMILIES)
    reports = []
    for name in chosen:
        if name not in FAMILIES:
            raise ValueError(f"unknown identity family {name!r}")
        for params in _grid(FAMILIES[name].sweep):
            reports.append(check_identity(name, params))
    return reports
