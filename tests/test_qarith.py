import sys
import tracemalloc
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster import qarith
from qcluster.qarith import (
    QLaurent,
    parse_qlaurent,
    q_binom,
    render_qlaurent,
)


def qp(half):
    return QLaurent.q_power(half)


def at_one(f):
    """Evaluate at q = 1 (the sum of all coefficients)."""
    return sum(coeff for _, coeff in f.items())


def q_integer(n, d=1):
    """[n] at base q^d: 1 + q^d + ... + q^((n-1)d); zero when n = 0."""
    return QLaurent({2 * d * j: 1 for j in range(n)})


# _Q_FACTORIAL_TABLE[k] = [k]!, extended in a loop so that no call recurses.
_Q_FACTORIAL_TABLE = [QLaurent.one()]


def q_factorial(n, d=1):
    """[n]! at base q^d: the product [1][2]...[n]; one when n = 0."""
    if not isinstance(d, int) or d <= 0:
        raise ValueError(f"base exponent d must be a positive integer, got {d!r}")
    table = _Q_FACTORIAL_TABLE
    while len(table) <= n:
        table.append(table[-1] * q_integer(len(table)))
    return QLaurent({d * half: coeff for half, coeff in table[n].items()})


def exact_div(numerator, denominator):
    """Divide exactly in Z[q^(1/2), q^(-1/2)].

    Raises ZeroDivisionError on a zero denominator and ArithmeticError
    when the division leaves a remainder.
    """
    if denominator.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if numerator.is_zero():
        return QLaurent.zero()
    remainder = dict(numerator.items())
    den_items = denominator.items()
    den_lead_half, den_lead_coeff = den_items[-1]
    # An exact quotient cannot reach below the difference of valuations.
    shift_floor = min(remainder) - den_items[0][0]
    quotient = {}
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


def q_binom_factorial(n, r, d=1):
    """[n choose r] at base q^d as the quotient [n]! / ([r]! [n-r]!).

    An independent cross-check of the Pascal-table path of q_binom.
    """
    if r < 0 or r > n:
        return QLaurent.zero()
    numerator = q_factorial(n)
    denominator = q_factorial(r) * q_factorial(n - r)
    return QLaurent({d * half: coeff for half, coeff in exact_div(numerator, denominator).items()})


def factorial_quotient_row(n):
    """Coefficient lists of [n choose r] for r = 0..n, from [n]! / ([r]! [n-r]!).

    Consecutive quotients differ by [n-r+1] / [r] = (1 - q^(n-r+1)) / (1 - q^r),
    so each entry is the one before times 1 - q^(n-r+1), divided exactly by
    1 - q^r.  Shares no code with the Pascal table behind q_binom and, on
    plain lists, is fast enough for every n up to 70.
    """
    row = [[1]]
    for r in range(1, n + 1):
        a = n - r + 1
        numerator = row[-1] + [0] * a
        for i, c in enumerate(row[-1]):
            numerator[i + a] -= c
        quotient = []
        for i in range(len(numerator) - r):
            quotient.append(numerator[i] + (quotient[i - r] if i >= r else 0))
        for i in range(len(numerator) - r, len(numerator)):
            if numerator[i] + (quotient[i - r] if i >= r else 0):
                raise ArithmeticError("factorial quotient does not divide exactly")
        row.append(quotient)
    return row


def from_coefficients(coeffs, d):
    """sum_j coeffs[j] q^(d j)."""
    return QLaurent({2 * d * j: c for j, c in enumerate(coeffs)})


qlaurents = st.dictionaries(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-6, max_value=6),
    max_size=4,
).map(QLaurent)


class TestRingBasics:
    def test_cancellation(self):
        one_plus_q = QLaurent({0: 1, 2: 1})
        assert one_plus_q + QLaurent({2: -1}) == QLaurent.one()

    def test_additive_identity(self):
        f = QLaurent({3: 2, -1: 5})
        assert QLaurent.zero() + f == f

    def test_commutator_scalar_as_sum(self):
        # q^(3/2) - q^(-1/2) assembled from its two monomials
        assert qp(3) + (-qp(-1)) == QLaurent({3: 1, -1: -1})

    def test_difference_of_squares(self):
        assert (1 - qp(2)) * (1 + qp(2)) == 1 - qp(4)

    def test_commutator_scalar_factored(self):
        # q^(-1/2) * (q^2 - 1) = q^(3/2) - q^(-1/2)
        assert qp(-1) * (qp(4) - 1) == QLaurent({3: 1, -1: -1})

    def test_absorbing_zero(self):
        f = QLaurent({1: 3, -4: -2})
        assert f * QLaurent.zero() == 0

    def test_int_interop(self):
        assert 2 * QLaurent.one() + 1 == QLaurent({0: 3})
        assert at_one(QLaurent({2: 1}) - 1) == 0

    @pytest.mark.parametrize("terms", [{True: 1}, {0: True}, {False: -2}, [(1, False)]])
    def test_rejects_bool_terms(self, terms):
        # QLaurent({True: 1}) once rendered as q^(True/2), which does not parse
        with pytest.raises(TypeError, match="half-exponents and coefficients must be ints"):
            QLaurent(terms)

    @pytest.mark.parametrize("value", [0, 1, 5, -1, -7, 2**70])
    def test_constant_hashes_like_its_int(self, value):
        const = QLaurent.from_int(value)
        assert const == value and hash(const) == hash(value)
        assert len({const, value}) == 1
        assert {value: "int"}[const] == "int"

    @given(qlaurents, qlaurents, qlaurents, st.integers(min_value=-8, max_value=8))
    @settings(max_examples=80)
    def test_ring_axioms(self, a, b, c, h):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a.shift(h) == a * QLaurent.q_power(h)


class TestBarInvolution:
    def test_half_power(self):
        assert qp(1).bar() == qp(-1)

    def test_fixed_point(self):
        assert QLaurent.one().bar() == QLaurent.one()

    def test_linearity(self):
        f = QLaurent({3: 1, -1: -1})
        assert f.bar() == QLaurent({-3: 1, 1: -1})

    @given(qlaurents, qlaurents)
    @settings(max_examples=60)
    def test_ring_involution(self, f, g):
        assert f.bar().bar() == f
        assert (f * g).bar() == f.bar() * g.bar()
        assert (f + g).bar() == f.bar() + g.bar()


class TestQFactorial:
    def test_empty_product(self):
        assert q_factorial(0, 1) == 1

    def test_two(self):
        assert q_factorial(2, 1) == q_integer(1) * q_integer(2)
        assert q_factorial(2, 1) == QLaurent({0: 1, 2: 1})

    def test_three(self):
        oracle = q_integer(1) * q_integer(2) * q_integer(3)
        assert q_factorial(3, 1) == oracle
        assert q_factorial(3, 1) == QLaurent({0: 1, 2: 2, 4: 2, 6: 1})

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            q_factorial(2, 0)

    def test_cold_table_does_not_recurse(self, monkeypatch):
        # A limit 20 frames above the current depth leaves room for one
        # multiply but not for a recursion through 48 cold table entries.
        monkeypatch.setitem(globals(), "_Q_FACTORIAL_TABLE", [QLaurent.one()])
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 20)
        try:
            value = q_factorial(48)
        finally:
            sys.setrecursionlimit(limit)
        assert value == reduce(lambda a, b: a * b, (q_integer(k) for k in range(1, 49)))


class TestQBinom:
    def test_three_one(self):
        assert q_binom(3, 1, 1) == QLaurent({0: 1, 2: 1, 4: 1})

    def test_two_one_base_two(self):
        assert q_binom(2, 1, 2) == QLaurent({0: 1, 4: 1})

    def test_boundaries(self):
        for n in range(8):
            assert q_binom(n, 0, 1) == 1
            assert q_binom(n, n, 1) == 1

    def test_five_two(self):
        # frozen via the factorial-quotient oracle
        assert q_binom(5, 2, 1) == QLaurent({0: 1, 2: 1, 4: 2, 6: 2, 8: 2, 10: 1, 12: 1})
        assert q_binom(5, 2, 1) == q_binom_factorial(5, 2, 1)

    def test_out_of_range(self):
        assert q_binom(4, -1, 1) == 0
        assert q_binom(4, 5, 1) == 0
        assert q_binom(-2, 0, 1) == 0

    def test_large_n_does_not_recurse(self):
        # n exceeds every other q_binom argument in the suite, so the table
        # is cold here; a recursive fill would pass the recursion limit
        assert q_binom(1200, 1) == q_integer(1200)
        pair = q_binom(1200, 2)
        assert at_one(pair) == 1200 * 1199 // 2
        assert pair.term_count() == 2 * 1198 + 1

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_factorial_oracle_agrees(self, d):
        for n in range(9):
            for r in range(n + 1):
                assert q_binom(n, r, d) == q_binom_factorial(n, r, d)

    @pytest.mark.parametrize("d", [1, 2])
    def test_factorial_quotient_across_slot_widths(self, d):
        # C(68, 34) is the first binomial past 2^64, so rows 68..70 hold
        # entries decoded from 128-bit slots.
        for n in range(71):
            for r, coeffs in enumerate(factorial_quotient_row(n)):
                assert q_binom(n, r, d) == from_coefficients(coeffs, d)

    def test_independent_of_call_order(self, monkeypatch):
        # (70, 35) needs 128-bit slots, (60, 30) fits in 64-bit ones.
        expected = {
            (70, 35): from_coefficients(factorial_quotient_row(70)[35], 1),
            (60, 30): from_coefficients(factorial_quotient_row(60)[30], 1),
        }
        for order in ([(70, 35), (60, 30)], [(60, 30), (70, 35)]):
            monkeypatch.setattr(qarith, "_Q_BINOM_TABLE", {})
            for n, r in order:
                assert q_binom(n, r) == expected[n, r]

    def test_table_for_rows_to_60_is_small(self, monkeypatch):
        # Row 60 needs every entry of rows 0..60.  That table took 37.5 MiB
        # as term maps; packed it takes about 4.8 MiB.
        monkeypatch.setattr(qarith, "_Q_BINOM_TABLE", {})
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for r in range(61):
                q_binom(60, r)
            size = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert size < 8 * 2**20

    def test_packed_entry_is_the_undecoded_q_binom(self):
        # Slot j of the entry is the coefficient of q^j, and the width is the
        # least multiple of 64 above C(n, r).
        assert qarith._q_binom_entry(4, 5) == qarith._q_binom_entry(4, -1) == (0, 64)
        assert qarith._q_binom_entry(4, 0) == qarith._q_binom_entry(4, 4) == (1, 64)
        for n, r, width in ((5, 2, 64), (67, 33, 64), (68, 34, 128), (70, 35, 128)):
            packed, entry_width = qarith._q_binom_entry(n, r)
            assert entry_width == width
            assert packed == sum(c << width * (h // 2) for h, c in q_binom(n, r).items())

    @pytest.mark.parametrize("args", [(5, 2, True), (5, True), (True, 1), (5.0, 2), (5, 2.0), (5, 2, 1.0)])
    def test_rejects_non_int_arguments(self, args):
        with pytest.raises(TypeError, match="must be an int"):
            q_binom(*args)

    def test_at_one_is_ordinary_binomial(self):
        from math import comb

        for n in range(11):
            for r in range(n + 1):
                assert at_one(q_binom(n, r, 2)) == comb(n, r)


class TestPacking:
    @pytest.mark.parametrize(
        "bound,width",
        [(0, 64), (2**63 - 1, 64), (2**63, 128), (2**127 - 1, 128), (2**127, 192)],
    )
    def test_slot_width(self, bound, width):
        assert qarith._slot_width(bound) == width

    @given(st.sampled_from([64, 128, 192]), st.sampled_from([64, 128, 192]), st.data())
    @settings(max_examples=150)
    def test_respread(self, width, new_width, data):
        # Nonnegative coefficients that fit the narrower width, dense or sparse.
        top = 1 << min(width, new_width)
        coeffs = data.draw(st.lists(
            st.one_of(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=top - 1)),
            max_size=30,
        ))
        packed = sum(c << width * j for j, c in enumerate(coeffs))
        moved = qarith._respread(packed, width, new_width, len(coeffs))
        assert moved == sum(c << new_width * j for j, c in enumerate(coeffs))

    def test_respread_slot_past_new_width(self):
        with pytest.raises(ArithmeticError, match="128-bit slot does not fit in 64 bits"):
            qarith._respread(5 | 1 << 64 | 7 << 128, 128, 64, 2)


class TestPublishedIdentities:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pascal_both_recurrences(self, d):
        for n in range(12):
            for r in range(n + 2):
                left = q_binom(n + 1, r, d)
                assert left == q_binom(n, r, d) + qp(2 * d * (n + 1 - r)) * q_binom(n, r - 1, d)
                assert left == qp(2 * d * r) * q_binom(n, r, d) + q_binom(n, r - 1, d)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_reversal(self, d):
        for n in range(13):
            assert q_binom(n, 1, d) == qp(2 * d * (n - 1)) * q_binom(n, 1, d).bar()

    @pytest.mark.parametrize("d", [1, 2])
    def test_symmetry(self, d):
        for n in range(11):
            for r in range(n + 1):
                assert q_binom(n, r, d) == qp(2 * d * r * (n - r)) * q_binom(n, r, d).bar()

    def test_base_change_cross_multiplied(self):
        for n in range(1, 9):
            for r in range(1, 9):
                assert q_binom(n, 1, r) * q_binom(r, 1, 1) == q_binom(n, 1, 1) * q_binom(r, 1, n)


class TestExactDiv:
    def test_exact(self):
        f = QLaurent({-2: 3, 0: 1, 4: -2})
        g = QLaurent({-1: 2, 3: 1})
        assert exact_div(f * g, g) == f

    def test_inexact_coefficient(self):
        with pytest.raises(ArithmeticError):
            exact_div(QLaurent({0: 3}), QLaurent({0: 2}))

    def test_inexact_polynomial(self):
        with pytest.raises(ArithmeticError):
            exact_div(QLaurent.one(), QLaurent({0: 1, 2: 1}))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(QLaurent.one(), QLaurent.zero())


class TestCanonicalText:
    @pytest.mark.parametrize(
        "poly,text",
        [
            (QLaurent.zero(), "0"),
            (QLaurent.one(), "1"),
            (QLaurent({0: -1}), "-1"),
            (QLaurent({2: 1}), "q"),
            (QLaurent({4: 3}), "3*q^2"),
            (QLaurent({-2: 1}), "q^-1"),
            (QLaurent({3: 1, -1: -1}), "-q^(-1/2) + q^(3/2)"),
            (QLaurent({0: 1, 2: 2, 4: 2, 6: 1}), "1 + 2*q + 2*q^2 + q^3"),
            (QLaurent({-3: -2, 0: 5}), "-2*q^(-3/2) + 5"),
        ],
    )
    def test_render(self, poly, text):
        assert render_qlaurent(poly) == text
        assert str(poly) == text

    @given(qlaurents)
    @settings(max_examples=100)
    def test_round_trip(self, poly):
        assert parse_qlaurent(render_qlaurent(poly)) == poly

    def test_parse_rejects_garbage(self):
        for bad in ["", "q^", "1 +", "x", "q**2"]:
            with pytest.raises(ValueError):
                parse_qlaurent(bad)
