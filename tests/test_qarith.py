import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster.qarith import (
    QLaurent,
    exact_div,
    parse_qlaurent,
    q_binom,
    q_binom_factorial,
    q_factorial,
    q_int,
    render_qlaurent,
)


def qp(half):
    return QLaurent.q_power(half)


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
        assert (QLaurent({2: 1}) - 1).at_one() == 0

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


class TestQInt:
    def test_empty_sum(self):
        assert q_int(0, 3) == 0

    def test_single_term(self):
        assert q_int(1, 5) == 1

    def test_geometric_sum(self):
        # independent oracle: explicit geometric sum at base q^2
        oracle = QLaurent.zero()
        for j in range(3):
            oracle = oracle + qp(4 * j)
        assert q_int(3, 2) == oracle

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            q_int(3, 0)
        with pytest.raises(ValueError):
            q_int(3, -1)


class TestQFactorial:
    def test_empty_product(self):
        assert q_factorial(0, 1) == 1

    def test_two(self):
        assert q_factorial(2, 1) == q_int(1) * q_int(2)
        assert q_factorial(2, 1) == QLaurent({0: 1, 2: 1})

    def test_three(self):
        oracle = q_int(1) * q_int(2) * q_int(3)
        assert q_factorial(3, 1) == oracle
        assert q_factorial(3, 1) == QLaurent({0: 1, 2: 2, 4: 2, 6: 1})

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            q_factorial(2, 0)


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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_factorial_oracle_agrees(self, d):
        for n in range(9):
            for r in range(n + 1):
                assert q_binom(n, r, d) == q_binom_factorial(n, r, d)

    def test_at_one_is_ordinary_binomial(self):
        from math import comb

        for n in range(11):
            for r in range(n + 1):
                assert q_binom(n, r, 2).at_one() == comb(n, r)


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
            assert q_int(n, d) == qp(2 * d * (n - 1)) * q_int(n, d).bar()

    @pytest.mark.parametrize("d", [1, 2])
    def test_symmetry(self, d):
        for n in range(11):
            for r in range(n + 1):
                assert q_binom(n, r, d) == qp(2 * d * r * (n - r)) * q_binom(n, r, d).bar()

    def test_base_change_cross_multiplied(self):
        for n in range(1, 9):
            for r in range(1, 9):
                assert q_int(n, r) * q_int(r, 1) == q_int(n, 1) * q_int(r, n)


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
