import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster.qarith import QLaurent
from qcluster.qtorus import (
    SkewForm,
    TorusElem,
    parse_torus_elem,
    render_torus_elem,
    vec_add,
)
from qcluster.seeds import load_seed
from torus_words import iterated_q_commutator, ordered_product

# the skew form of the rank-2 principal example, used as a workhorse
LAM4 = SkewForm([
    [0, 0, -2, 0],
    [0, 0, 0, -1],
    [2, 0, 0, -2],
    [0, 1, 2, 0],
])


def skew_forms(dim):
    upper = st.lists(
        st.integers(min_value=-3, max_value=3),
        min_size=dim * (dim - 1) // 2,
        max_size=dim * (dim - 1) // 2,
    )

    def build(entries):
        rows = [[0] * dim for _ in range(dim)]
        it = iter(entries)
        for i in range(dim):
            for j in range(i + 1, dim):
                value = next(it)
                rows[i][j] = value
                rows[j][i] = -value
        return SkewForm(rows)

    return upper.map(build)


def exp_vecs(dim):
    return st.tuples(*([st.integers(min_value=-3, max_value=3)] * dim))


def elements(form, max_terms=3):
    dim = form.dim
    coeffs = st.dictionaries(
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=-3, max_value=3),
        max_size=2,
    ).map(QLaurent)
    return st.dictionaries(exp_vecs(dim), coeffs, max_size=max_terms).map(
        lambda terms: TorusElem(form, terms)
    )


class TestSkewForm:
    def test_rejects_nonskew(self):
        with pytest.raises(ValueError):
            SkewForm([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            SkewForm([[1, 0], [0, 0]])
        with pytest.raises(ValueError):
            SkewForm([[0, 1, 0], [-1, 0, 0]])

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 1.5], [-1.5, 0]],
            [[0, 2.0], [-2.0, 0]],
            [[0, "2"], ["-2", 0]],
            [[0, True], [-1, 0]],
            [[False, 1], [-1, 0]],
        ],
    )
    def test_rejects_non_int_entries(self, rows):
        with pytest.raises(TypeError, match="skew form entries must be ints"):
            SkewForm(rows)

    def test_pairing_bilinear_and_alternating(self):
        form = LAM4
        e = (1, -2, 0, 3)
        f = (0, 1, 1, -1)
        g = (2, 0, -1, 0)
        assert form.pairing(vec_add(e, f), g) == form.pairing(e, g) + form.pairing(f, g)
        assert form.pairing(e, e) == 0
        assert form.pairing(e, f) == -form.pairing(f, e)


class TestMonomials:
    def test_unit(self):
        assert TorusElem.monomial(LAM4, (0, 0, 0, 0), 1) == TorusElem.unit(LAM4)

    def test_generator(self):
        # the generator x2 is the one-letter word, i.e. X^(e_2)
        assert ordered_product(LAM4, [(2, 1)]) == TorusElem.monomial(LAM4, (0, 1, 0, 0), 1)

    def test_zero_coefficient_gives_zero(self):
        assert TorusElem.monomial(LAM4, (1, 0, 0, 0), 0).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            TorusElem.monomial(LAM4, (1, 0, 0), 1)

    @pytest.mark.parametrize(
        "expo",
        [(1.7, True, 0, 0), (1, True, 0, 0), (1.0, 0, 0, 0), ("1", 0, 0, 0)],
    )
    def test_rejects_non_int_exponents(self, expo):
        with pytest.raises(TypeError, match="exponent vector entries must be ints"):
            TorusElem(LAM4, {expo: 1})


class TestLinear:
    def test_cancellation(self):
        a = TorusElem.monomial(LAM4, (1, 2, -1, 0), QLaurent({1: 3}))
        assert (a - a).is_zero()

    def test_identity(self):
        a = TorusElem.monomial(LAM4, (0, 1, 0, 1), 1)
        assert a + TorusElem.zero(LAM4) == a

    def test_scale_by_commutator_coefficient(self):
        # the witness (q^(3/2) - q^(-1/2)) x2 x4 assembled by scaling
        word = ordered_product(LAM4, [(2, 1), (4, 1)])
        scaled = word.scale(QLaurent({3: 1, -1: -1}))
        assert scaled.items() == [((0, 1, 0, 1), QLaurent({2: 1, -2: -1}))]

    def test_cross_form_refused(self):
        other = SkewForm([[0, 1], [-1, 0]])
        with pytest.raises(ValueError):
            TorusElem.unit(LAM4) + TorusElem.unit(other)
        with pytest.raises(ValueError):
            TorusElem.unit(LAM4) * TorusElem.unit(other)


class TestTwistedProduct:
    def test_generator_pair_example(self):
        # x1 * x3 = q^(lambda_13/2) X^(e1+e3) with lambda_13 = -2
        x1 = TorusElem.monomial(LAM4, (1, 0, 0, 0))
        x3 = TorusElem.monomial(LAM4, (0, 0, 1, 0))
        assert x1 * x3 == TorusElem.monomial(LAM4, (1, 0, 1, 0), QLaurent({-2: 1}))

    def test_monomial_inverse(self):
        e = (2, -1, 3, 0)
        mono = TorusElem.monomial(LAM4, e, 1)
        inv = TorusElem.monomial(LAM4, (-2, 1, -3, 0), 1)
        assert mono * inv == TorusElem.unit(LAM4)

    def test_exchange_relation_value(self):
        # x2 * (X^(1,-1,0,1) + X^(0,-1,0,0)) = q^(-1/2) x1 x4 + 1
        x2 = TorusElem.monomial(LAM4, (0, 1, 0, 0))
        y2 = TorusElem(LAM4, {(1, -1, 0, 1): 1, (0, -1, 0, 0): 1})
        expected = ordered_product(LAM4, [(1, 1), (4, 1)]).scale(QLaurent({-1: 1})) + TorusElem.unit(LAM4)
        assert x2 * y2 == expected

    @given(st.integers(min_value=1, max_value=6).flatmap(
        lambda dim: st.tuples(skew_forms(dim), exp_vecs(dim), exp_vecs(dim))
    ))
    @settings(max_examples=80)
    def test_basis_multiplication_rule(self, drawn):
        form, e, f = drawn
        lhs = TorusElem.monomial(form, e, 1) * TorusElem.monomial(form, f, 1)
        twist = QLaurent.q_power(form.pairing(e, f))
        assert lhs == TorusElem.monomial(form, vec_add(e, f), twist)

    def test_quasi_commutation_all_pairs(self):
        for i in range(1, 5):
            for j in range(1, 5):
                xi = ordered_product(LAM4, [(i, 1)])
                xj = ordered_product(LAM4, [(j, 1)])
                twist = QLaurent.q_power(2 * LAM4.entry(i, j))
                assert xi * xj == (xj * xi).scale(twist)

    @given(skew_forms(3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_associative_and_distributive(self, form, data):
        a = data.draw(elements(form))
        b = data.draw(elements(form))
        c = data.draw(elements(form))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(skew_forms(3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_bar_is_an_anti_involution(self, form, data):
        # bar inverts q^(1/2) and fixes X^e: an involution that reverses
        # products, which the reversed-side relations rest on
        a = data.draw(elements(form))
        b = data.draw(elements(form))
        assert a.bar().bar() == a
        assert (a * b).bar() == b.bar() * a.bar()

    def test_power_of_monomial(self):
        e = (1, -1, 2, 0)
        mono = TorusElem.monomial(LAM4, e, 1)
        assert mono ** 3 == TorusElem.monomial(LAM4, (3, -3, 6, 0), 1)
        assert mono ** 0 == TorusElem.unit(LAM4)

    @pytest.mark.parametrize("exponent", [True, 1.0, "2"])
    def test_power_rejects_non_int_exponent(self, exponent):
        # y ** True once returned y, and y ** 1.0 raised ValueError
        mono = TorusElem.monomial(LAM4, (1, -1, 2, 0), 1)
        with pytest.raises(TypeError, match=f"^torus power exponent must be an int, got {exponent!r}$"):
            mono ** exponent

    def test_power_rejects_negative_exponent(self):
        with pytest.raises(ValueError, match="nonnegative exponent, got -1"):
            TorusElem.unit(LAM4) ** -1

    def test_power_takes_one_product_fewer(self, monkeypatch):
        x = TorusElem(LAM4, {(1, 0, 0, 0): 1, (0, 1, 0, 0): QLaurent.q_power(1)})
        expected = x * x * x
        calls = []
        real_mul = TorusElem.__mul__

        def counting_mul(a, b):
            calls.append(b)
            return real_mul(a, b)

        monkeypatch.setattr(TorusElem, "__mul__", counting_mul)
        assert x ** 1 is x and not calls
        assert x ** 3 == expected and len(calls) == 2


def binomials(form):
    """X^f0 + X^f1 for two distinct exponent vectors: the kernel's outer."""
    return st.lists(exp_vecs(form.dim), min_size=2, max_size=2, unique=True).map(
        lambda pair: TorusElem(form, {f: 1 for f in pair})
    )


class TestIteratedQCommutator:
    @given(skew_forms(3), st.data(), st.lists(st.integers(min_value=-6, max_value=6), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_matches_products(self, form, data, halves):
        # any middle, signs included: each fused step is the two products
        # and the difference, built at once
        outer = data.draw(binomials(form))
        middle = data.draw(elements(form))
        left, right = middle, middle
        for half in halves:
            twist = QLaurent.q_power(half)
            left = outer * left - (left * outer).scale(twist)
            right = right * outer - (outer * right).scale(twist)
        assert iterated_q_commutator(outer, middle, halves) == left
        # the mirrored steps are the bar image of the forward ones on the
        # barred operands at the negated twists
        assert iterated_q_commutator(outer.bar(), middle.bar(), [-h for h in halves]).bar() == right

    @given(skew_forms(3), st.data(), st.lists(st.integers(min_value=-6, max_value=6), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_colliding_lines_match_products(self, form, data, halves):
        # middle terms e + r*(f1 - f0) share one line of A = X^f0 + X^f1,
        # so keys of different middle terms name one exponent after each
        # step; the kernel sums them at the end
        outer = data.draw(binomials(form))
        f0, f1 = outer.support()
        base = data.draw(exp_vecs(form.dim))
        coeffs = data.draw(st.lists(st.sampled_from([QLaurent.from_int(1), QLaurent.from_int(-2), QLaurent({1: 1, -3: -1})]), min_size=2, max_size=4))
        middle = TorusElem(form, [(tuple(a + r * (y - x) for a, x, y in zip(base, f0, f1)), c) for r, c in enumerate(coeffs)])
        assert iterated_q_commutator(outer, middle, halves) == self._by_products(outer, middle, halves)

    def test_colliding_keys_that_cancel_are_dropped(self):
        # M = X^(-f1) - X^(-f0): the keys at X^0, one from each middle term,
        # cancel in both A*M and M*A, so the result has no X^0 term
        outer = TorusElem(LAM4, {(1, 0, 1, 0): 1, (0, 1, 0, 0): 1})
        middle = TorusElem(LAM4, {(-1, 0, -1, 0): 1, (0, -1, 0, 0): -1})
        for halves in ([0], [3], [-2, 5]):
            result = iterated_q_commutator(outer, middle, halves)
            assert result == self._by_products(outer, middle, halves)
        assert (0, 0, 0, 0) not in iterated_q_commutator(outer, middle, [3]).support()

    def test_commuting_pair_cancels(self):
        # lambda_24 = -1 and lambda_14 = 0, so both terms X^f of
        # A = X^e2 + X^(e1+e2) have X^f x4 = q^(-1) x4 X^f: A x4 - q^(-1) x4 A = 0
        outer = TorusElem(LAM4, {(0, 1, 0, 0): 1, (1, 1, 0, 0): 1})
        x4 = ordered_product(LAM4, [(4, 1)])
        assert iterated_q_commutator(outer, x4, [-2]).is_zero()
        assert not iterated_q_commutator(outer, x4, [0]).is_zero()
        assert iterated_q_commutator(outer, x4, []) == x4

    @pytest.mark.parametrize("terms", [
        {(1, 0, 0, 0): 1},
        {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1},
        {(1, 0, 0, 0): 1, (0, 1, 0, 0): 2},
        {(1, 0, 0, 0): -1, (0, 1, 0, 0): 1},
        {(1, 0, 0, 0): 1, (0, 1, 0, 0): QLaurent.q_power(1)},
    ], ids=["one-term", "three-terms", "coefficient-2", "coefficient-minus-1", "coefficient-q-half"])
    def test_outer_outside_domain_refused(self, terms):
        # the steps are defined for any outer, but the kernel and every
        # caller assume X^f0 + X^f1, the shape of a one-step variable
        x4 = ordered_product(LAM4, [(4, 1)])
        for halves in ([0], []):
            with pytest.raises(ArithmeticError, match=r"X\^f0 \+ X\^f1"):
                iterated_q_commutator(TorusElem(LAM4, terms), x4, halves)

    def test_cross_form_refused(self):
        other = SkewForm([[0, 1], [-1, 0]])
        with pytest.raises(ValueError, match="different skew forms"):
            iterated_q_commutator(TorusElem.unit(LAM4), TorusElem.unit(other), [0])

    @pytest.mark.parametrize("half", [0.5, True])
    def test_rejects_non_int_twists(self, half):
        # 0.5 would give the non-canonical coefficient -q^(-0.5/2) + q^(1/2)
        # and True would be read as 1
        x1, x2 = ordered_product(LAM4, [(1, 1)]), ordered_product(LAM4, [(2, 1)])
        with pytest.raises(TypeError, match="q-commutator twist must be an int"):
            iterated_q_commutator(x1, x2, [0, half])

    @staticmethod
    def _by_products(outer, middle, halves):
        for half in halves:
            middle = outer * middle - (middle * outer).scale(QLaurent.q_power(half))
        return middle

    def test_wide_signed_coefficients_match_products(self):
        # Middle coefficients +-(2^k + delta) of up to 200 bits, of either
        # sign, grow over up to four steps, where the two children that meet
        # on one key merge; every coefficient must come out exact.
        rng = random.Random(25)
        bits = (0, 1, 62, 63, 64, 70, 127, 128, 200)
        exponents = list(itertools.product(range(-2, 3), repeat=3))

        def element(form):
            return TorusElem(form, [
                (
                    tuple(rng.randint(-2, 2) for _ in range(form.dim)),
                    QLaurent([
                        (rng.randint(-4, 4), rng.choice((1, -1)) * ((1 << rng.choice(bits)) + rng.randint(-3, 3)))
                        for _ in range(rng.randint(1, 2))
                    ]),
                )
                for _ in range(rng.randint(1, 3))
            ])

        for trial in range(200):
            entries = [rng.randint(-3, 3) for _ in range(3)]
            form = SkewForm([[0, entries[0], entries[1]], [-entries[0], 0, entries[2]], [-entries[1], -entries[2], 0]])
            pair = rng.sample(exponents, 2)
            outer, middle = TorusElem(form, {f: 1 for f in pair}), element(form)
            halves = [rng.randint(-6, 6) for _ in range(rng.randint(0, 4))]
            assert iterated_q_commutator(outer, middle, halves) == self._by_products(outer, middle, halves), trial

    def test_exam1_forty_steps_match_products(self):
        # 40 untwisted steps of y_1 on y_2 of exam1: a nonzero result whose
        # coefficients reach 50 bits
        seed = load_seed(Path(__file__).resolve().parent.parent / "fixtures" / "exam1.json")
        y1, y2 = seed.one_step
        result = iterated_q_commutator(y1, y2, [0] * 40)
        assert result == self._by_products(y1, y2, [0] * 40)
        assert result.term_count() == 40
        assert max(abs(v).bit_length() for _, c in result.items() for _, v in c.items()) == 50


@st.composite
def forms_and_letters(draw):
    # a random skew form and up to 6 (index, power) letters: indices may
    # repeat and come in any order, powers may be zero or negative
    dim = draw(st.integers(min_value=1, max_value=5))
    form = draw(skew_forms(dim))
    letter = st.tuples(st.integers(min_value=1, max_value=dim), st.integers(min_value=-3, max_value=3))
    return form, draw(st.lists(letter, max_size=6))


class TestOrderedProduct:
    @given(forms_and_letters())
    @settings(max_examples=150)
    def test_matches_left_to_right_product(self, drawn):
        form, letters = drawn
        expected = TorusElem.unit(form)
        for index, power in letters:
            expected = expected * TorusElem.monomial(
                form, tuple(power if k == index else 0 for k in range(1, form.dim + 1))
            )
        assert ordered_product(form, letters) == expected

    def test_single_factor(self):
        for i in range(1, 5):
            unit = tuple(1 if k == i else 0 for k in range(1, 5))
            assert ordered_product(LAM4, [(i, 1)]) == TorusElem.monomial(LAM4, unit)

    def test_x2_x4_prefactor(self):
        # lambda_42 = 1, so x2*x4 = q^(-1/2) X^(0,1,0,1) and x4*x2 = q^(1/2) X^(0,1,0,1)
        assert ordered_product(LAM4, [(2, 1), (4, 1)]) == TorusElem.monomial(
            LAM4, (0, 1, 0, 1), QLaurent({-1: 1})
        )

    def test_prefactor_identity_sweep(self):
        # X^a = q^(1/2 sum_{l<k} a_k a_l lambda_kl) * x1^a1 ... x4^a4
        for a in itertools.product((-1, 0, 1), repeat=4):
            half = sum(
                a[k] * a[l] * LAM4.entry(k + 1, l + 1)
                for l in range(4)
                for k in range(l + 1, 4)
            )
            lhs = ordered_product(LAM4, enumerate(a, 1))
            assert lhs == TorusElem.monomial(LAM4, a, QLaurent.q_power(-half))

    def test_order_changes_twist_not_support(self):
        natural = ordered_product(LAM4, [(2, 1), (4, 1)])
        reversed_ = ordered_product(LAM4, [(4, 1), (2, 1)])
        assert natural.support() == reversed_.support()
        assert reversed_ == TorusElem.monomial(LAM4, (0, 1, 0, 1), QLaurent({1: 1}))

    def test_repeated_index_and_empty_word(self):
        # x1 x3 x1^(-1) = q^(lambda_13) x3 with lambda_13 = -2
        assert ordered_product(LAM4, [(1, 1), (3, 1), (1, -1)]) == TorusElem.monomial(
            LAM4, (0, 0, 1, 0), QLaurent({-4: 1})
        )
        assert ordered_product(LAM4, []) == TorusElem.unit(LAM4)
        assert ordered_product(LAM4, [(3, 0)]) == TorusElem.unit(LAM4)

    @pytest.mark.parametrize("letter", [(True, 2), (1, True), (1.0, 1), (1, 0.5)])
    def test_rejects_non_int_letters(self, letter):
        # bool is an int subclass, but True is neither index 1 nor power 1
        with pytest.raises(TypeError, match=r"generator (index|power) must be an int"):
            ordered_product(LAM4, [(1, 1), letter])

    def test_rejects_index_out_of_range(self):
        for index in (0, 5, -1):
            with pytest.raises(ValueError, match=rf"generator index {index} out of range \[1, 4\]"):
                ordered_product(LAM4, [(1, 1), (index, 1)])


class TestCanonicalText:
    def test_zero(self):
        assert render_torus_elem(TorusElem.zero(LAM4)) == "0"

    def test_unit(self):
        assert render_torus_elem(TorusElem.unit(LAM4)) == "1 * X^[0,0,0,0]"

    def test_graded_lex_order(self):
        elem = TorusElem(
            LAM4,
            {
                (1, 0, 0, 0): QLaurent.one(),
                (0, -1, 0, 0): QLaurent({1: 1}),
                (0, 0, 0, 1): QLaurent({0: 1, 2: 1}),
            },
        )
        assert render_torus_elem(elem) == (
            "q^(1/2) * X^[0,-1,0,0] + (1 + q) * X^[0,0,0,1] + 1 * X^[1,0,0,0]"
        )

    @given(skew_forms(4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, form, data):
        elem = data.draw(elements(form, max_terms=4))
        assert parse_torus_elem(render_torus_elem(elem), form) == elem

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_torus_elem("1 * Y^[0,0,0,0]", LAM4)
        with pytest.raises(ValueError):
            parse_torus_elem("1 * X^[0,0]", LAM4)
