import hashlib
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster import relations, seeds
from qcluster.qarith import QLaurent, q_binom
from qcluster.qtorus import SkewForm, TorusElem, iterated_q_commutator
from qcluster.relations import (
    _lemma_plan,
    _order_plan,
    _plan,
    commutator_check,
    commutator_witness,
    full_suite,
    higher_verify,
    lemma_sum_check,
    one_step_variables,
    power_product_check,
    serre_verify,
    serre_verify_opposite,
)
from qcluster.seeds import (
    load_seed,
    mutate,
    mutated_variable,
    principal_seed,
    random_principal_seed,
)
from seed_kinds import compatible_principal_seed
from torus_words import ordered_product

COMMUTATOR_COEFF = QLaurent({3: 1, -1: -1})  # q^(3/2) - q^(-1/2)


@pytest.fixture
def ex1():
    return principal_seed([[0, 1], [-2, 0]], (2, 1))


@pytest.fixture
def ex3():
    return principal_seed([[0, 2, -2], [-2, 0, 2], [2, -2, 0]], (1, 1, 1))


def xword(seed, half, exponents):
    """q^(half/2) times the natural-order generator word x1^a1 ... xm^am."""
    return ordered_product(seed.form, enumerate(exponents, 1)).scale(QLaurent.q_power(half))


def _sandwich(outer, middle, coeffs):
    """Reference oracle: sum_r coeffs[r] * outer^(L-r) * middle * outer^r
    with L = len(coeffs) - 1, by Horner's scheme, with `terms` the summed
    term counts of the summands (|supp(middle * outer^L)| per nonzero c_r).

    The q-adjoint kernel is checked against it.  With R_r = middle * outer^r, T_0 = c_0 R_0 and
    T_r = outer * T_(r-1) + c_r R_r, the sum is T_L.
    """
    for elem in (outer, middle):
        for _, coeff in elem.items():
            if any(value < 0 for _, value in coeff.items()):
                raise ArithmeticError("sandwich operands need nonnegative coefficients")
    right = middle
    acc = middle.scale(coeffs[0])
    for coeff in coeffs[1:]:
        right = right * outer
        acc = outer * acc + right.scale(coeff)
    return acc, right.term_count() * sum(1 for coeff in coeffs if coeff)


def _alternating_coeffs(top, d, shift):
    """(-1)^r q^(d*r*(r-1)/2 - d*r*shift) [top, r] at base q^d, r = 0..top."""
    out = []
    for r in range(top + 1):
        coeff = q_binom(top, r, d) * QLaurent.q_power(d * r * (r - 1) - 2 * d * r * shift)
        out.append(-coeff if r % 2 else coeff)
    return out


def _lemma_coeffs(m_exp, d, step, positive):
    """Partial sums of the order-sum coefficients, twisted as `lemma_sum_check` does."""
    slope = step if positive else -1
    coeffs, acc = [], QLaurent.zero()
    for t, value in enumerate(_alternating_coeffs(m_exp + 1, d, m_exp if positive else 0)[: m_exp + 1]):
        acc = acc + value
        coeffs.append(acc * QLaurent.q_power(2 * d * t * slope))
    return coeffs


@st.composite
def sandwich_operands(draw, outer_terms=(1, 3)):
    # a random skew form of dimension 2-3, outer and middle with nonnegative
    # coefficients (1-3 terms each, or `outer_terms` for the outer), and 1-5
    # signed coefficients, some zero
    dim = draw(st.integers(min_value=2, max_value=3))
    rows = [[0] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(a + 1, dim):
            rows[a][b] = draw(st.integers(min_value=-3, max_value=3))
            rows[b][a] = -rows[a][b]
    form = SkewForm(rows)
    expo = st.tuples(*[st.integers(min_value=-2, max_value=2)] * dim)
    positive = st.dictionaries(
        st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3),
        min_size=1, max_size=3,
    ).map(QLaurent)
    signed = st.one_of(
        st.just(QLaurent.zero()),
        st.dictionaries(
            st.integers(min_value=-6, max_value=6), st.integers(min_value=-3, max_value=3),
            max_size=3,
        ).map(QLaurent),
    )

    def element(sizes=(1, 3)):
        return TorusElem(form, draw(st.dictionaries(expo, positive, min_size=sizes[0], max_size=sizes[1])))

    coeffs = draw(st.lists(signed, min_size=1, max_size=5))
    return element(outer_terms), element(), coeffs


class TestSandwichKernel:
    @given(sandwich_operands())
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_definition(self, operands):
        outer, middle, coeffs = operands
        top = len(coeffs) - 1
        direct = TorusElem.zero(outer.form)
        terms = 0
        for r, coeff in enumerate(coeffs):
            summand = ((outer ** (top - r)) * middle * (outer ** r)).scale(coeff)
            terms += summand.term_count()
            direct = direct + summand
        assert _sandwich(outer, middle, coeffs) == (direct, terms)

    @given(sandwich_operands(outer_terms=(2, 2)), st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_q_adjoint_matches_oracle(self, operands, d, m_exp):
        # each builder's step count and first twist, in `_plan`'s twist
        # order, against the oracle fed the q-binomial coefficients they
        # replace: the order sum (serre and higher) for b_ij <= 0 and
        # b_ij > 0, the reversed side through the bar identity, and the
        # lemma partial sums for both signs.  The outers are X^f0 + X^f1, as
        # every one-step variable is; the middles are otherwise generic, so
        # most sums are nonzero, as exploratory remainders are.  A generic
        # middle need not have the shape `_plan`'s `terms` assumes, so the
        # twists come from a plan on one of its terms: the Gauss-binomial
        # identity holds for every middle.
        outer, middle, _ = operands
        outer = TorusElem(outer.form, dict.fromkeys(outer.support(), 1))
        probe = TorusElem.monomial(outer.form, min(middle.support()))

        def kernel(steps, first):
            halves = _plan(outer, probe, d, steps, first).halves
            return iterated_q_commutator(outer, middle, halves)

        def oracle(coeffs):
            return _sandwich(outer, middle, coeffs)[0]

        for shift in (0, m_exp):
            assert kernel(m_exp + 1, -shift) == oracle(_alternating_coeffs(m_exp + 1, d, shift))
        # the reversed Gauss coefficients, A^r M A^(L-r): bar of the forward
        # steps on the barred operands at the negated twists
        halves = _plan(outer, probe, d, m_exp + 1, 0).halves
        mirrored = iterated_q_commutator(outer.bar(), middle.bar(), [-h for h in halves]).bar()
        assert mirrored == oracle(_alternating_coeffs(m_exp + 1, d, 0)[::-1])
        for step in range(1, 4):
            assert kernel(m_exp, step - m_exp) == oracle(_lemma_coeffs(m_exp, d, step, positive=True))
        assert kernel(m_exp, 0) == oracle(_lemma_coeffs(m_exp, d, 1, positive=False))
        # a shift on every step multiplies coefficient r by q^(r*shift/2)
        for shift in (-3, 2):
            halves = _plan(outer, probe, d, m_exp + 1, 0, shift).halves
            coeffs = _alternating_coeffs(m_exp + 1, d, 0)
            twisted = [c * QLaurent.q_power(r * shift) for r, c in enumerate(coeffs)]
            assert iterated_q_commutator(outer, middle, halves) == oracle(twisted)

    def test_negative_coefficient_refused(self, ex1):
        y1, y2 = one_step_variables(ex1)
        plan = _plan(-y1, y2, 1, 2, 0)
        with pytest.raises(ArithmeticError, match=r"X\^f0 \+ X\^f1"):
            iterated_q_commutator(plan.outer, plan.middle, plan.halves)

    @given(sandwich_operands(outer_terms=(1, 1)), sandwich_operands(outer_terms=(3, 3)))
    @settings(max_examples=20, deadline=None)
    def test_outer_without_two_terms_refused(self, one_term, three_terms):
        for outer, middle, _ in (one_term, three_terms):
            plan = _plan(outer, middle, 1, 2, 0)
            with pytest.raises(ArithmeticError, match=r"X\^f0 \+ X\^f1"):
                iterated_q_commutator(plan.outer, plan.middle, plan.halves)

    def test_heavy_instance(self, kernel_widths):
        # 101 steps of y_1 on y_2^10, whose l1 norm is 2^10: coefficients are
        # bounded by 4^101 * 2^10 = 2^212, which needs W = 256
        seed = principal_seed([[0, 10], [-10, 0]], (1, 1))
        cert = higher_verify(seed, 1, 2, 10, 100)
        assert (cert.ok, cert.residue, cert.terms) == (True, "0", 114444)
        assert kernel_widths == [256]

    @pytest.mark.parametrize("m_exp, terms", [(400, 323208), (1000, 2008008)])
    def test_long_line_instances(self, m_exp, terms):
        # m+1 steps by y_1 of exam1 on the two terms of y_2: each line of
        # direction b_1 holds one interval of m+2 points, one line per term,
        # so terms = 2 * (m+2)^2
        seed = load_seed(Path(__file__).resolve().parent.parent / "fixtures" / "exam1.json")
        cert = higher_verify(seed, 1, 2, 1, m_exp)
        assert (cert.ok, cert.residue, cert.terms) == (True, "0", terms)


def _gauss_coeffs(halves):
    """The coefficients c_r of A^(L-r) M A^r in the steps M <- A*M - q^(h/2) M*A,
    h in `halves`: Gauss's binomial formula, multiplied out one step at a time."""
    coeffs = [QLaurent.one()]
    for half in halves:
        twist = QLaurent.q_power(half)
        coeffs = [a - twist * b for a, b in zip(coeffs + [QLaurent.zero()], [QLaurent.zero()] + coeffs)]
    return coeffs


def _every_plan(seed):
    """Every plan of `seed`: admissible and exploratory higher (one order
    past |b_ij| among them), whose l = 1 plan at m = |b_ij| is serre and,
    barred, the reversed side, then L32 and L41."""
    plans = []
    for i in range(1, seed.n + 1):
        for j in range(1, seed.n + 1):
            if i == j:
                continue
            size = abs(seed.b_entry(i, j))
            if size == 0:
                plans.extend(_order_plan(seed, i, j, l, m) for l, m in ((1, 0), (1, 1), (2, 2)))
                continue
            for l in range(1, size + 1):
                plans.append(_order_plan(seed, i, j, l, l * size))
                plans.append(_order_plan(seed, i, j, l, l * size - 1, exploratory=True))
            plans.append(_order_plan(seed, i, j, size + 1, (size + 1) * size + 2, exploratory=True))
            plans.append(_lemma_plan(seed, i, j, "L32", None, None)[1])
            plans.extend(_lemma_plan(seed, i, j, "L41", None, t)[1] for t in range(size))
    return plans


class TestPlanTerms:
    def test_terms_is_the_summed_term_count(self):
        # each plan's closed form |supp M| * (L+1)^2 against the summands
        # built and counted by the oracle, whose sum is also the kernel's
        # element; on seeds with a nonzero mutable Lambda block many sums
        # are nonzero.  The kernel refuses an outer other than X^f0 + X^f1
        # and the oracle a negative coefficient, so this also checks the
        # facts `_plan`'s closed form rests on, at ranks 2, 3 and 4.
        rng = random.Random(29)
        count = 0
        for make in (random_principal_seed, compatible_principal_seed):
            for seed in [make(rng, rng.choice([2, 3])) for _ in range(3)] + [make(rng, 4)]:
                for plan in _every_plan(seed):
                    total, terms = _sandwich(plan.outer, plan.middle, _gauss_coeffs(plan.halves))
                    assert plan.terms == terms
                    assert iterated_q_commutator(plan.outer, plan.middle, plan.halves) == total
                    count += 1
        assert count > 100


class TestOneStepVariables:
    def test_rank2_product_golden(self, ex1):
        y1, y2 = one_step_variables(ex1)
        golden = (
            xword(ex1, 1, (0, -1, 1, 1))
            + xword(ex1, -2, (-1, -1, 1, 0))
            + xword(ex1, -1, (0, 1, 0, 1))
            + xword(ex1, 0, (-1, 1, 0, 0))
        )
        assert y1 * y2 == golden

    def test_rank3_product_golden(self, ex3):
        y1, _, y3 = one_step_variables(ex3)
        golden = (
            xword(ex3, -2, (-1, 2, 1, 1, 0, 1))
            + xword(ex3, -1, (-1, 4, -1, 0, 0, 1))
            + xword(ex3, 3, (1, 0, 1, 1, 0, 0))
            + xword(ex3, 0, (1, 2, -1, 0, 0, 0))
        )
        assert y1 * y3 == golden

    def test_zero_exchange_matrix(self):
        seed = principal_seed([[0, 0], [0, 0]], (1, 1))
        y1, y2 = one_step_variables(seed)
        assert y1 == TorusElem(seed.form, {(-1, 0, 1, 0): 1, (-1, 0, 0, 0): 1})
        assert y2 == TorusElem(seed.form, {(0, -1, 0, 1): 1, (0, -1, 0, 0): 1})

    def test_requires_principal(self, ex1):
        with pytest.raises(ValueError):
            one_step_variables(mutate(ex1, 1))


class TestCommutator:
    def test_rank2_witness(self, ex1):
        # y2 y1 - y1 y2 = (q^(3/2) - q^(-1/2)) x2 x4
        cert = commutator_check(ex1, 2, 1)
        assert cert.ok
        expected = xword(ex1, 0, (0, 1, 0, 1)).scale(COMMUTATOR_COEFF)
        assert commutator_witness(ex1, 2, 1) == expected

    def test_rank3_witness(self, ex3):
        # y1 y3 - y3 y1 = (q^(3/2) - q^(-1/2)) x1 x3 x4
        cert = commutator_check(ex3, 1, 3)
        assert cert.ok
        expected = xword(ex3, 0, (1, 0, 1, 1, 0, 0)).scale(COMMUTATOR_COEFF)
        assert commutator_witness(ex3, 1, 3) == expected

    def test_zero_entry_commutes(self):
        seed = principal_seed([[0, 0], [0, 0]], (2, 3))
        y1, y2 = one_step_variables(seed)
        assert (y1 * y2 - y2 * y1).is_zero()
        assert commutator_check(seed, 1, 2).ok
        assert commutator_witness(seed, 1, 2).is_zero()

    def test_single_term_property_random(self):
        # y_i y_j - q^(s/2) y_j y_i, s = s_ij, which is 0 on a plain
        # principal seed and reported as the check's twist
        rng = random.Random(314)
        for make in (random_principal_seed, compatible_principal_seed):
            for _ in range(15):
                seed = make(rng, rng.choice([2, 3]))
                ys = one_step_variables(seed)
                for i in range(1, seed.n + 1):
                    for j in range(1, seed.n + 1):
                        if i == j:
                            continue
                        twist = _twist(seed, i, j)
                        commutator = ys[i - 1] * ys[j - 1] - (ys[j - 1] * ys[i - 1]).scale(QLaurent.q_power(twist))
                        assert commutator.term_count() <= 1
                        assert commutator == commutator_witness(seed, i, j)
                        cert = commutator_check(seed, i, j)
                        assert cert.ok
                        assert dict(cert.params).get("twist", 0) == twist
                        assert cert.params[-1][0] != "twist" or twist

    @pytest.mark.parametrize("moved", [-2, 2])
    def test_a_moved_twist_fails_every_pair(self, monkeypatch, moved):
        # at twist s_ij +/- 2 the X^(g(y_i) + g(y_j)) term no longer
        # cancels, so the commutator differs from the witness on every
        # ordered pair, and a check whose kernel twist is moved fails
        kernel = relations.iterated_q_commutator
        monkeypatch.setattr(
            relations, "iterated_q_commutator", lambda outer, middle, halves: kernel(outer, middle, [h + moved for h in halves])
        )
        rng = random.Random(19)
        for make in (random_principal_seed, compatible_principal_seed):
            for _ in range(4):
                seed = make(rng, rng.choice([2, 3]))
                ys = one_step_variables(seed)
                for i in range(1, seed.n + 1):
                    for j in range(1, seed.n + 1):
                        if i == j:
                            continue
                        commutator = iterated_q_commutator(ys[i - 1], ys[j - 1], (_twist(seed, i, j) + moved,))
                        free = tuple(a + c for a, c in zip(_free_term(seed, i), _free_term(seed, j)))
                        assert free in commutator.support()
                        assert commutator != commutator_witness(seed, i, j)
                        assert not commutator_check(seed, i, j).ok


class TestPowerProducts:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_triple_agreement_examples(self, ex1, ex3, side):
        # the bundled examples, then seeds whose Lambda has a nonzero
        # mutable block
        rng = random.Random(43)
        mutable = [compatible_principal_seed(rng, rng.choice([2, 3])) for _ in range(6)]
        for seed in (ex1, ex3, *mutable):
            for i in range(1, seed.n + 1):
                for t in range(1, 5):
                    assert power_product_check(seed, i, t, side).ok

    def test_rank2_closed_form(self, ex1):
        # y2^t x2^t = sum_k [t,k] q^(k^2/2) x1^k x4^k
        y2 = one_step_variables(ex1)[1]
        x2 = ordered_product(ex1.form, [(2, 1)])
        for t in range(1, 5):
            expected = TorusElem.zero(ex1.form)
            for k in range(t + 1):
                word = xword(ex1, k * k, (k, 0, 0, k))
                expected = expected + word.scale(q_binom(t, k))
            assert (y2 ** t) * (x2 ** t) == expected

    def test_rank3_closed_form(self, ex3):
        # y1^t x1^t = sum_k [t,k] q^(k^2/2) x2^(2(t-k)) x3^(2k) x4^k
        y1 = one_step_variables(ex3)[0]
        x1 = ordered_product(ex3.form, [(1, 1)])
        for t in range(1, 5):
            expected = TorusElem.zero(ex3.form)
            for k in range(t + 1):
                word = xword(ex3, k * k, (0, 2 * (t - k), 2 * k, k, 0, 0))
                expected = expected + word.scale(q_binom(t, k))
            assert (y1 ** t) * (x1 ** t) == expected

    def test_t1_reduces_to_exchange_relation(self, ex1):
        cert = power_product_check(ex1, 1, 1, "left")
        assert cert.ok

    def test_bad_arguments(self, ex1):
        with pytest.raises(ValueError):
            power_product_check(ex1, 3, 1)
        with pytest.raises(ValueError):
            power_product_check(ex1, 1, 0)
        with pytest.raises(ValueError):
            power_product_check(ex1, 1, 1, side="middle")


class TestLemmaSums:
    def test_rank2_negative_entry(self, ex1):
        assert lemma_sum_check(ex1, 2, 1, "L32").ok

    def test_rank2_positive_entry(self, ex1):
        assert lemma_sum_check(ex1, 1, 2, "L32").ok

    def test_rank3_all_pairs(self, ex3):
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    assert lemma_sum_check(ex3, i, j, "L32").ok

    def test_generalized_instances(self, ex1):
        assert lemma_sum_check(ex1, 2, 1, "L41", m_exp=4, t_shift=1).ok
        assert lemma_sum_check(ex1, 2, 1, "L41", m_exp=5, t_shift=1).ok
        assert lemma_sum_check(ex1, 1, 2, "L41", m_exp=2, t_shift=0).ok

    def test_specialization_matches_one_step_version(self, ex1, ex3):
        # at t_shift = 0 and minimal outer exponent, the generalized sum is
        # literally the one-step sum: identical summand statistics, both zero
        for seed, i, j in ((ex1, 2, 1), (ex1, 1, 2), (ex3, 1, 2), (ex3, 2, 1)):
            base = lemma_sum_check(seed, i, j, "L32")
            general = lemma_sum_check(
                seed, i, j, "L41", m_exp=abs(seed.b_entry(i, j)), t_shift=0
            )
            assert base.ok and general.ok
            assert base.terms == general.terms

    def test_preconditions(self, ex1):
        with pytest.raises(ValueError):
            lemma_sum_check(ex1, 2, 1, "L40")
        with pytest.raises(ValueError):
            lemma_sum_check(ex1, 2, 1, "L41", m_exp=3, t_shift=1)  # m too small
        with pytest.raises(ValueError):
            lemma_sum_check(ex1, 2, 1, "L41", m_exp=9, t_shift=2)  # t too large
        with pytest.raises(ValueError, match="L32 fixes"):
            lemma_sum_check(ex1, 2, 1, "L32", m_exp=2)
        zero_seed = principal_seed([[0, 0], [0, 0]], (1, 1))
        with pytest.raises(ValueError):
            lemma_sum_check(zero_seed, 1, 2, "L32")


class TestSerre:
    def test_rank2_both_orientations(self, ex1):
        assert serre_verify(ex1, 2, 1).ok  # sum to r = 3 at base q
        assert serre_verify(ex1, 1, 2).ok  # sum to r = 2 at base q^2

    def test_rank3_all_six(self, ex3):
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    assert serre_verify(ex3, i, j).ok

    def test_opposite_side(self, ex1, ex3):
        assert serre_verify_opposite(ex1, 2, 1).ok
        for i, j in ((1, 3), (2, 1), (3, 2)):
            assert serre_verify_opposite(ex3, i, j).ok

    def test_opposite_requires_nonpositive_entry(self, ex1):
        with pytest.raises(ValueError):
            serre_verify_opposite(ex1, 1, 2)

    def test_zero_entry_reduces_to_commutation(self):
        seed = principal_seed([[0, 0], [0, 0]], (2, 1))
        assert serre_verify(seed, 1, 2).ok
        assert serre_verify_opposite(seed, 1, 2).ok

    def test_distinct_indices_required(self, ex1):
        with pytest.raises(ValueError):
            serre_verify(ex1, 1, 1)


class TestHigher:
    def test_rank2_printed_instances(self, ex1):
        assert higher_verify(ex1, 1, 2, 1, 2).ok  # r <= 3 at base q^2, twist -2r
        assert higher_verify(ex1, 2, 1, 2, 4).ok  # r <= 5 at base q, y_1^2

    def test_rank3_printed_instance(self, ex3):
        assert higher_verify(ex3, 1, 3, 2, 4).ok

    def test_zero_entry_any_outer_exponent(self):
        seed = principal_seed([[0, 0], [0, 0]], (1, 2))
        for m_exp in range(4):
            assert higher_verify(seed, 1, 2, 3, m_exp).ok

    def test_range_violations_name_the_bound(self, ex1):
        with pytest.raises(ValueError) as excinfo:
            higher_verify(ex1, 2, 1, 3, 6)
        assert "exceeds |b_ij|" in str(excinfo.value)
        with pytest.raises(ValueError) as excinfo:
            higher_verify(ex1, 2, 1, 2, 3)
        assert "below the bound" in str(excinfo.value)
        with pytest.raises(ValueError):
            higher_verify(ex1, 2, 1, 0, 0)

    def test_exploratory_out_of_range(self, ex1):
        cert = higher_verify(ex1, 2, 1, 2, 3, exploratory=True)
        assert cert.exploratory
        assert not cert.ok
        assert cert.residue == "(q^-2 - q^-1 - 1 + 2*q^3 - q^6 - q^7 + q^8) * X^[2,0,0,4]"
        assert cert.terms == 75

    def test_exploratory_in_range_still_passes(self, ex1):
        assert higher_verify(ex1, 2, 1, 2, 4, exploratory=True).ok


# Each entry point with one int parameter replaced by `value`, and the
# name its TypeError gives that parameter.
NON_INT_CALLS = {
    "serre_verify-i": (lambda seed, v: serre_verify(seed, v, 2), "index i"),
    "serre_verify-j": (lambda seed, v: serre_verify(seed, 2, v), "index j"),
    "commutator_check-j": (lambda seed, v: commutator_check(seed, 2, v), "index j"),
    "higher_verify-l": (lambda seed, v: higher_verify(seed, 2, 1, v, 2), "order l"),
    "higher_verify-m": (lambda seed, v: higher_verify(seed, 1, 2, 1, v), "outer exponent m_exp"),
    "exploratory-l": (lambda seed, v: higher_verify(seed, 1, 2, v, 2, exploratory=True), "order l"),
    "exploratory-m": (lambda seed, v: higher_verify(seed, 1, 2, 1, v, exploratory=True), "outer exponent m_exp"),
    "lemma_sum_check-j": (lambda seed, v: lemma_sum_check(seed, 2, v), "index j"),
    "lemma_sum_check-m": (lambda seed, v: lemma_sum_check(seed, 1, 2, "L41", m_exp=v), "outer exponent m_exp"),
    "lemma_sum_check-t_shift": (lambda seed, v: lemma_sum_check(seed, 1, 2, "L41", t_shift=v), "t_shift"),
    "power_product_check-i": (lambda seed, v: power_product_check(seed, v, 2), "index i"),
    "power_product_check-t": (lambda seed, v: power_product_check(seed, 1, v), "power t"),
    "mutate-k": (lambda seed, v: mutate(seed, v), "mutation direction k"),
    "mutated_variable-k": (lambda seed, v: mutated_variable(seed, v), "variable index k"),
}


class TestIntegerParameters:
    @pytest.mark.parametrize("value", [True, 1.0])
    @pytest.mark.parametrize("entry", NON_INT_CALLS)
    def test_non_int_rejected(self, ex1, entry, value):
        call, name = NON_INT_CALLS[entry]
        with pytest.raises(TypeError, match=f"^{name} must be an int, got {value!r}$"):
            call(ex1, value)


def _serre_certificates(seed):
    return [c for c in full_suite(seed) if c.check in ("serre", "serre-opposite")]


class TestSuites:
    def test_rank2_suite(self, ex1):
        certs = _serre_certificates(ex1)
        assert len(certs) == 3  # two direct relations, one reversed side
        assert all(c.ok for c in certs)

    def test_rank3_suite(self, ex3):
        certs = _serre_certificates(ex3)
        assert len(certs) == 9  # six direct, three reversed
        assert all(c.ok for c in certs)

    def test_zero_matrix_suite(self):
        seed = principal_seed([[0, 0], [0, 0]], (1, 1))
        certs = _serre_certificates(seed)
        assert len(certs) == 4  # commutator both ways, reversed both ways
        assert all(c.ok for c in certs)

    def test_rank1_suite_checks_the_seed(self):
        # n = 1 gives no pair, so no certificate, but the seed must still be principal
        seed = principal_seed([[0]], (1,))
        assert full_suite(seed) == []
        with pytest.raises(ValueError, match="not principal"):
            full_suite(mutate(seed, 1))

    def test_default_higher_instances(self, ex1):
        higher = [dict(c.params) for c in full_suite(ex1) if c.check == "higher"]
        assert [(h["i"], h["j"], h["l"], h["m"]) for h in higher] == [
            (1, 2, 1, 1),
            (2, 1, 1, 2),
            (2, 1, 2, 4),
        ]

    def test_full_suite(self, ex1):
        certs = full_suite(ex1)
        assert len(certs) == 6
        assert all(c.ok for c in certs)
        # the l = 1 instance at m = |b_ij| is the Serre sum of its pair,
        # and its relabelled certificate is what higher_verify gives
        serre = {c.params: c for c in certs if c.check == "serre"}
        order_one = [c for c in certs if c.check == "higher" and dict(c.params)["l"] == 1]
        assert len(order_one) == 2
        for cert in order_one:
            pair = serre[cert.params[:2]]
            assert (cert.ok, cert.residue, cert.terms) == (pair.ok, pair.residue, pair.terms)
            i, j = dict(cert.params)["i"], dict(cert.params)["j"]
            direct = higher_verify(ex1, i, j, 1, abs(ex1.b_entry(i, j)))
            assert (cert.ok, cert.residue, cert.terms) == (direct.ok, direct.residue, direct.terms)

    def test_serre_plan_is_the_order_one_plan(self, ex1, ex3):
        # why full_suite may relabel the serre certificate as higher at
        # l = 1, also on the b_ij = 0 pairs of a zero exchange matrix
        zero = principal_seed([[0, 0], [0, 0]], (1, 2))
        for seed in (ex1, ex3, zero):
            for i in range(1, seed.n + 1):
                for j in range(1, seed.n + 1):
                    if i != j:
                        serre = serre_verify(seed, i, j)
                        higher = higher_verify(seed, i, j, 1, abs(seed.b_entry(i, j)))
                        assert (serre.ok, serre.residue, serre.terms) == (higher.ok, higher.residue, higher.terms)
                        assert dict(serre.params).get("twist") == dict(higher.params).get("twist")

    def test_one_kernel_pass_per_distinct_plan(self, monkeypatch):
        passes = []

        def counting(*args):
            passes.append(args)
            return original(*args)

        original = relations.iterated_q_commutator
        monkeypatch.setattr(relations, "iterated_q_commutator", counting)
        seed = load_seed(Path(__file__).resolve().parent.parent / "fixtures" / "exam1.json")
        certs = full_suite(seed)
        # serre (1, 2), (2, 1) and higher (2, 1, 2, 4); the two l = 1
        # higher instances reuse their serre expansions, and serre-opposite
        # (2, 1), bar of a passing serre (1, 2), relabels that certificate
        assert (len(certs), len(passes)) == (6, 3)

    def test_certificate_rendering(self, ex1):
        cert = serre_verify(ex1, 2, 1)
        assert cert.render() == "serre(i=2, j=1): PASS [terms=32]"
        record = cert.summary_json()
        assert '"check": "serre"' in record and '"ok": true' in record
        timed = cert.render(timings=True)
        assert "s]" in timed


class TestOneStepDerivedOnce:
    @pytest.mark.parametrize("name, variables", [("exam1.json", 2), ("exam3.json", 3)])
    def test_full_suite_builds_each_variable_once(self, monkeypatch, name, variables):
        original = seeds.mutated_variable
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        # Rebind every module-level reference, so that a module holding
        # its own import of the function is counted too.
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "qcluster" and vars(module).get("mutated_variable") is original:
                monkeypatch.setattr(module, "mutated_variable", counting)
        seed = load_seed(Path(__file__).resolve().parent.parent / "fixtures" / name)
        assert all(c.ok for c in full_suite(seed))
        assert len(calls) == variables

    def test_variables_unchanged_by_the_suite(self):
        rng = random.Random(23)
        for n in (2, 3, 4):
            for _ in range(3):
                seed = random_principal_seed(rng, n, max_entry=2, max_d=2)
                full_suite(seed)
                assert seed.one_step == tuple(
                    mutated_variable(seed, k) for k in range(1, n + 1)
                )


class TestReductionStepSupport:
    def _inner_sum_negative(self, seed, i, j, l):
        # sum_t (q^(d_i))^(-b_ij (l-t)) y_j^(t-1) x_j^(b_ji - 1) y_j^(l-t)
        b_ij = seed.b_entry(i, j)
        b_ji = seed.b_entry(j, i)
        d_i = seed.d[i - 1]
        y_j = one_step_variables(seed)[j - 1]
        x_j_word = TorusElem.monomial(
            seed.form, tuple(b_ji - 1 if t == j - 1 else 0 for t in range(seed.m))
        )
        total = TorusElem.zero(seed.form)
        for t in range(1, l + 1):
            twist = QLaurent.q_power(-2 * d_i * b_ij * (l - t))
            total = total + ((y_j ** (t - 1)) * x_j_word * (y_j ** (l - t))).scale(twist)
        return total

    def _inner_sum_positive(self, seed, i, j, l):
        # sum_t (q^(d_j))^(t-l) y_j^(t-1) x_j^(-b_ji - 1) y_j^(l-t)
        b_ji = seed.b_entry(j, i)
        d_j = seed.d[j - 1]
        y_j = one_step_variables(seed)[j - 1]
        x_j_word = TorusElem.monomial(
            seed.form, tuple(-b_ji - 1 if t == j - 1 else 0 for t in range(seed.m))
        )
        total = TorusElem.zero(seed.form)
        for t in range(1, l + 1):
            twist = QLaurent.q_power(2 * d_j * (t - l))
            total = total + ((y_j ** (t - 1)) * x_j_word * (y_j ** (l - t))).scale(twist)
        return total

    def test_inner_sum_exponent_support(self, ex1, ex3):
        # the i-th exponent entries land exactly on the multiples |b_ij| * k,
        # k = 0 .. l-1, so x_i enters only through the predicted powers
        for seed, i, j in ((ex1, 2, 1), (ex3, 1, 3), (ex3, 2, 1)):
            b_ij = seed.b_entry(i, j)
            assert b_ij < 0
            for l in range(1, -b_ij + 1):
                total = self._inner_sum_negative(seed, i, j, l)
                allowed = {-b_ij * k for k in range(l)}
                seen = {expo[i - 1] for expo in total.support()}
                assert seen <= allowed
        for seed, i, j in ((ex1, 1, 2), (ex3, 1, 2)):
            b_ij = seed.b_entry(i, j)
            assert b_ij > 0
            for l in range(1, b_ij + 1):
                total = self._inner_sum_positive(seed, i, j, l)
                allowed = {b_ij * k for k in range(l)}
                seen = {expo[i - 1] for expo in total.support()}
                assert seen <= allowed


# sha256 of repr((check, params, ok, residue, terms)), one line per
# certificate, over `_digest_certificates()`.  It pins every verdict,
# remainder and term count, so a kernel change that moves any of them
# fails here.
CERTIFICATE_DIGEST = "874d28ebbaf01eb7328811d7ee02043912620bd1e734560de64313bb46622ee4"


def _digest_certificates():
    """12 random rank-2/3 seeds: the full suite, every L32 and L41 (m, t)
    at its minimal m, exploratory `higher` just below the admissible
    outer exponent (nonzero remainders), one admissible m above the
    minimum, and `higher` at l = 1, 2 on the b_ij = 0 pairs."""
    rng = random.Random(5)
    certs = []
    signs = set()
    for _ in range(12):
        seed = random_principal_seed(rng, rng.choice([2, 3]), max_entry=3, max_d=3)
        certs.extend(full_suite(seed))
        for i in range(1, seed.n + 1):
            for j in range(1, seed.n + 1):
                if i == j:
                    continue
                size = abs(seed.b_entry(i, j))
                signs.add((seed.b_entry(i, j) > 0) - (seed.b_entry(i, j) < 0))
                if size == 0:
                    certs.extend(higher_verify(seed, i, j, l, l) for l in (1, 2))
                    continue
                for l in range(1, size + 1):
                    certs.append(higher_verify(seed, i, j, l, l * size - 1, exploratory=True))
                certs.append(higher_verify(seed, i, j, 1, size + 1))
                certs.append(lemma_sum_check(seed, i, j, "L32"))
                certs.extend(lemma_sum_check(seed, i, j, "L41", t_shift=t) for t in range(size))
    return certs, signs


class TestCertificateDigest:
    def test_pinned_digest(self):
        certs, signs = _digest_certificates()
        lines = "\n".join(repr((c.check, c.params, c.ok, c.residue, c.terms)) for c in certs)
        # the set exercises what it claims to: both signs of b_ij, every
        # lemma variant, and nonzero exploratory remainders
        assert signs == {-1, 0, 1}
        assert len(certs) == 460
        assert sum(c.exploratory and not c.ok for c in certs) == 92
        assert all(c.ok for c in certs if not c.exploratory)
        assert {dict(c.params)["variant"] for c in certs if c.check == "lemma-sum"} == {"L32", "L41"}
        assert {c.check for c in certs} == {"serre", "serre-opposite", "higher", "lemma-sum"}
        assert hashlib.sha256(lines.encode()).hexdigest() == CERTIFICATE_DIGEST


def _record(cert):
    return (cert.check, cert.params, cert.ok, cert.residue, cert.terms)


def _free_term(seed, k):
    """g(y_k) = -e_k + [-b_k]_+, from the exchange matrix."""
    column = seed.exchange.column(k)
    return tuple(max(-b, 0) - (t == k - 1) for t, b in enumerate(column))


def _twist(seed, i, j):
    """s_ij = 2*lambda(g(y_i), g(y_j)), g the exponent `_free_term` reads."""
    return 2 * seed.form.pairing(_free_term(seed, i), _free_term(seed, j))


def _move_twists(monkeypatch, moved):
    """Make every plan's builder pass its shift moved by `moved`."""
    plan = relations._plan
    monkeypatch.setattr(
        relations, "_plan", lambda outer, middle, d, steps, first, shift: plan(outer, middle, d, steps, first, shift + moved)
    )


class TestReversedSide:
    def test_barred_serre_matches_direct_expansion(self, monkeypatch):
        # serre_verify_opposite bars serre(j, i)'s expansion, twisted by
        # s_ji; the oracle expands sum_r c_r q^((L-r)t/2) y_j^(L-r) y_i y_j^r
        # with the reversed Gauss coefficients c_r and t = -s_ji = s_ij
        # directly.  full_suite relabels a passing serre(j, i) and calls
        # serre_verify_opposite on a failing one.  Every relation holds at
        # its twist, so a second pass moves the twists by 2 to make
        # serre(j, i) fail; no digest holds a failing reversed side, so
        # that pass is the fallback's only check.
        for moved in (0, 2):
            with monkeypatch.context() as patch:
                _move_twists(patch, moved)
                rng = random.Random(31)
                verdicts = set()
                for make in (random_principal_seed, compatible_principal_seed):
                    for _ in range(3):
                        seed = make(rng, rng.choice([2, 3]))
                        verdicts |= self._check_reversed_sides(seed, moved)
                assert verdicts == {not moved}

    @staticmethod
    def _check_reversed_sides(seed, moved):
        ys = one_step_variables(seed)
        suite = {c.params: c for c in full_suite(seed) if c.check == "serre-opposite"}
        verdicts = set()
        for i in range(1, seed.n + 1):
            for j in range(1, seed.n + 1):
                if i == j or seed.b_entry(i, j) > 0:
                    continue
                top, twist = 1 + seed.b_entry(j, i), _twist(seed, i, j) - moved
                coeffs = _alternating_coeffs(top, seed.d[j - 1], 0)[::-1]
                coeffs = [c * QLaurent.q_power((top - r) * twist) for r, c in enumerate(coeffs)]
                total, terms = _sandwich(ys[j - 1], ys[i - 1], coeffs)
                params = (("i", i), ("j", j)) + ((("twist", twist),) if twist else ())
                expected = ("serre-opposite", params, total.is_zero(), str(total), terms)
                cert = serre_verify_opposite(seed, i, j)
                assert _record(cert) == expected
                assert _record(suite.pop(cert.params)) == expected
                verdicts.add(cert.ok)
        assert not suite
        return verdicts


def _lemma_instances(seed, i, j, past=(0, 1)):
    """L32, and L41 at every t, each `past` the minimal m."""
    size = abs(seed.b_entry(i, j))
    yield lemma_sum_check(seed, i, j, "L32")
    for t in range(size):
        for extra in past:
            yield lemma_sum_check(seed, i, j, "L41", m_exp=(t + 1) * size + extra, t_shift=t)


class TestTwist:
    # Principal seeds whose Lambda has a nonzero mutable block: every
    # alternating sum carries the twist its plan reads from Lambda.

    def test_every_relation_holds_at_its_twist(self):
        rng = random.Random(11)
        for _ in range(8):
            seed = compatible_principal_seed(rng, rng.choice([2, 3, 4]))
            certs = full_suite(seed)
            for i in range(1, seed.n + 1):
                e_i = tuple(int(t == i - 1) for t in range(seed.m))
                lean = seed.form.pairing(_free_term(seed, i), e_i)
                for j in range(1, seed.n + 1):
                    if i != j and seed.b_entry(i, j):
                        for cert in _lemma_instances(seed, i, j):
                            certs.append(cert)
                            step = abs(seed.b_entry(i, j)) * (1 + dict(cert.params).get("t", 0))
                            assert dict(cert.params).get("twist", 0) == 2 * (step - 1) * lean
            for cert in certs:
                assert cert.ok, cert.render()
                assert cert.params[-1][0] != "twist" or cert.params[-1][1]

    def test_relabelled_certificates_are_the_direct_ones(self):
        # full_suite relabels serre(i, j) as higher(i, j, 1, |b_ij|) and
        # serre(j, i) as serre-opposite(i, j); each must be what the direct
        # call reports, its twist l*s_ij for higher and s_ij for both sides
        rng = random.Random(13)
        for _ in range(4):
            seed = compatible_principal_seed(rng, rng.choice([2, 3]))
            for cert in full_suite(seed):
                named = dict(cert.params)
                i, j = named["i"], named["j"]
                if cert.check == "higher":
                    direct = higher_verify(seed, i, j, named["l"], named["m"])
                else:
                    direct = {"serre": serre_verify, "serre-opposite": serre_verify_opposite}[cert.check](seed, i, j)
                assert _record(cert) == _record(direct)
                assert named.get("twist", 0) == named.get("l", 1) * _twist(seed, i, j)

    @pytest.mark.parametrize("moved", [-2, 2])
    def test_a_moved_twist_fails_every_check(self, monkeypatch, moved):
        # at the minimal outer exponent, which full_suite uses throughout;
        # past it the extra steps can absorb a moved twist
        _move_twists(monkeypatch, moved)
        rng = random.Random(17)
        for make in (random_principal_seed, compatible_principal_seed):
            for _ in range(3):
                seed = make(rng, rng.choice([2, 3]))
                certs = full_suite(seed)
                for i in range(1, seed.n + 1):
                    for j in range(1, seed.n + 1):
                        if i != j and seed.b_entry(i, j):
                            certs.extend(_lemma_instances(seed, i, j, past=(0,)))
                for cert in certs:
                    assert not cert.ok, cert.render()


# sha256 of repr((check, params, ok, residue, terms)), one line per
# certificate, over `_word_certificates()`: it pins the commutator and
# power-product closed forms, based monomials built from exponent vectors
# and pairings, on seeds with and without a nonzero mutable Lambda block.
# Every certificate passes; a commutator on the second kind reports its
# nonzero twist.
WORD_DIGEST = "236ffbbd862bef5bf3fd16e898be370eaae5232a047efc5a84ac5951539cbfed"


def _word_certificates():
    """Every ordered-pair commutator check and every power-product check at
    t = 1..3 on both sides, on 10 random principal seeds and 10 principal
    seeds with a nonzero mutable Lambda block, of ranks 2-3."""
    rng = random.Random(41)
    certs = []
    for make in (lambda n: random_principal_seed(rng, n), lambda n: compatible_principal_seed(rng, n)):
        for _ in range(10):
            seed = make(rng.choice([2, 3]))
            assert seed.is_principal
            for i in range(1, seed.n + 1):
                for j in range(1, seed.n + 1):
                    if i != j:
                        certs.append(commutator_check(seed, i, j))
                for t in range(1, 4):
                    certs.extend(power_product_check(seed, i, t, side) for side in ("left", "right"))
    return certs


class TestWordDigest:
    def test_pinned_digest(self):
        certs = _word_certificates()
        lines = "\n".join(repr((c.check, c.params, c.ok, c.residue, c.terms)) for c in certs)
        assert len(certs) == 370
        assert all(c.ok for c in certs)
        assert hashlib.sha256(lines.encode()).hexdigest() == WORD_DIGEST

    def test_compatible_seeds_have_a_mutable_block(self):
        rng = random.Random(41)
        for _ in range(10):
            seed = compatible_principal_seed(rng, rng.choice([2, 3]))
            assert seed.is_principal
            assert any(seed.form.entry(r, c) for r in range(1, seed.n + 1) for c in range(1, seed.n + 1))


class TestRandomSweepSmall:
    def test_relations_hold_on_random_seeds(self):
        rng = random.Random(777)
        for _ in range(8):
            seed = random_principal_seed(rng, rng.choice([2, 3]))
            for cert in full_suite(seed):
                assert cert.ok, cert.render()

    def test_higher_orders_above_minimal_exponent(self):
        # admissibility is m_exp >= l*|b_ij|, not equality: probe two past it
        rng = random.Random(1234)
        for _ in range(4):
            seed = random_principal_seed(rng, 2)
            for i in range(1, 3):
                for j in range(1, 3):
                    if i == j or seed.b_entry(i, j) == 0:
                        continue
                    size = abs(seed.b_entry(i, j))
                    for l in range(1, size + 1):
                        for m_exp in range(l * size, l * size + 3):
                            cert = higher_verify(seed, i, j, l, m_exp)
                            assert cert.ok, cert.render()
