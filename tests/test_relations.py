import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster import qarith, qtorus, relations, seeds
from qcluster.qarith import QLaurent, q_binom
from qcluster.lattice import _line_dies
from qcluster.qtorus import SkewForm, TorusElem, _commutator_lines, vec_add
from qcluster.relations import (
    VerificationCertificate,
    _expand,
    _has_live_line,
    _keys,
    _lemma_plan,
    _order_plan,
    _power_terms,
    _require_pair,
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
    dump_seed,
    load_seed,
    mutate,
    mutated_variable,
    principal_seed,
    random_principal_seed,
    with_mutable_block,
)
from seed_kinds import compatible_principal_seed
from torus_words import iterated_q_commutator, ordered_product

COMMUTATOR_COEFF = QLaurent({3: 1, -1: -1})  # q^(3/2) - q^(-1/2)

# Where a spy sees y_j^l's row built and the kernel run: relations builds
# the row, and imports the kernel from qtorus only for a plan with a live line.
ROW_AND_KERNEL = ((relations, "_power_terms"), (qtorus, "_commutator_lines"))


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


def _halves(d, steps, first, shift=0):
    """The twists 2d(first+k) + shift of a plan's steps, k = 0 .. steps-1."""
    return [2 * d * (first + k) + shift for k in range(steps)]


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
        # each builder's step count and first twist, with the twists
        # 2d(first+k) + shift in the order of k (the steps commute, so
        # `_plan`'s order gives the same sum), against the oracle fed the
        # q-binomial coefficients they replace: the order sum (serre and higher) for b_ij <= 0 and
        # b_ij > 0, the reversed side through the bar identity, and the
        # lemma partial sums for both signs.  The outers are X^f0 + X^f1, as
        # every one-step variable is; the middles are otherwise generic, so
        # most sums are nonzero, as exploratory remainders are: the
        # Gauss-binomial identity holds for every middle.
        outer, middle, _ = operands
        outer = TorusElem(outer.form, dict.fromkeys(outer.support(), 1))

        def kernel(steps, first):
            return iterated_q_commutator(outer, middle, _halves(d, steps, first))

        def oracle(coeffs):
            return _sandwich(outer, middle, coeffs)[0]

        for shift in (0, m_exp):
            assert kernel(m_exp + 1, -shift) == oracle(_alternating_coeffs(m_exp + 1, d, shift))
        # the reversed Gauss coefficients, A^r M A^(L-r): bar of the forward
        # steps on the barred operands at the negated twists
        halves = _halves(d, m_exp + 1, 0)
        mirrored = iterated_q_commutator(outer.bar(), middle.bar(), [-h for h in halves]).bar()
        assert mirrored == oracle(_alternating_coeffs(m_exp + 1, d, 0)[::-1])
        for step in range(1, 4):
            assert kernel(m_exp, step - m_exp) == oracle(_lemma_coeffs(m_exp, d, step, positive=True))
        assert kernel(m_exp, 0) == oracle(_lemma_coeffs(m_exp, d, 1, positive=False))
        # a shift on every step multiplies coefficient r by q^(r*shift/2)
        for shift in (-3, 2):
            halves = _halves(d, m_exp + 1, 0, shift)
            coeffs = _alternating_coeffs(m_exp + 1, d, 0)
            twisted = [c * QLaurent.q_power(r * shift) for r, c in enumerate(coeffs)]
            assert iterated_q_commutator(outer, middle, halves) == oracle(twisted)

    def test_negative_coefficient_refused(self, ex1):
        y1, y2 = one_step_variables(ex1)
        with pytest.raises(ArithmeticError, match=r"X\^f0 \+ X\^f1"):
            iterated_q_commutator(-y1, y2, _halves(1, 2, 0))

    @given(sandwich_operands(outer_terms=(1, 1)), sandwich_operands(outer_terms=(3, 3)))
    @settings(max_examples=20, deadline=None)
    def test_outer_without_two_terms_refused(self, one_term, three_terms):
        for outer, middle, _ in (one_term, three_terms):
            with pytest.raises(ArithmeticError, match=r"X\^f0 \+ X\^f1"):
                iterated_q_commutator(outer, middle, _halves(1, 2, 0))

    def test_heavy_instance(self, monkeypatch):
        # 101 steps of y_1 on y_2^10: the passing run decides every line on
        # its spans, so it builds no row of y_2^10 and runs no kernel
        calls = []
        for owner, name in ROW_AND_KERNEL:
            monkeypatch.setattr(owner, name, lambda *a, name=name: calls.append(name))
        seed = principal_seed([[0, 10], [-10, 0]], (1, 1))
        cert = higher_verify(seed, 1, 2, 10, 100)
        assert (cert.ok, cert.residue, cert.terms) == (True, "0", 114444)
        assert calls == []

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
    """Every plan of `seed` with its operands rebuilt from the seed: y_i,
    and y_j ** l or x_i^(step-1).  Admissible and exploratory higher (one
    order past |b_ij| among them), whose l = 1 plan at m = |b_ij| is serre
    and, barred, the reversed side, then L32 and L41."""
    plans = []
    ys = one_step_variables(seed)
    for i in range(1, seed.n + 1):
        for j in range(1, seed.n + 1):
            if i == j:
                continue
            size, pair = abs(seed.b_entry(i, j)), _require_pair(seed, i, j)
            orders = ((1, 0), (1, 1), (2, 2)) if size == 0 else [(l, l * size) for l in range(1, size + 1)]
            plans.extend((_order_plan(pair, l, m), ys[i - 1], ys[j - 1] ** l) for l, m in orders)
            if size == 0:
                continue
            for l in range(1, size + 1):
                plans.append((_order_plan(pair, l, l * size - 1, exploratory=True), ys[i - 1], ys[j - 1] ** l))
            plans.append((_order_plan(pair, size + 1, (size + 1) * size + 2, exploratory=True), ys[i - 1], ys[j - 1] ** (size + 1)))
            for t in (None, *range(size)):
                x_i = ordered_product(seed.form, [(i, size * (1 + (t or 0)) - 1)])
                plans.append((_lemma_plan(seed, i, j, "L41" if t is not None else "L32", None, t)[1], ys[i - 1], x_i))
    return plans


def _outer_exponents(plan):
    """f0 = g(y_i) and f1 = f0 + b_i, the exponents of the outer y_i, and
    e_s = l*g_j + s*b_j, that of middle term s, read from the plan's basis."""
    _, l, g_j, b_j, g_i, b_i = plan.basis
    middle = [tuple(l * a + s * u for a, u in zip(g_j, b_j)) for s in range(len(plan.middle))]
    return g_i, vec_add(g_i, b_i), middle


class TestPlanTerms:
    def test_terms_is_the_summed_term_count(self):
        # each plan's closed form |supp M| * (L+1)^2 against the summands
        # built and counted by the oracle from the operands rebuilt from the
        # seed, whose sum is also the kernel's element; on seeds with a
        # nonzero mutable Lambda block many sums are nonzero.  The oracle
        # refuses a negative coefficient, so this also checks the facts
        # `_plan`'s closed form rests on, at ranks 2, 3 and 4.
        rng = random.Random(29)
        count = 0
        for make in (random_principal_seed, compatible_principal_seed):
            for seed in [make(rng, rng.choice([2, 3])) for _ in range(3)] + [make(rng, 4)]:
                for plan, outer, middle in _every_plan(seed):
                    f0, f1, exponents = _outer_exponents(plan)
                    assert {f0, f1} == outer.support() and set(exponents) == middle.support()
                    total, terms = _sandwich(outer, middle, _gauss_coeffs(plan.halves))
                    assert plan.terms == terms
                    assert _expand(plan) == total
                    count += 1
        assert count > 100

    def test_middle_is_the_torus_power(self):
        # y_j^l's terms by Pascal's rule equal those of y_j ** l, and the
        # lemma middle x_i^(step-1) is the one term with coefficient 1;
        # each term's pairings with the outer's exponents, and c, are those
        # of SkewForm.pairing on the operands rebuilt from the seed; on both
        # seed kinds
        rng = random.Random(37)
        for make in (random_principal_seed, compatible_principal_seed):
            for seed in [make(rng, rng.choice([2, 3, 4])) for _ in range(4)]:
                for plan, outer, middle in _every_plan(seed):
                    # f1 = f0 + b_i has x_(n+i), f0 no coefficient variable
                    f0, f1 = sorted(outer.support(), key=lambda e: sum(e[seed.n:]))
                    coeffs = dict(middle.items())
                    assert len(plan.middle) == len(coeffs)
                    assert plan.c == seed.form.pairing(f0, f1)
                    for e, term in zip(_outer_exponents(plan)[2], plan.middle):
                        pairings = seed.form.pairing(e, f0), seed.form.pairing(e, f1)
                        assert term == (*pairings, coeffs[e])

    def test_passing_suite_multiplies_and_decodes_nothing(self, monkeypatch):
        # every plan of a passing suite is decided on its spans and
        # certified "0" with no row of y_j^l, no kernel run and no torus
        # element built
        calls = []
        monkeypatch.setattr(TorusElem, "__mul__", lambda *a: calls.append("mul"))
        monkeypatch.setattr(TorusElem, "_raw", classmethod(lambda *a: calls.append("raw")))
        for owner, name in ROW_AND_KERNEL:
            monkeypatch.setattr(owner, name, lambda *a, name=name: calls.append(name))
        rng = random.Random(41)
        for make in (random_principal_seed, compatible_principal_seed):
            for _ in range(6):
                certs = full_suite(make(rng, rng.choice([2, 3])))
                assert all(cert.ok for cert in certs)
        assert calls == []


class TestPowerTermsPascal:
    @pytest.mark.parametrize("fresh", [True, False])
    def test_pascal_row_is_q_binom_and_fills_no_row(self, monkeypatch, fresh):
        # Pascal's rule at Q = q^d gives each [t, s]_(q^d) that q_binom
        # reads from the table, whether the table is empty or holds the
        # rows q_binom fills; and building the row writes no table entry.
        # The snapshot brackets _power_terms alone, as q_binom fills rows.
        if fresh:
            monkeypatch.setattr(qarith, "_Q_BINOM_TABLE", {})
        for d in range(1, 5):
            for t in range(13):
                before = dict(qarith._Q_BINOM_TABLE)
                row = _power_terms(d, t)
                assert qarith._Q_BINOM_TABLE == before, (d, t)
                assert row == [q_binom(t, s, d) for s in range(t + 1)], (d, t)


def test_relation_checks_leave_the_table_alone(monkeypatch):
    # Every relation check builds y_j^l's q-binomials itself, so none adds
    # a row to the process-wide q-binomial table, however large d is.
    # power_product_check stays off the large-d seed, where t = 5 packs a
    # row of about 19 MB.
    monkeypatch.setattr(qarith, "_Q_BINOM_TABLE", {})
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    for seed in [load_seed(fixtures / name) for name in ("exam1.json", "exam3.json", "lambda11.json")]:
        full_suite(seed)
        pairs = [(i, j) for i in range(1, seed.n + 1) for j in range(1, seed.n + 1) if i != j]
        for i, j in pairs:
            size = abs(seed.b_entry(i, j))
            for l in range(1, size + 1):
                higher_verify(seed, i, j, l, l * size)
            higher_verify(seed, i, j, size + 1, (size + 1) * size, exploratory=True)
            commutator_check(seed, i, j)
            if size:
                lemma_sum_check(seed, i, j, "L32")
                lemma_sum_check(seed, i, j, "L41", m_exp=size + 1, t_shift=0)
        for i in range(1, seed.n + 1):
            for t in range(1, 6):
                for side in ("left", "right"):
                    power_product_check(seed, i, t, side)
    large = principal_seed([[0, 2], [-1, 0]], (10**5, 2 * 10**5))
    full_suite(large)
    higher_verify(large, 1, 2, 2, 4)
    assert qarith._Q_BINOM_TABLE == {}


def _product_form(seed, i, j, l, m_exp):
    """The order plan (i, j, l, m) in product form, built from y_j ** l:

        sum_s c_s * prod_(k=0..m) (1 - q^(d_i (k - kappa_s))) * X^((m+1) f) X^(e_s),

    c_s X^(e_s) the term of y_j^l with s = coordinate n+j of e_s, and
    f = f1, kappa_s = |b_ij| (l - s) when b_ij <= 0, f = f0 = g(y_i),
    kappa_s = m - b_ij s when b_ij > 0.  Each middle term picks up one
    binomial per step, and the step k = kappa_s zeroes it.  The factors are
    multiplied nearest that step first, so a vanishing term costs little.
    """
    b, d = seed.b_entry(i, j), seed.d[i - 1]
    f0 = _free_term(seed, i)
    f = f0 if b > 0 else tuple(a + c for a, c in zip(f0, seed.exchange.column(i)))
    total = TorusElem.zero(seed.form)
    for e, c in (one_step_variables(seed)[j - 1] ** l).items():
        s = e[seed.n + j - 1]
        kappa = m_exp - b * s if b > 0 else -b * (l - s)
        for k in sorted(range(m_exp + 1), key=lambda k: abs(k - kappa)):
            c = c * (QLaurent.one() - QLaurent.q_power(2 * d * (k - kappa)))
        outer = TorusElem.monomial(seed.form, [(m_exp + 1) * v for v in f])
        total = total + (outer * TorusElem.monomial(seed.form, e)).scale(c)
    return total


class TestProductForm:
    # An oracle for the kernel that shares nothing with it: no q-commutator
    # step, no packing, no line coordinates.

    @given(st.booleans(), st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=10**6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_kernel_matches_product_form(self, twisted, rank, rng_seed, data):
        # both seed kinds, exploratory instances included: l past |b_ij|
        # and m below l*|b_ij|, where the sums do not vanish
        make = compatible_principal_seed if twisted else random_principal_seed
        seed = make(random.Random(rng_seed), rank)
        i, j = data.draw(st.lists(st.integers(min_value=1, max_value=rank), min_size=2, max_size=2, unique=True))
        l, m_exp = data.draw(st.integers(min_value=1, max_value=4)), data.draw(st.integers(min_value=0, max_value=10))
        expected = _product_form(seed, i, j, l, m_exp)
        assert _expand(_order_plan(_require_pair(seed, i, j), l, m_exp, exploratory=True)) == expected
        cert = higher_verify(seed, i, j, l, m_exp, exploratory=True)
        assert (cert.ok, cert.residue) == (expected.is_zero(), str(expected))

    @pytest.mark.parametrize("i, j", [(1, 2), (2, 1)])
    def test_residue_one_step_below_the_bound(self, i, j):
        # b = l = 10 at m = 99 = l*|b_ij| - 1: 100 steps on the 11 terms of
        # y_j^10, too many for the torus-product oracle; one term survives
        seed = principal_seed([[0, 10], [-10, 0]], (1, 1))
        expected = _product_form(seed, i, j, 10, 99)
        cert = higher_verify(seed, i, j, 10, 99, exploratory=True)
        assert expected.term_count() == 1
        assert (cert.ok, cert.residue) == (False, str(expected))


class TestPairIntegers:
    # An order plan reads every pairing from d_i, d_j, b_ij, b_ji and
    # pi = lambda(g(y_j), g(y_i)) (`_order_plan`); these compare them with
    # SkewForm.pairing on the exponent vectors, and a pair with the same
    # integers in seeds of other ranks with its own plan.

    @given(st.booleans(), st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_pairings_from_the_integers(self, twisted, rank, rng_seed, l):
        # c, p0(s), p1(s) and the shift, on both seed kinds and every pair
        make = compatible_principal_seed if twisted else random_principal_seed
        seed = make(random.Random(rng_seed), rank)
        pairing = seed.form.pairing
        for i in range(1, rank + 1):
            for j in range(1, rank + 1):
                if i == j:
                    continue
                f0 = _free_term(seed, i)
                f1 = vec_add(f0, seed.exchange.column(i))
                g_j, b_j = _free_term(seed, j), seed.exchange.column(j)
                middle = [tuple(l * a + s * b for a, b in zip(g_j, b_j)) for s in range(l + 1)]
                plan = _order_plan(_require_pair(seed, i, j), l, l * abs(seed.b_entry(i, j)), exploratory=True)
                assert plan.c == pairing(f0, f1) == seed.d[i - 1]
                assert plan.twist == 2 * pairing(f0, middle[0])
                assert [term[:2] for term in plan.middle] == [(pairing(e, f0), pairing(e, f1)) for e in middle]

    @pytest.mark.parametrize("b, d, lam", [
        ([[0, 2], [-1, 0]], (1, 2), 3),
        ([[0, -3], [3, 0]], (1, 1), -1),
        ([[0, 1], [-2, 0]], (2, 1), 2),
        ([[0, 2], [-2, 0]], (1, 1), 0),
    ])
    def test_embedded_pair_gives_the_rank_two_result(self, b, d, lam):
        # one rank-2 pair placed at two random indices of seeds of ranks
        # 3-6, decoupled from a random seed on the other indices, with its
        # lambda entry kept and the rest of the mutable block random: the
        # same integers give the same verdicts, terms and twists, and the
        # nonzero residues one step below the bound agree up to the map of
        # coordinates 1, 2, 3, 4 to p, q, n+p, n+q
        rng = random.Random(43)
        small = with_mutable_block(principal_seed(b, d), [[0, lam], [-lam, 0]])
        for rank in range(3, 7):
            seed, (p, q), embed = self._embedded(small, rank, rng)
            for (i, j), (bi, bj) in (((1, 2), (p, q)), ((2, 1), (q, p))):
                assert _require_pair(small, i, j)[1:6] == _require_pair(seed, bi, bj)[1:6]
                size = abs(small.b_entry(i, j))
                for l in range(1, size + 1):
                    expected = higher_verify(small, i, j, l, l * size - 1, exploratory=True)
                    cert = higher_verify(seed, bi, bj, l, l * size - 1, exploratory=True)
                    residue = _expand(_order_plan(_require_pair(small, i, j), l, l * size - 1, exploratory=True))
                    mapped = TorusElem(seed.form, [(embed(e), c) for e, c in residue.items()])
                    assert not expected.ok and not mapped.is_zero()
                    assert (cert.ok, cert.terms, cert.params[4:]) == (expected.ok, expected.terms, expected.params[4:])
                    assert cert.residue == str(mapped)

    @staticmethod
    def _embedded(small, rank, rng):
        n = rank
        p, q = rng.sample(range(n), 2)
        others = [k for k in range(n) if k not in (p, q)]
        rest = random_principal_seed(rng, n - 2, max_entry=2, max_d=2)
        b, d = [[0] * n for _ in range(n)], [0] * n
        for block, where in ((small, (p, q)), (rest, others)):
            for a, x in enumerate(where):
                d[x] = block.d[a]
                for c, y in enumerate(where):
                    b[x][y] = block.b_entry(a + 1, c + 1)
        lam11 = [[0] * n for _ in range(n)]
        for r in range(n):
            for c in range(r + 1, n):
                lam11[r][c] = rng.randint(-2, 2)
                lam11[c][r] = -lam11[r][c]
        lam11[p][q], lam11[q][p] = small.form.entry(1, 2), small.form.entry(2, 1)
        seed = with_mutable_block(principal_seed(b, d), lam11)
        coords = (p, q, n + p, n + q)
        return seed, (p + 1, q + 1), lambda e: tuple(e[coords.index(r)] if r in coords else 0 for r in range(2 * n))


class TestStepOrder:
    @pytest.mark.parametrize("i, j", [(1, 2), (2, 1)])
    def test_mutable_block_instance_runs_in_index_order(self, i, j):
        # B = [[0, 8], [-8, 0]], D = (1, 1), Lambda11 = [[0, 5], [-5, 0]]:
        # every twist is moved by a nonzero shift, and steps taken by |h|
        # instead of by their index grow the lines (seconds and about 94
        # MiB per instance); by index each term keeps one live key
        seed = with_mutable_block(principal_seed([[0, 8], [-8, 0]], (1, 1)), [[0, 5], [-5, 0]])
        plan = _order_plan(_require_pair(seed, i, j), 8, 64)
        assert plan.twist
        cert = higher_verify(seed, i, j, 8, 64)
        assert (cert.ok, cert.residue, cert.terms) == (True, "0", 39204)


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

    def test_pair_validated_once_per_check(self, monkeypatch, ex1, ex3):
        # the witness once validated the pair again, rebuilding both
        # exponent columns
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        original = relations._require_pair
        monkeypatch.setattr(relations, "_require_pair", counting)
        pairs = [(seed, i, j) for seed in (ex1, ex3) for i in range(1, seed.n + 1) for j in range(1, seed.n + 1) if i != j]
        for seed, i, j in pairs:
            assert commutator_check(seed, i, j).ok
        assert len(calls) == len(pairs) == 8

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
                        assert cert.terms == commutator.term_count()
                        assert dict(cert.params).get("twist", 0) == twist
                        assert cert.params[-1][0] != "twist" or twist

    @pytest.mark.parametrize("moved", [-2, 2])
    def test_a_moved_twist_fails_every_pair(self, monkeypatch, moved):
        # at twist s_ij +/- 2 the X^(g(y_i) + g(y_j)) term no longer
        # cancels, so the commutator differs from the witness on every
        # ordered pair, and a check whose plan's twist is moved fails
        _move_twists(monkeypatch, moved)
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

    def test_one_decision_per_distinct_plan(self, monkeypatch):
        decided, passes = [], []

        def counting(plan):
            decided.append(plan)
            return live_line(plan)

        live_line = relations._has_live_line
        monkeypatch.setattr(relations, "_has_live_line", counting)
        monkeypatch.setattr(qtorus, "_commutator_lines", lambda *a: passes.append(a))
        seed = load_seed(Path(__file__).resolve().parent.parent / "fixtures" / "exam1.json")
        certs = full_suite(seed)
        # serre (1, 2), (2, 1) and higher (2, 1, 2, 4), each decided once on
        # its spans with no kernel pass; the two l = 1 higher instances reuse
        # their serre certificates, and serre-opposite (2, 1), bar of a
        # passing serre (1, 2), relabels that certificate
        assert (len(certs), len(decided), passes) == (6, 3, [])
        assert len({(plan.basis[1], plan.halves, plan.pairings) for plan in decided}) == 3

    def test_certificate_rendering(self, ex1):
        cert = serre_verify(ex1, 2, 1)
        assert cert.render() == "serre(i=2, j=1): PASS [terms=32]"
        record = cert.summary_json()
        assert '"check": "serre"' in record and '"ok": true' in record
        timed = cert.render(timings=True)
        assert "s]" in timed


# Reserved record keys; a certificate's params never reuse them, and the
# dict-built oracle could not hold a param under one of them beside it.
_RECORD_KEYS = {"check", "exploratory", "ok", "residue", "terms", "seconds"}
_JSON_TEXT = st.text(alphabet=st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\u00e9\u2028\U0001f600'), st.characters()))
_PARAM_VALUES = st.one_of(st.integers(), st.sampled_from([-10**30, 10**30]), st.booleans(), _JSON_TEXT)


def _dict_record_json(cert, timings):
    """summary_json as it was written, through a dict and json.dumps."""
    record = {"check": cert.check}
    record.update({name: value for name, value in cert.params})
    if cert.exploratory:
        record["exploratory"] = True
    record["ok"] = cert.ok
    record["residue"] = cert.residue
    record["terms"] = cert.terms
    if timings:
        record["seconds"] = round(cert.seconds, 6)
    return json.dumps(record)


class TestSummaryJson:
    @settings(max_examples=300, deadline=None)
    @given(
        check=_JSON_TEXT,
        params=st.lists(st.tuples(_JSON_TEXT.filter(lambda name: name not in _RECORD_KEYS), _PARAM_VALUES), max_size=6, unique_by=lambda p: p[0]),
        ok=st.booleans(),
        residue=_JSON_TEXT,
        terms=st.integers(min_value=0, max_value=10**30),
        seconds=st.floats(allow_nan=False, allow_infinity=False),
        exploratory=st.booleans(),
        timings=st.booleans(),
    )
    def test_bytes_are_json_dumps(self, check, params, ok, residue, terms, seconds, exploratory, timings):
        cert = VerificationCertificate(check, tuple(params), ok, residue, terms, seconds, exploratory)
        assert cert.summary_json(timings) == _dict_record_json(cert, timings)

    def test_suite_records_are_json_dumps(self):
        # every record of the suites on the fixtures, twisted ones included
        fixtures = Path(__file__).resolve().parent.parent / "fixtures"
        for name in ("exam1.json", "exam3.json", "lambda11.json"):
            for cert in full_suite(load_seed(fixtures / name)):
                for timings in (False, True):
                    assert cert.summary_json(timings) == _dict_record_json(cert, timings)


class TestCertificateRecord:
    def test_fields_cannot_be_assigned_or_deleted(self, ex1):
        cert = serre_verify(ex1, 1, 2)
        for name in ("check", "params", "ok", "residue", "terms", "seconds", "exploratory"):
            with pytest.raises(AttributeError):
                setattr(cert, name, None)
            with pytest.raises(AttributeError):
                delattr(cert, name)
        assert cert.ok and cert.residue == "0"

    def test_repr_names_fields(self):
        cert = VerificationCertificate("serre", (("i", 1), ("j", 2)), True, "0", 18, 0.5)
        assert repr(cert) == (
            "VerificationCertificate(check='serre', params=(('i', 1), ('j', 2)), ok=True, residue='0', terms=18, seconds=0.5, exploratory=False)"
        )


def _count_variables(monkeypatch):
    """The calls of seeds.mutated_variable from here on, in order."""
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
    return calls


class TestOneStepDerivedOnce:
    @pytest.mark.parametrize("name, variables", [("exam1.json", 2), ("exam3.json", 3)])
    def test_passing_full_suite_builds_no_variable(self, monkeypatch, name, variables):
        # the suite reads every plan from its pair's integers: no one-step
        # variable, no torus product, no row of y_j^l and no kernel run;
        # `one_step` still builds each variable once, on first use
        calls = _count_variables(monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(TorusElem, "__mul__", lambda *a: calls.append("mul"))
            for owner, spied in ROW_AND_KERNEL:
                patch.setattr(owner, spied, lambda *a, spied=spied: calls.append(spied))
            seed = load_seed(Path(__file__).resolve().parent.parent / "fixtures" / name)
            assert all(c.ok for c in full_suite(seed))
        assert calls == []
        assert seed.one_step == seed.one_step
        assert len(calls) == variables

    def test_commutator_check_builds_no_variable(self, monkeypatch):
        # every ordered pair's check is the order plan (1, 0), built from
        # the pair's integers, on fresh seeds of both kinds
        calls = _count_variables(monkeypatch)
        rng = random.Random(47)
        for make in (random_principal_seed, compatible_principal_seed):
            for _ in range(4):
                seed = make(rng, rng.choice([2, 3, 4]))
                for i in range(1, seed.n + 1):
                    for j in range(1, seed.n + 1):
                        if i != j:
                            assert commutator_check(seed, i, j).ok
        assert calls == []

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

    def moved_plan(*args):
        built = plan(*args)
        halves = built.halves
        return built._replace(halves=range(halves.start + moved, halves.stop + moved, halves.step), twist=built.twist + moved)

    monkeypatch.setattr(relations, "_plan", moved_plan)


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


def _span_walk_plans(seed):
    """`_every_plan`'s plans of `seed`, then per pair the exploratory order
    plans l = 1 .. |b_ij| + 1 at m from l*|b_ij| - 2 to l*|b_ij| + 2, and
    the L41 plans one and two past the minimal m, which die on spans like
    every admissible plan."""
    plans = [plan for plan, _, _ in _every_plan(seed)]
    for i in range(1, seed.n + 1):
        for j in range(1, seed.n + 1):
            if i == j:
                continue
            pair = _require_pair(seed, i, j)
            size = abs(pair[3])
            for l in range(1, size + 2):
                plans.extend(_order_plan(pair, l, m, exploratory=True) for m in range(max(l * size - 2, 0), l * size + 3))
            for t in range(size):
                plans.extend(_lemma_plan(seed, i, j, "L41", (t + 1) * size + extra, t)[1] for extra in (1, 2))
    return plans


class TestSpanWalk:
    # lattice._line_dies follows a line's one key on spans alone, and a
    # plan all of whose lines die there is certified "0" with no row built
    # and no kernel run (relations._keys).

    def test_a_line_that_dies_on_spans_is_empty(self, monkeypatch):
        # soundness: the kernel run on that line alone returns no
        # key, on both seed kinds at ranks 2-4, on passing, failing and
        # exploratory plans, and with every twist moved by +/-2,
        # where most lines live; and a plan's keys are the kernel's on its
        # whole middle, one per (s, t) in ascending order and none zero, as
        # `_expand` places one key per exponent
        counts = {}
        for moved in (0, -2, 2):
            with monkeypatch.context() as patch:
                _move_twists(patch, moved)
                rng = random.Random(47)
                dead = live = 0
                for make in (random_principal_seed, compatible_principal_seed):
                    for rank in (2, 3, 3, 4):
                        for plan in _span_walk_plans(make(rng, rank)):
                            c, halves = plan.c, plan.halves
                            for term in plan.middle:
                                if _line_dies(c, term[0], term[1], halves):
                                    assert _commutator_lines(c, [term], halves) == [], (moved, plan, term)
                                    dead += 1
                                else:
                                    live += 1
                            keys = _commutator_lines(c, plan.middle, halves)
                            assert _keys(plan) == keys
                            assert [key[:2] for key in keys] == sorted({key[:2] for key in keys}) and all(key[2] for key in keys), plan
                counts[moved] = dead, live
        assert counts[0][0] > 1000 and counts[0][1] > 100, counts
        assert counts[-2][1] > 1000 and counts[2][1] > 1000, counts

    def test_admissible_plans_are_decided_on_spans(self):
        # completeness: every admissible order plan, up to two past the
        # minimal m, L32, and L41 at every t up to three past its minimal
        # m, on both seed kinds
        rng = random.Random(53)
        count = 0
        for make in (random_principal_seed, compatible_principal_seed):
            for _ in range(6):
                seed = make(rng, rng.choice([2, 3, 4]))
                for i in range(1, seed.n + 1):
                    for j in range(1, seed.n + 1):
                        if i == j:
                            continue
                        pair = _require_pair(seed, i, j)
                        size = abs(pair[3])
                        orders = range(1, size + 1) if size else (1, 2)
                        plans = [_order_plan(pair, l, l * size + extra) for l in orders for extra in range(3)]
                        if size:
                            plans.append(_lemma_plan(seed, i, j, "L32", None, None)[1])
                            plans.extend(_lemma_plan(seed, i, j, "L41", (t + 1) * size + extra, t)[1] for t in range(size) for extra in range(4))
                        for plan in plans:
                            assert not _has_live_line(plan), plan
                        count += len(plans)
        assert count > 300

    def test_passing_suite_builds_no_packed_row(self, monkeypatch):
        # a passing plan builds no y_j^l row and runs no kernel, on the
        # three seed fixtures, at b = l = 20 and on L41 past its minimal m,
        # whose kernel runs took seconds
        def refuse(*args):
            raise AssertionError("a passing plan built a row or ran the kernel")

        for owner, name in ROW_AND_KERNEL:
            monkeypatch.setattr(owner, name, refuse)
        fixtures = Path(__file__).resolve().parent.parent / "fixtures"
        for name in ("exam1", "exam3", "lambda11"):
            certs = full_suite(load_seed(fixtures / f"{name}.json"))
            assert certs and all(cert.ok for cert in certs)
        started = time.perf_counter()
        cert = higher_verify(principal_seed([[0, 20], [-20, 0]], (1, 1)), 1, 2, 20, 400)
        assert (cert.ok, cert.residue, cert.terms) == (True, "0", 3393684)
        assert time.perf_counter() - started < 0.1
        for b, m_exp, t, terms in ((40, 160, 0, 25921), (20, 1000, 5, 1002001)):
            started = time.perf_counter()
            cert = lemma_sum_check(principal_seed([[0, b], [-b, 0]], (1, 1)), 1, 2, "L41", m_exp, t)
            assert (cert.ok, cert.residue, cert.terms) == (True, "0", terms)
            assert time.perf_counter() - started < 0.1

    def test_a_plan_does_not_grow_with_m(self):
        # the steps are a range, so building and deciding serre(1, 2)'s
        # plan at b_12 = 10^6 allocates no sequence of its 10^6 + 1 steps
        seed = principal_seed([[0, 10**6], [-1, 0]], (1, 10**6))
        pair = _require_pair(seed, 1, 2)
        tracemalloc.start()
        try:
            assert not _has_live_line(_order_plan(pair, 1, 10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert serre_verify(seed, 1, 2).render() == "serre(i=1, j=2): PASS [terms=2000008000008]"


class TestHugeEntriesUnderAMemoryLimit:
    # Each instance runs in a child whose address space is limited to 2 GiB;
    # a packed run of any of them needs more, and died of MemoryError.

    @staticmethod
    def _limited(argv):
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        started = time.perf_counter()
        result = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60, preexec_fn=limit)
        return result, time.perf_counter() - started

    def test_suite_on_a_seed_with_huge_d(self, tmp_path):
        path = tmp_path / "huge_d.json"
        dump_seed(principal_seed([[0, 1], [-1, 0]], (10**8, 10**8)), path)
        result, elapsed = self._limited(["-m", "qcluster", "suite", "--seed", str(path)])
        lines = result.stdout.splitlines()
        assert (result.returncode, result.stderr) == (0, "")
        assert lines[0] == "validate: PASS" and len(lines) == 6
        assert all(": PASS [terms=" in line for line in lines[1:])
        assert elapsed < 2

    def test_serre_with_huge_b(self):
        code = (
            "from qcluster.relations import serre_verify\n"
            "from qcluster.seeds import principal_seed\n"
            "print(serre_verify(principal_seed([[0, 10**4], [-1, 0]], (1, 10**4)), 1, 2).render())\n"
        )
        result, elapsed = self._limited(["-c", code])
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == "serre(i=1, j=2): PASS [terms=200080008]\n"
        assert elapsed < 2

    def test_lemma_far_past_its_minimal_m(self, tmp_path):
        path = tmp_path / "b20.json"
        dump_seed(principal_seed([[0, 20], [-20, 0]], (1, 1)), path)
        argv = ["-m", "qcluster", "verify-lemmas", "--seed", str(path), "--variant", "L41", "--m", "1000", "--t", "5", "--i", "1", "--j", "2"]
        result, elapsed = self._limited(argv)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == "lemma-sum(i=1, j=2, variant=L41, m=1000, t=5): PASS [terms=1002001]\n"
        assert elapsed < 2


class TestFailingInstanceWithHugeD:
    # The exploratory higher(1, 2, 1, 0) on principal_seed([[0, 1], [-1, 0]],
    # (d, d)) fails with a two-term residue whose half-exponents are +-d/2.
    # The kernel holds those two terms; a coefficient with a slot per
    # half-exponent took 646 MiB at d = 10^7 and ran out of memory at 10^8.

    @staticmethod
    def _child(d, limit=0):
        """The instance run in a child that first limits its own address
        space to `limit` bytes (none at 0): its exit status, stderr, the
        rendered certificate and the child's own peak RSS in KiB.  Linux
        keeps a process's peak RSS across exec, so a child started by this
        test process would report this process's peak; a small launcher
        starts the child instead."""
        code = (
            "import resource, sys\n"
            "d, limit = map(int, sys.argv[1:])\n"
            "if limit:\n"
            "    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            "from qcluster.relations import higher_verify\n"
            "from qcluster.seeds import principal_seed\n"
            "print(higher_verify(principal_seed([[0, 1], [-1, 0]], (d, d)), 1, 2, 1, 0, exploratory=True).render())\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // (1024 if sys.platform == 'darwin' else 1))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        launcher = "import subprocess, sys; sys.exit(subprocess.run([sys.executable, *sys.argv[1:]]).returncode)"
        result = subprocess.run([sys.executable, "-c", launcher, "-c", code, str(d), str(limit)], capture_output=True, text=True, env=env, timeout=60)
        *rendered, peak = result.stdout.splitlines() or [""]
        return result.returncode, result.stderr, "\n".join(rendered), peak

    @staticmethod
    def _render(d):
        return f"higher(i=1, j=2, l=1, m=0) [exploratory]: FAIL [terms=8]\n  remainder: (q^-{d // 2} - q^{d // 2}) * X^[0,0,0,1]"

    def test_d_ten_to_the_seven_peaks_under_50_mib(self):
        status, err, rendered, peak = self._child(10**7)
        assert (status, err, rendered) == (0, "", self._render(10**7))
        assert int(peak) < 50 << 10, peak

    def test_d_ten_to_the_eight_completes_under_2_gib(self):
        status, err, rendered, _ = self._child(10**8, 2 << 30)
        assert (status, err, rendered) == (0, "", self._render(10**8))


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
