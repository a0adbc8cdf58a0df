import random

import pytest

from qcluster.qarith import QLaurent, q_binom
from qcluster.qtorus import TorusElem, ordered_product
from qcluster.relations import (
    RelationInstance,
    commutator_check,
    commutator_witness,
    cartan_matrix,
    default_higher_instances,
    full_suite,
    higher_verify,
    lemma_sum_check,
    one_step_variables,
    power_product_check,
    quantum_group_suite,
    serre_verify,
    serre_verify_opposite,
    witness_monomial,
    witness_scalar,
)
from qcluster.seeds import mutate, principal_seed, random_principal_seed

COMMUTATOR_COEFF = QLaurent({3: 1, -1: -1})  # q^(3/2) - q^(-1/2)


@pytest.fixture
def ex1():
    return principal_seed([[0, 1], [-2, 0]], (2, 1))


@pytest.fixture
def ex3():
    return principal_seed([[0, 2, -2], [-2, 0, 2], [2, -2, 0]], (1, 1, 1))


def xword(seed, half, exponents):
    """q^(half/2) times the natural-order generator word x1^a1 ... xm^am."""
    return ordered_product(seed.form, exponents).scale(QLaurent.q_power(half))


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

    def test_scalar_pieces(self, ex1):
        assert witness_scalar(ex1, 2, 1) == COMMUTATOR_COEFF
        assert witness_monomial(ex1, 2, 1) == xword(ex1, 0, (0, 1, 0, 1))

    def test_zero_entry_commutes(self):
        seed = principal_seed([[0, 0], [0, 0]], (2, 3))
        y1, y2 = one_step_variables(seed)
        assert (y1 * y2 - y2 * y1).is_zero()
        assert commutator_check(seed, 1, 2).ok
        assert witness_scalar(seed, 1, 2) == 0

    def test_single_term_property_random(self):
        rng = random.Random(314)
        for _ in range(15):
            seed = random_principal_seed(rng, rng.choice([2, 3]))
            ys = one_step_variables(seed)
            for i in range(1, seed.n + 1):
                for j in range(1, seed.n + 1):
                    if i == j:
                        continue
                    commutator = ys[i - 1] * ys[j - 1] - ys[j - 1] * ys[i - 1]
                    assert commutator.term_count() <= 1
                    assert commutator == commutator_witness(seed, i, j)
                    assert commutator_check(seed, i, j).ok


class TestPowerProducts:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_triple_agreement_examples(self, ex1, ex3, side):
        for seed in (ex1, ex3):
            for i in range(1, seed.n + 1):
                for t in range(1, 5):
                    assert power_product_check(seed, i, t, side).ok

    def test_rank2_closed_form(self, ex1):
        # y2^t x2^t = sum_k [t,k] q^(k^2/2) x1^k x4^k
        y2 = one_step_variables(ex1)[1]
        x2 = ex1.generator(2)
        for t in range(1, 5):
            expected = TorusElem.zero(ex1.form)
            for k in range(t + 1):
                word = xword(ex1, k * k, (k, 0, 0, k))
                expected = expected + word.scale(q_binom(t, k))
            assert (y2 ** t) * (x2 ** t) == expected

    def test_rank3_closed_form(self, ex3):
        # y1^t x1^t = sum_k [t,k] q^(k^2/2) x2^(2(t-k)) x3^(2k) x4^k
        y1 = one_step_variables(ex3)[0]
        x1 = ex3.generator(1)
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

    def test_instance_defaults(self, ex1):
        instance = RelationInstance(ex1, 2, 1, l=2)
        assert instance.m_exp == 4
        assert instance.family == "b<0"


class TestCartan:
    def test_rank2(self):
        assert cartan_matrix([[0, 1], [-2, 0]], (2, 1)) == ((2, -1), (-2, 2))

    def test_rank3(self):
        assert cartan_matrix([[0, 2, -2], [-2, 0, 2], [2, -2, 0]]) == (
            (2, -2, -2),
            (-2, 2, -2),
            (-2, -2, 2),
        )

    def test_zero_matrix(self):
        assert cartan_matrix([[0, 0], [0, 0]], (1, 1)) == ((2, 0), (0, 2))

    def test_bad_symmetrizer(self):
        with pytest.raises(ValueError):
            cartan_matrix([[0, 1], [-2, 0]], (1, 1))

    def test_non_symmetrizable(self):
        with pytest.raises(ValueError):
            cartan_matrix([[0, 1], [1, 0]])


class TestSuites:
    def test_rank2_suite(self, ex1):
        certs = quantum_group_suite(ex1)
        assert len(certs) == 3  # two direct relations, one reversed side
        assert all(c.ok for c in certs)

    def test_rank3_suite(self, ex3):
        certs = quantum_group_suite(ex3)
        assert len(certs) == 9  # six direct, three reversed
        assert all(c.ok for c in certs)

    def test_zero_matrix_suite(self):
        seed = principal_seed([[0, 0], [0, 0]], (1, 1))
        certs = quantum_group_suite(seed)
        assert len(certs) == 4  # commutator both ways, reversed both ways
        assert all(c.ok for c in certs)

    def test_default_higher_instances(self, ex1):
        instances = default_higher_instances(ex1)
        assert [(it.i, it.j, it.l, it.m_exp) for it in instances] == [
            (1, 2, 1, 1),
            (2, 1, 1, 2),
            (2, 1, 2, 4),
        ]

    def test_full_suite(self, ex1):
        certs = full_suite(ex1)
        assert len(certs) == 6
        assert all(c.ok for c in certs)
        # the l = 1 instance at m = |b_ij| is the Serre sum of its pair
        serre = {c.params: c for c in certs if c.check == "serre"}
        order_one = [c for c in certs if c.check == "higher" and dict(c.params)["l"] == 1]
        assert len(order_one) == 2
        for cert in order_one:
            pair = serre[cert.params[:2]]
            assert (cert.ok, cert.residue, cert.terms) == (pair.ok, pair.residue, pair.terms)

    def test_certificate_rendering(self, ex1):
        cert = serre_verify(ex1, 2, 1)
        assert cert.render() == "serre(i=2, j=1): PASS [terms=32]"
        record = cert.summary_json()
        assert '"check": "serre"' in record and '"ok": true' in record
        timed = cert.render(timings=True)
        assert "s]" in timed


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
