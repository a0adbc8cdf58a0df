import json
import random

import pytest

from qcluster.qarith import QLaurent
from qcluster.qtorus import SkewForm, TorusElem, ordered_product
from qcluster.seeds import (
    ExchangeMatrix,
    QuantumSeed,
    SeedFormatError,
    dump_seed,
    find_symmetrizer,
    is_skew_symmetrizer,
    load_seed,
    loads_seed,
    mutate,
    mutated_variable,
    principal_seed,
    quiver_edges,
    random_principal_seed,
    seed_from_dict,
    seed_to_dict,
    validate_compatibility,
)

EX1_B = [[0, 1], [-2, 0]]
EX1_D = (2, 1)
EX1_LAMBDA = ((0, 0, -2, 0), (0, 0, 0, -1), (2, 0, 0, -2), (0, 1, 2, 0))
EX1_BTILDE = ((0, 1), (-2, 0), (1, 0), (0, 1))

EX3_B = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]
EX3_D = (1, 1, 1)
EX3_LAMBDA = (
    (0, 0, 0, -1, 0, 0),
    (0, 0, 0, 0, -1, 0),
    (0, 0, 0, 0, 0, -1),
    (1, 0, 0, 0, -2, 2),
    (0, 1, 0, 2, 0, -2),
    (0, 0, 1, -2, 2, 0),
)
EX3_BTILDE = ((0, 2, -2), (-2, 0, 2), (2, -2, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.fixture
def ex1():
    return principal_seed(EX1_B, EX1_D)


@pytest.fixture
def ex3():
    return principal_seed(EX3_B, EX3_D)


class TestPrincipalSeed:
    def test_rank2_block_matrices(self, ex1):
        assert ex1.form.rows() == EX1_LAMBDA
        assert ex1.exchange.btilde == EX1_BTILDE
        assert ex1.n == 2 and ex1.m == 4
        assert ex1.is_principal

    def test_rank3_block_matrices(self, ex3):
        assert ex3.form.rows() == EX3_LAMBDA
        assert ex3.exchange.btilde == EX3_BTILDE

    def test_zero_exchange_matrix(self):
        seed = principal_seed([[0, 0], [0, 0]], (1, 1))
        assert seed.form.rows() == ((0, 0, -1, 0), (0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 0))
        assert seed.exchange.btilde == ((0, 0), (0, 0), (1, 0), (0, 1))

    def test_rejects_non_symmetrizable(self):
        with pytest.raises(SeedFormatError):
            principal_seed([[0, 1], [1, 0]], (1, 1))
        with pytest.raises(SeedFormatError):
            principal_seed([[0, 1], [-2, 0]], (1, 1))

    def test_default_labels_and_order(self, ex1):
        assert ex1.labels == ("x1", "x2", "x3", "x4")
        assert ex1.order == (1, 2)


class TestCompatibility:
    def test_examples_pass(self, ex1, ex3):
        assert validate_compatibility(ex1).ok
        assert validate_compatibility(ex3).ok

    def test_flipped_entry_fails_at_1_1(self, ex1):
        rows = [list(row) for row in ex1.form.rows()]
        rows[0][2] = 2
        rows[2][0] = -2
        corrupted = QuantumSeed(
            form=SkewForm(rows),
            exchange=ex1.exchange,
            d=ex1.d,
        )
        verdict = validate_compatibility(corrupted)
        assert not verdict.ok
        assert verdict.violation == (1, 1)

    def test_symmetrizer_helpers(self):
        assert is_skew_symmetrizer((2, 1), EX1_B)
        assert not is_skew_symmetrizer((1, 1), EX1_B)
        assert find_symmetrizer(EX1_B) == (2, 1)
        assert find_symmetrizer(EX3_B) == (1, 1, 1)
        with pytest.raises(SeedFormatError):
            find_symmetrizer([[0, 1], [1, 0]])


class TestMutation:
    def test_direction_1_golden(self, ex1):
        mutated = mutate(ex1, 1)
        assert mutated.form.rows() == (
            (0, 0, 2, -2),
            (0, 0, 0, -1),
            (-2, 0, 0, -2),
            (2, 1, 2, 0),
        )
        assert mutated.exchange.btilde == ((0, -1), (2, 0), (-1, 1), (0, 1))
        assert mutated.d == ex1.d

    def test_direction_2_golden(self, ex1):
        mutated = mutate(ex1, 2)
        assert mutated.form.rows() == (
            (0, 0, -2, 0),
            (0, 0, 0, 1),
            (2, 0, 0, -2),
            (0, -1, 2, 0),
        )
        assert mutated.exchange.btilde == ((0, -1), (2, 0), (1, 0), (0, -1))

    def test_involution_on_examples(self, ex1, ex3):
        for seed in (ex1, ex3):
            for k in range(1, seed.n + 1):
                back = mutate(mutate(seed, k), k)
                assert back.form.rows() == seed.form.rows()
                assert back.exchange.btilde == seed.exchange.btilde

    def test_involution_and_compatibility_random(self):
        rng = random.Random(20240817)
        for _ in range(25):
            seed = random_principal_seed(rng, rng.choice([2, 3, 4]))
            for k in range(1, seed.n + 1):
                mutated = mutate(seed, k)
                assert validate_compatibility(mutated).ok
                assert mutated.d == seed.d
                back = mutate(mutated, k)
                assert back.form.rows() == seed.form.rows()
                assert back.exchange.btilde == seed.exchange.btilde

    def test_proof_bookkeeping_entries(self):
        # after mutating at i: (Lambda_i)_{i, n+i} = d_i, and for j != i
        # (Lambda_i)_{i, n+j} = -d_i b_ij whenever b_ij >= 0 (the case the
        # relation proofs consume) and 0 when b_ij < 0
        rng = random.Random(99)
        for _ in range(20):
            seed = random_principal_seed(rng, rng.choice([2, 3]))
            n = seed.n
            for i in range(1, n + 1):
                mutated = mutate(seed, i)
                assert mutated.form.entry(i, n + i) == seed.d[i - 1]
                for j in range(1, n + 1):
                    if j == i:
                        continue
                    b_ij = seed.b_entry(i, j)
                    entry = mutated.form.entry(i, n + j)
                    if b_ij >= 0:
                        assert entry == -seed.d[i - 1] * b_ij
                    else:
                        assert entry == 0

    def test_out_of_range_direction(self, ex1):
        with pytest.raises(ValueError):
            mutate(ex1, 0)
        with pytest.raises(ValueError):
            mutate(ex1, 3)

    def test_label_marks_mutated_variable(self, ex1):
        assert mutate(ex1, 1).labels == ("x1'", "x2", "x3", "x4")


class TestMutatedVariable:
    def test_rank2_direction1(self, ex1):
        assert mutated_variable(ex1, 1) == TorusElem(
            ex1.form, {(-1, 0, 1, 0): 1, (-1, 2, 0, 0): 1}
        )

    def test_exchange_relation_rank2(self, ex1):
        x1 = ex1.generator(1)
        x2 = ex1.generator(2)
        y1 = mutated_variable(ex1, 1)
        lhs = x1 * y1
        expected = ex1.generator(3).scale(QLaurent({-2: 1})) + x2 * x2
        assert lhs == expected

        y2 = mutated_variable(ex1, 2)
        expected = ordered_product(ex1.form, (1, 0, 0, 1)).scale(QLaurent({-1: 1})) + TorusElem.unit(ex1.form)
        assert x2 * y2 == expected

    def test_exchange_relation_rank3(self, ex3):
        x3 = ex3.generator(3)
        y3 = mutated_variable(ex3, 3)
        expected = ordered_product(ex3.form, (0, 2, 0, 0, 0, 1)).scale(QLaurent({-1: 1})) + ordered_product(ex3.form, (2, 0, 0, 0, 0, 0))
        assert x3 * y3 == expected

    def test_terms_quasi_commute_by_symmetrizer_power(self):
        # the two monomials of a one-step variable pair to +/- d_k
        rng = random.Random(5)
        for _ in range(20):
            seed = random_principal_seed(rng, rng.choice([2, 3]))
            for k in range(1, seed.n + 1):
                terms = sorted(mutated_variable(seed, k).support())
                assert len(terms) == 2
                pairing = seed.form.pairing(terms[0], terms[1])
                assert abs(pairing) == seed.d[k - 1]


class TestQuiver:
    def test_rank2(self, ex1):
        assert quiver_edges(ex1) == [(1, 2)]

    def test_rank3_cycle(self, ex3):
        assert quiver_edges(ex3) == [(1, 2), (2, 3), (3, 1)] or quiver_edges(ex3) == sorted(
            [(1, 2), (2, 3), (3, 1)]
        )
        assert quiver_edges(ex3) == sorted([(1, 2), (2, 3), (3, 1)])

    def test_zero_matrix(self):
        seed = principal_seed([[0, 0], [0, 0]], (1, 1))
        assert quiver_edges(seed) == []


class TestSeedFiles:
    def test_round_trip(self, tmp_path, ex1):
        path = tmp_path / "seed.json"
        dump_seed(ex1, path)
        loaded = load_seed(path)
        assert loaded.form.rows() == ex1.form.rows()
        assert loaded.exchange.btilde == ex1.exchange.btilde
        assert loaded.d == ex1.d
        assert loaded.labels == ex1.labels

    def test_fixture_files_load(self):
        one = load_seed("fixtures/exam1.json")
        three = load_seed("fixtures/exam3.json")
        assert one.form.rows() == EX1_LAMBDA
        assert three.exchange.btilde == EX3_BTILDE

    def test_corrupted_fixture_names_violation(self):
        with pytest.raises(SeedFormatError) as excinfo:
            load_seed("fixtures/corrupted.json")
        assert "(i, j) = (1, 1)" in str(excinfo.value)

    @pytest.mark.parametrize(
        "mutator,needle",
        [
            (lambda p: p.pop("d"), "missing required field 'd'"),
            (lambda p: p.__setitem__("lambda", [[0, 1], [-1, 0]]), "lambda must be 4x4"),
            (lambda p: p["lambda"][0].__setitem__(0, 1), "diagonal"),
            (lambda p: p["lambda"][0].__setitem__(1, 7), "not skew-symmetric"),
            (lambda p: p.__setitem__("d", [2, 0]), "positive integers"),
            (lambda p: p.__setitem__("d", [1, 1]), "does not skew-symmetrize"),
            (lambda p: p.__setitem__("labels", ["a"]), "labels must be 4 strings"),
            (lambda p: p.__setitem__("btilde", [[0, 1], [-2, 0]]), "btilde must be 4x2"),
            (lambda p: p.__setitem__("d", [2.9, 1.2]), "field 'd' must hold integers"),
            (lambda p: p["lambda"][0].__setitem__(1, "-2"), "field 'lambda' must hold integers"),
            (lambda p: p["btilde"][0].__setitem__(1, 1.7), "field 'btilde' must hold integers"),
            (lambda p: p.__setitem__("n", True), "field 'n' must hold integers"),
            (lambda p: p.__setitem__("labels", "abcd"), "labels must be 4 strings in a JSON list"),
        ],
    )
    def test_first_violation_reported(self, ex1, mutator, needle):
        payload = seed_to_dict(ex1)
        mutator(payload)
        with pytest.raises(SeedFormatError) as excinfo:
            seed_from_dict(payload)
        assert needle in str(excinfo.value)

    def test_not_json(self):
        with pytest.raises(SeedFormatError):
            loads_seed("not json at all {")

    def test_non_object(self):
        with pytest.raises(SeedFormatError):
            loads_seed(json.dumps([1, 2, 3]))


class TestExchangeMatrix:
    def test_column_as_expvec(self, ex1):
        assert ex1.exchange.column(1) == (0, -2, 1, 0)
        assert ex1.exchange.column(2) == (1, 0, 0, 1)

    def test_parts(self, ex3):
        assert ex3.exchange.principal_part() == tuple(tuple(r) for r in EX3_B)
        assert ex3.exchange.coefficient_part() == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_shape_checks(self):
        with pytest.raises(SeedFormatError):
            ExchangeMatrix(((0, 1), (-1, 0)), n=2, m=3)
        with pytest.raises(SeedFormatError):
            ExchangeMatrix(((0, 1), (-1, 0)), n=3, m=2)
