import contextlib
import io
import itertools
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster import cli, seeds
from qcluster.qarith import QLaurent
from qcluster.qtorus import SkewForm, TorusElem
from qcluster.seeds import (
    ExchangeMatrix,
    QuantumSeed,
    SeedFormatError,
    dump_seed,
    is_skew_symmetrizer,
    load_seed,
    loads_seed,
    mutate,
    mutated_variable,
    principal_seed,
    random_principal_seed,
    seed_from_dict,
    seed_to_dict,
    validate_compatibility,
)
from seed_kinds import compatible_principal_seed
from torus_words import ordered_product

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

    @pytest.mark.parametrize(
        "b, d",
        [
            ([[0, 1.9], [-1.9, 0]], (1, 1)),
            (EX1_B, (2.7, True)),
            (EX1_B, (2, True)),
            ([[0, True], [-2, 0]], EX1_D),
            ([[0, "1"], [-2, 0]], EX1_D),
            (EX1_B, (2.0, 1)),
            ([[0, 1.0], [-1.0, 0]], (1, 1)),
        ],
    )
    def test_rejects_non_int_entries(self, b, d):
        with pytest.raises(SeedFormatError, match="must hold integers"):
            principal_seed(b, d)

    def test_mutable_generators_commute(self):
        # The mutable block of [[0, -D], [D, -DB]] is zero, so a word over
        # x_1 .. x_n is X^a in every order of its letters.
        rng = random.Random(11)
        for n in (2, 3, 4):
            for _ in range(3):
                seed = random_principal_seed(rng, n)
                for _ in range(3):
                    letters = [(k, rng.randint(-2, 2)) for k in range(1, n + 1)]
                    expected = TorusElem.monomial(seed.form, [p for _, p in letters] + [0] * n)
                    for word in itertools.permutations(letters):
                        assert ordered_product(seed.form, word) == expected

    @pytest.mark.parametrize("bounds, message", [
        ({"max_d": 0}, "got max_d=0, max_entry=3$"),
        ({"max_entry": -1}, "got max_d=3, max_entry=-1$"),
    ])
    def test_random_seed_bounds_named(self, bounds, message):
        # max_d = 0 once ended in randrange's ValueError and max_entry = -1
        # in an IndexError from an empty choice
        with pytest.raises(ValueError, match="^random seeds need max_d >= 1 and max_entry >= 0, " + message):
            random_principal_seed(random.Random(0), 2, **bounds)

    def test_random_seed_smallest_bounds(self):
        seed = random_principal_seed(random.Random(0), 3, max_entry=0, max_d=1)
        assert seed.d == (1, 1, 1) and seed.exchange.principal_part() == ((0, 0, 0),) * 3


class TestCompatibility:
    def test_examples_pass(self, ex1, ex3):
        validate_compatibility(ex1)
        validate_compatibility(ex3)

    def test_flipped_entry_fails_at_1_1(self, ex1):
        rows = [list(row) for row in ex1.form.rows()]
        rows[0][2] = 2
        rows[2][0] = -2
        with pytest.raises(SeedFormatError, match=r"\(i, j\) = \(1, 1\)"):
            QuantumSeed(
                form=SkewForm(rows),
                exchange=ex1.exchange,
                d=ex1.d,
            )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_exchange_column_refused(self, k):
        # pairing(b_k, e_k) = d_k >= 1 forces b_k != 0, which is why
        # mutated_variable always has two distinct terms
        zero = principal_seed([[0] * 3] * 3, (1, 2, 3))
        btilde = [list(row) for row in zero.exchange.btilde]
        btilde[3 + k - 1][k - 1] = 0
        with pytest.raises(SeedFormatError, match=rf"\(i, j\) = \({k}, {k}\)"):
            QuantumSeed(zero.form, ExchangeMatrix(btilde, n=3, m=6), zero.d)

    @pytest.mark.parametrize("d", [(2, True), (2.0, 1), (True, 1)])
    def test_rejects_non_int_d(self, ex1, d):
        with pytest.raises(SeedFormatError, match="field 'd' must hold integers"):
            QuantumSeed(ex1.form, ex1.exchange, d=d)

    def test_list_fields_are_frozen(self, ex1):
        # A list d (or labels) was once kept as is: the seed compared unequal
        # to ex1 and raised TypeError on hash.
        seed = QuantumSeed(ex1.form, ex1.exchange, d=list(ex1.d), labels=list(ex1.labels))
        assert seed.d == ex1.d and seed.labels == ex1.labels
        assert seed == ex1 and hash(seed) == hash(ex1)

    @pytest.mark.parametrize("labels", [(1, 2, 3, 4), ("x1", "x2", "x3", None)])
    def test_rejects_non_string_labels(self, ex1, labels):
        # int labels once built a seed that mutate could not relabel and
        # that dump_seed wrote to a file load_seed refused
        with pytest.raises(SeedFormatError, match="labels must be strings"):
            QuantumSeed(ex1.form, ex1.exchange, ex1.d, labels=labels)

    def test_symmetrizer_helpers(self):
        assert is_skew_symmetrizer((2, 1), EX1_B)
        assert not is_skew_symmetrizer((1, 1), EX1_B)
        # bool is an int subclass, but no seed field takes one
        assert is_skew_symmetrizer((1,), [[0]])
        assert not is_skew_symmetrizer((True,), [[0]])


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
        # random walks of up to 5 steps from seeds of both kinds: every
        # seed a walk reaches is compatible, and every mutation undoes itself
        rng, walk = random.Random(20240817), random.Random(35)
        for make in (random_principal_seed, compatible_principal_seed):
            for _ in range(25):
                seed = make(rng, rng.choice([2, 3, 4]))
                for _ in range(walk.randint(1, 5)):
                    for k in range(1, seed.n + 1):
                        mutated = mutate(seed, k)
                        validate_compatibility(mutated)
                        assert mutated.d == seed.d
                        back = mutate(mutated, k)
                        assert back.form.rows() == seed.form.rows()
                        assert back.exchange.btilde == seed.exchange.btilde
                    seed = mutate(seed, walk.randint(1, seed.n))

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
        x1 = ordered_product(ex1.form, [(1, 1)])
        x2 = ordered_product(ex1.form, [(2, 1)])
        y1 = mutated_variable(ex1, 1)
        lhs = x1 * y1
        expected = ordered_product(ex1.form, [(3, 1)]).scale(QLaurent({-2: 1})) + x2 * x2
        assert lhs == expected

        y2 = mutated_variable(ex1, 2)
        expected = ordered_product(ex1.form, [(1, 1), (4, 1)]).scale(QLaurent({-1: 1})) + TorusElem.unit(ex1.form)
        assert x2 * y2 == expected

    def test_exchange_relation_rank3(self, ex3):
        x3 = ordered_product(ex3.form, [(3, 1)])
        y3 = mutated_variable(ex3, 3)
        expected = ordered_product(ex3.form, [(2, 2), (6, 1)]).scale(QLaurent({-1: 1})) + ordered_product(ex3.form, [(1, 2)])
        assert x3 * y3 == expected

    def test_terms_quasi_commute_by_symmetrizer_power(self):
        # a one-step variable has two distinct terms, each with coefficient
        # 1, whose monomials pair to +/- d_k, on seeds of both kinds and
        # their one-step mutations: compatibility keeps column b_k nonzero
        rng = random.Random(5)
        for make in (random_principal_seed, compatible_principal_seed):
            for _ in range(20):
                seed = make(rng, rng.choice([2, 3]))
                for current in [seed] + [mutate(seed, k) for k in range(1, seed.n + 1)]:
                    for k in range(1, current.n + 1):
                        items = mutated_variable(current, k).items()
                        assert len(items) == 2
                        assert all(coeff == QLaurent.one() for _, coeff in items)
                        pairing = current.form.pairing(items[0][0], items[1][0])
                        assert abs(pairing) == current.d[k - 1]


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

    @pytest.mark.parametrize("text", ["[" * 100000, '{"n": ' * 100000], ids=["array", "object"])
    def test_too_deeply_nested(self, text):
        with pytest.raises(SeedFormatError, match="seed file nests too deeply to be a seed object"):
            loads_seed(text)


# Values no seed field holds: JSON null, booleans, floats, numeric and other
# strings, nested lists and objects, a huge int and negative ints.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.integers(-5, 5).map(str),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
    st.sampled_from([10**30, -(10**30), -1, -7]),
)


@st.composite
def malformed_payloads(draw):
    """seed_to_dict of a random principal seed (either kind, rank 2-4) with a
    field dropped, or a field, row or entry replaced, or a row cut or grown."""
    make = random_principal_seed if draw(st.booleans()) else compatible_principal_seed
    payload = seed_to_dict(make(random.Random(draw(st.integers(0, 10**6))), draw(st.integers(2, 4))))
    field = draw(st.sampled_from(sorted(payload)))
    value = payload[field]
    how = draw(st.sampled_from(["drop", "field", "row", "entry", "short", "long"]))
    if how == "drop":
        del payload[field]
    elif how == "field" or not isinstance(value, list) or not value:
        payload[field] = draw(JUNK)
    else:
        r = draw(st.integers(0, len(value) - 1))
        row = value[r]
        if how == "row" or not isinstance(row, list):
            value[r] = draw(JUNK)
        elif how == "entry":
            row[draw(st.integers(0, len(row) - 1))] = draw(JUNK)
        elif how == "short":
            value[r] = row[:-1]
        else:
            value[r] = row + [draw(st.integers(-2, 2))]
    return payload


@st.composite
def malformed_files(draw):
    """Bytes that no seed loads from: a seed's ASCII text with one byte
    >= 0x80 put in (never UTF-8), nesting deeper than the JSON decoder
    follows, or an integer with more digits than the decoder converts."""
    make = random_principal_seed if draw(st.booleans()) else compatible_principal_seed
    text = json.dumps(seed_to_dict(make(random.Random(draw(st.integers(0, 10**6))), draw(st.integers(2, 4))))).encode()
    how = draw(st.sampled_from(["byte", "nesting", "digits"]))
    if how == "byte":
        at = draw(st.integers(0, len(text)))
        return text[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + text[at:]
    if how == "nesting":
        return draw(st.sampled_from([b"[", b'{"n": ', b'{"lambda": ['])) * draw(st.integers(10**4, 10**5))
    return b'{"n": ' + b"7" * draw(st.integers(5000, 20000)) + b', "m": 4}'


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(list(argv))
    return status, out.getvalue(), err.getvalue()


def assert_refused(path):
    # exit 2, one error line and nothing on stdout: never 1 (a relation
    # failed), 70 (a fault of the program) or a traceback
    for command in ("validate", "suite"):
        status, out, err = run_cli(command, "--seed", str(path))
        assert status == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestMalformedSeeds:
    @given(malformed_payloads())
    @settings(max_examples=600, deadline=None)
    def test_only_seed_format_error(self, tmp_path_factory, payload):
        # the loader names every fault as SeedFormatError, and the CLI
        # turns it into exit 2 with one error line, for validate and suite
        try:
            seed_from_dict(payload)
            refused = False
        except SeedFormatError:
            refused = True
        path = tmp_path_factory.mktemp("seed") / "seed.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        if refused:
            assert_refused(path)
        else:
            status, _, err = run_cli("validate", "--seed", str(path))
            assert status == 0 and err == ""

    @given(malformed_files())
    @settings(max_examples=150, deadline=None)
    def test_malformed_file_refused(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("seed") / "seed.json"
        path.write_bytes(data)
        with pytest.raises(SeedFormatError):
            seeds.load_seed(path)
        assert_refused(path)


def _count_symmetrizer_checks(monkeypatch):
    """The calls of seeds.is_skew_symmetrizer from here on."""
    original = seeds.is_skew_symmetrizer
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    # Rebind every module-level reference, so that a module holding its
    # own import of the check is counted too.
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qcluster" and vars(module).get("is_skew_symmetrizer") is original:
            monkeypatch.setattr(module, "is_skew_symmetrizer", counting)
    return calls


class TestSkewSymmetrizerCheckedOnce:
    # principal_seed once decided skew-symmetrizability itself before
    # QuantumSeed decided it again
    @pytest.mark.parametrize(
        "build",
        [
            lambda seed: principal_seed(EX3_B, EX3_D),
            lambda seed: load_seed("fixtures/exam3.json"),
            lambda seed: mutate(seed, 1),
        ],
        ids=["principal_seed", "load_seed", "mutate"],
    )
    def test_one_check_per_built_seed(self, monkeypatch, ex1, build):
        calls = _count_symmetrizer_checks(monkeypatch)
        build(ex1)
        assert len(calls) == 1


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

    @pytest.mark.parametrize("entry", [1.0, True, "1"])
    def test_rejects_non_int_entries(self, entry):
        # 1.0 and True once built a valid seed with exam1's form
        with pytest.raises(SeedFormatError, match="field 'btilde' must hold integers"):
            ExchangeMatrix(((0, entry), (-2, 0), (1, 0), (0, 1)), n=2, m=4)

    @pytest.mark.parametrize("field, value", [("n", 2.0), ("n", True), ("n", "2"), ("m", 4.0), ("m", True)])
    def test_rejects_non_int_shape(self, ex1, field, value):
        # n = 2.0 (or m = 4.0) was once accepted, and a seed built on the
        # matrix then failed with a bare TypeError
        shape = {"n": 2, "m": 4, field: value}
        with pytest.raises(SeedFormatError, match=f"field '{field}' must hold integers"):
            ExchangeMatrix(ex1.exchange.btilde, **shape)

    def test_list_rows_are_frozen(self, ex1):
        # List rows were once kept as is, which left the matrix unhashable.
        exchange = ExchangeMatrix([list(row) for row in EX1_BTILDE], n=2, m=4)
        assert exchange.btilde == EX1_BTILDE
        assert exchange == ex1.exchange and hash(exchange) == hash(ex1.exchange)


class TestImmutableSeeds:
    # Plain classes, not named tuples: a tuple's _make or _replace would
    # build a seed that skipped the checks its constructor runs.
    @pytest.mark.parametrize("record, fields", [
        ("seed", ("form", "exchange", "d", "labels", "extra")),
        ("exchange", ("btilde", "n", "m", "extra")),
    ])
    def test_fields_cannot_be_assigned_or_deleted(self, ex1, record, fields):
        target = ex1 if record == "seed" else ex1.exchange
        before = repr(target)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(target, name, None)
            with pytest.raises(AttributeError):
                delattr(target, name)
        assert repr(target) == before

    def test_derived_values_leave_equality_and_hash(self, ex1):
        cached = principal_seed(EX1_B, EX1_D)
        assert cached.one_step_exponents and cached.one_step
        assert cached == ex1 and hash(cached) == hash(ex1)
        assert cached != ex1.exchange and ex1.exchange != EX1_BTILDE

    def test_no_tuple_constructors(self):
        for cls in (ExchangeMatrix, QuantumSeed):
            assert not hasattr(cls, "_replace") and not hasattr(cls, "_make")

    def test_repr_names_fields(self, ex1):
        assert repr(ex1.exchange) == f"ExchangeMatrix(btilde={EX1_BTILDE!r}, n=2, m=4)"
        assert repr(ex1) == (
            f"QuantumSeed(form={ex1.form!r}, exchange={ex1.exchange!r}, d=(2, 1), labels=('x1', 'x2', 'x3', 'x4'))"
        )
