"""Acceptance criteria, one test per criterion.

Each test prints a single `ACCEPTANCE n (<name>): PASS (t < budget)` line
and enforces its runtime budget.  All comparisons are exact integer /
polynomial equality; there are no tolerances to tune.
"""

import random
import time

from qcluster import identities as identities_module
from qcluster import qarith
from qcluster.identities import FAMILIES, check_identity, sweep_reports
from qcluster.qarith import QLaurent
from qcluster.qtorus import TorusElem
from qcluster.relations import (
    commutator_witness,
    higher_verify,
    one_step_variables,
    power_product_check,
    serre_verify,
    serre_verify_opposite,
)
from qcluster.seeds import (
    mutate,
    mutated_variable,
    principal_seed,
    random_principal_seed,
    validate_compatibility,
)
from torus_words import ordered_product

COMMUTATOR_COEFF = QLaurent({3: 1, -1: -1})  # q^(3/2) - q^(-1/2)


def _finish(number, name, budget, start):
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({name}): PASS ({elapsed:.2f}s < {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def _xword(seed, half, exponents):
    return ordered_product(seed.form, enumerate(exponents, 1)).scale(QLaurent.q_power(half))


def test_criterion_1_rank2_golden_suite():
    start = time.perf_counter()
    seed = principal_seed([[0, 1], [-2, 0]], (2, 1))

    assert seed.form.rows() == ((0, 0, -2, 0), (0, 0, 0, -1), (2, 0, 0, -2), (0, 1, 2, 0))
    assert seed.exchange.btilde == ((0, 1), (-2, 0), (1, 0), (0, 1))

    first = mutate(seed, 1)
    assert first.form.rows() == ((0, 0, 2, -2), (0, 0, 0, -1), (-2, 0, 0, -2), (2, 1, 2, 0))
    assert first.exchange.btilde == ((0, -1), (2, 0), (-1, 1), (0, 1))
    second = mutate(seed, 2)
    assert second.form.rows() == ((0, 0, -2, 0), (0, 0, 0, 1), (2, 0, 0, -2), (0, -1, 2, 0))
    assert second.exchange.btilde == ((0, -1), (2, 0), (1, 0), (0, -1))

    y1 = mutated_variable(seed, 1)
    y2 = mutated_variable(seed, 2)
    # x1 y1 = q^-1 x3 + x2^2 and x2 y2 = q^(-1/2) x1 x4 + 1
    assert ordered_product(seed.form, [(1, 1)]) * y1 == _xword(seed, -2, (0, 0, 1, 0)) + _xword(seed, 0, (0, 2, 0, 0))
    assert ordered_product(seed.form, [(2, 1)]) * y2 == _xword(seed, -1, (1, 0, 0, 1)) + TorusElem.unit(seed.form)

    _finish(1, "rank-2 golden suite", 1.0, start)


def test_criterion_2_rank2_relations():
    start = time.perf_counter()
    seed = principal_seed([[0, 1], [-2, 0]], (2, 1))
    y1, y2 = one_step_variables(seed)

    # the four-term expansion of y1 y2
    assert y1 * y2 == (
        _xword(seed, 1, (0, -1, 1, 1))
        + _xword(seed, -2, (-1, -1, 1, 0))
        + _xword(seed, -1, (0, 1, 0, 1))
        + _xword(seed, 0, (-1, 1, 0, 0))
    )

    # commutator witness (q^(3/2) - q^(-1/2)) x2 x4
    witness = _xword(seed, 0, (0, 1, 0, 1)).scale(COMMUTATOR_COEFF)
    assert y2 * y1 - y1 * y2 == witness
    assert commutator_witness(seed, 2, 1) == witness

    # both degree-(|b|+1) relations: r <= 3 at base q, r <= 2 at base q^2
    assert serre_verify(seed, 2, 1).ok
    assert serre_verify(seed, 1, 2).ok

    # both higher-order sums: r <= 3 at base q^2 with twist -2r; r <= 5 at
    # base q sandwiching y1^2
    assert higher_verify(seed, 1, 2, 1, 2).ok
    assert higher_verify(seed, 2, 1, 2, 4).ok

    _finish(2, "rank-2 relations", 1.0, start)


def test_criterion_3_rank3_golden_suite():
    start = time.perf_counter()
    seed = principal_seed([[0, 2, -2], [-2, 0, 2], [2, -2, 0]], (1, 1, 1))

    assert seed.form.rows() == (
        (0, 0, 0, -1, 0, 0),
        (0, 0, 0, 0, -1, 0),
        (0, 0, 0, 0, 0, -1),
        (1, 0, 0, 0, -2, 2),
        (0, 1, 0, 2, 0, -2),
        (0, 0, 1, -2, 2, 0),
    )
    assert seed.exchange.btilde == (
        (0, 2, -2),
        (-2, 0, 2),
        (2, -2, 0),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    )

    y1, y2, y3 = one_step_variables(seed)
    # x1 y1 = q^(-1/2) x3^2 x4 + x2^2, x2 y2 = q^(-1/2) x1^2 x5 + x3^2,
    # x3 y3 = q^(-1/2) x2^2 x6 + x1^2
    assert ordered_product(seed.form, [(1, 1)]) * y1 == _xword(seed, -1, (0, 0, 2, 1, 0, 0)) + _xword(seed, 0, (0, 2, 0, 0, 0, 0))
    assert ordered_product(seed.form, [(2, 1)]) * y2 == _xword(seed, -1, (2, 0, 0, 0, 1, 0)) + _xword(seed, 0, (0, 0, 2, 0, 0, 0))
    assert ordered_product(seed.form, [(3, 1)]) * y3 == _xword(seed, -1, (0, 2, 0, 0, 0, 1)) + _xword(seed, 0, (2, 0, 0, 0, 0, 0))

    # commutator witness (q^(3/2) - q^(-1/2)) x1 x3 x4
    witness = _xword(seed, 0, (1, 0, 1, 1, 0, 0)).scale(COMMUTATOR_COEFF)
    assert y1 * y3 - y3 * y1 == witness

    # all six displayed relation sums vanish
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                assert serre_verify(seed, i, j).ok

    # the higher-order sum r <= 5 at base q sandwiching y3^2
    assert higher_verify(seed, 1, 3, 2, 4).ok

    _finish(3, "rank-3 golden suite", 2.0, start)


def _perturb_first_call(func):
    """Wrap _q_binom_entry so its first invocation returns the true entry
    plus one in its lowest slot."""
    state = {"hit": False}

    def wrapped(n, r):
        packed, width = func(n, r)
        if not state["hit"]:
            state["hit"] = True
            packed += 1
        return packed, width

    wrapped.state = state
    return wrapped


# Every family reads the table's packed entries through _q_binom_entry.
PERTURBED_INSTANCES = {
    "VANISHING": (4,),
    "SHIFTED_VANISHING": (4, 2),
    "PRODUCT_EXPANSION": (4,),
    "PRODUCT_EXPANSION_BIVAR": (4,),
    "VANDERMONDE": (5, 2, 3),
    "DOUBLE_SUM_NEG": (4, 2),
    "DOUBLE_SUM_POS": (4, 3, 1),
    "PASCAL": (5, 2, 1),
    "SYMMETRY": (5, 2, 1),
    "REVERSAL": (5, 2),
    "BASE_CHANGE": (3, 2, 1),
}


def test_criterion_4_identity_exhaustion(monkeypatch):
    start = time.perf_counter()
    reports = sweep_reports()
    failures = [r for r in reports if not r.verdict]
    assert not failures, failures[:5]
    assert len(reports) > 900
    assert {r.family for r in reports} == set(FAMILIES)

    # every family's checker rejects a single perturbed q-binomial entry
    assert set(PERTURBED_INSTANCES) == set(FAMILIES)
    for family, params in PERTURBED_INSTANCES.items():
        perturbed = _perturb_first_call(qarith._q_binom_entry)
        monkeypatch.setattr(identities_module, "_q_binom_entry", perturbed)
        assert not check_identity(family, params).verdict, family
        assert perturbed.state["hit"], family
        monkeypatch.undo()

    _finish(4, f"identity exhaustion ({len(reports)} instances)", 10.0, start)


def test_criterion_5_random_seed_property_sweep():
    start = time.perf_counter()
    rng = random.Random(20250810)
    seeds_checked = 0
    relations_checked = 0
    while seeds_checked < 50:
        seed = random_principal_seed(rng, rng.choice([2, 3]), max_entry=3, max_d=3)
        seeds_checked += 1
        for k in range(1, seed.n + 1):
            mutated = mutate(seed, k)
            validate_compatibility(mutated)
            assert mutated.d == seed.d
            back = mutate(mutated, k)
            assert back.form.rows() == seed.form.rows()
            assert back.exchange.btilde == seed.exchange.btilde
        for i in range(1, seed.n + 1):
            for j in range(1, seed.n + 1):
                if i == j:
                    continue
                assert serre_verify(seed, i, j).ok
                relations_checked += 1
                if seed.b_entry(i, j) <= 0:
                    assert serre_verify_opposite(seed, i, j).ok
                    relations_checked += 1
                size = abs(seed.b_entry(i, j))
                for l in range(1, size + 1):
                    assert higher_verify(seed, i, j, l, l * size).ok
                    relations_checked += 1
    _finish(
        5,
        f"property sweep (50 seeds, {relations_checked} relation instances)",
        60.0,
        start,
    )


def test_criterion_6_power_product_oracle_equivalence():
    start = time.perf_counter()
    bundled_seeds = [
        principal_seed([[0, 1], [-2, 0]], (2, 1)),
        principal_seed([[0, 2, -2], [-2, 0, 2], [2, -2, 0]], (1, 1, 1)),
    ]
    rng = random.Random(424242)
    random_seeds = [random_principal_seed(rng, rng.choice([2, 3])) for _ in range(10)]
    instances = 0
    for seed in bundled_seeds + random_seeds:
        for i in range(1, seed.n + 1):
            for t in range(1, 5):
                for side in ("left", "right"):
                    assert power_product_check(seed, i, t, side).ok
                    instances += 1
    _finish(6, f"power-product oracle equivalence ({instances} instances)", 60.0, start)
