import os
import resource
import subprocess
import sys
import time
import tracemalloc
from itertools import islice
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcluster import identities, qarith
from qcluster.identities import FAMILIES, IdentityReport, check_identity, sweep_reports
from qcluster.qarith import QLaurent, q_binom
from qcluster.qtorus import SkewForm, TorusElem


def unsigned_digits(packed, width):
    """The polynomial in q whose coefficients are the base-2^width digits of
    the nonnegative int `packed`."""
    size = width // 8
    raw = packed.to_bytes(-(-packed.bit_length() // width) * size, "little")
    digits = (int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size))
    return QLaurent({2 * j: digit for j, digit in enumerate(digits) if digit})


class TestSingleChecks:
    def test_vanishing_d3(self):
        # 1 - [3,1] + q[3,2] - q^3 telescopes to zero
        assert check_identity("VANISHING", (3,)).verdict
        assert FAMILIES["VANISHING"].expand(3) == (0, 0)

    def test_double_sum_neg_n4_k1(self):
        assert check_identity("DOUBLE_SUM_NEG", (4, 1)).verdict

    def test_vandermonde_explicit(self):
        # expand the right side with an inline oracle before trusting the family
        n, d, k = 5, 2, 3
        rhs = QLaurent.zero()
        for r in range(k + 1):
            rhs = rhs + QLaurent.q_power(2 * (d - r) * (k - r)) * q_binom(d, r) * q_binom(n - d, k - r)
        assert rhs == q_binom(n, k)
        assert check_identity("VANDERMONDE", (n, d, k)).verdict

    def test_shifted_vanishing_degenerate(self):
        assert check_identity("SHIFTED_VANISHING", (1, 0)).verdict

    def test_product_expansion_matches_manual_fold(self):
        # The reference folds the products in the zero-form torus, where
        # x = X^[1], or x = X^[1,0] and y = X^[0,1], commute.  Both sides
        # come packed at q = 2^W, W the slot width of the row's widest
        # q-binomial entry; C(68, 34) is the first binomial past 2^64, so
        # rows 68..70 fold at one width against 128-bit table entries.
        line, plane = SkewForm([[0]]), SkewForm([[0, 0], [0, 0]])
        univar, bivar = TorusElem.unit(line), TorusElem.unit(plane)
        for n in range(1, 71):
            univar = univar * TorusElem(line, {(0,): 1, (1,): QLaurent.q_power(2 * n)})
            bivar = bivar * TorusElem(plane, {(0, 1): 1, (1, 0): QLaurent.q_power(2 * n)})
            if 12 < n < 66:
                continue
            width = qarith._q_binom_entry(n, n // 2)[1]
            assert width == (128 if n >= 68 else 64)
            for family, fold, expo in (
                ("PRODUCT_EXPANSION", univar, lambda k: (k,)),
                ("PRODUCT_EXPANSION_BIVAR", bivar, lambda k: (k, n - k)),
            ):
                lhs, _ = FAMILIES[family].expand(n)
                assert dict(fold.items()) == {expo(k): unsigned_digits(c, width) for k, c in enumerate(lhs)}
                assert check_identity(family, (n,)).verdict

    def test_report_rendering(self):
        assert check_identity("VANISHING", (3,)).render() == "VANISHING(d=3) = PASS"
        text = check_identity("VANDERMONDE", (5, 2, 3)).render()
        assert text == "VANDERMONDE(n=5,d=2,k=3) = PASS"


class TestReportRecord:
    def test_fields_cannot_be_assigned_or_deleted(self):
        report = check_identity("PASCAL", (3, 2, 1))
        for name in ("family", "params", "verdict"):
            with pytest.raises(AttributeError):
                setattr(report, name, None)
            with pytest.raises(AttributeError):
                delattr(report, name)
        assert report.verdict

    def test_repr_names_fields(self):
        assert repr(check_identity("PASCAL", (3, 2, 1))) == "IdentityReport(family='PASCAL', params=(3, 2, 1), verdict=True)"


class TestPreconditions:
    @pytest.mark.parametrize(
        "family,params",
        [
            ("VANISHING", (0,)),
            ("SHIFTED_VANISHING", (3, 3)),
            ("SHIFTED_VANISHING", (3, -1)),
            ("PRODUCT_EXPANSION", (0,)),
            ("VANDERMONDE", (4, 5, 2)),
            ("DOUBLE_SUM_NEG", (4, 0)),
            ("DOUBLE_SUM_NEG", (4, 5)),
            ("DOUBLE_SUM_POS", (4, 5, 1)),
            ("DOUBLE_SUM_POS", (4, 3, 3)),
            ("BASE_CHANGE", (0, 2, 1)),
        ],
    )
    def test_out_of_range_rejected(self, family, params):
        with pytest.raises(ValueError) as excinfo:
            check_identity(family, params)
        assert FAMILIES[family].precondition in str(excinfo.value)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            check_identity("NO_SUCH_FAMILY", (1,))

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            check_identity("VANISHING", (1, 2))

    @pytest.mark.parametrize("params", [(2.7,), (True,), ("3",), (3.0,)])
    def test_non_int_parameters_rejected(self, params):
        # Read through int(), 2.7 would run as d=2 and report PASS.
        with pytest.raises(TypeError, match="VANISHING parameter must be an int"):
            check_identity("VANISHING", params)

    def test_bool_among_int_parameters_rejected(self):
        with pytest.raises(TypeError, match="must be an int, got False"):
            check_identity("DOUBLE_SUM_POS", (4, 3, False))


class TestExhaustiveSweep:
    def test_every_family_passes_its_ranges(self):
        reports = sweep_reports()
        failures = [r for r in reports if not r.verdict]
        assert not failures, failures[:5]
        covered = {r.family for r in reports}
        assert covered == set(FAMILIES)
        assert len(reports) > 900

    def test_sweep_ordering_is_stable(self):
        reports = sweep_reports()
        keys = [(r.family, r.params) for r in reports]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_precondition_text_is_the_validator(self, name):
        # The precondition string is the message check_identity shows and
        # a Python expression: it must accept exactly what `validate` does,
        # on a box two wider on each side than the family's sweep grid.
        family = FAMILIES[name]
        grid = identities._grid(family.sweep)
        assert grid and all(family.validate(*p) for p in grid)
        box = [()]
        for axis in zip(*grid):
            box = [p + (v,) for p in box for v in range(min(axis) - 2, max(axis) + 3)]
        for p in box:
            expected = eval(family.precondition, {}, dict(zip(family.param_names, p)))
            assert family.validate(*p) == expected, p


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


# Each instance perturbs one q-binomial entry; every family reads the
# table's packed entries through _q_binom_entry.
PERTURBED_INSTANCES = [
    ("VANISHING", (4,)),
    ("SHIFTED_VANISHING", (4, 2)),
    ("PRODUCT_EXPANSION", (4,)),
    ("PRODUCT_EXPANSION_BIVAR", (4,)),
    ("VANDERMONDE", (5, 2, 3)),
    ("DOUBLE_SUM_NEG", (4, 2)),
    ("DOUBLE_SUM_POS", (4, 3, 1)),
    ("PASCAL", (5, 2, 1)),
    ("SYMMETRY", (5, 2, 1)),
    ("REVERSAL", (5, 2)),
    ("BASE_CHANGE", (3, 2, 1)),
    # The base families at a base q^d whose d is past sys.maxsize, and a
    # Vandermonde k far past n, where no product is nonzero.
    ("PASCAL", (5, 2, 2**63)),
    ("SYMMETRY", (5, 2, 2**63)),
    ("REVERSAL", (5, 2**63)),
    ("BASE_CHANGE", (3, 2, 2**63)),
    ("VANDERMONDE", (5, 2, 10**12)),
]


class TestNotVacuous:
    @pytest.mark.parametrize("family,params", PERTURBED_INSTANCES)
    def test_perturbed_instance_fails(self, family, params, monkeypatch):
        # sanity: the honest instance passes
        assert check_identity(family, params).verdict
        perturbed = _perturb_first_call(qarith._q_binom_entry)
        monkeypatch.setattr(identities, "_q_binom_entry", perturbed)
        assert not check_identity(family, params).verdict
        assert perturbed.state["hit"]

    @pytest.mark.parametrize("family,params,entry", [
        ("SYMMETRY", (5, 2, 1), (5, 2)),
        ("SYMMETRY", (6, 3, 2), (6, 3)),
        ("SYMMETRY", (4, 0, 3), (4, 0)),
        ("REVERSAL", (5, 2), (5, 1)),
        ("REVERSAL", (0, 2), (0, 1)),
    ])
    def test_slot_above_the_degree_fails(self, family, params, entry, monkeypatch):
        # The entry gains a slot one past r(n-r), the degree the identity
        # reflects about: the mirrored side lacks it, so the check FAILs.
        # For REVERSAL(0, d) the degree is -1 and the entry [0, 1] is 0.
        honest = qarith._q_binom_entry
        n, r = entry

        def broken(*key):
            packed, width = honest(*key)
            if key == entry:
                packed += 1 << width * (r * (n - r) + 1)
            return packed, width

        monkeypatch.setattr(identities, "_q_binom_entry", broken)
        assert not check_identity(family, params).verdict

    def test_pascal_past_the_row(self, monkeypatch):
        # r > n+1 meets the precondition, and every entry is zero there.
        # Each side is shifted up so that no shift is negative, so a
        # nonzero entry FAILs instead of raising.
        assert check_identity("PASCAL", (3, 9, 2)).verdict
        monkeypatch.setattr(identities, "_q_binom_entry", _perturb_first_call(qarith._q_binom_entry))
        assert not check_identity("PASCAL", (3, 9, 2)).verdict


class TestHugeParametersUnderAMemoryLimit:
    # Each request compares a few terms, so its cost must not grow with a
    # parameter that leaves the term count unchanged: a base d in a stride
    # runs out of memory, or shifts past sys.maxsize and raises
    # OverflowError (exit 70), and so does a Vandermonde walk over every
    # r <= k.  Every child limits its own address space to 1 GiB, and
    # runs one at a time.
    REQUESTS = [
        ("SYMMETRY", (5, 2, 10**8)),
        ("PASCAL", (3, 2, 10**11)),
        ("REVERSAL", (3, 10**10)),
        ("REVERSAL", (3, 2**63)),
        ("SYMMETRY", (5, 2, 2**63)),
        ("PASCAL", (3, 2, 2**63)),
        ("BASE_CHANGE", (5, 1, 2**63)),
        ("BASE_CHANGE", (3, 2, sys.maxsize)),
        ("VANDERMONDE", (3, 2, 10**12)),
    ]

    @pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
    @pytest.mark.parametrize("family,params", REQUESTS)
    def test_request_passes_in_under_a_second(self, family, params, flags):
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        argv = [sys.executable, *flags, "-m", "qcluster", "identities", "--family", family, "--params", ",".join(map(str, params))]
        started = time.perf_counter()
        result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60, preexec_fn=limit)
        elapsed = time.perf_counter() - started
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == IdentityReport(family, params, True).render() + "\n"
        assert elapsed < 1, elapsed


# The sums as QLaurent terms added one at a time, the way the identities
# were expanded before they were summed as packed ints.


def qlaurent_alternating_terms(top, shift):
    for r in range(top + 1):
        term = q_binom(top, r).shift(r * (r - 1) - 2 * shift * r)
        yield -term if r % 2 else term


def qlaurent_shifted_vanishing(d, c):
    return sum(qlaurent_alternating_terms(d, c), QLaurent.zero())


def qlaurent_double_sum(n, shift, slope):
    total = inner = QLaurent.zero()
    for t, term in enumerate(islice(qlaurent_alternating_terms(n + 1, shift), n + 1)):
        inner = inner + term
        total = total + inner.shift(2 * slope * t)
    return total


def qlaurent_vandermonde_rhs(n, d, k):
    rhs = QLaurent.zero()
    for r in range(k + 1):
        rhs = rhs + QLaurent.q_power(2 * (d - r) * (k - r)) * q_binom(d, r) * q_binom(n - d, k - r)
    return rhs


def at_two_to_the(poly, width):
    """q^(-j) poly at q = 2^width, q^j the lowest power in poly (0 for 0)."""
    low = min((h for h, _ in poly.items()), default=0)
    return sum(c << width * ((h - low) // 2) for h, c in poly.items())


def without_low_slots(value, width):
    """The int value / 2^(width j), 2^(width j) the largest such power dividing it."""
    return value >> width * (((value & -value).bit_length() - 1) // width) if value else 0


@pytest.fixture
def widths(monkeypatch):
    """The slot width each packed sum chose, in order."""
    seen = []
    slot_width = identities._slot_width

    def spy(bound):
        seen.append(slot_width(bound))
        return seen[-1]

    monkeypatch.setattr(identities, "_slot_width", spy)
    return seen


class TestPackedSums:
    # Each sum is its QLaurent reference at q = 2^W, up to a power of 2^W.

    @pytest.mark.parametrize("d", range(1, 13))
    def test_shifted_vanishing_outside_precondition(self, d, widths):
        # By Gauss's binomial formula the sum is prod_{i<d} (1 - q^(i-c)),
        # which is zero exactly for 0 <= c < d.
        for c in (-3, -1, d, d + 2, 2 * d + 5):
            value = identities._alternating_sum(d, c)
            assert without_low_slots(value, widths[-1]) == at_two_to_the(qlaurent_shifted_vanishing(d, c), widths[-1])
            assert value != 0

    def test_double_sums(self, widths):
        rng = Random(2)
        nonzero = 0
        for _ in range(60):
            n, shift, slope = rng.randint(1, 12), rng.randint(-6, 16), rng.randint(-9, 9)
            value = identities._alternating_sum(n + 1, shift, slope)
            reference = at_two_to_the(qlaurent_double_sum(n, shift, slope), widths[-1])
            assert without_low_slots(value, widths[-1]) == reference, (n, shift, slope)
            nonzero += value != 0
        assert nonzero > 40

    def test_vandermonde(self, widths):
        # Both sides are polynomials in q, packed with no shift.
        rng = Random(3)
        for _ in range(60):
            n = rng.randint(0, 16)
            d, k = rng.randint(0, n), rng.randint(0, n + 2)
            lhs, rhs = identities._vandermonde(n, d, k)
            assert rhs == at_two_to_the(qlaurent_vandermonde_rhs(n, d, k), widths[-1]) == lhs, (n, d, k)
            assert lhs == at_two_to_the(q_binom(n, k), widths[-1])

    def test_sums_past_64_bit_slots(self, widths):
        # The coefficient bound of these sums passes 2^63, so they are
        # added in 128-bit slots.
        value = identities._alternating_sum(80, 81)
        assert widths == [128]
        assert without_low_slots(value, 128) == at_two_to_the(qlaurent_shifted_vanishing(80, 81), 128)
        value = identities._alternating_sum(67, 5, -3)
        assert without_low_slots(value, 128) == at_two_to_the(qlaurent_double_sum(66, 5, -3), 128)
        assert check_identity("VANISHING", (80,)).verdict
        assert check_identity("DOUBLE_SUM_POS", (66, 9, 4)).verdict
        assert check_identity("VANDERMONDE", (80, 40, 40)).verdict
        assert widths == [128] * 5
        # C(70, 35) and C(71, 35) pass 2^64, so these entries are stored in
        # 128-bit slots.  SYMMETRY keeps the entry's width; PASCAL and
        # BASE_CHANGE pick theirs from the entries' slots, here 64 bits.  An
        # identity at base q^d is expanded in Q = q^d, so at d = 2 both
        # sides are the d = 1 sides, and equal the d = 1 reference.
        symmetry = FAMILIES["SYMMETRY"].expand(70, 35, 2)
        assert len(widths) == 5
        assert symmetry == FAMILIES["SYMMETRY"].expand(70, 35, 1)
        lhs, rhs = symmetry
        assert lhs == rhs == at_two_to_the(q_binom(70, 35), 128)
        assert rhs == at_two_to_the(QLaurent.q_power(2 * 35 * 35) * q_binom(70, 35).bar(), 128)
        lhs, rhs = FAMILIES["PASCAL"].expand(70, 35, 1)
        assert lhs == rhs == at_two_to_the(q_binom(71, 35), widths[-1])
        assert rhs == at_two_to_the(q_binom(70, 35) + QLaurent.q_power(2 * 36) * q_binom(70, 34), widths[-1])
        base_change = FAMILIES["BASE_CHANGE"].expand(70, 3, 2)
        assert widths == [128] * 5 + [64, 64]
        assert base_change == FAMILIES["BASE_CHANGE"].expand(70, 3, 1)
        lhs, rhs = base_change
        assert lhs == rhs == at_two_to_the(q_binom(70, 1, 3) * q_binom(3, 1), widths[-1])
        assert rhs == at_two_to_the(q_binom(70, 1) * q_binom(3, 1, 70), widths[-1])
        assert widths == [128] * 5 + [64] * 3

    def test_64_bit_slots_through_row_62(self, widths):
        # The ceilings are powers of two less one, so this range is not
        # derived from sum_r C(top, r) = 2^top; it is pinned here.
        for top in range(1, 63):
            for shift in (0, top // 2):
                identities._alternating_sum(top, shift)
            for slope in (-3, 2):
                identities._alternating_sum(top, 1, slope)
        assert widths == [64] * 62 * 4

    def test_odd_last_slot_reaches_the_ceiling(self, monkeypatch, widths):
        # Entry [4, 2] has 5 slots; bit 63 of the last one makes the bound
        # 5 * (2^64 - 1), so VANISHING(4) is added in 128-bit slots and
        # FAILs.  A fold that dropped the odd slot would keep 64 bits.
        honest = qarith._q_binom_entry

        def broken(n, r):
            packed, width = honest(n, r)
            if (n, r) == (4, 2):
                assert width == 64 and packed.bit_length() <= 64 * 5
                packed |= 1 << 64 * 4 + 63
            return packed, width

        monkeypatch.setattr(identities, "_q_binom_entry", broken)
        assert not check_identity("VANISHING", (4,)).verdict
        assert widths == [128]

    def test_large_coefficient_cannot_alias(self, monkeypatch, widths):
        # Entry (4, 1) with its constant slot raised to 2^64 - 1, the largest
        # a 64-bit slot holds.  The height is read from that slot, so the
        # bound passes 2^63 and the sum is added in 128-bit slots; a bound
        # taken from C(4, 1) = 4 would keep it at 64 bits.
        honest = qarith._q_binom_entry
        state = {"hit": False}

        def broken(n, r):
            packed, width = honest(n, r)
            if (n, r) == (4, 1) and not state["hit"]:
                state["hit"] = True
                assert width == 64
                packed += 2**64 - 1 - (packed & (2**64 - 1))
            return packed, width

        monkeypatch.setattr(identities, "_q_binom_entry", broken)
        assert not check_identity("VANISHING", (4,)).verdict
        assert state["hit"] and widths == [128]
        # In BASE_CHANGE(3, 4, 1) the same entry is b = [4, 1], whose largest
        # slot scales the bound ||a||_1 * max b of both products.
        state["hit"] = False
        assert not check_identity("BASE_CHANGE", (3, 4, 1)).verdict
        assert state["hit"] and widths == [128, 128]

    @pytest.mark.parametrize("entry_width,top,chosen", [(64, 2**64 - 1, 128), (128, 2**128 - 1, 192)])
    def test_vandermonde_bound_covers_the_left_side(self, monkeypatch, widths, entry_width, top, chosen):
        # Slot 0 of [5, 3], the left side of VANDERMONDE(5, 2, 3), raised to
        # the largest its slot holds.  The bound includes that slot, so both
        # sides are compared at a width that holds it, and the check FAILs.
        # Left out of the bound, the width would stay 64: a 128-bit entry
        # could not be moved to it (ArithmeticError).
        honest = qarith._q_binom_entry

        def broken(n, r):
            packed, width = honest(n, r)
            if (n, r) == (5, 3):
                packed = qarith._respread(packed, width, entry_width, r * (n - r) + 1)
                packed += top - (packed & top)
                width = entry_width
            return packed, width

        monkeypatch.setattr(identities, "_q_binom_entry", broken)
        assert not check_identity("VANDERMONDE", (5, 2, 3)).verdict
        assert widths == [chosen]

    @pytest.mark.parametrize("entry", [-1, -(2**64), True, 1.0])
    @pytest.mark.parametrize("family,params", [
        ("VANISHING", (4,)),
        ("DOUBLE_SUM_NEG", (4, 2)),
        ("PRODUCT_EXPANSION", (4,)),
        ("VANDERMONDE", (5, 2, 3)),
        ("PASCAL", (5, 2, 1)),
        ("SYMMETRY", (5, 2, 1)),
        ("REVERSAL", (5, 2)),
        ("BASE_CHANGE", (3, 2, 1)),
    ])
    def test_negative_entry_raises(self, monkeypatch, entry, family, params):
        # Only a nonnegative int is read as unsigned slots.
        monkeypatch.setattr(identities, "_q_binom_entry", lambda n, r: (entry, 64))
        with pytest.raises(ArithmeticError, match="must be a nonnegative int"):
            check_identity(family, params)

    def test_row_past_its_slot_width_raises(self, monkeypatch):
        # C(70, 35) > 2^64: a 64-bit fold of row 70 could carry between
        # slots.  Row 67 still fits, so its wrong entries merely FAIL.
        monkeypatch.setattr(identities, "_q_binom_entry", lambda n, r: (1, 64))
        with pytest.raises(ArithmeticError, match="cannot hold the coefficients of row 70"):
            check_identity("PRODUCT_EXPANSION", (70,))
        assert not check_identity("PRODUCT_EXPANSION", (67,)).verdict

    def test_warm_vanishing_60_peak_memory(self):
        # Only packed ints are kept, never the decoded terms: a list of the
        # 61 decoded q-binomials alone would take several MiB.
        assert check_identity("VANISHING", (60,)).verdict
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert check_identity("VANISHING", (60,)).verdict
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 2**20


@st.composite
def packed_entries(draw):
    """Entries (packed, width, count) of mixed widths, and all their slots."""
    entries, slots = [], []
    for _ in range(draw(st.integers(1, 4))):
        width = draw(st.sampled_from([64, 128, 192]))
        values = draw(st.lists(
            st.integers(0, width).flatmap(lambda bits: st.integers(0, (1 << bits) - 1)), max_size=40,
        ))
        packed = sum(value << width * j for j, value in enumerate(values))
        entries.append((packed, width, -(-packed.bit_length() // width)))
        slots += values
    return entries, slots


@settings(max_examples=300, deadline=None)
@given(packed_entries())
def test_ceiling_is_the_widest_slot_filled_with_ones(case):
    entries, slots = case
    ceiling = identities._ceiling(*entries)
    assert ceiling == 2 ** max((slot.bit_length() for slot in slots), default=0) - 1
    assert all(slot <= ceiling for slot in slots)
