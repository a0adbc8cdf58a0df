import pytest

from qcluster import identities
from qcluster.identities import FAMILIES, check_identity, sweep_reports
from qcluster.qarith import QLaurent, q_binom, q_int
from qcluster.qtorus import SkewForm, TorusElem


class TestSingleChecks:
    def test_vanishing_d3(self):
        # 1 - [3,1] + q[3,2] - q^3 telescopes to zero
        assert check_identity("VANISHING", (3,)).verdict
        assert FAMILIES["VANISHING"].expand(3) == (QLaurent.zero(), QLaurent.zero())

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
        n = 5
        line = SkewForm([[0]])
        lhs = TorusElem.unit(line)
        for r in range(1, n + 1):
            lhs = lhs * TorusElem(line, {(0,): 1, (1,): QLaurent.q_power(2 * r)})
        assert check_identity("PRODUCT_EXPANSION", (n,)).verdict
        assert FAMILIES["PRODUCT_EXPANSION"].expand(n)[0] == lhs

    def test_report_rendering(self):
        assert check_identity("VANISHING", (3,)).render() == "VANISHING(d=3) = PASS"
        text = check_identity("VANDERMONDE", (5, 2, 3)).render()
        assert text == "VANDERMONDE(n=5,d=2,k=3) = PASS"


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


def _perturb_first_call(func):
    """Wrap func so its first invocation returns the true value plus one."""
    state = {"hit": False}

    def wrapped(*args, **kwargs):
        value = func(*args, **kwargs)
        if not state["hit"]:
            state["hit"] = True
            value = value + QLaurent.one()
        return value

    return wrapped


PERTURBED_INSTANCES = [
    ("VANISHING", (4,), "q_binom"),
    ("SHIFTED_VANISHING", (4, 2), "q_binom"),
    ("PRODUCT_EXPANSION", (4,), "q_binom"),
    ("PRODUCT_EXPANSION_BIVAR", (4,), "q_binom"),
    ("VANDERMONDE", (5, 2, 3), "q_binom"),
    ("DOUBLE_SUM_NEG", (4, 2), "q_binom"),
    ("DOUBLE_SUM_POS", (4, 3, 1), "q_binom"),
    ("PASCAL", (5, 2, 1), "q_binom"),
    ("SYMMETRY", (5, 2, 1), "q_binom"),
    ("REVERSAL", (5, 2), "q_int"),
    ("BASE_CHANGE", (3, 2, 1), "q_int"),
]


class TestNotVacuous:
    @pytest.mark.parametrize("family,params,hook", PERTURBED_INSTANCES)
    def test_perturbed_instance_fails(self, family, params, hook, monkeypatch):
        # sanity: the honest instance passes
        assert check_identity(family, params).verdict
        original = q_binom if hook == "q_binom" else q_int
        monkeypatch.setattr(identities, hook, _perturb_first_call(original))
        assert not check_identity(family, params).verdict
