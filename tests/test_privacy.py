import math
from fractions import Fraction

import numpy as np
import pytest

from meanpoint import harness
from meanpoint.geometry import Universe
from hypothesis import given, settings
from hypothesis import strategies as st

from meanpoint.privacy import (PrivacyBudget, as_fraction, compose,
                               gaussian_sigma_for_zcdp, mean_sensitivity)


class TestBudgets:
    def test_decimal_fraction_parsing(self):
        assert as_fraction(0.1) == Fraction(1, 10)
        assert as_fraction(3) == Fraction(3)
        assert as_fraction(Fraction(2, 7)) == Fraction(2, 7)
        # numpy scalars register with numbers.Integral and numbers.Real.
        assert as_fraction(np.int64(1)) == Fraction(1)
        assert as_fraction(np.uint8(3)) == Fraction(3)
        assert as_fraction(np.float32(0.5)) == Fraction(1, 2)
        assert as_fraction(np.float32(0.1)) == Fraction(1, 10)
        for bad in (np.float64(math.nan), np.float32(math.inf)):
            with pytest.raises(ValueError):
                as_fraction(bad)
        for bad in (True, np.bool_(True), "0.5", None):
            with pytest.raises(TypeError):
                as_fraction(bad)

    def test_numpy_rho_runs_like_its_python_value(self):
        d = harness.gen_dataset(harness.gen_thresholds(8), 20, seed=1)
        got, want = (harness.measure_error(
            d, {"mechanism": "projection", "rho": rho}, trials=2, seed=3)
            for rho in (np.int64(1), 1))
        assert got.per_trial_sq_err == want.per_trial_sq_err

    def test_validation(self):
        with pytest.raises(ValueError):
            PrivacyBudget.zcdp(-0.1)
        with pytest.raises(ValueError):
            PrivacyBudget.pure_dp(-0.1)
        with pytest.raises(ValueError):
            PrivacyBudget(kind="approx", epsilon=Fraction(1))


class TestCompose:
    def test_zcdp_sum_is_exact(self):
        got = compose([PrivacyBudget.zcdp(0.3), PrivacyBudget.zcdp(0.7)])
        assert got == PrivacyBudget.zcdp(1.0)

    def test_zero_is_identity(self):
        b = PrivacyBudget.zcdp(0.42)
        assert compose([b, PrivacyBudget.zcdp(0)]) == b
        p = PrivacyBudget.pure_dp(0.42)
        assert compose([p, PrivacyBudget.pure_dp(0)]) == p

    def test_pure_sum_is_exact(self):
        got = compose([PrivacyBudget.pure_dp(0.1), PrivacyBudget.pure_dp(0.2)])
        assert got == PrivacyBudget.pure_dp(0.3)

    def test_mixed_families_rejected(self):
        with pytest.raises(ValueError):
            compose([PrivacyBudget.zcdp(0.1), PrivacyBudget.pure_dp(0.1)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compose([])

    def test_associative_and_commutative(self):
        a, b, c = (PrivacyBudget.zcdp(x) for x in (0.1, 0.2, 0.3))
        assert compose([compose([a, b]), c]) == compose([a, compose([b, c])])
        assert compose([a, b, c]) == compose([c, b, a])


class TestCalibration:
    def test_sigma_formula(self):
        assert gaussian_sigma_for_zcdp(1.0, 0.5) == pytest.approx(1.0)
        assert gaussian_sigma_for_zcdp(0.0, 1.0) == 0.0
        assert gaussian_sigma_for_zcdp(2.0, 2.0) == pytest.approx(1.0)

    def test_sigma_scales_linearly_in_sensitivity(self):
        assert gaussian_sigma_for_zcdp(3.0, 0.7) == \
            pytest.approx(3.0 * gaussian_sigma_for_zcdp(1.0, 0.7))

    def test_sigma_scales_inverse_sqrt_rho(self):
        # power-of-4 rescaling halves sigma exactly in floats
        assert gaussian_sigma_for_zcdp(1.0, 4 * 0.3) == \
            gaussian_sigma_for_zcdp(1.0, 0.3) / 2.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gaussian_sigma_for_zcdp(1.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_sigma_for_zcdp(-1.0, 1.0)


class TestMeanSensitivity:
    def test_singleton(self):
        assert mean_sensitivity(Universe(points=np.array([[0.3, 0.4]])), 5) == 0.0

    def test_two_point_diagonal(self):
        u = Universe(points=np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert mean_sensitivity(u, 1) == pytest.approx(math.sqrt(2.0))
        assert mean_sensitivity(u, 10) == pytest.approx(math.sqrt(2.0) / 10)

    def test_empty_dataset_rejected(self):
        u = Universe(points=np.array([[0.0]]))
        with pytest.raises(ValueError):
            mean_sensitivity(u, 0)


# Exact rational budgets: composition must hold with equality, not
# within a float tolerance.
_shares = st.fractions(min_value=0, max_value=10, max_denominator=10**6)
_zcdp = st.builds(PrivacyBudget.zcdp, _shares)
_pure = st.builds(PrivacyBudget.pure_dp, _shares)
# Lists drawn from one family, which ``compose`` accepts.
_family_lists = st.sampled_from([_zcdp, _pure]).flatmap(
    lambda family: st.lists(family, min_size=1, max_size=6))
_properties = settings(derandomize=True, database=None, deadline=None)


class TestComposeProperties:
    @_properties
    @given(_family_lists)
    def test_sums_are_exact(self, budgets):
        got = compose(budgets)
        assert got.rho == sum(b.rho for b in budgets)
        assert got.epsilon == sum(b.epsilon for b in budgets)

    @_properties
    @given(_family_lists.filter(lambda bs: len(bs) >= 3))
    def test_associative(self, budgets):
        a, b, rest = budgets[0], budgets[1], budgets[2:]
        assert compose([compose([a, b]), *rest]) == \
            compose([a, compose([b, *rest])])

    @_properties
    @given(_family_lists.flatmap(
        lambda bs: st.tuples(st.just(bs), st.permutations(bs))))
    def test_commutative(self, pair):
        budgets, shuffled = pair
        assert compose(shuffled) == compose(budgets)

    @_properties
    @given(st.one_of(_zcdp, _pure))
    def test_zero_of_the_same_kind_is_the_identity(self, budget):
        zero = PrivacyBudget(kind=budget.kind)
        assert compose([budget, zero]) == budget
        assert compose([zero, budget]) == budget

    @_properties
    @given(st.lists(_zcdp, min_size=1, max_size=3),
           st.lists(_pure, min_size=1, max_size=3), st.randoms())
    def test_mixed_families_rejected(self, zcdp, pure, rnd):
        budgets = zcdp + pure
        rnd.shuffle(budgets)
        with pytest.raises(ValueError):
            compose(budgets)
