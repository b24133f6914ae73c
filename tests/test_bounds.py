import math

import numpy as np
import pytest

from meanpoint import bounds, harness
from meanpoint.geometry import Norm, Universe

UPPER_CENTRAL = (bounds.ub_coarse, bounds.ub_chain, bounds.ub_infty)
UPPER_LOCAL = (bounds.ub_local_coarse, bounds.ub_local_chain)


def small_universes():
    rng = np.random.default_rng(30)
    return [harness.gen_thresholds(16), harness.gen_marginals2(4),
            harness.gen_cone(4, 0.3, density=10, seed=3),
            Universe(points=rng.random((24, 3))),
            Universe(points=rng.random((20, 2)))]


class TestPrivacyScaling:
    # The privacy parameter is divided out last, so scaling it by 4 moves
    # every estimate by an exact power of two.

    @pytest.mark.parametrize("alpha", [0.05, 0.2])
    def test_rho_times_four_halves_central_estimates(self, alpha):
        u = harness.gen_marginals2(5)
        rho = 0.3
        for est in UPPER_CENTRAL + (bounds.lb_packing,):
            assert est(u, alpha, 4 * rho) == est(u, alpha, rho) / 2, est

    @pytest.mark.parametrize("alpha", [0.05, 0.2])
    def test_epsilon_times_four_divides_local_estimates_by_16(self, alpha):
        u = harness.gen_marginals2(5)
        eps = 0.35
        for est in UPPER_LOCAL + (bounds.lb_local,):
            assert est(u, alpha, 4 * eps) == est(u, alpha, eps) / 16, est

    def test_estimates_are_positive(self):
        # Zero estimates would pass the scaling checks vacuously.
        u = harness.gen_marginals2(5)
        for est in UPPER_CENTRAL + UPPER_LOCAL + (bounds.lb_packing,):
            assert est(u, 0.05, 0.5) > 0.0


class TestGreedyLowerBounds:
    # A greedy separated set is a packing, so its lower bound can never
    # exceed the one from the exact packing number.

    @staticmethod
    def _sup(u, alpha, mode, threshold, term):
        return bounds.bound_profile(u, Norm.L2, alpha,
                                    packing_mode=mode,
                                    threshold=threshold * alpha).sup(term)

    @pytest.mark.parametrize("alpha", [0.01, 0.03, 0.06])
    def test_greedy_never_above_exact(self, alpha):
        for u in small_universes():
            assert u.size <= 24
            for threshold, term in (
                    (bounds.LB_CENTRAL_THRESHOLD, bounds.T_SQRT_LOG),
                    (bounds.LB_LOCAL_THRESHOLD, bounds.T2_LOG)):
                greedy = self._sup(u, alpha, "greedy", threshold, term)
                exact = self._sup(u, alpha, "exact", threshold, term)
                assert greedy <= exact

    def test_small_universes_default_to_exact(self):
        u = harness.gen_thresholds(16)
        report = bounds.bound_report(u, 0.05, rho=0.5, epsilon=1.0)
        assert report["lb_packing_mode"] == "exact"
        assert report["lb_local_mode"] == "exact"
        exact = self._sup(u, 0.05, "exact", bounds.LB_CENTRAL_THRESHOLD,
                          bounds.T_SQRT_LOG)
        assert report["lb_packing"] == exact / 0.05 / math.sqrt(0.5)


UNDERFLOWING = UPPER_CENTRAL + UPPER_LOCAL + (bounds.lb_local,)


class TestUnderflowingAlpha:
    # 1e-200 ** 2 is 0 in floats; each estimate returns its limit.

    @pytest.mark.parametrize("est", UNDERFLOWING,
                             ids=lambda est: est.__name__)
    def test_positive_sup_term_gives_inf(self, est):
        assert est(harness.gen_thresholds(6), 1e-200, 1.0) == math.inf

    @pytest.mark.parametrize("est", UNDERFLOWING,
                             ids=lambda est: est.__name__)
    def test_zero_sup_term_gives_zero(self, est):
        assert est(Universe(points=np.ones((3, 2))), 1e-200, 1.0) == 0.0
