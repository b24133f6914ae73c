import numpy as np
import pytest

from meanpoint import bounds, harness
from meanpoint.geometry import Universe

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

    @pytest.mark.parametrize("alpha", [0.01, 0.03, 0.06])
    def test_greedy_never_above_exact(self, alpha):
        for u in small_universes():
            assert u.size <= 24
            greedy = bounds.lb_packing(u, alpha, 0.5, packing_mode="greedy")
            exact = bounds.lb_packing(u, alpha, 0.5, packing_mode="exact")
            assert greedy <= exact
            greedy = bounds.lb_local(u, alpha, 1.0, packing_mode="greedy")
            exact = bounds.lb_local(u, alpha, 1.0, packing_mode="exact")
            assert greedy <= exact

    def test_small_universes_default_to_exact(self):
        u = harness.gen_thresholds(16)
        report = bounds.bound_report(u, 0.05, rho=0.5, epsilon=1.0)
        assert report["lb_packing_mode"] == "exact"
        assert report["lb_local_mode"] == "exact"
        assert report["lb_packing"] == bounds.lb_packing(
            u, 0.05, 0.5, packing_mode="exact")
