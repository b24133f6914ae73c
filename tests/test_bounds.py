import csv
import math

import numpy as np
import pytest

from meanpoint import bounds, cli, geometry, harness
from meanpoint.bounds import estimate
from meanpoint.geometry import Norm, Universe

UPPER_CENTRAL = ("ub_coarse", "ub_chain", "ub_infty")
UPPER_LOCAL = ("ub_local_coarse", "ub_local_chain")


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
        for name in UPPER_CENTRAL + ("lb_packing",):
            assert (estimate(name, u, alpha, 4 * rho)
                    == estimate(name, u, alpha, rho) / 2), name

    @pytest.mark.parametrize("alpha", [0.05, 0.2])
    def test_epsilon_times_four_divides_local_estimates_by_16(self, alpha):
        u = harness.gen_marginals2(5)
        eps = 0.35
        for name in UPPER_LOCAL + ("lb_local",):
            assert (estimate(name, u, alpha, 4 * eps)
                    == estimate(name, u, alpha, eps) / 16), name

    def test_estimates_are_positive(self):
        # Zero estimates would pass the scaling checks vacuously.
        u = harness.gen_marginals2(5)
        for name in UPPER_CENTRAL + UPPER_LOCAL + ("lb_packing",):
            assert estimate(name, u, 0.05, 0.5) > 0.0


class TestClosedForms:
    # Each table row evaluates its theorem's shape, pinned bit for bit
    # against the formula written out over the profile's sup terms.

    def test_each_estimate_is_its_formula(self):
        # At this alpha, sup / alpha**b and 1 / alpha**b * sup differ in
        # the last bit for both lower bounds.
        u, a, rho, eps = harness.gen_marginals2(5), 0.13, 0.3, 0.7
        log_a = math.log(1 / a)

        def sup(norm, term, threshold=None):
            return bounds.bound_profile(u, norm, a,
                                        threshold=threshold).sup(term)

        expected = {
            "ub_coarse": log_a / a ** 2 * sup(Norm.L2, "t_sqrt_log")
            / math.sqrt(rho),
            "ub_chain": log_a ** 2.5 / a ** 2 * sup(Norm.L2, "t2_sqrt_log")
            / math.sqrt(rho),
            "ub_infty": math.log(u.dim) * log_a ** 2.5 / a ** 2
            * sup(Norm.LINF, "t2_sqrt_log") / math.sqrt(rho),
            "lb_packing": sup(Norm.L2, "t_sqrt_log", 4 * a) / a
            / math.sqrt(rho),
            "ub_local_coarse": log_a ** 2 / a ** 4 * sup(Norm.L2, "t2_log")
            / eps ** 2,
            "ub_local_chain": log_a ** 6 / a ** 4 * sup(Norm.L2, "t4_log")
            / eps ** 2,
            "lb_local": sup(Norm.L2, "t2_log", 6 * a) / a ** 2 / eps ** 2,
        }
        assert list(expected) == list(bounds.ESTIMATORS)
        for name, value in expected.items():
            privacy = rho if bounds.ESTIMATORS[name].privacy == "rho" else eps
            assert value > 0.0, name
            assert estimate(name, u, a, privacy) == value, name

    def test_sup_terms_are_their_weights_on_the_grid(self):
        profile = bounds.bound_profile(harness.gen_marginals2(5), Norm.L2,
                                       0.13)
        grid = [(float(t), float(lp))
                for t, lp in zip(profile.ts, profile.log_packing)]
        assert grid
        weights = {"t_sqrt_log": lambda t, lp: t * math.sqrt(lp),
                   "t2_sqrt_log": lambda t, lp: t * t * math.sqrt(lp),
                   "t2_log": lambda t, lp: t * t * lp,
                   "t4_log": lambda t, lp: t ** 4 * lp}
        assert list(profile.sup_terms) == list(weights)
        for name, weight in weights.items():
            assert profile.sup(name) == max(weight(t, lp) for t, lp in grid)

    def test_report_holds_each_estimate_in_table_order(self):
        u = harness.gen_thresholds(8)
        report = bounds.bound_report(u, 0.2, rho=0.5, epsilon=2.0)
        estimates = [k for k in report if k in bounds.ESTIMATORS]
        assert estimates == list(bounds.ESTIMATORS)
        for name in estimates:
            privacy = 0.5 if bounds.ESTIMATORS[name].privacy == "rho" else 2.0
            assert report[name] == estimate(name, u, 0.2, privacy)
        assert report["lb_local_delta_cap"] == 0.2 ** 2 * 8.0 / math.log(4.0)

    def test_mechanism_upper_bounds_are_rows_of_their_family(self):
        keys = [row.upper_bound for row in harness.MECHANISMS.values()
                if row.upper_bound is not None]
        assert sorted(keys) == sorted(UPPER_CENTRAL + UPPER_LOCAL)
        for row in harness.MECHANISMS.values():
            if row.upper_bound is not None:
                est = bounds.ESTIMATORS[row.upper_bound]
                assert est.privacy == row.privacy
                assert est.threshold is None

    def test_bench_lower_bounds_are_table_rows(self, tmp_path):
        u = harness.gen_thresholds(6)
        path = tmp_path / "u.csv"
        path.write_text(geometry.universe_to_csv(u))
        out = tmp_path / "bench.csv"
        code = cli.main(["bench", "--universe", str(path), "--mechanisms",
                         "chaining,lcm", "--n-grid", "20", "--rho", "0.5",
                         "--epsilon", "2", "--alpha", "0.05", "--trials",
                         "1", "--out", str(out)])
        assert code == cli.EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [row["mechanism"] for row in rows] == ["chaining", "lcm"]
        for row, lb, privacy in zip(rows, ("lb_packing", "lb_local"),
                                    (0.5, 2.0)):
            assert bounds.ESTIMATORS[lb].threshold is not None
            value = estimate(lb, u, 0.05, privacy)
            assert value > 0.0
            assert float(row["bound_lb"]) == value


class TestGreedyLowerBounds:
    # A greedy separated set is a packing, so it can never exceed the
    # exact packing number that small universes' lower bounds use.

    @pytest.mark.parametrize("alpha", [0.01, 0.03, 0.06])
    def test_greedy_never_above_exact(self, alpha):
        for u in small_universes():
            assert u.size <= geometry.EXACT_PACKING_CAP
            for name in ("lb_packing", "lb_local"):
                profile = bounds.bound_profile(
                    u, Norm.L2, alpha,
                    threshold=bounds.ESTIMATORS[name].threshold * alpha)
                assert profile.packing_mode == "exact"
                assert profile.ts.size > 0
                greedy = geometry.packing_profile(u, profile.ts, Norm.L2)
                assert np.all(greedy <= profile.packing)

    def test_small_universes_default_to_exact(self):
        u = harness.gen_thresholds(16)
        report = bounds.bound_report(u, 0.05, rho=0.5, epsilon=1.0)
        assert report["lb_packing_mode"] == "exact"
        assert report["lb_local_mode"] == "exact"
        profile = bounds.bound_profile(u, Norm.L2, 0.05, threshold=4 * 0.05)
        assert profile.packing_mode == "exact"
        exact = profile.sup("t_sqrt_log")
        assert report["lb_packing"] == exact / 0.05 / math.sqrt(0.5)
        big = bounds.bound_report(harness.gen_marginals2(5), 0.05, rho=0.5)
        assert big["lb_packing_mode"] == "greedy"
        assert bounds.bound_profile(u, Norm.L2, 0.05).packing_mode == "greedy"


UNDERFLOWING = UPPER_CENTRAL + UPPER_LOCAL + ("lb_local",)


class TestUnderflowingAlpha:
    # 1e-200 ** 2 is 0 in floats; each estimate returns its limit.

    @pytest.mark.parametrize("name", UNDERFLOWING)
    def test_positive_sup_term_gives_inf(self, name):
        assert estimate(name, harness.gen_thresholds(6), 1e-200,
                        1.0) == math.inf

    @pytest.mark.parametrize("name", UNDERFLOWING)
    def test_zero_sup_term_gives_zero(self, name):
        assert estimate(name, Universe(points=np.ones((3, 2))), 1e-200,
                        1.0) == 0.0
