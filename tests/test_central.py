import json
import math

import numpy as np
import pytest

from meanpoint import harness
from meanpoint.central import (Dataset, PMWConfig, as_seed_sequence,
                               chaining_mechanism, chaining_mechanism_linf,
                               coarse_projection_mechanism, decompose_and_run,
                               level_dataset, pmw_mechanism,
                               projection_mechanism)
from meanpoint.geometry import (Norm, Universe, chaining_decomposition,
                                coarse_rounding, greedy_separated_set)
from meanpoint.privacy import PrivacyBudget, as_fraction, split_budget


@pytest.fixture
def small_universe():
    return Universe(points=np.random.default_rng(0).random((20, 6)))


@pytest.fixture
def small_dataset(small_universe):
    return harness.gen_dataset(small_universe, 60, seed=1)


def norm_err(out, d):
    e = out.estimate - d.mean()
    return float(np.linalg.norm(e)) / math.sqrt(d.universe.dim)


class TestDataset:
    def test_validation(self, small_universe):
        with pytest.raises(ValueError):
            Dataset(universe=small_universe, indices=np.array([], dtype=int))
        with pytest.raises(ValueError):
            Dataset(universe=small_universe, indices=np.array([25]))

    def test_mean_is_average_of_rows(self, small_universe):
        d = Dataset(universe=small_universe, indices=np.array([0, 0, 3]))
        expected = (2 * small_universe.points[0] + small_universe.points[3]) / 3
        assert np.allclose(d.mean(), expected)


class TestProjectionMechanism:
    def test_zero_noise_limit_recovers_mean(self, small_dataset):
        out = projection_mechanism(small_dataset, 1e9, seed=2)
        assert norm_err(out, small_dataset) <= 1e-3

    def test_point_mass_recovered_exactly_in_the_limit(self, small_universe):
        d = Dataset(universe=small_universe, indices=np.full(12, 7))
        out = projection_mechanism(d, 1e9, seed=3)
        assert np.linalg.norm(out.estimate - small_universe.points[7]) <= 1e-3

    def test_budget_ledger(self, small_dataset):
        out = projection_mechanism(small_dataset, 0.3, seed=4)
        assert out.budget_consumed == PrivacyBudget.zcdp(0.3)

    def test_output_stays_in_hull(self, small_dataset):
        from meanpoint.hull import project_onto_hull
        out = projection_mechanism(small_dataset, 0.01, seed=5)
        back = project_onto_hull(out.estimate, small_dataset.universe.points)
        assert np.linalg.norm(back.point - out.estimate) <= 1e-6

    def test_seed_determinism_bitwise(self, small_dataset):
        a = projection_mechanism(small_dataset, 0.5, seed=6)
        b = projection_mechanism(small_dataset, 0.5, seed=6)
        assert np.array_equal(a.estimate, b.estimate)
        assert json.dumps(a.to_json()) == json.dumps(b.to_json())

    def test_error_decreases_with_n(self, small_universe):
        # err at 4n below err at n, with slack for sampling noise
        reps = {}
        for n in (100, 400):
            d = harness.gen_dataset(small_universe, n, seed=7)
            rep = harness.measure_error(
                d, {"mechanism": "projection", "rho": 0.05}, trials=60, seed=8)
            reps[n] = rep
        se = reps[100].err2_sd / math.sqrt(60)
        assert reps[400].err2_mean <= reps[100].err2_mean + 3 * se

    def test_rho_must_be_positive(self, small_dataset):
        with pytest.raises(ValueError):
            projection_mechanism(small_dataset, 0.0)

    def test_error_bound_holds_at_moderate_scale(self):
        # smaller sibling of the acceptance check
        from meanpoint.bounds import projection_error_bound
        u = harness.gen_random_sphere(16, 40, radius=1.0, seed=9)
        d = harness.gen_dataset(u, 400, seed=10)
        bound = projection_error_bound(u, 400, 0.5, width_samples=50_000,
                                       seed=11)
        rep = harness.measure_error(
            d, {"mechanism": "projection", "rho": 0.5}, trials=100, seed=12)
        assert rep.err2_mean <= 1.1 * bound


class TestCoarseProjection:
    def test_identity_cover_matches_projection_bitwise(self, small_dataset):
        # alpha small enough that the separated set keeps every point
        plain = projection_mechanism(small_dataset, 2.0, seed=13)
        coarse = coarse_projection_mechanism(small_dataset, 2.0, 1e-6, seed=13)
        assert coarse.trace["cover_size"] == small_dataset.universe.size
        assert np.array_equal(plain.estimate, coarse.estimate)

    def test_zero_noise_error_within_rounding_floor(self, small_dataset):
        alpha = 0.4
        out = coarse_projection_mechanism(small_dataset, 1e9, alpha, seed=14)
        assert norm_err(out, small_dataset) <= alpha / 2 + 1e-3

    def test_budget_ledger(self, small_dataset):
        out = coarse_projection_mechanism(small_dataset, 0.7, 0.3, seed=15)
        assert out.budget_consumed == PrivacyBudget.zcdp(0.7)


class TestChainingMechanism:
    def test_single_level_reduces_to_projection_on_cover(self, small_dataset):
        u = small_dataset.universe
        out = chaining_mechanism(small_dataset, 1.5, 1.0, seed=16)
        sep = greedy_separated_set(u, 0.5)
        # same budget, same seed, rounded dataset over the half-scale cover
        from meanpoint.geometry import nearest_point_map
        centers = u.points[sep]
        rounded = Dataset(
            universe=Universe(points=centers),
            indices=nearest_point_map(u, centers, Norm.L2)[small_dataset.indices])
        direct = projection_mechanism(rounded, 1.5, seed=16)
        assert np.array_equal(out.estimate, direct.estimate)

    def test_zero_noise_error_within_remainder(self, small_dataset):
        alpha = 0.5
        out = chaining_mechanism(small_dataset, 1e9, alpha, seed=17)
        k = out.trace["k"]
        assert norm_err(out, small_dataset) <= alpha / 2 + k * 1e-3

    def test_budget_ledger_exact(self, small_dataset):
        out = chaining_mechanism(small_dataset, 0.9, 0.2, seed=18)
        assert out.budget_consumed == PrivacyBudget.zcdp(0.9)
        assert out.trace["k"] == math.ceil(math.log2(2 / 0.2))

    def test_seed_determinism(self, small_dataset):
        a = chaining_mechanism(small_dataset, 0.4, 0.3, seed=19)
        b = chaining_mechanism(small_dataset, 0.4, 0.3, seed=19)
        assert np.array_equal(a.estimate, b.estimate)

    def test_interior_targets_certify_quickly(self):
        # The level-0 target lies inside its hull, where the duality gap
        # bottoms out at its own rounding; the solver must stop there
        # rather than run to its iteration cap.
        d = harness.gen_dataset(harness.gen_marginals2(8), 1000, seed=1)
        out = chaining_mechanism(d, 0.5, 0.1, seed=0)
        for level in out.trace["levels"]:
            assert level["projection_certified"] is True
            assert level["projection_iterations"] < 200


AUDIT_UNIVERSES = {
    "marginals2": lambda: harness.gen_marginals2(6),
    "cone": lambda: harness.gen_cone(8, 0.2, density=60, seed=1),
}


class TestSensitivityAudit:
    """Replacing one row of the dataset moves each mean that a release
    noises by at most the sensitivity recorded in its trace."""

    @pytest.fixture(params=sorted(AUDIT_UNIVERSES))
    def dataset(self, request):
        u = AUDIT_UNIVERSES[request.param]()
        return harness.gen_dataset(u, 40, seed=3)

    @staticmethod
    def worst_move(mean_of, d, sensitivity):
        base = mean_of(d)
        worst = 0.0
        for i in (0, 17, 39):
            for row in range(d.universe.size):
                idx = d.indices.copy()
                idx[i] = row
                moved = mean_of(Dataset(universe=d.universe, indices=idx))
                worst = max(worst, float(np.linalg.norm(moved - base)))
        assert worst <= sensitivity * (1 + 1e-9)
        return worst

    def test_projection(self, dataset):
        out = projection_mechanism(dataset, 0.5, seed=0)
        assert self.worst_move(Dataset.mean, dataset,
                               out.trace["sensitivity"]) > 0

    def test_coarse(self, dataset):
        out = coarse_projection_mechanism(dataset, 0.5, 0.25, seed=0)
        centers, rounding = coarse_rounding(dataset.universe, 0.25)

        def rounded_mean(e):
            return Dataset(universe=centers, indices=rounding[e.indices]).mean()

        assert self.worst_move(rounded_mean, dataset,
                               out.trace["sensitivity"]) > 0

    def test_chaining_levels(self, dataset):
        out = chaining_mechanism(dataset, 0.5, 0.25, seed=0)
        dec = chaining_decomposition(dataset.universe, 0.25)
        levels = out.trace["levels"]
        assert len(levels) == dec.k
        # A level with a single component has sensitivity 0 and never moves.
        moves = [self.worst_move(lambda e: level_dataset(e, dec, j).mean(),
                                 dataset, level["sensitivity"])
                 for j, level in enumerate(levels)]
        assert max(moves) > 0


class TestDecomposeAndRun:
    def test_two_level_ledger(self, small_dataset):
        dec = chaining_decomposition(small_dataset.universe, 0.6)
        assert dec.k == 2
        out = decompose_and_run(small_dataset, dec, projection_mechanism,
                                0.75, seed=21)
        assert out.budget_consumed == PrivacyBudget.zcdp(0.75)

    def test_subadditivity_audit(self, small_universe):
        # combined error at most the sum of level errors, up to MC noise
        d = harness.gen_dataset(small_universe, 80, seed=23)
        dec = chaining_decomposition(small_universe, 0.6)
        from meanpoint.central import level_dataset
        trials = 80
        seeds = as_seed_sequence(24).spawn(trials)
        combined, lvl = [], [[], []]
        for s in seeds:
            out = decompose_and_run(d, dec, projection_mechanism, 0.1,
                                    seed=s)
            combined.append(norm_err(out, d))
            kids = as_seed_sequence(s).spawn(2)
            for j in range(2):
                dj = level_dataset(d, dec, j)
                oj = projection_mechanism(dj, 0.05, seed=kids[j])
                lvl[j].append(norm_err(oj, dj))
        rms = lambda v: math.sqrt(np.mean(np.square(v)))
        se = (np.std(combined) + np.std(lvl[0]) + np.std(lvl[1])) \
            / math.sqrt(trials)
        assert rms(combined) <= rms(lvl[0]) + rms(lvl[1]) + 2 * se


class TestPMW:
    def test_fixed_point_with_zero_noise(self):
        u = harness.gen_thresholds(32)
        d = Dataset(universe=u, indices=np.arange(32))
        out = pmw_mechanism(d, 1e9, seed=25)
        assert float(np.abs(out.estimate - d.mean()).max()) <= 1e-3

    def test_single_round_consumes_exact_budget(self, small_dataset):
        out = pmw_mechanism(small_dataset, 0.3,
                            config=PMWConfig(rounds=1), seed=26)
        assert out.budget_consumed == PrivacyBudget.zcdp(0.3)
        assert out.trace["rounds"] == 1

    def test_default_budget_ledger_exact(self, small_dataset):
        out = pmw_mechanism(small_dataset, 0.7, seed=27)
        assert out.budget_consumed == PrivacyBudget.zcdp(0.7)

    def test_zero_noise_converges_on_thresholds(self):
        u = harness.gen_thresholds(64)
        d = harness.gen_dataset(u, 500, mode="point_mass", index=31, seed=28)
        out = pmw_mechanism(d, 1e9, seed=29)
        assert float(np.abs(out.estimate - d.mean()).max()) <= 0.05

    def test_scaling_against_calibrated_shape(self):
        # calibrate the worst-case-error shape at one size and check the
        # sqrt(n) improvement carries to 4x the data, with generous slack
        from meanpoint.bounds import pmw_error_shape
        u = harness.gen_thresholds(64)
        errs = {}
        for n in (800, 3200):
            d = harness.gen_dataset(u, n, mode="point_mass", index=31, seed=30)
            rep = harness.measure_error(d, {"mechanism": "pmw", "rho": 1.0},
                                        trials=25, seed=31)
            errs[n] = rep.errinf_mean
        scale_const = errs[800] / pmw_error_shape(u, 800, 1.0)
        assert errs[3200] <= 1.3 * scale_const * pmw_error_shape(u, 3200, 1.0)

    def test_seed_determinism(self, small_dataset):
        a = pmw_mechanism(small_dataset, 0.2, seed=32)
        b = pmw_mechanism(small_dataset, 0.2, seed=32)
        assert np.array_equal(a.estimate, b.estimate)


class TestChainingLinf:
    def test_single_level_at_alpha_one(self):
        u = harness.gen_thresholds(16)
        d = harness.gen_dataset(u, 100, seed=33)
        out = chaining_mechanism_linf(d, 0.8, 1.0, seed=34)
        assert out.trace["k"] == 1
        assert out.budget_consumed == PrivacyBudget.zcdp(0.8)

    def test_budget_ledger_exact_across_levels(self):
        u = harness.gen_thresholds(16)
        d = harness.gen_dataset(u, 100, seed=35)
        out = chaining_mechanism_linf(d, 1.1, 0.3, seed=36)
        assert out.trace["k"] == 3
        assert out.budget_consumed == PrivacyBudget.zcdp(1.1)

    def test_zero_noise_error_within_alpha(self):
        u = harness.gen_thresholds(64)
        d = harness.gen_dataset(u, 400, mode="point_mass", index=20, seed=37)
        alpha = 0.5
        out = chaining_mechanism_linf(d, 1e9, alpha, seed=38)
        err = float(np.abs(out.estimate - d.mean()).max())
        assert err <= alpha

    def test_requires_unit_box(self):
        u = Universe(points=np.array([[0.0, 1.4], [1.0, 0.2]]))
        d = Dataset(universe=u, indices=np.array([0, 1]))
        with pytest.raises(ValueError):
            chaining_mechanism_linf(d, 1.0, 0.5, seed=39)


class TestBudgetSplitting:
    def test_uniform_split_sums_exactly(self):
        for rho, k in ((1.0, 3), (0.7, 5), (1e9, 4)):
            parts = split_budget(as_fraction(rho), k)
            assert sum(parts) == as_fraction(rho)
