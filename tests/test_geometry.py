import itertools
import math

import numpy as np
import pytest

from meanpoint import bounds, harness
from meanpoint.geometry import (Metric, Norm, Universe, _metric_factor,
                                _row_norms, chaining_decomposition,
                                coarse_rounding, diameter,
                                gaussian_mean_width, greedy_separated_set,
                                metric_diameter,
                                nearest_point_map, packing_number,
                                packing_profile, support_function, t_grid,
                                universe_from_csv, universe_to_csv,
                                verify_decomposition)


def _metric_dist(pts, i, j, metric):
    d = pts[i] - pts[j]
    if metric is Metric.NORMALIZED_L2:
        return float(np.linalg.norm(d)) / math.sqrt(pts.shape[1])
    return float(np.abs(d).max())


def brute_force_max_packing(pts, t, metric):
    """Oracle: largest strictly t-separated subset by subset enumeration."""
    n = len(pts)
    best = 0
    for size in range(n, 0, -1):
        for combo in itertools.combinations(range(n), size):
            if all(_metric_dist(pts, a, b, metric) > t
                   for a, b in itertools.combinations(combo, 2)):
                return size
        if best:
            break
    return 1


def reference_greedy_extend(pts, selected, candidates, raw_t, norm):
    """The candidate-by-candidate scan that the cover kernel must match."""
    sel = list(selected)
    for i in candidates:
        i = int(i)
        if not sel:
            sel.append(i)
            continue
        d = _row_norms(pts[sel] - pts[i], norm)
        if bool((d > raw_t).all()):
            sel.append(i)
    return sel


def random_universe(rng, max_m=6, max_size=30):
    m = int(rng.integers(1, max_m + 1))
    size = int(rng.integers(1, max_size + 1))
    return Universe(points=rng.random((size, m)))


class TestUniverse:
    def test_validation(self):
        with pytest.raises(ValueError):
            Universe(points=np.zeros((0, 2)))
        with pytest.raises(ValueError):
            Universe(points=np.array([[np.nan, 0.0]]))

    def test_unit_box_flag(self):
        assert Universe(points=np.array([[0.0, 1.0]])).in_unit_box
        assert not Universe(points=np.array([[0.0, 1.2]])).in_unit_box
        assert not Universe(points=np.array([[-0.1, 0.5]])).in_unit_box

    def test_csv_round_trip_is_lossless(self):
        rng = np.random.default_rng(0)
        u = Universe(points=rng.random((7, 3)) * 1e-3 + 1 / 3)
        again = universe_from_csv(universe_to_csv(u))
        assert np.array_equal(u.points, again.points)

    def test_csv_header_required(self):
        with pytest.raises(ValueError):
            universe_from_csv("0.1,0.2\n")


class TestGreedySeparatedSet:
    def test_singleton_any_scale(self):
        u = Universe(points=np.array([[0.4, 0.4]]))
        assert greedy_separated_set(u, 5.0).size == 1

    def test_unit_box_collapses_at_t_one(self):
        # packing number is 1 at any t >= 1 for a [0,1]^m universe
        rng = np.random.default_rng(1)
        for _ in range(5):
            u = random_universe(rng)
            for t in (1.0, 1.5):
                assert greedy_separated_set(u, t).size == 1

    def test_three_point_line_frozen(self):
        # exhaustive oracle confirms 3 is the max strictly-0.4-separated size
        pts = np.array([[0.0], [0.5], [1.0]])
        u = Universe(points=pts)
        assert brute_force_max_packing(pts, 0.4, Metric.NORMALIZED_L2) == 3
        s = greedy_separated_set(u, 0.4)
        assert list(s) == [0, 1, 2]

    def test_strict_separation_excludes_equality(self):
        # pair at distance exactly t must not count as separated
        u = Universe(points=np.array([[0.0], [0.5]]))
        assert greedy_separated_set(u, 0.5).size == 1

    def test_invalid_scale_and_order(self):
        u = Universe(points=np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            greedy_separated_set(u, 0.0)

    @pytest.mark.parametrize("metric", [Metric.NORMALIZED_L2, Metric.LINF])
    def test_cover_duality(self, metric):
        # maximal separated sets are t-covers
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = random_universe(rng)
            norm, scale = _metric_factor(metric, u.dim)
            for t in (0.05, 0.2, 0.6):
                centers = u.points[greedy_separated_set(u, t, metric)]
                nearest = centers[nearest_point_map(u, centers, norm)]
                radius = _row_norms(u.points - nearest, norm).max() / scale
                assert radius <= t + 1e-12


class TestPackingNumber:
    def test_two_points_exact(self):
        u = Universe(points=np.array([[0.0], [0.5]]))
        assert packing_number(u, 0.6) == 1
        assert packing_number(u, 0.4) == 2

    def test_exact_matches_enumeration_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            pts = rng.random((int(rng.integers(2, 9)), 2))
            u = Universe(points=pts)
            for t in (0.1, 0.3, 0.5):
                assert packing_number(u, t) == \
                    brute_force_max_packing(pts, t, Metric.NORMALIZED_L2)

    def test_greedy_at_most_exact(self):
        rng = np.random.default_rng(5)
        for seed in range(20):
            pts = np.random.default_rng(seed).random((12, 3))
            u = Universe(points=pts)
            t = float(rng.uniform(0.05, 0.6))
            assert greedy_separated_set(u, t).size <= packing_number(u, t)

    def test_exact_non_increasing_in_t(self):
        u = Universe(points=np.random.default_rng(6).random((10, 2)))
        ts = [0.05, 0.1, 0.2, 0.4, 0.8]
        vals = [packing_number(u, t) for t in ts]
        assert vals == sorted(vals, reverse=True)

    def test_exact_cap_enforced(self):
        u = Universe(points=np.random.default_rng(7).random((30, 2)))
        with pytest.raises(ValueError):
            packing_number(u, 0.2)

    def test_profile_monotone_by_nesting(self):
        u = Universe(points=np.random.default_rng(8).random((40, 4)))
        ts = t_grid(0.02, metric_diameter(u, Metric.NORMALIZED_L2))
        sizes = packing_profile(u, ts, Metric.NORMALIZED_L2)
        assert all(sizes[i] >= sizes[i + 1] for i in range(len(sizes) - 1))


class TestNearestPointMap:
    def test_identity_when_centers_are_universe(self):
        u = Universe(points=np.random.default_rng(9).random((15, 3)))
        idx = nearest_point_map(u, u.points)
        assert np.array_equal(idx, np.arange(15))

    def test_midpoint_goes_left(self):
        u = Universe(points=np.array([[0.4]]))
        assert nearest_point_map(u, np.array([[0.0], [1.0]]))[0] == 0

    def test_tie_breaks_to_lowest_index(self):
        u = Universe(points=np.array([[0.5]]))
        assert nearest_point_map(u, np.array([[0.0], [1.0]]))[0] == 0

    def test_empty_centers_rejected(self):
        u = Universe(points=np.array([[0.5]]))
        with pytest.raises(ValueError):
            nearest_point_map(u, np.zeros((0, 1)))


class TestChainingDecomposition:
    def test_level_count_formula(self):
        u = Universe(points=np.random.default_rng(10).random((12, 2)))
        assert chaining_decomposition(u, 1.0).k == 1
        for alpha in (0.5, 0.25, 0.1, 0.03):
            dec = chaining_decomposition(u, alpha)
            assert dec.k == math.ceil(math.log2(2.0 / alpha))

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            u = random_universe(rng)
            dec = chaining_decomposition(u, 0.2)
            res = dec.remainders(u)
            tol = 1e-9 * math.sqrt(u.dim)
            assert np.linalg.norm(res, axis=1).max() <= dec.remainder_radius + tol

    def test_grid_universe_invariants(self):
        # 3x3 grid in [0,1]^2, all invariants via the checker
        g = np.linspace(0.0, 1.0, 3)
        pts = np.array([[a, b] for a in g for b in g])
        u = Universe(points=pts)
        dec = chaining_decomposition(u, 0.25, Norm.L2)
        verify_decomposition(u, dec)
        for j, r in enumerate(dec.level_radii):
            assert r == pytest.approx(2.0 ** (-j) * dec.delta)

    def test_linf_variant(self):
        u = Universe(points=np.random.default_rng(12).random((20, 3)))
        dec = chaining_decomposition(u, 0.3, Norm.LINF, delta_cap=1.0)
        verify_decomposition(u, dec)
        assert dec.delta == 1.0

    def test_alpha_range_checked(self):
        u = Universe(points=np.array([[0.5]]))
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                chaining_decomposition(u, bad)

    def test_ball_containment_checked(self):
        u = Universe(points=np.array([[5.0, 0.0]]))
        with pytest.raises(ValueError):
            chaining_decomposition(u, 0.5, Norm.L2, delta_cap=1.0)


class TestDiameterAndSupport:
    def test_singleton_diameter(self):
        assert diameter(Universe(points=np.array([[0.7, 0.1]]))) == 0.0

    def test_two_point_diameters(self):
        u = Universe(points=np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert diameter(u, Norm.L2) == pytest.approx(math.sqrt(2.0))
        assert diameter(u, Norm.LINF) == pytest.approx(1.0)

    def test_support_zero_direction(self):
        u = Universe(points=np.random.default_rng(14).random((5, 3)))
        assert support_function(u, np.zeros(3)) == 0.0

    def test_support_basis_direction(self):
        u = Universe(points=np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert support_function(u, np.array([1.0, 0.0])) == 1.0

    def test_support_symmetric_pair(self):
        u = Universe(points=np.array([[-1.0], [1.0]]))
        for z in (-2.3, 0.4, 1.7):
            assert support_function(u, np.array([z])) == pytest.approx(abs(z))


class TestGaussianMeanWidth:
    def test_singleton_origin_is_exact_zero(self):
        est = gaussian_mean_width(Universe(points=np.array([[0.0, 0.0]])),
                                  samples=100, seed=0)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_symmetric_pair_closed_form(self):
        # E max(Z, -Z) = E|Z| = sqrt(2/pi)
        u = Universe(points=np.array([[-1.0], [1.0]]))
        est = gaussian_mean_width(u, samples=100_000, seed=1)
        assert abs(est.value - math.sqrt(2.0 / math.pi)) <= 3 * est.std_error

    def test_shift_leaves_width_unchanged_within_noise(self):
        rng = np.random.default_rng(15)
        pts = rng.random((20, 4))
        a = gaussian_mean_width(Universe(points=pts), samples=50_000, seed=2)
        b = gaussian_mean_width(Universe(points=pts + 0.37), samples=50_000,
                                seed=3)
        assert abs(a.value - b.value) <= 3 * (a.std_error + b.std_error)

    def test_seed_reproducibility_is_bitwise(self):
        u = Universe(points=np.random.default_rng(16).random((9, 3)))
        a = gaussian_mean_width(u, samples=2_000, seed=5)
        b = gaussian_mean_width(u, samples=2_000, seed=5)
        assert a == b


class TestTGrid:
    def test_endpoints_included(self):
        ts = t_grid(0.1, 1.0)
        assert ts[0] == pytest.approx(0.1)
        assert ts[-1] == 1.0

    def test_empty_when_range_inverted(self):
        assert t_grid(0.5, 0.1).size == 0

    def test_single_point_when_equal(self):
        ts = t_grid(0.3, 0.3)
        assert list(ts) == [0.3]


KERNEL_UNIVERSES = {
    "sphere": lambda: harness.gen_random_sphere(8, 300, 1.0, seed=0),
    "thresholds": lambda: harness.gen_thresholds(32),
    "marginals2": lambda: harness.gen_marginals2(6),
    "cone": lambda: harness.gen_cone(8, 0.2, density=60, seed=1),
}


class TestCoverMaskKernel:
    """The cover kernel selects exactly what the plain scan does."""

    @pytest.mark.parametrize("name", sorted(KERNEL_UNIVERSES))
    @pytest.mark.parametrize("metric", [Metric.NORMALIZED_L2, Metric.LINF])
    def test_separated_sets_match_the_scan(self, name, metric):
        u = KERNEL_UNIVERSES[name]()
        norm, scale = _metric_factor(metric, u.dim)
        # 0.25 puts pairs of thresholds(32) exactly at distance t.
        for t in (0.05, 0.15, 0.25, 0.3):
            got = greedy_separated_set(u, t, metric)
            want = reference_greedy_extend(u.points, [], np.arange(u.size),
                                           t * scale, norm)
            assert got.tolist() == want, t

    @pytest.mark.parametrize("name", sorted(KERNEL_UNIVERSES))
    @pytest.mark.parametrize("metric", [Metric.NORMALIZED_L2, Metric.LINF])
    def test_packing_profiles_match_the_scan(self, name, metric):
        u = KERNEL_UNIVERSES[name]()
        norm, scale = _metric_factor(metric, u.dim)
        ts = t_grid(0.02, metric_diameter(u, metric))
        # 0.25 puts pairs of thresholds(32) exactly at distance t; the
        # profile takes its scales in any order.
        for grid in (ts, np.sort(np.append(ts, 0.25)),
                     np.random.default_rng(7).permutation(ts)):
            sel, want = [], {}
            for t in sorted(grid, reverse=True):
                sel = reference_greedy_extend(u.points, sel,
                                              np.arange(u.size), t * scale,
                                              norm)
                want[t] = len(sel)
            got = packing_profile(u, grid, metric)
            assert got.tolist() == [want[t] for t in grid]


class TestPreprocessingCache:
    def test_points_are_read_only(self):
        u = Universe(points=np.random.default_rng(20).random((6, 2)))
        with pytest.raises(ValueError):
            u.points[0, 0] = 0.5

    def test_caller_array_is_copied(self):
        pts = np.random.default_rng(21).random((6, 2))
        u = Universe(points=pts)
        pts[0, 0] = 9.0
        assert u.points[0, 0] != 9.0
        assert pts.flags.writeable

    def test_second_call_returns_the_cached_object(self):
        u = harness.gen_marginals2(5)
        dec = chaining_decomposition(u, 0.2)
        assert chaining_decomposition(u, 0.2) is dec
        assert chaining_decomposition(u, 0.2, Norm.L2,
                                      delta_cap=math.sqrt(u.dim)) is dec
        assert chaining_decomposition(u, 0.2, Norm.LINF) is not dec
        assert dec.level_universes is dec.level_universes
        prof = bounds.bound_profile(u, Metric.NORMALIZED_L2, 0.1)
        assert bounds.bound_profile(u, Metric.NORMALIZED_L2, 0.1) is prof
        assert bounds.bound_profile(u, Metric.LINF, 0.1) is not prof
        rounding = coarse_rounding(u, 0.3)
        assert coarse_rounding(u, 0.3) is rounding

    def test_cached_values_match_a_fresh_universe(self):
        u = harness.gen_random_sphere(6, 80, 1.0, seed=2)
        for norm in Norm:
            first = diameter(u, norm)
            assert diameter(u, norm) == first
        dec = chaining_decomposition(u, 0.1)
        prof = bounds.bound_profile(u, Metric.NORMALIZED_L2, 0.1)
        rounding = coarse_rounding(u, 0.3)
        fresh = Universe(points=u.points.copy())
        for norm in Norm:
            assert diameter(fresh, norm) == diameter(u, norm)
        again = chaining_decomposition(fresh, 0.1)
        assert again is not dec
        assert all(np.array_equal(a, b)
                   for a, b in zip(again.levels, dec.levels))
        assert np.array_equal(again.assignments, dec.assignments)
        again_prof = bounds.bound_profile(fresh, Metric.NORMALIZED_L2, 0.1)
        assert np.array_equal(again_prof.packing, prof.packing)
        assert again_prof.sup_terms == prof.sup_terms
        centers, rounding_map = rounding
        again_centers, again_map = coarse_rounding(fresh, 0.3)
        assert np.array_equal(again_map, rounding_map)
        assert np.array_equal(again_centers.points, centers.points)

    def test_cached_arrays_are_read_only(self):
        u = harness.gen_thresholds(8)
        dec = chaining_decomposition(u, 0.2)
        prof = bounds.bound_profile(u, Metric.NORMALIZED_L2, 0.1)
        centers, rounding = coarse_rounding(u, 0.3)
        for a in (*dec.levels, dec.assignments, *dec.generator_indices,
                  prof.ts, prof.packing, centers.points, rounding):
            assert not a.flags.writeable

    def test_failed_build_is_not_cached(self):
        u = Universe(points=np.array([[5.0, 0.0]]))
        for _ in range(2):
            with pytest.raises(ValueError):
                chaining_decomposition(u, 0.5, Norm.L2, delta_cap=1.0)
