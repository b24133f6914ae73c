import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from meanpoint import bounds, geometry, harness
from meanpoint.geometry import (Norm, Universe, _nearest, _row_norms,
                                chaining_decomposition, coarse_decomposition,
                                diameter,
                                gaussian_mean_width, greedy_separated_set,
                                packing_number,
                                packing_profile, t_grid,
                                universe_from_csv, universe_to_csv,
                                verify_decomposition)

# Both norms, under the test ids the suite has always printed for them.
BOTH_NORMS = pytest.mark.parametrize(
    "norm", [Norm.L2, Norm.LINF], ids=["Metric.NORMALIZED_L2", "Metric.LINF"])


def _dist(pts, i, j, norm):
    d = pts[i] - pts[j]
    if norm is Norm.L2:
        return float(np.linalg.norm(d)) / math.sqrt(pts.shape[1])
    return float(np.abs(d).max())


def brute_force_max_packing(pts, t, norm):
    """Oracle: largest strictly t-separated subset by subset enumeration."""
    n = len(pts)
    best = 0
    for size in range(n, 0, -1):
        for combo in itertools.combinations(range(n), size):
            if all(_dist(pts, a, b, norm) > t
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

    @pytest.mark.parametrize("name", sorted(harness.MECHANISMS))
    def test_csv_round_trip_gives_equal_reports(self, name):
        # gen_marginals2 builds its points column by column; stored in
        # that order, BLAS summed some dots differently from the same
        # values read back from CSV.
        u = harness.gen_marginals2(8)
        again = universe_from_csv(universe_to_csv(u))
        assert u.points.flags.c_contiguous
        privacy = harness.MECHANISMS[name].privacy
        spec = {"mechanism": name, "alpha": 0.1, privacy: 0.5}
        for n, mode in ((50, "uniform"), (2000, "mixture")):
            generated, read = (harness.measure_error(
                harness.gen_dataset(v, n, mode=mode, seed=7), spec,
                trials=2, seed=11).determinism_hash() for v in (u, again))
            assert generated == read

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
        assert brute_force_max_packing(pts, 0.4, Norm.L2) == 3
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

    @BOTH_NORMS
    def test_cover_duality(self, norm):
        # maximal separated sets are t-covers
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = random_universe(rng)
            scale = norm.unit(u.dim)
            for t in (0.05, 0.2, 0.6):
                centers = u.points[greedy_separated_set(u, t, norm)]
                dist = _row_norms(u.points[:, None, :] - centers[None], norm)
                radius = dist.min(axis=1).max() / scale
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
                    brute_force_max_packing(pts, t, Norm.L2)

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

    @pytest.mark.parametrize("rows_per_block", [1, 2, 0.5, 0.25])
    def test_exact_is_the_same_in_small_blocks(self, monkeypatch,
                                               rows_per_block):
        # The conflict masks are read tile by tile: with one or two rows
        # per tile, or part of a row, pairs in different tiles still
        # conflict and only each row's own entry is exempt.
        rng = np.random.default_rng(9)
        for _ in range(6):
            pts = rng.random((int(rng.integers(2, 9)), 2))
            monkeypatch.setattr(geometry, "BLOCK_ENTRIES",
                                int(rows_per_block * pts.size))
            for t in (0.1, 0.3, 0.5):
                assert packing_number(Universe(points=pts), t) == \
                    brute_force_max_packing(pts, t, Norm.L2)

    def test_exact_cap_enforced(self):
        u = Universe(points=np.random.default_rng(7).random((30, 2)))
        with pytest.raises(ValueError):
            packing_number(u, 0.2)

    def test_profile_monotone_by_nesting(self):
        u = Universe(points=np.random.default_rng(8).random((40, 4)))
        ts = t_grid(0.02, diameter(u, Norm.L2) / Norm.L2.unit(u.dim))
        sizes = packing_profile(u, ts, Norm.L2)
        assert all(sizes[i] >= sizes[i + 1] for i in range(len(sizes) - 1))


class TestNearestPointMap:
    """The rounding inside a decomposition: every point is assigned its
    nearest generator, ties going to the earliest selected."""

    def test_identity_when_centers_are_universe(self):
        # alpha small enough that the separated set keeps every point
        u = Universe(points=np.random.default_rng(9).random((15, 3)))
        dec = coarse_decomposition(u, 1e-6)
        assert np.array_equal(dec.generator_indices[0], np.arange(15))
        assert np.array_equal(dec.assignments[:, 0], np.arange(15))

    def test_midpoint_goes_left(self):
        # One level at raw scale 1/2 selects rows 0 and 1; 0.4 is nearer 0.
        u = Universe(points=np.array([[0.0], [1.0], [0.4], [0.5]]))
        dec = chaining_decomposition(u, 1.0)
        assert list(dec.generator_indices[0]) == [0, 1]
        assert dec.assignments[2, 0] == 0

    def test_tie_breaks_to_lowest_index(self):
        # 0.5 is equidistant from the generators 0 and 1.
        u = Universe(points=np.array([[0.0], [1.0], [0.4], [0.5]]))
        dec = chaining_decomposition(u, 1.0)
        assert list(dec.assignments[:, 0]) == [0, 1, 0, 0]


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


# The chaining levels whose rows are all one point, at alpha 0.1 unless
# the id says otherwise (ROADMAP item 2's table).
PUBLIC_LEVELS = {
    "marginals2_8-L2": (lambda: harness.gen_marginals2(8), Norm.L2, 0.1,
                        [3, 4]),
    "marginals2_8-LINF": (lambda: harness.gen_marginals2(8), Norm.LINF, 0.1,
                          [1, 2, 3, 4]),
    "thresholds64-LINF": (lambda: harness.gen_thresholds(64), Norm.LINF, 0.1,
                          [1, 2, 3, 4]),
    "thresholds64-L2": (lambda: harness.gen_thresholds(64), Norm.L2, 0.1,
                        [4]),
    "thresholds64-L2-alpha0.2": (lambda: harness.gen_thresholds(64), Norm.L2,
                                 0.2, []),
    "sphere-L2": (lambda: harness.gen_random_sphere(20, 500, 1.0, seed=1),
                  Norm.L2, 0.1, [0, 3, 4]),
    "cone-L2": (lambda: harness.gen_cone(64, 0.05, seed=1), Norm.L2, 0.1, []),
}


class TestLive:
    """``Decomposition.live``: a level is live when its rows are not all
    equal."""

    @pytest.mark.parametrize("case", sorted(PUBLIC_LEVELS))
    def test_public_chaining_levels(self, case):
        make, norm, alpha, public = PUBLIC_LEVELS[case]
        dec = chaining_decomposition(make(), alpha, norm)
        assert [j for j, live in enumerate(dec.live) if not live] == public
        for live, lvl in zip(dec.live, dec.levels):
            assert live == (len(np.unique(lvl, axis=0)) > 1)
        assert dec.live is dec.live

    @pytest.mark.parametrize("rows, live", [
        ([[0.25, 0.75, 1.0]], False),
        ([[0.25, 0.75, 1.0]] * 5, False),
        ([[0.0, 0.0]] * 5, False),
        ([[0.0, 0.0]] * 4 + [[0.0, 1e-300]], True),
        ([[0.5]] * 3 + [[-0.5]], True),
    ])
    def test_identity_split_is_live_with_two_distinct_rows(self, rows, live):
        u = Universe(points=np.array(rows))
        assert harness.MECHANISMS["projection"].split(u, None).live == [live]


class TestVerifyDecomposition:
    """``verify_decomposition`` refuses each broken invariant."""

    @staticmethod
    def grid_and_decomposition():
        # A 4x4 grid, all of it in the finest generating set, and row 16
        # within 1e-3 of row 0, so it is no generator and has a remainder.
        g = np.linspace(0.0, 1.0, 4)
        pts = np.array([[a, b] for a in g for b in g] + [[1e-3, 0.0]])
        u = Universe(points=pts)
        dec = chaining_decomposition(u, 0.25, Norm.L2)
        assert 16 not in dec.generator_indices[-1]
        return u, dec

    @staticmethod
    def with_finest_generator(dec, row):
        gen = list(dec.generator_indices)
        gen[-1] = np.append(gen[-1], row)
        return dataclasses.replace(dec, generator_indices=gen)

    def test_repeated_generator_row_is_refused(self):
        u, dec = self.grid_and_decomposition()
        verify_decomposition(u, dec)
        bad = self.with_finest_generator(dec, dec.generator_indices[-1][0])
        with pytest.raises(ValueError, match="generating set 2"):
            verify_decomposition(u, bad)

    # Less than one row per block: the close pair at positions 0 and 16
    # falls in different column tiles of row 0.
    @pytest.mark.parametrize("rows_per_block", [1, 2, 0.5, 0.1])
    def test_close_rows_in_different_blocks_are_refused(self, monkeypatch,
                                                        rows_per_block):
        u, dec = self.grid_and_decomposition()
        bad = self.with_finest_generator(dec, 16)
        rows = bad.generator_indices[-1]
        assert rows[0] == 0 and rows.size == 17
        monkeypatch.setattr(geometry, "BLOCK_ENTRIES",
                            int(rows_per_block * rows.size * u.dim))
        verify_decomposition(u, dec)
        with pytest.raises(ValueError, match="generating set 2"):
            verify_decomposition(u, bad)

    def test_level_past_its_radius_is_refused(self):
        u, dec = self.grid_and_decomposition()
        radii = list(dec.level_radii)
        radii[0] *= 0.5
        with pytest.raises(ValueError, match="level 0 radius"):
            verify_decomposition(u, dataclasses.replace(dec,
                                                        level_radii=radii))

    def test_remainder_past_its_radius_is_refused(self):
        u, dec = self.grid_and_decomposition()
        with pytest.raises(ValueError, match="reconstruction remainder"):
            verify_decomposition(u, dataclasses.replace(
                dec, remainder_radius=5e-4))

    def test_memory_stays_blocked(self):
        # Generating sets of 969 to 1,014 rows at m = 45: a pairwise
        # matrix per set would peak near 25 MB.
        u = harness.gen_marginals2(10)
        dec = chaining_decomposition(u, 0.1)
        tracemalloc.start()
        try:
            verify_decomposition(u, dec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


@BOTH_NORMS
@pytest.mark.parametrize("entries", [1, 7, 60, 200, 10_000])
def test_distance_tiles_keep_the_entry_budget(monkeypatch, norm, entries):
    """Tiles cover the chosen rows' distances once, each tile and its
    gather of rows within a quarter of BLOCK_ENTRIES floats (or one row's
    m): sup-norm tiles hold the untiled floats with a zero band, and
    every L2 value lies within its band of the diff-form square.  The
    tiled nearest centres and diameter are the untiled ones, a tie
    across tiles going to the lowest centre."""
    rng = np.random.default_rng(3)
    a, b, c = rng.random((13, 5)), rng.random((11, 5)), rng.random((9, 5))
    b[7] = b[2]  # equal centres, in different tiles once tiles are narrow
    a[[0, 5]] = b[2]
    rows = np.array([12, 0, 3, 3, 7, 1, 9, 4, 11])
    full = _row_norms(a[:, None, :] - b[None, :, :], norm)
    within = _row_norms(c[:, None, :] - c[None, :, :], norm)
    monkeypatch.setattr(geometry, "BLOCK_ENTRIES", entries)
    got = np.full((len(rows), len(b)), np.nan)
    for tile, cols, g, band in geometry._tiles(a, b, norm, rows):
        height = tile.stop - tile.start
        assert max(g.size, height * a.shape[1]) <= max(entries / 4,
                                                       a.shape[1])
        assert np.isnan(got[tile, cols]).all()
        got[tile, cols] = g
        if norm is Norm.LINF:
            assert band == 0
        else:
            assert (np.abs(g - full[rows][tile, cols] ** 2) <= band).all()
    if norm is Norm.LINF:
        assert got.tobytes() == full[rows].tobytes()
    assert not np.isnan(got).any()
    nearest = _nearest(a, b, norm)
    assert nearest.tolist() == full.argmin(axis=1).tolist()
    assert nearest[[0, 5]].tolist() == [2, 2]
    assert diameter(Universe(points=c), norm) == float(within.max())


@pytest.mark.parametrize("entries", [1, 7, 60, 200, 10_000])
def test_gram_tiles_keep_the_entry_budget(monkeypatch, entries):
    """Gram tiles cover the chosen rows' squared distances once, each
    tile and its gather of rows within a quarter of BLOCK_ENTRIES floats
    (or one row's m), and every entry within its band of the diff form."""
    rng = np.random.default_rng(3)
    a, b = rng.random((13, 5)), rng.random((11, 5))
    rows = np.array([12, 0, 3, 3, 7, 1, 9, 4, 11])
    square = _row_norms(a[rows, None, :] - b[None, :, :], Norm.L2) ** 2
    monkeypatch.setattr(geometry, "BLOCK_ENTRIES", entries)
    seen = np.zeros(square.shape, dtype=int)
    for tile, cols, g, band in geometry._gram_blocks(a, b, rows):
        height = tile.stop - tile.start
        assert max(g.size, height * a.shape[1]) <= max(entries / 4,
                                                       a.shape[1])
        seen[tile, cols] += 1
        assert (np.abs(g - square[tile, cols]) <= band).all()
    assert (seen == 1).all()


def full_table_levels(u, dec):
    """Levels and assignments from every universe row's nearest centre
    at every level, as the decomposition first computed them."""
    pts, gen, k = u.points, dec.generator_indices, dec.k
    proj = [_nearest(pts, pts[g], dec.norm) for g in gen]
    levels = [pts[gen[0]].copy()]
    for j in range(1, k):
        levels.append(pts[gen[j]] - pts[gen[j - 1][proj[j - 1][gen[j]]]])
    assign = np.empty((u.size, k), dtype=int)
    assign[:, k - 1] = proj[k - 1]
    for j in range(k - 2, -1, -1):
        assign[:, j] = proj[j][gen[j + 1][assign[:, j + 1]]]
    return levels, assign


@pytest.mark.parametrize("name", ["marginals2_8", "thresholds64", "sphere"])
@BOTH_NORMS
def test_decomposition_equals_the_full_nearest_table(name, norm):
    u = {"marginals2_8": lambda: harness.gen_marginals2(8),
         "thresholds64": lambda: harness.gen_thresholds(64),
         "sphere": lambda: harness.gen_random_sphere(20, 200, 1.0,
                                                     seed=1)}[name]()
    decs = [chaining_decomposition(u, alpha, norm) for alpha in (0.1, 0.3)]
    if norm is Norm.L2:
        decs += [coarse_decomposition(u, alpha) for alpha in (0.2, 0.5)]
    for dec in decs:
        levels, assign = full_table_levels(u, dec)
        assert dec.assignments.tobytes() == assign.tobytes()
        assert [lv.tobytes() for lv in dec.levels] == \
            [lv.tobytes() for lv in levels]


# Universes of up to 14 points in [0, 1]^m, m <= 5.
_small_universes = st.tuples(st.integers(1, 14), st.integers(1, 5)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))


class TestDecompositionProperties:
    @settings(derandomize=True, database=None, deadline=None)
    @given(_small_universes, st.floats(0.05, 1.0), st.sampled_from(Norm))
    def test_reconstructs_within_radii_and_separates(self, pts, alpha, norm):
        u = Universe(points=pts)
        dec = chaining_decomposition(u, alpha, norm)
        verify_decomposition(u, dec)
        assert dec.assignments.shape == (u.size, dec.k)
        assert dec.live == [len(np.unique(lvl, axis=0)) > 1
                            for lvl in dec.levels]
        coarse = coarse_decomposition(u, alpha)
        verify_decomposition(u, coarse)
        assert coarse.k == 1


class TestDiameterAndSupport:
    def test_singleton_diameter(self):
        assert diameter(Universe(points=np.array([[0.7, 0.1]]))) == 0.0

    def test_two_point_diameters(self):
        u = Universe(points=np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert diameter(u, Norm.L2) == pytest.approx(math.sqrt(2.0))
        assert diameter(u, Norm.LINF) == pytest.approx(1.0)


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
    @BOTH_NORMS
    def test_separated_sets_match_the_scan(self, name, norm):
        u = KERNEL_UNIVERSES[name]()
        scale = norm.unit(u.dim)
        # 0.25 puts pairs of thresholds(32) exactly at distance t.
        for t in (0.05, 0.15, 0.25, 0.3):
            got = greedy_separated_set(u, t, norm)
            want = reference_greedy_extend(u.points, [], np.arange(u.size),
                                           t * scale, norm)
            assert got.tolist() == want, t

    @pytest.mark.parametrize("name", sorted(KERNEL_UNIVERSES))
    @BOTH_NORMS
    def test_packing_profiles_match_the_scan(self, name, norm):
        u = KERNEL_UNIVERSES[name]()
        scale = norm.unit(u.dim)
        ts = t_grid(0.02, diameter(u, norm) / scale)
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
            got = packing_profile(u, grid, norm)
            assert got.tolist() == [want[t] for t in grid]


def _universe_and_level_points(name):
    """A kernel universe's points and those of its chaining levels, whose
    coordinates can be negative."""
    u = KERNEL_UNIVERSES[name]()
    yield u.points
    # The cone leaves the unit sup-norm ball, so it has no LINF chaining.
    norms = (Norm.L2,) if name == "cone" else (Norm.L2, Norm.LINF)
    for norm in norms:
        yield from chaining_decomposition(u, 0.3, norm).levels


@pytest.mark.parametrize("name", sorted(KERNEL_UNIVERSES))
def test_sup_norm_diameter_is_the_pairwise_maximum(name):
    for pts in _universe_and_level_points(name):
        want = max(float(np.abs(pts - row).max()) for row in pts)
        assert diameter(Universe(points=pts), Norm.LINF) == want


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
        linf = chaining_decomposition(u, 0.2, Norm.LINF)
        assert linf is not dec
        assert chaining_decomposition(
            u, 0.2, Norm.LINF, delta_cap=Norm.LINF.unit(u.dim)) is linf
        assert dec.level_universes is dec.level_universes
        prof = bounds.bound_profile(u, Norm.L2, 0.1)
        assert bounds.bound_profile(u, Norm.L2, 0.1) is prof
        assert bounds.bound_profile(u, Norm.LINF, 0.1) is not prof
        coarse = coarse_decomposition(u, 0.3)
        assert coarse_decomposition(u, 0.3) is coarse
        assert coarse_decomposition(u, 0.2) is not coarse

    def test_cached_values_match_a_fresh_universe(self):
        u = harness.gen_random_sphere(6, 80, 1.0, seed=2)
        for norm in Norm:
            first = diameter(u, norm)
            assert diameter(u, norm) == first
        dec = chaining_decomposition(u, 0.1)
        prof = bounds.bound_profile(u, Norm.L2, 0.1)
        coarse = coarse_decomposition(u, 0.3)
        fresh = Universe(points=u.points.copy())
        for norm in Norm:
            assert diameter(fresh, norm) == diameter(u, norm)
        again = chaining_decomposition(fresh, 0.1)
        assert again is not dec
        assert all(np.array_equal(a, b)
                   for a, b in zip(again.levels, dec.levels))
        assert np.array_equal(again.assignments, dec.assignments)
        again_prof = bounds.bound_profile(fresh, Norm.L2, 0.1)
        assert np.array_equal(again_prof.packing, prof.packing)
        assert again_prof.sup_terms == prof.sup_terms
        again_coarse = coarse_decomposition(fresh, 0.3)
        assert np.array_equal(again_coarse.assignments, coarse.assignments)
        assert np.array_equal(again_coarse.levels[0], coarse.levels[0])

    def test_cached_arrays_are_read_only(self):
        u = harness.gen_thresholds(8)
        dec = chaining_decomposition(u, 0.2)
        prof = bounds.bound_profile(u, Norm.L2, 0.1)
        coarse = coarse_decomposition(u, 0.3)
        for a in (*dec.levels, dec.assignments, *dec.generator_indices,
                  prof.ts, prof.packing, *coarse.levels, coarse.assignments):
            assert not a.flags.writeable

    def test_failed_build_is_not_cached(self):
        u = Universe(points=np.array([[5.0, 0.0]]))
        for _ in range(2):
            with pytest.raises(ValueError):
                chaining_decomposition(u, 0.5, Norm.L2, delta_cap=1.0)


# ---------------------------------------------------------------------------
# Tile kernels against their diff-form references: Gram-form L2, and the
# sup norm's exact tiles


def reference_diameter(pts, norm):
    """The diff-form diameter: the largest ``_row_norms(a - b)``."""
    return max(float(_row_norms(pts - row, norm).max()) for row in pts)


def reference_nearest(points, centers, norm):
    """Diff-form nearest centres, ties to the lowest."""
    return [int(_row_norms(centers - p, norm).argmin()) for p in points]


def reference_greedy_cover(pts, raw_ts, norm):
    """The join-by-join diff-form scan each norm's cover must match."""
    live = np.arange(pts.shape[0])
    near = np.full(live.size, np.inf)
    sel, sizes = [], []
    for raw_t in raw_ts:
        free = near > raw_t
        while free.any():
            i = int(live[free.argmax()])
            sel.append(i)
            near = np.minimum(near, _row_norms(pts[live] - pts[i], norm))
            keep = near > raw_ts[-1]
            live, near = live[keep], near[keep]
            free = near > raw_t
        sizes.append(len(sel))
    return sel, sizes


def reference_separated(pts, raw_t, norm):
    return all(float(_row_norms(pts[i] - pts[j], norm)) > raw_t
               for i, j in itertools.combinations(range(len(pts)), 2))


def reference_packing(pts, raw_t, norm):
    """Largest strictly ``raw_t``-separated subset, by enumeration over
    the diff-form floats at a raw scale (``brute_force_max_packing``
    normalises L2 distances, which moves exact ties)."""
    n = len(pts)
    far = _row_norms(pts[:, None, :] - pts[None, :, :], norm) > raw_t
    for size in range(n, 1, -1):
        for combo in itertools.combinations(range(n), size):
            if far[np.ix_(combo, combo)][np.triu_indices(size, 1)].all():
                return size
    return 1


def _tie_heavy_marginals():
    # m = 28; t = 2^-j sqrt(28) puts pairs exactly at t^2 = 28 and 7.
    u = harness.gen_marginals2(8)
    return u.points, [2.0 ** -j * math.sqrt(28) for j in range(5)]


def _thresholds_at_radius_4():
    return harness.gen_thresholds(64).points, [8.0, 4.0, 2.0]


def _duplicate_rows():
    pts = np.random.default_rng(30).random((40, 3))
    pts[[5, 17, 33]] = pts[2]
    pts[20:26] = pts[8:14]
    return pts, [0.4, 0.2, 0.1, 0.05]


def _shifted_sphere():
    # Norms near 1e6 make the band about 0.06 in a squared distance, so
    # it holds many entries.
    pts = harness.gen_random_sphere(6, 80, 1.0, seed=4).points + 1e6
    return pts, [1.0, 0.5, 0.25]


def _shifted_near_ties():
    # Near 1e6 the Gram form errs by about 1e-3 in a squared distance, and
    # these decisions are closer than that: rows 10 to 14 are midpoints of
    # two close centres nudged by 1e-7, and the five antipodal pairs of
    # rows 15 to 24 differ in length by parts in 1e9.
    rng = np.random.default_rng(33)

    def unit(v):
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    c = unit(rng.standard_normal((10, 6)))
    c[1::2] = unit(c[0::2] + 0.2 * rng.standard_normal((5, 6)))
    mids = (c[0::2] + c[1::2]) / 2 + 1e-7 * rng.standard_normal((5, 6))
    poles = unit(rng.standard_normal((5, 6)))
    far = -poles * (1 - 1e-9 * np.arange(5))[:, None]
    pts = np.vstack([c, mids, poles, far]) + 1e6
    return pts, [2.0, 1.0, 0.5, 0.25], pts[:10]


def _huge():
    # Every squared norm overflows, and some squared differences do.
    pts = 1e154 * (1.0 + np.random.default_rng(31).random((30, 4)))
    return pts, [2e154, 1e154, 5e153]


def _thresholds_at_the_unit():
    # Every sup distance is 0 or 1, so t = 1 ties every pair and a row
    # outside the centres ties with all of them.
    return harness.gen_thresholds(64).points, [1.0, 0.5, 0.25]


def _quarter_grid():
    # Sup distances are multiples of 1/4, so they hit the scales.
    pts = np.random.default_rng(34).integers(0, 5, (600, 8)) / 4
    return pts, [0.75, 0.5, 0.25], pts[::10]


# name: (case, norm); a case gives points, descending raw scales and
# optionally centres (every third point by default).
TILE_CASES = {"marginals2_8": (_tie_heavy_marginals, Norm.L2),
              "thresholds64": (_thresholds_at_radius_4, Norm.L2),
              "duplicates": (_duplicate_rows, Norm.L2),
              "shifted_sphere": (_shifted_sphere, Norm.L2),
              "shifted_near_ties": (_shifted_near_ties, Norm.L2),
              "huge": (_huge, Norm.L2),
              "thresholds64_linf": (_thresholds_at_the_unit, Norm.LINF),
              "quarter_grid_linf": (_quarter_grid, Norm.LINF),
              "duplicates_linf": (_duplicate_rows, Norm.LINF)}


@pytest.fixture(scope="module")
def tile_references():
    out = {}
    for name, (make, norm) in TILE_CASES.items():
        pts, ts, *centers = make()
        centers = centers[0] if centers else pts[::3]
        unit = norm.unit(pts.shape[1])
        sep = pts[greedy_separated_set(Universe(points=pts), ts[1] / unit,
                                       norm)]
        # The set's least distance, and the float below it: a tie fails.
        least = min(float(_row_norms(a - b, norm))
                    for a, b in itertools.combinations(sep, 2))
        sep_ts = [*ts, least, float(np.nextafter(least, 0))]
        # Exact packing on ten rows, at the same scales in units of the
        # norm; rows 2 and 5 of the duplicates are equal.
        pack_ts = [t / unit for t in sep_ts]
        out[name] = dict(
            pts=pts, ts=ts, norm=norm, centers=centers, sep=sep,
            sep_ts=sep_ts, pack_ts=pack_ts,
            diameter=reference_diameter(pts, norm),
            nearest=reference_nearest(pts, centers, norm),
            covers=[reference_greedy_cover(pts, ts, norm),
                    reference_greedy_cover(pts, ts[1:2], norm)],
            separated=[reference_separated(sep, t, norm) for t in sep_ts],
            packing=[reference_packing(pts[:10], t * unit, norm)
                     for t in pack_ts])
    return out


@pytest.mark.parametrize("entries", [1, 7, 60, 10_000])
@pytest.mark.parametrize("name", sorted(TILE_CASES))
def test_gram_kernels_equal_the_diff_form(tile_references, monkeypatch,
                                          name, entries):
    ref = tile_references[name]
    pts, ts, norm = ref["pts"], ref["ts"], ref["norm"]
    monkeypatch.setattr(geometry, "BLOCK_ENTRIES", entries)
    assert diameter(Universe(points=pts), norm) == ref["diameter"]
    assert _nearest(pts, ref["centers"], norm).tolist() == ref["nearest"]
    for want, scales in zip(ref["covers"], [ts, ts[1:2]]):
        sel, sizes = geometry._greedy_cover(pts, scales, norm)
        assert (sel.tolist(), sizes) == want
    assert [geometry._separated(ref["sep"], t, norm)
            for t in ref["sep_ts"]] == ref["separated"]
    ten = Universe(points=pts[:10])
    assert [packing_number(ten, t, norm)
            for t in ref["pack_ts"]] == ref["packing"]


@pytest.mark.parametrize("entries", [7, 10_000])
def test_cover_decisions_at_exact_ties(monkeypatch, entries):
    """At scales equal to diff-form distances between rows near 1e6,
    where the Gram form errs by about 1e-3, the L2 cover's conflicts and
    covered counts are the diff form's."""
    pts = harness.gen_random_sphere(6, 40, 1.0, seed=5).points + 1e6
    d = np.array([_row_norms(pts - row, Norm.L2) for row in pts])
    below = np.tri(len(pts), k=-1, dtype=bool)
    # The cover passes at most isqrt(BLOCK_ENTRIES) joined rows.
    joined = min(5, math.isqrt(entries))
    nearest = d[:, :joined].min(axis=1)
    ts = np.unique(np.concatenate([d[below][::53], nearest[joined::4]]))
    monkeypatch.setattr(geometry, "BLOCK_ENTRIES", entries)
    for t in ts:
        got = geometry._conflicts(pts, t, Norm.L2)
        assert (got[below] == (d <= t)[below]).all()
    covered = geometry._scales_covering(pts, np.arange(len(pts)),
                                        pts[:joined], ts,
                                        geometry._squared(ts))
    assert covered.tolist() == (nearest[:, None] <= ts).sum(axis=1).tolist()


def _recomputed(monkeypatch, run):
    """How many pairs ``run`` sends to the diff form."""
    checked = []
    real = geometry._pair_norms

    def counting(a, b, r, c, norm):
        checked.append(len(r))
        return real(a, b, r, c, norm)

    monkeypatch.setattr(geometry, "_pair_norms", counting)
    run()
    return sum(checked)


def test_the_band_sends_entries_to_the_diff_form(monkeypatch):
    """The greedy cover decides every pair of the unit sphere by its Gram
    value, but shifted to norms near 1e6 the band holds some of them;
    past overflow the diameter recomputes every pair."""
    pts, ts = _shifted_sphere()
    unit = harness.gen_random_sphere(6, 80, 1.0, seed=4).points
    counts = [_recomputed(monkeypatch, lambda: geometry._greedy_cover(
        p, ts, Norm.L2)) for p in (unit, pts)]
    assert counts[0] == 0 and counts[1] > 0
    pts, _ = _huge()
    assert _recomputed(monkeypatch, lambda: diameter(
        Universe(points=pts))) == len(pts) ** 2
