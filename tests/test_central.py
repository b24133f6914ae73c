import math
import sys
import tracemalloc

import numpy as np
import pytest

from meanpoint import central, geometry, harness, hull, local, privacy
from meanpoint.central import (PMW_ROUND_CAP, Dataset, as_seed_sequence,
                               decompose_and_run, level_dataset,
                               pmw_mechanism, projection_mechanism)
from meanpoint.geometry import (Norm, Universe, chaining_decomposition,
                                coarse_decomposition, gaussian_mean_width,
                                greedy_separated_set)
from meanpoint.privacy import PrivacyBudget, as_fraction


@pytest.fixture
def small_universe():
    return Universe(points=np.random.default_rng(0).random((20, 6)))


@pytest.fixture
def small_dataset(small_universe):
    return harness.gen_dataset(small_universe, 60, seed=1)


def from_rows(u, rows):
    """The dataset holding the universe rows ``rows``, as its counts."""
    return Dataset(universe=u, counts=np.bincount(rows, minlength=u.size))


def release(name, d, rho, alpha, seed):
    """One release of the ``harness.MECHANISMS`` row ``name``."""
    spec = {"mechanism": name, "rho": rho, "alpha": alpha}
    return harness.make_mechanism(spec)(d, seed)


def norm_err(out, d):
    e = out.estimate - d.mean()
    return float(np.linalg.norm(e)) / math.sqrt(d.universe.dim)


def projection_error_bound(u, n, rho, width_samples, seed):
    """Average-error bound for the projection mechanism at size n:
    (delta * width / (n * sqrt(2 rho m)))^(1/2) with the width estimated
    by Monte Carlo and delta = max ||x|| / sqrt(m)."""
    m = u.dim
    delta = float(np.linalg.norm(u.points, axis=1).max()) / math.sqrt(m)
    width = gaussian_mean_width(u, samples=width_samples, seed=seed)
    inner = delta * max(width.value, 0.0) / (n * math.sqrt(2.0 * rho * m))
    return math.sqrt(max(inner, 0.0))


def pmw_error_shape(u, n, rho):
    """Worst-case-error shape for multiplicative weights at size n:
    delta * (log|X|)^(1/4) * (log m)^(1/2) / (rho^(1/4) * sqrt(n)),
    constant-free (calibrate once, then compare scalings)."""
    delta = float(np.abs(u.points).max())
    logm = math.log(max(u.dim, 2))
    return (delta * math.log(max(u.size, 2)) ** 0.25 * math.sqrt(logm)
            / (rho ** 0.25 * math.sqrt(n)))


def pmw_reference(d, rho, alpha, seed=None):
    """Multiplicative weights as a plain per-round loop, two
    ``rng.normal`` calls a round: ``pmw_mechanism`` must match it bit
    for bit, and so must a public level's fold."""
    u = d.universe
    pts = u.points
    size, m = pts.shape
    coord_bound = float(np.abs(pts).max())
    rounds = math.ceil(min(4.0 * math.log(max(size, 2))
                           / max(alpha ** 2, sys.float_info.min),
                           PMW_ROUND_CAP))
    eta = alpha / (4.0 * max(coord_bound, 1e-12))
    rho_round = as_fraction(rho) / rounds
    rho_select = rho_round / 2
    rho_answer = rho_round - rho_select
    select_sigma = privacy.gaussian_sigma_for_zcdp(
        math.sqrt(2.0) * privacy.mean_sensitivity(u, d.n), rho_select)
    answer_sigma = privacy.gaussian_sigma_for_zcdp(
        geometry.diameter(u, Norm.LINF) / d.n, rho_answer)
    target = d.mean()
    rng = np.random.default_rng(seed)
    weights = np.full(size, 1.0 / size)
    for _ in range(rounds):
        synthetic = weights @ pts
        gap = target - synthetic
        scores = np.concatenate([gap, -gap])
        scores = scores + rng.normal(0.0, select_sigma, size=2 * m)
        coord = int(scores.argmax()) % m
        answer = float(target[coord]) + float(rng.normal(0.0, answer_sigma))
        shift = answer - float(synthetic[coord])
        if shift != 0.0:
            weights = weights * np.exp(eta * math.copysign(1.0, shift)
                                       * pts[:, coord])
            weights = weights / weights.sum()
    trace = {"mechanism": "pmw", "rounds": rounds, "eta": eta,
             "coord_bound": coord_bound, "selection_sigma": select_sigma,
             "answer_sigma": answer_sigma}
    return central.MechanismOutput(
        estimate=weights @ pts,
        budget_consumed=PrivacyBudget.zcdp((rho_select + rho_answer)
                                           * rounds),
        trace=trace)


def projection_reference(d, rho, seed=None):
    """The projection mechanism as a plain sequence that always draws
    its noise and calls the hull, also on a one-point universe."""
    u = d.universe
    sensitivity = privacy.mean_sensitivity(u, d.n)
    sigma = privacy.gaussian_sigma_for_zcdp(sensitivity, rho)
    rng = np.random.default_rng(seed)
    noisy = d.mean() + rng.normal(0.0, sigma, size=u.dim)
    proj = hull.project_onto_hull(noisy, u.points)
    trace = {"mechanism": "projection", "sigma": sigma,
             "sensitivity": sensitivity,
             "projection_iterations": proj.iterations,
             "projection_gap": proj.gap,
             "projection_certified": proj.certified}
    return central.MechanismOutput(estimate=proj.point,
                                   budget_consumed=PrivacyBudget.zcdp(rho),
                                   trace=trace)


def assert_same_release(out, ref):
    assert out.estimate.tobytes() == ref.estimate.tobytes()
    assert out.trace == ref.trace
    assert out.budget_consumed == ref.budget_consumed


# The level trace of a level whose rows are all one point.
PUBLIC_TRACE = {"mechanism": "public", "sigma": 0.0, "sensitivity": 0.0}


def force_live(patch):
    """Make every split level live, so each runs its level mechanism."""
    patch.setattr(geometry.Decomposition, "live",
                  property(lambda dec: [True] * dec.k))


# Universes of the reference grid: 0/1 rows with and without zero
# offset levels under the sup norm, and a cone off the unit box.
ORACLE_UNIVERSES = {
    "thresholds8": lambda: harness.gen_thresholds(8),
    "thresholds64": lambda: harness.gen_thresholds(64),
    "marginals2_4": lambda: harness.gen_marginals2(4),
    "marginals2_8": lambda: harness.gen_marginals2(8),
    "cone": lambda: harness.gen_cone(6, 0.2, density=15, seed=3),
}


class TestDataset:
    def test_counts_is_the_one_keyword_only_form(self, small_universe):
        counts = np.ones(small_universe.size)
        for kwargs in ({}, {"indices": np.arange(small_universe.size)},
                       {"indices": np.arange(small_universe.size),
                        "counts": counts}):
            with pytest.raises(TypeError):
                Dataset(universe=small_universe, **kwargs)
        # One row per party, passed positionally, is not read as counts.
        with pytest.raises(TypeError):
            Dataset(small_universe, counts)

    def test_mean_is_average_of_rows(self, small_universe):
        d = from_rows(small_universe, [0, 0, 3])
        expected = (2 * small_universe.points[0] + small_universe.points[3]) / 3
        assert np.allclose(d.mean(), expected)


COUNT_UNIVERSES = {
    "thresholds64": lambda: harness.gen_thresholds(64),
    "marginals2_8": lambda: harness.gen_marginals2(8),
    "sphere": lambda: harness.gen_random_sphere(20, 300, 1.0, seed=1),
    "cone": lambda: harness.gen_cone(16, 0.1, density=40, seed=1),
}
INTEGER_VALUED = {"thresholds64", "marginals2_8"}


def gathered_release(name, d, rho, alpha, seed):
    """A split row's release over level datasets gathered row by row
    (``assignments[indices, j]``), the O(n) form the counts replaced,
    with a release call on every level, public or not."""
    row = harness.MECHANISMS[name]
    dec = row.split(d.universe, alpha)
    estimate = np.zeros(d.universe.dim)
    seeds = [seed] if dec.k == 1 else as_seed_sequence(seed).spawn(dec.k)
    for j, s in enumerate(seeds):
        e = from_rows(dec.level_universes[j], dec.assignments[d.indices, j])
        out = row.level(e, as_fraction(rho) / dec.k, alpha / (2.0 * dec.k), s)
        estimate = estimate + out.estimate
    return estimate


class TestCountForm:
    """A central release reads a dataset only through its counts."""

    @pytest.mark.parametrize("name", sorted(COUNT_UNIVERSES))
    @pytest.mark.parametrize("mode", ["uniform", "mixture"])
    @pytest.mark.parametrize("n", [50, 2000])
    def test_mean_matches_the_gathered_mean(self, name, mode, n):
        u = COUNT_UNIVERSES[name]()
        d = harness.gen_dataset(u, n, mode=mode, seed=4)
        rows = u.points[d.indices]
        reference = rows.mean(axis=0)
        if name in INTEGER_VALUED:
            assert d.mean().tobytes() == reference.tobytes()
        else:
            # Each side rounds at most n times while summing n rows,
            # each time by at most eps times the rows' magnitudes.
            scale = np.abs(rows).mean(axis=0)
            tol = n * np.finfo(float).eps * scale
            assert (np.abs(d.mean() - reference) <= tol).all()

    @pytest.mark.parametrize("name", sorted(COUNT_UNIVERSES))
    def test_level_counts_are_the_gathered_assignments(self, name):
        u = COUNT_UNIVERSES[name]()
        d = harness.gen_dataset(u, 700, mode="mixture", seed=5)
        dec = chaining_decomposition(u, 0.1)
        for j in range(dec.k):
            level = level_dataset(d, dec, j)
            gathered = dec.assignments[d.indices, j]
            assert level.n == d.n
            assert np.array_equal(level.indices, np.sort(gathered))
            assert np.array_equal(
                level.counts,
                np.bincount(gathered, minlength=dec.level_universes[j].size))

    def test_indices_are_one_read_only_view_of_the_counts(
            self, small_universe):
        counts = np.bincount([3, 0, 0], minlength=small_universe.size)
        d = Dataset(universe=small_universe, counts=counts)
        e = Dataset(universe=small_universe, counts=counts.astype(float))
        assert e.n == 3 and e.mean().tobytes() == d.mean().tobytes()
        assert d.indices is d.indices
        assert d.indices.tolist() == e.indices.tolist() == [0, 0, 3]
        # The dataset keeps its own copy, so the view cannot go stale.
        counts[5] = 4
        assert d.n == 3 and d.counts[5] == 0
        for a in (d.counts, d.indices):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1

    def test_counts_validation(self, small_universe):
        size = small_universe.size
        counts = np.zeros(size)
        counts[2] = 3
        bad = {
            "negative": np.where(np.arange(size) == 0, -1.0, counts),
            "fraction": np.where(np.arange(size) == 0, 0.5, counts),
            "infinite": np.where(np.arange(size) == 0, np.inf, counts),
            "short": counts[:-1],
            "long": np.append(counts, 1.0),
            "matrix": counts[None, :],
            "zero total": np.zeros(size, dtype=int),
            "booleans": counts > 0,
        }
        for c in bad.values():
            with pytest.raises(ValueError):
                Dataset(universe=small_universe, counts=c)

    @pytest.mark.parametrize("name", ["coarse", "chaining", "chaining_linf"])
    @pytest.mark.parametrize("universe", sorted(INTEGER_VALUED))
    def test_split_release_matches_the_gathered_levels(self, name, universe):
        d = harness.gen_dataset(COUNT_UNIVERSES[universe](), 2000,
                                mode="mixture", seed=6)
        counted = Dataset(universe=d.universe, counts=d.counts)
        for seed in (1, 2):
            reference = gathered_release(name, d, 0.5, 0.1, seed)
            for e in (d, counted):
                out = release(name, e, 0.5, 0.1, seed)
                assert out.estimate.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("mode", ["uniform", "mixture", "point_mass"])
    def test_gen_dataset_draws_counts_at_any_n(self, mode):
        u = harness.gen_marginals2(8)
        tracemalloc.start()
        try:
            d = harness.gen_dataset(u, 10 ** 12, mode=mode, seed=7, index=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.n == 10 ** 12 and d.counts.shape == (u.size,)
        # One index per element would take 8 TB.
        assert peak < 2 ** 16
        with pytest.raises(ValueError, match="int64"):
            harness.gen_dataset(u, 2 ** 63, mode=mode, seed=7, index=3)

    def test_chaining_at_a_million_rows(self):
        u = harness.gen_marginals2(8)
        d = harness.gen_dataset(u, 10 ** 6, mode="mixture", seed=7)
        out = release("chaining", d, 0.5, 0.1, 8)
        assert float(np.abs(out.estimate - d.mean()).max()) <= 1e-3
        counted = Dataset(universe=u, counts=d.counts)
        assert release("chaining", counted, 0.5, 0.1, 8).estimate.tobytes() \
            == out.estimate.tobytes()

    @pytest.mark.parametrize("name", harness.LOCAL_PROTOCOLS)
    def test_local_protocols_take_their_parties_in_row_order(self, name):
        u = harness.gen_thresholds(8)
        counts = np.array([0, 3, 0, 1, 5, 0, 0, 2])
        d = Dataset(universe=u, counts=counts)
        spec = {"mechanism": name, "epsilon": 1.0, "alpha": 0.3}
        dec = harness.MECHANISMS[name].split(u, 0.3)
        parties = np.repeat(np.arange(u.size), counts)
        assert np.array_equal(d.indices, parties)
        protocol = harness.level_protocol(d, spec)
        assert np.array_equal(protocol.rows, dec.assignments[parties])
        out = harness.make_mechanism(spec)(d, 1)
        assert out.estimate.tobytes() == local.simulate_protocol(
            local.LevelProtocol(dec.levels, dec.assignments[parties], 1.0),
            1).estimate.tobytes()


class TestProjectionMechanism:
    def test_zero_noise_limit_recovers_mean(self, small_dataset):
        out = projection_mechanism(small_dataset, 1e9, seed=2)
        assert norm_err(out, small_dataset) <= 1e-3

    def test_point_mass_recovered_exactly_in_the_limit(self, small_universe):
        d = from_rows(small_universe, np.full(12, 7))
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
        assert a.estimate.tobytes() == b.estimate.tobytes()
        assert a.budget_consumed == b.budget_consumed
        assert a.trace == b.trace

    # Chaining at alpha 0.1 has one-point levels on all three universes
    # (the finest on each, and the coarsest on the sphere); coarse
    # rounding at alpha 1 leaves the sphere a single point.
    @pytest.mark.parametrize("alpha", [0.1, 1.0])
    @pytest.mark.parametrize("name", ["chaining", "coarse"])
    @pytest.mark.parametrize("universe", ["thresholds64", "marginals2_8",
                                          "sphere"])
    def test_report_hash_matches_the_unshortcut_reference(
            self, name, universe, alpha, monkeypatch):
        u = (harness.gen_random_sphere(20, 100, 1.0, seed=1)
             if universe == "sphere" else ORACLE_UNIVERSES[universe]())
        d = harness.gen_dataset(u, 100, mode="mixture", seed=39)
        spec = {"mechanism": name, "rho": 0.5, "alpha": alpha}
        fast = harness.measure_error(d, spec, trials=3, seed=40)
        monkeypatch.setattr(central, "projection_mechanism",
                            projection_reference)
        force_live(monkeypatch)
        slow = harness.measure_error(d, spec, trials=3, seed=40)
        assert fast.determinism_hash() == slow.determinism_hash()

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
        coarse = release("coarse", small_dataset, 2.0, 1e-6, 13)
        cover = coarse_decomposition(small_dataset.universe, 1e-6).levels[0]
        assert cover.shape[0] == small_dataset.universe.size
        assert np.array_equal(plain.estimate, coarse.estimate)

    def test_zero_noise_error_within_rounding_floor(self, small_dataset):
        alpha = 0.4
        out = release("coarse", small_dataset, 1e9, alpha, 14)
        assert norm_err(out, small_dataset) <= alpha / 2 + 1e-3

    def test_budget_ledger(self, small_dataset):
        out = release("coarse", small_dataset, 0.7, 0.3, 15)
        assert out.budget_consumed == PrivacyBudget.zcdp(0.7)


class TestChainingMechanism:
    def test_single_level_reduces_to_projection_on_cover(self, small_dataset):
        u = small_dataset.universe
        out = release("chaining", small_dataset, 1.5, 1.0, 16)
        sep = greedy_separated_set(u, 0.5)
        # same budget, same seed, rounded dataset over the half-scale cover
        centers = u.points[sep]
        dist = np.linalg.norm(u.points[:, None, :] - centers[None], axis=2)
        rounded = from_rows(Universe(points=centers),
                            dist.argmin(axis=1)[small_dataset.indices])
        direct = projection_mechanism(rounded, 1.5, seed=16)
        assert np.array_equal(out.estimate, direct.estimate)

    def test_zero_noise_error_within_remainder(self, small_dataset):
        alpha = 0.5
        out = release("chaining", small_dataset, 1e9, alpha, 17)
        k = out.trace["k"]
        assert norm_err(out, small_dataset) <= alpha / 2 + k * 1e-3

    def test_budget_ledger_exact(self, small_dataset):
        out = release("chaining", small_dataset, 0.9, 0.2, 18)
        assert out.budget_consumed == PrivacyBudget.zcdp(0.9)
        assert out.trace["k"] == math.ceil(math.log2(2 / 0.2))

    def test_seed_determinism(self, small_dataset):
        a = release("chaining", small_dataset, 0.4, 0.3, 19)
        b = release("chaining", small_dataset, 0.4, 0.3, 19)
        assert np.array_equal(a.estimate, b.estimate)

    def test_interior_targets_certify_quickly(self):
        # The level-0 target lies inside its hull, where the duality gap
        # bottoms out at its own rounding; the solver must stop there
        # rather than run to its iteration cap.
        d = harness.gen_dataset(harness.gen_marginals2(8), 1000, seed=1)
        out = release("chaining", d, 0.5, 0.1, 0)
        live = harness.MECHANISMS["chaining"].split(d.universe, 0.1).live
        assert live == [True, True, True, False, False]
        for on, level in zip(live, out.trace["levels"]):
            if not on:
                assert level == PUBLIC_TRACE
                continue
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
                moved = mean_of(from_rows(d.universe, idx))
                worst = max(worst, float(np.linalg.norm(moved - base)))
        assert worst <= sensitivity * (1 + 1e-9)
        return worst

    def test_projection(self, dataset):
        out = projection_mechanism(dataset, 0.5, seed=0)
        assert self.worst_move(Dataset.mean, dataset,
                               out.trace["sensitivity"]) > 0

    def test_coarse(self, dataset):
        out = release("coarse", dataset, 0.5, 0.25, 0)
        dec = coarse_decomposition(dataset.universe, 0.25)
        assert self.worst_move(lambda e: level_dataset(e, dec, 0).mean(),
                               dataset, out.trace["levels"][0]["sensitivity"]) > 0

    def test_chaining_levels(self, dataset):
        out = release("chaining", dataset, 0.5, 0.25, 0)
        dec = chaining_decomposition(dataset.universe, 0.25)
        levels = out.trace["levels"]
        assert len(levels) == dec.k
        # A public level's trace says sensitivity 0, and its mean never
        # moves; every live level's mean does.
        for j, level in enumerate(levels):
            move = self.worst_move(lambda e: level_dataset(e, dec, j).mean(),
                                   dataset, level["sensitivity"])
            assert level["mechanism"] == ("projection" if dec.live[j]
                                          else "public")
            assert (move > 0) == dec.live[j]


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


# Universes whose split levels are all one point: the identity rows fold
# their one level and the chaining rows all of theirs.
ONE_POINT_UNIVERSES = {
    "point1": [[0.25, 0.75, 1.0]],
    "point5": [[0.25, 0.75, 1.0]] * 5,
    "zero5": [[0.0, 0.0, 0.0]] * 5,
}

# Splits with a public level before a live one, and the sup-norm split of
# the linf_thresholds benchmark.
SEED_CASES = {
    "chaining-sphere": ("chaining", lambda: harness.gen_random_sphere(
        20, 500, 1.0, seed=1), [False, True, True, False, False]),
    "chaining_linf-thresholds64": ("chaining_linf",
                                   lambda: harness.gen_thresholds(64),
                                   [True, False, False, False, False]),
}


class TestPublicLevels:
    """The combinator releases a level whose rows are all one point
    itself: its row, charged rho / k, with no mechanism call."""

    @pytest.mark.parametrize("name", ["projection", "pmw", "chaining",
                                      "chaining_linf"])
    @pytest.mark.parametrize("universe", sorted(ONE_POINT_UNIVERSES))
    def test_one_point_universe_draws_nothing(self, name, universe,
                                              monkeypatch):
        u = Universe(points=np.array(ONE_POINT_UNIVERSES[universe]))
        d = from_rows(u, np.arange(4) % u.size)

        def refuse(*args, **kwargs):
            raise AssertionError("a public level must not read data or draw")

        for owner, attr in ((np.random, "default_rng"), (Dataset, "mean"),
                            (hull, "project_onto_hull"),
                            (central, "level_dataset")):
            monkeypatch.setattr(owner, attr, refuse)
        out = release(name, d, 0.5, 0.3, 38)
        assert out.estimate.tobytes() == u.points[0].tobytes()
        assert out.budget_consumed == PrivacyBudget.zcdp(0.5)
        assert out.trace["levels"] == [PUBLIC_TRACE] * out.trace["k"]

    @pytest.mark.parametrize("case", sorted(SEED_CASES))
    def test_live_level_j_draws_child_j(self, case, monkeypatch):
        # Each live level's release is the reference mechanism's on its
        # level dataset with child j of the seed, however many public
        # levels come before it; a public level builds no level dataset.
        name, make, live = SEED_CASES[case]
        d = harness.gen_dataset(make(), 300, mode="mixture", seed=50)
        dec = harness.MECHANISMS[name].split(d.universe, 0.1)
        assert dec.live == live
        rho, seed = as_fraction(0.5) / dec.k, 51
        target = (0.1 - dec.alpha / 2) / dec.k
        mechanism = ("projection_mechanism" if name == "chaining"
                     else "pmw_mechanism")
        built, outputs = [], []
        real_level, real_mechanism = level_dataset, getattr(central, mechanism)

        def built_level(e, split, j):
            built.append(j)
            return real_level(e, split, j)

        def kept(*args, **kwargs):
            outputs.append(real_mechanism(*args, **kwargs))
            return outputs[-1]

        with monkeypatch.context() as patch:
            patch.setattr(central, "level_dataset", built_level)
            patch.setattr(central, mechanism, kept)
            out = release(name, d, 0.5, 0.1, seed)
        assert built == [j for j, on in enumerate(live) if on]
        kids = as_seed_sequence(seed).spawn(dec.k)
        estimate, mine = np.zeros(d.universe.dim), iter(outputs)
        for j, level in enumerate(out.trace["levels"]):
            if not live[j]:
                assert level == PUBLIC_TRACE
                estimate = estimate + dec.levels[j][0]
                continue
            e = level_dataset(d, dec, j)
            ref = (projection_reference(e, rho, seed=kids[j])
                   if name == "chaining"
                   else pmw_reference(e, rho, target, seed=kids[j]))
            assert_same_release(next(mine), ref)
            assert level == ref.trace
            estimate = estimate + ref.estimate
        assert out.estimate.tobytes() == estimate.tobytes()
        assert out.budget_consumed == PrivacyBudget.zcdp(0.5)


class TestPMW:
    def test_fixed_point_with_zero_noise(self):
        u = harness.gen_thresholds(32)
        d = from_rows(u, np.arange(32))
        out = pmw_mechanism(d, 1e9, 0.3, seed=25)
        assert float(np.abs(out.estimate - d.mean()).max()) <= 1e-3

    def test_single_round_consumes_exact_budget(self, small_dataset):
        out = pmw_mechanism(small_dataset, 0.3, 10.0, seed=26)
        assert out.budget_consumed == PrivacyBudget.zcdp(0.3)
        assert out.trace["rounds"] == 1

    def test_default_budget_ledger_exact(self, small_dataset):
        out = pmw_mechanism(small_dataset, 0.7, 0.3, seed=27)
        assert out.budget_consumed == PrivacyBudget.zcdp(0.7)

    def test_zero_noise_converges_on_thresholds(self):
        u = harness.gen_thresholds(64)
        d = harness.gen_dataset(u, 500, mode="point_mass", index=31, seed=28)
        out = pmw_mechanism(d, 1e9, 0.3, seed=29)
        assert float(np.abs(out.estimate - d.mean()).max()) <= 0.05

    def test_scaling_against_calibrated_shape(self):
        # calibrate the worst-case-error shape at one size and check the
        # sqrt(n) improvement carries to 4x the data, with generous slack
        u = harness.gen_thresholds(64)
        errs = {}
        for n in (800, 3200):
            d = harness.gen_dataset(u, n, mode="point_mass", index=31, seed=30)
            rep = harness.measure_error(
                d, {"mechanism": "pmw", "rho": 1.0, "alpha": 0.3},
                trials=25, seed=31)
            errs[n] = rep.errinf_mean
        scale_const = errs[800] / pmw_error_shape(u, 800, 1.0)
        assert errs[3200] <= 1.3 * scale_const * pmw_error_shape(u, 3200, 1.0)

    def test_seed_determinism(self, small_dataset):
        a = pmw_mechanism(small_dataset, 0.2, 0.3, seed=32)
        b = pmw_mechanism(small_dataset, 0.2, 0.3, seed=32)
        assert np.array_equal(a.estimate, b.estimate)

    @pytest.mark.parametrize("config", [
        {"alpha": 0.0}, {"alpha": -0.1}, {"alpha": math.nan},
        {"alpha": math.inf}, {"rho": 0.0}, {"rho": math.nan},
        {"rho": math.inf},
    ])
    def test_config_needs_finite_positive_rates(self, small_dataset, config):
        with pytest.raises(ValueError):
            pmw_mechanism(small_dataset, **{"rho": 0.5, "alpha": 0.3,
                                            **config}, seed=33)

    def test_underflowing_alpha_gets_the_round_cap(self, small_dataset):
        out = pmw_mechanism(small_dataset, 0.5, 1e-200, seed=34)
        assert out.trace["rounds"] == PMW_ROUND_CAP

    # 0.05 and 0.1 hit the round cap, 0.3 does not on 64 points, 10.0
    # runs one round and 1e-200 underflows.
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.3, 10.0, 1e-200])
    @pytest.mark.parametrize("universe", sorted(ORACLE_UNIVERSES))
    def test_matches_the_per_round_reference(self, universe, alpha):
        u = ORACLE_UNIVERSES[universe]()
        for mode in ("uniform", "mixture", "point_mass"):
            for seed, rho in enumerate((0.5, 0.05, 1e9)):
                d = harness.gen_dataset(u, 40, mode=mode, seed=seed,
                                        index=7 * seed % u.size)
                assert_same_release(
                    pmw_mechanism(d, rho, alpha, seed=100 + seed),
                    pmw_reference(d, rho, alpha, seed=100 + seed))

    @pytest.mark.parametrize("name", ["pmw", "chaining_linf"])
    @pytest.mark.parametrize("universe", ["thresholds64", "marginals2_8"])
    def test_report_hash_matches_the_per_round_reference(
            self, name, universe, monkeypatch):
        # Besides a mixture, the linf_thresholds benchmark's uniform data
        # at its smallest and largest n.
        u = ORACLE_UNIVERSES[universe]()
        spec = {"mechanism": name, "rho": 0.5, "alpha": 0.1}
        for mode, n in (("mixture", 100), ("uniform", 100),
                        ("uniform", 10_000)):
            d = harness.gen_dataset(u, n, mode=mode, seed=35)
            with monkeypatch.context() as patch:
                fast = harness.measure_error(d, spec, trials=3, seed=36)
                patch.setattr(central, "pmw_mechanism", pmw_reference)
                force_live(patch)
                slow = harness.measure_error(d, spec, trials=3, seed=36)
            assert fast.determinism_hash() == slow.determinism_hash(), (
                mode, n)

    def test_tilt_table_is_cached_per_learning_rate(self):
        # Alternating alphas on one universe object: a table cached under
        # the wrong key would hand one alpha the other's updates.
        u = harness.gen_marginals2(4)
        d = harness.gen_dataset(u, 40, mode="mixture", seed=38)
        for t, alpha in enumerate((0.1, 0.3, 0.1, 0.3)):
            assert_same_release(pmw_mechanism(d, 0.5, alpha, seed=39 + t),
                                pmw_reference(d, 0.5, alpha, seed=39 + t))
        tables = [v for key, v in u._cache.items() if key[0] == "pmw_tilt"]
        assert len(tables) == 2
        assert not any(table.flags.writeable for table in tables)


class TestChainingLinf:
    def test_single_level_at_alpha_one(self):
        u = harness.gen_thresholds(16)
        d = harness.gen_dataset(u, 100, seed=33)
        out = release("chaining_linf", d, 0.8, 1.0, 34)
        assert out.trace["k"] == 1
        assert out.budget_consumed == PrivacyBudget.zcdp(0.8)

    def test_budget_ledger_exact_across_levels(self):
        u = harness.gen_thresholds(16)
        d = harness.gen_dataset(u, 100, seed=35)
        out = release("chaining_linf", d, 1.1, 0.3, 36)
        assert out.trace["k"] == 3
        assert out.budget_consumed == PrivacyBudget.zcdp(1.1)

    def test_zero_noise_error_within_alpha(self):
        u = harness.gen_thresholds(64)
        d = harness.gen_dataset(u, 400, mode="point_mass", index=20, seed=37)
        alpha = 0.5
        out = release("chaining_linf", d, 1e9, alpha, 38)
        err = float(np.abs(out.estimate - d.mean()).max())
        assert err <= alpha

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 9: PMW stops at PMW_ROUND_CAP rounds, far short of "
        "the schedule alpha asks for (sup error 0.399 for pmw, 0.745 for "
        "chaining_linf)"))
    @pytest.mark.parametrize("name", ["pmw", "chaining_linf"])
    def test_zero_noise_point_mass_within_alpha_at_0_1(self, name):
        u = harness.gen_thresholds(64)
        d = harness.gen_dataset(u, 1000, mode="point_mass", index=10)
        alpha = 0.1
        out = release(name, d, 1e9, alpha, 0)
        assert float(np.abs(out.estimate - d.mean()).max()) <= alpha

    @pytest.mark.parametrize("universe", ["thresholds64", "marginals2_8"])
    def test_sup_norm_split_of_a_01_universe_is_four_zero_levels(
            self, universe):
        # The combinator releases each of these levels itself.
        dec = chaining_decomposition(ORACLE_UNIVERSES[universe](), 0.1,
                                     Norm.LINF)
        assert [not lvl.any() for lvl in dec.levels] \
            == [False, True, True, True, True]

    def test_requires_unit_box(self):
        u = Universe(points=np.array([[0.0, 1.4], [1.0, 0.2]]))
        d = from_rows(u, [0, 1])
        with pytest.raises(ValueError):
            release("chaining_linf", d, 1.0, 0.5, 39)


class TestMechanismTable:
    @pytest.mark.parametrize("name", sorted(harness.MECHANISMS))
    def test_every_row_writes_one_trace_shape(self, name):
        row = harness.MECHANISMS[name]
        d = harness.gen_dataset(harness.gen_thresholds(16), 50, seed=45)
        # A row that does not need alpha is also run without one.
        for alpha in (0.3, None)[:2 - row.needs_alpha]:
            spec = {"mechanism": name, row.privacy: 0.7}
            if alpha is not None:
                spec["alpha"] = alpha
            trace = harness.make_mechanism(spec)(d, 46).trace
            assert set(trace) == {"mechanism", "k", "levels", "alpha",
                                  "remainder_radius"}
            assert trace["mechanism"] == name
            assert trace["k"] == len(trace["levels"])
            assert trace["alpha"] == alpha

    @pytest.mark.parametrize("name", sorted(harness.MECHANISMS))
    def test_incomplete_spec_is_refused_when_the_runner_is_built(
            self, name, small_dataset):
        row = harness.MECHANISMS[name]
        other = "epsilon" if row.privacy == "rho" else "rho"
        full = {"mechanism": name, row.privacy: 0.7, other: 0.7,
                "alpha": 0.3}
        for key in (row.privacy, "alpha") if row.needs_alpha \
                else (row.privacy,):
            spec = {k: v for k, v in full.items() if k != key}
            with pytest.raises(ValueError, match=f"^{name} needs {key}$"):
                harness.make_mechanism(spec)
            with pytest.raises(ValueError, match=f"^{name} needs {key}$"):
                harness.measure_error(small_dataset, spec, trials=2)


IDENTITY_ROWS = ("projection", "pmw", "lpm")


def direct_release(name, d, budget, alpha, seed):
    """The row's level release called on the universe itself."""
    if name == "projection":
        return projection_mechanism(d, budget, seed=seed)
    if name == "pmw":
        return pmw_mechanism(d, budget, alpha, seed=seed)
    protocol = local.LevelProtocol([d.universe.points], d.indices[:, None],
                                   budget)
    return local.simulate_protocol(protocol, seed)


class TestIdentitySplit:
    """Projection, PMW and LPM run as one-level splits whose level is
    the universe itself."""

    @pytest.mark.parametrize("name", sorted(COUNT_UNIVERSES))
    @pytest.mark.parametrize("mode", ["uniform", "mixture"])
    @pytest.mark.parametrize("n", [50, 700])
    def test_release_is_the_direct_level_call(self, name, mode, n):
        u = COUNT_UNIVERSES[name]()
        d = harness.gen_dataset(u, n, mode=mode, seed=12)
        alpha = 0.1
        for row_name in IDENTITY_ROWS:
            row = harness.MECHANISMS[row_name]
            spec = {"mechanism": row_name, row.privacy: 0.5, "alpha": alpha}
            out = harness.make_mechanism(spec)(d, 13)
            ref = direct_release(row_name, d, 0.5, alpha, 13)
            assert out.estimate.tobytes() == ref.estimate.tobytes()
            assert out.budget_consumed == ref.budget_consumed
            levels = ref.trace["levels"] if row_name == "lpm" \
                else [ref.trace]
            assert out.trace["levels"] == levels

    def test_split_is_the_memoised_universe(self):
        u = harness.gen_marginals2(6)
        dec = harness.MECHANISMS["projection"].split(u, None)
        for row_name in IDENTITY_ROWS:
            assert harness.MECHANISMS[row_name].split(u, 0.3) is dec
        assert dec.k == 1 and dec.level_universes[0] is u
        assert dec.levels[0] is u.points
        assert np.array_equal(dec.assignments[:, 0], np.arange(u.size))
        assert dec.remainder_radius == 0.0 and dec.alpha == 0.0
        # marginals2(6) repeats the zero row; the generators are distinct.
        distinct = np.unique(u.points, axis=0)
        assert dec.generator_indices[0].size == len(distinct)
        geometry.verify_decomposition(u, dec)
        assert not dec.remainders(u).any()

    def test_l2_diameter_is_built_once(self, monkeypatch):
        # The L2 diameter is the only Gram-kernel call these rows make.
        builds = []
        blocks = geometry._gram_blocks

        def counting(a, b, rows=None):
            builds.append(a.shape)
            return blocks(a, b, rows)

        monkeypatch.setattr(geometry, "_gram_blocks", counting)
        u = harness.gen_thresholds(32)
        d = harness.gen_dataset(u, 200, seed=14)
        for seed in range(3):
            release("projection", d, 0.5, None, seed)
            release("pmw", d, 0.5, 0.3, seed)
        assert builds == [u.points.shape]
        assert ("diameter", Norm.L2) in u._cache


class TestLedger:
    @pytest.mark.parametrize("name", sorted(harness.MECHANISMS))
    def test_consumed_equals_the_request(self, name):
        # 0.7 splits into non-dyadic shares over rounds and levels.
        row = harness.MECHANISMS[name]
        d = harness.gen_dataset(harness.gen_thresholds(16), 100, seed=40)
        spec = {"mechanism": name, row.privacy: 0.7, "alpha": 0.3}
        out = harness.make_mechanism(spec)(d, 41)
        want = (PrivacyBudget.zcdp(0.7) if row.privacy == "rho"
                else PrivacyBudget.pure_dp(0.7))
        assert out.budget_consumed == want

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        real = getattr(privacy, name)

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(privacy, name, counting)
        return calls

    def test_pmw_calibrates_once_per_release(self, small_dataset,
                                             monkeypatch):
        sigma_calls = self._count(monkeypatch, "gaussian_sigma_for_zcdp")
        compose_calls = self._count(monkeypatch, "compose")
        rho, rounds = 0.7, 200
        out = pmw_mechanism(small_dataset, rho, 0.1, seed=42)
        assert out.trace["rounds"] == rounds
        assert len(sigma_calls) == 2
        assert compose_calls == []
        u, n = small_dataset.universe, small_dataset.n
        share = rho / rounds / 2
        assert out.trace["selection_sigma"] == pytest.approx(
            math.sqrt(2.0) * privacy.mean_sensitivity(u, n)
            / math.sqrt(2.0 * share), rel=1e-12)
        coord_range = float((u.points.max(0) - u.points.min(0)).max())
        assert out.trace["answer_sigma"] == pytest.approx(
            coord_range / n / math.sqrt(2.0 * share), rel=1e-12)

    def test_levels_compose_once(self, monkeypatch):
        sigma_calls = self._count(monkeypatch, "gaussian_sigma_for_zcdp")
        compose_calls = self._count(monkeypatch, "compose")
        d = harness.gen_dataset(harness.gen_thresholds(16), 100, seed=43)
        out = release("chaining_linf", d, 0.7, 0.3, 44)
        assert out.trace["k"] == 3
        # Two calibrations per live level; the two public levels need none.
        live = harness.MECHANISMS["chaining_linf"].split(d.universe, 0.3).live
        assert live == [True, False, False]
        assert len(sigma_calls) == 2 * sum(live)
        assert len(compose_calls) == 1
