"""Where the paper predicts chaining or coarse projection to win, it does.

Both are optimal up to constants in regimes the paper names, not better
everywhere: on most bundled universes projection has the lower error.
On this cone at n = 1000 chaining's average error is about half of
projection's.  At alpha = 0.4 coarse projection rounds the cone's 602
points to a 5-point net, and its error is about 0.85 of projection's at
n = 30 and about 0.7 at n = 100.  Only the orderings are pinned, not
the numbers.

The orderings hold for the uniform data they are drawn on.  Sample
complexity is a worst case over datasets, and chaining releases each
row's remainder by the zero mechanism, so a point mass pays its row's
remainder as bias.  On this cone the first ordering reverses on the
worst point mass: over 128 seeded rows at n = 1000, rho = 0.5 and
alpha = 0.1, the worst average error is about 0.031 for chaining and
0.007 for projection, whose median over the rows is 0.0024.  The last
test pins that bias exactly.
"""

import numpy as np
import pytest

from meanpoint import harness


@pytest.fixture(scope="module")
def cone():
    return harness.gen_cone(64, 0.05, density=300, seed=1)


@pytest.mark.parametrize("data_seed", [5, 6])
def test_chaining_beats_projection_on_the_cone(cone, data_seed):
    d = harness.gen_dataset(cone, 1000, seed=data_seed)
    err = {mech: harness.measure_error(
        d, {"mechanism": mech, "rho": 0.5, "alpha": 0.1}, trials=8,
        seed=0).err2_mean for mech in ("projection", "chaining")}
    assert err["chaining"] < err["projection"]


@pytest.mark.parametrize("n", [30, 100])
@pytest.mark.parametrize("data_seed", [5, 6])
def test_coarse_beats_projection_on_the_cone(cone, data_seed, n):
    d = harness.gen_dataset(cone, n, seed=data_seed)
    err = {mech: harness.measure_error(
        d, {"mechanism": mech, "rho": 0.5, "alpha": 0.4}, trials=8,
        seed=0).err2_mean for mech in ("projection", "coarse")}
    assert err["coarse"] < err["projection"]


@pytest.mark.parametrize("name", ["thresholds64", "cone"])
def test_chaining_errs_on_a_point_mass_by_its_remainder(cone, name):
    # At rho = 1e30 the noise is negligible, every level projects back to
    # the row's own component, and only the remainder is left.
    u = harness.gen_thresholds(64) if name == "thresholds64" else cone
    rows = np.arange(u.size) if u.size <= 64 else \
        np.random.default_rng(0).choice(u.size, 64, replace=False)
    rem = np.linalg.norm(
        harness.MECHANISMS["chaining"].split(u, 0.3).remainders(u), axis=1)
    assert np.count_nonzero(rem[rows]) >= 32
    run = harness.make_mechanism(
        {"mechanism": "chaining", "rho": 1e30, "alpha": 0.3})
    for i in rows.tolist():
        d = harness.gen_dataset(u, 1000, "point_mass", index=i)
        err = np.linalg.norm(np.asarray(run(d, 0).estimate) - u.points[i])
        assert abs(err - rem[i]) <= 1e-12
