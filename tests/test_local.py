import dataclasses
import json
import math
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest

from meanpoint import central, cli, geometry, harness, hull, local, privacy
from meanpoint.privacy import PrivacyBudget, as_fraction

PROTOCOLS = ["lpm", "lcpm", "lcm"]


def _spec(protocol):
    return {"mechanism": protocol, "epsilon": 1.0, "alpha": 0.25}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_trace_carries_each_level_certificate(protocol):
    d = harness.gen_dataset(harness.gen_thresholds(8), 60, seed=0)
    out = harness.make_mechanism(_spec(protocol))(d, 1)
    levels = out.trace["levels"]
    assert len(levels) == out.trace.get("k", 1)
    for level in levels:
        assert level["projection_certified"] is True
        assert level["projection_iterations"] >= 0
        assert isinstance(level["projection_gap"], float)


def test_one_point_levels_release_their_row(monkeypatch):
    # lcm at alpha 0.1 on marginals2(8): the rows of levels 3 and 4 are all
    # one point, and the server's projection there returns that row.
    real, seen = hull.project_onto_hull, []

    def record(y, vertices):
        seen.append((vertices, real(y, vertices)))
        return seen[-1][1]

    monkeypatch.setattr(hull, "project_onto_hull", record)
    d = harness.gen_dataset(harness.gen_marginals2(8), 50, seed=0)
    spec = {"mechanism": "lcm", "epsilon": 1.0, "alpha": 0.1}
    harness.make_mechanism(spec)(d, 3)
    assert [j for j, (v, _) in enumerate(seen) if (v == v[0]).all()] == [3, 4]
    for v, res in seen[3:]:
        assert res.point.tobytes() == v[0].tobytes()
        assert res.certified and res.iterations == 1


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_uncertified_server_projection_is_reported(protocol, monkeypatch):
    real = hull.project_onto_hull

    def uncertified(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), certified=False)

    monkeypatch.setattr(hull, "project_onto_hull", uncertified)
    d = harness.gen_dataset(harness.gen_thresholds(8), 60, seed=0)
    report = harness.measure_error(d, _spec(protocol), trials=2, seed=0)
    assert report.num_non_certified > 0


def test_release_is_unbiased_on_the_ball():
    x = np.array([1.2, -1.6, 0.0])  # norm 2: on the ball's boundary
    rng = np.random.default_rng(0)
    draws = np.array([local.local_release(x, 1.0, 2.0, rng)
                      for _ in range(20_000)])
    se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
    assert np.all(np.abs(draws.mean(axis=0) - x) <= 4 * se)


def test_epsilon_beyond_the_bias_limit_is_refused():
    with pytest.raises(ValueError):
        local.local_release(np.zeros(2), local.EPSILON_BIAS_LIMIT * 1.01, 1.0)


def test_lcm_splits_epsilon_evenly_and_recomposes_exactly():
    d = harness.gen_dataset(harness.gen_thresholds(8), 30, seed=0)
    out = harness.make_mechanism(_spec("lcm"))(d, 2)
    protocol = harness.level_protocol(d, _spec("lcm"))
    assert out.trace["k"] == 3
    assert protocol.part == float(Fraction(1, 3))
    assert out.budget_consumed == PrivacyBudget.pure_dp(1.0)
    assert privacy.compose(
        [PrivacyBudget.pure_dp(Fraction(1, 3))] * 3) == out.budget_consumed


def _scalar_channel(x, scale, eps, first, z, last):
    """The documented channel for one party and level, one scalar at a
    time: u = +1 with probability (1 + |x| / scale) / 2, the output sign
    +1 with probability (1 + (eps/3) u sign(z . unit)) / 2."""
    v = np.asarray(x, dtype=float) / scale
    r = min(float(np.linalg.norm(v)), 1.0)
    if r > 0:
        unit, p_plus = v / r, (1.0 + r) / 2.0
    else:
        unit, p_plus = np.eye(v.size)[0], 0.5
    u = 1.0 if first < p_plus else -1.0
    bias = eps / 3.0 * np.sign(z @ unit) * u
    s = 1.0 if last < (1.0 + bias) / 2.0 else -1.0
    return 3.0 / (eps * math.sqrt(2.0 / math.pi)) * scale * z * s


def _collect(k, n, m):
    """A ``(k, n, m)`` array and a sink that copies each block into it,
    checking that the blocks arrive in party order; ``sink.sizes`` lists
    the blocks' party counts."""
    out = np.full((k, n, m), np.nan)

    def sink(first, releases):
        assert first == sum(sink.sizes) and releases.shape[::2] == (k, m)
        sink.sizes.append(releases.shape[1])
        out[:, first:first + releases.shape[1]] = releases
    sink.sizes = []
    return out, sink


def _seed_contract_oracle(p, seed):
    """Every party's messages drawn one scalar at a time: party i from
    child i of the run seed, per level one uniform, m normals and one
    uniform, released through the documented channel."""
    k, n, m = len(p.levels), len(p.rows), p.levels[0].shape[1]
    eps = float(as_fraction(p.epsilon) / k)
    # A level of zero rows releases at scale 1.
    scales = [float(np.sqrt((lv ** 2).sum(axis=1)).max()) or 1.0
              for lv in p.levels]
    oracle = np.empty((k, n, m))
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n)):
        rng = np.random.default_rng(child)
        for j, level in enumerate(p.levels):
            first, z, last = rng.random(), rng.standard_normal(m), rng.random()
            oracle[j, i] = _scalar_channel(level[p.rows[i, j]], scales[j], eps,
                                           first, z, last)
    return oracle


@pytest.mark.parametrize("parties", [1, 2, 7, 25])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_transcript_follows_the_per_party_seed_contract(protocol, parties,
                                                        monkeypatch):
    """Party i draws from child i of the run seed, per level one uniform,
    m normals and one uniform, and releases through the channel.  In
    blocks of 1, 2, 7 or all 25 parties, the running sums give the
    server the floats ``np.mean`` of all messages gives."""
    d = harness.gen_dataset(harness.gen_marginals2(4), 25, seed=1)
    p = harness.level_protocol(d, _spec(protocol))
    k, m = len(p.levels), d.universe.dim
    monkeypatch.setattr(geometry, "BLOCK_ENTRIES", parties * k * m)
    transcript, sink = _collect(k, d.n, m)
    out = local.simulate_protocol(p, seed=9, sink=sink)
    assert sink.sizes == [parties] * (25 // parties) + [25 % parties] * (
        25 % parties > 0)
    assert transcript.tobytes() == _seed_contract_oracle(p, 9).tobytes()
    estimate = np.zeros(m)
    for level, messages in zip(p.levels, transcript):
        estimate = estimate + hull.project_onto_hull(
            np.mean(messages, axis=0), level).point
    assert out.estimate.tobytes() == estimate.tobytes()


def test_a_release_holds_one_block_of_messages():
    # lcm on thresholds(64): k = 4 levels at m = 64, so 512 parties a
    # block; the (k, n, m) messages alone would take 16 MiB.
    d = harness.gen_dataset(harness.gen_thresholds(64), 8000, seed=0)
    spec = {"mechanism": "lcm", "epsilon": 1.0, "alpha": 0.2}
    release = harness.make_mechanism(spec)
    release(d, 0)  # builds and memoises the decomposition
    tracemalloc.start()
    try:
        release(d, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


@pytest.mark.parametrize("spawn_key", [(), (0,), (3,), (1, 2), (2 ** 33,)])
@pytest.mark.parametrize("entropy", [
    0, 5, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 7,
    0x9A3F5C1E7B2D48E6A0C4F18B3D5E7092,  # 128 bits, as SeedSequence() draws
    [1, 2, 3], [7, 0, 2 ** 32 - 1, 11, 2 ** 31, 4]])
def test_party_generators_equal_default_rng_of_each_spawned_child(
        entropy, spawn_key, monkeypatch):
    """In one chunk of all 50 children and in chunks of 16 and of 1
    (monkeypatched ``BLOCK_ENTRIES``): child i's words depend on i
    alone."""
    def draws(rng):
        return (rng.random(3).tobytes(), rng.standard_normal(4).tobytes(),
                rng.random().hex())
    for entries in (geometry.BLOCK_ENTRIES, 64, 4):
        monkeypatch.setattr(geometry, "BLOCK_ENTRIES", entries)
        parent = np.random.SeedSequence(entropy, spawn_key=spawn_key)
        want = map(np.random.default_rng, np.random.SeedSequence(
            entropy, spawn_key=spawn_key).spawn(50))
        got = list(local._party_generators(parent, 50))
        assert len(got) == 50
        for i, (a, b) in enumerate(zip(want, got)):
            assert draws(a) == draws(b), (entries, i)


def test_first_party_generator_hashes_one_chunk():
    # All 10**6 children at once would take over 100 MiB.
    tracemalloc.start()
    try:
        next(local._party_generators(0, 10 ** 6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("source", ["party", "PCG64", "PCG64DXSM",
                                    "Philox", "SFC64"])
def test_random_is_the_top_53_bits_of_one_raw_word(source):
    """The channel's coins: ``random()`` is (random_raw() >> 11) * 2**-53
    on the party generators and on every 64-bit numpy bit generator."""
    if source == "party":
        a, b = (next(local._party_generators(7, 1)) for _ in range(2))
    else:
        a, b = (np.random.default_rng(getattr(np.random, source)(7))
                for _ in range(2))
    words = a.bit_generator.random_raw(10_000)
    assert ((words >> 11) * 2.0 ** -53).tobytes() == b.random(10_000).tobytes()


def test_release_refuses_an_mt19937_generator():
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(ValueError, match="MT19937"):
        local.local_release(np.zeros(2), 1.0, 1.0, rng)


def test_party_generators_refuse_more_parties_than_one_uint32_word():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="uint32"):
            local._party_generators(0, 2 ** 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # An index array of 2**32 words would take 16 GiB.
    assert peak < 2 ** 16


def test_level_protocol_refuses_too_many_parties_before_laying_them_out(
        monkeypatch):
    u = harness.gen_thresholds(8)
    d = central.Dataset(universe=u, counts=[2 ** 32] + [0] * (u.size - 1))
    # One row per party would take 32 GiB.
    monkeypatch.setattr(central.Dataset, "indices", property(
        lambda self: pytest.fail("the parties were laid out")))
    for protocol in PROTOCOLS:
        with pytest.raises(ValueError, match="uint32"):
            harness.level_protocol(d, _spec(protocol))


class _Scripted:
    """Stands in for a party's generator, handing out fixed draws.  The
    channel reads a uniform as the raw word w with coin (w >> 11) * 2**-53,
    so a scripted u comes as ceil(u * 2**53) << 11, whose coin is the
    least reachable uniform >= u."""

    def __init__(self, first, z, last):
        words = iter([math.ceil(u * 2 ** 53) << 11 for u in (first, last)])
        self.bit_generator = types.SimpleNamespace(
            random_raw=lambda: next(words))
        self.z = z

    def standard_normal(self, out):
        out[:] = self.z


# m of the tests, of marginals2(8) and of thresholds(64); at m = 64 the
# rows outnumber BLOCK_ENTRIES // 64 = 2048, so the channel's party
# blocks and its dots cross a block boundary inside the level.
@pytest.mark.parametrize("m, draws, blocks", [(3, 40, 1), (28, 40, 1),
                                              (64, 400, 2)])
def test_sign_step_ties_take_the_scalar_sign(m, draws, blocks):
    rng = np.random.default_rng(4)
    points = np.vstack([np.zeros(m), np.r_[0.6, 0.8, np.zeros(m - 2)],
                        rng.normal(size=(6, m))])
    points /= max(np.linalg.norm(points, axis=1).max(), 1.0)
    units, p_plus = local._row_table(points, 1.0)
    # The zero row keeps the axis e_0 and a fair sign.
    assert units[0].tolist() == np.eye(m)[0].tolist() and p_plus[0] == 0.5
    rows, zs, in_band = [], [], 0
    for t, unit in enumerate(units):
        # Exactly orthogonal: z . unit is 0 in every summation order.
        rows.append(t)
        z = np.zeros(m)
        if unit[2] == 0:
            z[:2] = unit[1], -unit[0]
        else:
            z[1:3] = unit[2], -unit[1]
        zs.append(z)
        # Orthogonal up to rounding; within 2 m eps sum|z_c u_c| of zero,
        # another summation order than the scalar dot's may flip the sign.
        for w in rng.normal(size=(draws, m)):
            z = w - (w @ unit) * unit
            band = 2 * m * np.finfo(float).eps * np.abs(z * unit).sum()
            if 0 < abs(z @ unit) <= band:
                rows.append(t)
                zs.append(z)
                in_band += 1
    assert in_band >= 40
    assert math.ceil(len(rows) / (geometry.BLOCK_ENTRIES // m)) == blocks
    table = (units, p_plus, np.array(rows), 1.0)
    # With u = +1, last = 0.5 tells a positive sign from the rest, and
    # last = (1 - eps/3) / 2 a negative sign from the rest.
    for last in (0.5, (1.0 - 1.2 / 3.0) / 2.0):
        got, sink = _collect(1, len(zs), m)
        local._channel([_Scripted(0.0, z, last) for z in zs], [table], 1.2,
                       m, sink)
        for i, (t, z) in enumerate(zip(rows, zs)):
            want = _scalar_channel(points[t], 1.0, 1.2, 0.0, z, last)
            assert got[0, i].tobytes() == want.tobytes(), (t, z)


@pytest.mark.parametrize("universe", [harness.gen_thresholds(8),
                                      harness.gen_marginals2(4)])
def test_sign_channel_ratio_is_at_most_e_eps_on_every_table_row(universe):
    """The released sign s has probability p (1 + s b) / 2 +
    (1 - p) (1 - s b) / 2, with p = p_plus and b = (eps/3) sign(z . unit);
    the output's density is proportional to it."""
    d = central.Dataset(universe, counts=np.ones(universe.size))
    tables = [table for protocol in PROTOCOLS for table in
              harness.level_protocol(d, _spec(protocol)).tables]
    p_plus = {Fraction(p) for _, column, _, _ in tables for p in column}
    assert Fraction(1, 2) in p_plus  # the zero row
    for eps in (0.1, 1.0, 1.5):
        bias = Fraction(eps) / 3
        for s in (1, -1):
            probs = [p * (1 + s * sign * bias) / 2
                     + (1 - p) * (1 - s * sign * bias) / 2
                     for p in p_plus for sign in (1, 0, -1)]
            assert all(0 < q < 1 for q in probs)
            assert max(probs) / min(probs) <= math.exp(eps)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_transcript_replays_trial_zero(protocol, tmp_path):
    u = harness.gen_thresholds(8)
    universe = tmp_path / "u.csv"
    universe.write_text(geometry.universe_to_csv(u))
    transcript, report = tmp_path / "t.ndjson", tmp_path / "r.json"
    code = cli.main(["local", "--universe", str(universe), "--protocol",
                     protocol, "--epsilon", "1.0", "--alpha", "0.25",
                     "--n", "40", "--seed", "5", "--trials", "3",
                     "--transcript", str(transcript), "--out", str(report)])
    assert code == cli.EXIT_OK
    payloads = [json.loads(line)["payload"]
                for line in transcript.read_text().splitlines()]
    assert len(payloads) == 40
    # The server, rebuilt from the published messages and public levels.
    hulls = {"lpm": [u.points],
             "lcpm": geometry.coarse_decomposition(u, 0.25).levels,
             "lcm": geometry.chaining_decomposition(u, 0.25).levels}[protocol]
    assert all(len(p) == len(hulls) for p in payloads)
    estimate = np.zeros(u.dim)
    for j, vertices in enumerate(hulls):
        mean = np.mean(np.asarray([p[j] for p in payloads]), axis=0)
        estimate = estimate + hull.project_onto_hull(mean, vertices).point
    err = estimate - harness.gen_dataset(u, 40, seed=5).mean()
    sq_err = json.loads(report.read_text())["per_trial_sq_err"][0]
    assert float(err @ err) / u.dim == sq_err
