import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from meanpoint import cli, geometry, harness, hull, local, privacy
from meanpoint.privacy import PrivacyBudget

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
    params = local.LocalReleaseParams(epsilon=1.0, scale=2.0)
    x = np.array([1.2, -1.6, 0.0])  # norm 2: on the ball's boundary
    rng = np.random.default_rng(0)
    draws = np.array([local.local_release(x, params, rng)
                      for _ in range(20_000)])
    se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
    assert np.all(np.abs(draws.mean(axis=0) - x) <= 4 * se)


def test_epsilon_beyond_the_bias_limit_is_refused():
    with pytest.raises(ValueError):
        local.LocalReleaseParams(epsilon=local.EPSILON_BIAS_LIMIT * 1.01,
                                 scale=1.0)


def test_lcm_splits_epsilon_evenly_and_recomposes_exactly(monkeypatch):
    spent = []
    real = local.local_release

    def recording(x, params, seed=None):
        spent.append(params.epsilon)
        return real(x, params, seed)

    monkeypatch.setattr(local, "local_release", recording)
    d = harness.gen_dataset(harness.gen_thresholds(8), 30, seed=0)
    out = local.run_protocol(local.chaining_protocol(d, 1.0, 0.25), seed=2)
    assert out.trace["k"] == 3
    assert spent == [float(Fraction(1, 3))] * (3 * d.n)
    assert out.budget_consumed == PrivacyBudget.pure_dp(1.0)
    assert privacy.compose(
        [PrivacyBudget.pure_dp(Fraction(1, 3))] * 3) == out.budget_consumed


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
    payloads = [msg.payload for msg in local.read_transcript(transcript)]
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
