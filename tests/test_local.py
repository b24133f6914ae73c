import dataclasses

from meanpoint import harness, hull

LCM = {"mechanism": "lcm", "epsilon": 1.0, "alpha": 0.25}


def test_lcm_trace_carries_each_level_certificate():
    d = harness.gen_dataset(harness.gen_thresholds(8), 60, seed=0)
    out = harness.make_mechanism(LCM)(d, 1)
    levels = out.trace["levels"]
    assert len(levels) == out.trace["k"]
    for level in levels:
        assert level["projection_certified"] is True
        assert level["projection_iterations"] >= 0
        assert isinstance(level["projection_gap"], float)


def test_uncertified_server_projection_is_reported(monkeypatch):
    real = hull.project_onto_hull

    def uncertified(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), certified=False)

    monkeypatch.setattr(hull, "project_onto_hull", uncertified)
    d = harness.gen_dataset(harness.gen_thresholds(8), 60, seed=0)
    report = harness.measure_error(d, LCM, trials=2, seed=0)
    assert report.num_non_certified > 0
