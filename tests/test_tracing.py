"""The sweep benchmark wraps package functions by module attribute
(``sweepbench/spans.py``); these tests fail when one of them stops
resolving, or when callers stop looking it up at call time."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from meanpoint import harness, hull

_SPANS = Path(__file__).resolve().parents[1] / "sweepbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _wrapped_names() -> tuple[str, ...]:
    spans = _load_spans()
    return (*spans.SPAN_NAMES, *spans.COUNT_NAMES,
            "harness.make_mechanism", "hull.project_onto_hull")


def _module_attr(dotted: str):
    mod_name, attr = dotted.rsplit(".", 1)
    return importlib.import_module(f"meanpoint.{mod_name}"), attr


@pytest.mark.parametrize("name", _wrapped_names())
def test_wrapped_name_resolves_to_a_callable(name):
    module, attr = _module_attr(name)
    assert callable(getattr(module, attr, None))


# Wrapped names that no library code calls: ``local.local_release`` is the
# sign channel's one-party case, and the protocols run the channel for all
# parties at once, so the benchmark's count of it reads 0.
UNCALLED = {"local.local_release"}


# What each row's level release reaches: a central projection row calls
# the projection mechanism, which projects, and a local row's server
# projects each level mean.
_PROJECTION = ("central.projection_mechanism", "hull.project_onto_hull")
LEVEL_RELEASE = {
    **dict.fromkeys(("projection", "coarse", "chaining"), _PROJECTION),
    **dict.fromkeys(("pmw", "chaining_linf"), ("central.pmw_mechanism",)),
    **dict.fromkeys(("lpm", "lcpm", "lcm"), ("hull.project_onto_hull",)),
}


def test_every_wrapped_name_is_looked_up_at_call_time(monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    names = _wrapped_names()
    for name in (*names, "central.projection_mechanism"):
        module, attr = _module_attr(name)
        monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
    assert sorted(LEVEL_RELEASE) == sorted(harness.MECHANISMS)
    for mech, row in harness.MECHANISMS.items():
        privacy = 0.5 if row.privacy == "rho" else 1.0
        spec = {"mechanism": mech, row.privacy: privacy, "alpha": 0.3}
        before = {name: calls[name] for name in LEVEL_RELEASE[mech]}
        # A fresh universe per run, so no cached preprocessing hides a call.
        d = harness.gen_dataset(harness.gen_thresholds(8), 20, seed=0)
        harness.measure_error(d, spec, trials=1, seed=0)
        unreached = [name for name in before if calls[name] == before[name]]
        assert unreached == [], mech
    assert [name for name in names
            if calls[name] == 0 and name not in UNCALLED] == []
    assert [name for name in UNCALLED if calls[name]] == []


def test_capture_sees_one_release_per_trial_of_every_row(monkeypatch):
    # The benchmark's Capture wraps each runner as ``run(d, seed)``, so
    # measure_error must call the runner with two arguments when no sink
    # is given.  Setting both wrapped names first lets teardown restore them.
    monkeypatch.setattr(harness, "make_mechanism", harness.make_mechanism)
    monkeypatch.setattr(hull, "project_onto_hull", hull.project_onto_hull)
    capture = _load_spans().Capture()
    d = harness.gen_dataset(harness.gen_thresholds(8), 20, seed=0)
    for mech, row in harness.MECHANISMS.items():
        capture.reset()
        privacy = 0.5 if row.privacy == "rho" else 1.0
        spec = {"mechanism": mech, row.privacy: privacy, "alpha": 0.3}
        harness.measure_error(d, spec, trials=3, seed=0)
        assert len(capture.releases) == 3, mech
