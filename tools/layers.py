"""Where a release's time goes, layer by layer, written to BENCH_layers.json.

Every figure is the best of 15 ``time.perf_counter`` runs in one
process with ``OPENBLAS_NUM_THREADS=1`` (set here before numpy is
imported), after one untimed run has filled the caches a figure does not
mean to include:

- ``hull``: one projection onto each live level of ``gen_marginals2(8)``'s
  L2 chaining split at alpha=0.1, of that level's mean on a uniform
  n=1000 dataset plus the Gaussian noise a rho=0.5 release adds to it; its
  major cycles and the time per cycle.
- ``local``: one ``lcm`` release on ``gen_thresholds(64)`` (epsilon=1,
  alpha=0.2, n=2000), split into building the party generators, the
  per-party draws (per level a raw word, m normals and a raw word, as the
  channel draws them) and the rest (the release's best minus the other
  two bests: tables, sign decisions, level sums and server projections).
- ``pmw``: one multiplicative-weights release of 200 rounds on
  ``gen_thresholds(64)`` (rho=0.5, alpha=0.1, n=1000).
- ``preprocessing``: the cold ``diameter``, ``chaining_decomposition``
  and ``bound_report`` of each benchmark workload's universe, each on a
  fresh copy of the universe, so no memoised table is warm.
- ``import_ms``: ``import meanpoint`` (numpy included) in a fresh
  interpreter.

Run from anywhere; the package is imported from this checkout's ``src/``:

    python tools/layers.py                      # writes BENCH_layers.json
    python tools/layers.py --quick --out x.json   # one repeat, a smoke run
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from meanpoint import (bounds, central, geometry, harness, hull,  # noqa: E402
                       local)
from meanpoint.geometry import Norm, Universe  # noqa: E402

# The benchmark workloads' universe generators and sizes, split norms,
# alphas and privacy rates.
WORKLOADS = {
    "central_marginals": ("gen_marginals2", 8, Norm.L2, 0.1, {"rho": 0.5}),
    "linf_thresholds": ("gen_thresholds", 64, Norm.LINF, 0.1, {"rho": 0.5}),
    "local_thresholds": ("gen_thresholds", 64, Norm.L2, 0.2,
                         {"epsilon": 1.0}),
}


def best_ms(fn, repeats: int, fresh=lambda: None) -> float:
    """Fewest milliseconds of ``fn(fresh())`` over ``repeats`` runs, with
    ``fresh()`` called outside the timed region."""
    best = math.inf
    for _ in range(repeats):
        arg = fresh()
        start = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - start)
    return round(best * 1e3, 4)


def hull_levels(repeats: int) -> dict:
    u = harness.gen_marginals2(8)
    spec = {"mechanism": "chaining", "rho": 0.5, "alpha": 0.1}
    dec = harness.MECHANISMS["chaining"].split(u, spec["alpha"])
    d = harness.gen_dataset(u, 1000, seed=0)
    traces = harness.make_mechanism(spec)(d, 0).trace["levels"]
    rng = np.random.default_rng(1)
    levels = []
    for j, live in enumerate(dec.live):
        if not live:
            continue
        vertices = dec.levels[j]
        target = central.level_dataset(d, dec, j).mean() + rng.normal(
            0.0, traces[j]["sigma"], u.dim)
        res = hull.project_onto_hull(target, vertices)
        ms = best_ms(lambda _: hull.project_onto_hull(target, vertices),
                     repeats)
        levels.append({"level": j, "rows": len(vertices),
                       "major_cycles": res.iterations,
                       "certified": res.certified, "ms": ms,
                       "ms_per_major_cycle": round(ms / res.iterations, 4)})
    return {"universe": "gen_marginals2(8)", **spec, "n": d.n,
            "levels": levels}


def _draws(rngs, k: int, m: int) -> None:
    """Each party's draws as the channel makes them, into one row."""
    row = np.empty(m)
    for rng in rngs:
        raw, normal = rng.bit_generator.random_raw, rng.standard_normal
        for _ in range(k):
            raw()
            normal(out=row)
            raw()


def local_release(repeats: int) -> dict:
    u = harness.gen_thresholds(64)
    spec = {"mechanism": "lcm", "epsilon": 1.0, "alpha": 0.2}
    d = harness.gen_dataset(u, 2000, seed=0)
    run = harness.make_mechanism(spec)
    run(d, 0)
    k = len(harness.level_protocol(d, spec).levels)
    release = best_ms(lambda _: run(d, 0), repeats)
    generators = best_ms(lambda _: list(local._party_generators(0, d.n)),
                         repeats)
    draws = best_ms(lambda rngs: _draws(rngs, k, u.dim), repeats,
                    lambda: list(local._party_generators(0, d.n)))
    return {"universe": "gen_thresholds(64)", **spec, "n": d.n, "k": k,
            "release_ms": release, "party_generators_ms": generators,
            "party_draws_ms": draws,
            "rest_ms": round(release - generators - draws, 4)}


def pmw_release(repeats: int) -> dict:
    d = harness.gen_dataset(harness.gen_thresholds(64), 1000, seed=0)
    rounds = central.pmw_mechanism(d, 0.5, 0.1, seed=0).trace["rounds"]
    ms = best_ms(lambda _: central.pmw_mechanism(d, 0.5, 0.1, seed=0),
                 repeats)
    return {"universe": "gen_thresholds(64)", "rho": 0.5, "alpha": 0.1,
            "n": d.n, "rounds": rounds, "ms": ms,
            "us_per_round": round(ms * 1e3 / rounds, 3)}


def preprocessing(repeats: int) -> dict:
    out = {}
    for name, (gen, size, norm, alpha, rates) in WORKLOADS.items():
        points = getattr(harness, gen)(size).points

        def fresh():
            return Universe(points=points.copy())

        out[name] = {
            "universe": f"{gen}({size})", "norm": norm.value,
            "alpha": alpha, **rates,
            "diameter_ms": best_ms(lambda u: geometry.diameter(u, norm),
                                   repeats, fresh),
            "chaining_decomposition_ms": best_ms(
                lambda u: geometry.chaining_decomposition(u, alpha, norm),
                repeats, fresh),
            "bound_report_ms": best_ms(
                lambda u: bounds.bound_report(u, alpha, **rates),
                repeats, fresh),
        }
    return out


def import_ms(repeats: int) -> float:
    code = ("import time; t = time.perf_counter(); import meanpoint; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = [float(subprocess.run([sys.executable, "-c", code], env=env,
                                 check=True, capture_output=True,
                                 text=True).stdout)
            for _ in range(repeats)]
    return round(min(runs) * 1e3, 4)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="one run of each figure, not the best of 15")
    parser.add_argument("--out", default=str(ROOT / "BENCH_layers.json"))
    args = parser.parse_args(argv)
    repeats = 1 if args.quick else 15
    record = {
        "environment": {
            "date_utc": datetime.datetime.now(datetime.timezone.utc)
            .strftime("%Y-%m-%dT%H:%MZ"),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "repeats": repeats,
        },
        "hull": hull_levels(repeats),
        "local": local_release(repeats),
        "pmw": pmw_release(repeats),
        "preprocessing": preprocessing(repeats),
        "import_ms": import_ms(repeats),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
