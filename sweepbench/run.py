#!/usr/bin/env python3
"""Sweep-cell benchmark for meanpoint.

One operation is one sweep cell: ``harness.measure_error(dataset, spec,
trials=T, seed=s)`` on a public universe built once per run, which makes
T private releases and attaches the cell's bound report, exactly as each
cell of ``meanpoint bench`` does.  Cells run one after another in this
process (a closed loop with a single caller) in whole rounds, as many
as fit in the run length.

    python3 sweepbench/run.py --workload central_marginals --seed 1 \\
        --seconds 33 --trace 0
    python3 sweepbench/run.py --workload all       # every workload
    python3 sweepbench/run.py --selftest           # checks catch faults

Run from the repository root; the package is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (private releases) and ``metrics``: the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics of a
traced run.  Full records go to ``sweepbench/results/``.
"""

import os
import sys
import time

T_START = time.perf_counter()
# One BLAS/OpenMP thread: the machine has two cores, and a single thread
# keeps reductions, and so hull certification, identical from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import Capture, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

# Set-ups measured in fresh interpreters after the timed phase, besides
# the run's own; setup_s is the median of them all.  Each is cold, so a
# cache filled during set-up counts in every sample.
FRESH_SETUPS = 4
# The machine's speed swings by up to 2x over seconds to minutes, for
# reasons no process in it can see (README, "Why scaled").  A fixed
# reference kernel is timed between cells and around each set-up, and
# every reported time is scaled to the speed at which it takes REF_MS.
# A set-up, timed once, is scaled by the median of REF_AROUND_SETUP
# kernel runs on each side, which damps the kernel's own jitter.
REF_MS = 20.0
REF_AROUND_SETUP = 3
REF_POINTS = np.random.default_rng(0).random((256, 28))
# Seeds of the workload whose inputs do not follow --seed.
FIXED_DATA_SEED = 1811
FIXED_CELL_SEED = 3763


@dataclass(frozen=True)
class Workload:
    """A fixed sweep: one universe, one spec, an n-grid and a trial count.

    A round visits every n of the grid ``cells_per_n`` times.  With
    ``seeded`` the datasets and cell seeds follow ``--seed`` and change
    from round to round; otherwise they are fixed, every round repeats
    the same cells and ``--seed`` only sets the order they run in.
    """

    name: str
    generator: str
    size: int
    spec: dict
    n_grid: tuple
    cells_per_n: int
    trials: int
    seeded: bool


WORKLOADS = {
    # Chaining on 2-way marginals, the paper's headline mechanism on its
    # canonical query class.  Inputs are fixed because one release in
    # nine (in the n=1000 cell) ends at the hull solver's iteration cap
    # uncertified; with fixed inputs the same release fails in every run.
    "central_marginals": Workload(
        "central_marginals", "gen_marginals2", 8,
        {"mechanism": "chaining", "rho": 0.5, "alpha": 0.1},
        n_grid=(250, 1000, 4000), cells_per_n=1, trials=3, seeded=False),
    # Sup-norm chaining: multiplicative weights per level, dominated by
    # the privacy ledger; bounds and geometry are a small share.
    "linf_thresholds": Workload(
        "linf_thresholds", "gen_thresholds", 64,
        {"mechanism": "chaining_linf", "rho": 0.5, "alpha": 0.1},
        n_grid=(100, 1000, 10000), cells_per_n=1, trials=1, seeded=True),
    # Local chaining at one n (its cost grows with n): the per-party
    # loop, and projections of targets far outside the hull.
    "local_thresholds": Workload(
        "local_thresholds", "gen_thresholds", 64,
        {"mechanism": "lcm", "epsilon": 1.0, "alpha": 0.2},
        n_grid=(2000,), cells_per_n=2, trials=4, seeded=True),
}

# Tiny versions of the workloads for --selftest.
QUICK = {
    "central_marginals": dataclasses.replace(
        WORKLOADS["central_marginals"], size=4, n_grid=(50, 400), trials=2),
    "linf_thresholds": dataclasses.replace(
        WORKLOADS["linf_thresholds"], size=8, n_grid=(100, 100000)),
    "local_thresholds": dataclasses.replace(
        WORKLOADS["local_thresholds"], size=8, n_grid=(300,), trials=2),
}

END_TO_END = (("setup_s", "s"), ("releases_per_s", "1/s"),
              ("cell_ms", "ms"), ("peak_rss_mb", "MB"))

# Per-layer metrics, per cell: (metric, source, field).  Sources are the
# tracer's totals by function name, or the always-on hull counters.
PER_LAYER = (
    ("harness.measure_error.ms", "harness.measure_error", "ms"),
    ("harness.measure_error.self_ms", "harness.measure_error", "self_ms"),
    ("bounds.bound_report.ms", "bounds.bound_report", "ms"),
    ("bounds.bound_profile.calls", "bounds.bound_profile", "calls"),
    ("geometry.packing_profile.ms", "geometry.packing_profile", "ms"),
    ("geometry.chaining_decomposition.ms",
     "geometry.chaining_decomposition", "ms"),
    ("geometry.chaining_decomposition.calls",
     "geometry.chaining_decomposition", "calls"),
    ("geometry.diameter.ms", "geometry.diameter", "ms"),
    ("geometry.diameter.calls", "geometry.diameter", "calls"),
    ("privacy.mean_sensitivity.calls", "privacy.mean_sensitivity", "calls"),
    ("hull.project_onto_hull.ms", "hull.project_onto_hull", "ms"),
    ("hull.project_onto_hull.calls", "hull.project_onto_hull", "calls"),
    ("hull.iterations", "capture", "hull_iterations"),
    ("hull.non_certified", "capture", "hull_non_certified"),
    ("privacy.compose.ms", "privacy.compose", "ms"),
    ("privacy.compose.calls", "privacy.compose", "calls"),
    ("central.pmw_mechanism.self_ms", "central.pmw_mechanism", "self_ms"),
    ("local.simulate_protocol.self_ms", "local.simulate_protocol", "self_ms"),
    ("local.local_release.calls", "local.local_release", "calls"),
)


@dataclass(frozen=True)
class Cell:
    n: int
    dataset: object
    seed: int


def _int_seed(*words) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


class Inputs:
    """The public universe, one dataset per n, and the round plan."""

    def __init__(self, wl: Workload, seed: int):
        from meanpoint import harness
        self.wl, self.seed = wl, seed
        self.universe = getattr(harness, wl.generator)(wl.size)
        self.datasets = {
            n: harness.gen_dataset(
                self.universe, n, mode="uniform",
                seed=_int_seed(seed, n) if wl.seeded else FIXED_DATA_SEED + n)
            for n in wl.n_grid}
        self.targets = {n: self.universe.points[d.indices].mean(axis=0)
                        for n, d in self.datasets.items()}

    def _cells(self, r: int) -> list[Cell]:
        """Round r's cells in grid order."""
        wl = self.wl
        slots = [n for n in wl.n_grid for _ in range(wl.cells_per_n)]
        return [Cell(n, self.datasets[n],
                     _int_seed(self.seed, r, i) if wl.seeded
                     else FIXED_CELL_SEED + i)
                for i, n in enumerate(slots)]

    def warmup_cell(self) -> Cell:
        """Round 0's first cell in grid order, which round 0 also times."""
        return self._cells(0)[0]

    def round(self, r: int) -> list[Cell]:
        cells = self._cells(r)
        if self.wl.seeded:
            return cells
        order = np.random.default_rng([self.seed, r]).permutation(len(cells))
        return [cells[i] for i in order]


def run_cell(wl: Workload, cell: Cell):
    from meanpoint import harness
    return harness.measure_error(cell.dataset, wl.spec, trials=wl.trials,
                                 seed=cell.seed)


def reference_s() -> float:
    """Wall seconds of a fixed kernel of the three kinds of work the
    workloads do: Fraction sums, small numpy draws in a Python loop, and
    a block of squared distances."""
    t = time.perf_counter()
    for _ in range(5):
        total = Fraction(0)
        for i in range(1, 300):
            total += Fraction(1, i)
    rng = np.random.default_rng(0)
    for _ in range(1250):
        z = rng.standard_normal(REF_POINTS.shape[1])
        np.sign(z @ REF_POINTS[0]) * z
    for row in REF_POINTS:
        ((REF_POINTS - row) ** 2).sum(axis=1).max()
    return time.perf_counter() - t


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """Seconds at the speed where the reference kernel takes REF_MS."""
    return seconds * (REF_MS / 1e3) / ((ref_before + ref_after) / 2.0)


def set_up(wl: Workload, seed: int,
           import_s: float) -> tuple[Inputs, str, float, float]:
    """Inputs and one untimed warm-up cell.

    Returns the inputs, the cell's hash, and the set-up seconds with
    imports, raw and scaled by the kernel timed before and after.
    """
    def reference_median_s():
        return statistics.median(reference_s()
                                 for _ in range(REF_AROUND_SETUP))

    before = reference_median_s()
    t = time.perf_counter()
    inputs = Inputs(wl, seed)
    warm_hash = run_cell(wl, inputs.warmup_cell()).determinism_hash()
    raw = import_s + time.perf_counter() - t
    return inputs, warm_hash, raw, scaled(raw, before, reference_median_s())


def fresh_set_ups(wl: Workload, seed: int) -> list[tuple[float, float, str]]:
    """(scaled and raw set-up seconds, warm-up hash) from fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", wl.name,
           "--seed", str(seed), "--setup-only"]
    out = []
    for _ in range(FRESH_SETUPS):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              check=True, timeout=120)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((res["setup_s"], res["raw_s"], res["warm_hash"]))
    return out


def collect_releases(wl, inputs, records, capture):
    """Releases of every timed cell, with the cell's failures marked."""
    releases, attempted, failed = [], 0, 0
    for cell, error, start, end in records:
        attempted += wl.trials
        if error is not None:
            failed += wl.trials
            continue
        for trial, (out, projections) in enumerate(
                capture.releases[start:end]):
            bad = any(not res.certified for _, res in projections)
            releases.append(checks.Release(
                n=cell.n, cell_seed=cell.seed, trial=trial, trials=wl.trials,
                rows=cell.dataset.indices, target=inputs.targets[cell.n],
                estimate=out.estimate, budget=out.budget_consumed,
                trace=out.trace, projections=tuple(projections), failed=bad))
            failed += bad
    return releases, attempted, failed


class Checks:
    """The checks that apply to a workload, with its public geometry."""

    def __init__(self, wl: Workload, universe):
        from meanpoint import geometry
        from meanpoint.geometry import Norm
        from meanpoint.privacy import PrivacyBudget
        spec = wl.spec
        self.mech, self.alpha = spec["mechanism"], spec["alpha"]
        if "rho" in spec:
            self.privacy = Fraction(str(spec["rho"]))
            self.expected = PrivacyBudget(kind="zcdp", rho=self.privacy)
        else:
            self.privacy = Fraction(str(spec["epsilon"]))
            self.expected = PrivacyBudget(kind="pure", epsilon=self.privacy)
        self.k = checks.levels_count(self.alpha)
        self.redraw = wl.trials
        self.levels = []
        if self.mech in ("chaining", "lcm"):
            dec = geometry.chaining_decomposition(
                universe, self.alpha, Norm.L2,
                delta_cap=math.sqrt(universe.dim))
            self.levels, self.assignments = dec.levels, dec.assignments

    def run(self, releases) -> dict[str, list[str]]:
        ok = [r for r in releases if not r.failed]
        out = {"budget": checks.check_budget(ok, self.expected)}
        if self.levels and len(self.levels) != self.k:
            out["levels"] = [f"{len(self.levels)} levels, expected {self.k}"]
            return out
        if self.mech == "chaining":
            out["sigma"] = checks.check_sigma(
                ok, [checks.own_diameter(lv) for lv in self.levels],
                self.privacy)
            out["l2_error"] = checks.check_l2_error(ok, self.alpha, self.k)
        elif self.mech == "lcm":
            out["local_means"] = checks.check_local_means(
                ok, self.levels, self.assignments, self.privacy, self.redraw)
            out["local_projection"] = checks.check_local_projection(
                ok, self.levels)
            out["local_sum"] = checks.check_local_sum(
                ok, self.levels, self.assignments)
        elif self.mech == "chaining_linf":
            out["linf_falls"] = checks.check_linf_falls(ok)
        return out


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }


def per_layer(tracer, capture, cells: int) -> dict:
    totals = tracer.totals()
    counters = {"hull_iterations": capture.hull_iterations,
                "hull_non_certified": capture.hull_non_certified}
    out = {}
    for metric, source, field in PER_LAYER:
        if source == "capture":
            value = counters[field]
        else:
            value = totals.get(source, {}).get(field, 0.0)
        out[metric] = {"value": value / cells,
                       "unit": "ms" if field.endswith("ms") else "count"}
    return out


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 import_s: float) -> dict:
    capture = Capture()
    inputs, warm_hash, raw_setup_s, setup_s = set_up(wl, seed, import_s)
    warm = inputs.warmup_cell()
    tracer = Tracer() if trace else None
    for name in tracer.missing if tracer else ():
        print(f"trace: no function {name}; its metrics read 0",
              file=sys.stderr)
    capture.reset()
    gc.collect()

    records, cell_s, first_hash = [], [], None
    refs = [reference_s()]
    rounds, timed_s, completed = 0, 0.0, 0
    while True:
        r0 = time.perf_counter()
        for cell in inputs.round(rounds):
            start = len(capture.releases)
            c0 = time.perf_counter()
            error = None
            try:
                report = run_cell(wl, cell)
                completed += wl.trials
            except Exception:  # a failing cell is counted, not fatal
                error = traceback.format_exc()
                print(error, file=sys.stderr)
            cell_s.append(time.perf_counter() - c0)
            refs.append(reference_s())
            if first_hash is None and (cell.n, cell.seed) == (warm.n,
                                                               warm.seed):
                first_hash = "" if error else report.determinism_hash()
            records.append((cell, error, start, len(capture.releases)))
        rounds += 1
        timed_s += time.perf_counter() - r0
        # Stop when one more round of the mean length would overrun.
        if timed_s + timed_s / rounds > seconds:
            break
    hull_counts = {"calls": capture.hull_calls,
                   "iterations": capture.hull_iterations,
                   "non_certified": capture.hull_non_certified}
    setups = [(setup_s, raw_setup_s, warm_hash)]
    if not trace:
        setups += fresh_set_ups(wl, seed)
    cell_scaled = [scaled(c, refs[i], refs[i + 1])
                   for i, c in enumerate(cell_s)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Taken before the checks, whose own library calls would be traced.
    layers = per_layer(tracer, capture, len(records)) if trace else None
    trace_json = tracer.to_json() if trace else None

    releases, attempted, failed = collect_releases(wl, inputs, records,
                                                   capture)
    problems = Checks(wl, inputs.universe).run(releases)
    problems["determinism"] = checks.check_determinism(
        [h for _, _, h in setups], first_hash)
    if trace:
        metrics = layers
    else:
        values = {"setup_s": statistics.median(t for t, _, _ in setups),
                  "releases_per_s": completed / sum(cell_scaled),
                  "cell_ms": statistics.median(cell_scaled) * 1e3,
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    record = {
        "workload": wl.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "environment": environment(),
        "rounds": rounds, "cells": len(records), "timed_s": timed_s,
        "setups_s": [t for t, _, _ in setups],
        "setups_raw_s": [t for _, t, _ in setups], "import_s": import_s,
        "cell_ms": [s * 1e3 for s in cell_scaled],
        "cell_raw_ms": [s * 1e3 for s in cell_s],
        "reference_ms": [r * 1e3 for r in refs],
        "hull": hull_counts,
        "problems": problems,
        "result": {"correct": not any(problems.values()),
                   "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }
    if trace:
        record["missing"] = tracer.missing
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"trace-{wl.name}-seed{seed}.json"
        path.write_text(json.dumps(trace_json))
        record["trace_file"] = str(path.relative_to(ROOT))
    return record


def print_summary(record: dict) -> None:
    res = record["result"]
    env = record["environment"]
    print(f"# {record['workload']} seed={record['seed']} "
          f"python {env['python']} numpy {env['numpy']} {env['blas']} "
          f"nproc={env['nproc']} load={env['loadavg'][0]:.2f}")
    print(f"# {record['cells']} cells in {record['rounds']} rounds, "
          f"{record['timed_s']:.1f} s; releases attempted "
          f"{res['attempted']}, failed {res['failed']}")
    for name, m in res["metrics"].items():
        print(f"#   {name:40s} {m['value']:14.4f} {m['unit']}")
    if record["trace"]:
        total = res["metrics"]["harness.measure_error.ms"]["value"]
        own = res["metrics"]["harness.measure_error.self_ms"]["value"]
        if total > 0:
            print(f"#   named layers' self time: "
                  f"{100.0 * (total - own) / total:.1f}% of the traced cell")
    for check, found in record["problems"].items():
        for line in found:
            print(f"# check {check}: {line}")


def selftest() -> int:
    """Tiny workloads: checks pass on real outputs, fail on perturbed."""
    capture = Capture()
    bad = 0
    for name, wl in QUICK.items():
        inputs = Inputs(wl, 1)
        capture.reset()
        records = []
        for cell in inputs.round(0):
            start = len(capture.releases)
            run_cell(wl, cell)
            records.append((cell, None, start, len(capture.releases)))
        releases, _, _ = collect_releases(wl, inputs, records, capture)
        ctx = Checks(wl, inputs.universe)
        clean = ctx.run(releases)
        for check, found in clean.items():
            status = "ok" if not found else f"FAILS on real output: {found}"
            caught = ctx.run(checks.PERTURB[check](releases)).get(check)
            status += "; perturbed output caught" if caught else \
                "; perturbed output NOT caught"
            bad += bool(found) or not caught
            print(f"{name:18s} {check:16s} {status}")
    caught = checks.check_determinism(["0" * 64], "1" * 64)
    print(f"{'all':18s} {'determinism':16s} perturbed hash "
          f"{'caught' if caught else 'NOT caught'}")
    bad += not caught
    print(json.dumps({"selftest_failures": bad}))
    return 1 if bad else 0


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter, then one table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run tiny workloads and check the checks")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print its time and hash")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("need --workload or --selftest")
    if args.setup_only and args.workload in (None, "all"):
        parser.error("--setup-only needs one --workload")

    if not (SRC / "meanpoint" / "__init__.py").is_file():
        print(f"error: no meanpoint package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import meanpoint
    if Path(meanpoint.__file__).resolve().parent != SRC / "meanpoint":
        print(f"error: imported meanpoint from {meanpoint.__file__}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    if args.selftest:
        return selftest()
    if args.setup_only:
        Capture()
        _, warm_hash, raw_s, setup_s = set_up(WORKLOADS[args.workload],
                                              args.seed, import_s)
        print(json.dumps({"setup_s": setup_s, "raw_s": raw_s,
                          "warm_hash": warm_hash}))
        return 0
    if args.workload == "all":
        return run_all(args)
    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), import_s)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print_summary(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
