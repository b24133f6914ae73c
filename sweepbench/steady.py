#!/usr/bin/env python3
"""Steadiness of the sweep benchmark across seeds.

Runs every workload ``--runs`` times, each run in a fresh interpreter
with its own seed (seed0, seed0 + 1, ...), interleaving the workloads
so that slow drifts of the machine reach all of them alike.  Prints,
per workload and metric, the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json, and
the share of failed releases, which must be the same in every run.

    python3 sweepbench/steady.py --runs 10
    python3 sweepbench/steady.py --runs 5 --workloads central_marginals
    python3 sweepbench/steady.py --runs 10 --seed0 11 --baseline FILE

``--baseline`` takes the JSON summary of an earlier set and reports how
far each median moved from it.  Summaries go to sweepbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--baseline", type=Path,
                        help="summary of an earlier set to compare medians")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("need at least two runs for quartiles")
    workloads = [w for w in args.workloads.split(",") if w]
    specs = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in specs}

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            t = time.perf_counter()
            res = run_once(w, args.seed0 + i, args.seconds, args.trace)
            results[w].append(res)
            print(f"run {i + 1}/{args.runs} {w} seed={args.seed0 + i} "
                  f"{time.perf_counter() - t:.1f} s correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)

    baseline = json.loads(args.baseline.read_text()) if args.baseline else {}
    summary: dict = {}
    ok = True
    for w in workloads:
        runs = results[w]
        shares = sorted({str(Fraction(r["failed"], r["attempted"]))
                         for r in runs})
        correct = all(r["correct"] for r in runs)
        ok &= correct and len(shares) == 1
        print(f"\n{w}: correct in {sum(r['correct'] for r in runs)}/"
              f"{len(runs)} runs; failed share {' / '.join(shares)}")
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s} {'moved':>7s}")
        summary[w] = {"failed_shares": shares, "correct": correct,
                      "metrics": {}}
        for name in bounds:
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            summary[w]["metrics"][name] = stats
            bound = bounds[name]
            moved = ""
            base = baseline.get(w, {}).get("metrics", {}).get(name)
            if base and base["median"]:
                shift = stats["median"] / base["median"] - 1.0
                moved = f"{100 * shift:+6.1f}%"
            flag = ""
            if bound is not None and stats["spread"] > bound / 3:
                flag = "  above bound/3"
                ok = False
            print(f"  {name:40s} {stats['median']:12.4f} {stats['q1']:12.4f} "
                  f"{stats['q3']:12.4f} {100 * stats['spread']:6.1f}% "
                  f"{'' if bound is None else f'{100 * bound:5.0f}%'} "
                  f"{moved:>7s}{flag}")
    out = BENCH_DIR / "results" / (
        f"steady-seed{args.seed0}-runs{args.runs}-trace{args.trace}.json")
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print(f"\nsummary written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
