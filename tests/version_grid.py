"""Report hashes over a fixed grid of runs, to show which outputs a
change moves.

Every case draws a dataset with ``harness.gen_dataset`` and runs
``harness.measure_error`` on it, and prints one tab-separated line: the
case id, the report's determinism hash (which covers the bound report,
and so the packing profiles), ``err2_mean`` and ``errinf_mean``.  A case the
library refuses prints ``refused`` and its message in place of the hash
and two NaNs.  The grid is every row of the mechanism table on seven
universes, three n, two alpha and three data modes: 1,008 cases.

Run from the repository root:

    python tests/version_grid.py               # the whole grid
    python tests/version_grid.py --limit 4     # its first 4 cases
    python tests/version_grid.py --against REV

``--against REV`` runs the same grid on REV's ``src`` as well, exported
with ``git archive`` into a temporary directory (nothing is registered
in ``.git``), and prints the cases whose line moved, grouped by row,
universe and mode with each group's largest relative move of
``err2_mean``, then a count.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

ROWS = ("projection", "coarse", "chaining", "pmw", "chaining_linf", "lpm",
        "lcpm", "lcm")
LOCAL_ROWS = ("lpm", "lcpm", "lcm")
UNIVERSES = ("thresholds16", "thresholds64", "marginals2_5", "marginals2_8",
             "sphere", "cone", "copies")
NS = (50, 700, 10_000)
ALPHAS = (0.1, 0.3)
MODES = ("uniform", "mixture", "point_mass")
TRIALS, SEED, DATA_SEED, POINT = 2, 7, 3, 1


def _universe(harness, name):
    from meanpoint.geometry import Universe

    return {
        "thresholds16": lambda: harness.gen_thresholds(16),
        "thresholds64": lambda: harness.gen_thresholds(64),
        "marginals2_5": lambda: harness.gen_marginals2(5),
        "marginals2_8": lambda: harness.gen_marginals2(8),
        "sphere": lambda: harness.gen_random_sphere(20, 500, 1.0, seed=1),
        "cone": lambda: harness.gen_cone(64, 0.05, seed=1),
        "copies": lambda: Universe(points=np.tile([0.1, 0.7, 1.0, 0.3],
                                                  (5, 1))),
    }[name]()


def cases():
    """Case ids in grid order: row, universe, mode, n, alpha."""
    for row in ROWS:
        for uni in UNIVERSES:
            for mode in MODES:
                for n in NS:
                    for alpha in ALPHAS:
                        yield f"{row}/{uni}/{mode}/n={n}/alpha={alpha}"


def grid(limit: int | None = None):
    """One output line per case, for the first ``limit`` cases."""
    from meanpoint import harness

    universes = {}
    for i, case in enumerate(cases()):
        if limit is not None and i >= limit:
            return
        row, uni, mode, n, alpha = case.split("/")
        n, alpha = int(n[2:]), float(alpha[6:])
        if uni not in universes:
            universes[uni] = _universe(harness, uni)
        privacy = "epsilon" if row in LOCAL_ROWS else "rho"
        spec = {"mechanism": row, privacy: 1.0 if row in LOCAL_ROWS else 0.5,
                "alpha": alpha}
        try:
            d = harness.gen_dataset(universes[uni], n, mode=mode,
                                    seed=DATA_SEED,
                                    index=POINT if mode == "point_mass"
                                    else None)
            report = harness.measure_error(d, spec, trials=TRIALS, seed=SEED)
        except ValueError as exc:
            yield f"{case}\trefused: {exc}\tnan\tnan"
            continue
        yield (f"{case}\t{report.determinism_hash()}\t{report.err2_mean!r}"
               f"\t{report.errinf_mean!r}")


def _grid_at(rev: str, limit: int | None) -> list[str]:
    """This grid's lines on revision ``rev`` of the repository."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                                   stdout=subprocess.PIPE)
        tar = subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or tar.returncode != 0:
            raise SystemExit(f"git archive {rev} failed")
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--src", os.path.join(tmp, "src")]
        if limit is not None:
            argv += ["--limit", str(limit)]
        out = subprocess.run(argv, check=True, capture_output=True,
                             text=True).stdout
    return out.splitlines()


def moved(here: list[str], there: list[str]) -> dict:
    """Moved cases by (row, universe, mode): each case's "n alpha" and the
    relative move of its err2_mean, NaN where a side has no estimate."""
    theirs = dict(line.split("\t", 1) for line in there)
    groups = defaultdict(list)
    for line in here:
        case, rest = line.split("\t", 1)
        other = theirs.get(case)
        if other != rest:
            row, uni, mode, n, alpha = case.split("/")
            a, b = (float(x.split("\t")[1]) if x else math.nan
                    for x in (rest, other))
            groups[row, uni, mode].append(
                (f"{n} {alpha}", abs(a - b) / abs(b) if b else math.nan))
    return groups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limit", type=int, help="run the first N cases")
    parser.add_argument("--against", metavar="REV",
                        help="print the cases that moved against REV")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    here = []
    for line in grid(args.limit):
        here.append(line)
        if args.against is None:
            print(line, flush=True)
    if args.against is not None:
        groups = moved(here, _grid_at(args.against, args.limit))
        for (row, uni, mode), which in groups.items():
            moves = [move for _, move in which if not math.isnan(move)]
            largest = f"{max(moves):.3g}" if moves else "nan"
            print(f"{row} {uni} {mode}: {len(which)} moved, largest "
                  f"relative err2_mean move {largest} "
                  f"({', '.join(case for case, _ in which)})")
        count = sum(map(len, groups.values()))
        print(f"{count} of {len(here)} cases moved against {args.against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
