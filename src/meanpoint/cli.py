"""Command-line interface.

Subcommands: gen, pack, width, decompose, run, local, bounds, bench.
Exit codes: 0 success, 2 configuration error (a bad option, or a file
that cannot be read or written), 3 numerical non-convergence in at least
one trial.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import tempfile

from . import bounds as bounds_mod
from . import geometry, harness
from .geometry import Norm

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3

BENCH_HEADER = ("universe,mechanism,n,rho_or_eps,alpha,err2_mean,err2_sd,"
                "errinf_mean,bound_ub,bound_lb,seed")


@contextlib.contextmanager
def _atomic_file(path: str):
    """A text file open for writing beside ``path``, which no other file
    can name, with the mode ``open`` gives.  It is renamed to ``path``
    when the block ends, and removed if the block or the rename fails."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    umask = os.umask(0)
    os.umask(umask)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            os.chmod(tmp, 0o666 & ~umask)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        with _atomic_file(out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_writable(*paths: str | None) -> None:
    """Refuse an output path whose directory is missing or read-only, or
    two outputs naming one file, before any work that would be lost when
    the result is written."""
    paths = [path for path in paths if path]
    for path in paths:
        folder = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path) or not os.path.isdir(folder) \
                or not os.access(folder, os.W_OK):
            raise ValueError(f"cannot write {path!r}")
    if len({os.path.abspath(path) for path in paths}) < len(paths):
        raise ValueError(f"outputs {paths!r} name the same file")


_SHARED_FLAGS = {
    "seed": {"type": int, "default": 0},
    "trials": {"type": int, "default": 20},
    "out": {"type": str, "default": None},
}


def _common(parser: argparse.ArgumentParser, *names: str) -> None:
    """``--out`` plus the named shared flags, which the handler reads."""
    for name in (*names, "out"):
        parser.add_argument(f"--{name}", **_SHARED_FLAGS[name])


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="meanpoint")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a generated universe as CSV")
    p.add_argument("family",
                   choices=("thresholds", "marginals2", "cone", "sphere"))
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--density", type=int, default=200)
    p.add_argument("--size", type=int, default=100)
    p.add_argument("--radius", type=float, default=1.0)
    _common(p, "seed")

    p = sub.add_parser("pack", help="packing profile over a scale grid")
    p.add_argument("--universe", required=True)
    p.add_argument("--metric", choices=("l2", "linf"), default="l2")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _common(p)

    p = sub.add_parser("width", help="Monte-Carlo Gaussian mean width")
    p.add_argument("--universe", required=True)
    p.add_argument("--samples", type=int, default=100_000)
    _common(p, "seed")

    p = sub.add_parser("decompose", help="export a chaining decomposition")
    p.add_argument("--universe", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--norm", choices=("l2", "linf"), default="l2")
    _common(p)

    p = sub.add_parser("run", help="run a central mechanism and report errors")
    p.add_argument("--universe", required=True)
    p.add_argument("--mechanism", required=True,
                   choices=harness.CENTRAL_MECHANISMS)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dataset", type=str, default="uniform")
    _common(p, "seed", "trials")

    p = sub.add_parser("local", help="run a local protocol and report errors")
    p.add_argument("--universe", required=True)
    p.add_argument("--protocol", dest="mechanism", required=True,
                   choices=harness.LOCAL_PROTOCOLS)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dataset", type=str, default="uniform")
    p.add_argument("--transcript", type=str, default=None)
    _common(p, "seed", "trials")

    p = sub.add_parser("bounds", help="bound estimates and profile table")
    p.add_argument("--universe", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    _common(p)

    p = sub.add_parser("bench", help="error-vs-n sweep as CSV")
    p.add_argument("--universe", required=True)
    p.add_argument("--mechanisms", required=True,
                   help="comma-separated mechanism/protocol names")
    p.add_argument("--n-grid", required=True,
                   help="comma-separated dataset sizes")
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--dataset", type=str, default="uniform")
    _common(p, "seed", "trials")

    return top


def _gen(args) -> int:
    if args.family == "thresholds":
        u = harness.gen_thresholds(args.m)
    elif args.family == "marginals2":
        u = harness.gen_marginals2(args.d)
    elif args.family == "cone":
        u = harness.gen_cone(args.m, args.alpha, density=args.density,
                             seed=args.seed)
    else:
        u = harness.gen_random_sphere(args.m, args.size, args.radius,
                                      seed=args.seed)
    _emit(geometry.universe_to_csv(u), args.out)
    summary = {
        "family": args.family,
        "points": u.size,
        "m": u.dim,
        "in_unit_box": u.in_unit_box,
        "bounding_box": [float(u.points.min()), float(u.points.max())],
    }
    print(json.dumps(summary), file=sys.stderr)
    return EXIT_OK


def _pack(args) -> int:
    u = geometry.read_universe_csv(args.universe)
    profile = bounds_mod.bound_profile(u, Norm(args.metric), args.alpha)
    if args.format == "csv":
        lines = ["t,packing,log_packing"]
        for row in profile.to_json()["grid"]:
            lines.append(f"{row['t']!r},{row['packing']},{row['log_packing']!r}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps(profile.to_json(), indent=2) + "\n", args.out)
    return EXIT_OK


def _width(args) -> int:
    u = geometry.read_universe_csv(args.universe)
    est = geometry.gaussian_mean_width(u, samples=args.samples, seed=args.seed)
    _emit(json.dumps({"width": est.value, "std_error": est.std_error,
                      "samples": est.samples, "seed": args.seed}) + "\n",
          args.out)
    return EXIT_OK


def _decompose(args) -> int:
    u = geometry.read_universe_csv(args.universe)
    dec = geometry.chaining_decomposition(u, args.alpha, Norm(args.norm))
    geometry.verify_decomposition(u, dec)
    _emit(json.dumps(geometry.decomposition_to_json(dec)) + "\n", args.out)
    return EXIT_OK


def _dataset_from_arg(u, arg: str, n: int, seed: int):
    if arg.startswith("point-mass:"):
        return harness.gen_dataset(u, n, mode="point_mass",
                                   index=int(arg.split(":", 1)[1]), seed=seed)
    if arg in ("uniform", "mixture"):
        return harness.gen_dataset(u, n, mode=arg, seed=seed)
    raise ValueError(f"unknown dataset spec {arg!r}")


def _spec(name: str, args) -> dict:
    """Spec for a ``harness.MECHANISMS`` row from the parsed options."""
    mech = harness.MECHANISMS.get(name)
    if mech is None:
        raise ValueError(f"unknown mechanism {name!r}")
    value = getattr(args, mech.privacy, None)
    if value is None:
        raise ValueError(f"{name} needs --{mech.privacy}")
    spec: dict = {"mechanism": name, mech.privacy: value}
    if args.alpha is not None:
        spec["alpha"] = args.alpha
    elif mech.needs_alpha:
        raise ValueError(f"{name} needs --alpha")
    return spec


def _report_exit(report) -> int:
    return EXIT_NONCONVERGENCE if report.num_non_certified else EXIT_OK


def _run(args) -> int:
    """``run`` and ``local``: a mechanism or protocol's error report, and
    for ``local --transcript`` the messages the report's trial 0 sends."""
    u = geometry.read_universe_csv(args.universe)
    spec = _spec(args.mechanism, args)
    d = _dataset_from_arg(u, args.dataset, args.n, args.seed)
    path = getattr(args, "transcript", None)
    with (_atomic_file(path) if path else contextlib.nullcontext()) as fh:
        def write(first, releases):
            fh.writelines(json.dumps({"party": first + t, "payload":
                                      releases[:, t].tolist()}) + "\n"
                          for t in range(releases.shape[1]))
        report = harness.measure_error(
            d, spec, trials=args.trials, seed=args.seed,
            sink=write if path else None)
    _emit(json.dumps(report.to_json(), indent=2) + "\n", args.out)
    return _report_exit(report)


def _bounds(args) -> int:
    u = geometry.read_universe_csv(args.universe)
    report = bounds_mod.bound_report(u, args.alpha, rho=args.rho,
                                     epsilon=args.epsilon)
    report["profile"] = bounds_mod.bound_profile(
        u, Norm.L2, args.alpha).to_json()
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return EXIT_OK


def _bench(args) -> int:
    u = geometry.read_universe_csv(args.universe)
    label = os.path.splitext(os.path.basename(args.universe))[0]
    mechs = [tok.strip() for tok in args.mechanisms.split(",") if tok.strip()]
    try:
        n_grid = [int(tok) for tok in args.n_grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError("--n-grid must be comma-separated integers") from exc
    if not mechs or not n_grid:
        raise ValueError("need at least one mechanism and one n value")
    # Refuse a bad mechanism, rate, split, level share, n or dataset before
    # the first cell runs (the cells reuse the memoised splits); a local
    # row's protocol on the largest dataset must suit the channel.
    specs = [_spec(mech, args) for mech in mechs]
    datasets = [_dataset_from_arg(u, args.dataset, n, args.seed)
                for n in n_grid]
    largest = datasets[n_grid.index(max(n_grid))]
    for spec in specs:
        harness.make_mechanism(spec)
        harness.MECHANISMS[spec["mechanism"]].split(u, spec.get("alpha"))
        if spec["mechanism"] in harness.LOCAL_PROTOCOLS:
            harness.level_protocol(largest, spec)
    # csv writes None as an empty field and a float as its repr.
    table = io.StringIO()
    rows = csv.writer(table, lineterminator="\n")
    rows.writerow(BENCH_HEADER.split(","))
    worst = EXIT_OK
    for mech, spec in zip(mechs, specs):
        row = harness.MECHANISMS[mech]
        for n, d in zip(n_grid, datasets):
            report = harness.measure_error(d, spec, trials=args.trials,
                                           seed=args.seed)
            worst = max(worst, _report_exit(report))
            ub = report.bounds.get(row.upper_bound)
            lb = report.bounds.get(
                "lb_local" if row.privacy == "epsilon" else "lb_packing")
            rows.writerow([label, mech, n, spec[row.privacy], args.alpha,
                           report.err2_mean, report.err2_sd,
                           report.errinf_mean, ub, lb, args.seed])
    _emit(table.getvalue(), args.out)
    return worst


_HANDLERS = {"gen": _gen, "pack": _pack, "width": _width,
             "decompose": _decompose, "run": _run, "local": _run,
             "bounds": _bounds, "bench": _bench}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        _check_writable(args.out, getattr(args, "transcript", None))
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
