"""Command-line interface.

Subcommands: gen, pack, width, decompose, run, local, bounds, bench.
Exit codes: 0 success, 2 configuration error, 3 numerical
non-convergence in at least one trial.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bounds as bounds_mod
from . import geometry, harness, local
from .central import as_seed_sequence
from .geometry import Metric, Norm, Universe

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3

BENCH_HEADER = ("universe,mechanism,n,rho_or_eps,alpha,err2_mean,err2_sd,"
                "errinf_mean,bound_ub,bound_lb,seed")

class ConfigError(ValueError):
    pass


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


_SHARED_FLAGS = {
    "seed": {"type": int, "default": 0},
    "trials": {"type": int, "default": 20},
    "out": {"type": str, "default": None},
}


def _common(parser: argparse.ArgumentParser, *names: str) -> None:
    """``--out`` plus the named shared flags, which the handler reads."""
    for name in (*names, "out"):
        parser.add_argument(f"--{name}", **_SHARED_FLAGS[name])


def _metric(name: str) -> Metric:
    return Metric.LINF if name == "linf" else Metric.NORMALIZED_L2


def _load_universe(path: str) -> Universe:
    try:
        return geometry.read_universe_csv(path)
    except OSError as exc:
        raise ConfigError(f"cannot read universe file: {exc}") from exc


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
    p.add_argument("--c", type=float, default=bounds_mod.UPPER_BOUND_THRESHOLD_C)
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
    p.add_argument("--pmw-rounds", type=int, default=None)
    p.add_argument("--pmw-eta", type=float, default=None)
    p.add_argument("--pmw-alpha-target", type=float, default=None)
    _common(p, "seed", "trials")

    p = sub.add_parser("local", help="run a local protocol and report errors")
    p.add_argument("--universe", required=True)
    p.add_argument("--protocol", required=True, choices=harness.LOCAL_PROTOCOLS)
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
    p.add_argument("--c", type=float, default=bounds_mod.UPPER_BOUND_THRESHOLD_C)
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
    u = _load_universe(args.universe)
    profile = bounds_mod.bound_profile(u, _metric(args.metric), args.alpha,
                                       C=args.c)
    if args.format == "csv":
        lines = ["t,packing,log_packing"]
        for row in profile.to_json()["grid"]:
            lines.append(f"{row['t']!r},{row['packing']},{row['log_packing']!r}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps(profile.to_json(), indent=2) + "\n", args.out)
    return EXIT_OK


def _width(args) -> int:
    u = _load_universe(args.universe)
    est = geometry.gaussian_mean_width(u, samples=args.samples, seed=args.seed)
    _emit(json.dumps({"width": est.value, "std_error": est.std_error,
                      "samples": est.samples, "seed": args.seed}) + "\n",
          args.out)
    return EXIT_OK


def _decompose(args) -> int:
    u = _load_universe(args.universe)
    norm = Norm.LINF if args.norm == "linf" else Norm.L2
    dec = geometry.chaining_decomposition(u, args.alpha, norm)
    geometry.verify_decomposition(u, dec)
    _emit(json.dumps(geometry.decomposition_to_json(dec)) + "\n", args.out)
    return EXIT_OK


def _dataset_from_arg(u, arg: str, n: int, seed: int):
    if arg.startswith("point-mass:"):
        return harness.gen_dataset(u, n, mode="point_mass",
                                   index=int(arg.split(":", 1)[1]), seed=seed)
    if arg in ("uniform", "mixture"):
        return harness.gen_dataset(u, n, mode=arg, seed=seed)
    raise ConfigError(f"unknown dataset spec {arg!r}")


def _spec(name: str, args) -> dict:
    """Spec for a ``harness.MECHANISMS`` row from the parsed options."""
    mech = harness.MECHANISMS.get(name)
    if mech is None:
        raise ConfigError(f"unknown mechanism {name!r}")
    value = getattr(args, mech.privacy, None)
    if value is None:
        raise ConfigError(f"{name} needs --{mech.privacy}")
    spec: dict = {"mechanism": name, mech.privacy: value}
    if args.alpha is not None:
        spec["alpha"] = args.alpha
    elif mech.needs_alpha:
        raise ConfigError(f"{name} needs --alpha")
    return spec


def _report_exit(report) -> int:
    return EXIT_NONCONVERGENCE if report.num_non_certified else EXIT_OK


def _run(args) -> int:
    u = _load_universe(args.universe)
    spec = _spec(args.mechanism, args)
    pmw = {}
    if args.pmw_rounds is not None:
        pmw["rounds"] = args.pmw_rounds
    if args.pmw_eta is not None:
        pmw["learning_rate"] = args.pmw_eta
    if args.pmw_alpha_target is not None:
        pmw["alpha_target"] = args.pmw_alpha_target
    if pmw:
        spec["pmw"] = pmw
    d = _dataset_from_arg(u, args.dataset, args.n, args.seed)
    report = harness.measure_error(d, spec, trials=args.trials, seed=args.seed)
    _emit(json.dumps(report.to_json(), indent=2) + "\n", args.out)
    return _report_exit(report)


def _local(args) -> int:
    u = _load_universe(args.universe)
    spec = _spec(args.protocol, args)
    d = _dataset_from_arg(u, args.dataset, args.n, args.seed)
    report = harness.measure_error(d, spec, trials=args.trials, seed=args.seed)
    if args.transcript:
        # The messages of the report's trial 0, whose seed is the first
        # child of the run seed.
        parties, protocol = harness.MECHANISMS[args.protocol].protocol(d, spec)
        trial0 = as_seed_sequence(args.seed).spawn(args.trials)[0]
        transcript, _ = local.simulate_protocol(parties, protocol, seed=trial0)
        _atomic_write(args.transcript, "".join(
            json.dumps(msg.to_json()) + "\n" for msg in transcript))
    _emit(json.dumps(report.to_json(), indent=2) + "\n", args.out)
    return _report_exit(report)


def _bounds(args) -> int:
    u = _load_universe(args.universe)
    report = bounds_mod.bound_report(u, args.alpha, rho=args.rho,
                                     epsilon=args.epsilon, C=args.c)
    report["profile"] = bounds_mod.bound_profile(
        u, Metric.NORMALIZED_L2, args.alpha, C=args.c).to_json()
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return EXIT_OK


def _bench(args) -> int:
    u = _load_universe(args.universe)
    label = os.path.splitext(os.path.basename(args.universe))[0]
    mechs = [tok.strip() for tok in args.mechanisms.split(",") if tok.strip()]
    try:
        n_grid = [int(tok) for tok in args.n_grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError("--n-grid must be comma-separated integers") from exc
    if not mechs or not n_grid:
        raise ConfigError("need at least one mechanism and one n value")
    rows = [BENCH_HEADER]
    worst = EXIT_OK
    for mech in mechs:
        spec = _spec(mech, args)
        row = harness.MECHANISMS[mech]
        priv = spec[row.privacy]
        for n in n_grid:
            d = _dataset_from_arg(u, args.dataset, n, args.seed)
            report = harness.measure_error(d, spec, trials=args.trials,
                                           seed=args.seed)
            worst = max(worst, _report_exit(report))
            ub = report.bounds.get(row.upper_bound, "")
            lb = report.bounds.get(
                "lb_local" if row.privacy == "epsilon" else "lb_packing", "")
            rows.append(",".join([
                label, mech, str(n), repr(float(priv)),
                "" if args.alpha is None else repr(float(args.alpha)),
                repr(report.err2_mean), repr(report.err2_sd),
                repr(report.errinf_mean),
                "" if ub == "" else repr(ub),
                "" if lb == "" else repr(lb),
                str(args.seed),
            ]))
    _emit("\n".join(rows) + "\n", args.out)
    return worst


_HANDLERS = {"gen": _gen, "pack": _pack, "width": _width,
             "decompose": _decompose, "run": _run, "local": _local,
             "bounds": _bounds, "bench": _bench}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
