"""Experiment harness: universe and dataset generators, empirical error
measurement, and the run report record the CLI emits."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import statistics
import time
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from . import bounds, central, local
from .central import (Dataset, MechanismOutput, PMWConfig, as_seed_sequence,
                      trace_all_certified)
from .geometry import Universe

# Largest universe ``gen_marginals2`` builds.
MARGINALS2_MAX_POINTS = 4096


# ---------------------------------------------------------------------------
# universe generators


def gen_thresholds(m: int) -> Universe:
    """Threshold-query universe: m points in {0,1}^m.

    Point x (for x = 1..m) answers query t with 1 iff x < t, so the
    rows are the strict upper triangle of an all-ones matrix and each
    row's coordinates are zeros followed by ones in query order.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    return Universe(points=np.triu(np.ones((m, m)), k=1))


def gen_marginals2(d: int) -> Universe:
    """Pairwise-product universe: 2^d bitstrings mapped to the d*(d-1)/2
    coordinate products b_i * b_j (i < j)."""
    if d < 2:
        raise ValueError("d must be at least 2")
    if 2 ** d > MARGINALS2_MAX_POINTS:
        raise ValueError(
            f"2^{d} points exceed the cap of {MARGINALS2_MAX_POINTS}")
    codes = np.arange(2 ** d)
    bits = ((codes[:, None] >> np.arange(d)[None, :]) & 1).astype(float)
    pairs = list(itertools.combinations(range(d), 2))
    ii = np.array([p[0] for p in pairs])
    jj = np.array([p[1] for p in pairs])
    return Universe(points=bits[:, ii] * bits[:, jj])


def gen_cone(m: int, alpha: float, density: int = 200,
             seed: int | None = None) -> Universe:
    """Discretized circular cone: apex at the origin, base ball of radius
    alpha*sqrt(m) centered at (1-alpha)*sqrt(m)*e1.

    Contains the apex, the base center, ``density`` points on the base
    sphere, and ``density`` points along random apex-to-base rays.  The
    points typically leave [0,1]^m; the universe's unit-box flag records
    that, and the bounding box is reported by the CLI.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if density < 1:
        raise ValueError("density must be at least 1")
    rng = np.random.default_rng(seed)
    root_m = math.sqrt(m)
    center = np.zeros(m)
    center[0] = (1.0 - alpha) * root_m
    radius = alpha * root_m

    def base_samples(count: int) -> np.ndarray:
        v = rng.standard_normal((count, m))
        v[:, 0] = 0.0
        norms = np.linalg.norm(v, axis=1)
        norms[norms == 0] = 1.0
        return center + radius * v / norms[:, None]

    sphere = base_samples(density)
    rays = rng.uniform(0.0, 1.0, density)[:, None] * base_samples(density)
    pts = np.vstack([np.zeros((1, m)), center[None, :], sphere, rays])
    return Universe(points=pts)


def gen_random_sphere(m: int, size: int, radius: float,
                      seed: int | None = None) -> Universe:
    """Uniform points on the sphere of the given radius, for scaling runs."""
    if m < 1 or size < 1:
        raise ValueError("need m >= 1 and size >= 1")
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((size, m))
    norms = np.linalg.norm(v, axis=1)
    norms[norms == 0] = 1.0
    return Universe(points=radius * v / norms[:, None])


# ---------------------------------------------------------------------------
# dataset generators


def gen_dataset(u: Universe, n: int, mode: str = "uniform",
                seed: int | None = None, index: int | None = None) -> Dataset:
    """Draw a dataset of n universe rows.

    Modes: "uniform" (iid uniform rows), "point_mass" (n copies of
    ``index``), "mixture" (iid from a seeded Dirichlet distribution over
    a few random rows).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    if mode == "uniform":
        idx = rng.integers(0, u.size, size=n)
    elif mode == "point_mass":
        if index is None:
            raise ValueError("point_mass mode needs an index")
        if not 0 <= index < u.size:
            raise ValueError("point index out of range")
        idx = np.full(n, index, dtype=int)
    elif mode == "mixture":
        k = min(5, u.size)
        support = rng.choice(u.size, size=k, replace=False)
        probs = rng.dirichlet(np.ones(k))
        idx = rng.choice(support, size=n, p=probs / probs.sum())
    else:
        raise ValueError(f"unknown dataset mode {mode!r}")
    return Dataset(universe=u, indices=idx)


# ---------------------------------------------------------------------------
# mechanism specs and error measurement


class Mechanism(NamedTuple):
    """One row of the mechanism table.

    ``privacy`` names the spec key of the privacy parameter: ``rho``
    for the central (zCDP) mechanisms, ``epsilon`` for the local
    (pure-DP per party) protocols.  ``upper_bound`` is the
    ``bounds.bound_report`` key of the mechanism's sample-size estimate.
    ``release(dataset, spec, seed)`` runs it; a local protocol's
    ``protocol(dataset, spec)`` returns its parties and
    ``local.LocalProtocolSpec``, whose transcript is what it publishes.
    """

    privacy: str
    needs_alpha: bool
    upper_bound: str | None
    release: Callable[[Dataset, dict, object], MechanismOutput]
    protocol: Callable | None = None


MECHANISMS = {
    "projection": Mechanism(
        "rho", False, None,
        lambda d, c, s: central.projection_mechanism(d, c["rho"], seed=s)),
    "coarse": Mechanism(
        "rho", True, "ub_coarse",
        lambda d, c, s: central.coarse_projection_mechanism(
            d, c["rho"], c["alpha"], seed=s)),
    "chaining": Mechanism(
        "rho", True, "ub_chain",
        lambda d, c, s: central.chaining_mechanism(
            d, c["rho"], c["alpha"], seed=s)),
    "pmw": Mechanism(
        "rho", False, None,
        lambda d, c, s: central.pmw_mechanism(
            d, c["rho"], config=PMWConfig(**c.get("pmw", {})), seed=s)),
    "chaining_linf": Mechanism(
        "rho", True, "ub_infty",
        lambda d, c, s: central.chaining_mechanism_linf(
            d, c["rho"], c["alpha"], seed=s)),
    "lpm": Mechanism(
        "epsilon", False, None,
        lambda d, c, s: local.local_projection_protocol(
            d, c["epsilon"], seed=s),
        lambda d, c: local.projection_protocol(d, c["epsilon"])),
    "lcpm": Mechanism(
        "epsilon", True, "ub_local_coarse",
        lambda d, c, s: local.local_coarse_projection(
            d, c["epsilon"], c["alpha"], seed=s),
        lambda d, c: local.coarse_protocol(d, c["epsilon"], c["alpha"])),
    "lcm": Mechanism(
        "epsilon", True, "ub_local_chain",
        lambda d, c, s: local.local_chaining(
            d, c["epsilon"], c["alpha"], seed=s),
        lambda d, c: local.chaining_protocol(d, c["epsilon"], c["alpha"])),
}
CENTRAL_MECHANISMS = tuple(k for k, v in MECHANISMS.items()
                           if v.privacy == "rho")
LOCAL_PROTOCOLS = tuple(k for k, v in MECHANISMS.items()
                        if v.privacy == "epsilon")


def make_mechanism(spec: dict) -> Callable[[Dataset, object], MechanismOutput]:
    """Build a ``(dataset, seed) -> output`` runner from a config dict.

    The spec names a ``MECHANISMS`` row and carries its privacy
    parameter, ``alpha`` where the row needs it, and for ``pmw`` an
    optional ``pmw`` block of ``PMWConfig`` overrides.
    """
    name = spec.get("mechanism")
    if name not in MECHANISMS:
        raise ValueError(f"unknown mechanism {name!r}")
    release, spec = MECHANISMS[name].release, dict(spec)
    return lambda d, s: release(d, spec, s)


def _spec_bounds(u: Universe, spec: dict) -> dict:
    alpha = spec.get("alpha")
    if alpha is None or not 0 < alpha < 1:
        return {}
    return bounds.bound_report(u, alpha, rho=spec.get("rho"),
                               epsilon=spec.get("epsilon"))


@dataclass
class RunReport:
    """Empirical error statistics for repeated runs of one mechanism.

    ``err2_mean`` follows the average-error definition with the
    expectation inside the square root: the square root of the mean of
    per-trial normalized squared errors (1/m)*||out - mean||^2.
    ``err2_sd`` is the sample standard deviation of the per-trial root
    errors, and ``errinf_mean`` the mean sup-norm error.
    """

    config: dict
    n: int
    m: int
    universe_size: int
    trials: int
    seed: int | None
    per_trial_sq_err: list[float]
    per_trial_inf_err: list[float]
    per_trial_certified: list[bool]
    err2_mean: float
    err2_sd: float
    errinf_mean: float
    bounds: dict
    wall_ms: float

    @property
    def num_non_certified(self) -> int:
        return sum(1 for c in self.per_trial_certified if not c)

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, obj: dict) -> "RunReport":
        return cls(**{f.name: obj[f.name] for f in fields(cls)})

    def determinism_hash(self) -> str:
        """Digest of everything except the wall-clock field."""
        body = self.to_json()
        body.pop("wall_ms")
        blob = json.dumps(body, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def aggregate_errors(sq_errors: list[float],
                     inf_errors: list[float]) -> tuple[float, float, float]:
    """(err2_mean, err2_sd, errinf_mean) from per-trial errors."""
    err2_mean = math.sqrt(sum(sq_errors) / len(sq_errors))
    roots = [math.sqrt(v) for v in sq_errors]
    err2_sd = statistics.stdev(roots) if len(roots) > 1 else 0.0
    errinf_mean = sum(inf_errors) / len(inf_errors)
    return err2_mean, err2_sd, errinf_mean


def measure_error(d: Dataset, spec: dict, trials: int,
                  seed: int | None = None) -> RunReport:
    """Run a mechanism ``trials`` times with derived seeds and report.

    Per-trial errors are measured against the dataset mean; mechanism
    errors propagate.  Bound evaluations from the estimators are
    attached when the spec carries an alpha.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    runner = make_mechanism(spec)
    target = d.mean()
    m = d.universe.dim
    trial_seeds = as_seed_sequence(seed).spawn(trials)
    sq, inf, certified = [], [], []
    t0 = time.perf_counter()
    for ts in trial_seeds:
        out = runner(d, ts)
        err = np.asarray(out.estimate) - target
        sq.append(float(err @ err) / m)
        inf.append(float(np.abs(err).max()))
        certified.append(trace_all_certified(out.trace))
    wall_ms = (time.perf_counter() - t0) * 1000.0
    err2_mean, err2_sd, errinf_mean = aggregate_errors(sq, inf)
    return RunReport(config=dict(spec), n=d.n, m=m,
                     universe_size=d.universe.size, trials=trials, seed=seed,
                     per_trial_sq_err=sq, per_trial_inf_err=inf,
                     per_trial_certified=certified, err2_mean=err2_mean,
                     err2_sd=err2_sd, errinf_mean=errinf_mean,
                     bounds=_spec_bounds(d.universe, spec), wall_ms=wall_ms)
