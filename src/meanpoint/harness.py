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

from . import bounds, central, geometry, local
from .central import Dataset, MechanismOutput, as_seed_sequence
from .geometry import Decomposition, Norm, Universe

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
    """Draw the counts of a dataset of n universe rows, in O(|X|) at any n.

    Modes: "uniform" (multinomial over all rows), "point_mass" (n copies
    of ``index``), "mixture" (multinomial over a seeded Dirichlet
    distribution on a few random rows).
    """
    if not 1 <= n < 2 ** 63:
        raise ValueError("n must be at least 1 and fit an int64 count")
    rng = np.random.default_rng(seed)
    counts = np.zeros(u.size, dtype=np.int64)
    if mode == "uniform":
        counts = rng.multinomial(n, np.full(u.size, 1.0 / u.size))
    elif mode == "point_mass":
        if index is None:
            raise ValueError("point_mass mode needs an index")
        if not 0 <= index < u.size:
            raise ValueError("point index out of range")
        counts[index] = n
    elif mode == "mixture":
        k = min(5, u.size)
        support = rng.choice(u.size, size=k, replace=False)
        probs = rng.dirichlet(np.ones(k))
        counts[support] = rng.multinomial(n, probs / probs.sum())
    else:
        raise ValueError(f"unknown dataset mode {mode!r}")
    return Dataset(universe=u, counts=counts)


# ---------------------------------------------------------------------------
# mechanism specs and error measurement


class Mechanism(NamedTuple):
    """One row of the mechanism table: a public split of the universe
    and a private release on each of its levels.

    ``privacy`` names the spec key of the privacy parameter: ``rho``
    for the central (zCDP) mechanisms, ``epsilon`` for the local
    (pure-DP per party) protocols.  ``needs_alpha`` says whether the
    mechanism reads the error target ``alpha``.  ``upper_bound`` is the
    ``bounds.bound_report`` key of the mechanism's sample-size estimate.
    ``split(u, alpha)`` is the row's public ``geometry.Decomposition``,
    the identity (one level, the universe itself) for projection, PMW
    and LPM.  ``level(d, rho, alpha, seed)`` is the central release on
    one level at target (alpha - split.alpha / 2) / k.  A local row runs
    ``local.LevelProtocol`` over the levels with epsilon / k each.
    """

    privacy: str
    needs_alpha: bool
    upper_bound: str | None
    split: Callable[[Universe, float | None], Decomposition]
    level: Callable[[Dataset, object, float, object], MechanismOutput] | None


def _projection(d: Dataset, rho, alpha, seed) -> MechanismOutput:
    return central.projection_mechanism(d, rho, seed=seed)


def _pmw(d: Dataset, rho, alpha, seed) -> MechanismOutput:
    return central.pmw_mechanism(d, rho, alpha, seed=seed)


def _identity(u: Universe, alpha) -> Decomposition:
    # The level universe is u itself, so releases share u's memoised tables.
    def build() -> Decomposition:
        rows = np.arange(u.size)
        # The scale-0 cover generates the level: each distinct row once.
        gen = np.sort(np.unique(u.points, axis=0, return_index=True)[1])
        for a in (rows, gen):
            a.setflags(write=False)
        radius = float(geometry._row_norms(u.points, Norm.L2).max())
        dec = Decomposition([u.points], rows[:, None], [gen], scales=[0.0],
                            remainder_radius=0.0, norm=Norm.L2,
                            level_radii=[radius], delta=radius, alpha=0.0)
        dec.level_universes = [u]
        return dec

    return geometry._memo(u, ("identity_decomposition",), build)


def _coarse(u: Universe, alpha: float) -> Decomposition:
    return geometry.coarse_decomposition(u, alpha)


def _chaining(u: Universe, alpha: float) -> Decomposition:
    return geometry.chaining_decomposition(u, alpha, Norm.L2)


def _chaining_linf(u: Universe, alpha: float) -> Decomposition:
    # The sup-norm split uses balls of radius 1.
    if not u.in_unit_box:
        raise ValueError("sup-norm chaining requires a [0, 1]^m universe")
    return geometry.chaining_decomposition(u, alpha, Norm.LINF)


MECHANISMS = {
    "projection": Mechanism("rho", False, None, _identity, _projection),
    "coarse": Mechanism("rho", True, "ub_coarse", _coarse, _projection),
    "chaining": Mechanism("rho", True, "ub_chain", _chaining, _projection),
    "pmw": Mechanism("rho", True, None, _identity, _pmw),
    "chaining_linf": Mechanism("rho", True, "ub_infty", _chaining_linf, _pmw),
    "lpm": Mechanism("epsilon", False, None, _identity, None),
    "lcpm": Mechanism("epsilon", True, "ub_local_coarse", _coarse, None),
    "lcm": Mechanism("epsilon", True, "ub_local_chain", _chaining, None),
}
CENTRAL_MECHANISMS = tuple(k for k, v in MECHANISMS.items()
                           if v.privacy == "rho")
LOCAL_PROTOCOLS = tuple(k for k, v in MECHANISMS.items()
                        if v.privacy == "epsilon")


def _row(spec: dict) -> Mechanism:
    """The spec's table row, once the spec holds every key it reads and
    its privacy value and any alpha are finite and positive."""
    name = spec.get("mechanism")
    if name not in MECHANISMS:
        raise ValueError(f"unknown mechanism {name!r}")
    row = MECHANISMS[name]
    for key in (row.privacy, "alpha"):
        value = spec.get(key)
        if value is None and (key == row.privacy or row.needs_alpha):
            raise ValueError(f"{name} needs {key}")
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ValueError(f"{key} must be finite and positive")
    return row


def level_protocol(d: Dataset, spec: dict) -> local.LevelProtocol:
    """The ``local.LevelProtocol`` a local row's spec runs on ``d``, party
    i on row ``d.indices[i]``; too many parties are refused first."""
    row = _row(spec)
    if row.level is not None:
        raise ValueError(f"{spec['mechanism']} is not a local protocol")
    local._refuse_parties(d.n)
    dec = row.split(d.universe, spec.get("alpha"))
    return local.LevelProtocol(dec.levels, dec.assignments[d.indices],
                               spec["epsilon"])


def make_mechanism(spec: dict) -> Callable[[Dataset, object], MechanismOutput]:
    """Build a ``(dataset, seed, sink=None) -> output`` runner from a spec.

    The spec names a ``MECHANISMS`` row and carries its privacy
    parameter and, where the row needs it, ``alpha``; every other
    setting of the mechanism follows from those two.  Every row runs
    over its split, a local row as its ``level_protocol`` with ``sink``
    (see ``local.simulate_protocol``), and writes one trace:
    ``{"mechanism", "k", "levels", "alpha", "remainder_radius"}``.
    A central row's public level (``Decomposition.live`` false) has the
    level trace ``{"mechanism": "public", "sigma": 0.0, "sensitivity": 0.0}``.
    """
    row = _row(spec)
    name, alpha = spec["mechanism"], spec.get("alpha")

    def run(d: Dataset, seed, sink=None) -> MechanismOutput:
        dec = row.split(d.universe, alpha)
        if row.level is None:
            out = local.simulate_protocol(level_protocol(d, spec), seed, sink)
        else:
            target = None if alpha is None else (alpha - dec.alpha / 2) / dec.k
            out = central.decompose_and_run(
                d, dec, lambda e, rho, s: row.level(e, rho, target, s),
                spec["rho"], seed=seed)
        out.trace = dict(mechanism=name, k=dec.k, levels=out.trace["levels"],
                         alpha=alpha, remainder_radius=dec.remainder_radius)
        return out

    return run


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


def measure_error(d: Dataset, spec: dict, trials: int,
                  seed: int | None = None, sink=None) -> RunReport:
    """Run a mechanism ``trials`` times with derived seeds and report.

    Per-trial errors are measured against the dataset mean; mechanism
    errors propagate.  Bound evaluations from the estimators are
    attached when the spec carries an alpha.  A local row's trial 0
    streams its messages to ``sink``; other trials call ``runner(d, seed)``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    runner = make_mechanism(spec)
    if sink is not None and MECHANISMS[spec["mechanism"]].level is not None:
        raise ValueError(f"{spec['mechanism']} sends no messages to stream")
    target = d.mean()
    m = d.universe.dim
    trial_seeds = as_seed_sequence(seed).spawn(trials)
    sq, inf, certified = [], [], []
    t0 = time.perf_counter()
    for t, ts in enumerate(trial_seeds):
        out = runner(d, ts, sink) if sink and t == 0 else runner(d, ts)
        err = np.asarray(out.estimate) - target
        sq.append(float(err @ err) / m)
        inf.append(float(np.abs(err).max()))
        certified.append(all(level.get("projection_certified", True)
                             for level in out.trace["levels"]))
    wall_ms = (time.perf_counter() - t0) * 1000.0
    roots = [math.sqrt(v) for v in sq]
    return RunReport(config=dict(spec), n=d.n, m=m,
                     universe_size=d.universe.size, trials=trials, seed=seed,
                     per_trial_sq_err=sq, per_trial_inf_err=inf,
                     per_trial_certified=certified,
                     err2_mean=math.sqrt(sum(sq) / len(sq)),
                     err2_sd=statistics.stdev(roots) if trials > 1 else 0.0,
                     errinf_mean=sum(inf) / len(inf),
                     bounds=_spec_bounds(d.universe, spec), wall_ms=wall_ms)
