"""Central-model mechanisms under zero-concentrated differential privacy.

Projection, coarse projection, chaining (average error), multiplicative
weights (worst-case error), chaining over multiplicative weights, and
the level combinator that runs one level mechanism on every summand of
a decomposition with an equal share of rho and adds the results.

Every mechanism owns one RNG stream derived from its seed; identical
seeds and inputs give bit-identical outputs.  Level mechanisms get
independent child streams derived from the run seed by level index
(a single level passes the stream through unchanged, so a one-level run
matches the direct mechanism call).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import geometry, hull, privacy
from .geometry import Decomposition, Norm, Universe
from .privacy import Accountant, PrivacyBudget, as_fraction


@dataclass(eq=False)
class Dataset:
    """Multiset of universe rows; the estimation target is its mean."""

    universe: Universe
    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int).reshape(-1)
        if idx.size < 1:
            raise ValueError("dataset must contain at least one element")
        if idx.min() < 0 or idx.max() >= self.universe.size:
            raise ValueError("dataset index out of universe range")
        self.indices = idx

    @property
    def n(self) -> int:
        return int(self.indices.size)

    def points(self) -> np.ndarray:
        return self.universe.points[self.indices]

    def mean(self) -> np.ndarray:
        return self.points().mean(axis=0)


@dataclass
class MechanismOutput:
    """Released estimate plus the budget ledger and diagnostics."""

    estimate: np.ndarray
    budget_consumed: PrivacyBudget
    trace: dict
    seed: object = None

    def to_json(self) -> dict:
        return {
            "estimate": [repr(float(v)) for v in np.asarray(self.estimate)],
            "budget": self.budget_consumed.to_json(),
            "trace": _jsonable(self.trace),
            "seed": _seed_repr(self.seed),
        }


def _seed_repr(seed) -> str | int | None:
    if seed is None or isinstance(seed, int):
        return seed
    return repr(seed)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.floating, float)):
        return repr(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """SeedSequence from an int/None seed or another SeedSequence.

    An incoming SeedSequence is rebuilt from its entropy and spawn key
    so that repeated derivations from the same object stay identical
    (spawning mutates a child counter otherwise).
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(entropy=seed.entropy,
                                      spawn_key=seed.spawn_key)
    return np.random.SeedSequence(seed)


def _level_seeds(seed, k: int) -> list:
    # One level reuses the run stream so the combinator degenerates to
    # the direct mechanism call; otherwise spawn one child per level.
    if k == 1:
        return [seed]
    return list(as_seed_sequence(seed).spawn(k))


def trace_all_certified(trace: dict) -> bool:
    """Whether every projection recorded in a (nested) trace certified."""
    ok = trace.get("projection_certified", True)
    for sub in trace.get("levels", []):
        ok = ok and trace_all_certified(sub)
    return bool(ok)


# ---------------------------------------------------------------------------
# projection mechanism and its coarse variant


def projection_mechanism(d: Dataset, rho, seed=None) -> MechanismOutput:
    """Gaussian-noise the dataset mean, then project back onto the hull.

    Noise is calibrated to the exact mean sensitivity (universe diameter
    over n) at the requested zCDP level; the projection step is pure
    post-processing.
    """
    rho_fr = as_fraction(rho)
    if rho_fr <= 0:
        raise ValueError("rho must be positive")
    u = d.universe
    acct = Accountant(PrivacyBudget.zcdp(rho_fr))
    spec = privacy.gaussian_noise_spec(privacy.mean_sensitivity(u, d.n), rho_fr)
    rng = np.random.default_rng(seed)
    noisy = d.mean() + rng.normal(0.0, spec.sigma, size=u.dim)
    acct.charge(spec.budget)
    proj = hull.project_onto_hull(noisy, u.points)
    trace = {
        "mechanism": "projection",
        "sigma": spec.sigma,
        "sensitivity": spec.sensitivity,
        "projection_iterations": proj.iterations,
        "projection_gap": proj.gap,
        "projection_certified": proj.certified,
    }
    return MechanismOutput(estimate=proj.point,
                           budget_consumed=acct.consumed,
                           trace=trace, seed=seed)


def coarse_projection_mechanism(d: Dataset, rho, alpha: float,
                                seed=None) -> MechanismOutput:
    """Round to a maximal (alpha/2)-separated subset, then project there.

    The rounding is public preprocessing; the projection mechanism runs
    on the rounded dataset over the smaller universe with the full
    budget.  The dropped remainder is covered by the zero mechanism on a
    ball of radius (alpha/2)*sqrt(m), which costs nothing.
    """
    u = d.universe
    centers, rounding = geometry.coarse_rounding(u, alpha)
    rounded = Dataset(universe=centers, indices=rounding[d.indices])
    out = projection_mechanism(rounded, rho, seed=seed)
    trace = dict(out.trace)
    trace.update({
        "mechanism": "coarse_projection",
        "alpha": float(alpha),
        "cover_size": centers.size,
        "remainder_radius": 0.5 * alpha * math.sqrt(u.dim),
    })
    return MechanismOutput(estimate=out.estimate,
                           budget_consumed=out.budget_consumed,
                           trace=trace, seed=seed)


# ---------------------------------------------------------------------------
# level combinator


def level_dataset(d: Dataset, dec: Decomposition, j: int) -> Dataset:
    """Dataset induced on level j by the decomposition's assignments."""
    return Dataset(universe=dec.level_universes[j],
                   indices=dec.assignments[d.indices, j])


def decompose_and_run(d: Dataset, dec: Decomposition,
                      release: Callable[[Dataset, Fraction, object],
                                        MechanismOutput],
                      rho, seed=None) -> MechanismOutput:
    """Run ``release(level_dataset, rho / k, level_seed)`` on each of the
    decomposition's k levels and add the outputs.

    Both error measures in use are subadditive, so the summed release
    inherits the per-level error bounds, and the ledger composes the
    per-level budgets.  The remainder term is handled by the (free) zero
    mechanism, which adds nothing.
    """
    k = dec.k
    parts = privacy.split_budget(as_fraction(rho), k)
    estimate = np.zeros(d.universe.dim)
    outputs = []
    for j, level_seed in enumerate(_level_seeds(seed, k)):
        out = release(level_dataset(d, dec, j), parts[j], level_seed)
        outputs.append(out)
        estimate = estimate + out.estimate
    trace = {
        "mechanism": "decompose_and_run",
        "k": k,
        "remainder_radius": dec.remainder_radius,
        "levels": [o.trace for o in outputs],
    }
    return MechanismOutput(
        estimate=estimate,
        budget_consumed=privacy.compose([o.budget_consumed for o in outputs]),
        trace=trace, seed=seed)


def chaining_mechanism(d: Dataset, rho, alpha: float, seed=None) -> MechanismOutput:
    """Chaining: solve one projection subproblem per decomposition level.

    The universe is split into halving-scale summands; each level runs
    the projection mechanism with budget rho/k and the outputs are
    summed.  The remainder ball contributes at most alpha/2 error for
    free.
    """
    dec = geometry.chaining_decomposition(d.universe, alpha, Norm.L2)
    out = decompose_and_run(d, dec, projection_mechanism, rho, seed=seed)
    out.trace.update(mechanism="chaining", alpha=float(alpha))
    return out


# ---------------------------------------------------------------------------
# private multiplicative weights

# Most multiplicative-weights rounds the default schedule runs.
PMW_ROUND_CAP = 200


@dataclass
class PMWConfig:
    """Multiplicative-weights run parameters.

    ``rounds`` and ``learning_rate`` override the defaults
    T = ceil(4 * ln|X| / alpha_target^2) capped at ``PMW_ROUND_CAP`` and
    eta = alpha_target / (4 * delta), where delta bounds the universe's
    coordinates.  The per-round budget is split evenly between the
    noisy-max selection and the answer.
    """

    rounds: int | None = None
    learning_rate: float | None = None
    alpha_target: float = 0.3

    def resolve(self, universe_size: int, coord_bound: float) -> tuple[int, float]:
        if self.rounds is not None:
            rounds = int(self.rounds)
        else:
            rounds = min(PMW_ROUND_CAP, math.ceil(
                4.0 * math.log(max(universe_size, 2))
                / self.alpha_target ** 2))
        if rounds < 1:
            raise ValueError("need at least one round")
        if self.learning_rate is not None:
            eta = float(self.learning_rate)
        else:
            eta = self.alpha_target / (4.0 * max(coord_bound, 1e-12))
        if eta <= 0:
            raise ValueError("learning rate must be positive")
        return rounds, eta


def pmw_mechanism(d: Dataset, rho, config: PMWConfig | None = None,
                  seed=None) -> MechanismOutput:
    """Multiplicative weights with private per-round corrections.

    Maintains a weight vector over universe points (uniform at first).
    Each round privately selects the coordinate with the largest signed
    gap between the synthetic mean and the true mean (Gaussian
    noisy-max over the 2m signed errors), buys a Gaussian-noised answer
    for it, and nudges the weights multiplicatively toward that answer.
    Selection noise is calibrated conservatively, as a full Gaussian
    release of the signed error vector.
    """
    rho_fr = as_fraction(rho)
    if rho_fr <= 0:
        raise ValueError("rho must be positive")
    config = config or PMWConfig()
    u = d.universe
    pts = u.points
    size, m = pts.shape
    coord_bound = float(np.abs(pts).max())
    rounds, eta = config.resolve(size, coord_bound)

    acct = Accountant(PrivacyBudget.zcdp(rho_fr))
    per_round = privacy.split_budget(rho_fr, rounds)
    target = d.mean()
    # Signed error vector (e, -e) doubles the L2 sensitivity quadratically:
    # sqrt(2) times the mean's sensitivity.
    mean_sens = privacy.mean_sensitivity(u, d.n)
    coord_ranges = pts.max(axis=0) - pts.min(axis=0)
    answer_sens = float(coord_ranges.max()) / d.n

    rng = np.random.default_rng(seed)
    weights = np.full(size, 1.0 / size)
    select_sigma = answer_sigma = 0.0
    for rho_round in per_round:
        rho_select = rho_round / 2
        rho_answer = rho_round - rho_select
        select_sigma = privacy.gaussian_sigma_for_zcdp(
            math.sqrt(2.0) * mean_sens, rho_select)
        answer_sigma = privacy.gaussian_sigma_for_zcdp(
            answer_sens, rho_answer)
        synthetic = weights @ pts
        gap = target - synthetic
        scores = np.concatenate([gap, -gap])
        scores = scores + rng.normal(0.0, select_sigma, size=2 * m)
        acct.charge(PrivacyBudget.zcdp(rho_select))
        pick = int(scores.argmax())
        coord = pick % m
        answer = float(target[coord]) + float(rng.normal(0.0, answer_sigma))
        acct.charge(PrivacyBudget.zcdp(rho_answer))
        shift = answer - float(synthetic[coord])
        if shift != 0.0:
            weights = weights * np.exp(eta * math.copysign(1.0, shift)
                                       * pts[:, coord])
            weights = weights / weights.sum()
    estimate = weights @ pts
    trace = {
        "mechanism": "pmw",
        "rounds": rounds,
        "eta": eta,
        "coord_bound": coord_bound,
        "selection_sigma": select_sigma,
        "answer_sigma": answer_sigma,
    }
    return MechanismOutput(estimate=estimate, budget_consumed=acct.consumed,
                           trace=trace, seed=seed)


def chaining_mechanism_linf(d: Dataset, rho, alpha: float,
                            seed=None) -> MechanismOutput:
    """Worst-case-error chaining: multiplicative weights per level.

    Decomposes the universe under the sup norm (ball radius 1, so the
    universe must sit inside the unit box), runs multiplicative weights
    with budget rho/k on every level, and sums.  The remainder ball
    contributes at most alpha/2 in sup norm.
    """
    if not d.universe.in_unit_box:
        raise ValueError("sup-norm chaining requires a [0, 1]^m universe")
    dec = geometry.chaining_decomposition(d.universe, alpha, Norm.LINF)
    config = PMWConfig(alpha_target=alpha / (2.0 * dec.k))

    def release(level: Dataset, rho_part, level_seed) -> MechanismOutput:
        return pmw_mechanism(level, rho_part, config=config, seed=level_seed)

    out = decompose_and_run(d, dec, release, rho, seed=seed)
    out.trace.update(mechanism="chaining_linf", alpha=float(alpha))
    return out
