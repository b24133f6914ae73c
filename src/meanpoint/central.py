"""Central-model level releases under zero-concentrated differential privacy.

The projection mechanism (average error), private multiplicative
weights (worst-case error), and the level combinator that runs one
level release on every summand of a decomposition with an equal share
of rho and adds the results.  Every central ``harness.MECHANISMS`` row
is the combinator over its public split; projection and PMW alone are
its one-level case, on the identity split.

A dataset is its count vector over the universe, all that a mechanism
reads of the private data, so a release costs the same at any n.
Every mechanism owns one RNG stream derived from its seed; identical
seeds and inputs give bit-identical outputs.  Level mechanisms get
independent child streams derived from the run seed by level index
(a single level passes the stream through unchanged, so a one-level run
matches the direct mechanism call).  A level whose rows are all one
point is public, and the combinator releases it without a mechanism.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable

import numpy as np

from . import geometry, hull, privacy
from .geometry import Decomposition, Norm, Universe
from .privacy import PrivacyBudget, as_fraction


@dataclass(eq=False)
class Dataset:
    """Multiset of universe rows; the estimation target is its mean.

    ``counts`` says how many elements sit on each universe row, less
    than 2**63 in all, and it is kept as a read-only int64 copy.  It is
    all a central release reads: the mean is ``counts @ points / n``,
    O(|X| * m) at any n.  The local protocols read ``indices``, one row
    per party.
    """

    universe: Universe
    counts: np.ndarray = field(kw_only=True)
    n: int = field(init=False)

    def __post_init__(self):
        counts = np.array(self.counts)
        if counts.shape != (self.universe.size,):
            raise ValueError("dataset counts need one entry per universe row")
        if counts.dtype.kind not in "iuf" or not (
                np.isfinite(counts).all() and (counts >= 0).all()
                and (counts == np.floor(counts)).all()):
            raise ValueError("dataset counts must be non-negative integers")
        # Clipped at 2**63, float counts cast exactly; a uint64 sum wraps
        # only where the prefix sums fall.
        wide = (np.minimum(counts, 2.0 ** 63) if counts.dtype.kind == "f"
                else counts).astype(np.uint64)
        prefix = np.cumsum(wide)
        self.n = int(prefix[-1])
        if not 1 <= self.n < 2 ** 63 or (prefix[1:] < prefix[:-1]).any():
            raise ValueError("dataset counts must total at least 1 and fit "
                             "an int64")
        counts = counts.astype(np.int64, copy=False)
        counts.setflags(write=False)
        self.counts = counts

    @cached_property
    def indices(self) -> np.ndarray:
        """Each element's universe row, grouped by row, built once and
        read-only: the local protocols' party i holds row ``indices[i]``."""
        idx = np.repeat(np.arange(self.universe.size), self.counts)
        idx.setflags(write=False)
        return idx

    def mean(self) -> np.ndarray:
        return self.counts @ self.universe.points / self.n


@dataclass
class MechanismOutput:
    """Released estimate plus the budget it spent and diagnostics."""

    estimate: np.ndarray
    budget_consumed: PrivacyBudget
    trace: dict


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


# ---------------------------------------------------------------------------
# projection mechanism


def projection_mechanism(d: Dataset, rho, seed=None) -> MechanismOutput:
    """Gaussian-noise the dataset mean, then project back onto the hull.

    Noise is calibrated to the exact mean sensitivity (universe diameter
    over n) at the requested zCDP level; the projection step is pure
    post-processing.
    """
    u = d.universe
    sensitivity = privacy.mean_sensitivity(u, d.n)
    sigma = privacy.gaussian_sigma_for_zcdp(sensitivity, rho)
    rng = np.random.default_rng(seed)
    noisy = d.mean() + rng.normal(0.0, sigma, size=u.dim)
    proj = hull.project_onto_hull(noisy, u.points)
    trace = {
        "mechanism": "projection",
        "sigma": sigma,
        "sensitivity": sensitivity,
        "projection_iterations": proj.iterations,
        "projection_gap": proj.gap,
        "projection_certified": proj.certified,
    }
    return MechanismOutput(estimate=proj.point,
                           budget_consumed=PrivacyBudget.zcdp(rho),
                           trace=trace)


# ---------------------------------------------------------------------------
# level combinator


def level_dataset(d: Dataset, dec: Decomposition, j: int) -> Dataset:
    """Dataset induced on level j by the decomposition's assignments.

    Its counts add ``d``'s counts, as integers, over the universe rows
    that level j maps to each of its rows: O(|X|), whatever n is.
    """
    level = dec.level_universes[j]
    counts = np.zeros(level.size, dtype=np.int64)
    np.add.at(counts, dec.assignments[:, j], d.counts)
    return Dataset(universe=level, counts=counts)


def decompose_and_run(d: Dataset, dec: Decomposition,
                      release: Callable[[Dataset, Fraction, object],
                                        MechanismOutput],
                      rho, seed=None) -> MechanismOutput:
    """Run ``release(level_dataset, rho / k, level_seed)`` on each live
    level of the decomposition and add the k level outputs in order.

    A level that is not live (``Decomposition.live``) has its row as its
    mean for every dataset: its output is that row, charged rho / k, with
    the trace ``{"mechanism": "public", "sigma": 0.0, "sensitivity": 0.0}``.
    Both error measures in use are subadditive, so the summed release
    inherits the per-level error bounds, and ``privacy.compose`` adds
    the per-level budgets.  The remainder term is handled by the (free)
    zero mechanism, which adds nothing.
    """
    k = dec.k
    rho_part = as_fraction(rho) / k
    estimate = np.zeros(d.universe.dim)
    outputs = []
    # Live level j draws from spawn(k)[j], built alone; one level reuses
    # the run stream, so an identity split is the direct mechanism call.
    root = as_seed_sequence(seed) if k > 1 else None
    for j, live in enumerate(dec.live):
        if live:
            level_seed = seed if root is None else np.random.SeedSequence(
                root.entropy, spawn_key=(*root.spawn_key, j))
            out = release(level_dataset(d, dec, j), rho_part, level_seed)
        else:
            out = MechanismOutput(
                dec.levels[j][0], PrivacyBudget.zcdp(rho_part),
                {"mechanism": "public", "sigma": 0.0, "sensitivity": 0.0})
        outputs.append(out)
        estimate = estimate + out.estimate
    return MechanismOutput(
        estimate=estimate,
        budget_consumed=privacy.compose([o.budget_consumed for o in outputs]),
        trace={"levels": [o.trace for o in outputs]})


# ---------------------------------------------------------------------------
# private multiplicative weights

# Most multiplicative-weights rounds a release runs.
PMW_ROUND_CAP = 200


def _tilt_table(pts: np.ndarray, eta: float) -> np.ndarray:
    """Read-only (2m, |X|) table of the weight updates: row c is
    exp(eta * pts[:, c]), row m + c exp(-eta * pts[:, c])."""
    table = np.exp(np.concatenate([eta * pts.T, -eta * pts.T]))
    table.setflags(write=False)
    return table


def pmw_mechanism(d: Dataset, rho, alpha: float, seed=None) -> MechanismOutput:
    """Multiplicative weights with private per-round corrections.

    The error target alpha fixes the schedule: T = ceil(4 * ln|X| /
    alpha^2) rounds, capped at ``PMW_ROUND_CAP`` (an alpha whose square
    underflows gets the cap), at learning rate eta = alpha / (4 * delta),
    where delta bounds the universe's coordinates.

    Maintains a weight vector over universe points (uniform at first).
    Each round privately selects the coordinate with the largest signed
    gap between the synthetic mean and the true mean (Gaussian
    noisy-max over the 2m signed errors), buys a Gaussian-noised answer
    for it, and nudges the weights multiplicatively toward that answer.
    Selection noise is calibrated conservatively, as a full Gaussian
    release of the signed error vector.  Every round spends rho/rounds,
    half on the selection and half on the answer, so the pair of noise
    scales is computed once and fixed for the whole release.

    All the noise is one ``(rounds, 2m + 1)`` block of standard normals
    drawn before the first round: round t scales row t's first 2m
    entries by the selection sigma and its last by the answer sigma,
    the same stream as a ``normal(0, sigma, 2m)`` then a
    ``normal(0, sigma')`` call per round.  The multiplicative updates
    exp(+-eta * pts[:, c]) are public given the universe and alpha, so
    they are one read-only ``_tilt_table`` cached on the universe under
    eta; a round only reads a row of it.  A round is a few numpy calls
    on short vectors, mostly call overhead, so they write into kept
    buffers through callees bound before the loop: the synthetic mean
    is one ``ndarray.dot`` and the renormalising sum one
    ``np.add.reduce`` into a 0-d array, the floats of ``weights @ pts``
    and ``weights.sum()`` without their wrappers (measured beside
    ``hull.project_onto_hull``'s loop).
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be finite and positive")
    u = d.universe
    pts = u.points
    size, m = pts.shape
    coord_bound = float(np.abs(pts).max())
    rounds = math.ceil(min(4.0 * math.log(max(size, 2))
                           / max(alpha ** 2, sys.float_info.min),
                           PMW_ROUND_CAP))
    eta = alpha / (4.0 * max(coord_bound, 1e-12))

    rho_round = as_fraction(rho) / rounds
    rho_select = rho_round / 2
    rho_answer = rho_round - rho_select
    # Signed error vector (e, -e) doubles the L2 sensitivity quadratically:
    # sqrt(2) times the mean's sensitivity.
    select_sigma = privacy.gaussian_sigma_for_zcdp(
        math.sqrt(2.0) * privacy.mean_sensitivity(u, d.n), rho_select)
    answer_sigma = privacy.gaussian_sigma_for_zcdp(
        geometry.diameter(u, Norm.LINF) / d.n, rho_answer)

    weights = np.full(size, 1.0 / size)
    # The bound dot reads this array, so weights only change in place.
    weigh = weights.dot
    target = d.mean()
    noise = np.random.default_rng(seed).standard_normal((rounds, 2 * m + 1))
    select = select_sigma * noise[:, :-1]
    answers = (answer_sigma * noise[:, -1]).tolist()
    truth = target.tolist()
    tilt = geometry._memo(u, ("pmw_tilt", eta), lambda: _tilt_table(pts, eta))
    synthetic, scores, norm = np.empty(m), np.empty(2 * m), np.empty(())
    up, down = scores[:m], scores[m:]
    subtract, negative, divide = np.subtract, np.negative, np.divide
    total = np.add.reduce
    for select_noise, answer_noise in zip(select, answers):
        weigh(pts, synthetic)
        subtract(target, synthetic, up)
        negative(up, down)
        scores += select_noise
        coord = int(scores.argmax()) % m
        shift = (truth[coord] + answer_noise) - synthetic.item(coord)
        if shift != 0.0:
            weights *= tilt[coord if shift > 0.0 else coord + m]
            total(weights, 0, None, norm)
            divide(weights, norm, weights)
    estimate = weigh(pts)
    trace = {
        "mechanism": "pmw",
        "rounds": rounds,
        "eta": eta,
        "coord_bound": coord_bound,
        "selection_sigma": select_sigma,
        "answer_sigma": answer_sigma,
    }
    return MechanismOutput(
        estimate=estimate,
        budget_consumed=PrivacyBudget.zcdp((rho_select + rho_answer) * rounds),
        trace=trace)
