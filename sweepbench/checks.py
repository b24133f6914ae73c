"""Correctness checks on the releases a run made.

Every check is computed apart from the program's own error figures: the
benchmark takes the dataset mean, the level diameters and release scales
with its own code, regenerates the Gaussian noise from the documented
seed contract, and tests properties the method must have.  Nothing is
compared against a stored copy of earlier output.

Each ``check_*`` returns a list of problems (empty when the property
holds).  ``PERTURB`` holds, per check, a change to the outputs that the
check must catch; ``run.py --selftest`` applies them.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Relative slack for comparisons that are equalities up to rounding.
REL_TOL = 1e-9
# Tail multiple on the standard deviation of each level's server mean.
# The squared deviation is close to a chi-square with m degrees of
# freedom over m, so at m=64 a factor 2 lies over 10 deviations out.
LOCAL_TAIL = 2.0
SIGNED_GAUSSIAN_MEAN = math.sqrt(2.0 / math.pi)
# Slack on the projection's first-order certificate, ten times the
# solver's own tolerance, and on exact convex combinations.
CERT_TOL = 1e-6


@dataclass(frozen=True)
class Release:
    """One private release, as the checks see it."""

    n: int
    cell_seed: int
    trial: int
    trials: int
    rows: np.ndarray      # the dataset's universe indices
    target: np.ndarray    # the benchmark's own mean of the dataset rows
    estimate: np.ndarray
    budget: object        # the program's PrivacyBudget
    trace: dict
    projections: tuple    # (target, ProjectionResult) per hull call
    failed: bool


def levels_count(alpha: float) -> int:
    """Number of chaining levels, ceil(log2(2 / alpha)), at least 1."""
    return max(1, math.ceil(math.log2(2.0 / alpha)))


def own_diameter(points: np.ndarray) -> float:
    """Largest pairwise L2 distance, one row against all at a time."""
    pts = np.asarray(points, dtype=float)
    return max((float(np.sqrt(((pts - row) ** 2).sum(axis=1)).max())
                for row in pts), default=0.0)


def own_scale(points: np.ndarray) -> float:
    """Largest row norm: the radius of the ball the local release needs."""
    s = float(np.sqrt((np.asarray(points, dtype=float) ** 2).sum(axis=1)).max())
    return s if s > 0 else 1.0


def _first(problems: list[str], limit: int = 3) -> list[str]:
    if len(problems) <= limit:
        return problems
    return problems[:limit] + [f"... and {len(problems) - limit} more"]


def check_budget(releases, expected) -> list[str]:
    """The consumed budget equals the requested one exactly."""
    return _first([f"n={r.n} seed={r.cell_seed}/{r.trial}: consumed "
                   f"{r.budget} instead of {expected}"
                   for r in releases if r.budget != expected])


def check_sigma(releases, diameters, rho: Fraction) -> list[str]:
    """Each level's sigma is at least diam_j / (n * sqrt(2 rho_j))."""
    k = len(diameters)
    rho_j = float(rho / k)
    problems = []
    for r in releases:
        levels = r.trace.get("levels", [])
        if len(levels) != k:
            problems.append(f"n={r.n}: {len(levels)} levels, expected {k}")
            continue
        for j, lv in enumerate(levels):
            floor = diameters[j] / (r.n * math.sqrt(2.0 * rho_j))
            if not lv["sigma"] >= floor * (1.0 - REL_TOL):
                problems.append(f"n={r.n} seed={r.cell_seed}/{r.trial} level "
                                f"{j}: sigma {lv['sigma']!r} < {floor!r}")
    return _first(problems)


def check_l2_error(releases, alpha: float, k: int) -> list[str]:
    """Chaining error is at most sum_j ||noise_j|| / sqrt(m) + alpha / 2.

    Projection onto a hull that holds the level mean moves no closer
    point farther away, so each level errs by at most its noise, and the
    remainder ball adds alpha / 2.  The noise is redrawn from the seed
    contract: trial i of a cell uses child i of the cell seed, level j
    child j of that, and draws its m normals first.
    """
    problems = []
    for r in releases:
        m = r.target.size
        trial = np.random.SeedSequence(r.cell_seed).spawn(r.trials)[r.trial]
        noise = 0.0
        for child, lv in zip(trial.spawn(k), r.trace["levels"]):
            draw = np.random.default_rng(child).normal(0.0, lv["sigma"], size=m)
            noise += float(np.sqrt(draw @ draw))
        bound = noise / math.sqrt(m) + alpha / 2.0
        err = float(np.linalg.norm(r.estimate - r.target)) / math.sqrt(m)
        if err > bound * (1.0 + REL_TOL):
            problems.append(f"n={r.n} seed={r.cell_seed}/{r.trial}: error "
                            f"{err:.6g} above {bound:.6g}")
    return _first(problems)


def own_release(x, scale: float, epsilon: float,
                rng: np.random.Generator) -> np.ndarray:
    """One party's signed-Gaussian release, drawn as the channel states.

    With v = x / scale in the unit ball, a sign u is +1 with probability
    (1 + |v|) / 2; z holds m standard normals; the output sign is +1
    with probability (1 + (eps/3) u sign(<z, v>)) / 2; the release is
    3 scale / (eps sqrt(2/pi)) times the signed z.  The draws come from
    ``rng`` in that order: one uniform, m normals, one uniform.
    """
    v = np.asarray(x, dtype=float) / scale
    r = min(float(np.sqrt(v @ v)), 1.0)
    if r == 0.0:
        unit, p_plus = np.eye(v.size)[0], 0.5
    else:
        unit, p_plus = v / float(np.sqrt(v @ v)), (1.0 + r) / 2.0
    u = 1.0 if rng.random() < p_plus else -1.0
    z = rng.standard_normal(v.size)
    bias = epsilon / 3.0 * float(np.sign(z @ unit)) * u
    s = 1.0 if rng.random() < (1.0 + bias) / 2.0 else -1.0
    return 3.0 / (epsilon * SIGNED_GAUSSIAN_MEAN) * scale * s * z


def redraw_level_means(r: Release, components: list[np.ndarray],
                       scales, epsilon: Fraction) -> list[np.ndarray]:
    """Each level's server mean, redrawn from the per-party seed contract.

    ``components[j]`` holds every party's level-j component, in dataset
    order.  Trial t of a cell draws from child t of the cell seed; party
    i from child i of that, releasing its components in level order.
    """
    eps_j = float(epsilon / len(scales))
    trial = np.random.SeedSequence(r.cell_seed).spawn(r.trials)[r.trial]
    sums = [np.zeros(r.target.size) for _ in scales]
    for i, child in enumerate(trial.spawn(r.n)):
        rng = np.random.default_rng(child)
        for j, scale in enumerate(scales):
            sums[j] += own_release(components[j][i], scale, eps_j, rng)
    return [total / r.n for total in sums]


def check_local_means(releases, levels, assignments, epsilon: Fraction,
                      redraw: int) -> list[str]:
    """Each level's server mean is the protocol's and within its tail.

    The first ``redraw`` releases are redrawn party by party and must
    match the means the server projected.  For every release, the mean
    of level j lies within ``LOCAL_TAIL`` standard deviations of the
    level's true mean: its per-coordinate variance is at most
    (3 scale_j / (eps_j sqrt(2/pi)))^2 / n.
    """
    k = len(levels)
    scales = [own_scale(lv) for lv in levels]
    coeff = 3.0 / (float(epsilon / k) * SIGNED_GAUSSIAN_MEAN)
    problems = []
    for index, r in enumerate(releases):
        where = f"n={r.n} seed={r.cell_seed}/{r.trial}"
        means = [target for target, _ in r.projections]
        if len(means) != k:
            problems.append(f"{where}: {len(means)} projections, expected {k}")
            continue
        m = r.target.size
        components = [lv[assignments[r.rows, j]] for j, lv in enumerate(levels)]
        for j, mean in enumerate(means):
            dev = float(np.linalg.norm(mean - components[j].mean(axis=0)))
            limit = LOCAL_TAIL * coeff * scales[j] / math.sqrt(r.n)
            if dev / math.sqrt(m) > limit:
                problems.append(f"{where} level {j}: mean off by "
                                f"{dev / math.sqrt(m):.6g} > {limit:.6g}")
        if index < redraw:
            own = redraw_level_means(r, components, scales, epsilon)
            for j, (mean, mine) in enumerate(zip(means, own)):
                if not np.allclose(mean, mine, rtol=REL_TOL, atol=1e-12):
                    problems.append(f"{where} level {j}: server mean differs "
                                    f"from the redrawn one by "
                                    f"{np.abs(mean - mine).max():.3g}")
    return _first(problems)


def check_local_projection(releases, levels) -> list[str]:
    """Each level's output is the projection of its mean onto its hull.

    The output must be the convex combination its weights state, and no
    vertex v may improve on it: <y - p, v - p> <= CERT_TOL ||y - p|| sqrt(m).
    """
    problems = []
    for r in releases:
        where = f"n={r.n} seed={r.cell_seed}/{r.trial}"
        for j, ((y, res), lv) in enumerate(zip(r.projections, levels)):
            idx = np.fromiter(res.weights, dtype=int, count=len(res.weights))
            w = np.fromiter(res.weights.values(), dtype=float, count=idx.size)
            p = np.asarray(res.point, dtype=float)
            size = 1.0 + float(np.abs(lv).max())
            if (w < 0).any() or abs(w.sum() - 1.0) > CERT_TOL or \
                    np.abs(w @ lv[idx] - p).max() > CERT_TOL * size:
                problems.append(f"{where} level {j}: output is not the "
                                f"convex combination of its weights")
                continue
            resid = y - p
            slack = CERT_TOL * float(np.linalg.norm(resid)) * math.sqrt(p.size)
            worst = float(((lv - p) @ resid).max())
            if worst > slack:
                problems.append(f"{where} level {j}: a vertex improves the "
                                f"projection by {worst:.3g} > {slack:.3g}")
    return _first(problems)


def check_local_sum(releases, levels, assignments) -> list[str]:
    """The estimate is the sum of the level outputs, and its error is at
    most sum_j ||mean_j - y_j|| / sqrt(m) plus the remainder.

    y_j is level j's true mean and the remainder is the target less
    sum_j y_j.  Projection onto a hull that holds y_j moves no point
    farther from it, so each level errs by at most its mean's deviation.
    """
    problems = []
    for r in releases:
        where = f"n={r.n} seed={r.cell_seed}/{r.trial}"
        total = sum(np.asarray(res.point, dtype=float)
                    for _, res in r.projections)
        scale = 1.0 + float(np.abs(total).max())
        if np.abs(r.estimate - total).max() > REL_TOL * scale:
            problems.append(f"{where}: estimate is not the sum of the "
                            f"level outputs")
            continue
        truth = [lv[assignments[r.rows, j]].mean(axis=0)
                 for j, lv in enumerate(levels)]
        m = r.target.size
        bound = (sum(float(np.linalg.norm(y - t))
                     for (y, _), t in zip(r.projections, truth))
                 + float(np.linalg.norm(r.target - sum(truth)))) / math.sqrt(m)
        err = float(np.linalg.norm(r.estimate - r.target)) / math.sqrt(m)
        if err > bound * (1.0 + REL_TOL):
            problems.append(f"{where}: error {err:.6g} above {bound:.6g}")
    return _first(problems)


def check_linf_falls(releases) -> list[str]:
    """Mean sup-norm error at the largest n is below that at the smallest."""
    by_n: dict[int, list[float]] = {}
    for r in releases:
        by_n.setdefault(r.n, []).append(
            float(np.abs(r.estimate - r.target).max()))
    if len(by_n) < 2:
        return ["need releases at two sizes"]
    lo, hi = min(by_n), max(by_n)
    small, large = np.mean(by_n[lo]), np.mean(by_n[hi])
    if not large < small:
        return [f"sup error {large:.6g} at n={hi} is not below "
                f"{small:.6g} at n={lo}"]
    return []


def check_determinism(warmup_hashes, timed_hash) -> list[str]:
    """Re-running the first cell with its seed gives the same report."""
    return [f"warm-up hash {h[:12]} differs from timed {timed_hash[:12]}"
            for h in warmup_hashes if h != timed_hash]


# ---------------------------------------------------------------------------
# perturbations each check must catch


def _bump_budget(b):
    if b.kind == "zcdp":
        return dataclasses.replace(b, rho=b.rho + Fraction(1, 10 ** 12))
    return dataclasses.replace(b, epsilon=b.epsilon + Fraction(1, 10 ** 12))


def _shrink_sigma(trace: dict) -> dict:
    levels = [dict(lv) for lv in trace["levels"]]
    levels[0]["sigma"] *= 1.0 - 1e-6
    return {**trace, "levels": levels}


def _first_only(releases, change):
    return [change(releases[0])] + list(releases[1:])


def _shift_first_mean(r: Release) -> Release:
    (y, res), *rest = r.projections
    return dataclasses.replace(r, projections=((y + 0.5, res), *rest))


def _skip_first_projection(r: Release) -> Release:
    (y, res), *rest = r.projections
    return dataclasses.replace(
        r, estimate=r.estimate + (y - res.point),
        projections=((y, dataclasses.replace(res, point=y.copy())), *rest))


PERTURB = {
    "budget": lambda rs: _first_only(rs, lambda r: dataclasses.replace(
        r, budget=_bump_budget(r.budget))),
    "sigma": lambda rs: _first_only(rs, lambda r: dataclasses.replace(
        r, trace=_shrink_sigma(r.trace))),
    "l2_error": lambda rs: _first_only(rs, lambda r: dataclasses.replace(
        r, estimate=r.estimate + 1.0)),
    "local_means": lambda rs: _first_only(rs, _shift_first_mean),
    "local_projection": lambda rs: _first_only(rs, _skip_first_projection),
    "local_sum": lambda rs: _first_only(rs, lambda r: dataclasses.replace(
        r, estimate=r.estimate + 0.5)),
    "linf_falls": lambda rs: [
        dataclasses.replace(r, estimate=r.estimate + 1.0)
        if r.n == max(x.n for x in rs) else r for r in rs],
}
