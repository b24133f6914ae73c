"""Finite point-set geometry for the mean-point problem.

Separated subsets and the covers they induce, greedy packing profiles
and exact packing numbers, nearest-point rounding maps, multi-resolution
chaining decompositions, support functions, and Monte-Carlo Gaussian
mean width.

Every result depends only on its inputs plus an explicit seed.  The
public preprocessing of a universe -- its diameters, chaining
decompositions, coarse roundings and (in ``bounds``) packing profiles --
is computed once and cached on the ``Universe``: later calls with the
same arguments return the same object, shared by every caller.  Cached
values and the universe's points are read-only, so a cached value cannot
go stale; two threads that miss at once both compute the value and one
of the identical results is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

# Absolute per-sqrt(m) tolerance for decomposition identities; the
# reconstruction is a short chain of additions of universe coordinates.
RECONSTRUCTION_TOL = 1e-9

# Default cap for exact packing (branch and bound on the conflict graph).
EXACT_PACKING_CAP = 24

# Ratio of consecutive scales in sup-evaluation grids.
GRID_RATIO = 2.0 ** 0.25

# Entries (2^17, 1 MiB of floats) per temporary in blocked distance
# computations.  The allocator keeps larger freed temporaries resident,
# and the results do not depend on the blocking.
BLOCK_ENTRIES = 131_072


class Metric(Enum):
    """Distance conventions behind the two separation-number families."""

    NORMALIZED_L2 = "normalized_l2"  # d(x, y) = ||x - y||_2 / sqrt(m)
    LINF = "linf"                    # d(x, y) = ||x - y||_inf


class Norm(Enum):
    """Plain vector norms used by rounding maps and decompositions."""

    L2 = "l2"
    LINF = "linf"


def _row_norms(a: np.ndarray, norm: Norm) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if norm is Norm.L2:
        return np.sqrt(np.einsum("...i,...i->...", a, a))
    return np.abs(a).max(axis=-1)


def _metric_factor(metric: Metric, m: int) -> tuple[Norm, float]:
    """Norm and divisor realizing a metric's distance on R^m."""
    if metric is Metric.NORMALIZED_L2:
        return Norm.L2, math.sqrt(m)
    return Norm.LINF, 1.0


@dataclass(eq=False)
class Universe:
    """Explicit finite point set in R^m, one point per row.

    The standard query-release setting has every coordinate in [0, 1];
    ``in_unit_box`` records whether that holds so mechanisms that need
    it can check.
    """

    points: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float, copy=True)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError("points must form a 2-d matrix")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("universe needs at least one point and one dimension")
        if not np.all(np.isfinite(pts)):
            raise ValueError("universe coordinates must be finite")
        pts.setflags(write=False)
        self.points = pts

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def in_unit_box(self) -> bool:
        return bool((self.points >= 0.0).all() and (self.points <= 1.0).all())


def _memo(u: Universe, key: tuple, build: Callable):
    """Value of ``build()`` cached on the universe under ``key``.

    ``build`` must be a pure function of the universe and the key.
    """
    try:
        return u._cache[key]
    except KeyError:
        return u._cache.setdefault(key, build())


class WidthEstimate(NamedTuple):
    value: float
    std_error: float
    samples: int


@dataclass
class Decomposition:
    """Multi-resolution additive split of a universe.

    Every universe point equals the sum of one component per level plus
    a remainder of norm at most ``remainder_radius``.  ``levels[j]`` is
    the matrix of level components, ``assignments[i, j]`` the component
    row used by universe point ``i``, and ``generator_indices[j]`` the
    universe rows of the separated set that generated level ``j``.
    """

    levels: list[np.ndarray]
    assignments: np.ndarray
    generator_indices: list[np.ndarray]
    remainder_radius: float
    norm: Norm
    level_radii: list[float]
    delta: float
    alpha: float

    @property
    def k(self) -> int:
        return len(self.levels)

    def component_sums(self, points: np.ndarray) -> np.ndarray:
        """Sum of assigned components for each row of ``points``."""
        total = np.zeros_like(np.asarray(points, dtype=float))
        for j, lvl in enumerate(self.levels):
            total += lvl[self.assignments[:, j]]
        return total

    def remainders(self, u: "Universe") -> np.ndarray:
        return u.points - self.component_sums(u.points)

    @cached_property
    def level_universes(self) -> list[Universe]:
        """One universe per level, holding that level's components."""
        return [Universe(points=lvl) for lvl in self.levels]


# ---------------------------------------------------------------------------
# distances


def _distance_blocks(a: np.ndarray, b: np.ndarray, norm: Norm):
    """Distances from the rows of ``a`` to every row of ``b``, in blocks.

    Yields ``(rows, d)`` with ``d[r, j]`` the distance from ``a[rows][r]``
    to ``b[j]``; each temporary holds about ``BLOCK_ENTRIES`` floats.
    """
    block = max(1, BLOCK_ENTRIES // max(1, b.shape[0] * b.shape[1]))
    for i0 in range(0, a.shape[0], block):
        rows = slice(i0, i0 + block)
        yield rows, _row_norms(a[rows, None, :] - b[None, :, :], norm)


def diameter(u: Universe, norm: Norm = Norm.L2) -> float:
    """Largest pairwise distance under a plain norm; 0 for a singleton."""

    def build() -> float:
        return max(float(d.max())
                   for _, d in _distance_blocks(u.points, u.points, norm))

    return _memo(u, ("diameter", norm), build)


def metric_diameter(u: Universe, metric: Metric) -> float:
    """Diameter expressed in the metric's own scale convention."""
    norm, scale = _metric_factor(metric, u.dim)
    return diameter(u, norm) / scale


# ---------------------------------------------------------------------------
# separated sets, covers, packing numbers


def _greedy_cover(pts: np.ndarray, raw_ts: Sequence[float],
                  norm: Norm) -> tuple[np.ndarray, list[int]]:
    """Greedy strictly-separated sets at the descending scales ``raw_ts``.

    Rows are scanned in index order; at each scale a row joins when its
    distance to everything already selected exceeds the scale strictly.
    The selection carries over to the next, finer scale, where it stays
    separated, so every scale gets an inclusion-maximal set.  ``near``
    holds each live row's distance to the selection: the first row with
    ``near`` above the scale joins, and one distance row from it updates
    ``near``.  A row within the finest scale of the selection can never
    join and leaves the scan, so no distance is computed twice.

    Returns the final selection, in joining order, and its size after
    each scale.
    """
    live = np.arange(pts.shape[0])
    near = np.full(live.size, np.inf)
    sel: list[int] = []
    sizes: list[int] = []
    for raw_t in raw_ts:
        free = near > raw_t
        while free.any():
            i = int(live[free.argmax()])
            sel.append(i)
            near = np.minimum(near, _row_norms(pts[live] - pts[i], norm))
            keep = near > raw_ts[-1]
            live, near = live[keep], near[keep]
            free = near > raw_t
        sizes.append(len(sel))
    return np.array(sel, dtype=int), sizes


def greedy_separated_set(u: Universe, t: float,
                         metric: Metric = Metric.NORMALIZED_L2) -> np.ndarray:
    """Rows of an inclusion-maximal strictly t-separated subset.

    Grown greedily in ascending row order, so it is reproducible without
    a seed; ``t`` is in the metric's convention.  By the packing/covering
    duality the selected points form a (closed) t-cover of the universe.
    """
    if not t > 0:
        raise ValueError("separation scale t must be positive")
    norm, scale = _metric_factor(metric, u.dim)
    return _greedy_cover(u.points, [t * scale], norm)[0]


def _pairwise_matrix(pts: np.ndarray, norm: Norm) -> np.ndarray:
    out = np.empty((pts.shape[0], pts.shape[0]))
    for rows, d in _distance_blocks(pts, pts, norm):
        out[rows] = d
    return out


def _mis_size(adj: list[int], n: int, lower: int = 0) -> int:
    """Maximum independent set size by branch and bound on bitmasks."""
    best = lower

    def rec(cand: int, size: int) -> None:
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if cand == 0:
            best = size
            return
        v = (cand & -cand).bit_length() - 1
        rec(cand & ~(adj[v] | (1 << v)), size + 1)
        rec(cand & ~(1 << v), size)

    rec((1 << n) - 1, 0)
    return best


def packing_number(u: Universe, t: float,
                   metric: Metric = Metric.NORMALIZED_L2,
                   exact_cap: int = EXACT_PACKING_CAP) -> int:
    """Exact separation number at scale t.

    Solves maximum independent set on the distance-at-most-t conflict
    graph, capped at ``exact_cap`` points; a greedy estimate is the size
    of ``greedy_separated_set``.
    """
    n = u.size
    if n > exact_cap:
        raise ValueError(
            f"exact packing capped at {exact_cap} points (universe has {n})")
    norm, scale = _metric_factor(metric, u.dim)
    dmat = _pairwise_matrix(u.points, norm)
    conflict = dmat <= t * scale
    adj = []
    for i in range(n):
        mask = 0
        for j in range(n):
            if j != i and conflict[i, j]:
                mask |= 1 << j
        adj.append(mask)
    lower = greedy_separated_set(u, t, metric).size
    return _mis_size(adj, n, lower=lower)


def t_grid(t_min: float, t_max: float, ratio: float = GRID_RATIO) -> np.ndarray:
    """Geometric scale grid spanning [t_min, t_max], endpoints included.

    Anchored at t_max and descending by ``ratio`` so that grids for
    different lower endpoints share their upper scales.  Returns an
    ascending array; empty when t_min exceeds t_max.
    """
    if not t_min > 0:
        raise ValueError("t_min must be positive")
    if t_max <= 0 or t_min > t_max * (1 + 1e-12):
        return np.array([])
    ts = [float(t_max)]
    while ts[-1] / ratio > t_min * (1 + 1e-9):
        ts.append(ts[-1] / ratio)
    if ts[-1] > t_min * (1 + 1e-12):
        ts.append(float(t_min))
    return np.array(ts[::-1])


def packing_profile(u: Universe, ts: np.ndarray,
                    metric: Metric = Metric.NORMALIZED_L2) -> np.ndarray:
    """Greedy packing estimates across scales, on one nested evaluation.

    Scales are processed from coarsest to finest while growing a single
    separated set (a set separated at a coarse scale stays separated at
    any finer one), so the estimates are non-increasing in t by
    construction and every scale still gets an inclusion-maximal set.
    """
    ts = np.asarray(ts, dtype=float)
    norm, scale = _metric_factor(metric, u.dim)
    order = np.argsort(-ts, kind="stable")
    sizes = np.zeros(ts.size, dtype=int)
    sizes[order] = _greedy_cover(u.points, ts[order] * scale, norm)[1]
    return sizes


# ---------------------------------------------------------------------------
# rounding maps and decompositions


def _nearest(points: np.ndarray, centers: np.ndarray,
             norm: Norm) -> tuple[np.ndarray, np.ndarray]:
    idx = np.empty(points.shape[0], dtype=int)
    dist = np.empty(points.shape[0])
    for rows, d in _distance_blocks(points, centers, norm):
        ii = d.argmin(axis=1)  # argmin keeps the lowest index on ties
        idx[rows] = ii
        dist[rows] = d[np.arange(d.shape[0]), ii]
    return idx, dist


def nearest_point_map(u: Universe, centers: np.ndarray,
                      norm: Norm = Norm.L2) -> np.ndarray:
    """Index of the nearest center for every universe point.

    Ties break toward the lowest center index.
    """
    centers = np.asarray(centers, dtype=float)
    if centers.ndim == 1:
        centers = centers[:, None]
    if centers.shape[0] < 1:
        raise ValueError("centers must be nonempty")
    if centers.shape[1] != u.dim:
        raise ValueError("centers must match the universe dimension")
    idx, _ = _nearest(u.points, centers, norm)
    return idx


def chaining_decomposition(u: Universe, alpha: float,
                           norm: Norm = Norm.L2,
                           delta_cap: float | None = None) -> Decomposition:
    """Split the universe into halving-scale summands plus a small ball.

    Builds maximal separated subsets at scales 2^-1, 2^-2, ... (in the
    norm scaled by delta), takes the coarsest as the first level, and
    for each finer level stores the offsets from the previous level's
    rounding map.  Summing one component per level reconstructs every
    universe point up to a remainder of norm at most (alpha/2) * delta.

    Args:
        u: the universe.
        alpha: target remainder scale in (0, 1].
        norm: L2 or LINF.
        delta_cap: radius delta of a ball containing the universe;
            defaults to sqrt(m) for L2 and 1 for LINF.

    Returns:
        A Decomposition with ceil(log2(2/alpha)) levels.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    m = u.dim
    delta = float(delta_cap) if delta_cap is not None else (
        math.sqrt(m) if norm is Norm.L2 else 1.0)
    if delta <= 0:
        raise ValueError("delta_cap must be positive")

    def build() -> Decomposition:
        max_norm = float(_row_norms(u.points, norm).max())
        if max_norm > delta * (1 + 1e-12):
            raise ValueError(
                f"universe has a point of norm {max_norm:.6g} outside the "
                f"stated ball of radius {delta:.6g}")
        k = max(1, math.ceil(math.log2(2.0 / alpha)))
        pts = u.points
        gen: list[np.ndarray] = []
        proj: list[np.ndarray] = []
        for j in range(k):
            raw_t = 2.0 ** (-(j + 1)) * delta
            gen.append(_greedy_cover(pts, [raw_t], norm)[0])
            idx, _ = _nearest(pts, pts[gen[j]], norm)
            proj.append(idx)
        levels = [pts[gen[0]].copy()]
        for j in range(1, k):
            parents = gen[j - 1][proj[j - 1][gen[j]]]
            levels.append(pts[gen[j]] - pts[parents])
        assign = np.empty((u.size, k), dtype=int)
        assign[:, k - 1] = proj[k - 1]
        for j in range(k - 2, -1, -1):
            assign[:, j] = proj[j][gen[j + 1][assign[:, j + 1]]]
        for a in (*gen, *levels, assign):
            a.setflags(write=False)
        level_radii = [2.0 ** (-j) * delta for j in range(k)]
        return Decomposition(levels=levels, assignments=assign,
                             generator_indices=gen,
                             remainder_radius=0.5 * alpha * delta,
                             norm=norm, level_radii=level_radii,
                             delta=delta, alpha=float(alpha))

    return _memo(u, ("chaining_decomposition", alpha, norm, delta), build)


def coarse_rounding(u: Universe, alpha: float) -> tuple[Universe, np.ndarray]:
    """Rounding to a maximal (alpha/2)-separated subset in normalized L2.

    The public preprocessing of the coarse projection mechanisms.
    Returns the subset as a universe of its own (a cover: every point
    lies within (alpha/2) * sqrt(m) of it) and, for every universe
    point, the row of its nearest subset member.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")

    def build() -> tuple[Universe, np.ndarray]:
        cover = greedy_separated_set(u, alpha / 2.0, Metric.NORMALIZED_L2)
        centers = Universe(points=u.points[cover])
        rounding = nearest_point_map(u, centers.points, Norm.L2)
        rounding.setflags(write=False)
        return centers, rounding

    return _memo(u, ("coarse_rounding", alpha), build)


def verify_decomposition(u: Universe, dec: Decomposition) -> None:
    """Check all decomposition invariants, raising ValueError on failure.

    Verifies the reconstruction identity within tol = 1e-9 * sqrt(m)
    (absolute), the per-level norm radii, and the strict separation of
    each generating set at its scale.
    """
    tol = RECONSTRUCTION_TOL * math.sqrt(u.dim)
    res = _row_norms(dec.remainders(u), dec.norm)
    worst = float(res.max())
    if worst > dec.remainder_radius + tol:
        raise ValueError(
            f"reconstruction remainder {worst:.3e} exceeds "
            f"{dec.remainder_radius:.3e} + tol")
    for j, lvl in enumerate(dec.levels):
        r = float(_row_norms(lvl, dec.norm).max())
        if r > dec.level_radii[j] + tol:
            raise ValueError(
                f"level {j} radius {r:.3e} exceeds {dec.level_radii[j]:.3e}")
    for j, g in enumerate(dec.generator_indices):
        if g.size <= 1:
            continue
        sub = u.points[g]
        dmat = _pairwise_matrix(sub, dec.norm)
        off = dmat[~np.eye(g.size, dtype=bool)]
        raw_t = 2.0 ** (-(j + 1)) * dec.delta
        if not bool((off > raw_t).all()):
            raise ValueError(f"generating set {j} is not strictly "
                             f"{raw_t:.3e}-separated")


def decomposition_to_json(dec: Decomposition) -> dict:
    """JSON-ready export of a decomposition (levels, assignments, radii)."""
    return {
        "alpha": dec.alpha,
        "norm": dec.norm.value,
        "delta": dec.delta,
        "k": dec.k,
        "remainder_radius": dec.remainder_radius,
        "level_radii": list(dec.level_radii),
        "levels": [lvl.tolist() for lvl in dec.levels],
        "assignments": dec.assignments.tolist(),
        "generator_indices": [g.tolist() for g in dec.generator_indices],
    }


# ---------------------------------------------------------------------------
# support function and Gaussian mean width


def support_function(u: Universe, direction: np.ndarray) -> float:
    """Largest inner product of a universe point with ``direction``."""
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (u.dim,):
        raise ValueError("direction must have length m")
    return float((u.points @ direction).max())


def gaussian_mean_width(u: Universe, samples: int = 10_000,
                        seed: int | None = None) -> WidthEstimate:
    """Monte-Carlo estimate of the Gaussian mean width of the universe.

    Averages the support function over iid standard normal directions;
    deterministic given the seed.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    block = max(1, int(2_000_000 // max(1, u.size + u.dim)))
    while done < samples:
        b = min(block, samples - done)
        z = rng.standard_normal((b, u.dim))
        h = (z @ u.points.T).max(axis=1)
        total += float(h.sum())
        total_sq += float((h * h).sum())
        done += b
    mean = total / samples
    if samples > 1:
        var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
        se = math.sqrt(var / samples)
    else:
        se = 0.0
    return WidthEstimate(value=mean, std_error=se, samples=samples)


# ---------------------------------------------------------------------------
# universe file format


def universe_to_csv(u: Universe) -> str:
    """Serialize: header line ``m=<dim>``, then one point per row."""
    lines = [f"m={u.dim}"]
    for row in u.points:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def universe_from_csv(text: str) -> Universe:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("m="):
        raise ValueError("universe CSV must start with an 'm=<int>' line")
    try:
        m = int(lines[0][2:])
    except ValueError as exc:
        raise ValueError("malformed dimension header") from exc
    rows = []
    for ln in lines[1:]:
        vals = [float(tok) for tok in ln.split(",")]
        if len(vals) != m:
            raise ValueError(f"row has {len(vals)} coordinates, expected {m}")
        rows.append(vals)
    if not rows:
        raise ValueError("universe CSV has no points")
    return Universe(points=np.array(rows, dtype=float))


def read_universe_csv(path) -> Universe:
    with open(path, "r", encoding="utf-8") as fh:
        return universe_from_csv(fh.read())

