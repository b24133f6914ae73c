"""Finite point-set geometry for the mean-point problem.

Separated subsets and the covers they induce, greedy packing profiles
and exact packing numbers, decompositions (multi-resolution chaining
and the one-level coarse rounding), and Monte-Carlo Gaussian mean width.

Two norms, L2 and LINF, measure distance.  A separation scale t is in
units of ``Norm.unit(m)``, the norm of the all-ones vector (sqrt(m) for
L2, 1 for LINF), so t = 1 is the diameter of [0, 1]^m in either norm.

Every result depends only on its inputs plus an explicit seed.  The
public preprocessing of a universe -- its diameters, chaining and
coarse decompositions and (in ``bounds``) packing profiles --
is computed once and cached on the ``Universe``: later calls with the
same arguments return the same object, shared by every caller.  Cached
values and the universe's points are read-only, so a cached value cannot
go stale; two threads that miss at once both compute the value and one
of the identical results is kept.

L2 geometry is computed in Gram form and decided exactly.  A tile of
squared distances g = |a|^2 + |b|^2 - 2 a.b comes from one matmul.  With
u = eps / 2 and N = |a|^2 + |b|^2, in any summation order (so whatever
the BLAS build or thread count) g is within (2m + 4) u N of the exact
square D, and the square s that the diff form ``_row_norms(a - b)``
roots is within (m + 2) u D <= (2m + 4) u N of D.  The band is beta * N,
beta = (2m + 12) eps = (4m + 24) u: beyond |g - s| it leaves 16 u N,
which pays for rounding g -/+ the band and then either for the root and
the rounded square of a scale, or for two entries' roots to differ once
rounded; m * tiny more covers underflow.  So a decision whose g clears
the band, against a squared scale or against another entry, is the one
the diff-form floats make.  Every entry inside the band, and every g
that overflowed (it is NaN), is recomputed in diff form, so the
diameter, nearest centres, greedy separated sets and the separation
check return exactly the diff form's floats and indices.  Sup-norm
tiles are the exact diff-form distances with a zero band (``_tiles``).
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

# Largest universe for exact packing (branch and bound on the conflict
# graph).
EXACT_PACKING_CAP = 24

# Ratio of consecutive scales in sup-evaluation grids.
GRID_RATIO = 2.0 ** 0.25

# Entries (2^17, 1 MiB of floats) per temporary in blocked distance
# computations.  The allocator keeps larger freed temporaries resident,
# and the results do not depend on the blocking.
BLOCK_ENTRIES = 131_072

_EPS, _TINY, _MAX = (float(v) for v in (np.finfo(float).eps,
                                        np.finfo(float).tiny,
                                        np.finfo(float).max))


class Norm(Enum):
    """Plain vector norms used by rounding maps and decompositions."""

    L2 = "l2"
    LINF = "linf"

    def unit(self, m: int) -> float:
        """Norm of the all-ones vector of R^m: sqrt(m) for L2, 1 for LINF."""
        return math.sqrt(m) if self is Norm.L2 else 1.0


def _row_norms(a: np.ndarray, norm: Norm) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if norm is Norm.L2:
        return np.sqrt(np.einsum("...i,...i->...", a, a))
    return np.abs(a).max(axis=-1)


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
        pts = np.array(self.points, dtype=float, order="C", copy=True)
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
    row used by universe point ``i``, ``generator_indices[j]`` the
    universe rows of the separated set that generated level ``j``, and
    ``scales[j]`` the raw separation scale of that set in ``norm``.
    """

    levels: list[np.ndarray]
    assignments: np.ndarray
    generator_indices: list[np.ndarray]
    scales: list[float]
    remainder_radius: float
    norm: Norm
    level_radii: list[float]
    delta: float
    alpha: float

    @property
    def k(self) -> int:
        return len(self.levels)

    def remainders(self, u: "Universe") -> np.ndarray:
        """Each universe point minus the sum of its assigned components."""
        total = np.zeros(u.points.shape)
        for j, lvl in enumerate(self.levels):
            total += lvl[self.assignments[:, j]]
        return u.points - total

    @cached_property
    def level_universes(self) -> list[Universe]:
        """One universe per level, holding that level's components."""
        return [Universe(points=lvl) for lvl in self.levels]

    @cached_property
    def live(self) -> list[bool]:
        """Per level, whether its rows are not all equal."""
        return [bool((lvl != lvl[0]).any()) for lvl in self.levels]


# ---------------------------------------------------------------------------
# distances


def _gram_blocks(a: np.ndarray, b: np.ndarray,
                 rows: np.ndarray | None = None):
    """Gram-form squared L2 distances from rows of ``a`` to the rows of
    ``b``, in tiles, each with its rounding band.

    Yields ``(tile, cols, g, band)``: ``tile`` slices ``rows`` (by
    default every row of ``a``) and ``cols`` slices ``b``.  For x the
    r-th row of ``a[rows][tile]`` and y the c-th of ``b[cols]``,
    ``g[r, c]`` is |x|^2 + |y|^2 - 2 x.y, NaN if it overflowed.
    ``band[r, 0]`` is beta * (|x|^2 + max |y|^2) + m * tiny, the module
    docstring's band for every entry of row r (the last term covers
    underflow).  A tile is at most isqrt(``BLOCK_ENTRIES``) columns
    wide, so it spans all of ``b`` when ``b`` has no more rows, and
    holds at most a quarter of ``BLOCK_ENTRIES`` entries, as does its
    gather of rows of ``a`` (or one row's m if that is more), so with
    the few arrays of its size a caller derives it stays within one
    ``BLOCK_ENTRIES`` temporary.  ``g`` is the caller's to modify.
    """
    m, nb = a.shape[1], b.shape[0]
    n = a.shape[0] if rows is None else len(rows)
    beta = (2 * m + 12) * _EPS
    width = min(nb, max(1, math.isqrt(BLOCK_ENTRIES)))
    height = max(1, BLOCK_ENTRIES // 4 // max(width, m))
    sb = np.einsum("ij,ij->i", b, b)
    sb_max = np.maximum.reduceat(sb, np.arange(0, nb, width))
    b_band = beta * sb_max + m * _TINY
    for i0 in range(0, n, height):
        tile = slice(i0, min(i0 + height, n))
        at = a[tile] if rows is None else a[rows[tile]]
        sa = np.einsum("ij,ij->i", at, at)[:, None]
        a_band = beta * sa
        at = -2.0 * at
        # Below this no partial sum of g can overflow.
        safe = float(sa.max()) + float(sb_max.max()) < _MAX / 8
        for j, j0 in enumerate(range(0, nb, width)):
            cols = slice(j0, min(j0 + width, nb))
            with np.errstate(over="ignore", invalid="ignore"):
                # Scaling by -2 is exact, so a.b's error bound carries.
                g = at @ b[cols].T
                g += sa
                g += sb[cols]
                if not safe:
                    g[~np.isfinite(g)] = np.nan
            yield tile, cols, g, a_band + b_band[j]


def _tiles(a: np.ndarray, b: np.ndarray, norm: Norm,
           rows: np.ndarray | None = None):
    """Distances from rows of ``a`` to the rows of ``b`` under ``norm``,
    tiled as by ``_gram_blocks``: ``(tile, cols, values, band)``, each
    value compared with a scale t's ``_key``.  Sup-norm tiles have a zero
    band: a maximum is exact, so the running maximum of |x_k - y_k| over
    coordinates is ``_row_norms(x - y)``."""
    if norm is Norm.L2:
        yield from _gram_blocks(a, b, rows)
        return
    m, nb = a.shape[1], b.shape[0]
    n = a.shape[0] if rows is None else len(rows)
    width = min(nb, max(1, math.isqrt(BLOCK_ENTRIES)))
    height = max(1, BLOCK_ENTRIES // 4 // max(width, m))
    for i0 in range(0, n, height):
        tile = slice(i0, min(i0 + height, n))
        at = (a[tile] if rows is None else a[rows[tile]]).T[:, :, None]
        for j0 in range(0, nb, width):
            cols = slice(j0, min(j0 + width, nb))
            d, t = np.zeros((2, at.shape[1], cols.stop - cols.start))
            for x, y in zip(at, b[cols].T):
                np.abs(np.subtract(x, y, out=t), out=t)
                np.maximum(d, t, out=d)
            yield tile, cols, d, 0.0


def _pair_norms(a: np.ndarray, b: np.ndarray, r: np.ndarray, c: np.ndarray,
                norm: Norm) -> np.ndarray:
    """The diff-form distance ``_row_norms(a[r] - b[c], norm)`` of each
    pair ``(r[i], c[i])``, in blocks of pairs whose two gathers together
    hold at most ``BLOCK_ENTRIES`` floats."""
    out = np.empty(len(r))
    step = max(1, BLOCK_ENTRIES // (2 * a.shape[1]))
    for i0 in range(0, len(r), step):
        blk = slice(i0, i0 + step)
        diff = a[r[blk]]
        diff -= b[c[blk]]
        out[blk] = _row_norms(diff, norm)
    return out


def _squared(t):
    """``t * t``, an overflow clamped to the largest float.  A squared
    distance that clears the band of that float is finite, so its root
    is at most the scale, as when the square does not overflow."""
    with np.errstate(over="ignore"):
        return np.minimum(np.square(t), _MAX)


def _key(t, norm: Norm):
    """What ``_tiles`` values are compared with for the scale ``t``."""
    return _squared(t) if norm is Norm.L2 else t


def diameter(u: Universe, norm: Norm = Norm.L2) -> float:
    """Largest pairwise distance under a plain norm; 0 for a singleton.

    Under the sup norm it is the widest coordinate range: the pair of
    extremes in that coordinate attains it, and float subtraction is
    monotone, so the range is the same float as the pairwise maximum.
    It is O(N m): 0.11 ms against 765 ms for the L2 body on sup-norm
    tiles on ``gen_random_sphere(20, 2000)`` (best of 3).  Under L2 the
    pairs within the band of a tile's largest Gram entry are recomputed
    in diff form, and the largest of those is returned.
    """

    def build() -> float:
        pts = u.points
        if norm is Norm.LINF:
            return float(np.ptp(pts, axis=0).max())
        best = 0.0
        for tile, cols, g, band in _tiles(pts, pts, norm):
            # Rounding is monotone, so this is the largest g - band.
            low = float((g.max(axis=1, keepdims=True) - band).max())
            r, c = np.nonzero(~(g + band < low))
            best = max(best, float(_pair_norms(pts[tile], pts[cols], r, c,
                                               norm).max()))
        return best

    return _memo(u, ("diameter", norm), build)


# ---------------------------------------------------------------------------
# separated sets, covers, packing numbers


def _greedy_cover(pts: np.ndarray, raw_ts: Sequence[float],
                  norm: Norm) -> tuple[np.ndarray, list[int]]:
    """Greedy strictly-separated sets at the descending scales ``raw_ts``.

    Rows are scanned in index order; at each scale a row joins when its
    distance to everything already selected exceeds the scale strictly.
    The selection carries over to the next, finer scale, where it stays
    separated, so every scale gets an inclusion-maximal set.  A row
    within the finest scale of the selection can never join and leaves
    the scan, so no distance is computed twice.

    Under L2 only how a row's distance compares with the scales
    matters, so each live row keeps ``covered``, the number of scales
    its distance to the selection is at most (always the coarsest ones),
    and is free at scale k exactly when ``covered <= k``.  The free rows
    are resolved a block at a time: the block's conflicts at the scale,
    one matrix from ``_conflicts``, decide which rows join in index
    order (``_first_fit``), and one kernel call from the joined rows
    updates ``covered`` (``_scales_covering``).  Every decision is the
    diff-form one (module docstring).

    Returns the final selection, in joining order, and its size after
    each scale.
    """
    if norm is Norm.LINF:
        return _greedy_cover_linf(pts, raw_ts)
    ts = np.asarray(raw_ts, dtype=float)
    ts2 = _squared(ts)
    live = np.arange(pts.shape[0])
    covered = np.zeros(live.size, dtype=int)
    # One block's conflicts fill one L2 tile of _tiles.
    block = max(1, min(math.isqrt(BLOCK_ENTRIES // 4),
                       BLOCK_ENTRIES // 4 // pts.shape[1]))
    sel: list[int] = []
    sizes: list[int] = []
    for k, raw_t in enumerate(ts):
        rest, rest2 = ts[k:][::-1], ts2[k:][::-1]
        free = np.flatnonzero(covered <= k)[:block]
        while free.size:
            cand = live[free]
            joined = cand[_first_fit(_conflicts(pts[cand], raw_t, norm))]
            sel.extend(joined.tolist())
            # Scales coarser than k no longer matter: a row free at k
            # is free at every finer scale.
            covered = np.maximum(covered, k + _scales_covering(
                pts, live, pts[joined], rest, rest2))
            keep = covered < ts.size
            live, covered = live[keep], covered[keep]
            free = np.flatnonzero(covered <= k)[:block]
        sizes.append(len(sel))
    return np.array(sel, dtype=int), sizes


def _greedy_cover_linf(pts: np.ndarray, raw_ts: Sequence[float]
                       ) -> tuple[np.ndarray, list[int]]:
    """``_greedy_cover`` under the sup norm, one join and one distance row
    at a time.  The L2 block scan on sup-norm tiles selects the same rows
    but measured 2.5-4.3x slower on the workloads' universes (the
    ``marginals2(8)`` alpha = 0.1 decomposition 29.6 -> 94.0 ms), only
    15-22% faster at the ``marginals2(12)`` cap."""
    live = np.arange(pts.shape[0])
    near = np.full(live.size, np.inf)
    sel: list[int] = []
    sizes: list[int] = []
    for raw_t in raw_ts:
        free = near > raw_t
        while free.any():
            i = int(live[free.argmax()])
            sel.append(i)
            near = np.minimum(near, _row_norms(pts[live] - pts[i], Norm.LINF))
            keep = near > raw_ts[-1]
            live, near = live[keep], near[keep]
            free = near > raw_t
        sizes.append(len(sel))
    return np.array(sel, dtype=int), sizes


def _conflicts(c: np.ndarray, raw_t: float, norm: Norm) -> np.ndarray:
    """``conflict[i, j]`` for j < i: whether rows i and j of ``c`` are
    within distance ``raw_t``.  Entries on and above the diagonal are
    not recomputed."""
    t2 = _key(raw_t, norm)
    out = np.empty((len(c), len(c)), dtype=bool)
    for tile, cols, g, band in _tiles(c, c, norm):
        near = g + band < t2
        g -= band
        r, s = np.nonzero(~near & ~(g > t2))
        if r.size:
            below = s + cols.start < r + tile.start
            r, s = r[below], s[below]
            near[r, s] = _pair_norms(c[tile], c[cols], r, s, norm) <= raw_t
        out[tile, cols] = near
    return out


def _first_fit(conflict: np.ndarray) -> list[int]:
    """Rows that join when each row in order joins unless it conflicts
    with an earlier joiner; a Python pass over bitmasks."""
    n = len(conflict)
    bits = np.packbits(conflict, axis=1, bitorder="little").tobytes()
    w = len(bits) // n
    mask, out = 0, []
    for i in range(n):
        if not int.from_bytes(bits[i * w:(i + 1) * w], "little") & mask:
            mask |= 1 << i
            out.append(i)
    return out


def _scales_covering(pts: np.ndarray, rows: np.ndarray, b: np.ndarray,
                     ts: np.ndarray, t2s: np.ndarray) -> np.ndarray:
    """For each of ``pts[rows]``, how many of the ascending scales ``ts``
    its L2 distance to the nearest row of ``b`` is at most.

    ``b`` is at most isqrt(``BLOCK_ENTRIES``) rows, so each tile spans
    it.  A row's nearest squared distance lies between the least lower
    and the least upper end of its entries' bands; when no squared scale
    ``t2s`` falls there, that count is the answer.  Otherwise the
    entries whose band reaches below the least upper end, among them the
    nearest, are recomputed in diff form."""
    out = np.empty(len(rows), dtype=int)
    for tile, _, g, band in _tiles(pts, b, Norm.L2, rows):
        # Rounding is monotone, so hi and lo are each row's least g + band
        # and least g - band; a row with an overflowed g has a NaN hi.
        least = g.min(axis=1, keepdims=True)
        hi, lo = (least + band)[:, 0], (least - band)[:, 0]
        at = np.searchsorted(t2s, hi, "right")
        out[tile] = ts.size - at
        unsure = np.flatnonzero(np.isnan(hi)
                                | (np.searchsorted(t2s, lo, "left") != at))
        if unsure.size:
            r, c = np.nonzero(~(g[unsure] - band[unsure] > hi[unsure, None]))
            d = _pair_norms(pts, b, rows[tile][unsure][r], c, Norm.L2)
            dmin = np.minimum.reduceat(d, np.searchsorted(
                r, np.arange(unsure.size)))
            out[tile.start + unsure] = ts.size - np.searchsorted(ts, dmin,
                                                                 "left")
    return out


def greedy_separated_set(u: Universe, t: float,
                         norm: Norm = Norm.L2) -> np.ndarray:
    """Rows of an inclusion-maximal strictly t-separated subset.

    Grown greedily in ascending row order, so it is reproducible without
    a seed; ``t`` is in units of ``norm.unit(m)``.  By the packing/covering
    duality the selected points form a (closed) t-cover of the universe.
    """
    if not t > 0:
        raise ValueError("separation scale t must be positive")
    return _greedy_cover(u.points, [t * norm.unit(u.dim)], norm)[0]


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


def packing_number(u: Universe, t: float, norm: Norm = Norm.L2) -> int:
    """Exact separation number at scale t.

    Solves maximum independent set on the distance-at-most-t conflict
    graph, the symmetrised lower triangle of ``_conflicts``, capped at
    ``EXACT_PACKING_CAP`` points; a greedy estimate is the size of
    ``greedy_separated_set``.
    """
    n = u.size
    if n > EXACT_PACKING_CAP:
        raise ValueError(f"exact packing capped at {EXACT_PACKING_CAP} "
                         f"points (universe has {n})")
    conflict = np.tril(_conflicts(u.points, t * norm.unit(u.dim), norm), -1)
    conflict |= conflict.T
    adj = [int.from_bytes(row.tobytes(), "little") for row in
           np.packbits(conflict, axis=1, bitorder="little")]
    lower = greedy_separated_set(u, t, norm).size
    return _mis_size(adj, n, lower=lower)


def t_grid(t_min: float, t_max: float) -> np.ndarray:
    """Geometric scale grid spanning [t_min, t_max], endpoints included.

    Anchored at t_max and descending by ``GRID_RATIO`` so that grids for
    different lower endpoints share their upper scales.  Returns an
    ascending array; empty when t_min exceeds t_max.
    """
    if not t_min > 0:
        raise ValueError("t_min must be positive")
    if t_max <= 0 or t_min > t_max * (1 + 1e-12):
        return np.array([])
    ts = [float(t_max)]
    while ts[-1] / GRID_RATIO > t_min * (1 + 1e-9):
        ts.append(ts[-1] / GRID_RATIO)
    if ts[-1] > t_min * (1 + 1e-12):
        ts.append(float(t_min))
    return np.array(ts[::-1])


def packing_profile(u: Universe, ts: np.ndarray,
                    norm: Norm = Norm.L2) -> np.ndarray:
    """Greedy packing estimates across scales, on one nested evaluation.

    Scales are processed from coarsest to finest while growing a single
    separated set (a set separated at a coarse scale stays separated at
    any finer one), so the estimates are non-increasing in t by
    construction and every scale still gets an inclusion-maximal set.
    """
    ts = np.asarray(ts, dtype=float)
    order = np.argsort(-ts, kind="stable")
    sizes = np.zeros(ts.size, dtype=int)
    sizes[order] = _greedy_cover(u.points, ts[order] * norm.unit(u.dim),
                                 norm)[1]
    return sizes


# ---------------------------------------------------------------------------
# decompositions


def _nearest(points: np.ndarray, centers: np.ndarray,
             norm: Norm) -> np.ndarray:
    """Row of the nearest center for every point, ties to the lowest.

    Per tile, the centres not above a row's least upper end (value plus
    band) are recomputed in diff form, and the nearest of those wins."""
    idx = np.zeros(points.shape[0], dtype=int)
    best = np.full(points.shape[0], np.inf)
    for rows, cols, g, band in _tiles(points, centers, norm):
        top = g.min(axis=1, keepdims=True) + band
        g -= band
        r, c = np.nonzero(~(g > top))
        d = _pair_norms(points[rows], centers[cols], r, c, norm)
        win = np.lexsort((c, d, r))[np.searchsorted(r, np.arange(len(top)))]
        # Strictly nearer only: a tie keeps the earlier tile's centre.
        nearer = d[win] < best[rows]
        idx[rows] = np.where(nearer, c[win] + cols.start, idx[rows])
        best[rows] = np.where(nearer, d[win], best[rows])
    return idx


def _nearest_in_cover(pts: np.ndarray, rows: np.ndarray, cover: np.ndarray,
                      norm: Norm) -> np.ndarray:
    """Position in ``cover`` of the cover row nearest to each of ``rows``
    (row indices into ``pts``), ties to the lowest.

    A row that is itself in the cover maps to its own position without a
    search: the cover is strictly separated, so that row is its own
    unique nearest, at distance 0.
    """
    pos = np.full(pts.shape[0], -1)
    pos[cover] = np.arange(cover.size)
    idx = pos[rows]
    rest = np.flatnonzero(idx < 0)
    idx[rest] = _nearest(pts[rows[rest]], pts[cover], norm)
    return idx


def _decompose(u: Universe, scales: Sequence[float], norm: Norm,
               level_radii: list[float], delta: float,
               alpha: float) -> Decomposition:
    """Decomposition whose level j is generated by a greedy cover at raw
    scale ``scales[j]``: the coarsest cover's points, then each finer
    cover's offsets from its nearest point in the previous cover.

    Only the next cover's points are rounded to a cover, except at the
    finest level, where every universe row is.
    """
    k = len(scales)
    pts = u.points
    gen = [_greedy_cover(pts, [raw_t], norm)[0] for raw_t in scales]
    # near[j][i]: the level-j cover row nearest to gen[j + 1][i], and at
    # the finest level the one nearest to universe row i.
    near = [_nearest_in_cover(pts, gen[j + 1], gen[j], norm)
            for j in range(k - 1)]
    near.append(_nearest_in_cover(pts, np.arange(u.size), gen[k - 1], norm))
    levels = [pts[gen[0]].copy()]
    for j in range(1, k):
        levels.append(pts[gen[j]] - pts[gen[j - 1][near[j - 1]]])
    assign = np.empty((u.size, k), dtype=int)
    assign[:, k - 1] = near[k - 1]
    for j in range(k - 2, -1, -1):
        assign[:, j] = near[j][assign[:, j + 1]]
    for a in (*gen, *levels, assign):
        a.setflags(write=False)
    return Decomposition(levels=levels, assignments=assign,
                         generator_indices=gen, scales=list(scales),
                         remainder_radius=0.5 * alpha * delta,
                         norm=norm, level_radii=level_radii,
                         delta=delta, alpha=float(alpha))


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
            defaults to ``norm.unit(m)``.

    Returns:
        A Decomposition with ceil(log2(2/alpha)) levels.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    delta = float(delta_cap if delta_cap is not None else norm.unit(u.dim))
    if delta <= 0:
        raise ValueError("delta_cap must be positive")

    def build() -> Decomposition:
        max_norm = float(_row_norms(u.points, norm).max())
        if max_norm > delta * (1 + 1e-12):
            raise ValueError(
                f"universe has a point of norm {max_norm:.6g} outside the "
                f"stated ball of radius {delta:.6g}")
        k = max(1, math.ceil(math.log2(2.0 / alpha)))
        return _decompose(u, [2.0 ** (-(j + 1)) * delta for j in range(k)],
                          norm, [2.0 ** (-j) * delta for j in range(k)],
                          delta, alpha)

    return _memo(u, ("chaining_decomposition", alpha, norm, delta), build)


def coarse_decomposition(u: Universe, alpha: float) -> Decomposition:
    """One-level decomposition: a maximal (alpha/2)-separated subset in
    normalized L2 and every point's nearest member of it.

    The public preprocessing of the coarse projection mechanisms.  The
    subset is a cover (every point lies within (alpha/2) * sqrt(m) of
    it); its level radius is the universe's own largest norm, so the
    universe need not lie in the sqrt(m) ball.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")

    def build() -> Decomposition:
        root_m = Norm.L2.unit(u.dim)
        radius = float(_row_norms(u.points, Norm.L2).max())
        return _decompose(u, [alpha / 2.0 * root_m], Norm.L2, [radius],
                          root_m, alpha)

    return _memo(u, ("coarse_decomposition", alpha), build)


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
        if not _separated(u.points[g], dec.scales[j], dec.norm):
            raise ValueError(f"generating set {j} is not strictly "
                             f"{dec.scales[j]:.3e}-separated")


def _separated(sub: np.ndarray, raw_t: float, norm: Norm) -> bool:
    """Whether every two rows of ``sub`` are more than ``raw_t`` apart.
    Only each row's own entry is exempt: a repeated row fails.  Only the
    pairs within the band of the scale are recomputed."""
    t2 = _key(raw_t, norm)
    for rows, cols, g, band in _tiles(sub, sub, norm):
        g -= band
        i = np.arange(max(rows.start, cols.start), min(rows.stop, cols.stop))
        g[i - rows.start, i - cols.start] = np.inf
        if not g.min() > t2:
            r, c = np.nonzero(~(g > t2))
            if not bool((_pair_norms(sub[rows], sub[cols], r, c, norm)
                         > raw_t).all()):
                return False
    return True


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
# Gaussian mean width


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

