"""Euclidean projection onto the convex hull of a finite point set.

The "project back" step shared by the central and local projection
mechanisms.  Uses pairwise Frank-Wolfe over the vertex list with exact
line search -- each step moves weight from the worst support vertex to
the best improving vertex -- interleaved with an active-set least-squares
polish (minor cycles in the min-norm-point sense): pairwise steps alone
zigzag near low-dimensional faces and cannot reach tight tolerances
within the iteration cap.  Each minor cycle solves the support's KKT
system, centred on the target, with ``linalg.solve``; ``lstsq`` runs
only where that system is singular.  The iterate stays an explicit
convex combination throughout and carries the first-order certificate
``<y - p, v - p> <= TOL * ||y - p|| * sqrt(m)`` for every vertex ``v``.

Deterministic given its inputs; inner products may be reduced in any
order (the tolerance absorbs reduction noise).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

TOL = 1e-7
# Absolute slack on the duality gap, per coordinate and unit of scale^2,
# so that interior targets (residual going to zero) terminate once the
# gap is at rounding level.  The gap is a difference of inner products
# over m coordinates of size up to scale^2, so its rounding error grows
# like eps * m * scale^2; a floor below that is never reached.
GAP_FLOOR = 8 * sys.float_info.epsilon
# Pairwise steps between least-squares polishes of the active set.
POLISH_EVERY = 5


def _affine_least_squares(Vs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Weights minimizing ||w @ Vs - y|| subject to sum(w) = 1 only.

    On that constraint w @ Vs - y = w @ U with U = Vs - y, so the KKT
    system is [[U U^T, 1], [1^T, 0]] [w; mu] = e_{k+1}, which ``solve``
    takes.  Over more than m + 1 vertices (affinely dependent) the system
    is singular and goes straight to ``lstsq``'s minimum-norm solution;
    so does a smaller one on which ``solve`` raises or returns
    non-finite values (repeated vertices).
    """
    k, m = Vs.shape
    U = Vs - y
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = U @ U.T
    kkt[k, k] = 0.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    if k <= m + 1:
        try:
            sol = np.linalg.solve(kkt, rhs)
            if np.isfinite(sol).all():
                return sol[:k]
        except np.linalg.LinAlgError:
            pass
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[:k]


def _polish(w: np.ndarray, V: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minor cycles: jump to the support's affine optimum, stepping back
    to the feasible boundary (dropping a vertex) while weights would go
    negative.  Never increases the objective."""
    for _ in range(V.shape[0] + 1):
        support = np.flatnonzero(w > 0)
        lam_s = _affine_least_squares(V[support], y)
        if bool((lam_s >= -1e-12).all()):
            w = np.zeros_like(w)
            w[support] = np.clip(lam_s, 0.0, None)
            break
        lam = np.zeros_like(w)
        lam[support] = lam_s
        neg = support[lam_s < 0]
        theta = float((w[neg] / (w[neg] - lam[neg])).min())
        w = w + min(max(theta, 0.0), 1.0) * (lam - w)
        w[w < 1e-15] = 0.0
        if not w.any():
            w[support[0]] = 1.0
            break
    total = w.sum()
    return w / total if total > 0 else w


@dataclass
class ProjectionResult:
    """Projection output: the point, its sparse convex weights over the
    vertex list, iteration count, final gap, and certificate flag."""

    point: np.ndarray
    weights: dict[int, float]
    iterations: int
    gap: float
    certified: bool


def one_point_projection(vertices: np.ndarray) -> ProjectionResult | None:
    """The projection of every target when all rows of ``vertices`` (an
    (n, m) matrix) equal the first: that row, certified with gap 0.
    None when the hull has more than one point."""
    if not bool((vertices == vertices[0]).all()):
        return None
    return ProjectionResult(point=vertices[0].copy(), weights={0: 1.0},
                            iterations=0, gap=0.0, certified=True)


def project_onto_hull(y: np.ndarray, vertices: np.ndarray) -> ProjectionResult:
    """Closest point to ``y`` in the convex hull of ``vertices``.

    Runs at most 50 * n iterations; on exhaustion the best iterate is
    returned flagged ``certified=False``.

    Args:
        y: target vector of length m.
        vertices: (n, m) matrix, one hull vertex per row (nonempty).

    Returns:
        ProjectionResult; ``point`` always lies in the hull (it is an
        explicit convex combination of vertices).
    """
    V = np.asarray(vertices, dtype=float)
    if V.ndim == 1:
        V = V[:, None]
    y = np.asarray(y, dtype=float).reshape(-1)
    n, m = V.shape
    if n < 1:
        raise ValueError("need at least one vertex")
    if y.shape[0] != m:
        raise ValueError("target length must match the vertex dimension")
    if not np.isfinite(y).all():
        raise ValueError("target must be finite")
    if not np.isfinite(V).all():
        raise ValueError("vertices must be finite")
    sqrt_m = math.sqrt(m)
    scale = max(1.0, float(np.abs(V).max()), float(np.abs(y).max()))
    gap_floor = GAP_FLOOR * m * scale * scale

    single = one_point_projection(V)
    if single is not None:
        return single

    w = np.zeros(n)
    start = int(((V - y) ** 2).sum(axis=1).argmin())
    w[start] = 1.0
    p = V[start].copy()

    def gap_at(point: np.ndarray) -> tuple[float, float]:
        r = y - point
        g = V @ r - float(point @ r)
        return float(g.max()), math.sqrt(float(r @ r))

    iterations = 0
    for iterations in range(1, 50 * n + 1):
        r = y - p
        scores = V @ r
        base = float(p @ r)
        fw = int(scores.argmax())
        gap = float(scores[fw] - base)
        resid = math.sqrt(float(r @ r))
        if gap <= TOL * resid * sqrt_m + gap_floor:
            break
        support = np.flatnonzero(w > 0)
        away = int(support[scores[support].argmin()])
        d = V[fw] - V[away]
        denom = float(d @ d)
        if denom > 0.0:
            step = float(r @ d) / denom
            step = min(max(step, 0.0), float(w[away]))
            w[fw] += step
            w[away] -= step
            if w[away] < 1e-16:
                w[away] = 0.0
        if denom <= 0.0 or iterations % POLISH_EVERY == 0:
            w = _polish(w, V, y)
        p = w @ V

    # Clean the weights into an exact convex combination and recompute
    # the certificate at the reported point.
    w = np.clip(w, 0.0, None)
    w /= w.sum()
    p = w @ V
    final_gap, resid = gap_at(p)
    certified = final_gap <= TOL * resid * sqrt_m + gap_floor
    weights = {int(i): float(w[i]) for i in np.flatnonzero(w > 0)}
    return ProjectionResult(point=p, weights=weights, iterations=iterations,
                            gap=final_gap, certified=certified)
