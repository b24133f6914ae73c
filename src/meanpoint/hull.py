"""Euclidean projection onto the convex hull of a finite point set.

The "project back" step shared by the central and local projection
mechanisms.  Uses Wolfe's min-norm-point algorithm (Math. Programming
11, 1976) over the vertex list.  Each major cycle adds the Frank-Wolfe
vertex (the best improving one) to the support; minor cycles then jump
to the support's affine optimum, stepping back to the feasible boundary
and dropping vertices while a weight would go negative.  The support
stays affinely independent, so it never exceeds m + 1 vertices, and each
minor cycle solves the support's KKT system, centred on the target, with
``linalg.solve``.  The iterate stays an explicit convex combination
throughout and carries the first-order certificate
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


def _affine_least_squares(Vs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Weights minimizing ||w @ Vs - y|| subject to sum(w) = 1 only.

    On that constraint w @ Vs - y = w @ U with U = Vs - y, so the KKT
    system is [[U U^T, 1], [1^T, 0]] [w; mu] = e_{k+1}, which ``solve``
    takes.  The minor cycles never pass it more than m + 1 vertices; a
    larger support would be affinely dependent, so the system singular,
    and it is guarded straight to ``lstsq``'s minimum-norm solution.  So
    is a smaller system on which ``solve`` raises or returns non-finite
    values.  ``solve`` need not raise on an exactly singular system
    (repeated vertices): LU can leave a tiny pivot in place of a zero
    and return finite weights, which are then kept.
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


def _minor_cycles(w: np.ndarray, support: np.ndarray, V: np.ndarray,
                  y: np.ndarray) -> np.ndarray:
    """Wolfe's minor cycles on ``support`` (row indices of ``V``, which
    may carry zero weight in ``w``): jump to the support's affine
    optimum once it is feasible; until then step from ``w`` towards it
    as far as the simplex allows and drop the vertices that reach zero.
    Each step keeps the weights on the simplex and drops at least one
    vertex, so the loop ends.  Never increases the objective.  A vertex
    listed twice gets the sum of its weights."""
    ws = w[support]
    while True:
        lam = _affine_least_squares(V[support], y)
        if bool((lam >= 0.0).all()):
            ws = lam
            break
        neg = np.flatnonzero(lam < 0)
        ratios = ws[neg] / (ws[neg] - lam[neg])
        ws = ws + float(ratios.min()) * (lam - ws)
        ws[neg[ratios.argmin()]] = 0.0
        keep = ws >= 1e-15
        support, ws = support[keep], ws[keep]
    return np.bincount(support, ws / ws.sum(), minlength=w.size)


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

    Runs at most 50 * n major cycles, which ``iterations`` counts; on
    exhaustion the best iterate is returned flagged ``certified=False``.

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

    iterations = 0
    for iterations in range(1, 50 * n + 1):
        r = y - p
        scores = V @ r
        fw = int(scores.argmax())
        gap = float(scores[fw] - p @ r)
        resid = math.sqrt(float(r @ r))
        if gap <= TOL * resid * sqrt_m + gap_floor:
            break
        w = _minor_cycles(w, np.append(np.flatnonzero(w > 0), fw), V, y)
        p = w @ V

    # Recompute the certificate at the reported point.
    r = y - p
    final_gap = float((V @ r).max() - p @ r)
    resid = math.sqrt(float(r @ r))
    certified = final_gap <= TOL * resid * sqrt_m + gap_floor
    weights = {int(i): float(w[i]) for i in np.flatnonzero(w > 0)}
    return ProjectionResult(point=p, weights=weights, iterations=iterations,
                            gap=final_gap, certified=certified)
