"""Euclidean projection onto the convex hull of a finite point set.

The "project back" step shared by the central and local projection
mechanisms.  Uses Wolfe's min-norm-point algorithm (Math. Programming
11, 1976) over the vertex list.  Each major cycle adds the Frank-Wolfe
vertex (the best improving one) to the support; minor cycles then jump
to the support's affine optimum, stepping back to the feasible boundary
and dropping vertices while a weight would go negative.  A one-point
hull needs no special case: the first major cycle certifies its vertex.

The affine optimum of a support S minimises ||lam @ U_S|| subject to
sum(lam) = 1, where U_S = V_S - y holds the support's rows centred on
the target.  It is lam = M^{-1} 1 / (1^T M^{-1} 1) with
M = 1 1^T + U_S U_S^T, the Gram matrix of the rows a_i = (1, u_i), which
is positive definite exactly when S is affinely independent.  As in
Wolfe's original, the support keeps a factor instead of solving afresh:
an upper-triangular Q with Q Q^T = M^{-1} and t = Q^T 1, so that
lam = Q t / (t . t).  Appending a vertex's centred row u adds one
column: with b = 1 + U_S u, r = Q^T b and pivot
rho^2 = 1 + ||u||^2 - ||r||^2, the column is (-Q r / rho, 1 / rho) and t
gains (1 - r . t) / rho.  That step is the only one that builds the
factor.  A column depends only on its row and the rows before it, so a
minor cycle that drops vertices keeps the columns before the first
dropped one and repeats the step over the kept rows after it: after any
drop, the factor is the one that growing the support in order gives.

A pivot rho^2 is the squared distance of a row a = (1, u) from the span
of the rows before it, computed as the diagonal entry 1 + ||u||^2 less
a sum of squares.  If a = sum_i c_i a_i lies in that span, rounding in
the factor acts as a perturbation E of M_S, with ||E|| about
eps * (m + 2) * ||M_S|| for sums of at most m + 2 terms, and the pivot
computes to about c^T E c instead of 0.  As
||c||^2 <= (1 + ||u||^2) / lambda_min(M_S), that is at most
eps * (m + 2) * kappa * (1 + ||u||^2), where kappa =
trace(M_S) * trace(M_S^{-1}) bounds the condition number of M_S and
trace(M_S^{-1}) = ||Q||_F^2 grows with the factor.  So a pivot at or
below ``PIVOT_FLOOR * (m + 2) * kappa * (1 + ||u||^2)`` marks the support
as affinely dependent, and so does any support of more than m + 1
vertices.  A pivot at or below ``(1 + ||u||^2) / KAPPA_MAX`` is treated
the same way: it would make M's condition number exceed KAPPA_MAX, and
the factor's weights carry a forward error of about eps * cond(M), so a
thin support (an in-hull target on an edge of a sliver triangle, say)
would lose the point's accuracy that a backward-stable solve keeps.  A
support so marked takes the minimum-norm solution of its KKT system
from ``lstsq`` until a drop at or before the refused row lets it factor
again; one of m + 2 vertices, which has an exact affine dependence, is
cut back to m + 1 by a Caratheodory step that keeps the point.  So
every major cycle starts from at most m + 1 vertices.

The iterate ``p = lam @ V_S`` is an explicit convex combination of
vertex rows, never ``y + lam @ U_S``: the latter leaves rounding (such
as -2.2e-16) in coordinates where every vertex is 0.  It carries the
first-order certificate ``<y - p, v - p> <= TOL * ||y - p|| * sqrt(m)``
for every vertex ``v``.

Deterministic given its inputs; inner products may be reduced in any
order (the tolerances absorb reduction noise).
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
# Relative floor on a factor pivot, per term of its sums and unit of the
# condition bound (module docstring); the factor 8 is GAP_FLOOR's margin.
PIVOT_FLOOR = 8 * sys.float_info.epsilon
# Largest condition number of M the factor serves (module docstring):
# its weights then keep about 8 significant digits.  Sampled projections
# onto the marginals2(8) chaining levels keep kappa below 3e6.
KAPPA_MAX = 1e8


class _Support:
    """Wolfe's support ("corral") for one target ``y``: the first ``k``
    rows of preallocated (m + 2)-row buffers hold its vertex indices
    ``idx``, vertex rows ``vs``, rows ``aug`` = (1, v - y) and weights
    ``lam``.  The factor covers the first ``f`` rows: ``q[:f, :f]`` is
    upper triangular with Q Q^T = M^{-1} = (aug aug^T)^{-1} over them,
    ``t[:f]`` is Q^T 1, and ``trace[i]`` and ``inv_trace[i]`` are the
    traces of M and M^{-1} over the first i rows (module docstring).  The
    support is factored when f == k.  The strictly lower triangle of
    ``q`` stays zero."""

    def __init__(self, y: np.ndarray):
        m = y.size
        self.y = y
        self.idx = np.empty(m + 2, dtype=np.intp)
        self.vs = np.empty((m + 2, m))
        self.aug = np.ones((m + 2, m + 1))
        self.lam = np.empty(m + 2)
        self.q = np.zeros((m + 2, m + 2))
        self.t = np.empty(m + 2)
        self.k = self.f = 0
        self.trace = [0.0] * (m + 2)
        self.inv_trace = [0.0] * (m + 2)

    def append(self, i: int, v: np.ndarray, weight: float = 0.0) -> None:
        """Add vertex ``i`` (row ``v``) with ``weight``, and its row to the
        factor if every row before it is factored, it is at most the
        (m + 1)-th, and its pivot passes."""
        k = self.k
        self.idx[k] = i
        self.vs[k] = v
        np.subtract(v, self.y, out=self.aug[k, 1:])
        self.lam[k] = weight
        self.k = k + 1
        m = self.y.size
        if self.f < k or k > m:
            return
        a = self.aug[k]
        diagonal = float(a @ a)
        q = self.q[:k, :k]
        r = (self.aug[:k] @ a) @ q
        pivot = diagonal - float(r @ r)
        trace, inv_trace = self.trace[k], self.inv_trace[k]
        kappa = trace * inv_trace
        if not pivot > max(PIVOT_FLOOR * (m + 2) * kappa,
                           1.0 / KAPPA_MAX) * diagonal:
            return
        rho = math.sqrt(pivot)
        col = q @ r
        col /= -rho
        self.q[:k, k] = col
        self.q[k, k] = 1.0 / rho
        self.t[k] = (1.0 - float(r @ self.t[:k])) / rho
        self.trace[k + 1] = trace + diagonal
        self.inv_trace[k + 1] = inv_trace + (float(col @ col) + 1.0 / pivot)
        self.f = k + 1

    def keep(self, mask: np.ndarray) -> None:
        """Keep the vertices ``mask`` selects, in order.  The factor's
        columns before the first dropped row stand (all of them, if it
        stops earlier), and ``append`` extends it over the kept rows
        after them."""
        k = int(np.count_nonzero(mask))
        head = min(int(np.argmin(mask)), self.f)
        for buf in (self.idx, self.vs, self.aug, self.lam):
            buf[:k] = buf[:self.k][mask]
        self.k = self.f = head
        for i in range(head, k):
            self.append(self.idx[i], self.vs[i], self.lam[i])

    def affine_optimum(self) -> np.ndarray:
        """Weights minimising ||lam @ U_S|| subject to sum(lam) = 1 only:
        Q t scaled to sum 1 from the factor, or on a dependent support the
        minimum-norm solution of [[U U^T, 1], [1^T, 0]] [lam; mu] = e_{k+1}
        (``lstsq``), scaled the same way."""
        k = self.k
        if self.f == k:
            lam = self.q[:k, :k] @ self.t[:k]
        else:
            us = self.aug[:k, 1:]
            kkt = np.ones((k + 1, k + 1))
            kkt[:k, :k] = us @ us.T
            kkt[k, k] = 0.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            lam = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
        lam /= lam.sum()
        return lam

    def minor_cycles(self) -> None:
        """Jump to the support's affine optimum once it is feasible; until
        then step from ``lam`` towards it as far as the simplex allows and
        drop the vertices that reach zero.  Each step keeps the weights on
        the simplex and drops at least one vertex, so the loop ends.
        Never increases the objective.  Ends on at most m + 1 vertices."""
        while True:
            aff = self.affine_optimum()
            ws = self.lam[:self.k]
            if aff.min() >= 0.0:
                ws[:] = aff
                break
            neg = np.flatnonzero(aff < 0)
            ratios = ws[neg] / (ws[neg] - aff[neg])
            j = int(ratios.argmin())
            ws += float(ratios[j]) * (aff - ws)
            ws[neg[j]] = 0.0
            self.keep(ws >= 1e-15)
        if self.k > self.y.size + 1:
            self._reduce()

    def _reduce(self) -> None:
        """Caratheodory step on m + 2 vertices: move the weights along
        their affine dependence d (d @ aug = 0, so sum(d) = 0 and the
        point stays) until one reaches zero, and drop it."""
        k = self.k
        d = np.linalg.svd(self.aug[:k])[0][:, -1]
        if d.min() >= 0.0:
            d = -d
        ws = self.lam[:k]
        neg = np.flatnonzero(d < 0)
        ratios = ws[neg] / -d[neg]
        j = int(ratios.argmin())
        ws += float(ratios[j]) * d
        ws[neg[j]] = 0.0
        self.keep(ws >= 1e-15)
        ws = self.lam[:self.k]
        ws /= ws.sum()

    def point(self) -> np.ndarray:
        """The iterate, lam @ V_S."""
        return self.lam[:self.k] @ self.vs[:self.k]


@dataclass
class ProjectionResult:
    """Projection output: the point, its convex weights ``coef`` over the
    vertex rows ``support`` (sorted, distinct, all weights positive),
    iteration count, final gap, and certificate flag."""

    point: np.ndarray
    support: np.ndarray
    coef: np.ndarray
    iterations: int
    gap: float
    certified: bool

    @property
    def weights(self) -> dict[int, float]:
        """``{vertex index: weight}`` over the support."""
        return dict(zip(self.support.tolist(), self.coef.tolist()))


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

    support = _Support(y)
    start = int(((V - y) ** 2).sum(axis=1).argmin())
    support.append(start, V[start], 1.0)
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
        support.append(fw, V[fw])
        support.minor_cycles()
        p = support.point()

    # Recompute the certificate at the reported point.
    r = y - p
    final_gap = float((V @ r).max() - p @ r)
    resid = math.sqrt(float(r @ r))
    certified = final_gap <= TOL * resid * sqrt_m + gap_floor
    k = support.k
    live = support.lam[:k] > 0
    idx, where = np.unique(support.idx[:k][live], return_inverse=True)
    return ProjectionResult(point=p, support=idx,
                            coef=np.bincount(where, support.lam[:k][live]),
                            iterations=iterations, gap=final_gap,
                            certified=certified)
