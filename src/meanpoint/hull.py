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
a lower-triangular P with P^T P = M^{-1} (so P^{-1} is M's Cholesky
factor) and t = P 1, so that lam = P^T t / (t . t).  Appending a
vertex's centred row u adds one row, written contiguously: with
b = 1 + U_S u, r = P b and pivot rho^2 = 1 + ||u||^2 - ||r||^2, the row
is (-P^T r / rho, 1 / rho) and t gains (1 - r . t) / rho.  That step is
the only one that grows the factor.  Dropping the vertex of column j
shrinks it in place by a downdate: Givens rotations of adjacent rows
(c, c + 1), c = j, ..., f - 2, zero column j in every row but the last,
which leaves P^T P unchanged; deleting that last row and column j then
leaves a lower-triangular factor of M with row and column j deleted,
and t, rotated along, is still P 1.  Rows before j stand.  A removal
needs no pivot test: a principal submatrix of M is no worse conditioned
than M (Cauchy interlacing).  The traces of M and M^{-1} are kept as two
scalars: an append adds the new diagonal entry and the new row's
squared norm, and a drop takes off the dropped diagonal entry and the
deleted row's squared norm.

A pivot rho^2 is the squared distance of a row a = (1, u) from the span
of the rows before it, computed as the diagonal entry 1 + ||u||^2 less
a sum of squares.  If a = sum_i c_i a_i lies in that span, rounding in
the factor acts as a perturbation E of M_S, with ||E|| about
eps * (m + 2) * ||M_S|| for sums of at most m + 2 terms, and the pivot
computes to about c^T E c instead of 0.  As
||c||^2 <= (1 + ||u||^2) / lambda_min(M_S), that is at most
eps * (m + 2) * kappa * (1 + ||u||^2), where kappa =
trace(M_S) * trace(M_S^{-1}) bounds the condition number of M_S and
trace(M_S^{-1}) = ||P||_F^2 grows with the factor.  So a pivot at or
below ``PIVOT_FLOOR * (m + 2) * kappa * (1 + ||u||^2)`` marks the support
as affinely dependent, and so does any support of more than m + 1
vertices.  A pivot at or below ``(1 + ||u||^2) / KAPPA_MAX`` is treated
the same way: it would make M's condition number exceed KAPPA_MAX, and
the factor's weights carry a forward error of about eps * cond(M), so a
thin support (an in-hull target on an edge of a sliver triangle, say)
would lose the point's accuracy that a backward-stable solve keeps.  A
support so marked takes the minimum-norm least-squares solution of
A^T lam = e_0 = (1, 0, ..., 0) from ``lstsq``, A holding its rows
a_i = (1, u_i), until a drop at or before the refused row lets it
factor again.  The normal equations are M lam = 1, so lam is M^+ 1, the
weights above up to scale, solved from a matrix of condition cond(A)
rather than cond(A)^2.  One of m + 2 vertices, which has an exact affine
dependence, is cut back to m + 1 by a Caratheodory step that keeps the
point.  So every major cycle starts from at most m + 1 vertices.

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
    ``lam``.  The factor covers the first ``f`` rows: ``factor[:f, :f]``
    is a lower-triangular P with P^T P = M^{-1} = (aug aug^T)^{-1} over
    them, ``t[:f]`` is P 1, and ``trace`` and ``inv_trace`` are the traces
    of M and M^{-1} over them (module docstring).  The support is factored
    when f == k.  The strictly upper triangle of ``factor`` stays zero."""

    def __init__(self, y: np.ndarray):
        m = y.size
        self.y = y
        self.idx = np.empty(m + 2, dtype=np.intp)
        self.vs = np.empty((m + 2, m))
        self.aug = np.ones((m + 2, m + 1))
        self.lam = np.empty(m + 2)
        self.factor = np.zeros((m + 2, m + 2))
        self.t = np.empty(m + 2)
        self.k = self.f = 0
        self.trace = self.inv_trace = 0.0

    def append(self, i: int, v: np.ndarray, weight: float = 0.0) -> None:
        """Add vertex ``i`` (row ``v``) with ``weight``, and ``extend``
        the factor over it if every row before it is factored."""
        k = self.k
        self.idx[k] = i
        self.vs[k] = v
        np.subtract(v, self.y, out=self.aug[k, 1:])
        self.lam[k] = weight
        self.k = k + 1
        if self.f == k:
            self.extend()

    def extend(self) -> None:
        """Add rows to the factor, in order, while the next row is at
        most the (m + 1)-th and its pivot passes."""
        while self.f < min(self.k, self.y.size + 1) and self.append_step():
            pass

    def append_step(self) -> bool:
        """Add row f to the factor if its pivot passes; say whether it
        did.  The only step that grows the factor."""
        f = self.f
        a = self.aug[f]
        diagonal = float(a.dot(a))
        p = self.factor[:f, :f]
        r = p.dot(self.aug[:f].dot(a))
        pivot = diagonal - float(r.dot(r))
        kappa = self.trace * self.inv_trace
        if not pivot > max(PIVOT_FLOOR * (self.y.size + 2) * kappa,
                           1.0 / KAPPA_MAX) * diagonal:
            return False
        rho = math.sqrt(pivot)
        row = self.factor[f, :f]
        r.dot(p, row)
        row /= -rho
        self.factor[f, f] = 1.0 / rho
        self.t[f] = (1.0 - float(r.dot(self.t[:f]))) / rho
        self.trace += diagonal
        self.inv_trace += float(row.dot(row)) + 1.0 / pivot
        self.f = f + 1
        return True

    def downdate(self, j: int) -> None:
        """Remove the factored vertex at position ``j``, column j of P,
        from the factor.  Givens rotations of rows (c, c + 1),
        c = j, ..., f - 2, push column j into P's last row; that row and
        column j are then deleted.  Rows before j stand.  A removal takes
        no pivot test: M's principal submatrix is no worse conditioned
        than M."""
        f = self.f
        p, t = self.factor, self.t
        for c in range(j, f - 1):
            x, z = float(p[c, j]), float(p[c + 1, j])
            h = math.hypot(x, z)
            cos, sin = z / h, x / h
            rows = p[c:c + 2, :c + 2]
            rows[:] = np.array(((cos, -sin), (sin, cos))).dot(rows)
            p[c, j], p[c + 1, j] = 0.0, h
            tc, td = float(t[c]), float(t[c + 1])
            t[c], t[c + 1] = cos * tc - sin * td, sin * tc + cos * td
        last = p[f - 1, :f]
        a = self.aug[j]
        self.trace -= float(a.dot(a))
        self.inv_trace -= float(last.dot(last))
        last[:] = 0.0
        p[j:f - 1, j:f - 1] = p[j:f - 1, j + 1:f]
        p[j:f - 1, f - 1] = 0.0
        self.f = f - 1

    def keep(self, mask: np.ndarray) -> None:
        """Keep the vertices ``mask`` selects, in order.  Each dropped
        factored vertex leaves the factor by a ``downdate``, from the last
        one back; then ``extend`` tries the unfactored rows."""
        for j in np.flatnonzero(~mask[:self.f])[::-1].tolist():
            self.downdate(j)
        k = int(np.count_nonzero(mask))
        for buf in (self.idx, self.vs, self.aug, self.lam):
            buf[:k] = buf[:self.k][mask]
        self.k = k
        self.extend()

    def affine_optimum(self) -> np.ndarray:
        """Weights minimising ||lam @ U_S|| subject to sum(lam) = 1 only:
        P^T t scaled to sum 1 from the factor, or on a dependent support
        the minimum-norm least-squares solution of aug^T lam = e_0 over
        the support's own rows (``lstsq``), scaled the same way."""
        k = self.k
        if self.f == k:
            lam = self.t[:k].dot(self.factor[:k, :k])
        else:
            e0 = np.zeros(self.y.size + 1)
            e0[0] = 1.0
            lam = np.linalg.lstsq(self.aug[:k].T, e0, rcond=None)[0]
        lam /= math.fsum(lam.tolist())
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
            if min(aff.tolist()) >= 0.0:
                ws[:] = aff
                break
            self._step(aff - ws, aff < 0)
        if self.k > self.y.size + 1:
            self._reduce()

    def _step(self, d: np.ndarray, neg: np.ndarray) -> None:
        """Move ``lam`` along ``d`` until the first of the rows ``neg``
        selects (where d < 0) reaches zero, zero that weight, and drop
        the vertices whose weight is then below 1e-15."""
        ws = self.lam[:self.k]
        neg = np.flatnonzero(neg)
        ratios = ws[neg] / -d[neg]
        j = int(ratios.argmin())
        ws += float(ratios[j]) * d
        ws[neg[j]] = 0.0
        self.keep(ws >= 1e-15)

    def _reduce(self) -> None:
        """Caratheodory step on m + 2 vertices: move the weights along
        their affine dependence d (d @ aug = 0, so sum(d) = 0 and the
        point stays) until one reaches zero, and drop it."""
        d = np.linalg.svd(self.aug[:self.k])[0][:, -1]
        if d.min() >= 0.0:
            d = -d
        self._step(d, d < 0)
        ws = self.lam[:self.k]
        ws /= ws.sum()

    def point(self) -> np.ndarray:
        """The iterate, lam @ V_S."""
        return self.lam[:self.k].dot(self.vs[:self.k])


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
    # A gap is a difference of inner products of size up to 2 m scale^2.
    if not math.isfinite(4.0 * m * scale * scale):
        raise ValueError(f"coordinates up to {scale:.3g} overflow the "
                         f"inner products of the duality gap")
    gap_floor = GAP_FLOOR * m * scale * scale

    support = _Support(y)
    start = int(((V - y) ** 2).sum(axis=1).argmin())
    support.append(start, V[start], 1.0)
    p = V[start].copy()

    # Every product in the cycle calls ndarray.dot, not the @ gufunc: at
    # these sizes a call is almost all overhead, and on a 2-core Xeon
    # with one BLAS thread (numpy 2.4) @ takes 1.9-4.8 us a call where dot
    # takes 1.0-2.5 us, for the same BLAS routine and the same floats.
    scores = np.empty(n)
    iterations = 0
    for iterations in range(1, 50 * n + 1):
        r = y - p
        V.dot(r, scores)
        fw = int(scores.argmax())
        gap = float(scores[fw] - p.dot(r))
        resid = math.sqrt(float(r.dot(r)))
        certified = gap <= TOL * resid * sqrt_m + gap_floor
        if certified:
            break
        support.append(fw, V[fw])
        support.minor_cycles()
        p = support.point()
    else:
        # The cap ran out after a step: certify the reported point afresh.
        r = y - p
        gap = float(V.dot(r).max() - p.dot(r))
        resid = math.sqrt(float(r.dot(r)))
        certified = gap <= TOL * resid * sqrt_m + gap_floor
    k = support.k
    live = support.lam[:k] > 0
    idx, where = np.unique(support.idx[:k][live], return_inverse=True)
    return ProjectionResult(point=p, support=idx,
                            coef=np.bincount(where, support.lam[:k][live]),
                            iterations=iterations, gap=gap,
                            certified=certified)
