import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from meanpoint import geometry, harness, hull
from meanpoint.hull import GAP_FLOOR, TOL, _Support, project_onto_hull


def simplex_project_rows(lam):
    """Euclidean projection of each row onto the probability simplex."""
    n = lam.shape[1]
    srt = -np.sort(-lam, axis=1)
    css = (np.cumsum(srt, axis=1) - 1.0) / np.arange(1, n + 1)
    k = np.sum(srt > css, axis=1) - 1
    theta = css[np.arange(lam.shape[0]), k]
    return np.maximum(lam - theta[:, None], 0.0)


def pgd_oracle_batch(ys, Vs, steps=1_000_000):
    """Independent oracle: for each instance, minimize ||V^T lam - y||^2
    over the simplex by plain projected gradient descent."""
    k, n, _ = Vs.shape
    G = np.einsum("kim,kjm->kij", Vs, Vs)
    b = np.einsum("kim,km->ki", Vs, ys)
    lips = np.array([np.linalg.eigvalsh(G[i])[-1] for i in range(k)])
    step = 1.0 / np.maximum(lips, 1e-12)
    lam = np.full((k, n), 1.0 / n)
    for _ in range(steps):
        grad = np.einsum("kij,kj->ki", G, lam) - b
        lam = simplex_project_rows(lam - step[:, None] * grad)
    return np.einsum("ki,kim->km", lam, Vs)


def exact_projection(y, V):
    """Independent exact oracle for small instances: the nearest point in
    the hull lies in the relative interior of a face spanned by at most
    m+1 affinely independent vertices, where it is the affine
    least-squares point of those vertices.  Every support whose affine
    least-squares weights are non-negative gives a hull point, so the
    nearest of those is the projection."""
    n, m = V.shape
    best, best_dist = None, math.inf
    for size in range(1, min(n, m + 1) + 1):
        for support in itertools.combinations(range(n), size):
            S = V[list(support)]
            coef, *_ = np.linalg.lstsq((S[1:] - S[0]).T, y - S[0],
                                       rcond=None)
            if coef.min(initial=0.0) < -1e-12 or coef.sum() > 1 + 1e-12:
                continue
            point = S[0] + coef @ (S[1:] - S[0])
            dist = float(np.linalg.norm(y - point))
            if dist < best_dist:
                best, best_dist = point, dist
    return best


def random_instance(rng, m=3, n_vertices=6):
    V = rng.random((n_vertices, m)) * 2.0 - 0.5
    y = rng.random(m) * 3.0 - 1.0
    return y, V


class TestProjectOntoHull:
    def test_vertex_target_returns_itself(self):
        V = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        res = project_onto_hull(V[1], V)
        assert np.array_equal(res.point, V[1])
        assert res.gap == pytest.approx(0.0, abs=1e-12)
        assert res.certified

    def test_orthogonal_projection_onto_segment(self):
        V = np.array([[0.0, 0.0], [1.0, 0.0]])
        res = project_onto_hull(np.array([0.5, 1.0]), V)
        assert np.allclose(res.point, [0.5, 0.0], atol=1e-7)

    def test_beyond_endpoint_clamps(self):
        V = np.array([[0.0, 0.0], [1.0, 0.0]])
        res = project_onto_hull(np.array([2.0, 3.0]), V)
        assert np.allclose(res.point, [1.0, 0.0], atol=1e-9)

    def test_degenerate_hull_returns_the_vertex(self):
        V = np.tile(np.array([[0.25, 0.75]]), (4, 1))
        res = project_onto_hull(np.array([5.0, 5.0]), V)
        assert np.array_equal(res.point, V[0])
        assert res.certified

    def test_weights_are_convex_combination(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y, V = random_instance(rng)
            res = project_onto_hull(y, V)
            w = np.zeros(len(V))
            for i, v in res.weights.items():
                assert v >= 0
                w[i] = v
            assert sum(res.weights.values()) == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.norm(w @ V - res.point) <= 1e-8 * math.sqrt(V.shape[1])

    def test_result_keeps_support_and_coefficients(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            y, V = random_instance(rng, m=int(rng.integers(1, 6)),
                                   n_vertices=int(rng.integers(2, 12)))
            res = project_onto_hull(y, V)
            weights = dict(zip(res.support.tolist(), res.coef.tolist()))
            res.weights.clear()
            assert res.weights == weights
            assert sum(res.weights.values()) == pytest.approx(1.0, abs=1e-12)
            assert len(res.weights) <= V.shape[1] + 1
            moved = dataclasses.replace(res, point=res.point + 1.0)
            assert np.array_equal(moved.point, res.point + 1.0)
            assert moved.weights == res.weights
            assert (moved.iterations, moved.gap, moved.certified) == \
                (res.iterations, res.gap, res.certified)

    @pytest.mark.parametrize("m", [1, 3, 28])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_one_point_hull_is_certified_by_the_first_cycle(self, n, m):
        # Every row equal: Wolfe's first major cycle certifies the row it
        # starts from, whether the target is on it, near it or far away.
        rng = np.random.default_rng(10 * n + m)
        row = rng.random(m) * 2.0 - 0.5
        away = rng.standard_normal(m)
        away /= np.linalg.norm(away)
        for y in (row.copy(), row + 1e-3 * away, row + 1e6 * away):
            res = project_onto_hull(y, np.tile(row, (n, 1)))
            assert res.point.tobytes() == row.tobytes()
            assert res.certified and res.iterations == 1
            assert res.support.tolist() == [0]
            assert res.coef.tolist() == [1.0]
            assert res.weights == {0: 1.0}

    def test_agrees_with_pgd_oracle(self):
        # smaller step count than the acceptance run, still well converged
        rng = np.random.default_rng(1)
        ys, Vs = zip(*(random_instance(rng) for _ in range(5)))
        refs = pgd_oracle_batch(np.array(ys), np.array(Vs), steps=100_000)
        for y, V, ref in zip(ys, Vs, refs):
            res = project_onto_hull(y, V)
            assert np.linalg.norm(res.point - ref) <= 1e-4

    def test_rank_deficient_marginal_vertices(self):
        # The 16 vertices of gen_marginals2(4) span an affine space of
        # rank 7 in R^6, so every support of more than 7 of them is
        # affinely dependent.  Two of the interior targets reach supports
        # of 8.
        V = harness.gen_marginals2(4).points
        rng = np.random.default_rng(3)
        inside = [rng.dirichlet(np.ones(len(V))) @ V for _ in range(4)]
        face_out = V[V[:, 0] == 0].mean(axis=0)
        face_out[0] = -0.5
        outside = [face_out] + [rng.random(6) * 2 - 0.5 for _ in range(2)]
        ys = np.array(inside + outside)
        refs = pgd_oracle_batch(ys, np.array([V] * len(ys)), steps=5_000)
        for i, (y, ref) in enumerate(zip(ys, refs)):
            res = project_onto_hull(y, V)
            assert res.certified
            assert np.linalg.norm(res.point - ref) <= 1e-9
            if i < len(inside):
                assert np.linalg.norm(res.point - y) <= 1e-12

    def test_agrees_with_exact_support_oracle(self):
        # Includes 0/1 vertex sets (affinely dependent, as in marginals)
        # and duplicated rows.
        rng = np.random.default_rng(7)
        for _ in range(600):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 9))
            if rng.random() < 0.5:
                V = rng.integers(0, 2, size=(n, m)).astype(float)
            else:
                V = rng.random((n, m)) * 2.0 - 0.5
            if n > 1 and rng.random() < 0.5:
                V[rng.integers(0, n)] = V[rng.integers(0, n)]
            y = rng.random(m) * 3.0 - 1.0
            res = project_onto_hull(y, V)
            assert res.certified
            assert np.linalg.norm(res.point - exact_projection(y, V)) <= 1e-9

    def test_certificate_holds_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            y, V = random_instance(rng, m=int(rng.integers(1, 6)),
                                   n_vertices=int(rng.integers(1, 12)))
            res = project_onto_hull(y, V)
            assert res.certified
            resid = np.linalg.norm(y - res.point)
            gaps = (V - res.point) @ (y - res.point)
            assert gaps.max() <= TOL * resid * math.sqrt(V.shape[1]) + 1e-10

    def test_non_expansive(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            _, V = random_instance(rng)
            y1 = rng.random(3) * 4 - 2
            y2 = rng.random(3) * 4 - 2
            p1 = project_onto_hull(y1, V).point
            p2 = project_onto_hull(y2, V).point
            m = V.shape[1]
            assert np.linalg.norm(p1 - p2) <= \
                np.linalg.norm(y1 - y2) + 2 * TOL * math.sqrt(m)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            y, V = random_instance(rng)
            p1 = project_onto_hull(y, V).point
            p2 = project_onto_hull(p1, V).point
            assert np.linalg.norm(p2 - p1) <= 2 * TOL * math.sqrt(V.shape[1])

    def test_no_farther_than_any_vertex(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            y, V = random_instance(rng)
            p = project_onto_hull(y, V).point
            best_vertex = np.linalg.norm(V - y, axis=1).min()
            assert np.linalg.norm(p - y) <= \
                best_vertex + TOL * math.sqrt(V.shape[1])

    def test_projection_error_inequality_monte_carlo(self):
        # E||p - x||^2 <= E sup_w <w, W - x> for W = x + noise, x in hull;
        # both sides by Monte Carlo with slack for sampling error
        rng = np.random.default_rng(6)
        V = rng.random((5, 3))
        lam = rng.dirichlet(np.ones(5))
        x = lam @ V
        lhs, rhs = [], []
        for _ in range(400):
            noise = rng.normal(0.0, 0.3, size=3)
            p = project_onto_hull(x + noise, V).point
            lhs.append(float((p - x) @ (p - x)))
            rhs.append(float(((V - x) @ noise).max()))
        assert np.mean(lhs) <= 1.2 * np.mean(rhs)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            project_onto_hull(np.array([0.0, 1.0]), np.array([[0.0]]))
        V = np.array([[0.0, 0.0], [1.0, 0.0]])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="target"):
                project_onto_hull(np.array([0.5, bad]), V)
            with pytest.raises(ValueError, match="vertices"):
                project_onto_hull(np.array([0.5, 0.5]),
                                  np.array([[0.0, 0.0], [bad, 0.0]]))
        # scale^2 overflows, so the gap floor would be inf and certify
        # any iterate; scaled by 1e-150 the same problem projects to
        # (0, 3e9).
        V = np.array([[0.0, 0.0], [1e160, 0.0], [0.0, 1e160]])
        y = np.array([-1e159, 3e159])
        with pytest.raises(ValueError, match="overflow"):
            project_onto_hull(y, V)
        res = project_onto_hull(y * 1e-150, V * 1e-150)
        assert res.certified
        assert res.point.tolist() == pytest.approx([0.0, 3e9])


def counting_lstsq(monkeypatch):
    """Patch ``np.linalg.lstsq`` to count its calls; returns the count."""
    calls = [0]
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls[0] += 1
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


def kkt_weights(us):
    """Affine optimum of the centred rows ``us`` from a fresh ``solve``
    of [[U U^T, 1], [1^T, 0]] [lam; mu] = e_{k+1}."""
    k = len(us)
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = us @ us.T
    kkt[k, k] = 0.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    return np.linalg.solve(kkt, rhs)[:k]


def support_of(y, V, w):
    """A ``_Support`` for ``y`` over the rows of ``V``, appended in order
    with weights ``w``."""
    s = _Support(y)
    for i, (v, wi) in enumerate(zip(V, w)):
        s.append(i, v, wi)
    return s


def check_factor(s):
    """The factor over the first ``f`` rows is lower triangular with
    P^T P M = I, t = P 1 and its two traces, to rounding: eps * (m + 2)
    times the condition bound kappa for the inverse, and per row of t
    8 * eps * (m + 2) times the row's absolute sum."""
    f, m = s.f, s.y.size
    p = s.factor[:f, :f]
    a = s.aug[:f]
    gram = a @ a.T
    eps = np.finfo(float).eps
    assert not np.triu(s.factor, 1).any()
    kappa = s.trace * s.inv_trace
    assert np.abs(p.T @ p @ gram - np.eye(f)).max() <= eps * (m + 2) * kappa
    assert np.all(np.abs(s.t[:f] - p.sum(axis=1))
                  <= 8 * eps * (m + 2) * np.abs(p).sum(axis=1))
    assert s.trace == pytest.approx(np.trace(gram), rel=1e-12)
    assert s.inv_trace == pytest.approx(float((p * p).sum()), rel=1e-9)


class TestMinorCycle:
    def test_dependent_support_falls_back_and_never_increases(
            self, monkeypatch):
        # Supports drawn with a repeated vertex, some within m + 1 rows
        # and some beyond: every one is affinely dependent.  Appending
        # the repeat leaves a pivot under the floor, and so does a keep
        # that downdates the factor and extends it over the repeat again,
        # so every first minor cycle goes to lstsq; the cycles end on at
        # most m + 1 vertices.
        calls = counting_lstsq(monkeypatch)
        rng = np.random.default_rng(8)
        for _ in range(200):
            m, base = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            B = rng.integers(0, 2, size=(base, m)).astype(float) \
                if rng.random() < 0.5 else rng.random((base, m))
            rows = rng.integers(0, base, size=int(rng.integers(2, m + 6)))
            rows[-1] = rows[0]
            V = B[rows]
            y = rng.random(m) * 3.0 - 1.0
            w = rng.dirichlet(np.ones(len(V)))
            if len(V) > m + 2:
                # A support holds at most m + 2 rows: keep the first m + 1
                # and the repeat, which takes the weight of the rest.
                V = np.vstack((V[:m + 1], V[-1:]))
                w = np.append(w[:m + 1], w[m + 1:].sum())
            before = np.linalg.norm(w @ V - y)
            s = support_of(y, V, w)
            assert s.f < s.k
            if len(V) <= m + 1:
                # Lead with a vertex off every row and drop it: the factor
                # is downdated from its first row, stays a factor of the
                # kept rows, and refuses the repeat as growing V in order
                # did.
                z = np.vstack((B.max(axis=0) + 1.0, V))
                again = support_of(y, z, np.append(0.0, w))
                again.keep(np.arange(len(z)) > 0)
                assert (again.k, again.f) == (s.k, s.f)
                check_factor(again)
            calls[0] = 0
            s.minor_cycles()
            assert calls[0] >= 1
            assert s.k <= m + 1
            after = np.bincount(s.idx[:s.k], s.lam[:s.k], minlength=len(V))
            assert after.min() >= 0.0
            assert after.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(after @ V - y) <= before + 1e-12
            assert project_onto_hull(y, V).certified

    def test_singular_small_system_falls_back(self, monkeypatch):
        # Two equal vertices of three in R^3: the support fits in m + 1,
        # but its M = 1 1^T + U U^T is exactly singular, and the factor
        # must say so: the pivot test refuses the second equal vertex.
        Vs = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        y = np.array([0.2, 0.3, 0.1])
        s = support_of(y, Vs, np.full(3, 1 / 3))
        assert (s.k, s.f) == (3, 1)
        calls = counting_lstsq(monkeypatch)
        lam = s.affine_optimum()
        assert calls[0] == 1
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)
        # The affine optimum on the line through the two distinct points.
        assert lam[2] == pytest.approx(0.55, abs=1e-12)

    def test_marginal_level_projections_never_reach_lstsq(self, monkeypatch):
        # A live level of the marginals2(8) chaining split (220 rows, 156
        # distinct, m = 28): neither the interior mean of its distinct
        # rows nor noisy means outside its hull grow a support the factor
        # finds affinely dependent, so no minor cycle reaches lstsq.
        level = geometry.chaining_decomposition(
            harness.gen_marginals2(8), 0.1).levels[1]

        def refuse(*args, **kwargs):
            raise AssertionError("lstsq ran on a marginals2(8) level")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        inside = np.unique(level, axis=0).mean(axis=0)
        res = project_onto_hull(inside, level)
        assert res.certified
        assert np.linalg.norm(res.point - inside) <= 1e-12
        rng = np.random.default_rng(0)
        for _ in range(8):
            mean = level[rng.integers(0, len(level), 50)].mean(axis=0)
            y = mean + rng.normal(0.0, 0.2, size=level.shape[1])
            assert project_onto_hull(y, level).certified


class TestFactor:
    @pytest.mark.parametrize("case", range(13))
    def test_factor_weights_match_a_fresh_solve(self, case):
        # Grow a support one vertex at a time, in a random order, and now
        # and then drop one.  After every append the factor either refuses
        # the support (then the vertex is dropped again) or gives the
        # affine optimum a fresh KKT solve gives.  A drop at position j
        # downdates the factor: its first j rows and t[:j] stand bit for
        # bit, and the rest is still a factor of the kept rows.
        rng = np.random.default_rng(case)
        if case == 0:
            V = geometry.chaining_decomposition(
                harness.gen_marginals2(8), 0.1).levels[1]
            y = V[rng.integers(0, len(V), 50)].mean(axis=0) \
                + rng.normal(0.0, 0.2, size=V.shape[1])
        else:
            m = int(rng.integers(1, 12))
            V = rng.random((3 * m + 3, m)) * 4.0 - 2.0
            if case % 2:
                V = np.round(V)
            y = rng.random(m) * 8.0 - 4.0
        m = V.shape[1]
        s = _Support(y)

        def check():
            check_factor(s)
            lam = s.affine_optimum()
            ref = kkt_weights(s.aug[:s.k, 1:])
            assert np.linalg.norm(lam - ref) <= 1e-10 * np.linalg.norm(ref)

        for i in rng.permutation(len(V)):
            s.append(i, V[i])
            if s.f < s.k:
                s.keep(np.arange(s.k) < s.k - 1)
                assert s.f == s.k
            check()
            if s.k > 1 and rng.random() < 0.3:
                j = int(rng.integers(0, s.k))
                p, t = s.factor[:j, :j].tobytes(), s.t[:j].tobytes()
                s.keep(np.arange(s.k) != j)
                assert s.f == s.k
                assert (s.factor[:j, :j].tobytes(), s.t[:j].tobytes()) == \
                    (p, t)
                check()
            if s.k == m + 1:
                break

    def test_a_drop_from_a_factored_support_takes_no_append_step(
            self, monkeypatch):
        # The downdate removes a factored row in place: dropping any
        # vertex, or several, of a fully factored support runs the append
        # step 0 times, and the factor still serves the kept rows.
        steps = [0]
        step = _Support.append_step

        def counted(self):
            steps[0] += 1
            return step(self)

        monkeypatch.setattr(_Support, "append_step", counted)
        rng = np.random.default_rng(12)
        for _ in range(40):
            m = int(rng.integers(2, 9))
            V = rng.random((m + 1, m)) * 4.0 - 2.0
            y = rng.random(m) * 8.0 - 4.0
            s = support_of(y, V, np.full(m + 1, 1.0 / (m + 1)))
            assert s.f == s.k == m + 1
            steps[0] = 0
            mask = np.ones(m + 1, dtype=bool)
            mask[rng.choice(m + 1, int(rng.integers(1, m + 1)),
                            replace=False)] = False
            s.keep(mask)
            assert steps[0] == 0
            assert s.f == s.k
            check_factor(s)
            lam = s.affine_optimum()
            ref = kkt_weights(s.aug[:s.k, 1:])
            assert np.linalg.norm(lam - ref) <= 1e-10 * np.linalg.norm(ref)


class TestCertificate:
    def fresh_gap(self, y, V, res):
        r = y - res.point
        return float(V.dot(r).max() - res.point.dot(r))

    def test_reported_gap_is_the_gap_at_the_point(self):
        # The loop's last gap is reported without being recomputed: it
        # must equal, bit for bit, a fresh gap at the returned point.
        rng = np.random.default_rng(13)
        level = geometry.chaining_decomposition(
            harness.gen_marginals2(8), 0.1).levels[1]
        cases = [random_instance(rng, m=int(rng.integers(1, 6)),
                                 n_vertices=int(rng.integers(1, 12)))
                 for _ in range(40)]
        cases += [(level[rng.integers(0, len(level), 50)].mean(axis=0)
                   + rng.normal(0.0, 0.2, size=level.shape[1]), level)
                  for _ in range(4)]
        for y, V in cases:
            res = project_onto_hull(y, V)
            assert res.certified
            assert res.gap == self.fresh_gap(y, V, res)

    def test_exhausted_cap_recomputes_the_certificate(self, monkeypatch):
        # With a negative tolerance and floor no gap passes, so every
        # projection runs its 50 * n cycles; the certificate is then taken
        # afresh at the returned point, and it fails.  Each iterate is
        # nudged by a growing offset, so the last cycle moves the point
        # and the gap of the cycle before it would be stale.
        monkeypatch.setattr(hull, "TOL", -1.0)
        monkeypatch.setattr(hull, "GAP_FLOOR", -1.0)
        nudges = itertools.count(1)
        point = _Support.point
        monkeypatch.setattr(_Support, "point", lambda self: point(self)
                            + 1e-9 * next(nudges))
        rng = np.random.default_rng(14)
        for _ in range(10):
            y, V = random_instance(rng, m=int(rng.integers(1, 5)),
                                   n_vertices=int(rng.integers(1, 7)))
            res = project_onto_hull(y, V)
            assert res.iterations == 50 * len(V)
            assert not res.certified
            assert res.gap == self.fresh_gap(y, V, res)
            assert sum(res.weights.values()) == pytest.approx(1.0, abs=1e-12)


# Vertex sets of up to 12 points in [-2, 2]^m, m <= 5, with two targets
# in [-4, 4]^m.
_instances = st.tuples(st.integers(1, 12), st.integers(1, 5)).flatmap(
    lambda shape: st.tuples(
        arrays(np.float64, shape, elements=st.floats(-2.0, 2.0)),
        arrays(np.float64, shape[1], elements=st.floats(-4.0, 4.0)),
        arrays(np.float64, shape[1], elements=st.floats(-4.0, 4.0))))


class TestProjectionProperties:
    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None)
    @given(_instances)
    # A thin triangle whose target projects onto an edge: the gap floor
    # alone lets a re-projection of that point move it by up to 1.1e-7.
    @example((np.array([[0.0, -1.625], [6.103515625e-05, 0.0],
                        [-1e-05, -1.90625]]),
              np.array([-1.8125, -1.8125]), np.array([0.0, 0.0])))
    def test_certified_idempotent_and_non_expansive(self, instance):
        V, y1, y2 = instance
        m = V.shape[1]

        def floor(y):
            scale = max(1.0, float(np.abs(V).max()), float(np.abs(y).max()))
            return GAP_FLOOR * m * scale * scale

        res = project_onto_hull(y1, V)
        assert res.certified
        assert len(res.weights) <= m + 1
        # The solver's own first-order inequality at the returned point.
        r = y1 - res.point
        gap = float(((V - res.point) @ r).max())
        assert gap <= TOL * float(np.linalg.norm(r)) * math.sqrt(m) \
            + floor(y1)
        # The point lies in the hull, so it is its own exact projection,
        # and a projection with duality gap g lies within sqrt(g) of the
        # exact one; the floor absorbs the gap's rounding.
        again = project_onto_hull(res.point, V)
        moved = again.point - res.point
        assert float(moved @ moved) <= max(again.gap, 0.0) + floor(res.point)
        p2 = project_onto_hull(y2, V).point
        assert np.linalg.norm(res.point - p2) <= \
            np.linalg.norm(y1 - y2) + 1e-9
