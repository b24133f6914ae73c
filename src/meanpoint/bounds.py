"""Sample-complexity bound estimators over a packing profile.

Each theorem-shaped estimator evaluates its closed form with every
absolute constant set to 1 ("constant=1 convention"), using greedy
packing estimates over a geometric scale grid.  The results are
qualitative comparison curves, never certified sample sizes.  Natural
logs throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import Metric, Universe

UPPER_BOUND_THRESHOLD_C = 2.0   # "t >= alpha / C" for the upper bounds
LB_CENTRAL_THRESHOLD = 4.0      # "t >= 4 alpha"
LB_LOCAL_THRESHOLD = 6.0        # "t >= 6 alpha"

T_SQRT_LOG = "t_sqrt_log"
T2_SQRT_LOG = "t2_sqrt_log"
T2_LOG = "t2_log"
T4_LOG = "t4_log"


@dataclass(frozen=True)
class SupTerm:
    value: float
    at_t: float | None


@dataclass
class BoundProfile:
    """Packing estimates on a scale grid plus the four sup terms."""

    metric: Metric
    alpha: float
    threshold: float
    ts: np.ndarray
    packing: np.ndarray
    log_packing: np.ndarray
    sup_terms: dict[str, SupTerm]
    packing_mode: str

    def sup(self, name: str) -> float:
        return self.sup_terms[name].value

    def to_json(self) -> dict:
        return {
            "metric": self.metric.value,
            "alpha": self.alpha,
            "threshold": self.threshold,
            "packing_mode": self.packing_mode,
            "grid": [
                {"t": float(t), "packing": int(p), "log_packing": float(lp)}
                for t, p, lp in zip(self.ts, self.packing, self.log_packing)
            ],
            "sup_terms": {
                name: {"value": term.value, "at_t": term.at_t}
                for name, term in self.sup_terms.items()
            },
        }


def _sup_over_grid(ts: np.ndarray, log_packing: np.ndarray,
                   weight) -> SupTerm:
    best = 0.0
    best_t = None
    for t, lp in zip(ts, log_packing):
        v = weight(float(t), float(lp))
        if v > best:
            best = v
            best_t = float(t)
    return SupTerm(value=best, at_t=best_t)


def bound_profile(u: Universe, metric: Metric, alpha: float,
                  C: float = UPPER_BOUND_THRESHOLD_C,
                  packing_mode: str = "greedy",
                  exact_cap: int = geometry.EXACT_PACKING_CAP,
                  threshold: float | None = None) -> BoundProfile:
    """Evaluate the packing profile on the grid [alpha/C, diameter].

    ``threshold`` overrides the lower grid end (the lower-bound
    estimators pin it at 4*alpha resp. 6*alpha).  Greedy estimates come
    from one nested evaluation, so they are non-increasing in t.  The
    profile is cached on the universe and shared (see ``geometry``).
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if C < 1:
        raise ValueError("C must be at least 1")

    def build() -> BoundProfile:
        t_min = alpha / C if threshold is None else float(threshold)
        t_max = geometry.metric_diameter(u, metric)
        ts = geometry.t_grid(t_min, t_max)
        if ts.size == 0:
            packing = np.array([], dtype=int)
        elif packing_mode == "greedy":
            packing = geometry.packing_profile(u, ts, metric)
        elif packing_mode == "exact":
            packing = np.array([
                geometry.packing_number(u, t, metric, exact_cap=exact_cap)
                for t in ts])
        else:
            raise ValueError(f"unknown packing mode {packing_mode!r}")
        log_packing = np.log(packing) if packing.size else np.array([])
        for a in (ts, packing, log_packing):
            a.setflags(write=False)
        sup_terms = {
            T_SQRT_LOG: _sup_over_grid(ts, log_packing,
                                       lambda t, lp: t * math.sqrt(lp)),
            T2_SQRT_LOG: _sup_over_grid(ts, log_packing,
                                        lambda t, lp: t * t * math.sqrt(lp)),
            T2_LOG: _sup_over_grid(ts, log_packing, lambda t, lp: t * t * lp),
            T4_LOG: _sup_over_grid(ts, log_packing, lambda t, lp: t ** 4 * lp),
        }
        return BoundProfile(metric=metric, alpha=float(alpha),
                            threshold=t_min, ts=ts, packing=packing,
                            log_packing=log_packing, sup_terms=sup_terms,
                            packing_mode=packing_mode)

    key = ("bound_profile", metric, alpha, C, packing_mode, exact_cap,
           threshold)
    return geometry._memo(u, key, build)


# ---------------------------------------------------------------------------
# upper-bound estimators (dataset-size shapes for error alpha)
#
# The rho / epsilon factor is divided out last so power-of-4 rescalings
# of the privacy parameter move the estimate by an exact power of 2.


def ub_coarse(u: Universe, alpha: float, rho: float,
              C: float = UPPER_BOUND_THRESHOLD_C) -> float:
    """Coarse projection: log(1/a)/a^2 * sup t*sqrt(log P) / sqrt(rho)."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    profile = bound_profile(u, Metric.NORMALIZED_L2, alpha, C)
    num = (math.log(1.0 / alpha) / alpha ** 2) * profile.sup(T_SQRT_LOG)
    return num / math.sqrt(rho)


def ub_chain(u: Universe, alpha: float, rho: float,
             C: float = UPPER_BOUND_THRESHOLD_C) -> float:
    """Chaining: log(1/a)^(5/2)/a^2 * sup t^2*sqrt(log P) / sqrt(rho)."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    profile = bound_profile(u, Metric.NORMALIZED_L2, alpha, C)
    num = (math.log(1.0 / alpha) ** 2.5 / alpha ** 2) * profile.sup(T2_SQRT_LOG)
    return num / math.sqrt(rho)


def ub_infty(u: Universe, alpha: float, rho: float,
             C: float = UPPER_BOUND_THRESHOLD_C) -> float:
    """Sup-norm chaining: adds a log(m) factor and uses the sup-norm
    packing profile."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    profile = bound_profile(u, Metric.LINF, alpha, C)
    num = (math.log(u.dim) * math.log(1.0 / alpha) ** 2.5 / alpha ** 2) \
        * profile.sup(T2_SQRT_LOG)
    return num / math.sqrt(rho)


def ub_local_coarse(u: Universe, alpha: float, epsilon: float,
                    C: float = UPPER_BOUND_THRESHOLD_C) -> float:
    """Local coarse projection: log(1/a)^2/a^4 * sup t^2*log P / eps^2."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    profile = bound_profile(u, Metric.NORMALIZED_L2, alpha, C)
    num = (math.log(1.0 / alpha) ** 2 / alpha ** 4) * profile.sup(T2_LOG)
    return num / epsilon ** 2

def ub_local_chain(u: Universe, alpha: float, epsilon: float,
                   C: float = UPPER_BOUND_THRESHOLD_C) -> float:
    """Local chaining: log(1/a)^6/a^4 * sup t^4*log P / eps^2."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    profile = bound_profile(u, Metric.NORMALIZED_L2, alpha, C)
    num = (math.log(1.0 / alpha) ** 6 / alpha ** 4) * profile.sup(T4_LOG)
    return num / epsilon ** 2


# ---------------------------------------------------------------------------
# lower-bound estimators
#
# A greedy separated set is itself a packing witness, so greedy-backed
# lower bounds are sound; exact mode is used automatically for small
# universes and the mode is reported alongside.


def _auto_mode(u: Universe, exact_cap: int) -> str:
    return "exact" if u.size <= exact_cap else "greedy"


def lb_packing(u: Universe, alpha: float, rho: float,
               packing_mode: str | None = None,
               exact_cap: int = geometry.EXACT_PACKING_CAP) -> float:
    """Packing lower bound: sup{t*sqrt(log P): t >= 4a} / (a*sqrt(rho))."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    mode = packing_mode or _auto_mode(u, exact_cap)
    profile = bound_profile(u, Metric.NORMALIZED_L2, alpha, packing_mode=mode,
                            exact_cap=exact_cap,
                            threshold=LB_CENTRAL_THRESHOLD * alpha)
    num = profile.sup(T_SQRT_LOG) / alpha
    return num / math.sqrt(rho)


def lb_local(u: Universe, alpha: float, epsilon: float,
             packing_mode: str | None = None,
             exact_cap: int = geometry.EXACT_PACKING_CAP) -> float:
    """Local lower bound: sup{t^2*log P: t >= 6a} / (a^2 * eps^2)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    mode = packing_mode or _auto_mode(u, exact_cap)
    profile = bound_profile(u, Metric.NORMALIZED_L2, alpha, packing_mode=mode,
                            exact_cap=exact_cap,
                            threshold=LB_LOCAL_THRESHOLD * alpha)
    num = profile.sup(T2_LOG) / alpha ** 2
    return num / epsilon ** 2


def lb_local_delta_cap(u: Universe, alpha: float, epsilon: float) -> float:
    """Largest delta for which the local lower bound applies:
    alpha^2 * eps^3 / log(|X| / eps), constant-1 shape.

    Infinite when the log is nonpositive (tiny universe or large eps),
    meaning the condition does not bind.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    denom = math.log(u.size / epsilon)
    if denom <= 0:
        return math.inf
    return alpha ** 2 * epsilon ** 3 / denom


# ---------------------------------------------------------------------------
# error-bound shapes at a given dataset size


def projection_error_bound(u: Universe, n: int, rho: float,
                           width_samples: int = 100_000,
                           seed: int | None = None) -> float:
    """Average-error bound for the projection mechanism at size n:
    (delta * width / (n * sqrt(2 rho m)))^(1/2) with the width estimated
    by Monte Carlo and delta = max ||x|| / sqrt(m)."""
    if n < 1 or rho <= 0:
        raise ValueError("need n >= 1 and rho > 0")
    m = u.dim
    delta = float(np.linalg.norm(u.points, axis=1).max()) / math.sqrt(m)
    width = geometry.gaussian_mean_width(u, samples=width_samples, seed=seed)
    inner = delta * max(width.value, 0.0) / (n * math.sqrt(2.0 * rho * m))
    return math.sqrt(max(inner, 0.0))


def pmw_error_shape(u: Universe, n: int, rho: float) -> float:
    """Worst-case-error shape for multiplicative weights at size n:
    delta * (log|X|)^(1/4) * (log m)^(1/2) / (rho^(1/4) * sqrt(n)),
    constant-free (calibrate once, then compare scalings)."""
    if n < 1 or rho <= 0:
        raise ValueError("need n >= 1 and rho > 0")
    delta = float(np.abs(u.points).max())
    logm = math.log(max(u.dim, 2))
    return (delta * math.log(max(u.size, 2)) ** 0.25 * math.sqrt(logm)
            / (rho ** 0.25 * math.sqrt(n)))


def bound_report(u: Universe, alpha: float, rho: float | None = None,
                 epsilon: float | None = None,
                 C: float = UPPER_BOUND_THRESHOLD_C) -> dict:
    """All applicable estimates plus convention flags, for reports."""
    out: dict = {
        "constant_convention": 1,
        "log_base": "e",
        "alpha": alpha,
        "C": C,
    }
    if rho is not None:
        out["ub_coarse"] = ub_coarse(u, alpha, rho, C)
        out["ub_chain"] = ub_chain(u, alpha, rho, C)
        out["ub_infty"] = ub_infty(u, alpha, rho, C)
        out["lb_packing"] = lb_packing(u, alpha, rho)
        out["lb_packing_mode"] = _auto_mode(u, geometry.EXACT_PACKING_CAP)
    if epsilon is not None:
        out["ub_local_coarse"] = ub_local_coarse(u, alpha, epsilon, C)
        out["ub_local_chain"] = ub_local_chain(u, alpha, epsilon, C)
        out["lb_local"] = lb_local(u, alpha, epsilon)
        out["lb_local_delta_cap"] = lb_local_delta_cap(u, alpha, epsilon)
        out["lb_local_mode"] = _auto_mode(u, geometry.EXACT_PACKING_CAP)
    return out
