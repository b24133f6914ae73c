"""Sample-complexity bound estimators over a packing profile.

Each theorem-shaped estimator evaluates its closed form with every
absolute constant set to 1 ("constant=1 convention"), using greedy
packing estimates over a geometric scale grid.  The upper bounds take
their sup over t >= alpha / C with the grid threshold C fixed at 2
(``UPPER_BOUND_THRESHOLD_C``).  The results are qualitative comparison
curves, never certified sample sizes.  Natural logs throughout.  Where
a power of alpha underflows to 0, an estimate returns its limit: inf,
or 0 when its sup term is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import Norm, Universe

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

    norm: Norm
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
            "metric": self.norm.value,
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


def bound_profile(u: Universe, norm: Norm, alpha: float,
                  packing_mode: str = "greedy",
                  threshold: float | None = None) -> BoundProfile:
    """Evaluate the packing profile on the grid [alpha/C, diameter], with
    scales in units of ``norm.unit(m)``.

    ``threshold`` overrides the lower grid end (the lower-bound
    estimators pin it at 4*alpha resp. 6*alpha).  Greedy estimates come
    from one nested evaluation, so they are non-increasing in t.  The
    profile is cached on the universe and shared (see ``geometry``).
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")

    def build() -> BoundProfile:
        t_min = (alpha / UPPER_BOUND_THRESHOLD_C if threshold is None
                 else float(threshold))
        t_max = geometry.diameter(u, norm) / norm.unit(u.dim)
        ts = geometry.t_grid(t_min, t_max)
        if ts.size == 0:
            packing = np.array([], dtype=int)
        elif packing_mode == "greedy":
            packing = geometry.packing_profile(u, ts, norm)
        elif packing_mode == "exact":
            packing = np.array([geometry.packing_number(u, t, norm)
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
        return BoundProfile(norm=norm, alpha=float(alpha),
                            threshold=t_min, ts=ts, packing=packing,
                            log_packing=log_packing, sup_terms=sup_terms,
                            packing_mode=packing_mode)

    key = ("bound_profile", norm, alpha, packing_mode, threshold)
    return geometry._memo(u, key, build)


# ---------------------------------------------------------------------------
# upper-bound estimators (dataset-size shapes for error alpha)
#
# The rho / epsilon factor is divided out last so power-of-4 rescalings
# of the privacy parameter move the estimate by an exact power of 2.


def _over_alpha_power(num: float, alpha: float, power: int,
                      factor: float) -> float:
    """``num / alpha**power * factor``, or its limit where alpha**power
    underflows to 0: inf, or 0 when ``num`` or ``factor`` is 0."""
    if num == 0.0 or factor == 0.0:
        return 0.0
    scale = alpha ** power
    return num / scale * factor if scale > 0.0 else math.inf


def ub_coarse(u: Universe, alpha: float, rho: float) -> float:
    """Coarse projection: log(1/a)/a^2 * sup t*sqrt(log P) / sqrt(rho)."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    profile = bound_profile(u, Norm.L2, alpha)
    num = _over_alpha_power(math.log(1.0 / alpha), alpha, 2,
                            profile.sup(T_SQRT_LOG))
    return num / math.sqrt(rho)


def ub_chain(u: Universe, alpha: float, rho: float) -> float:
    """Chaining: log(1/a)^(5/2)/a^2 * sup t^2*sqrt(log P) / sqrt(rho)."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    profile = bound_profile(u, Norm.L2, alpha)
    num = _over_alpha_power(math.log(1.0 / alpha) ** 2.5, alpha, 2,
                            profile.sup(T2_SQRT_LOG))
    return num / math.sqrt(rho)


def ub_infty(u: Universe, alpha: float, rho: float) -> float:
    """Sup-norm chaining: adds a log(m) factor and uses the sup-norm
    packing profile."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    profile = bound_profile(u, Norm.LINF, alpha)
    num = _over_alpha_power(
        math.log(u.dim) * math.log(1.0 / alpha) ** 2.5, alpha, 2,
        profile.sup(T2_SQRT_LOG))
    return num / math.sqrt(rho)


def ub_local_coarse(u: Universe, alpha: float, epsilon: float) -> float:
    """Local coarse projection: log(1/a)^2/a^4 * sup t^2*log P / eps^2."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    profile = bound_profile(u, Norm.L2, alpha)
    num = _over_alpha_power(math.log(1.0 / alpha) ** 2, alpha, 4,
                            profile.sup(T2_LOG))
    return num / epsilon ** 2


def ub_local_chain(u: Universe, alpha: float, epsilon: float) -> float:
    """Local chaining: log(1/a)^6/a^4 * sup t^4*log P / eps^2."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    profile = bound_profile(u, Norm.L2, alpha)
    num = _over_alpha_power(math.log(1.0 / alpha) ** 6, alpha, 4,
                            profile.sup(T4_LOG))
    return num / epsilon ** 2


# ---------------------------------------------------------------------------
# lower-bound estimators
#
# A greedy separated set is itself a packing witness, so greedy-backed
# lower bounds are sound; exact mode is used automatically for small
# universes and the mode is reported alongside.


def _auto_mode(u: Universe) -> str:
    return "exact" if u.size <= geometry.EXACT_PACKING_CAP else "greedy"


def lb_packing(u: Universe, alpha: float, rho: float) -> float:
    """Packing lower bound: sup{t*sqrt(log P): t >= 4a} / (a*sqrt(rho))."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    profile = bound_profile(u, Norm.L2, alpha,
                            packing_mode=_auto_mode(u),
                            threshold=LB_CENTRAL_THRESHOLD * alpha)
    num = profile.sup(T_SQRT_LOG) / alpha
    return num / math.sqrt(rho)


def lb_local(u: Universe, alpha: float, epsilon: float) -> float:
    """Local lower bound: sup{t^2*log P: t >= 6a} / (a^2 * eps^2)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    profile = bound_profile(u, Norm.L2, alpha,
                            packing_mode=_auto_mode(u),
                            threshold=LB_LOCAL_THRESHOLD * alpha)
    num = _over_alpha_power(profile.sup(T2_LOG), alpha, 2, 1.0)
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


def bound_report(u: Universe, alpha: float, rho: float | None = None,
                 epsilon: float | None = None) -> dict:
    """All applicable estimates plus convention flags, for reports."""
    out: dict = {
        "constant_convention": 1,
        "log_base": "e",
        "alpha": alpha,
        "C": UPPER_BOUND_THRESHOLD_C,
    }
    if rho is not None:
        out["ub_coarse"] = ub_coarse(u, alpha, rho)
        out["ub_chain"] = ub_chain(u, alpha, rho)
        out["ub_infty"] = ub_infty(u, alpha, rho)
        out["lb_packing"] = lb_packing(u, alpha, rho)
        out["lb_packing_mode"] = _auto_mode(u)
    if epsilon is not None:
        out["ub_local_coarse"] = ub_local_coarse(u, alpha, epsilon)
        out["ub_local_chain"] = ub_local_chain(u, alpha, epsilon)
        out["lb_local"] = lb_local(u, alpha, epsilon)
        out["lb_local_delta_cap"] = lb_local_delta_cap(u, alpha, epsilon)
        out["lb_local_mode"] = _auto_mode(u)
    return out
