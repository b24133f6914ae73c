"""Sample-complexity bound estimators over a packing profile.

Every estimator has one shape, with every absolute constant set to 1
("constant=1 convention").  An upper bound is log(1/alpha)^a / alpha^b
* sup{t^c (log P(t))^e : t >= alpha / C}, with C fixed at 2
(``UPPER_BOUND_THRESHOLD_C``); a lower bound is sup{t^c (log P(t))^e :
t >= s alpha} / alpha^b, with s = 4 (central) or 6 (local).  Each is
divided last by sqrt(rho) (central, zCDP) or eps^2 (local), so
power-of-4 rescalings of the privacy parameter move it by an exact
power of 2.  ``ESTIMATORS`` holds one row per ``bound_report`` key and
``estimate`` evaluates a row.  P(t) is the greedy packing estimate on a
geometric scale grid; a greedy separated set is a packing witness, so
the lower bounds stay sound, and they use exact packing numbers on
universes of at most ``geometry.EXACT_PACKING_CAP`` points.  The results
are qualitative comparison curves, never certified sample sizes.
Natural logs throughout.  Where a power of alpha underflows to 0, an
estimate returns its limit: inf, or 0 when its sup term is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from .geometry import Norm, Universe

UPPER_BOUND_THRESHOLD_C = 2.0   # "t >= alpha / C" for the upper bounds

# The sup terms t^c * (log P)^e, evaluated on Python floats.
_SUP_WEIGHTS = {
    "t_sqrt_log": lambda t, lp: t * math.sqrt(lp),
    "t2_sqrt_log": lambda t, lp: t * t * math.sqrt(lp),
    "t2_log": lambda t, lp: t * t * lp,
    "t4_log": lambda t, lp: t ** 4 * lp,
}


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


def _packing_mode(u: Universe, threshold: float | None) -> str:
    if threshold is not None and u.size <= geometry.EXACT_PACKING_CAP:
        return "exact"
    return "greedy"


def bound_profile(u: Universe, norm: Norm, alpha: float,
                  threshold: float | None = None) -> BoundProfile:
    """Evaluate the packing profile on the grid [alpha/C, diameter], with
    scales in units of ``norm.unit(m)``.

    A lower bound's ``threshold`` replaces the lower grid end (4*alpha
    resp. 6*alpha); its packing numbers are exact when the universe has
    at most ``geometry.EXACT_PACKING_CAP`` points.  Greedy estimates come
    from one nested evaluation, so they are non-increasing in t.  The
    profile is cached on the universe and shared (see ``geometry``).
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    mode = _packing_mode(u, threshold)

    def build() -> BoundProfile:
        t_min = (alpha / UPPER_BOUND_THRESHOLD_C if threshold is None
                 else float(threshold))
        t_max = geometry.diameter(u, norm) / norm.unit(u.dim)
        ts = geometry.t_grid(t_min, t_max)
        if ts.size == 0:
            packing = np.array([], dtype=int)
        elif mode == "greedy":
            packing = geometry.packing_profile(u, ts, norm)
        else:
            packing = np.array([geometry.packing_number(u, t, norm)
                                for t in ts])
        log_packing = np.log(packing) if packing.size else np.array([])
        for a in (ts, packing, log_packing):
            a.setflags(write=False)
        sup_terms = {name: _sup_over_grid(ts, log_packing, weight)
                     for name, weight in _SUP_WEIGHTS.items()}
        return BoundProfile(norm=norm, alpha=float(alpha),
                            threshold=t_min, ts=ts, packing=packing,
                            log_packing=log_packing, sup_terms=sup_terms,
                            packing_mode=mode)

    key = ("bound_profile", norm, alpha, threshold)
    return geometry._memo(u, key, build)


class Estimator(NamedTuple):
    """One ``bound_report`` key.

    ``privacy`` is the parameter divided out last (``rho`` or
    ``epsilon``).  The sup ``term`` runs over the ``norm`` profile and is
    divided by alpha ** ``alpha_power``.  An upper bound multiplies it by
    log(1/alpha) ** ``log_power``, and by log(m) too when ``log_m``; a
    lower bound starts its grid at ``threshold`` * alpha instead.
    """

    privacy: str
    norm: Norm
    term: str
    alpha_power: int
    log_power: float = 0.0
    log_m: bool = False
    threshold: float | None = None


# In ``bound_report`` key order.
ESTIMATORS = {
    "ub_coarse": Estimator("rho", Norm.L2, "t_sqrt_log", 2, log_power=1),
    "ub_chain": Estimator("rho", Norm.L2, "t2_sqrt_log", 2, log_power=2.5),
    "ub_infty": Estimator("rho", Norm.LINF, "t2_sqrt_log", 2, log_power=2.5,
                          log_m=True),
    "lb_packing": Estimator("rho", Norm.L2, "t_sqrt_log", 1, threshold=4.0),
    "ub_local_coarse": Estimator("epsilon", Norm.L2, "t2_log", 4,
                                 log_power=2),
    "ub_local_chain": Estimator("epsilon", Norm.L2, "t4_log", 4,
                                log_power=6),
    "lb_local": Estimator("epsilon", Norm.L2, "t2_log", 2, threshold=6.0),
}


def _over_alpha_power(num: float, alpha: float, power: int,
                      factor: float) -> float:
    """``num / alpha**power * factor``, or its limit where alpha**power
    underflows to 0: inf, or 0 when ``num`` or ``factor`` is 0."""
    if num == 0.0 or factor == 0.0:
        return 0.0
    scale = alpha ** power
    return num / scale * factor if scale > 0.0 else math.inf


def estimate(name: str, u: Universe, alpha: float, privacy: float) -> float:
    """The ``ESTIMATORS[name]`` estimate at error ``alpha``, where
    ``privacy`` is the row's rho or epsilon."""
    row = ESTIMATORS[name]
    if privacy <= 0:
        raise ValueError(f"{row.privacy} must be positive")
    threshold = None if row.threshold is None else row.threshold * alpha
    sup = bound_profile(u, row.norm, alpha, threshold=threshold).sup(row.term)
    if threshold is None:
        lead = math.log(1.0 / alpha) ** row.log_power
        if row.log_m:
            lead = math.log(u.dim) * lead
        num = _over_alpha_power(lead, alpha, row.alpha_power, sup)
    else:
        num = _over_alpha_power(sup, alpha, row.alpha_power, 1.0)
    return num / (math.sqrt(privacy) if row.privacy == "rho"
                  else privacy ** 2)


def bound_report(u: Universe, alpha: float, rho: float | None = None,
                 epsilon: float | None = None) -> dict:
    """All applicable estimates plus convention flags, for reports.

    ``lb_local_delta_cap`` is the largest delta for which the local lower
    bound applies, alpha^2 * eps^3 / log(|X| / eps) in the constant-1
    shape; it is inf when the log is nonpositive (the condition does not
    bind).  ``lb_*_mode`` names the lower bound's packing numbers.
    """
    out: dict = {
        "constant_convention": 1,
        "log_base": "e",
        "alpha": alpha,
        "C": UPPER_BOUND_THRESHOLD_C,
    }
    given = {"rho": rho, "epsilon": epsilon}
    for name, row in ESTIMATORS.items():
        if given[row.privacy] is None:
            continue
        out[name] = estimate(name, u, alpha, given[row.privacy])
        if name == "lb_local":
            denom = math.log(u.size / epsilon)
            out["lb_local_delta_cap"] = (alpha ** 2 * epsilon ** 3 / denom
                                         if denom > 0 else math.inf)
        if row.threshold is not None:
            out[name + "_mode"] = _packing_mode(u, row.threshold)
    return out
