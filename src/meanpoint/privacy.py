"""Privacy accounting: zCDP and (eps, delta) budgets, composition, and
Gaussian calibration for mean release.

Budget parameters are held as exact rationals (parsed from the decimal
form of their inputs), so a mechanism's shares of its budget are exact
and recompose to the request with exact equality; floats are derived
only where noise scales are needed.  Each mechanism calibrates every
Gaussian scale once, from the exact share it spends, and reports the
sum of those shares as its ``budget_consumed``; ``compose`` adds the
per-level budgets of a decomposition.  The guarantees are those of that
calibrated noise plus zCDP (or pure-DP) composition, with one stated
caveat: noise is drawn by floating-point Gaussian sampling, which is
not exactly differentially private (Mironov, CCS 2012), since the set
of representable outputs can depend on the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import geometry
from .geometry import Norm, Universe

ZCDP = "zcdp"
PURE = "pure"
APPROX = "approx"


def as_fraction(x) -> Fraction:
    """Exact rational from a number, reading floats in decimal form.

    Reading the decimal repr (rather than the binary expansion) keeps
    budget arithmetic like 0.3 + 0.7 == 1.0 exact.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("budget parameters must be numeric")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("budget parameters must be finite")
        return Fraction(str(x))
    raise TypeError(f"cannot convert {type(x).__name__} to a budget value")


@dataclass(frozen=True)
class PrivacyBudget:
    """A zCDP(rho), pure-DP(eps), or approximate-DP(eps, delta) budget."""

    kind: str
    rho: Fraction = Fraction(0)
    epsilon: Fraction = Fraction(0)
    delta: Fraction = Fraction(0)

    def __post_init__(self):
        if self.kind not in (ZCDP, PURE, APPROX):
            raise ValueError(f"unknown budget kind {self.kind!r}")
        if self.rho < 0 or self.epsilon < 0 or self.delta < 0:
            raise ValueError("budget parameters must be nonnegative")
        if self.delta >= 1:
            raise ValueError("delta must be below 1")

    @classmethod
    def zcdp(cls, rho) -> "PrivacyBudget":
        return cls(kind=ZCDP, rho=as_fraction(rho))

    @classmethod
    def pure_dp(cls, epsilon) -> "PrivacyBudget":
        return cls(kind=PURE, epsilon=as_fraction(epsilon))

    @classmethod
    def approx_dp(cls, epsilon, delta) -> "PrivacyBudget":
        return cls(kind=APPROX, epsilon=as_fraction(epsilon),
                   delta=as_fraction(delta))

    def to_json(self) -> dict:
        if self.kind == ZCDP:
            return {"kind": "zcdp", "rho": float(self.rho)}
        return {"kind": "ldp", "epsilon": float(self.epsilon),
                "delta": float(self.delta)}

    @classmethod
    def from_json(cls, obj: dict) -> "PrivacyBudget":
        kind = obj.get("kind")
        if kind == "zcdp":
            return cls.zcdp(obj["rho"])
        if kind == "ldp":
            delta = obj.get("delta", 0)
            if as_fraction(delta) == 0:
                return cls.pure_dp(obj["epsilon"])
            return cls.approx_dp(obj["epsilon"], delta)
        raise ValueError(f"unknown budget kind {kind!r}")


def compose(budgets: Sequence[PrivacyBudget]) -> PrivacyBudget:
    """Sequential composition: rho adds within zCDP, (eps, delta) add
    within the DP family.  Mixing the two families is an error."""
    budgets = list(budgets)
    if not budgets:
        raise ValueError("cannot compose an empty budget list")
    kinds = {b.kind for b in budgets}
    if ZCDP in kinds:
        if kinds != {ZCDP}:
            raise ValueError("cannot compose zCDP with (eps, delta) budgets")
        return PrivacyBudget(kind=ZCDP, rho=sum(b.rho for b in budgets))
    eps = sum(b.epsilon for b in budgets)
    delta = sum(b.delta for b in budgets)
    if delta == 0 and kinds == {PURE}:
        return PrivacyBudget(kind=PURE, epsilon=eps)
    return PrivacyBudget(kind=APPROX, epsilon=eps, delta=delta)


def zcdp_to_approx_dp(rho, delta: float) -> float:
    """(eps, delta) guarantee implied by rho-zCDP: rho + 2*sqrt(rho*ln(1/delta))."""
    rho = float(as_fraction(rho))
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def mean_sensitivity(u: Universe, n: int) -> float:
    """Exact L2 sensitivity of the dataset mean under one replacement.

    Replacing a single element moves the mean by at most one universe
    diameter over n.
    """
    if n < 1:
        raise ValueError("dataset size must be at least 1")
    return geometry.diameter(u, Norm.L2) / n


def gaussian_sigma_for_zcdp(sensitivity: float, rho) -> float:
    """Per-coordinate Gaussian scale: sensitivity / sqrt(2 * rho)."""
    rho = float(as_fraction(rho))
    if rho <= 0:
        raise ValueError("rho must be positive")
    if sensitivity < 0:
        raise ValueError("sensitivity must be nonnegative")
    return sensitivity / math.sqrt(2.0 * rho)
