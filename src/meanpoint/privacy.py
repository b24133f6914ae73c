"""Privacy accounting: zCDP and pure-DP budgets, composition, and
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
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import geometry
from .geometry import Norm, Universe

ZCDP = "zcdp"
PURE = "pure"


def as_fraction(x) -> Fraction:
    """Exact rational from a number, reading floats in decimal form.

    Reading the decimal repr (rather than the binary expansion) keeps
    budget arithmetic like 0.3 + 0.7 == 1.0 exact.  Integers and other
    reals include numpy's scalars, which register with ``numbers``;
    booleans (Python's and numpy's) are refused.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("budget parameters must be numeric")
    if isinstance(x, numbers.Integral):
        return Fraction(int(x))
    if isinstance(x, numbers.Real):
        if not math.isfinite(x):
            raise ValueError("budget parameters must be finite")
        return Fraction(str(x))
    raise TypeError(f"cannot convert {type(x).__name__} to a budget value")


@dataclass(frozen=True)
class PrivacyBudget:
    """A zCDP(rho) or pure-DP(eps) budget."""

    kind: str
    rho: Fraction = Fraction(0)
    epsilon: Fraction = Fraction(0)

    def __post_init__(self):
        if self.kind not in (ZCDP, PURE):
            raise ValueError(f"unknown budget kind {self.kind!r}")
        if self.rho < 0 or self.epsilon < 0:
            raise ValueError("budget parameters must be nonnegative")

    @classmethod
    def zcdp(cls, rho) -> "PrivacyBudget":
        return cls(kind=ZCDP, rho=as_fraction(rho))

    @classmethod
    def pure_dp(cls, epsilon) -> "PrivacyBudget":
        return cls(kind=PURE, epsilon=as_fraction(epsilon))


def compose(budgets: Sequence[PrivacyBudget]) -> PrivacyBudget:
    """Sequential composition: rho adds within zCDP, epsilon within pure
    DP.  Mixing the two families is an error."""
    budgets = list(budgets)
    if not budgets:
        raise ValueError("cannot compose an empty budget list")
    kinds = {b.kind for b in budgets}
    if kinds == {ZCDP}:
        return PrivacyBudget(kind=ZCDP, rho=sum(b.rho for b in budgets))
    if kinds == {PURE}:
        return PrivacyBudget(kind=PURE,
                             epsilon=sum(b.epsilon for b in budgets))
    raise ValueError("cannot compose zCDP with pure-DP budgets")


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
