"""Local-model protocols: the signed-Gaussian point release and the one
protocol over public levels, ``LevelProtocol``, that LPM, LCPM and LCM are.

A level is a public matrix and every party holds one row of each level:
its own point (projection, one level) or its components of a public
decomposition -- the coarse-cover centre its point rounds to (coarse
projection, the one-level coarse decomposition) or its halving-scale
summands (chaining, k levels).  Each party releases
its row of every level through the signed-Gaussian channel with
epsilon/k, spending epsilon in total by pure-DP composition.  The server
projects each level's mean release onto that level's hull and sums.

The protocol is non-interactive: each party derives one message from its
own input and the server aggregates the transcript.  Per-party privacy
holds by construction: the only input-dependent randomness is a pair of
signs, and the released sign's conditional bias is eps/3, giving a
density ratio of (1 + eps/3) / (1 - eps/3) <= e^eps between any two
inputs.  A transcript is NDJSON, one ``{"party": i, "payload": [...]}``
line per party; every payload is one vector per level, in level order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry, hull
from .central import Dataset, MechanismOutput, as_seed_sequence
from .geometry import Norm
from .privacy import PrivacyBudget, as_fraction

# The sign channel's bias is eps/3 and must stay at most 1/2.
EPSILON_BIAS_LIMIT = 1.5

# E[Z * sign(<Z, u>)] = sqrt(2/pi) * u for a standard Gaussian Z and unit
# u, so dividing the release by (eps/3) * sqrt(2/pi) makes it exactly
# unbiased on the unit ball.
_SIGNED_GAUSSIAN_MEAN = math.sqrt(2.0 / math.pi)


def _release_coefficient(epsilon: float) -> float:
    return 3.0 / (epsilon * _SIGNED_GAUSSIAN_MEAN)


class ProtocolError(ValueError):
    """Malformed protocol configuration or party inputs."""


@dataclass
class LocalMessage:
    """One party's single message: one released vector per level."""

    party_id: int
    payload: list[np.ndarray]

    def to_json(self) -> dict:
        return {"party": self.party_id,
                "payload": [np.asarray(v).tolist() for v in self.payload]}


@dataclass
class LocalReleaseParams:
    """Release configuration: per-party epsilon and the input ball radius."""

    epsilon: float
    scale: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        if self.epsilon > EPSILON_BIAS_LIMIT:
            raise ValueError(
                f"epsilon {self.epsilon} exceeds {EPSILON_BIAS_LIMIT}; the "
                "sign bias would leave [0, 1/2]")


def local_release(x: np.ndarray, params: LocalReleaseParams,
                  seed=None) -> np.ndarray:
    """One party's unbiased, eps-DP release of her point.

    The input must lie in the ball of radius ``params.scale``; it is
    rescaled to the unit ball, released as a signed Gaussian direction
    whose sign carries an eps/3 bias toward the input, and scaled back.
    The output has mean x and norm on the order of scale/eps.
    """
    rng = seed if isinstance(seed, np.random.Generator) else \
        np.random.default_rng(seed)
    x = np.asarray(x, dtype=float).reshape(-1)
    v = x / params.scale
    r = float(np.linalg.norm(v))
    if r > 1.0 + 1e-9:
        raise ValueError(f"input norm {r * params.scale:.6g} exceeds the "
                         f"release scale {params.scale:.6g}")
    r = min(r, 1.0)
    if r == 0.0:
        # The unit direction is undefined at the origin; use a fixed
        # axis with a fair sign, which keeps the mean at zero and
        # leaves the sign channel untouched.
        unit = np.zeros(x.shape[0])
        unit[0] = 1.0
        p_plus = 0.5
    else:
        unit = v / r
        p_plus = (1.0 + r) / 2.0
    u_sign = 1.0 if rng.random() < p_plus else -1.0
    z = rng.standard_normal(x.shape[0])
    bias = (params.epsilon / 3.0) * np.sign(z @ unit) * u_sign
    s = 1.0 if rng.random() < (1.0 + bias) / 2.0 else -1.0
    return _release_coefficient(params.epsilon) * params.scale * z * s


# ---------------------------------------------------------------------------
# the protocol over public levels


def _release_scale(points: np.ndarray) -> float:
    s = float(np.linalg.norm(points, axis=1).max())
    return s if s > 0 else 1.0


@dataclass(eq=False)
class LevelProtocol:
    """``levels[j]`` is level j's public matrix, ``rows[i, j]`` party i's
    row in it, and ``facts`` the public facts its trace reports."""

    levels: list[np.ndarray]
    rows: np.ndarray
    epsilon: object
    facts: dict = field(default_factory=dict)

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=int)
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.levels) \
                or len(self.rows) < 1:
            raise ProtocolError("need one row per level for each party")
        part = float(as_fraction(self.epsilon) / len(self.levels))
        self.params = [LocalReleaseParams(part, _release_scale(lvl))
                       for lvl in self.levels]

    def party(self, i: int, rng: np.random.Generator) -> list[np.ndarray]:
        """Party i's message: its row of every level, in level order."""
        return [local_release(lvl[r], p, rng)
                for lvl, r, p in zip(self.levels, self.rows[i], self.params)]

    def server(self, payloads: list[list[np.ndarray]]) -> tuple:
        """The sum over levels of each level mean's projection onto that
        level's hull, and the trace with one certificate per level."""
        estimate = np.zeros(self.levels[0].shape[1])
        certificates = []
        for j, lvl in enumerate(self.levels):
            mean = np.mean(np.asarray([p[j] for p in payloads]), axis=0)
            proj = hull.project_onto_hull(mean, lvl)
            certificates.append({"projection_iterations": proj.iterations,
                                 "projection_gap": proj.gap,
                                 "projection_certified": proj.certified})
            estimate = estimate + proj.point
        return estimate, {**self.facts, "n_parties": len(payloads),
                          "per_party": True, "levels": certificates}


def simulate_protocol(protocol: LevelProtocol,
                      seed=None) -> tuple[list[LocalMessage], tuple]:
    """One message per party, then the server.  Party i draws from child
    i of the run seed, so transcripts replay bit-identically and parties
    could run concurrently.  The transcript is what privacy protects."""
    children = as_seed_sequence(seed).spawn(len(protocol.rows))
    transcript = [
        LocalMessage(party_id=i,
                     payload=protocol.party(i, np.random.default_rng(child)))
        for i, child in enumerate(children)]
    return transcript, protocol.server([msg.payload for msg in transcript])


def run_protocol(protocol: LevelProtocol, seed=None) -> MechanismOutput:
    """Run ``protocol``; each party spends pure-DP epsilon in total."""
    _, (estimate, trace) = simulate_protocol(protocol, seed)
    budget = PrivacyBudget.pure_dp(protocol.epsilon)
    return MechanismOutput(estimate=estimate, budget_consumed=budget,
                           trace=trace, seed=seed)


def read_transcript(path) -> list[LocalMessage]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            out.append(LocalMessage(
                party_id=int(obj["party"]),
                payload=[np.asarray(v, dtype=float) for v in obj["payload"]]))
    return out


def projection_protocol(d: Dataset, epsilon) -> LevelProtocol:
    """LPM: every party releases its own point with the full epsilon and
    the server projects the average onto the universe's hull."""
    return LevelProtocol([d.universe.points], d.indices[:, None], epsilon,
                         {"mechanism": "local_projection"})


def _decomposition_protocol(d: Dataset, epsilon, dec: geometry.Decomposition,
                            mechanism: str) -> LevelProtocol:
    return LevelProtocol(dec.levels, dec.assignments[d.indices], epsilon,
                         {"mechanism": mechanism, "alpha": dec.alpha,
                          "k": dec.k, "remainder_radius": dec.remainder_radius})


def coarse_protocol(d: Dataset, epsilon, alpha: float) -> LevelProtocol:
    """LCPM: the one level of ``geometry.coarse_decomposition``, each
    party holding the coarse-cover centre its point rounds to."""
    return _decomposition_protocol(
        d, epsilon, geometry.coarse_decomposition(d.universe, alpha),
        "local_coarse_projection")


def chaining_protocol(d: Dataset, epsilon, alpha: float) -> LevelProtocol:
    """LCM: the levels of the public chaining decomposition, each party
    holding its own level components and spending epsilon/k on each."""
    return _decomposition_protocol(
        d, epsilon, geometry.chaining_decomposition(d.universe, alpha, Norm.L2),
        "local_chaining")
