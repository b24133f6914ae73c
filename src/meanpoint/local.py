"""Local-model protocols: the signed-Gaussian point release, the local
projection protocol, and its coarse / chaining refinements, plus a
simulated party/server message-passing harness.

All three protocols are non-interactive: each party derives a single
message from her own input (the party-to-party channel stays empty) and
the server aggregates the transcript.  Per-party privacy holds by
construction: the only input-dependent randomness is a pair of signs,
and the released sign's conditional bias is eps/3, giving a density
ratio of (1 + eps/3) / (1 - eps/3) <= e^eps between any two inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from . import geometry, hull, privacy
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
    """One party's single message: a vector, or one vector per level."""

    party_id: int
    payload: Any

    def to_json(self) -> dict:
        if isinstance(self.payload, list):
            body = [np.asarray(v).tolist() for v in self.payload]
        else:
            body = np.asarray(self.payload).tolist()
        return {"party": self.party_id, "payload": body}


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
# protocol harness


@dataclass
class LocalProtocolSpec:
    """A non-interactive protocol: a per-party algorithm and a server.

    The sequential model's party-to-party channel is intentionally
    absent; each party sees only her own input and randomness.  The
    protocols below have the server return ``(estimate, trace)``.
    """

    party: Callable[[Any, np.random.Generator], Any]
    server: Callable[[list[Any]], Any]


def simulate_protocol(parties: Sequence[Any], protocol: LocalProtocolSpec,
                      seed=None) -> tuple[list[LocalMessage], Any]:
    """Execute a protocol: one message per party, then the server.

    Party randomness comes from independent child streams of the run
    seed, so transcripts replay bit-identically and parties could run
    concurrently.  The transcript is exactly what the privacy analysis
    protects.
    """
    if not isinstance(protocol, LocalProtocolSpec):
        raise ProtocolError("protocol must be a LocalProtocolSpec")
    n = len(parties)
    if n < 1:
        raise ProtocolError("need at least one party")
    children = as_seed_sequence(seed).spawn(n)
    transcript = []
    for i, x in enumerate(parties):
        rng = np.random.default_rng(children[i])
        transcript.append(LocalMessage(party_id=i, payload=protocol.party(x, rng)))
    output = protocol.server([msg.payload for msg in transcript])
    return transcript, output


def read_transcript(path) -> list[LocalMessage]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            payload = obj["payload"]
            if payload and isinstance(payload[0], list):
                payload = [np.asarray(v, dtype=float) for v in payload]
            else:
                payload = np.asarray(payload, dtype=float)
            out.append(LocalMessage(party_id=int(obj["party"]), payload=payload))
    return out


# ---------------------------------------------------------------------------
# the three protocols


def _release_scale(points: np.ndarray) -> float:
    s = float(np.linalg.norm(points, axis=1).max())
    return s if s > 0 else 1.0


def _certificate(proj: hull.ProjectionResult) -> dict:
    return {"projection_iterations": proj.iterations,
            "projection_gap": proj.gap,
            "projection_certified": proj.certified}


def _release(setup: tuple[list, LocalProtocolSpec], epsilon,
             seed) -> MechanismOutput:
    parties, protocol = setup
    _, (estimate, trace) = simulate_protocol(parties, protocol, seed=seed)
    return MechanismOutput(estimate=estimate,
                           budget_consumed=PrivacyBudget.pure_dp(epsilon),
                           trace=trace, seed=seed)


def projection_protocol(d: Dataset, epsilon) -> tuple[list, LocalProtocolSpec]:
    """Parties and protocol of the local projection protocol on ``d``.

    Every party releases her point through the signed-Gaussian channel
    with the full epsilon; the server averages the n messages and
    projects the average onto the hull of the (public) universe.
    """
    pts = d.universe.points
    params = LocalReleaseParams(epsilon=float(as_fraction(epsilon)),
                                scale=_release_scale(pts))

    def party(x, rng):
        return local_release(x, params, rng)

    def server(payloads):
        server_mean = np.mean(np.asarray(payloads, dtype=float), axis=0)
        proj = hull.project_onto_hull(server_mean, pts)
        return proj.point, {"mechanism": "local_projection",
                            "n_parties": len(payloads),
                            "scale": params.scale,
                            "per_party": True,
                            "server_mean": server_mean,
                            **_certificate(proj)}

    return [pts[i] for i in d.indices], LocalProtocolSpec(party, server)


def coarse_protocol(d: Dataset, epsilon,
                    alpha: float) -> tuple[list, LocalProtocolSpec]:
    """Each party rounds her own point to a public coarse cover, then the
    local projection protocol runs over the cover with the full budget."""
    centers, rounding = geometry.coarse_rounding(d.universe, alpha)
    return projection_protocol(
        Dataset(universe=centers, indices=rounding[d.indices]), epsilon)


def chaining_protocol(d: Dataset, epsilon,
                      alpha: float) -> tuple[list, LocalProtocolSpec]:
    """Chaining in the local model: one release per level per party.

    The decomposition is public, so each party can split her own point
    into level components and release each through the signed-Gaussian
    channel with budget epsilon/k (pure-DP composition across levels).
    The server solves each level by averaging and projecting onto that
    level's hull, then sums.  Still non-interactive: the k releases
    travel in one message.
    """
    u = d.universe
    dec = geometry.chaining_decomposition(u, alpha, Norm.L2)
    params = [LocalReleaseParams(epsilon=float(part),
                                 scale=_release_scale(lvl))
              for part, lvl in zip(
                  privacy.split_budget(as_fraction(epsilon), dec.k),
                  dec.levels)]

    def party(comps, rng):
        return [local_release(x, p, rng) for x, p in zip(comps, params)]

    def server(payloads):
        total = np.zeros(u.dim)
        levels = []
        for j, lvl in enumerate(dec.levels):
            level_mean = np.mean(np.asarray([p[j] for p in payloads]), axis=0)
            proj = hull.project_onto_hull(level_mean, lvl)
            levels.append(_certificate(proj))
            total = total + proj.point
        return total, {"mechanism": "local_chaining",
                       "alpha": float(alpha),
                       "k": dec.k,
                       "n_parties": len(payloads),
                       "per_party": True,
                       "remainder_radius": dec.remainder_radius,
                       "levels": levels}

    parties = [[lvl[a] for lvl, a in zip(dec.levels, dec.assignments[i])]
               for i in d.indices]
    return parties, LocalProtocolSpec(party, server)


def local_projection_protocol(d: Dataset, epsilon, seed=None) -> MechanismOutput:
    """Run ``projection_protocol``; each party spends pure-DP epsilon."""
    return _release(projection_protocol(d, epsilon), epsilon, seed)


def local_coarse_projection(d: Dataset, epsilon, alpha: float,
                            seed=None) -> MechanismOutput:
    """Run ``coarse_protocol``; each party spends pure-DP epsilon."""
    out = _release(coarse_protocol(d, epsilon, alpha), epsilon, seed)
    centers, _ = geometry.coarse_rounding(d.universe, alpha)
    out.trace.update(mechanism="local_coarse_projection",
                     alpha=float(alpha), cover_size=centers.size)
    return out


def local_chaining(d: Dataset, epsilon, alpha: float, seed=None) -> MechanismOutput:
    """Run ``chaining_protocol``; each party spends pure-DP epsilon in
    total, epsilon/k per level."""
    return _release(chaining_protocol(d, epsilon, alpha), epsilon, seed)
