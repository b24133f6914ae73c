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
import os
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from . import geometry, hull, privacy
from .central import Dataset, MechanismOutput, as_seed_sequence
from .geometry import Norm, Universe
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
    allow_large_epsilon: bool = False

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        if self.epsilon > EPSILON_BIAS_LIMIT:
            if not self.allow_large_epsilon:
                raise ValueError(
                    f"epsilon {self.epsilon} exceeds {EPSILON_BIAS_LIMIT}; the "
                    "sign bias would leave [0, 1/2] (pass allow_large_epsilon "
                    "to override)")
            warnings.warn("epsilon beyond the bias-validity range; the "
                          "density-ratio guarantee degrades", RuntimeWarning)

    @property
    def magnitude(self) -> float:
        """Norm scale of one released message."""
        return _release_coefficient(self.epsilon) * self.scale


def _release_batch(x: np.ndarray, params: LocalReleaseParams, size: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Vectorized draws of the point release (rows are iid samples)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    m = x.shape[0]
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
        unit = np.zeros(m)
        unit[0] = 1.0
        p_plus = 0.5
    else:
        unit = v / r
        p_plus = (1.0 + r) / 2.0
    u_signs = np.where(rng.random(size) < p_plus, 1.0, -1.0)
    z = rng.standard_normal((size, m))
    align = np.sign(z @ unit) * u_signs
    bias = (params.epsilon / 3.0) * align
    s = np.where(rng.random(size) < (1.0 + bias) / 2.0, 1.0, -1.0)
    coeff = _release_coefficient(params.epsilon) * params.scale
    return coeff * z * s[:, None]


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
    return _release_batch(x, params, 1, rng)[0]


def local_release_many(x: np.ndarray, params: LocalReleaseParams,
                       size: int, seed=None) -> np.ndarray:
    """Matrix of iid point releases, for Monte-Carlo checks."""
    rng = seed if isinstance(seed, np.random.Generator) else \
        np.random.default_rng(seed)
    return _release_batch(x, params, size, rng)


def release_density_ratio(epsilon: float) -> float:
    """Worst-case density ratio of the sign channel across two inputs."""
    if not 0 < epsilon <= EPSILON_BIAS_LIMIT:
        raise ValueError("epsilon must lie in (0, 1.5]")
    bias = epsilon / 3.0
    return (1.0 + bias) / (1.0 - bias)


# ---------------------------------------------------------------------------
# protocol harness


@dataclass
class LocalProtocolSpec:
    """A non-interactive protocol: a per-party algorithm and a server.

    The sequential model's party-to-party channel is intentionally
    absent; each party sees only her own input and randomness.
    """

    name: str
    party: Callable[[Any, np.random.Generator], Any]
    server: Callable[[list[Any]], np.ndarray]


def simulate_protocol(parties: Sequence[Any], protocol: LocalProtocolSpec,
                      seed=None) -> tuple[list[LocalMessage], np.ndarray]:
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


def write_transcript(path, transcript: Sequence[LocalMessage]) -> None:
    """Newline-delimited JSON, one message per line, for audit replay."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for msg in transcript:
            fh.write(json.dumps(msg.to_json()) + "\n")
    os.replace(tmp, path)


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


def make_local_projection_spec(u: Universe, epsilon: float,
                               allow_large_epsilon: bool = False) -> LocalProtocolSpec:
    params = LocalReleaseParams(epsilon=float(epsilon),
                                scale=_release_scale(u.points),
                                allow_large_epsilon=allow_large_epsilon)

    def party(x, rng):
        return local_release(x, params, rng)

    def server(payloads):
        return np.mean(np.asarray(payloads, dtype=float), axis=0)

    return LocalProtocolSpec(name="lpm", party=party, server=server)


def local_projection_protocol(d: Dataset, epsilon, seed=None,
                              allow_large_epsilon: bool = False) -> MechanismOutput:
    """Non-interactive local analogue of the projection mechanism.

    Every party releases her point through the signed-Gaussian channel;
    the server averages the n messages and projects the average onto the
    hull of the (public) universe.  Each party spends pure-DP epsilon.
    """
    eps_fr = as_fraction(epsilon)
    if eps_fr <= 0:
        raise ValueError("epsilon must be positive")
    u = d.universe
    spec = make_local_projection_spec(u, float(eps_fr), allow_large_epsilon)
    transcript, server_mean = simulate_protocol(
        [u.points[i] for i in d.indices], spec, seed=seed)
    proj = hull.project_onto_hull(server_mean, u.points)
    trace = {
        "mechanism": "local_projection",
        "n_parties": len(transcript),
        "scale": _release_scale(u.points),
        "per_party": True,
        "server_mean": server_mean,
        "projection_iterations": proj.iterations,
        "projection_gap": proj.gap,
        "projection_certified": proj.certified,
    }
    return MechanismOutput(estimate=proj.point,
                           budget_consumed=PrivacyBudget.pure_dp(eps_fr),
                           trace=trace, seed=seed)


def local_coarse_projection(d: Dataset, epsilon, alpha: float,
                            seed=None) -> MechanismOutput:
    """Each party rounds her own point to a public coarse cover, then the
    local projection protocol runs over the cover with the full budget."""
    centers, rounding = geometry.coarse_rounding(d.universe, alpha)
    rounded = Dataset(universe=centers, indices=rounding[d.indices])
    out = local_projection_protocol(rounded, epsilon, seed=seed)
    trace = dict(out.trace)
    trace.update({
        "mechanism": "local_coarse_projection",
        "alpha": float(alpha),
        "cover_size": centers.size,
    })
    return MechanismOutput(estimate=out.estimate,
                           budget_consumed=out.budget_consumed,
                           trace=trace, seed=seed)


def local_chaining(d: Dataset, epsilon, alpha: float, seed=None) -> MechanismOutput:
    """Chaining in the local model: one release per level per party.

    The decomposition is public, so each party can split her own point
    into level components and release each through the signed-Gaussian
    channel with budget epsilon/k (pure-DP composition across levels).
    The server solves each level by averaging and projecting onto that
    level's hull, then sums.  Still non-interactive: the k releases
    travel in one message.
    """
    eps_fr = as_fraction(epsilon)
    if eps_fr <= 0:
        raise ValueError("epsilon must be positive")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    u = d.universe
    dec = geometry.chaining_decomposition(u, alpha, Norm.L2,
                                          delta_cap=math.sqrt(u.dim))
    parts = privacy.split_budget(eps_fr, dec.k)
    level_params = [
        LocalReleaseParams(epsilon=float(parts[j]),
                           scale=_release_scale(dec.levels[j]))
        for j in range(dec.k)
    ]
    components = [
        [dec.levels[j][dec.assignments[i, j]] for j in range(dec.k)]
        for i in d.indices
    ]

    def party(comps, rng):
        return [local_release(comps[j], level_params[j], rng)
                for j in range(dec.k)]

    projections = []

    def server(payloads):
        total = np.zeros(u.dim)
        for j in range(dec.k):
            level_mean = np.mean(np.asarray([p[j] for p in payloads]), axis=0)
            proj = hull.project_onto_hull(level_mean, dec.levels[j])
            projections.append(proj)
            total = total + proj.point
        return total

    spec = LocalProtocolSpec(name="lcm", party=party, server=server)
    transcript, estimate = simulate_protocol(components, spec, seed=seed)
    per_party = privacy.compose([PrivacyBudget.pure_dp(p) for p in parts])
    trace = {
        "mechanism": "local_chaining",
        "alpha": float(alpha),
        "k": dec.k,
        "n_parties": len(transcript),
        "per_party": True,
        "remainder_radius": dec.remainder_radius,
        "levels": [{"projection_iterations": p.iterations,
                    "projection_gap": p.gap,
                    "projection_certified": p.certified}
                   for p in projections],
    }
    return MechanismOutput(estimate=estimate, budget_consumed=per_party,
                           trace=trace, seed=seed)
