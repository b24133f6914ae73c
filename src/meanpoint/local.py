"""Local-model protocols: the signed-Gaussian point release and the one
protocol over public levels, ``LevelProtocol``, that LPM, LCPM and LCM are.

A level is a public matrix and every party holds one row of each level:
its own point (projection), the coarse-cover centre its point rounds to
(coarse projection) or its halving-scale chaining summands: the public
split of the protocol's ``harness.MECHANISMS`` row.  Each party releases
its row of every level through the signed-Gaussian channel with
epsilon/k, spending epsilon in total by pure-DP composition.  The server
projects each level's mean release onto that level's hull and sums.

The channel runs in blocks of parties, and within a block it draws,
then decides.  Party i only draws, from its own generator on child i of
the run seed: per level one uniform, m normals into its row of the
block's (k, b, m) buffer, and one uniform.  A uniform is drawn as the
raw 64-bit word under it, and a block's words become coins in one pass,
``(word >> 11) * 2**-53``: for PCG64 that is the float
``Generator.random()`` makes of the word.  The library computes
``SeedSequence.spawn``'s child states in vectorised chunks of parties.
The rest is public given a party's row, so each level tables its rows
once, with its release scale (its largest row norm), decides the
block's signs from the dot a lone party's channel takes, and scales the
block in place.  Each level then adds the block into a running-sum row,
so a release holds one block of messages, not all n; the server divides
the level sums by n.
Privacy holds per party: only a pair of signs depends on the input, and
the released sign's bias of eps/3 gives a density ratio of at most
(1 + eps/3) / (1 - eps/3) <= e^eps between inputs.  A transcript is
NDJSON, one ``{"party": i, "payload": [...]}`` line per party, which a
sink on ``simulate_protocol`` can write block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import geometry, hull
from .central import MechanismOutput, as_seed_sequence
from .privacy import PrivacyBudget, as_fraction

# The sign channel's bias is eps/3 and must stay at most 1/2.
EPSILON_BIAS_LIMIT = 1.5

# E[Z * sign(<Z, u>)] = sqrt(2/pi) * u for a standard Gaussian Z and unit
# u, so dividing the release by (eps/3) * sqrt(2/pi) makes it exactly
# unbiased on the unit ball.
_SIGNED_GAUSSIAN_MEAN = math.sqrt(2.0 / math.pi)

# numpy's SeedSequence hashing constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


def _uint32_words(x) -> list:
    """SeedSequence's uint32 words of an entropy or spawn key: an int
    little-endian, 0 as one word; a sequence each element's in turn."""
    if isinstance(x, (int, np.integer)):
        x, words = int(x), []
        while True:
            words.append(x & _MASK32)
            x >>= 32
            if not x:
                return words
    return [w for v in x for w in _uint32_words(v)]


def _hasher(const: int, mult: int):
    """SeedSequence's ``hashmix`` over uint32 arrays: each call xors with
    the running constant, advances it, multiplies and folds."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of pool words ``x`` with hashed words ``y``."""
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> np.uint32(16))


class _Words(ISeedSequence):
    """Hands PCG64, which asks for ``generate_state(4, np.uint64)``, one
    party's four precomputed words."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _child_states(shared: list, index: np.ndarray) -> np.ndarray:
    """The four uint64 PCG64 state words of child i for each i in
    ``index``: SeedSequence hashes the shared words (one-element
    arrays) and then i, and ``generate_state(4, uint64)`` reads the
    pool.  Every step is broadcast over the uint32 array ``index``."""
    entropy = [*shared, index]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(w))
    hashmix = _hasher(_INIT_B, _MULT_B)
    words = np.stack([hashmix(pool[t % _POOL_SIZE]) for t in range(8)],
                     axis=1)
    return words.astype("<u4").view("<u8").astype(np.uint64)


def _refuse_parties(n: int) -> None:
    """Party i's spawn key is i as one uint32 word, so n must be below 2**32."""
    if n >= 2 ** 32:
        raise ValueError(f"{n} parties do not fit one uint32 spawn-key word")


def _refuse_epsilon(epsilon, k: int = 1) -> float:
    """Each of k levels' epsilon / k, as the float of the exact quotient;
    refused when the sign bias, a third of it, would leave [0, 1/2]."""
    part = float(as_fraction(epsilon) / k)
    if not 0 < part <= EPSILON_BIAS_LIMIT:
        raise ValueError(f"epsilon {part} is not in (0, "
                         f"{EPSILON_BIAS_LIMIT}]; the sign bias would "
                         "leave [0, 1/2]")
    return part


def _party_generators(seed, n: int):
    """Party i's generator for i < n, drawing exactly as ``default_rng``
    of child i of ``as_seed_sequence(seed).spawn(n)``, made lazily.

    Child i's entropy is the run entropy's words, zero-padded to the
    pool size, the spawn key's words and i.  Only i differs between
    children, so ``_child_states`` hashes the children in chunks of
    ``BLOCK_ENTRIES // 4`` indices, each when the first of its
    generators is asked for: child i's words depend on i alone."""
    _refuse_parties(n)
    parent = as_seed_sequence(seed)
    run = _uint32_words(parent.entropy)
    run += [0] * (_POOL_SIZE - len(run))
    shared = [np.array([w], dtype=np.uint32)
              for w in run + _uint32_words(parent.spawn_key)]
    chunk = max(1, geometry.BLOCK_ENTRIES // 4)
    return (np.random.Generator(np.random.PCG64(_Words(row)))
            for start in range(0, n, chunk)
            for row in _child_states(shared, np.arange(
                start, min(n, start + chunk), dtype=np.uint32)))


def _dots(a: np.ndarray, b: np.ndarray, rows) -> np.ndarray:
    """``a[i] @ b[rows[i]]`` for every i, in blocks of ``BLOCK_ENTRIES //
    m`` rows.  matmul hands each vector-by-vector product to the ``dot``
    a 1-d ``@`` calls, so with contiguous rows, as ``a``'s and the
    gathered rows of ``b`` are, each is that float; a strided operand
    takes another BLAS path, whose sums can differ in the last bit."""
    out = np.empty(len(a))
    block = max(1, geometry.BLOCK_ENTRIES // b.shape[1])
    for i0 in range(0, len(a), block):
        blk = slice(i0, i0 + block)
        out[blk] = np.matmul(a[blk, None, :], b[rows[blk], :, None])[:, 0, 0]
    return out


def _row_table(points: np.ndarray, scale: float) -> tuple:
    """Each row's unit direction and ``p_plus`` = P(u = +1) in the ball of
    radius ``scale`` rescaled to the unit ball.  The origin gets the axis
    e_0 with a fair sign, which keeps its mean at zero.  A radius is the
    row's ``np.linalg.norm``, the ``sqrt`` of its 1-d dot."""
    if not scale > 0:
        raise ValueError("scale must be positive")
    v = points / scale
    r = np.sqrt(_dots(v, v, np.arange(len(v))))
    over = np.flatnonzero(r > 1.0 + 1e-9)
    if over.size:
        raise ValueError(f"input norm {r[over[0]] * scale:.6g} exceeds the "
                         f"release scale {scale:.6g}")
    units, p_plus = np.zeros(points.shape), np.full(len(points), 0.5)
    units[:, 0] = 1.0
    live = r > 0.0
    r = np.minimum(r[live], 1.0)
    units[live], p_plus[live] = v[live] / r[:, None], (1.0 + r) / 2.0
    return units, p_plus


def _channel(rngs, tables: list, epsilon: float, m: int,
             sink=None) -> np.ndarray:
    """Every level's sum of every party's release with ``epsilon`` each,
    as a (k, m) array: party i draws from the i-th of ``rngs``, then each
    level j decides its signs from ``_dots``, party i holding row
    ``rows[i]`` of ``(units, p_plus, rows, scale) = tables[j]``.

    Parties run in blocks of ``BLOCK_ENTRIES // (k m)``, through one
    (k, block + 1, m) buffer whose row 0 of each level holds the sum of
    the parties before the block.  ``sink(first, releases)``, if given,
    sees each block's (k, b, m) releases before they are summed.  An
    axis-0 reduce of a C-contiguous block with m >= 2 adds its rows in
    order, so the sums are the floats ``np.add.reduce`` of all n
    releases gives; at m = 1 numpy sums one contiguous column pairwise,
    so past one block the last bits may differ."""
    _refuse_epsilon(epsilon)
    k, n = len(tables), len(tables[0][2])
    block = min(n, max(1, geometry.BLOCK_ENTRIES // (k * m)))
    buf, rngs = np.empty((k, block + 1, m)), iter(rngs)
    for start in range(0, n, block):
        b = min(block, n - start)
        release, words = buf[:, 1:b + 1], []
        # zip takes a party's row before its generator, so a block's end
        # draws no generator of the next block.
        for party, rng in zip(release.transpose(1, 0, 2), rngs):
            raw, normal = rng.bit_generator.random_raw, rng.standard_normal
            for row in party:
                words.append(raw())
                normal(out=row)
                words.append(raw())
        # The coins PCG64's Generator.random() makes of the same words.
        coins = (np.array(words, np.uint64) >> 11).reshape(
            b, k, 2).transpose(2, 1, 0) * 2.0 ** -53
        for (units, p_plus, rows, scale), first, z, last in zip(
                tables, coins[0], release, coins[1]):
            rows = rows[start:start + b]
            dots = _dots(z, units, rows)
            u_sign = np.where(first < p_plus[rows], 1.0, -1.0)
            bias = (epsilon / 3.0) * np.sign(dots) * u_sign
            s = np.where(last < (1.0 + bias) / 2.0, 1.0, -1.0)
            z *= (3.0 / (epsilon * _SIGNED_GAUSSIAN_MEAN) * scale) * s[:, None]
        if sink is not None:
            sink(start, release)
        for level in buf:
            level[0] = np.add.reduce(level[0 if start else 1:b + 1],
                                     axis=0)
    return buf[:, 0].copy()


def local_release(x: np.ndarray, epsilon: float, scale: float,
                  seed=None) -> np.ndarray:
    """One party's unbiased, eps-DP release of its point in the ball of
    radius ``scale``, the channel's one-party case: a signed Gaussian
    direction whose sign carries an eps/3 bias toward the input, scaled
    so that the output has mean x.  The channel reads its uniforms as
    raw 64-bit words, so a generator on MT19937, whose ``random()`` joins
    two 32-bit words, is refused."""
    rng = np.random.default_rng(seed)
    if isinstance(rng.bit_generator, np.random.MT19937):
        raise ValueError("MT19937 builds random() from two 32-bit words, so "
                         "the channel's raw-word coins would differ from it")
    x = np.asarray(x, dtype=float).reshape(1, -1)
    table = (*_row_table(x, scale), [0], scale)
    return _channel([rng], [table], epsilon, x.shape[1])[0]


@dataclass(eq=False)
class LevelProtocol:
    """``levels[j]`` is level j's public matrix and ``rows[i, j]`` party
    i's row in it; ``tables[j]`` is the channel's table of level j, with
    ``rows[:, j]``, and ``part`` = epsilon/k each level's share."""

    levels: list[np.ndarray]
    rows: np.ndarray
    epsilon: object

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=int)
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.levels) \
                or len(self.rows) < 1:
            raise ValueError("need one row per level for each party")
        self.part = _refuse_epsilon(self.epsilon, len(self.levels))
        self.tables = []
        for lvl, rows in zip(self.levels, self.rows.T):
            scale = float(np.linalg.norm(lvl, axis=1).max()) or 1.0
            self.tables.append((*_row_table(lvl, scale), rows, scale))

    def server(self, sums: np.ndarray) -> MechanismOutput:
        """The sum over levels of each level mean's projection onto that
        level's hull, with each level's certificate; ``sums[j]`` is the
        sum of level j's releases, so its mean is ``sums[j] / n``, the
        float ``np.mean`` gives.  Each party spends pure-DP epsilon in
        total."""
        estimate, certificates = np.zeros(self.levels[0].shape[1]), []
        for lvl, level_sum in zip(self.levels, sums):
            proj = hull.project_onto_hull(level_sum / len(self.rows), lvl)
            certificates.append({"projection_iterations": proj.iterations,
                                 "projection_gap": proj.gap,
                                 "projection_certified": proj.certified})
            estimate = estimate + proj.point
        budget = PrivacyBudget.pure_dp(self.epsilon)
        return MechanismOutput(estimate=estimate, budget_consumed=budget,
                               trace={"levels": certificates})


def simulate_protocol(protocol: LevelProtocol, seed=None,
                      sink=None) -> MechanismOutput:
    """The server's output on every party's messages.  Party i draws from
    child i of the run seed, per level one uniform, m normals and one
    uniform, so transcripts replay bit-identically and parties could run
    concurrently; the children's generator states are computed in
    vectorised chunks.  Parties run in blocks, and ``sink(first,
    releases)``, if given, is called on each block: ``releases[j, t]``
    is party ``first + t``'s level-j message, valid only during the
    call."""
    sums = _channel(_party_generators(seed, len(protocol.rows)),
                    protocol.tables, protocol.part,
                    protocol.levels[0].shape[1], sink)
    return protocol.server(sums)
