"""Maxwell-Boltzmann discretization and randomized velocity bucketing.

Each velocity component of a mass m at temperature T is Normal(0, k_B T/m).
Loading one sample per node is replaced by a small set of velocity buckets.
``discretize_two_bucket`` is the median split, two equiprobable buckets at
+/- sigma.  It reproduces the Gaussian's moments 0 through 3 (all odd
moments vanish by symmetry); the fourth moment is sigma^4 instead of
3 sigma^4, which is the expected residual of a two-point rule and is not
asserted anywhere.  The k-bucket split and its loader are ``reference``'s.

Node j lands in bucket (j . s) xor r over GF(2) for a random key (s, r);
for a uniformly random key the assignment of any fixed node is uniform.
``thermal_velocities`` is the one two-bucket thermal loader, called by the
``simulate`` initial state, the heat hotspot and the ripple sheet.

Commands draw without ``numpy.random``, whose import (with ``secrets``,
``hmac`` and OpenSSL's ``_hashlib``) costs a fresh process about 6 MB of
peak RSS: bucket keys come from ``KeyStream``, numpy's PCG64 reproduced
draw for draw, and other seeded uniforms from ``prf_uniform``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@dataclass(frozen=True)
class MBParams:
    m: float = 1.0
    T: float = 1.0
    k_B: float = 1.0
    D: int = 2

    def __post_init__(self):
        if self.m <= 0 or self.T < 0:
            raise ValueError("need m > 0 and T >= 0")

    @property
    def sigma(self) -> float:
        return float(np.sqrt(self.k_B * self.T / self.m))


@dataclass(frozen=True)
class DiscretizedMB:
    probabilities: tuple[float, ...]
    velocities: tuple[float, ...]
    matched_moments: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.probabilities)

    def moment(self, order: int) -> float:
        p = np.array(self.probabilities)
        v = np.array(self.velocities)
        return float(np.sum(p * v**order))


@dataclass(frozen=True)
class BucketKey:
    s: int        # n-bit mask
    r: int        # offset bit
    n: int        # width of the node register

    @staticmethod
    def random(n: int, rng) -> "BucketKey":
        """A key drawn from ``rng``, any object with ``integers(low, high)``:
        a ``KeyStream`` or a numpy Generator, which draw the same keys."""
        return BucketKey(int(rng.integers(0, 1 << n)), int(rng.integers(0, 2)), n)


def _seed_state(seed: int) -> list[int]:
    """numpy's ``SeedSequence(seed).generate_state(8, np.uint32)``, in integers.

    The seed's 32-bit words (least significant first) are hashed into a
    pool of four, each pool word is mixed with every other, words past the
    fourth are mixed into all four, and the pool is hashed out to 8 words.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        out = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return out ^ out >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, state = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const & _MASK32
        state.append(value ^ value >> 16)
    return state


class KeyStream:
    """PCG64 as ``np.random.default_rng(seed)`` seeds and bounds it, in plain integers.

    ``integers(low, high)`` equals numpy's draw for draw, so the commands
    draw numpy's bucket keys without importing ``numpy.random``.  The
    seed's ``_seed_state`` gives the 128-bit state and stream of an LCG
    whose XSL-RR output is the 64-bit draw (O'Neill, HMC-CS-2014-0905).  A
    32-bit draw is the low half of a 64-bit one, whose high half the next
    32-bit draw takes.  Bounded draws use Lemire's multiply-and-reject
    (arXiv:1805.10941) on 32-bit draws for ranges up to 2^32, else on
    64-bit ones.
    """

    def __init__(self, seed: int):
        w = _seed_state(seed)
        words = [lo | hi << 32 for lo, hi in zip(w[::2], w[1::2])]
        self._inc = (words[2] << 65 | words[3] << 1 | 1) & _MASK128
        # from state 0: one step, then add the seed's (words[0], words[1]), then one step
        self._state = ((self._inc + (words[0] << 64 | words[1])) * _PCG_MULT
                       + self._inc) & _MASK128
        self._high = None       # the buffered high half of the last 64-bit draw

    def _next64(self) -> int:
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        rot = self._state >> 122
        x = (self._state >> 64) ^ (self._state & _MASK64)
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._high is not None:
            out, self._high = self._high, None
            return out
        x = self._next64()
        self._high = x >> 32
        return x & _MASK32

    def integers(self, low: int, high: int) -> int:
        """A uniform integer in [low, high), as numpy's ``Generator.integers``."""
        excl = high - low
        if excl < 1:
            raise ValueError("low >= high")
        if excl == 1:
            return low      # numpy draws nothing for a range of one
        draw, bits = (self._next32, 32) if excl <= 1 << 32 else (self._next64, 64)
        threshold, mask = (1 << bits) % excl, (1 << bits) - 1
        m = draw() * excl
        while m & mask < threshold:
            m = draw() * excl
        return low + (m >> bits)


def discretize_two_bucket(params: MBParams) -> DiscretizedMB:
    """Median split: probabilities 1/2, velocities mu +/- sigma."""
    if params.T == 0:
        return DiscretizedMB((1.0,), (0.0,), (0, 1, 2, 3))
    s = params.sigma
    return DiscretizedMB((0.5, 0.5), (s, -s), (0, 1, 2, 3))


def bucket_velocities(n_nodes: int, key: BucketKey, disc: DiscretizedMB) -> np.ndarray:
    """Velocity per node index under a two-bucket key assignment, for all nodes at once."""
    if disc.k == 1:
        return np.full(n_nodes, disc.velocities[0])
    ones = np.bitwise_count(np.arange(n_nodes) & key.s)
    return np.asarray(disc.velocities)[(ones + key.r) & 1]


def thermal_velocities(params: MBParams, keys: list[BucketKey], n_nodes: int, sites) -> np.ndarray:
    """(len(keys), n_nodes) median-split velocities: row a is ``bucket_velocities``
    under ``keys[a]`` on ``sites``, 0 elsewhere, and 0 everywhere at T = 0."""
    disc = discretize_two_bucket(params)
    out = np.zeros((len(keys), n_nodes))
    for row, key in zip(out, keys):
        row[sites] = bucket_velocities(n_nodes, key, disc)[sites]
    return out


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def prf64(key: int, i):
    """Keyed splitmix64-style mix; deterministic, full 64-bit range.

    ``i`` is an int or a ``np.uint64`` array, mixed elementwise to the same bits.
    """
    offset = _mix64((key & _MASK64) ^ 0xD6E8FEB86659FD93)
    return _mix64((offset + i * 0x9E3779B97F4A7C15) & _MASK64)


def prf_uniform(key: int, *shape: int) -> np.ndarray:
    """Uniforms on [-1, 1) of ``shape``: entry i in C order is the top 53 bits
    of ``prf64(key, i)``, so each is a fixed function of (key, i)."""
    bits = prf64(key, np.arange(math.prod(shape), dtype=np.uint64))
    return ((bits >> 11) * 2.0**-52 - 1.0).reshape(shape)


def bucket_spec_json(disc: DiscretizedMB) -> dict:
    return {
        "k": disc.k,
        "probabilities": list(disc.probabilities),
        "velocities": list(disc.velocities),
        "matched_moments": list(disc.matched_moments),
    }
