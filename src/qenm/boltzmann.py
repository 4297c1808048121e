"""Maxwell-Boltzmann discretization and randomized velocity bucketing.

Each velocity component of a mass m at temperature T is Normal(0, k_B T/m).
Loading one sample per node is replaced by a small set of velocity buckets:

* ``discretize_two_bucket`` is the median split, two equiprobable buckets at
  +/- sigma.  It reproduces the Gaussian's moments 0 through 3 (all odd
  moments vanish by symmetry); the fourth moment is sigma^4 instead of
  3 sigma^4, which is the expected residual of a two-point rule and is not
  asserted anywhere.
* ``discretize_k_bucket`` splits the Gaussian into k equiprobable quantile
  intervals and takes each bucket velocity as the conditional mean, which
  matches moments 0 and 1 exactly; the second-moment error shrinks with k.

Node j lands in bucket (j . s) xor r over GF(2) for a random key (s, r);
for a uniformly random key the assignment of any fixed node is uniform.
The general k-bucket loader instead feeds a keyed 64-bit mix function
through an inverse-CDF table; cryptographic strength is irrelevant at desk
scale.  ``thermal_velocities`` is the one two-bucket thermal loader, called
by the ``simulate`` initial state, the heat hotspot and the ripple sheet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TAIL_SIGMAS = 6.0

_MASK64 = (1 << 64) - 1


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
    def random(n: int, rng: np.random.Generator) -> "BucketKey":
        return BucketKey(int(rng.integers(0, 1 << n)), int(rng.integers(0, 2)), n)


def discretize_two_bucket(params: MBParams) -> DiscretizedMB:
    """Median split: probabilities 1/2, velocities mu +/- sigma."""
    if params.T == 0:
        return DiscretizedMB((1.0,), (0.0,), (0, 1, 2, 3))
    s = params.sigma
    return DiscretizedMB((0.5, 0.5), (s, -s), (0, 1, 2, 3))


def discretize_k_bucket(params: MBParams, k: int) -> DiscretizedMB:
    """k equiprobable quantile buckets with conditional-mean velocities."""
    if k < 2:
        raise ValueError("need k >= 2 buckets")
    if params.T == 0:
        return DiscretizedMB((1.0,), (0.0,), (0, 1, 2, 3))
    from scipy.special import ndtri     # kept off the `import qenm.cli` path
    # standardized quantile edges; int_a^b z phi(z) dz = phi(a) - phi(b)
    z = np.clip(ndtri(np.linspace(0.0, 1.0, k + 1)), -TAIL_SIGMAS, TAIL_SIGMAS)
    phi = np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
    velocities = params.sigma * k * (phi[:-1] - phi[1:])
    return DiscretizedMB(tuple(1.0 / k for _ in range(k)), tuple(velocities.tolist()), (0, 1))


def bucket_assignment(j: int, key: BucketKey) -> int:
    """GF(2) inner product of the bits of j with the key mask, xor offset."""
    return (bin(j & key.s).count("1") + key.r) & 1


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


def lemma1_rel_fluctuation(D: int, N: int) -> float:
    """Relative kinetic-energy fluctuation sqrt(2 / (D N))."""
    return float(np.sqrt(2.0 / (D * N)))


def mean_kinetic(params: MBParams, N: int) -> float:
    """<K> = N D k_B T / 2."""
    return 0.5 * N * params.D * params.k_B * params.T


def alpha(params: MBParams, N: int) -> float:
    """sqrt(2 <K>) = sqrt(N D k_B T) for the two-bucket distribution."""
    return float(np.sqrt(N * params.D * params.k_B * params.T))


def sample_kinetic_energies(params: MBParams, N: int, n_samples: int, seed: int) -> np.ndarray:
    """Monte Carlo kinetic energies of N masses with Gaussian velocity components."""
    rng = np.random.default_rng(seed)
    v = rng.normal(0.0, params.sigma, size=(n_samples, N, params.D))
    return 0.5 * params.m * np.sum(v**2, axis=(1, 2))


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def prf64(key: int, i: int) -> int:
    """Keyed splitmix64-style mix; deterministic, full 64-bit range."""
    offset = _mix64((key & _MASK64) ^ 0xD6E8FEB86659FD93)
    return _mix64((offset + i * 0x9E3779B97F4A7C15) & _MASK64)


def cdf_table(probabilities, scale: int = 1 << 64) -> np.ndarray:
    """Cumulative bucket boundaries on an integer grid; last entry = scale."""
    cum = np.cumsum(np.asarray(probabilities, dtype=float))
    table = np.floor(cum * scale).astype(object)
    table[-1] = scale
    return table


def inverse_cdf_bucket(prf_output: int, cdf) -> int:
    """Smallest j with prf_output < C(j); boundary hits go to the next bucket."""
    for j, bound in enumerate(cdf):
        if prf_output < bound:
            return j
    raise ValueError("prf output outside the CDF range")


def bucket_spec_json(disc: DiscretizedMB) -> dict:
    return {
        "k": disc.k,
        "probabilities": list(disc.probabilities),
        "velocities": list(disc.velocities),
        "matched_moments": list(disc.matched_moments),
    }
