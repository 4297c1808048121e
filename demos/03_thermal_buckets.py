"""Thermal velocity discretization and the randomized bucket machinery.

Run:  python demos/03_thermal_buckets.py
"""

import numpy as np

from qenm.boltzmann import BucketKey, MBParams, discretize_two_bucket, prf64
from qenm.reference import (bucket_assignment, cdf_table, discretize_k_bucket,
                            inverse_cdf_bucket, lemma1_rel_fluctuation,
                            sample_kinetic_energies)

params = MBParams(m=1.0, T=1.0, k_B=1.0, D=2)
two = discretize_two_bucket(params)
print(f"median split: P={two.probabilities}, v={two.velocities}, "
      f"matches moments {two.matched_moments}")
print(f"  moments 0..4: {[round(two.moment(k), 6) for k in range(5)]} "
      f"(4th is sigma^4, not 3 sigma^4 — expected for a two-point rule)")

for k in (2, 4, 8, 16):
    disc = discretize_k_bucket(params, k)
    err = abs(disc.moment(2) - params.sigma**2)
    print(f"k={k:2d} equiprobable buckets: second-moment error {err:.4f}")

# randomized parity-key bucket assignment is 50/50 for every fixed node
rng = np.random.default_rng(0)
j = 13
ones = sum(bucket_assignment(j, BucketKey.random(8, rng)) for _ in range(4000))
print(f"node {j}: bucket-1 fraction over random keys = {ones / 4000:.3f}")

# kinetic-energy fluctuations shrink as sqrt(2/DN) (relative)
for n_atoms in (8, 64, 512):
    ks = sample_kinetic_energies(params, n_atoms, 20_000, seed=n_atoms)
    print(f"N={n_atoms:4d}: sigma_K/<K> = {ks.std() / ks.mean():.5f} "
          f"(theory {lemma1_rel_fluctuation(2, n_atoms):.5f})")

# generalized loader: keyed mix + inverse-CDF bucket lookup
cdf = cdf_table([0.25, 0.25, 0.5])
counts = np.zeros(3, dtype=int)
for i in range(20_000):
    counts[inverse_cdf_bucket(prf64(7, i), cdf)] += 1
print(f"inverse-CDF bucket frequencies: {counts / counts.sum()}")
