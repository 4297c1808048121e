"""Gate-level oracles checked against their classical definitions.

Run:  python demos/04_oracle_circuits.py
"""

import numpy as np

from qenm.boltzmann import BucketKey, MBParams, discretize_two_bucket, \
    bucket_velocities
from qenm.circuits import circuit_text, run_basis
from qenm.lattice import LatticeSpec
from qenm.oracles import (connectivity_oracle, mass_oracle, oracle_mismatches,
                          ordered_swap, run_inequality_loader, run_velocity_loader)

spec = LatticeSpec(3, 2)

# the mass oracle is a fixed XOR pattern: two X gates for carbon (12 = 1100)
mo = mass_oracle(12, spec.address_bits)
print(f"mass oracle: {len(mo.gates)} gates, z -> {run_basis(mo, {'z': 0})['z']}")

# connectivity oracle: shift + slot uncompute + modular add + dummy rules
sa = connectivity_oracle(spec)
print(f"connectivity oracle on {spec.address_bits} address bits: "
      f"{sa.n_qubits} qubits, {len(sa.gates)} gates")
states, mismatch, bonds = oracle_mismatches(sa, spec)
print(f"exhaustive sweep over {states} (j, slot) inputs: {mismatch} mismatches, "
      f"{len(bonds)} bonds")

# comparator + controlled swap sort the pair registers and record the order
osw = ordered_swap(4)
out = run_basis(osw, {"j": 11, "k": 6})
print(f"ordered swap (11, 6) -> ({out['j']}, {out['k']}), order bit {out['order']}")

# thermal velocity loading: postselected amplitudes match the bucket values
params = MBParams(T=1.0)
disc = discretize_two_bucket(params)
key = BucketKey(s=0b1011, r=0, n=4)
amps, prob = run_velocity_loader(4, key, disc.velocities)
classical = bucket_velocities(16, key, disc)
classical /= np.linalg.norm(classical)
print(f"velocity loader: success prob {prob:.3f}, "
      f"overlap with bucket velocities {abs(np.vdot(amps, classical)):.10f}")

# inequality-testing loader reproduces the same state from a value table
table = [6 if bucket_velocities(16, key, disc)[i] > 0 else -6 for i in range(16)]
amps_ineq, prob_ineq = run_inequality_loader(table, r=3)
print(f"inequality loader: success prob {prob_ineq:.4f}, "
      f"overlap {abs(np.vdot(amps_ineq, amps)):.10f}")

# the line dump is stable and diff-friendly
print("\nfirst lines of the oracle dump:")
print("\n".join(circuit_text(mo).splitlines()[:4]))
