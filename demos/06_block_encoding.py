"""Block encodings of the incidence matrix and the Hamiltonian, extracted.

Run:  python demos/06_block_encoding.py
"""

import numpy as np

from qenm import encoding, enm, oracles, reference
from qenm.lattice import LatticeSpec

spec = LatticeSpec(2, 1)
sys = enm.build_system(spec)
bh = encoding.build_block_H(sys)
n = sys.n

print(f"block Hamiltonian: {2 * n * n} padded dimensions, "
      f"{bh.H_active.shape[0]} active, scale sqrt(2 kappa/m d) = {bh.scale:.4f}")

w = np.sort(np.linalg.eigvalsh(bh.H_active))
lam = np.linalg.eigvalsh(sys.A)
print(f"spectrum is symmetric about zero: max |w + reversed(w)| = "
      f"{np.abs(w + w[::-1]).max():.2e}")
print(f"nonzero |eigenvalues| vs sqrt(spectrum of A): "
      f"{np.allclose(np.unique(np.round(np.abs(w[np.abs(w) > 1e-9]), 9)), np.unique(np.round(np.sqrt(lam[lam > 1e-9]), 9)))}")

# the incidence circuit: slot superposition, connectivity oracle, comparator,
# controlled swaps, then Z and H on the order qubit; every column j is one
# basis input of a single batch, and the block's rows are the pairs j' N + k'
circ = oracles.incidence_block_circuit(spec)
print(f"incidence circuit: {circ.n_qubits} qubits, {len(circ.gates)} gates")
bt = np.zeros((n * n, n))
for c, (j, k) in enumerate(sys.pairs):
    bt[j * n + k] = sys.B[:, c]
got = reference.incidence_block(circ, spec, np.arange(n)).toarray()
worst = np.abs(got - bt / bh.scale).max()
print(f"extracted block vs B^T / sqrt(2 kappa/m d): worst entry error {worst:.2e}")

# the full Hamiltonian block encoding, entrywise over all 2 N^2 columns
circ_h = oracles.hamiltonian_block_circuit(spec)
part, j, k = np.unravel_index(np.arange(2 * n * n), (2, n, n))
got = reference.hamiltonian_block(circ_h, spec, part, j, k).toarray()
worst = np.abs(got - reference.dense_block_H(bh) / bh.scale).max()
print(f"U_H block vs H / sqrt(2 kappa/m d) over {2 * n * n} columns: "
      f"worst entry error {worst:.2e}")

# the doubled-mass axis layout is a verified alternative to the axis qubit
doubled = reference.doubled_mass_encoding(sys)
w2 = np.linalg.eigvalsh(doubled.A)
print(f"doubled-mass spectrum = two copies of per-axis spectrum: "
      f"{np.allclose(np.sort(w2), np.sort(np.concatenate([lam, lam])), atol=1e-10)}")
