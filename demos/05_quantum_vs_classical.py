"""Encoded-state evolution against the exact classical trajectory.

Run:  python demos/05_quantum_vs_classical.py
"""

import numpy as np

from qenm import encoding, enm, measure
from qenm.lattice import LatticeSpec
from qenm.measure import SubsetSelector

spec = LatticeSpec(2, 1)
sys = enm.build_system(spec)
rng = np.random.default_rng(5)
phys = np.flatnonzero(sys.physical)

x0 = np.zeros((2, sys.n))
xdot0 = np.zeros((2, sys.n))
x0[:, phys[:2]] = rng.normal(0.0, 0.1, (2, 2))
xdot0[:, phys] = rng.normal(0.0, 1.0, (2, phys.size))

times = np.linspace(0.0, 8.0, 30)
traj = enm.evolve_classical(sys, x0, xdot0, times)
state0 = encoding.prepare_standard(sys, x0, xdot0)
bh = encoding.build_block_H(sys)
print(f"standard encoding: E = {state0.norm_constant:.4f}, "
      f"E_max = {state0.e_max:.4f}, amplification rounds = "
      f"{state0.aa_round_estimate}, thetas = "
      f"{tuple(round(t, 4) for t in state0.thetas)}")

worst = 0.0
for ti, st in enumerate(encoding.evolve_exact(state0, bh, times)):
    ref = encoding.prepare_standard(sys, traj.x[ti], traj.xdot[ti])
    worst = max(worst, float(np.abs(st.amps - ref.amps).max()))
print(f"amplitudes vs (sqrt(M) xdot, i mu)/sqrt(2E): max deviation {worst:.2e}")
# the emulator runs one recurrence for the whole grid; on hardware each sample
# is its own run of degree series_degree(alpha t) block-encoding queries
degrees = [encoding.series_degree(bh.scale * t) for t in times]
print(f"e^(-iHt) as a Jacobi-Anger series in H/{bh.scale:.4f}, truncation error <= "
      f"{encoding.SERIES_EPS:g}: one recurrence of degree {max(degrees)} serves all "
      f"{len(times)} samples here; on hardware each sample is its own run, of degree "
      f"{min(degrees)}..{max(degrees)} ({sum(degrees)} block-encoding queries in all)")

# subset energies read straight off the state as probabilities
ti = 12
st, = encoding.evolve_exact(state0, bh, [times[ti]])
subset = tuple(int(j) for j in phys[:3])
frac = measure.energy_fraction(st, SubsetSelector("kinetic", subset))
classical = enm.kinetic_energy_subset(traj, ti, subset)
print(f"K_V/E at t={times[ti]:.2f}: quantum {frac.estimate:.6f}, "
      f"classical {classical / state0.norm_constant:.6f}; "
      f"{frac.oracle_calls} estimation calls for (eps={frac.epsilon}, "
      f"delta={frac.delta})")

# shot-sampled estimation converges binomially
rep = measure.shot_sample(st, SubsetSelector("kinetic", subset), 50_000, seed=1)
print(f"shot mode: {rep.estimate:.5f} ± {rep.stderr:.5f} ({rep.shots} shots)")

# the displacement-exposing encoding tracks squared displacements instead
sqm = np.sqrt(sys.masses)
z0 = enm.project_range(sys, sqm * x0[0]) / sqm
zdot0 = enm.project_range(sys, sqm * xdot0[0]) / sqm
alt0 = encoding.prepare_alternative(sys, z0, zdot0)
trajz = enm.evolve_classical(sys, z0, zdot0, times)
sel = SubsetSelector("displacement", tuple(int(j) for j in phys))
devs = []
for ti, st in enumerate(encoding.evolve_exact(alt0, bh, times)):
    devs.append(abs(measure.msd_fraction(st, sel).observable
                    - enm.msd_subset(trajz, ti, phys)))
print(f"alternative encoding MSD vs classical: max deviation {max(devs):.2e}")
