"""Exact spectral oscillator dynamics and the conserved quantities.

Run:  python demos/02_classical_dynamics.py
"""

import numpy as np

from qenm import enm, reference
from qenm.lattice import LatticeSpec

# two masses, one spring: the antisymmetric mode oscillates at sqrt(2 k/m)
sys2 = enm.system_from_bonds(2, [(0, 1)], kappa=1.0, mass=1.0)
ts = np.linspace(0.0, 10.0, 200)
traj = enm.evolve_classical(sys2, [0.5, -0.5], [0.0, 0.0], ts)
omega = np.sqrt(2.0)
dev = np.abs(traj.x[:, 0, 0] - 0.5 * np.cos(omega * ts)).max()
print(f"two-mass mode vs cos(sqrt(2) t): max deviation {dev:.2e}")

# a graphene sheet: energy is conserved along the spectral solution
spec = LatticeSpec(3, 3)
sheet = enm.build_system(spec)
rng = np.random.default_rng(1)
phys = np.flatnonzero(sheet.physical)
x0 = np.zeros((2, sheet.n))
xdot0 = np.zeros((2, sheet.n))
xdot0[:, phys] = rng.normal(0.0, 1.0, (2, phys.size))
traj = enm.evolve_classical(sheet, x0, xdot0, np.linspace(0.0, 40.0, 500))
energies = [reference.total_energy(traj, ti) for ti in range(0, 500, 25)]
print(f"sheet energy drift over 40 time units: "
      f"{(max(energies) - min(energies)) / energies[0]:.2e}")

# velocity Verlet agrees with the spectral path at its discretization order
vv = reference.velocity_verlet(sheet, x0, xdot0, dt=1e-3, steps=1500)
sp = enm.evolve_classical(sheet, x0, xdot0, vv.times)
print(f"Verlet vs spectral max deviation: {np.abs(vv.x - sp.x).max():.2e}")

# incidence factorization and spectral bookkeeping
print(f"||B B^T - A||_max = {np.abs(sheet.B @ sheet.B.T - sheet.A).max():.2e}")
print(f"Tr(A^+) = {enm.pseudoinverse_trace(sheet):.4f}, "
      f"cond(B) = {enm.condition_number_B(sheet):.4f}")

# F = y^T P y / 2 + ydot^T A^+ ydot / 2 is constant along the trajectory
sqm = np.sqrt(sheet.masses)
fvals = [enm.conserved_F(sheet, sqm * traj.x[ti, 0], sqm * traj.xdot[ti, 0])
         for ti in range(0, 500, 50)]
print(f"F drift: {(max(fvals) - min(fvals)) / max(fvals):.2e}")
