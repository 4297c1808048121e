"""Classical coupled-oscillator reference dynamics and observables.

The system is N point masses joined by harmonic springs.  Newton's
equation M x'' = -F x, with F the weighted graph Laplacian, is solved
exactly in the mass-weighted coordinates y = sqrt(M) x, where
y'' = -A y and A = sqrt(M)^-1 F sqrt(M)^-1 is positive semidefinite.

Per eigenmode of A with frequency w = sqrt(lambda):

    y_k(t) = cos(w t) y_k(0) + sin(w t)/w ydot_k(0)        (lambda > 0)
    y_k(t) = y_k(0) + t ydot_k(0)                          (lambda = 0)

The null space carries uniform translation (and any isolated padding
site), handled by the linear-in-t branch.  Everything downstream, quantum
included, is validated against these trajectories.

The weighted incidence matrix B has one column per bonded pair (j, k),
j < k, ordered lexicographically, with entries +sqrt(kappa_jk/m_j) on row
j and -sqrt(kappa_jk/m_k) on row k, so that B B^T = A and
sqrt(M) B (sqrt(M) B)^T = F.  Pairs with zero coupling would contribute
zero columns and are not materialized.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .lattice import LatticeSpec, adjacency, dummy_mask

RANK_RTOL = 1e-9  # eigenvalue/singular-value threshold relative to the largest


@dataclass
class SystemMatrices:
    masses: np.ndarray          # (N,)
    kappa: np.ndarray           # (N, N) symmetric couplings
    F: np.ndarray               # graph Laplacian
    A: np.ndarray               # scaled Laplacian
    B: np.ndarray               # (N, P) incidence over bonded pairs
    pairs: list[tuple[int, int]]
    bonds: np.ndarray           # (P, 2) int, the rows of ``pairs`` as an array
    physical: np.ndarray        # (N,) bool, False on padding sites
    spec: LatticeSpec | None = None
    _spectral: "SpectralData | None" = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.masses)


@dataclass
class SpectralData:
    eigenvalues: np.ndarray     # ascending
    eigenvectors: np.ndarray    # columns
    rank_tol: float
    null_dim: int
    P: np.ndarray               # projector onto range(A)


def _assemble(masses, kappa, physical, spec=None) -> SystemMatrices:
    n = len(masses)
    F = -kappa.copy()
    np.fill_diagonal(F, 0.0)
    np.fill_diagonal(F, -F.sum(axis=1))
    inv_sqrt_m = 1.0 / np.sqrt(masses)
    A = F * np.outer(inv_sqrt_m, inv_sqrt_m)
    j, k = np.nonzero(kappa)                # row-major, so lexicographic
    keep = (j < k) & (kappa[j, k] > 0.0)
    j, k = j[keep], k[keep]
    bonds = np.stack([j, k], axis=1)
    cols = np.arange(len(bonds))
    root_kappa = np.sqrt(kappa[j, k])
    B = np.zeros((n, len(bonds)))
    B[j, cols] = root_kappa * inv_sqrt_m[j]
    B[k, cols] = -root_kappa * inv_sqrt_m[k]
    pairs = [tuple(p) for p in bonds.tolist()]
    sys = SystemMatrices(masses, kappa, F, A, B, pairs, bonds, physical, spec)
    _check_connected(sys)
    return sys


def _check_connected(sys: SystemMatrices) -> None:
    phys = np.flatnonzero(sys.physical)
    if len(phys) == 0:
        return
    seen = {int(phys[0])}
    frontier = [int(phys[0])]
    links = {j: [] for j in phys}
    for j, k in sys.pairs:
        links[j].append(k)
        links[k].append(j)
    while frontier:
        j = frontier.pop()
        for k in links.get(j, ()):
            if k not in seen:
                seen.add(k)
                frontier.append(k)
    if len(seen) != len(phys):
        warnings.warn(
            f"physical subgraph is disconnected ({len(phys) - len(seen)} sites unreached)",
            stacklevel=3,
        )


def system_from_bonds(n, bonds, kappa=1.0, mass=1.0, physical=None) -> SystemMatrices:
    """Ad-hoc oscillator network from an explicit bond list.

    ``mass`` is one mass for every site or a sequence of n masses.
    """
    km = np.zeros((n, n))
    for j, k in bonds:
        km[j, k] = km[k, j] = kappa
    masses = np.full(n, mass, dtype=float)
    if physical is None:
        physical = np.ones(n, dtype=bool)
    return _assemble(masses, km, np.asarray(physical, dtype=bool))


def build_system(spec: LatticeSpec, kappa=1.0, mass=1.0) -> SystemMatrices:
    """Graphene sheet system over the full padded index space.

    Bonds touching a dummy site carry zero coupling, so padding sites are
    isolated free masses that never move from zero initial conditions.
    """
    if kappa <= 0 or mass <= 0:
        raise ValueError("kappa and mass must be positive")
    adj = adjacency(spec)
    km = np.zeros((spec.n_total, spec.n_total))
    for j in range(spec.n_total):
        for l in range(adj.d):
            if adj.valid[j, l]:
                km[j, adj.neighbors[j, l]] = kappa
    masses = np.full(spec.n_total, float(mass))
    return _assemble(masses, km, ~dummy_mask(spec), spec)


def spectral(sys: SystemMatrices) -> SpectralData:
    """Eigendecomposition of A with the null-space projector, cached."""
    if sys._spectral is None:
        w, v = np.linalg.eigh(sys.A)
        tol = RANK_RTOL * max(w[-1], 1.0) if len(w) else 0.0
        null = w <= tol
        P = np.eye(sys.n) - v[:, null] @ v[:, null].T
        sys._spectral = SpectralData(w, v, tol, int(null.sum()), P)
    return sys._spectral


def eigenvalues(sys: SystemMatrices) -> np.ndarray:
    """Eigenvalues of A, ascending, without eigenvectors.

    A is banded in the node order (a sheet's bonds span at most 2 cols + 1
    indices), so one eigenvalues-only banded solve over the sites that have
    a bond gives the spectrum; every site without a bond adds an exact zero.
    """
    from scipy.linalg import eig_banded     # kept off the `import qenm.cli` path

    bonded = np.zeros(sys.n, dtype=bool)
    bonded[sys.bonds.ravel()] = True
    sites = np.flatnonzero(bonded)
    zeros = np.zeros(sys.n - len(sites))
    if len(sites) == 0:
        return zeros
    j, k = np.searchsorted(sites, sys.bonds).T      # bond ends, renumbered
    width = int((k - j).max())
    band = np.zeros((width + 1, len(sites)))        # upper: band[width + j - k, k] = A[j, k]
    band[width] = sys.A[sites, sites]
    band[width + j - k, k] = sys.A[sys.bonds[:, 0], sys.bonds[:, 1]]
    return np.sort(np.concatenate([zeros, eig_banded(band, eigvals_only=True)]))


def _nonzero_eigenvalues(sys: SystemMatrices) -> np.ndarray:
    # relative to lambda_max only, so the cut scales with kappa / mass
    w = eigenvalues(sys)
    return w[w > RANK_RTOL * w[-1]]


@dataclass
class Trajectory:
    """Exact positions and velocities on a time grid, per axis."""

    times: np.ndarray          # (T,)
    x: np.ndarray              # (T, D, N)
    xdot: np.ndarray           # (T, D, N)
    axes: tuple[str, ...]
    sys: SystemMatrices


def evolve_classical(sys, x0, xdot0, times, axes=None) -> Trajectory:
    """Spectral solution of M x'' = -F x from x(0), xdot(0).

    ``x0`` / ``xdot0`` are (N,) for a single axis or (D, N); each axis
    evolves independently.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("empty time grid")
    if times.ndim != 1:
        raise ValueError("the time grid must be a 1-D sequence")
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    xdot0 = np.atleast_2d(np.asarray(xdot0, dtype=float))
    if x0.shape != xdot0.shape or x0.shape[1] != sys.n:
        raise ValueError("initial conditions must be (D, N) matching the system")
    d = x0.shape[0]
    if axes is None:
        axes = ("x", "y", "z")[:d] if d <= 3 else tuple(f"axis{i}" for i in range(d))

    sp = spectral(sys)
    omega = np.sqrt(np.maximum(sp.eigenvalues, 0.0))[:, None]
    zero = sp.eigenvalues <= sp.rank_tol
    sqrt_m = np.sqrt(sys.masses)

    # modal coefficients for every (mode, time) at once: y = c_y cy + c_v cv and
    # ydot = d_y cy + c_y cv, with (1, t, 0) in place of (cos, sin/w, -w sin) on zero modes
    wt = omega * times
    c_y = np.cos(wt)
    sin_wt = np.sin(wt)
    d_y = -omega * sin_wt
    c_v = np.divide(sin_wt, omega, out=np.broadcast_to(times, wt.shape).copy(),
                    where=~zero[:, None])
    c_y[zero] = 1.0
    d_y[zero] = 0.0

    xs = np.empty((times.size, d, sys.n))
    vs = np.empty((times.size, d, sys.n))
    for a in range(d):
        cy = (sp.eigenvectors.T @ (sqrt_m * x0[a]))[:, None]
        cv = (sp.eigenvectors.T @ (sqrt_m * xdot0[a]))[:, None]
        # one (N, N) @ (N, T) product each for positions and velocities
        xs[:, a] = (sp.eigenvectors @ (c_y * cy + c_v * cv)).T / sqrt_m
        vs[:, a] = (sp.eigenvectors @ (d_y * cy + c_y * cv)).T / sqrt_m
    return Trajectory(times, xs, vs, tuple(axes), sys)


def velocity_verlet(sys: SystemMatrices, x0, xdot0, dt: float, steps: int) -> Trajectory:
    """Second-order symplectic integrator; only a cross-check for the spectral path."""
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    xdot0 = np.atleast_2d(np.asarray(xdot0, dtype=float))
    d = x0.shape[0]
    times = np.arange(steps + 1) * dt
    xs = np.empty((steps + 1, d, sys.n))
    vs = np.empty((steps + 1, d, sys.n))
    xs[0], vs[0] = x0, xdot0
    inv_m = 1.0 / sys.masses
    acc = -(xs[0] @ sys.F.T) * inv_m
    for i in range(steps):
        xs[i + 1] = xs[i] + dt * vs[i] + 0.5 * dt * dt * acc
        acc_new = -(xs[i + 1] @ sys.F.T) * inv_m
        vs[i + 1] = vs[i] + 0.5 * dt * (acc + acc_new)
        acc = acc_new
    return Trajectory(times, xs, vs, ("x", "y", "z")[:d], sys)


def kinetic_energy_subset(traj: Trajectory, ti: int, nodes=None) -> float:
    """(1/2) sum_j m_j xdot_j^2 over the subset, all axes."""
    v = traj.xdot[ti]
    if nodes is not None:
        nodes = np.asarray(list(nodes), dtype=int)
        return 0.5 * float(np.sum(traj.sys.masses[nodes] * v[:, nodes] ** 2))
    return 0.5 * float(np.sum(traj.sys.masses * v**2))


def potential_energy(sys: SystemMatrices, x: np.ndarray, bonds=None) -> float:
    """(1/2) sum over bonds of kappa_jk (x_j - x_k)^2, summed over the axes of x.

    ``x`` is (N,) or (D, N); ``bonds`` is a sequence of (j, k) pairs and
    defaults to every bonded pair.
    """
    j, k = (sys.bonds if bonds is None
            else np.asarray(bonds, dtype=int).reshape(-1, 2)).T
    x = np.atleast_2d(x)
    diff = x[:, j] - x[:, k]
    return 0.5 * float(np.sum(sys.kappa[j, k] * diff**2))


def pair_index(sys: SystemMatrices, bonds) -> np.ndarray:
    """Index into ``sys.pairs`` of each (j, k) in ``bonds``; -1 where it is absent.

    A bond given as (k, j) with k > j is absent, like a pair with zero
    coupling.  Endpoints outside the system raise IndexError.
    """
    jk = np.asarray(bonds, dtype=int).reshape(-1, 2)
    if jk.size and (jk.min() < 0 or jk.max() >= sys.n):
        raise IndexError("bond endpoint outside the system")
    keys = sys.bonds[:, 0] * sys.n + sys.bonds[:, 1]        # ascending
    want = jk[:, 0] * sys.n + jk[:, 1]
    pos = np.searchsorted(keys, want)
    hit = pos < len(keys)
    hit[hit] = keys[pos[hit]] == want[hit]
    return np.where(hit, pos, -1)


def potential_energy_subset(traj: Trajectory, ti: int, bonds=None) -> float:
    """(1/2) sum over bonds of kappa_jk (x_j - x_k)^2, all axes."""
    return potential_energy(traj.sys, traj.x[ti], bonds)


def total_energy(traj: Trajectory, ti: int) -> float:
    return kinetic_energy_subset(traj, ti) + potential_energy_subset(traj, ti)


def msd_subset(traj: Trajectory, ti: int, nodes) -> float:
    """Mean squared displacement (1/|V|) sum_{i in V} |x_i|^2, axes summed."""
    nodes = np.asarray(list(nodes), dtype=int)
    if nodes.size == 0:
        raise ValueError("empty node subset")
    return float(np.sum(traj.x[ti][:, nodes] ** 2)) / nodes.size


def time_average(values, times) -> float:
    """Trapezoidal time average of a sampled series."""
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    if times.size == 1:
        return float(values[0])
    return float(np.trapezoid(values, times) / (times[-1] - times[0]))


def b_factor(msd_time_average: float) -> float:
    """Thermal B-factor, 8 pi^2 times the time-averaged MSD."""
    return 8.0 * np.pi**2 * msd_time_average


def pseudoinverse_trace(sys: SystemMatrices) -> float:
    """Tr(A^+) = sum of reciprocals of the nonzero eigenvalues."""
    return float(np.sum(1.0 / _nonzero_eigenvalues(sys)))


def condition_number_B(sys: SystemMatrices) -> float:
    """sigma_max / smallest nonzero sigma of the incidence matrix.

    B B^T = A, so the singular values of B are the square roots of A's
    eigenvalues and cond(B) = sqrt(lambda_max / smallest nonzero lambda).
    """
    w = _nonzero_eigenvalues(sys)
    return float(np.sqrt(w[-1] / w[0]))


def pinv_apply(sys: SystemMatrices, vec: np.ndarray) -> np.ndarray:
    """A^+ vec through the cached eigenbasis."""
    sp = spectral(sys)
    nz = sp.eigenvalues > sp.rank_tol
    coeff = sp.eigenvectors.T @ vec
    out = np.zeros_like(coeff)
    out[nz] = coeff[nz] / sp.eigenvalues[nz]
    return sp.eigenvectors @ out


def conserved_F(sys: SystemMatrices, y: np.ndarray, ydot: np.ndarray) -> float:
    """F = (1/2) y^T P y + (1/2) ydot^T A^+ ydot, constant along trajectories."""
    sp = spectral(sys)
    py = sp.P @ y
    return 0.5 * float(y @ py) + 0.5 * float(ydot @ pinv_apply(sys, ydot))


def dump_matrix(mat: np.ndarray, path) -> None:
    """Dense row-major text dump, one row per line."""
    np.savetxt(path, np.atleast_2d(mat), fmt="%.17g")


def dump_trajectory_csv(traj: Trajectory, path) -> None:
    # Python floats format faster than numpy scalars; one write per (t, axis) block.
    # Convert one sample at a time: the whole trajectory as Python floats would
    # take about 32 bytes per value
    with open(path, "w") as fh:
        fh.write("t,node,axis,x,xdot\n")
        for ti, t in enumerate(traj.times.tolist()):
            for axis, x, v in zip(traj.axes, traj.x[ti].tolist(), traj.xdot[ti].tolist()):
                head, tail = f"{t:.17g},", f",{axis},"
                fh.write("".join([f"{head}{j}{tail}{xj:.17g},{vj:.17g}\n"
                                  for j, (xj, vj) in enumerate(zip(x, v))]))
