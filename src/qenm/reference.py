"""What only the tests and the demos run: the plainer forms the fast paths are checked against.

No other module imports this one, so no command loads it, scipy or ``numpy.random``.  It
holds the dense spectral solution of the oscillators, the dense block-Hamiltonian
evolution, the estimate reports of the amplitude-estimation contract, the k-bucket
Maxwell-Boltzmann loader with the statistics of Lemma 1, the dict statevector simulator,
which reaches any width and shares ``circuits.gate_phase`` and ``circuits.gate_matrix``
with ``circuits.simulate_keys``, and the CSR extraction of the gate-level block encodings.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
from scipy.linalg import eig_banded
from scipy.special import ndtri

from . import boltzmann, circuits, encoding, enm, measure, oracles
from .lattice import LatticeSpec, NodeCoord, encode_coord
from .linalg import BondOperator

TAIL_SIGMAS = 6.0       # discretize_k_bucket's outermost quantile edges, in standard deviations


# -- oscillators -----------------------------------------------------------------

def csr(op: BondOperator) -> sparse.csr_array:
    """The operator as a scipy CSR matrix; duplicate entries are summed."""
    return sparse.csr_array((op.vals, (op.rows, op.cols)), shape=op.shape)


def spectral(sys: enm.SystemMatrices):
    """numpy's ``eigh`` of the dense A: ascending ``eigenvalues`` and the matching
    ``eigenvectors`` as columns."""
    return np.linalg.eigh(sys.A)


def eigenvalues(sys: enm.SystemMatrices) -> np.ndarray:
    """Eigenvalues of A, ascending, without eigenvectors.

    A is banded in the node order (a sheet's bonds span at most 2 cols + 1
    indices), so one eigenvalues-only banded solve over the sites that have
    a bond gives the spectrum; every site without a bond adds an exact zero.
    The solve costs O(N^2 w).
    """
    sites = np.unique(sys.bonds)
    zeros = np.zeros(sys.n - len(sites))
    if len(sites) == 0:
        return zeros
    j, k = np.searchsorted(sites, sys.bonds).T      # bond ends, renumbered
    width = int((k - j).max())
    band = np.zeros((width + 1, len(sites)))        # upper: band[width + j - k, k] = A[j, k]
    A = sys.op_A        # its first P values are those of the bonds (j, k)
    band[width] = A.diagonal()[sites]
    band[width + j - k, k] = A.vals[:len(sys.bonds)]
    return np.sort(np.concatenate([zeros, eig_banded(band, eigvals_only=True)]))


def evolve_spectral(sys, x0, xdot0, times, axes=None) -> enm.Trajectory:
    """``enm.evolve_classical`` through the dense eigendecomposition of A.

    Per eigenmode with frequency w = sqrt(lambda): y_k(t) = cos(w t) y_k(0)
    + sin(w t)/w ydot_k(0), with sin(w t)/w = t sinc(w t / pi) -> t on the
    zero modes, so no eigenvalue needs a zero-mode cut.
    """
    x0, xdot0, times, axes = enm.initial_state(sys, x0, xdot0, times, axes)
    d = x0.shape[0]
    sp = spectral(sys)
    omega = np.sqrt(np.maximum(sp.eigenvalues, 0.0))[:, None]
    sqrt_m = np.sqrt(sys.masses)

    # modal coefficients for every (mode, time) at once: y = c_y cy + c_v cv and
    # ydot = d_y cy + c_y cv
    wt = omega * times
    c_y = np.cos(wt)
    d_y = -omega * np.sin(wt)
    c_v = times * np.sinc(wt / np.pi)

    xs = np.empty((times.size, d, sys.n))
    vs = np.empty((times.size, d, sys.n))
    for a in range(d):
        cy = (sp.eigenvectors.T @ (sqrt_m * x0[a]))[:, None]
        cv = (sp.eigenvectors.T @ (sqrt_m * xdot0[a]))[:, None]
        # one (N, N) @ (N, T) product each for positions and velocities
        xs[:, a] = (sp.eigenvectors @ (c_y * cy + c_v * cv)).T / sqrt_m
        vs[:, a] = (sp.eigenvectors @ (d_y * cy + c_y * cv)).T / sqrt_m
    return enm.Trajectory(times, xs, vs, axes, sys)


def velocity_verlet(sys: enm.SystemMatrices, x0, xdot0, dt: float, steps: int) -> enm.Trajectory:
    """Second-order symplectic integrator; a cross-check for the spectral path."""
    x0, xdot0, times, axes = enm.initial_state(sys, x0, xdot0, np.arange(steps + 1) * dt, None)
    d = x0.shape[0]
    xs = np.empty((steps + 1, d, sys.n))
    vs = np.empty((steps + 1, d, sys.n))
    xs[0], vs[0] = x0, xdot0
    inv_m = 1.0 / sys.masses
    acc = -(sys.op_F @ xs[0].T).T * inv_m
    for i in range(steps):
        xs[i + 1] = xs[i] + dt * vs[i] + 0.5 * dt * dt * acc
        acc_new = -(sys.op_F @ xs[i + 1].T).T * inv_m
        vs[i + 1] = vs[i] + 0.5 * dt * (acc + acc_new)
        acc = acc_new
    return enm.Trajectory(times, xs, vs, axes, sys)


def potential_energy(sys: enm.SystemMatrices, x: np.ndarray, bonds=None) -> float:
    """(1/2) sum over bonds of kappa_jk (x_j - x_k)^2, summed over the axes of x.

    ``x`` is (N,) or (D, N); ``bonds`` is a sequence of (j, k) pairs in
    either orientation, defaulting to every bonded pair.  A pair that is no
    bond has kappa_jk = 0.
    """
    if bonds is None:
        jk, kappa = sys.bonds, sys.coupling
    else:
        jk = np.asarray(bonds, dtype=int).reshape(-1, 2)
        # pair_index -1, no bond, reads the appended 0
        kappa = np.append(sys.coupling, 0.0)[enm.pair_index(sys, np.sort(jk, axis=1))]
    x = np.atleast_2d(x)
    diff = x[:, jk[:, 0]] - x[:, jk[:, 1]]
    return 0.5 * float(np.sum(kappa * diff**2))


def total_energy(traj: enm.Trajectory, ti):
    """Kinetic plus potential energy, all axes, at sample ``ti``: one index, whose
    energy is a float, or an index array, whose energies come back as an array.

    The potential is (1/2) x^T F x per axis, the bond sum of
    ``potential_energy``, from one ``op_F`` product of every sample's axes.
    """
    sys, samples = traj.sys, np.atleast_1d(ti)
    _, d, n = traj.x.shape
    x = traj.x[samples].reshape(-1, n).T                    # (N, samples * D)
    potential = np.sum(x * (sys.op_F @ x), axis=0).reshape(len(samples), d).sum(axis=1)
    kinetic = np.sum(sys.masses * traj.xdot[samples] ** 2, axis=(1, 2))
    energy = 0.5 * (kinetic + potential)
    return energy if np.ndim(ti) else float(energy[0])


# -- amplitudes --------------------------------------------------------------------

def dense_block_H(bh: encoding.BlockHamiltonian) -> np.ndarray:
    """The block Hamiltonian over the whole padded 2 N^2 space, zero off the active slots."""
    dim = 2 * bh.n_nodes * bh.n_nodes
    if dim > encoding.DESK_DIM_LIMIT:
        raise ValueError(f"dense block Hamiltonian {dim} exceeds the desk limit")
    H = np.zeros((dim, dim))
    H[bh.active[:, None], bh.active[None, :]] = bh.H_active
    return H


def evolve_dense(state: encoding.EncodedState, bh: encoding.BlockHamiltonian,
                 t: float) -> encoding.EncodedState:
    """exp(-iHt) through the eigendecomposition of the dense active block."""
    if bh.n_nodes != state.n:
        raise ValueError("Hamiltonian and state sizes differ")
    w, v = bh.eig()
    out = (v @ (np.exp(-1j * w * t)[:, None] * (v.T @ state.amps.T))).T
    return replace(state, amps=out)


def doubled_mass_encoding(sys: enm.SystemMatrices) -> enm.SystemMatrices:
    """Axis doubling: 2N interleaved masses, x on even slots, y on odd.

    Each bond (j, k) becomes (2j, 2k) and (2j + 1, 2k + 1) with its coupling;
    no bond crosses the axes, so the doubled spectrum is two copies of the
    per-axis one.
    """
    with warnings.catch_warnings():
        # the two per-axis copies are disconnected from each other by design
        warnings.simplefilter("ignore")
        return enm.system_from_bonds(2 * sys.n,
                                     np.concatenate([2 * sys.bonds, 2 * sys.bonds + 1]),
                                     np.tile(sys.coupling, 2), np.repeat(sys.masses, 2),
                                     np.repeat(sys.physical, 2))


# -- measurement -------------------------------------------------------------------

@dataclass
class EstimateReport:
    estimate: float                   # fraction of the conserved constant
    mode: str                         # "exact-expectation" | "shot-sampled"
    shots: int | None = None
    stderr: float = 0.0
    observable: float | None = None   # rescaled physical value when defined
    epsilon: float = 0.01
    delta: float = 0.05
    oracle_calls: int = field(init=False)

    def __post_init__(self):
        self.oracle_calls = oracle_call_estimate(self.epsilon, self.delta)


def oracle_call_estimate(epsilon: float, delta: float) -> int:
    """Amplitude-estimation call count O(log(1/delta)/epsilon)."""
    if epsilon <= 0 or not 0 < delta < 1:
        raise ValueError("need epsilon > 0 and 0 < delta < 1")
    return math.ceil(math.log(1.0 / delta) / epsilon)


def energy_fraction(state: encoding.EncodedState, sel: measure.SubsetSelector) -> EstimateReport:
    """K_V/E (or U_V/E) as an exact expectation over the standard encoding."""
    if state.tag != "standard":
        raise ValueError("energy fractions require the standard encoding")
    frac = measure.subset_probability(state, sel)
    return EstimateReport(frac, "exact-expectation", observable=frac * state.norm_constant)


def msd_fraction(state: encoding.EncodedState, sel: measure.SubsetSelector) -> EstimateReport:
    """Subset MSD fraction and the MSD (2F/|V|) sum_V |amp_j|^2 / m_j, alternative encoding."""
    if state.tag != "alternative":
        raise ValueError("MSD requires the alternative encoding")
    frac = measure.subset_probability(state, measure.SubsetSelector("displacement", sel.nodes))
    nodes = np.asarray(sel.nodes, dtype=int)
    msd = float(measure.amplitude_msd(state.node_amps[0, nodes], state.sys.masses[nodes],
                                      state.norm_constant))
    return EstimateReport(frac, "exact-expectation", observable=msd)


def shot_sample(state: encoding.EncodedState, sel: measure.SubsetSelector, shots: int,
                seed: int) -> EstimateReport:
    """Bernoulli sampling of subset membership; binomial standard error."""
    if shots < 1:
        raise ValueError("need at least one shot")
    p = measure.subset_probability(state, sel)
    rng = np.random.default_rng(seed)
    hits = int(rng.binomial(shots, min(max(p, 0.0), 1.0)))
    est = hits / shots
    stderr = math.sqrt(max(est * (1.0 - est), 0.0) / shots)
    return EstimateReport(est, "shot-sampled", shots=shots, stderr=stderr,
                          observable=est * state.norm_constant)


# -- thermal loading ---------------------------------------------------------------

def discretize_k_bucket(params: boltzmann.MBParams, k: int) -> boltzmann.DiscretizedMB:
    """k equiprobable quantile buckets with conditional-mean velocities.

    They match moments 0 and 1 exactly; the second-moment error shrinks with k.
    """
    if k < 2:
        raise ValueError("need k >= 2 buckets")
    if params.T == 0:
        return boltzmann.DiscretizedMB((1.0,), (0.0,), (0, 1, 2, 3))
    # standardized quantile edges; int_a^b z phi(z) dz = phi(a) - phi(b)
    z = np.clip(ndtri(np.linspace(0.0, 1.0, k + 1)), -TAIL_SIGMAS, TAIL_SIGMAS)
    phi = np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
    velocities = params.sigma * k * (phi[:-1] - phi[1:])
    return boltzmann.DiscretizedMB((1.0 / k,) * k, tuple(velocities.tolist()), (0, 1))


def bucket_assignment(j: int, key: boltzmann.BucketKey) -> int:
    """GF(2) inner product of the bits of j with the key mask, xor offset."""
    return (bin(j & key.s).count("1") + key.r) & 1


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


def lemma1_rel_fluctuation(D: int, N: int) -> float:
    """Relative kinetic-energy fluctuation sqrt(2 / (D N))."""
    return float(np.sqrt(2.0 / (D * N)))


def mean_kinetic(params: boltzmann.MBParams, N: int) -> float:
    """<K> = N D k_B T / 2."""
    return 0.5 * N * params.D * params.k_B * params.T


def alpha(params: boltzmann.MBParams, N: int) -> float:
    """sqrt(2 <K>) = sqrt(N D k_B T) for the two-bucket distribution."""
    return float(np.sqrt(N * params.D * params.k_B * params.T))


def sample_kinetic_energies(params: boltzmann.MBParams, N: int, n_samples: int,
                            seed: int) -> np.ndarray:
    """Monte Carlo kinetic energies of N masses with Gaussian velocity components."""
    rng = np.random.default_rng(seed)
    v = rng.normal(0.0, params.sigma, size=(n_samples, N, params.D))
    return 0.5 * params.m * np.sum(v**2, axis=(1, 2))


# -- dict circuit simulator --------------------------------------------------------

def _gather(key: int, bits) -> int:
    v = 0
    for i, q in enumerate(bits):
        v |= ((key >> q) & 1) << i
    return v


def _scatter(key: int, bits, value: int) -> int:
    for i, q in enumerate(bits):
        if (value >> i) & 1:
            key |= 1 << q
        else:
            key &= ~(1 << q)
    return key


def _pack(circuit: circuits.Circuit, assign: dict[str, int]) -> int:
    """The basis int whose registers hold ``assign``'s values, 0 in the others."""
    key = 0
    for name, value in assign.items():
        reg = circuit.registers[name]
        if not 0 <= value < (1 << reg.width):
            raise ValueError(f"{value} does not fit register {name}[{reg.width}]")
        key = _scatter(key, reg.bits, value)
    return key


class SparseState:
    """Statevector as {basis int: amplitude} over a circuit's registers."""

    def __init__(self, circuit: circuits.Circuit, amps: dict[int, complex]):
        self.circuit = circuit
        self.amps = amps

    @classmethod
    def from_basis(cls, circuit: circuits.Circuit, init: dict[str, int] | None = None):
        return cls(circuit, {_pack(circuit, init or {}): 1.0 + 0.0j})

    def value(self, key: int, name: str) -> int:
        return _gather(key, self.circuit.registers[name].bits)

    def assignment(self, key: int) -> dict[str, int]:
        return {name: _gather(key, reg.bits) for name, reg in self.circuit.registers.items()}

    def amplitude(self, assign: dict[str, int]) -> complex:
        return self.amps.get(_pack(self.circuit, assign), 0.0 + 0.0j)


def _apply(gate: circuits.Gate, amps: dict[int, complex]) -> dict[int, complex]:
    kind = gate.kind
    ctrl = gate.controls

    def ok(key):
        return all((key >> q) & 1 == v for q, v in ctrl)

    if kind in ("x", "swap", "add", "sub", "lt", "lookup"):
        out = {}
        for key, amp in amps.items():
            if not ok(key):
                out[key] = amp
                continue
            if kind == "x":
                key ^= 1 << gate.targets[0]
            elif kind == "swap":
                q1, q2 = gate.targets
                b1, b2 = (key >> q1) & 1, (key >> q2) & 1
                if b1 != b2:
                    key ^= (1 << q1) | (1 << q2)
            elif kind in ("add", "sub"):
                w = len(gate.b)
                src = _gather(key, gate.a)
                dst = _gather(key, gate.b)
                dst = (dst + src) % (1 << w) if kind == "add" else (dst - src) % (1 << w)
                key = _scatter(key, gate.b, dst)
            elif kind == "lt":
                if _gather(key, gate.a) < _gather(key, gate.b):
                    key ^= 1 << gate.targets[0]
            else:  # lookup
                key = _scatter(key, gate.b,
                               _gather(key, gate.b) ^ gate.table[_gather(key, gate.a)])
            out[key] = amp
        return out

    if kind in ("z", "s", "sdg", "gphase"):
        phase = circuits.gate_phase(gate)
        out = {}
        for key, amp in amps.items():
            if ok(key) and (kind == "gphase" or (key >> gate.targets[0]) & 1):
                amp = amp * phase
            out[key] = amp
        return out

    if kind in ("h", "ry"):
        t = gate.targets[0]
        m00, m01, m10, m11 = circuits.gate_matrix(gate)
        out: dict[int, complex] = {}
        for key, amp in amps.items():
            if not ok(key):
                out[key] = out.get(key, 0.0) + amp
                continue
            k0, k1 = key & ~(1 << t), key | (1 << t)
            if (key >> t) & 1:
                out[k0] = out.get(k0, 0.0) + amp * m01
                out[k1] = out.get(k1, 0.0) + amp * m11
            else:
                out[k0] = out.get(k0, 0.0) + amp * m00
                out[k1] = out.get(k1, 0.0) + amp * m10
        return {k: a for k, a in out.items() if abs(a) > circuits.PRUNE_EPS}

    raise ValueError(f"unknown gate kind {kind!r}")


def simulate(circ: circuits.Circuit, init: dict[str, int] | None = None) -> SparseState:
    state = SparseState.from_basis(circ, init)
    for gate in circ.gates:
        state.amps = _apply(gate, state.amps)
    return state


def run_basis(circ: circuits.Circuit, init: dict[str, int] | None = None) -> dict[str, int]:
    """Apply a permutation-style circuit to a basis input.

    Asserts the output is a single basis state of unit magnitude and
    returns its register values.
    """
    state = simulate(circ, init)
    if len(state.amps) != 1:
        raise AssertionError(f"not a basis permutation: {len(state.amps)} output keys")
    key, amp = next(iter(state.amps.items()))
    if abs(abs(amp) - 1.0) > 1e-9:
        raise AssertionError(f"output magnitude {abs(amp)} != 1")
    return state.assignment(key)


def circuit_text(circ: circuits.Circuit) -> str:
    """Stable line-oriented dump for golden-file comparisons."""
    lines = [f"reg {r.name} {r.offset} {r.width}" for r in circ.registers.values()]
    for g in circ.gates:
        parts = [g.kind]
        if g.controls:
            parts.append("c=" + ",".join(f"{'+' if v else '-'}{q}" for q, v in g.controls))
        if g.targets:
            parts.append("t=" + ",".join(str(q) for q in g.targets))
        if g.a:
            parts.append("a=" + ",".join(str(q) for q in g.a))
        if g.b:
            parts.append("b=" + ",".join(str(q) for q in g.b))
        if g.kind in ("ry", "gphase"):
            parts.append(f"theta={g.theta:.17g}")
        if g.table:
            parts.append("table=" + ",".join(str(t) for t in g.table))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# -- block extraction --------------------------------------------------------------

def _block(circ: circuits.Circuit, spec: LatticeSpec, inputs: dict) -> sparse.csr_array:
    """Run every input as one batch and project all qubits outside the node
    registers and the part qubit p, where the circuit has one, onto |0>: one
    column per input, row (p, j, k) flattened as p N^2 + j N + k."""
    kept = ("r", "c", "s", "rp", "cp", "sp", "p")
    cols, out, amps = circuits.postselect(circ, inputs, {name: 0 for name in circ.registers
                                                if name not in kept})
    n = spec.n_total
    rows = ((out.get("p", 0) * n + encode_coord(NodeCoord(out["r"], out["c"], out["s"]), spec))
            * n + encode_coord(NodeCoord(out["rp"], out["cp"], out["sp"]), spec))
    n_parts = 2 if "p" in circ.registers else 1
    return sparse.csr_array((amps, (rows.astype(np.int64), cols)),
                            shape=(n_parts * n * n, np.broadcast(*inputs.values()).size))


def incidence_block(circ: circuits.Circuit, spec: LatticeSpec, j) -> sparse.csr_array:
    """Columns j (an int array) of the postselected block B^T / sqrt(2 kappa/m d),
    rows j' N + k'."""
    return _block(circ, spec, oracles.node_assign(spec, np.asarray(j), primed=False))


def hamiltonian_block(circ: circuits.Circuit, spec: LatticeSpec, part, j, k) -> sparse.csr_array:
    """Columns (part, j, k) (int arrays, broadcast together) of the postselected
    block H / sqrt(2 kappa/m d), rows part' N^2 + j' N + k'."""
    part, j, k = np.broadcast_arrays(part, j, k)
    return _block(circ, spec, {"p": part, **oracles.node_assign(spec, j, primed=False),
                               **oracles.node_assign(spec, k, primed=True)})
