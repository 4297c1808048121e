"""Amplitude encodings of oscillator dynamics and the block Hamiltonian.

Register ledger
---------------
An encoded state lives on ``axis (x) part (x) j (x) k`` with ``n`` address
bits per node register.  Only N + P of the 2 N^2 ``part (x) j (x) k`` slots
per axis can be nonzero, so a state is stored compactly as ``amps`` of shape
(D, N + P), one column per active slot (``active_slots``):

* column j < N, slot (part 0, j, 0): velocity block, amplitude
  sqrt(m_j) xdot_j / sqrt(2E)
* column N + c, slot (part 1, j, k) for bonded pair c = (j, k), j < k, of
  ``sys.pairs``: bond block, amplitude i sqrt(kappa_jk) (x_j - x_k) / sqrt(2E)

``EncodedState.tensor`` scatters ``amps`` into the padded (D, 2, N, N)
register layout on access, for structure checks.

The alternative encoding reuses the same layout for one axis: the node
columns hold P y (null-space-projected mass-weighted displacements), the
pair columns hold -i B^+ y_dot, normalized by sqrt(2F).

Both are solutions of d/dt psi = -i H psi for the block Hamiltonian

    H = -[[0, B'], [B'^T, 0]]

acting on the part (x) j (x) k space of dimension 2 N^2, where B' is the
incidence matrix padded with zero columns on non-bonded pairs.  The active
slots span an invariant subspace and H is zero on the rest, so H acts on
``amps`` as the (N + P)-square sparse matrix -[[0, B], [B^T, 0]].

Evolution (``evolve_exact``) applies e^{-iHt} as the Jacobi-Anger series

    e^{-i tau x} = J_0(tau) + 2 sum_{k>=1} (-i)^k J_k(tau) T_k(x),

in x = H / alpha with tau = alpha t and alpha = sqrt(2 kappa d / m) >= ||H||,
truncated at the degree ``series_degree(tau)`` whose tail is at most
``SERIES_EPS`` in operator norm.  That degree is the query count of a block
encoding of H / alpha for one time sample; on hardware each sample is its
own run.  The emulator runs one Chebyshev recurrence (``enm.chebyshev_basis``,
one sparse matvec per degree) to the degree of the longest time in the grid
and combines that basis for every sample, which saves matvecs but leaves the
query count unchanged.  ``evolve_dense``, the eigendecomposition of the dense
active block, is kept only as the reference the tests compare against.  The
gate-level block encoding below is verified against H / alpha by amplitude
extraction and is never used for time evolution.

Circuit block encodings (uniform mass and coupling):

* ``incidence_block_circuit``: slot superposition (1/sqrt(3)), connectivity
  oracle, comparator + order bit + controlled swaps, then Z and H on the
  order qubit.  Projecting slot, validity flag, scratch, comparator and
  order qubits onto |0> leaves B^T / sqrt(2 kappa/m d) between the node
  registers.
* ``diffusion_projector_circuit``: Hadamard, zero-controlled reflection
  2|0><0| - 1, Hadamard; its ancilla-|0> block is the all-zero projector.
* ``hamiltonian_block_circuit``: glues the two above with a part qubit so
  that the |0>-ancilla block is H / sqrt(2 kappa/m d).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
from scipy.special import jv

from . import enm
from .circuits import (Circuit, Gate, _gather, controlled_gates, inverted_gates, simulate)
from .enm import SystemMatrices
from .lattice import LatticeSpec, neighbor
from .oracles import (_emit_connectivity, _emit_ordered_swap, _node_assign,
                      _oracle_registers, emit_slot_superposition, node_value_bits)

DESK_DIM_LIMIT = 1 << 13
SERIES_EPS = 1e-12      # operator-norm bound on the truncated Jacobi-Anger tail


def active_slots(sys: SystemMatrices) -> np.ndarray:
    """Flat padded index (part N^2 + j N + k) of each ``amps`` column, ascending.

    Node j is column j at slot (0, j, 0); bonded pair c = (j, k) of
    ``sys.pairs`` is column N + c at slot (1, j, k).
    """
    n = sys.n
    return np.concatenate([np.arange(n) * n, n * n + sys.bonds[:, 0] * n + sys.bonds[:, 1]])


@dataclass
class EncodedState:
    amps: np.ndarray              # (D, N + P) complex, columns as in active_slots
    tag: str                      # "standard" | "alternative"
    sys: SystemMatrices
    norm_constant: float          # E (standard) or F (alternative)
    e_max: float | None = None
    aa_round_estimate: int | None = None
    thetas: tuple[float, ...] = ()

    @property
    def n(self) -> int:
        return self.sys.n

    @property
    def axes(self) -> int:
        return self.amps.shape[0]

    @property
    def node_amps(self) -> np.ndarray:
        """(D, N) velocity (standard) or displacement (alternative) block."""
        return self.amps[:, :self.n]

    @property
    def pair_amps(self) -> np.ndarray:
        """(D, P) bond block, column c for ``sys.pairs[c]``."""
        return self.amps[:, self.n:]

    @property
    def tensor(self) -> np.ndarray:
        """Read-only padded (D, 2, N, N) register layout, built on each access."""
        n = self.n
        out = np.zeros((self.axes, 2 * n * n), dtype=complex)
        out[:, active_slots(self.sys)] = self.amps
        out = out.reshape(self.axes, 2, n, n)
        out.flags.writeable = False
        return out

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def _uniform_coupling(sys: SystemMatrices) -> tuple[float, float, int]:
    kappa, mass = sys.coupling, sys.masses
    if len(kappa) == 0:
        raise ValueError("system has no bonds")
    if not (np.allclose(kappa, kappa[0]) and np.allclose(mass, mass[0])):
        raise ValueError("block encoding requires uniform coupling and mass")
    return float(kappa[0]), float(mass[0]), sparsity(sys)


def sparsity(sys: SystemMatrices) -> int:
    """Structural sparsity bound d: 3 for lattice sheets, else the max degree."""
    if sys.spec is not None:
        return 3
    return int(np.bincount(sys.bonds.ravel(), minlength=sys.n).max())


def aa_rounds(sys: SystemMatrices, alpha: float, beta: float,
              energy: float | None = None) -> int:
    """Amplitude-amplification rounds ceil(sqrt((m_max a^2 + 2 k_max d b^2) / 2E))."""
    m_max = float(sys.masses.max())
    k_max = float(sys.coupling.max(initial=0.0))
    d = sparsity(sys)
    if energy is None:
        if beta != 0.0:
            raise ValueError("need the system energy when displacements are nonzero")
        energy = 0.5 * m_max * alpha**2
    if energy <= 0.0:
        raise ValueError("zero-energy state has no encoding")
    return math.ceil(math.sqrt((m_max * alpha**2 + 2.0 * k_max * d * beta**2)
                               / (2.0 * energy)))


def prepare_standard(sys: SystemMatrices, x0, xdot0) -> EncodedState:
    """Velocity/bond-difference encoding (sqrt(M) xdot, i mu) / sqrt(2E).

    ``x0``/``xdot0`` are (N,) or (D, N); each axis occupies one slice of
    the axis register.  The recorded rotation angles use the exact
    amplitude sums; for median-split thermal velocities these coincide
    with the thermodynamic-mean value since every sample has |v| = sigma.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    xdot0 = np.atleast_2d(np.asarray(xdot0, dtype=float))
    d_ax, n = x0.shape
    if x0.shape != xdot0.shape or n != sys.n:
        raise ValueError("initial conditions must be (D, N) matching the system")
    kinetic = 0.5 * float(np.sum(sys.masses * xdot0**2))
    energy = kinetic + enm.potential_energy(sys, x0)
    if energy <= 0.0:
        raise ValueError("zero-energy state has no encoding")

    j, k = sys.bonds.T
    amps = np.empty((d_ax, n + len(j)), dtype=complex)
    amps[:, :n] = np.sqrt(sys.masses) * xdot0
    amps[:, n:] = 1j * np.sqrt(sys.coupling) * (x0[:, j] - x0[:, k])
    amps /= math.sqrt(2.0 * energy)

    alpha_sq = float(np.sum(xdot0**2))
    beta_sq = float(np.sum(x0**2))
    k_max = float(sys.coupling.max(initial=0.0))
    e_max = 0.5 * float(sys.masses.max()) * alpha_sq + 0.5 * k_max * beta_sq
    kd = 2.0 * k_max * sparsity(sys)
    thetas = tuple(
        math.acos(math.sqrt(2.0 * kinetic)
                  / math.sqrt(2.0 * kinetic + kd * float(np.sum(x0[a] ** 2))))
        for a in range(d_ax)
    )
    rounds = aa_rounds(sys, math.sqrt(alpha_sq), math.sqrt(beta_sq), energy)
    return EncodedState(amps, "standard", sys, energy, e_max, rounds, thetas)


def prepare_alternative(sys: SystemMatrices, x0, xdot0) -> EncodedState:
    """Displacement encoding (P y, -i B^+ P y_dot) / sqrt(2F), single axis."""
    x0 = np.asarray(x0, dtype=float)
    xdot0 = np.asarray(xdot0, dtype=float)
    if x0.shape != (sys.n,) or xdot0.shape != (sys.n,):
        raise ValueError("alternative encoding takes one axis of initial conditions")
    sqrt_m = np.sqrt(sys.masses)
    y = sqrt_m * x0
    ydot = sqrt_m * xdot0
    py = enm.project_range(sys, y)
    pinv_ydot = enm.pinv_apply(sys, ydot)
    f_const = 0.5 * float(y @ py) + 0.5 * float(ydot @ pinv_ydot)     # enm.conserved_F
    if f_const <= 0.0:
        raise ValueError("zero-energy state has no encoding")
    pair_amps = sys.sparse_B.T @ pinv_ydot            # B^+ P ydot = B^T A^+ ydot
    amps = np.concatenate([py, -1j * pair_amps])[None, :]
    amps /= math.sqrt(2.0 * f_const)
    return EncodedState(amps, "alternative", sys, f_const)


@dataclass
class BlockHamiltonian:
    """H = -[[0, B'], [B'^T, 0]] on the padded part (x) j (x) k space.

    The padded matrix is block diagonal: the active subspace (node slots
    (j, 0) and bonded pair slots) is invariant under H and every other row
    and column is identically zero.  ``H`` is the sparse active block over
    the ``amps`` columns, ``active`` the flat padded index of each.  The
    dense ``H_active``, its cached eigendecomposition ``eig()`` and the
    full 2N^2 matrix ``dense()`` are built on demand for reference
    evolution and structure checks on small systems.
    """

    H: sparse.csr_array           # (N + P) square, real
    active: np.ndarray            # flat indices into the 2 N^2 space
    scale: float                  # sqrt(2 kappa/m d) >= ||H||
    n_nodes: int
    d: int
    _eig: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def H_active(self) -> np.ndarray:
        if self.H.shape[0] > DESK_DIM_LIMIT:
            raise ValueError("dense block Hamiltonian exceeds the desk limit")
        return self.H.toarray()

    def eig(self):
        if self._eig is None:
            w, v = np.linalg.eigh(self.H_active)
            self._eig = (w, v)
        return self._eig

    def dense(self) -> np.ndarray:
        dim = 2 * self.n_nodes * self.n_nodes
        if dim > DESK_DIM_LIMIT:
            raise ValueError(f"dense block Hamiltonian {dim} exceeds the desk limit")
        H = np.zeros((dim, dim))
        rows = self.active[:, None]
        H[rows, self.active[None, :]] = self.H_active
        return H


def build_block_H(sys: SystemMatrices) -> BlockHamiltonian:
    kappa, mass, d = _uniform_coupling(sys)
    B = sys.sparse_B
    return BlockHamiltonian(-sparse.bmat([[None, B], [B.T, None]], format="csr"),
                            active_slots(sys), math.sqrt(2.0 * (kappa / mass) * d), sys.n, d)


def series_degree(tau: float) -> int:
    """Degree K at which the Jacobi-Anger series of e^{-i tau x} is cut.

    For |x| <= 1 the truncation error is at most 2 sum_{k>K} |J_k(tau)|,
    which ``enm.bessel_tail_degree`` bounds by SERIES_EPS.  K is also the
    number of queries to a block encoding of H / alpha.
    """
    return enm.bessel_tail_degree(tau, SERIES_EPS)


def evolve_exact(state: EncodedState, bh: BlockHamiltonian, times) -> Iterator[EncodedState]:
    """exp(-iHt) on every axis slice for each t of ``times``, in grid order.

    Runs the recurrence T_k(H / alpha) psi_0 to ``series_degree(alpha max|t|)``
    before returning, so errors raise here; the iterator then forms each
    sample as sum_k c_k(t) T_k psi_0, within SERIES_EPS of exp(-iHt) in norm.
    """
    times = enm.time_grid(times)
    if bh.n_nodes != state.n:
        raise ValueError("Hamiltonian and state sizes differ")
    taus = bh.scale * times
    degree = series_degree(float(np.abs(taus).max()))
    basis = enm.chebyshev_basis(bh.H, state.amps.T, degree, bh.scale)    # (K + 1, N + P, D)
    orders = np.arange(degree + 1)[:, None]
    coeffs = np.array([1.0, -1.0j, -1.0, 1.0j])[orders % 4] * jv(orders, taus)   # (K + 1, T)
    coeffs[1:] *= 2.0
    return (replace(state, amps=np.ascontiguousarray(np.tensordot(c, basis, 1).T))
            for c in coeffs.T)


def evolve_dense(state: EncodedState, bh: BlockHamiltonian, t: float) -> EncodedState:
    """Reference exp(-iHt) through the eigendecomposition of the dense active block."""
    if bh.n_nodes != state.n:
        raise ValueError("Hamiltonian and state sizes differ")
    w, v = bh.eig()
    out = (v @ (np.exp(-1j * w * t)[:, None] * (v.T @ state.amps.T))).T
    return replace(state, amps=out)


def doubled_mass_encoding(sys: SystemMatrices) -> SystemMatrices:
    """Axis doubling: 2N interleaved masses, x on even slots, y on odd.

    Each bond (j, k) becomes (2j, 2k) and (2j + 1, 2k + 1) with its coupling;
    no bond crosses the axes, so the doubled spectrum is two copies of the
    per-axis one.
    """
    import warnings
    with warnings.catch_warnings():
        # the two per-axis copies are disconnected from each other by design
        warnings.simplefilter("ignore")
        return enm._system(np.repeat(sys.masses, 2),
                           np.concatenate([2 * sys.bonds, 2 * sys.bonds + 1]),
                           np.tile(sys.coupling, 2), np.repeat(sys.physical, 2))


# -- gate-level block encodings ----------------------------------------------


def _shadow(circ: Circuit) -> Circuit:
    sh = Circuit()
    sh.registers = circ.registers
    sh.n_qubits = circ.n_qubits
    return sh


def _emit_incidence_dagger(circ: Circuit) -> list[Gate]:
    """Gate list whose |0>-ancilla block is B^T / sqrt(2 kappa/m d)."""
    sh = _shadow(circ)
    cmp_q, ord_q = circ.registers["cmp"], circ.registers["ord"]
    emit_slot_superposition(sh, circ.registers["ell"])
    _emit_connectivity(sh)
    _emit_ordered_swap(sh, node_value_bits(sh, primed=False), node_value_bits(sh, primed=True),
                       cmp_q[0], ord_q[0])
    sh.z(ord_q[0])
    sh.h(ord_q[0])
    return sh.gates


def _emit_ucond(circ: Circuit, a_bit: int, t_bits) -> list[Gate]:
    """H . (a=0)-controlled (2|0><0| - 1) . H; self-adjoint."""
    sh = _shadow(circ)
    sh.h(a_bit)
    for q in t_bits:
        sh.x(q)
    sh.z(t_bits[0], [(a_bit, 0)] + [(q, 1) for q in t_bits[1:]])
    for q in t_bits:
        sh.x(q)
    sh.x(a_bit)
    sh.z(a_bit)
    sh.x(a_bit)
    sh.h(a_bit)
    return sh.gates


def _block_registers(circ: Circuit, spec: LatticeSpec) -> None:
    """The connectivity oracle's registers plus comparator and order bits."""
    _oracle_registers(circ, spec)
    circ.register("cmp", 1)
    circ.register("ord", 1)


def incidence_block_circuit(spec: LatticeSpec) -> Circuit:
    circ = Circuit()
    _block_registers(circ, spec)
    circ.gates = _emit_incidence_dagger(circ)
    return circ


def diffusion_projector_circuit(n: int) -> Circuit:
    circ = Circuit()
    a = circ.register("a", 1)
    t = circ.register("t", n)
    circ.gates = _emit_ucond(circ, a[0], t.bits)
    return circ


def hamiltonian_block_circuit(spec: LatticeSpec) -> Circuit:
    """Unitary whose |0>-ancilla block on (part, j, k) is H / sqrt(2 kappa/m d)."""
    circ = Circuit()
    p = circ.register("p", 1)
    ca = circ.register("ca", 1)
    _block_registers(circ, spec)
    ub_dagger = _emit_incidence_dagger(circ)
    ub = inverted_gates(ub_dagger)
    k_bits = node_value_bits(circ, primed=True)
    ucond = _emit_ucond(circ, ca[0], k_bits)
    gates: list[Gate] = []
    gates += controlled_gates(inverted_gates(ucond), [(p[0], 0)])
    gates += controlled_gates(ub_dagger, [(p[0], 0)])
    gates += controlled_gates(ub, [(p[0], 1)])
    gates += controlled_gates(ucond, [(p[0], 1)])
    circ.gates = gates
    circ.x(p[0])
    circ.gphase(math.pi)
    return circ


# -- block extraction ---------------------------------------------------------


def _block_column(circ: Circuit, init: dict[str, int], lead=()) -> dict:
    """Simulate from ``init``, project all qubits outside the node registers and
    ``lead`` onto |0>, and sum by key (lead values, j, k), with j and k read in
    index bit order (s, c, r)."""
    state = simulate(circ, init)
    lead_bits = [circ.registers[nm].bits for nm in lead]
    j_bits = node_value_bits(circ, primed=False)
    k_bits = node_value_bits(circ, primed=True)
    kept = {*j_bits, *k_bits, *(q for bits in lead_bits for q in bits)}
    ancilla_mask = sum(1 << q for q in range(circ.n_qubits) if q not in kept)
    col: dict[tuple[int, ...], complex] = {}
    for key, amp in state.amps.items():
        if key & ancilla_mask:
            continue
        rc = (*(_gather(key, bits) for bits in lead_bits), _gather(key, j_bits),
              _gather(key, k_bits))
        col[rc] = col.get(rc, 0.0) + amp
    return {rc: a for rc, a in col.items() if abs(a) > 1e-14}


def incidence_block_column(circ: Circuit, spec: LatticeSpec, j: int) -> dict:
    """Column j of the postselected block, keyed by (j', k') node indices."""
    return _block_column(circ, _node_assign(spec, j, primed=False))


def expected_incidence_column(spec: LatticeSpec, j: int, d: int = 3) -> dict:
    """Sparse column of B^T / sqrt(2 kappa/m d) for unit kappa/m."""
    col: dict[tuple[int, int], float] = {}
    for l in range(3):
        k, valid = neighbor(j, l, spec)
        if not valid:
            continue
        if k >= j:
            col[(j, k)] = col.get((j, k), 0.0) + 1.0 / math.sqrt(2.0 * d)
        else:
            col[(k, j)] = col.get((k, j), 0.0) - 1.0 / math.sqrt(2.0 * d)
    return col


def hamiltonian_block_column(circ: Circuit, spec: LatticeSpec, part: int,
                             j: int, k: int) -> dict:
    """Column (part, j, k) of the postselected block, keyed by (part', j', k')."""
    init = {"p": part, **_node_assign(spec, j, primed=False), **_node_assign(spec, k, primed=True)}
    return _block_column(circ, init, lead=("p",))


def dump_state_csv(state: EncodedState, path, threshold: float = 1e-12) -> None:
    """Padded-layout rows (axis, part, j, k) of the amplitudes above ``threshold``."""
    n = state.n
    part, rest = np.divmod(active_slots(state.sys), n * n)
    j, k = np.divmod(rest, n)
    with open(path, "w") as fh:
        fh.write("axis,part,j,k,re,im\n")
        for a, row in enumerate(state.amps):
            keep = np.flatnonzero(np.abs(row) > threshold)
            fh.writelines(
                f"{a},{p},{jj},{kk},{amp.real:.17g},{amp.imag:.17g}\n"
                for p, jj, kk, amp in zip(part[keep].tolist(), j[keep].tolist(),
                                          k[keep].tolist(), row[keep].tolist()))
