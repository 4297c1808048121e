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

``standard_amplitudes`` forms these ``amps`` for any number of states at
once, and ``prepare_standard`` is it for one.

The alternative encoding reuses the same layout for one axis: the node
columns hold P y (null-space-projected mass-weighted displacements), the
pair columns hold -i B^+ y_dot, normalized by sqrt(2F).

Both are solutions of d/dt psi = -i H psi for the block Hamiltonian

    H = -[[0, B'], [B'^T, 0]]

acting on the part (x) j (x) k space of dimension 2 N^2, where B' is the
incidence matrix padded with zero columns on non-bonded pairs.  The active
slots span an invariant subspace and H is zero on the rest, so H acts on
``amps`` as the (N + P)-square -[[0, B], [B^T, 0]], a ``linalg.BondOperator``
with at most three entries per row on a sheet.

Evolution (``evolve_exact``) applies e^{-iHt} as the Jacobi-Anger series

    e^{-i tau x} = J_0(tau) + 2 sum_{k>=1} (-i)^k J_k(tau) T_k(x),

in x = H / alpha with tau = alpha t and alpha = sqrt(2 kappa d / m) >= ||H||,
truncated at the degree ``series_degree(tau)`` whose tail is at most
``SERIES_EPS`` in operator norm.  That degree is the query count of a block
encoding of H / alpha for one time sample; on hardware each sample is its
own run.  The emulator builds one ``enm.ChebyshevSeries`` for the whole
time grid, the series type of the classical reference too: its terms are one
Chebyshev recurrence (``enm.chebyshev_basis``, one product with H per degree)
to the degree of the longest time, and its (K + 1, T) coefficients come from
the Bessel values J_k(tau) of ``bessel_j``.  That saves products but leaves
the query count unchanged.  Its one reader, ``read``, forms a run of samples
as one matrix product: ``evolve_exact`` reads one sample at a time and yields
it as an ``EncodedState``, ``evolve_grid`` reads every sample at once, for
observables read over the whole grid, and ``cli``'s simulate reads the
series of ``jacobi_anger`` a block of ``sample_blocks`` at a time, at least
two samples, with ``evolve_grid``'s bits, beside ``standard_amplitudes`` of
the block's classical samples.  The tests compare them against
``reference.evolve_dense``, the eigendecomposition of the dense active
block.  The gate-level block encoding of H / alpha
(``oracles.hamiltonian_block_circuit``) is verified against ``build_block_H``
by amplitude extraction and is never used for time evolution.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import enm, linalg
from .enm import SystemMatrices
from .lattice import SPARSITY

DESK_DIM_LIMIT = 1 << 13
SERIES_EPS = 1e-12      # operator-norm bound on the truncated Jacobi-Anger tail
BESSEL_RESCALE = 2.0**600     # bound on the unnormalized values of bessel_j's recurrence
BLOCK_BYTES = 160_000   # most amplitude bytes of one block of ``sample_blocks``: 4 samples at 4x4


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

    # no command reads pair_amps or tensor: heat runs measure.subset_probability, whose
    # potential-energy branch reads pair_amps, and benchmarks/layers.py counts tensor's bytes
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


def _uniform_coupling(sys: SystemMatrices) -> tuple[float, float, int]:
    kappa, mass = sys.coupling, sys.masses
    if len(kappa) == 0:
        raise ValueError("system has no bonds")
    if not (np.allclose(kappa, kappa[0], atol=0) and np.allclose(mass, mass[0], atol=0)):
        raise ValueError("block encoding requires uniform coupling and mass")
    return float(kappa[0]), float(mass[0]), sparsity(sys)


def sparsity(sys: SystemMatrices) -> int:
    """Structural sparsity bound d: ``SPARSITY`` for lattice sheets, else the max degree."""
    if sys.spec is not None:
        return SPARSITY
    return int(np.bincount(sys.bonds.ravel(), minlength=sys.n).max())


def aa_rounds(sys: SystemMatrices, alpha: float, beta: float,
              energy: float | None = None) -> int:
    """Amplitude-amplification rounds ceil(sqrt((m_max a^2 + 2 k_max d b^2) / 2E)), finite."""
    m_max = float(sys.masses.max())
    k_max = float(sys.coupling.max(initial=0.0))
    d = sparsity(sys)
    if energy is None:
        if beta != 0.0:
            raise ValueError("need the system energy when displacements are nonzero")
        energy = 0.5 * m_max * alpha**2
    if energy <= 0.0:
        raise ValueError("zero-energy state has no encoding")
    rounds = math.sqrt((m_max * alpha**2 + 2.0 * k_max * d * beta**2) / (2.0 * energy))
    if not math.isfinite(rounds):
        raise ValueError(f"the amplitude-amplification round count is {rounds}: "
                         f"mass or kappa is too extreme for the encoding")
    return math.ceil(rounds)


def standard_amplitudes(sys: SystemMatrices, x, xdot) -> tuple[np.ndarray, np.ndarray]:
    """The standard encoding's ``amps`` of (..., D, N) positions and velocities, shaped
    (..., D, N + P), and the energy E of each (...) state.

    Node column j holds sqrt(m_j) xdot_j and pair column N + c holds i sqrt(kappa_c)
    (x_j - x_k), both over sqrt(2E), E being the kinetic plus the potential energy
    (``reference.potential_energy``).  ``prepare_standard`` is this formula for one state, and
    ``cli``'s check against the classical trajectory takes it for a block of samples, with
    the same bits for each sample.
    """
    x = np.asarray(x, dtype=float)
    xdot = np.asarray(xdot, dtype=float)
    n = sys.n
    if x.ndim < 2 or x.shape != xdot.shape or x.shape[-1] != n:
        raise ValueError("initial conditions must be (D, N) matching the system")
    j, k = sys.bonds.T
    # the bond differences laid out (..., P, D), as numpy lays out one state's gather x[:, j],
    # so that each energy sums its terms in the order of reference.potential_energy
    sites = np.swapaxes(x, -1, -2)
    diff = np.take(sites, j, axis=-2) - np.take(sites, k, axis=-2)
    kinetic = 0.5 * np.sum(sys.masses * xdot**2, axis=(-2, -1))
    energy = kinetic + 0.5 * np.sum(sys.coupling[:, None] * diff**2, axis=(-2, -1))
    if not np.all(energy > 0.0):
        raise ValueError("zero-energy state has no encoding")
    amps = np.empty(x.shape[:-1] + (n + len(j),), dtype=complex)
    amps[..., :n] = np.sqrt(sys.masses) * xdot
    amps[..., n:] = 1j * np.sqrt(sys.coupling) * np.swapaxes(diff, -1, -2)
    amps /= np.sqrt(2.0 * energy)[..., None, None]
    return amps, energy


def prepare_standard(sys: SystemMatrices, x0, xdot0) -> EncodedState:
    """Velocity/bond-difference encoding (sqrt(M) xdot, i mu) / sqrt(2E).

    ``x0``/``xdot0`` are (N,) or (D, N); each axis occupies one slice of
    the axis register.  The recorded rotation angles use the exact
    amplitude sums; for median-split thermal velocities these coincide
    with the thermodynamic-mean value since every sample has |v| = sigma.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    xdot0 = np.atleast_2d(np.asarray(xdot0, dtype=float))
    if x0.ndim != 2:
        raise ValueError("initial conditions must be (D, N) matching the system")
    amps, energy = standard_amplitudes(sys, x0, xdot0)
    energy = float(energy)
    kinetic = 0.5 * float(np.sum(sys.masses * xdot0**2))

    alpha_sq = float(np.sum(xdot0**2))
    beta_sq = float(np.sum(x0**2))
    k_max = float(sys.coupling.max(initial=0.0))
    e_max = 0.5 * float(sys.masses.max()) * alpha_sq + 0.5 * k_max * beta_sq
    kd = 2.0 * k_max * sparsity(sys)
    thetas = tuple(
        math.acos(math.sqrt(2.0 * kinetic)
                  / math.sqrt(2.0 * kinetic + kd * float(np.sum(x0[a] ** 2))))
        for a in range(len(x0))
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
    pair_amps = sys.op_B.T @ pinv_ydot            # B^+ P ydot = B^T A^+ ydot
    amps = np.concatenate([py, -1j * pair_amps])[None, :]
    amps /= math.sqrt(2.0 * f_const)
    return EncodedState(amps, "alternative", sys, f_const)


@dataclass
class BlockHamiltonian:
    """H = -[[0, B'], [B'^T, 0]] on the padded part (x) j (x) k space.

    The padded matrix is block diagonal: the active subspace (node slots
    (j, 0) and bonded pair slots) is invariant under H and every other row
    and column is identically zero.  ``H`` is the active block over
    the ``amps`` columns, ``active`` the flat padded index of each.
    """

    H: linalg.BondOperator        # (N + P) square, real
    active: np.ndarray            # flat indices into the 2 N^2 space
    scale: float                  # sqrt(2 kappa/m d) >= ||H||
    n_nodes: int

    # no command reads H_active or eig: benchmarks/spans.py's TRACED_METHODS wraps eig
    @property
    def H_active(self) -> np.ndarray:
        if self.H.shape[0] > DESK_DIM_LIMIT:
            raise ValueError("dense block Hamiltonian exceeds the desk limit")
        return self.H.toarray()

    @cached_property
    def _eigh(self):
        return np.linalg.eigh(self.H_active)

    def eig(self):
        return self._eigh


def build_block_H(sys: SystemMatrices) -> BlockHamiltonian:
    kappa, mass, d = _uniform_coupling(sys)
    B = sys.op_B
    pairs = sys.n + B.cols          # the amps column of each bond
    H = linalg.BondOperator(np.concatenate([B.rows, pairs]), np.concatenate([pairs, B.rows]),
                            -np.concatenate([B.vals, B.vals]), (sys.n + B.shape[1],) * 2)
    return BlockHamiltonian(H, active_slots(sys), math.sqrt(2.0 * (kappa / mass) * d), sys.n)


def series_degree(tau: float) -> int:
    """Degree K at which the Jacobi-Anger series of e^{-i tau x} is cut.

    For |x| <= 1 the truncation error is at most 2 sum_{k>K} |J_k(tau)|,
    which ``enm.bessel_tail_degree`` bounds by SERIES_EPS.  K is also the
    number of queries to a block encoding of H / alpha.
    """
    return enm.bessel_tail_degree(tau, SERIES_EPS)


def bessel_j(degree: int, taus) -> np.ndarray:
    """J_k(tau) for k = 0..degree at each of the (T,) ``taus``, shape (degree + 1, T).

    Miller's backward recurrence J_{k-1} = (2k / x) J_k - J_{k+1} (Abramowitz
    and Stegun 9.1.27), from J_{top+1} = 0, J_top = 1 at an even order top
    well past both the degree and x = |tau|, falls onto the minimal solution,
    which is J_k up to one factor per tau; J_0 + 2 sum_{k>=1} J_2k = 1 (9.1.46)
    fixes it.  Values past BESSEL_RESCALE are scaled down on the way, and
    J_k(-x) = (-1)^k J_k(x).  Below x = 2^-30, J_k = (x/2)^k / k! to double
    precision, 0 included.  Within 5e-16 of ``scipy.special.jv`` for
    |tau| <= 25, 2e-14 at 707 and 6e-14 at 4000.
    """
    taus = np.asarray(taus, dtype=float)
    x = np.abs(taus)
    small = x < 2.0**-30
    x[small] = 1.0
    n = max(degree, math.ceil(x.max(initial=0.0)))
    top = n + int(math.sqrt(40 * n)) + 2
    top += top % 2
    out = np.zeros((degree + 1, len(x)))
    j_up, j_k = np.zeros_like(x), np.ones_like(x)    # J_{k+1} and J_k, for k = top
    norm = 2.0 * j_k
    for k in range(top, 0, -1):
        j_up, j_k = j_k, (2.0 * k / x) * j_k - j_up
        if k <= degree + 1:
            out[k - 1] = j_k
        if k % 2:
            norm += j_k if k == 1 else 2.0 * j_k
        if np.abs(j_k).max(initial=0.0) > BESSEL_RESCALE:
            big = np.abs(j_k) > BESSEL_RESCALE
            out[:, big] /= BESSEL_RESCALE
            j_up[big] /= BESSEL_RESCALE
            j_k[big] /= BESSEL_RESCALE
            norm[big] /= BESSEL_RESCALE
    out /= norm
    half = np.abs(taus[small]) / 2.0
    out[:, small] = np.cumprod(np.concatenate([np.ones((1, len(half))),
                                               half / np.arange(1, degree + 1)[:, None]]), axis=0)
    out[1::2, taus < 0] *= -1.0
    return out


def jacobi_anger(state: EncodedState, bh: BlockHamiltonian, times) -> enm.ChebyshevSeries:
    """The series of exp(-iHt) psi_0 on the grid, whose ``read`` gives (samples, D, N + P).

    Its terms are the basis T_k(H / alpha) psi_0 for k = 0..K, shaped (K + 1, D, N + P), to
    K = ``series_degree(alpha max|t|)``, H applied along the last axis of ``amps``;
    coefficient (k, t) is (2 - [k = 0]) (-i)^k J_k(alpha t).  Sample t is sum_k c_k(t) T_k psi_0.
    """
    times = enm.time_grid(times)
    if bh.n_nodes != state.n:
        raise ValueError("Hamiltonian and state sizes differ")
    taus = bh.scale * times
    degree = series_degree(float(np.abs(taus).max()))
    basis = enm.chebyshev_basis(bh.H, state.amps, degree, bh.scale)    # (K + 1, D, N + P)
    orders = np.arange(degree + 1)[:, None]
    coeffs = np.array([1.0, -1.0j, -1.0, 1.0j])[orders % 4] * bessel_j(degree, taus)  # (K + 1, T)
    coeffs[1:] *= 2.0
    return enm.ChebyshevSeries(coeffs, basis)


def evolve_exact(state: EncodedState, bh: BlockHamiltonian, times) -> Iterator[EncodedState]:
    """exp(-iHt) on every axis slice for each t of ``times``, in grid order.

    Runs the recurrence T_k(H / alpha) psi_0 to ``series_degree(alpha max|t|)``
    before returning, so errors raise here; the iterator then reads each
    sample alone, sum_k c_k(t) T_k psi_0, within SERIES_EPS of exp(-iHt) in
    norm, so it holds one sample at a time.
    """
    series = jacobi_anger(state, bh, times)
    return (replace(state, amps=series.read(i, i + 1)[0]) for i in range(series.coeffs.shape[1]))


def evolve_grid(state: EncodedState, bh: BlockHamiltonian, times) -> np.ndarray:
    """The ``amps`` of exp(-iHt) psi_0 for every t of ``times`` at once, shape (T, D, N + P).

    The same series as ``evolve_exact``, read whole, so the basis is never
    copied; it agrees with ``evolve_exact`` to roundoff.  It holds every
    sample, T (N + P) D amplitudes, where ``evolve_exact`` holds one at a
    time.
    """
    series = jacobi_anger(state, bh, times)
    return series.read(0, series.coeffs.shape[1])


def sample_blocks(samples: int, sample_bytes: int) -> list[tuple[int, int]]:
    """(start, stop) of each block of a ``samples``-long grid that is read off a series at once.

    A block holds at most BLOCK_BYTES of samples of ``sample_bytes`` each, but at least two,
    and the grid is split evenly, so no block holds a single sample unless the grid has only
    one: every read is then a matrix product, with ``evolve_grid``'s bits.  Where the cap
    leaves two samples a block and the grid is odd, one block holds three.
    """
    size = max(2, BLOCK_BYTES // max(sample_bytes, 1))
    count = max(min(-(-samples // size), samples // 2), min(samples, 1))
    bounds = [samples * i // max(count, 1) for i in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))
