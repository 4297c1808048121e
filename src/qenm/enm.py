"""Classical coupled-oscillator reference dynamics and observables.

The system is N point masses joined by harmonic springs, stored as its bond
list (``SystemMatrices``).  Every matrix below is a ``linalg.BondOperator``
built from it, applied by gathering each row's entries, so no command
needs scipy.
Newton's equation M x'' = -F x, with F the weighted graph Laplacian, becomes
y'' = -A y in the mass-weighted coordinates y = sqrt(M) x, with
A = sqrt(M)^-1 F sqrt(M)^-1 positive semidefinite.  Its solution

    y(t) = cos(t sqrt(A)) y(0) + sin(t sqrt(A))/sqrt(A) ydot(0)

applies entire functions of A, so ``evolve_classical`` evaluates them as a
Chebyshev series in the bond operator and needs no eigenvectors; zero modes
(cos -> 1, sin(t w)/w -> t) need no branch.  The series is a
``ChebyshevSeries``, the one series type of both evolutions, whose one
reader forms a run of samples as one matrix product.  ``classical_series``
builds it once, and ``series_energies`` reads the energy of every sample
off two Gram matrices of its terms, so a caller that needs only the
energies never forms a sample.  Everything downstream, quantum included,
is validated against these trajectories, and they against
``reference.evolve_spectral``, the dense solution one eigenmode at a time.

The null space of A is known without a solve: one sqrt(m) vector per
connected component of the bond graph, each unbonded site being its own
component.  So the projector P onto range(A) is y - V0 (V0^T y).  Dropping
the lowest site of every component leaves the grounded A, which is positive
definite; its inverse, padded with zeros, is a generalized inverse X of A,
so A^+ = P X P.  One ``linalg`` block factorization of the grounded A
(``SystemMatrices._grounded``) gives A^+ v and Tr(A^+) exactly; where it
would pass ``linalg.FACTOR_ENTRIES`` (8x8 sheets), A^+ v is conjugate
gradients on range(A), and Tr(A^+) and cond(B) refuse.
``inertia_certificate`` reads the semidefiniteness and the null count that
``qenm validate`` checks off the same factor, by Sylvester's law of
inertia.  ``extreme_eigenvalues`` finds the ends of the spectrum, for
``condition_number_B`` and for ``validate`` where the certificate declines.
``reference.eigenvalues``, a banded solve of the whole spectrum, is the
tests' check of all of them.

The weighted incidence matrix B has one column per bonded pair (j, k),
j < k, ordered lexicographically, with entries +sqrt(kappa_jk/m_j) on row
j and -sqrt(kappa_jk/m_k) on row k, so that B B^T = A and
sqrt(M) B (sqrt(M) B)^T = F.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .lattice import LatticeSpec, adjacency, dummy_mask
from .linalg import BondOperator

RANK_RTOL = 1e-9  # eigenvalue/singular-value threshold relative to the largest
CHEB_EPS = 1e-15  # bound on the truncated tail of each classical Chebyshev series
CG_RTOL = 1e-14   # conjugate-gradient stop: residual norm relative to the right-hand side


@dataclass
class SystemMatrices:
    """N masses joined by P springs, stored as the bond list alone.

    Every matrix is built from these arrays on first access and cached: the
    ``BondOperator`` forms ``op_F``, ``op_A``, ``op_L`` = M^-1 F and ``op_B``
    that the program uses, and the read-only dense ``kappa``, ``F``, ``A``
    and ``B``.
    """

    masses: np.ndarray          # (N,)
    bonds: np.ndarray           # (P, 2) int, each bonded pair (j, k), j < k, once, ascending
    coupling: np.ndarray        # (P,) kappa_jk > 0 of each bond
    physical: np.ndarray        # (N,) bool, False on padding sites
    components: np.ndarray      # (N,) int, connected-component label of each site
    spec: LatticeSpec | None = None

    @property
    def n(self) -> int:
        return len(self.masses)

    # no command reads ``pairs`` or the dense views below: benchmarks/layers.py counts them
    @cached_property
    def pairs(self) -> list[tuple[int, int]]:
        return [tuple(p) for p in self.bonds.tolist()]

    def _symmetric(self, off: np.ndarray, diag: np.ndarray) -> BondOperator:
        """off[c] at (j, k) for each bond c, then at (k, j), then diag on the diagonal."""
        j, k = self.bonds.T
        sites = np.arange(self.n)
        return BondOperator(np.concatenate([j, k, sites]), np.concatenate([k, j, sites]),
                            np.concatenate([off, off, diag]), (self.n, self.n))

    @cached_property
    def op_F(self) -> BondOperator:
        j, k = self.bonds.T
        return self._symmetric(-self.coupling, np.bincount(j, self.coupling, self.n)
                               + np.bincount(k, self.coupling, self.n))

    @cached_property
    def op_A(self) -> BondOperator:
        j, k = self.bonds.T
        inv_sqrt_m = 1.0 / np.sqrt(self.masses)
        return self._symmetric(-self.coupling * inv_sqrt_m[j] * inv_sqrt_m[k],
                               self.op_F.diagonal() / self.masses)

    @cached_property
    def op_L(self) -> BondOperator:
        """M^-1 F = sqrt(M)^-1 A sqrt(M), similar to A: -kappa_jk / m_j off the diagonal."""
        a = self.op_A
        sqrt_m = np.sqrt(self.masses)
        return BondOperator(a.rows, a.cols, a.vals * (1.0 / sqrt_m)[a.rows] * sqrt_m[a.cols],
                            a.shape)

    @cached_property
    def op_B(self) -> BondOperator:
        j, k = self.bonds.T
        cols = np.arange(len(j))
        root_kappa = np.sqrt(self.coupling)
        inv_sqrt_m = 1.0 / np.sqrt(self.masses)
        return BondOperator(np.concatenate([j, k]), np.concatenate([cols, cols]),
                            np.concatenate([root_kappa * inv_sqrt_m[j],
                                            -root_kappa * inv_sqrt_m[k]]), (self.n, len(j)))

    kappa = cached_property(lambda self: _dense(self._symmetric(self.coupling,
                                                                np.zeros(self.n))))
    F = cached_property(lambda self: _dense(self.op_F))
    A = cached_property(lambda self: _dense(self.op_A))
    B = cached_property(lambda self: _dense(self.op_B))

    @cached_property
    def _bonded_order(self) -> np.ndarray:
        """The sites that have a bond, in the ``linalg.narrow_order`` of A over them."""
        # not np.unique, whose first call imports numpy.ma (1.2 MB), which ripple never needs
        sites = np.flatnonzero(np.bincount(self.bonds.ravel(), minlength=self.n))
        return sites[linalg.narrow_order(linalg.restricted(self.op_A, sites))]

    @cached_property
    def _grounded(self) -> tuple[np.ndarray, linalg.BlockTridiagonal | None]:
        """The sites of the grounded A, in ``_bonded_order``, and its ``linalg.factor``.

        The grounded A keeps every site but the lowest of each component, so
        it drops every unbonded site and one site per bonded component: its
        sites are the bonded ones, in their order, less those lowest sites.
        Dropping sites cannot widen the band, so the bonded order serves
        both, and one breadth-first pass does for the system.
        """
        lowest = np.zeros(self.n, dtype=bool)
        lowest[np.unique(self.components, return_index=True)[1]] = True
        sites = self._bonded_order[~lowest[self._bonded_order]]
        return sites, linalg.factor(linalg.restricted(self.op_A, sites))


def _dense(m: BondOperator) -> np.ndarray:
    out = m.toarray()
    out.flags.writeable = False
    return out


def _system(masses, bonds, coupling, physical, spec=None) -> SystemMatrices:
    """System over ``bonds``, (j, k) pairs in any order, orientation or multiplicity.

    ``coupling`` is one kappa or one per listed pair.  Each pair is kept once,
    as (min, max), with the coupling of its first listing; self-loops and
    pairs of coupling <= 0 are no springs and are dropped.
    """
    n = len(masses)
    jk = np.sort(np.asarray(bonds, dtype=np.int64).reshape(-1, 2), axis=1)
    if jk.size and (jk.min() < 0 or jk.max() >= n):
        raise IndexError("bond endpoint outside the system")
    coupling = np.broadcast_to(np.asarray(coupling, dtype=float), len(jk))
    keep = (jk[:, 0] < jk[:, 1]) & (coupling > 0.0)
    keys, first = np.unique(jk[keep, 0] * n + jk[keep, 1], return_index=True)
    bonds = np.stack(np.divmod(keys, n), axis=1)
    components = _components(n, bonds)
    phys = np.flatnonzero(physical)
    unreached = int(np.count_nonzero(components[phys] != components[phys[:1]]))
    if unreached:
        warnings.warn(f"physical subgraph is disconnected ({unreached} sites unreached)",
                      stacklevel=3)
    return SystemMatrices(masses, bonds, coupling[keep][first], physical, components, spec)


def _components(n: int, bonds: np.ndarray) -> np.ndarray:
    """Connected-component label of each site, numbered in order of lowest site.

    Every site points at a lower or equal site of its component, at first
    itself.  A round points the targets of both ends of each bond at the
    lower of the two, then replaces each pointer by its target's pointer; at
    the fixed point every site points at the lowest site of its component.
    """
    root = np.arange(n)
    j, k = bonds.T
    while True:
        low = np.minimum(root[j], root[k])
        new = root.copy()
        np.minimum.at(new, root[j], low)
        np.minimum.at(new, root[k], low)
        new = new[new]
        if np.array_equal(new, root):
            return np.unique(root, return_inverse=True)[1]
        root = new


# no command builds a network from a bond list; tests, demos and the reference build on it
def system_from_bonds(n, bonds, kappa=1.0, mass=1.0, physical=None) -> SystemMatrices:
    """Ad-hoc oscillator network from an explicit bond list.

    ``mass`` is one mass for every site or a sequence of n masses.
    """
    if physical is None:
        physical = np.ones(n, dtype=bool)
    return _system(np.full(n, mass, dtype=float), bonds, kappa,
                   np.asarray(physical, dtype=bool))


def build_system(spec: LatticeSpec, kappa=1.0, mass=1.0) -> SystemMatrices:
    """Graphene sheet system over the full padded index space.

    Slots touching a dummy site are not bonds, so padding sites are isolated
    free masses that never move from zero initial conditions.
    """
    if kappa <= 0 or mass <= 0:
        raise ValueError("kappa and mass must be positive")
    adj = adjacency(spec)
    j, l = np.nonzero(adj.valid)
    return _system(np.full(spec.n_total, float(mass)), np.stack([j, adj.neighbors[j, l]], axis=1),
                   float(kappa), ~dummy_mask(spec), spec)


def gershgorin_bound(sys: SystemMatrices) -> float:
    """lambda_bar = 2 kappa_max d_max / m_min >= lambda_max(A), 0 without bonds.

    Row j of A sums to at most d_j kappa_max (1/m_j + 1/sqrt(m_j m_min)) in
    absolute value, d_j being the number of bonds at j.
    """
    if len(sys.bonds) == 0:
        return 0.0
    d_max = int(np.bincount(sys.bonds.ravel()).max())
    return 2.0 * float(sys.coupling.max()) * d_max / float(sys.masses.min())


def _null_vectors(sys: SystemMatrices) -> np.ndarray:
    """Orthonormal null basis V0 of A, one column per component, as one (N,) array.

    Column c is sqrt(m) on the sites of component c, normalised: A sqrt(m) 1_c
    = sqrt(M)^-1 F 1_c = 0 because no bond leaves the component.  Entry j
    of the result is that column's value at j.
    """
    norms = np.bincount(sys.components, weights=sys.masses)
    return np.sqrt(sys.masses / norms[sys.components])


def project_range(sys: SystemMatrices, y: np.ndarray) -> np.ndarray:
    """P y = y - V0 (V0^T y), the orthogonal projection onto range(A) of an
    (N,) vector or of each column of an (N, k) block."""
    v = _null_vectors(sys)
    if np.ndim(y) == 2:     # one label per (component, column), so one bincount sums them all
        k = y.shape[1]
        labels = (sys.components[:, None] * k + np.arange(k)).ravel()
        sums = np.bincount(labels, weights=(v[:, None] * y).ravel()).reshape(-1, k)
        return y - v[:, None] * sums[sys.components]
    return y - v * np.bincount(sys.components, weights=v * y)[sys.components]


def extreme_eigenvalues(sys: SystemMatrices) -> np.ndarray:
    """The c + 1 smallest and the largest eigenvalues of A, ascending, by shift-invert Lanczos.

    c counts the connected components of the sites that have a bond, and
    every site without a bond adds an exact zero.  A
    correct A has exactly c null directions on those sites, so the result
    holds the null count and lambda_min^+; an A with more nulls saturates
    the count at c + 1.  Both ends are ``linalg``'s, of the bonded block:
    ``smallest_eigenvalues``, whose shift lies below 0 too, so that a
    negative eigenvalue is found as surely as a zero, and
    ``largest_eigenvalue``.  It refuses where a factorization would pass
    ``linalg.FACTOR_ENTRIES``, and so does ``condition_number_B``, which
    reads it.
    """
    sites = sys._bonded_order
    zeros = np.zeros(sys.n - len(sites))
    if len(sites) == 0:
        return zeros
    A = _bonded(sys)
    k = min(np.count_nonzero(np.bincount(sys.components[sites])) + 1, len(sites) - 1)
    return np.sort(np.concatenate([zeros, linalg.smallest_eigenvalues(A, k),
                                   [linalg.largest_eigenvalue(A)]]))


def _bonded(sys: SystemMatrices) -> BondOperator:
    """A over the sites that have a bond, in ``linalg.narrow_order``."""
    return linalg.restricted(sys.op_A, sys._bonded_order)


def nonzero_eigenvalues(w: np.ndarray) -> np.ndarray:
    """The eigenvalues of ascending ``w`` above ``RANK_RTOL`` times the largest.

    The cut is relative to lambda_max only, so it scales with kappa / mass.
    """
    return w[w > RANK_RTOL * w[-1]]


def factorization_error(b: BondOperator, target: BondOperator) -> float:
    """max |b b^T - target| over every entry that either side stores, from the triples.

    Joining b's triples on their column gives one term b[i, c] b[j, c] for
    each c that rows i and j share.  The terms of each (i, j), in ascending
    c, then -target[i, j], are summed from 0, so every entry of b b^T
    rounds as in a CSR product.
    """
    order = np.argsort(b.cols, kind="stable")
    rows, cols, vals = b.rows[order], b.cols[order], b.vals[order]
    # pair each entry with every entry of its column, itself included
    size = np.bincount(cols, minlength=b.shape[1])[cols]    # entries in each one's column
    first = np.searchsorted(cols, cols)                     # where each one's column starts
    left = np.repeat(np.arange(len(cols)), size)
    right = np.repeat(first - np.cumsum(size) + size, size) + np.arange(size.sum())
    n = b.shape[0]
    keys, slot = np.unique(np.concatenate([rows[left] * n + rows[right],
                                           target.rows * n + target.cols]), return_inverse=True)
    diff = np.bincount(slot, np.concatenate([vals[left] * vals[right], -target.vals]), len(keys))
    return float(np.abs(diff).max(initial=0.0))


@dataclass
class Trajectory:
    """Exact positions and velocities on a time grid, per axis."""

    times: np.ndarray          # (T,)
    x: np.ndarray              # (T, D, N)
    xdot: np.ndarray           # (T, D, N)
    axes: tuple[str, ...]
    sys: SystemMatrices


def time_grid(times) -> np.ndarray:
    """``times`` as a float array, checked to be a nonempty 1-D grid."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("empty time grid")
    if times.ndim != 1:
        raise ValueError("the time grid must be a 1-D sequence")
    return times


def initial_state(sys, x0, xdot0, times, axes):
    """Checked (D, N) initial conditions, 1-D time grid and axis names."""
    times = time_grid(times)
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    xdot0 = np.atleast_2d(np.asarray(xdot0, dtype=float))
    if x0.shape != xdot0.shape or x0.shape[1] != sys.n:
        raise ValueError("initial conditions must be (D, N) matching the system")
    d = x0.shape[0]
    if axes is None:
        axes = ("x", "y", "z")[:d] if d <= 3 else tuple(f"axis{i}" for i in range(d))
    return x0, xdot0, times, tuple(axes)


def bessel_tail_degree(tau: float, eps: float) -> int:
    """Smallest K with 4 (|tau|/2)^(K+1) / (K+1)! <= eps.

    With |J_k(tau)| <= (|tau|/2)^k / k! and K + 2 >= |tau|, consecutive
    terms of that bound shrink by at least half, so 2 sum_{k>K} |J_k(tau)|
    <= eps: the cut of a Jacobi-Anger series at degree K.  From K + 2 >=
    |tau| on, each step shrinks the bound, so the test is monotone in K and
    doubling steps then bisection find K in O(log |tau|) tests.  A tau that
    is not finite, as where kappa / mass overflows, raises ValueError.
    """
    a = abs(tau)
    if a == 0.0:
        return 0
    if not math.isfinite(a):
        raise ValueError(f"a series over a phase of {tau} has no finite degree: "
                         f"kappa / mass, or the time span, is too large")
    log_half, log_eps = math.log(a / 2.0), math.log(eps / 4.0)

    def above(k: int) -> bool:
        return (k + 1) * log_half - math.lgamma(k + 2) > log_eps

    lo = hi = max(0, math.ceil(a) - 2)
    step = 1
    while above(hi):        # every degree below lo is above eps, hi is not
        lo, hi, step = hi + 1, hi + step, 2 * step
    while lo < hi:
        mid = (lo + hi) // 2
        if above(mid):
            lo = mid + 1
        else:
            hi = mid
    return hi


def chebyshev_degree(lam_bar: float, t_max: float) -> int:
    """Degree of ``evolve_classical``'s series on [0, lam_bar] for times up to |t_max|.

    With lambda = lambda_bar (1 + x)/2 and x = cos(theta), sqrt(lambda) =
    sqrt(lambda_bar) cos(theta/2), so by Jacobi-Anger the coefficient of T_k
    is 2 (-1)^k J_2k(w) for cos(t sqrt(lambda)), w = |t| sqrt(lambda_bar).
    The sin(t sqrt(lambda))/sqrt(lambda) (in units of |t|) and
    -sqrt(lambda) sin(t sqrt(lambda)) (in units of sqrt(lambda_bar)) series
    have coefficients bounded by Bessel terms of order 2k - 1 and up.  Every
    tail past degree K is therefore at most that of a Jacobi-Anger series
    past order 2K, and the interpolant on K + 1 nodes at most twice that.
    """
    omega = abs(t_max) * math.sqrt(lam_bar)
    return (bessel_tail_degree(omega, CHEB_EPS / 2.0) + 1) // 2


def chebyshev_basis(S: BondOperator, block: np.ndarray, degree: int, scale: float = 1.0,
                    out: np.ndarray | None = None) -> np.ndarray:
    """T_k(S / scale) applied along the last axis of ``block``, for k = 0..degree, stacked
    on a new first axis of ``out`` (a new array when it is None).

    The recurrence T_{k+1} = 2 (S / scale) T_k - T_{k-1} makes exactly
    ``degree`` products ``S.apply`` along the site axis, whose scale
    divides each product.  Each term has the bits of the ``S @`` product of
    the block stacked site-first, which it replaces, and is written in
    place, so a caller that passes a view of its own array, such as
    ``classical_series``, holds no second basis.
    """
    if out is None:
        out = np.empty((degree + 1, *block.shape), dtype=np.result_type(S.dtype, block.dtype))
    out[0] = block
    if degree >= 1:
        S.apply(out[0], -1, out=out[1])
        out[1] /= scale
    for k in range(2, degree + 1):
        S.apply(out[k - 1], -1, out=out[k])
        out[k] *= 2.0 / scale
        out[k] -= out[k - 2]
    return out


def chebyshev_coefficients(samples: np.ndarray) -> np.ndarray:
    """Coefficients c_k of the interpolant sum_k c_k T_k of samples at Chebyshev-Gauss nodes.

    Row j of the (K, T) ``samples`` holds f(cos theta_j), theta_j = pi (j +
    1/2) / K.  Row k of the result is (2 / K) sum_j cos(k theta_j) f_j,
    halved at k = 0.  That sum is a type-II cosine transform: with Y the FFT
    of the even extension [f, f reversed], of length 2K, it is
    Re(exp(-i pi k / 2K) Y_k) / 2.  So it costs O(K log K) per column and
    needs no (K, K) cosine matrix.
    """
    nodes = samples.shape[0]
    spectrum = np.fft.rfft(np.concatenate([samples, samples[::-1]]), axis=0)[:nodes]
    half_angle = 0.5 * np.pi * np.arange(nodes)[:, None] / nodes
    coeffs = spectrum.real * np.cos(half_angle) + spectrum.imag * np.sin(half_angle)
    coeffs /= nodes
    coeffs[0] /= 2.0
    return coeffs


@dataclass
class ChebyshevSeries:
    """Samples sum_k coeffs[k, i] terms[k], ``read`` a run at a time: ``classical_series``
    and ``encoding``'s Jacobi-Anger series."""

    coeffs: np.ndarray      # (K', T, ...): column i, with any trailing axes, gives sample i
    terms: np.ndarray       # (K', ...): T_k(S) of the initial block

    def read(self, start: int, stop: int) -> np.ndarray:
        """Samples start..stop-1, shape (stop - start, *coeffs.shape[2:], *terms.shape[1:]).

        One product of the coefficient columns with the terms viewed as
        (K', rest), which copies no term.  Runs of two or more samples match
        the whole grid's bit for bit; a product of one row, such as one
        sample of the quantum series, is a matrix-vector product and may
        round differently.
        """
        c = self.coeffs[:, start:stop]
        k = len(c)
        out = c.reshape(k, -1).T @ self.terms.reshape(k, -1)
        return out.reshape(c.shape[1:] + self.terms.shape[1:])


def classical_series(sys, x0, xdot0, times) -> ChebyshevSeries:
    """The series of ``evolve_classical``, without any sample.

    ``x0`` / ``xdot0`` are (N,) for a single axis or (D, N); each axis
    evolves independently.  With L = M^-1 F = sqrt(M)^-1 A sqrt(M), similar
    to A and with spectrum in [0, lambda_bar] (``gershgorin_bound``),

        x(t)    = cos(t sqrt(L)) x0 + sin(t sqrt(L))/sqrt(L) xdot0
        xdot(t) = -sqrt(L) sin(t sqrt(L)) x0 + cos(t sqrt(L)) xdot0

    Each function is a Chebyshev series in S = 2 L / lambda_bar - 1 of degree
    K = ``chebyshev_degree(lambda_bar, max|t|)``.  One cosine transform of
    the three functions, sampled at the K + 1 Chebyshev nodes for every time,
    gives all coefficients (``chebyshev_coefficients``, an FFT, so a long
    window needs no (K + 1)^2 matrix), as (2 (K + 1), T, 2) columns: [c_cos;
    c_sin] for x(t_i), then [c_dsin; c_cos] for xdot(t_i).
    ``chebyshev_basis`` of the (2, D, N) block [x0, xdot0], K products with
    the ``BondOperator`` S along its site axis, writes T_k(S) x0 and
    T_k(S) xdot0 straight into the (2, K + 1, D, N) terms through a
    transposed view, so no other basis exists, and ``read`` of the terms
    viewed as (2 (K + 1), D, N) gives x and xdot of each sample as
    (samples, 2, D, N).  A start that is zero keeps neither its terms nor
    their coefficient rows: a sheet at rest (x0 = 0, as in ``simulate``'s
    thermal starts, ``validate`` and ``ripple``) holds only the T_k(S) xdot0
    half, and one released from rest (xdot0 = 0) only the T_k(S) x0 half;
    adding the zero rows' products changed no bit of any sample.  Each half
    takes 8 D (K + 1) N bytes: K is 29 for max|t| sqrt(lambda_bar) = 24.5
    (``validate``, 1 MB at 5x5) and 496 for 707 (``ripple``'s 1000 ps window
    in physical units, 2 MB at 4x4).
    The cosine is transformed as cos - 1 with the 1 put on T_0, and working
    in x rather than y = sqrt(M) x keeps T_0 the identity, so x(0) = x0 and
    xdot(0) = xdot0 exactly.
    """
    x0, xdot0, times, _ = initial_state(sys, x0, xdot0, times, None)
    d, n = x0.shape[0], sys.n
    lam_bar = gershgorin_bound(sys) or 1.0        # without bonds any interval holds {0}
    nodes = chebyshev_degree(lam_bar, float(np.abs(times).max())) + 1

    # cosine transform on Chebyshev-Gauss nodes theta_j = pi (j + 1/2) / nodes
    theta = np.pi * (np.arange(nodes) + 0.5) / nodes
    root = math.sqrt(lam_bar) * np.cos(theta / 2.0)[:, None]     # sqrt(lambda) > 0
    wt = root * times
    sin_wt = np.sin(wt)
    samples = np.concatenate([-2.0 * np.sin(wt / 2.0) ** 2,    # cos(wt) - 1
                              sin_wt / root, -root * sin_wt], axis=1)
    c_cos, c_sin, c_dsin = np.split(chebyshev_coefficients(samples), 3, axis=1)
    c_cos[0] += 1.0
    coeffs = np.stack([np.concatenate([c_cos, c_sin]), np.concatenate([c_dsin, c_cos])], axis=2)

    L = sys.op_L
    S = BondOperator(L.rows, L.cols, (2.0 / lam_bar) * L.vals - (L.rows == L.cols), L.shape)
    # T_k(S) x0 at [0, k] and T_k(S) xdot0 at [1, k], each only where its start is nonzero
    # (a sheet that never moves keeps the zero xdot0 rows)
    kept = [i for i, start in enumerate((x0, xdot0)) if start.any()] or [1]
    terms = np.empty((len(kept), nodes, d, n))
    chebyshev_basis(S, np.stack([x0, xdot0])[kept], nodes - 1, out=terms.transpose(1, 0, 2, 3))
    coeffs = coeffs.reshape(2, nodes, *coeffs.shape[1:])[kept]
    return ChebyshevSeries(coeffs.reshape(-1, *coeffs.shape[2:]),
                           terms.reshape(len(kept) * nodes, d, n))


def evolve_classical(sys, x0, xdot0, times, axes=None) -> Trajectory:
    """Solution of M x'' = -F x from x(0), xdot(0), without eigenvectors:
    every sample of ``classical_series`` in one ``read``."""
    x0, xdot0, times, axes = initial_state(sys, x0, xdot0, times, axes)
    samples = classical_series(sys, x0, xdot0, times).read(0, times.size)
    return Trajectory(times, samples[:, 0], samples[:, 1], axes, sys)


def kinetic_energy_subset(traj: Trajectory, ti, nodes=None):
    """(1/2) sum_j m_j xdot_j^2 over the subset, all axes, at sample ``ti``: one
    index, whose energy is a float, or an index array, whose energies come
    back as an array.  Each sample's terms are summed as one contiguous row,
    so both forms give the same bits.
    """
    samples = np.atleast_1d(ti)
    if nodes is None:
        energy = 0.5 * np.sum((traj.sys.masses * traj.xdot[samples] ** 2)
                              .reshape(len(samples), -1), axis=1)
    else:
        nodes = np.asarray(list(nodes), dtype=int)
        v = _node_rows(traj.xdot, samples, nodes)
        energy = 0.5 * np.sum((traj.sys.masses[nodes, None] * v**2)
                              .reshape(len(samples), -1), axis=1)
    return energy if np.ndim(ti) else float(energy[0])


# heat runs measure.subset_probability, whose potential-energy branch reads pair_index
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


def series_energies(sys: SystemMatrices, series: ChebyshevSeries) -> np.ndarray:
    """The total energy of every sample of a ``classical_series``, without forming a sample.

    Sample i's x and xdot mix the terms by its coefficient columns c_x and
    c_xdot, so its energy is the quadratic form (1/2) (c_x^T G_F c_x +
    c_xdot^T G_M c_xdot) in the Gram matrices G_F = sum_a X_a F X_a^T and
    G_M = sum_a X_a M X_a^T, X_a being the (K', N) terms of axis a.
    Both are symmetric, so only their blocks on and above the diagonal are
    formed, at a cost of K'^2 D N, and the forms cost T K'^2, where the
    samples alone would cost 2 T K' D N: fewer terms than samples (30
    against 200 in ``validate``, which starts at rest) is where this
    wins, and a long window of few samples (``ripple``'s in physical units,
    497 terms for 50 samples) is where it loses.  A sheet that starts at
    rest, as in ``validate``, has no x0 rows (``classical_series``).  F goes
    through the terms a few rows at a time, so that its ``op_F`` gather and
    product take at most half their bytes.
    """
    terms = series.terms
    k, d, n = terms.shape
    F = sys.op_F
    flat = terms.reshape(k, d * n)
    gram_f, gram_m = np.zeros((k, k)), np.zeros((k, k))
    rows = max(1, terms.nbytes // (2 * d * 8 * n * (F.slots + 1)))   # gather and product bytes
    for start in range(0, k, rows):
        stop = min(start + rows, k)
        part = terms[start:stop]
        gram_f[:stop, start:stop] = flat[:stop] @ F.apply(part, -1).reshape(stop - start, -1).T
        gram_m[:stop, start:stop] = flat[:stop] @ (part * sys.masses).reshape(stop - start, -1).T
    gram_f = np.triu(gram_f) + np.triu(gram_f, 1).T
    gram_m = np.triu(gram_m) + np.triu(gram_m, 1).T
    c_x, c_xdot = np.moveaxis(series.coeffs, -1, 0)     # (k, T) each
    return 0.5 * (np.sum(c_x * (gram_f @ c_x), axis=0)
                  + np.sum(c_xdot * (gram_m @ c_xdot), axis=0))


def msd_subset(traj: Trajectory, ti, nodes):
    """Mean squared displacement (1/|V|) sum_{i in V} |x_i|^2, axes summed, at
    sample ``ti``: one index, whose MSD is a float, or an index array, whose
    MSDs come back as an array, with the same bits as one index at a time.
    """
    nodes = np.asarray(list(nodes), dtype=int)
    if nodes.size == 0:
        raise ValueError("empty node subset")
    samples = np.atleast_1d(ti)
    block = _node_rows(traj.x, samples, nodes).reshape(len(samples), -1)
    msd = np.sum(block**2, axis=1) / nodes.size
    return msd if np.ndim(ti) else float(msd[0])


def _node_rows(values: np.ndarray, samples: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """C-contiguous (samples, |V|, D) gather of the (T, D, N) ``values`` over V.

    One sample's gather values[ti][:, nodes] is laid out node by node, and
    np.sum reads it in that order; a reduction over each C-contiguous sample
    of this array reads the same terms in the same order, so it gives the
    same bits.
    """
    return np.ascontiguousarray(values[samples][:, :, nodes].transpose(0, 2, 1))


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
    """Tr(A^+) = Tr(P X P) = Tr X - sum_c v_c^T X v_c.

    X is the zero-padded inverse of the grounded A and v_c the unit null
    vector of component c; only bonded components have v_c on the grounded
    sites, and one block solve gives all their X v_c.
    """
    sites, factor = sys._grounded
    factor = linalg.fitted(factor)
    bonded, labels = np.unique(sys.components[sites], return_inverse=True)
    v = np.zeros((len(sites), len(bonded)))
    v[np.arange(len(sites)), labels] = _null_vectors(sys)[sites]
    return factor.inverse_trace() - float(np.sum(v * factor.solve(v)))


def inertia_certificate(sys: SystemMatrices) -> tuple[int, float] | None:
    """(nulls, e): every eigenvalue of A is at least -e, exactly ``nulls`` of them
    lie within e of 0, and every other lies above RANK_RTOL times the upper end
    hi of A's Gershgorin interval; or None where the grounded factor cannot
    certify that.

    Let G be the grounded sites and c the number of bonded components, each
    of which the grounding drops one site of.  Every unbonded site must have
    a zero row of A, an exact null direction, and no entry of A may join two
    components.  By Sylvester's law of inertia A_GG = L diag(S_i) L^T is
    positive definite when every S_i is, and then by Cauchy interlacing
    the bonded block A_b of A has every eigenvalue past its c smallest at
    least tau = lambda_min(A_GG) >= 1 / Tr(A_GG^-1).  In an orthonormal
    basis [Y, Q], Q the c unit null vectors of the bonded components, A_b
    is diag(Y^T A Y, 0) plus a matrix of norm at most e = 2 ||A Q||, so by
    Weyl's inequality its eigenvalues lie within e of those of
    diag(Y^T A Y, 0).  If Y^T A Y had an eigenvalue below tau - e, A_b
    would have c + 1 below tau, so its c smallest lie within e of 0 when e
    < tau.  The columns of A Q have disjoint supports, so ||A Q||_2 is at
    most the 2-norm of one product of A with ``_null_vectors``.  The
    certificate holds when

    (a) every S_i is positive definite (``linalg.BlockTridiagonal.positive_definite``),
    (b) e <= min(N eps, RANK_RTOL) max_i A_ii, and
    (c) Tr(A_GG^-1) RANK_RTOL hi < 1, so tau > RANK_RTOL hi >= e.

    As max_i A_ii <= lambda_max <= hi, A then passes ``validate``'s
    semidefiniteness bound -N eps lambda_max, and exactly nulls = N - |G|
    eigenvalues fall under the cut RANK_RTOL lambda_max of
    ``nonzero_eigenvalues``.  It declines where the factor would pass
    ``linalg.FACTOR_ENTRIES``, where A is indefinite, and where an eigenvalue lies too
    near the cut to tell, as behind a bond far weaker than the rest.
    """
    sites, factor = sys._grounded
    if factor is None or not factor.positive_definite():
        return None
    A = sys.op_A
    bonded = np.zeros(sys.n, dtype=bool)
    bonded[sys._bonded_order] = True
    stray = ~bonded[A.rows] | (sys.components[A.rows] != sys.components[A.cols])
    if np.any(A.vals[stray]):
        return None
    spread = 2.0 * float(np.linalg.norm(A @ _null_vectors(sys)))
    if spread > min(sys.n * np.finfo(float).eps, RANK_RTOL) * A.diagonal().max(initial=0.0):
        return None
    if factor.inverse_trace() * RANK_RTOL * linalg.gershgorin(A)[1] >= 1.0:
        return None
    return sys.n - len(sites), spread


def condition_number_B(sys: SystemMatrices) -> float:
    """sigma_max / smallest nonzero sigma of the incidence matrix.

    B B^T = A, so the singular values of B are the square roots of A's
    eigenvalues and cond(B) = sqrt(lambda_max / lambda_min^+), both ends
    read from ``extreme_eigenvalues``: lambda_min^+ is its smallest
    nonzero eigenvalue.
    """
    if len(sys.bonds) == 0:
        raise ValueError("A has no nonzero eigenvalue, so B has no condition number")
    nonzero = nonzero_eigenvalues(extreme_eigenvalues(sys))
    return math.sqrt(nonzero[-1] / nonzero[0])


def pinv_apply(sys: SystemMatrices, vec: np.ndarray) -> np.ndarray:
    """A^+ vec = P X P vec, X the zero-padded inverse of the grounded A, for
    an (N,) vector or each column of an (N, k) block.

    One block forward and back substitution with the cached factorization
    of the grounded A, between two projections onto range(A); a block of
    columns is one substitution with (w, k) blocks.  Where that
    factorization would not fit in ``linalg.FACTOR_ENTRIES`` (8x8 sheets) it is
    conjugate gradients on range(A) instead: b = P vec lies in range(A),
    where A is positive definite, so CG from 0 stays there (up to roundoff,
    projected off at the end) and converges to A^+ vec.  Each step costs one
    product with ``op_A``; the iteration stops once the residual is CG_RTOL of
    |b|, and a block is solved one column at a time.
    """
    sites, factor = sys._grounded
    vec = np.asarray(vec, dtype=float)
    if factor is None and vec.ndim == 2:
        return np.stack([pinv_apply(sys, column) for column in vec.T], axis=1)
    b = project_range(sys, vec)
    x = np.zeros_like(b)
    if factor is not None:
        x[sites] = factor.solve(b[sites])
        return project_range(sys, x)
    A = sys.op_A
    r = b.copy()
    p = b.copy()
    rr = float(r @ r)
    stop = (CG_RTOL * math.sqrt(rr)) ** 2
    for _ in range(10 * sys.n + 100):
        if rr <= stop:
            return project_range(sys, x)
        ap = A @ p
        alpha = rr / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        rr, rr_old = float(r @ r), rr
        p *= rr / rr_old
        p += r
    raise RuntimeError("conjugate gradients did not converge")


def conserved_F(sys: SystemMatrices, y: np.ndarray, ydot: np.ndarray):
    """F = (1/2) y^T P y + (1/2) ydot^T A^+ ydot, constant along trajectories.

    ``y`` and ``ydot`` are one (N,) state, whose F is a float, or (N, k)
    blocks of k states, whose F values come back as a (k,) array from one
    block solve.
    """
    return (0.5 * np.sum(y * project_range(sys, y), axis=0)
            + 0.5 * np.sum(ydot * pinv_apply(sys, ydot), axis=0))
