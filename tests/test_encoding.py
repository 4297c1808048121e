import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import jv

from qenm import encoding, enm, oracles, output
from qenm.circuits import simulate
from qenm.lattice import SPARSITY, LatticeSpec, neighbor


@pytest.fixture(scope="module")
def small_sheet():
    return enm.build_system(LatticeSpec(2, 1))


def thermalish_ics(sys, seed=0, displaced=2, axes=2):
    rng = np.random.default_rng(seed)
    phys = np.flatnonzero(sys.physical)
    x0 = np.zeros((axes, sys.n))
    xdot0 = np.zeros((axes, sys.n))
    x0[:, phys[:displaced]] = rng.normal(0.0, 0.1, (axes, displaced))
    xdot0[:, phys] = rng.normal(0.0, 1.0, (axes, phys.size))
    return x0, xdot0


# -- standard encoding ------------------------------------------------------------

def test_standard_velocity_only_population(small_sheet):
    sys = small_sheet
    _, xdot0 = thermalish_ics(sys, displaced=0)
    st = encoding.prepare_standard(sys, np.zeros_like(xdot0), xdot0)
    assert np.all(st.tensor[:, 1] == 0)
    assert st.norm() == pytest.approx(1.0, abs=1e-12)
    assert st.aa_round_estimate == 1      # no amplification needed


def test_standard_single_stretched_bond():
    kappa, delta = 2.0, 0.3
    sys = enm.system_from_bonds(2, [(0, 1)], kappa=kappa)
    st = encoding.prepare_standard(sys, np.array([[delta, 0.0]]), np.zeros((1, 2)))
    energy = 0.5 * kappa * delta**2
    assert st.norm_constant == pytest.approx(energy)
    amp = st.tensor[0, 1, 0, 1]
    assert amp == pytest.approx(1j * math.sqrt(kappa) * delta / math.sqrt(2 * energy))
    assert st.norm() == pytest.approx(1.0, abs=1e-12)


def test_standard_rejects_zero_energy(small_sheet):
    z = np.zeros((2, small_sheet.n))
    with pytest.raises(ValueError):
        encoding.prepare_standard(small_sheet, z, z)


def test_standard_matches_eq6_layout(small_sheet):
    sys = small_sheet
    x0, xdot0 = thermalish_ics(sys, seed=3)
    st = encoding.prepare_standard(sys, x0, xdot0)
    scale = math.sqrt(2.0 * st.norm_constant)
    sqrt_m = np.sqrt(sys.masses)
    assert np.allclose(st.tensor[0, 0, :, 0] * scale, sqrt_m * xdot0[0])
    for j, k in sys.pairs:
        assert st.tensor[1, 1, j, k] * scale == pytest.approx(
            1j * math.sqrt(sys.kappa[j, k]) * (x0[1, j] - x0[1, k]))



def _standard_of_one_state(sys, x0, xdot0):
    """The amplitudes and energy of one (D, N) state by the formula ``prepare_standard``
    had before it took ``standard_amplitudes``: its energy through ``enm.potential_energy``."""
    kinetic = 0.5 * float(np.sum(sys.masses * xdot0**2))
    energy = kinetic + enm.potential_energy(sys, x0)
    j, k = sys.bonds.T
    amps = np.empty((len(x0), sys.n + len(j)), dtype=complex)
    amps[:, :sys.n] = np.sqrt(sys.masses) * xdot0
    amps[:, sys.n:] = 1j * np.sqrt(sys.coupling) * (x0[:, j] - x0[:, k])
    amps /= math.sqrt(2.0 * energy)
    return amps, energy


@pytest.mark.parametrize("shape", [(2, 1), (3, 2), (4, 4)])
def test_standard_amplitudes_of_a_block_are_those_of_each_sample(shape):
    # simulate's references: one encoding of a block of classical samples, strided rows of
    # the trajectory, has every bit of each sample's own encoding, the signs of zeros included
    sys = enm.build_system(LatticeSpec(*shape))
    x0, xdot0 = thermalish_ics(sys, seed=5, displaced=4)
    traj = enm.evolve_classical(sys, x0, xdot0, np.linspace(0.0, 6.0, 7))
    amps, energy = encoding.standard_amplitudes(sys, traj.x[2:6], traj.xdot[2:6])
    assert amps.shape == (4, 2, sys.n + len(sys.bonds)) and energy.shape == (4,)
    for i, ti in enumerate(range(2, 6)):
        want, e = _standard_of_one_state(sys, traj.x[ti], traj.xdot[ti])
        st = encoding.prepare_standard(sys, traj.x[ti], traj.xdot[ti])
        for got in (amps[i], st.amps):
            assert np.array_equal(got.view(float), want.view(float))
            assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))
        assert energy[i] == st.norm_constant == e


def test_standard_amplitudes_refuse_a_block_with_a_zero_energy_sample(small_sheet):
    sys = small_sheet
    x0, xdot0 = thermalish_ics(sys, seed=2)
    x, xdot = np.stack([x0, x0, x0]), np.stack([xdot0, xdot0, xdot0])
    x[1] = np.where(sys.physical, 0.1, 0.0)         # a rigid translation, at rest
    xdot[1] = 0.0
    with pytest.raises(ValueError, match="zero-energy state has no encoding"):
        encoding.standard_amplitudes(sys, x, xdot)
    with pytest.raises(ValueError, match="zero-energy state has no encoding"):
        encoding.prepare_standard(sys, x[1], xdot[1])

# -- evolution ----------------------------------------------------------------------

def test_evolution_t0_identity(small_sheet):
    x0, xdot0 = thermalish_ics(small_sheet)
    st = encoding.prepare_standard(small_sheet, x0, xdot0)
    bh = encoding.build_block_H(small_sheet)
    st2, = encoding.evolve_exact(st, bh, [0.0])
    assert np.abs(st2.tensor - st.tensor).max() <= 1e-14


def test_quantum_classical_trajectory_equivalence(small_sheet):
    sys = small_sheet
    x0, xdot0 = thermalish_ics(sys, seed=5)
    ts = np.linspace(0.0, 8.0, 60)
    traj = enm.evolve_classical(sys, x0, xdot0, ts)
    st0 = encoding.prepare_standard(sys, x0, xdot0)
    bh = encoding.build_block_H(sys)
    worst = 0.0
    for ti, st in enumerate(encoding.evolve_exact(st0, bh, ts)):
        ref = encoding.prepare_standard(sys, traj.x[ti], traj.xdot[ti])
        worst = max(worst, float(np.abs(st.tensor - ref.tensor).max()))
    assert worst <= 1e-8


SERIES_TOL = 1e-10      # series vs dense-eig evolution, max amplitude difference


@pytest.mark.parametrize("spec", [LatticeSpec(2, 1), LatticeSpec(2, 2)])
@pytest.mark.parametrize("tag", ["standard", "alternative"])
def test_series_evolution_matches_dense_reference(spec, tag):
    sys = enm.build_system(spec)
    x0, xdot0 = thermalish_ics(sys, seed=21, displaced=3, axes=2 if tag == "standard" else 1)
    if tag == "standard":
        st0 = encoding.prepare_standard(sys, x0, xdot0)
    else:
        st0 = encoding.prepare_alternative(sys, x0[0], xdot0[0])
    bh = encoding.build_block_H(sys)
    worst = 0.0
    ts = np.linspace(-5.0, 40.0, 46)
    for t, got in zip(ts, encoding.evolve_exact(st0, bh, ts)):
        ref = encoding.evolve_dense(st0, bh, t).amps
        worst = max(worst, float(np.abs(got.amps - ref).max()))
    assert worst <= SERIES_TOL


@pytest.mark.parametrize("grid", [np.array([]), 1.5, np.ones((2, 3))])
def test_evolve_exact_rejects_a_grid_that_is_not_1d(small_sheet, grid):
    x0, xdot0 = thermalish_ics(small_sheet, seed=2)
    st0 = encoding.prepare_standard(small_sheet, x0, xdot0)
    with pytest.raises(ValueError):
        encoding.evolve_exact(st0, encoding.build_block_H(small_sheet), grid)


@pytest.mark.parametrize("grid", [[7.5, -1.0, 3.0, 0.5], [-4.0, -0.5], [0.0],
                                  [2.0, 2.0, 5.0, 2.0], [6.0]],
                         ids=["unsorted", "negative", "zero", "repeated", "single"])
@pytest.mark.parametrize("tag", ["standard", "alternative"])
def test_evolve_exact_grid_matches_dense_reference(small_sheet, grid, tag):
    sys = small_sheet
    x0, xdot0 = thermalish_ics(sys, seed=23, displaced=3, axes=2 if tag == "standard" else 1)
    if tag == "standard":
        st0 = encoding.prepare_standard(sys, x0, xdot0)
    else:
        st0 = encoding.prepare_alternative(sys, x0[0], xdot0[0])
    bh = encoding.build_block_H(sys)
    states = list(encoding.evolve_exact(st0, bh, grid))
    assert len(states) == len(grid)
    for t, st in zip(grid, states):
        assert st.amps.shape == st0.amps.shape and st.tag == tag
        assert np.abs(st.amps - encoding.evolve_dense(st0, bh, t).amps).max() <= SERIES_TOL


class CountingMatrix:
    """Delegates the products of a bond operator, along any axis, and counts them."""

    def __init__(self, op):
        self.op, self.dtype, self.products = op, op.dtype, 0

    def apply(self, x, axis=0, out=None):
        self.products += 1
        return self.op.apply(x, axis, out)

    def __matmul__(self, other):
        return self.apply(other)


def test_evolve_exact_runs_one_recurrence_per_grid(small_sheet):
    x0, xdot0 = thermalish_ics(small_sheet, seed=6)
    st0 = encoding.prepare_standard(small_sheet, x0, xdot0)
    bh = encoding.build_block_H(small_sheet)
    counting = CountingMatrix(bh.H)
    grid = np.array([3.0, -9.5, 0.0, 4.25])
    states = encoding.evolve_exact(st0, replace(bh, H=counting), grid)
    degree = encoding.series_degree(bh.scale * 9.5)
    assert degree > 0 and counting.products == degree       # before any sample is taken
    assert len(list(states)) == len(grid) and counting.products == degree


def test_evolve_exact_size_mismatch_raises_at_the_call(small_sheet):
    x0, xdot0 = thermalish_ics(small_sheet, seed=3)
    st0 = encoding.prepare_standard(small_sheet, x0, xdot0)
    other = encoding.build_block_H(enm.build_system(LatticeSpec(2, 2)))
    with pytest.raises(ValueError, match="sizes differ"):
        encoding.evolve_exact(st0, other, [1.0, 2.0])


def test_evolve_grid_checks_its_inputs_and_runs_one_recurrence(small_sheet):
    x0, xdot0 = thermalish_ics(small_sheet, seed=6)
    st0 = encoding.prepare_standard(small_sheet, x0, xdot0)
    bh = encoding.build_block_H(small_sheet)
    for grid in (np.array([]), 1.5, np.ones((2, 3))):
        with pytest.raises(ValueError):
            encoding.evolve_grid(st0, bh, grid)
    other = encoding.build_block_H(enm.build_system(LatticeSpec(2, 2)))
    with pytest.raises(ValueError, match="sizes differ"):
        encoding.evolve_grid(st0, other, [1.0, 2.0])
    counting = CountingMatrix(bh.H)
    amps = encoding.evolve_grid(st0, replace(bh, H=counting), [3.0, -9.5, 0.0, 4.25])
    assert amps.shape == (4, *st0.amps.shape)
    assert counting.products == encoding.series_degree(bh.scale * 9.5)


GRIDS = {"default": (np.linspace(0.0, 6.0, 50), 1.0), "single": (np.array([2.5]), 1.0),
         "negative": (np.array([-4.0, 1.25, -0.5, 0.0]), 1.0),
         # the ripple window in physical units: carbon mass, 1000 ps, K = 985
         "physical": (np.linspace(0.0, 1000.0, 50), 12.0)}


@pytest.mark.parametrize("grid", GRIDS, ids=list(GRIDS))
@pytest.mark.parametrize("shape", [(2, 1), (3, 2), (4, 4)])
@pytest.mark.parametrize("tag", ["standard", "alternative"])
def test_evolve_grid_matches_evolve_exact(shape, grid, tag):
    times, mass = GRIDS[grid]
    sys = enm.build_system(LatticeSpec(*shape), mass=mass)
    x0, xdot0 = thermalish_ics(sys, seed=11, axes=2 if tag == "standard" else 1)
    if tag == "standard":
        st0 = encoding.prepare_standard(sys, x0, xdot0)
    else:
        st0 = encoding.prepare_alternative(sys, x0[0], xdot0[0])
    bh = encoding.build_block_H(sys)
    if grid == "physical":
        assert encoding.series_degree(bh.scale * times[-1]) == 985
    want = np.stack([st.amps for st in encoding.evolve_exact(st0, bh, times)])
    got = encoding.evolve_grid(st0, bh, times)
    assert got.shape == (len(times), *st0.amps.shape)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_evolve_grid_copies_no_basis():
    # the product reads the basis in place: the peak holds the basis, the grid and the
    # (K + 1, T) coefficients, and a second basis would not fit beside them
    sys = enm.build_system(LatticeSpec(4, 4))
    x0, xdot0 = thermalish_ics(sys, seed=4, axes=1)
    st0 = encoding.prepare_alternative(sys, x0[0], xdot0[0])
    bh = encoding.build_block_H(sys)
    times = np.linspace(0.0, 60.0, 20)
    terms = encoding.series_degree(bh.scale * times[-1]) + 1
    basis_bytes = terms * st0.amps.nbytes
    tracemalloc.start()
    try:
        grid = encoding.evolve_grid(st0, bh, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    coeff_bytes = terms * len(times) * 16
    assert basis_bytes > 4 * (grid.nbytes + 4 * coeff_bytes)
    assert peak <= 1.5 * basis_bytes + grid.nbytes + 4 * coeff_bytes


@pytest.mark.parametrize("shape", [(3, 2), (4, 4)])
@pytest.mark.parametrize("kind", ["classical", "quantum"])
def test_series_runs_of_two_or_more_samples_match_the_whole_read(kind, shape):
    # validate's blocks of classical samples concatenate to the whole trajectory bit for bit
    sys = enm.build_system(LatticeSpec(*shape))
    x0, xdot0 = thermalish_ics(sys, seed=13)
    times = np.linspace(0.0, 8.0, 12)
    if kind == "classical":
        series = enm.classical_series(sys, x0, xdot0, times)
    else:
        series = encoding.jacobi_anger(encoding.prepare_standard(sys, x0, xdot0),
                                       encoding.build_block_H(sys), times)
    whole = series.read(0, len(times))
    for start in range(len(times) - 1):
        for stop in range(start + 2, len(times) + 1):
            assert np.array_equal(series.read(start, stop), whole[start:stop]), (start, stop)



@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("displaced", [0, 2], ids=["at-rest", "displaced"])
def test_blocked_reads_of_the_quantum_series_equal_evolve_grid(seed, displaced):
    # simulate-4x4's grid: a read of 2 to 16 samples from any start, each tail included, has
    # evolve_grid's bits, and so do simulate's blocks; one-sample reads may round differently
    sys = enm.build_system(LatticeSpec(4, 4))
    x0, xdot0 = thermalish_ics(sys, seed=seed, displaced=displaced)
    st0 = encoding.prepare_standard(sys, x0, xdot0)
    bh = encoding.build_block_H(sys)
    times = np.linspace(0.0, 6.0, 50)
    grid = encoding.evolve_grid(st0, bh, times)
    series = encoding.jacobi_anger(st0, bh, times)
    for size in range(2, 17):
        for start in range(len(times) - 1):
            stop = min(start + size, len(times))
            assert np.array_equal(series.read(start, stop), grid[start:stop]), (size, start)
        blocks = encoding.sample_blocks(len(times), encoding.BLOCK_BYTES // size)
        assert np.array_equal(np.concatenate([series.read(*b) for b in blocks]), grid)
    assert np.array_equal(series.read(0, len(times)), grid)


@pytest.mark.parametrize("size", range(2, 17))
def test_sample_blocks_split_the_grid_evenly_and_never_leave_one_sample(size):
    sample_bytes = encoding.BLOCK_BYTES // size
    cap = encoding.BLOCK_BYTES // sample_bytes
    for samples in range(1, 70):
        blocks = encoding.sample_blocks(samples, sample_bytes)
        sizes = [stop - start for start, stop in blocks]
        assert blocks[0][0] == 0 and blocks[-1][1] == samples
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert max(sizes) - min(sizes) <= 1
        assert min(sizes) >= 2 or samples == 1
        # two samples a block leaves one block of three on an odd grid
        assert max(sizes) <= cap or (cap == 2 and samples % 2 and max(sizes) == 3)
    assert encoding.sample_blocks(0, sample_bytes) == []
    assert encoding.sample_blocks(50, encoding.BLOCK_BYTES + 1) == [
        (2 * i, 2 * i + 2) for i in range(25)]

def _operator(m):
    rows, cols = np.nonzero(m)
    return enm.BondOperator(rows, cols, m[rows, cols], m.shape)


def test_chebyshev_basis_matches_numpy_chebyshev():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(6, 6))
    S = m + m.T
    S /= 1.05 * np.linalg.norm(S, 2)            # spectrum inside [-1, 1]
    block = rng.normal(size=(3, 6))             # three vectors, sites last
    degree = 9
    w, v = np.linalg.eigh(S)
    vander = np.polynomial.chebyshev.chebvander(w, degree)     # T_k(w_i) at [i, k]
    expect = np.stack([(v @ (vander[:, k, None] * (v.T @ block.T))).T
                       for k in range(degree + 1)])
    basis = enm.chebyshev_basis(_operator(S), block, degree)
    assert basis.shape == (degree + 1, 3, 6)
    assert np.abs(basis - expect).max() <= 1e-12
    scaled = enm.chebyshev_basis(_operator(3.0 * S), block[0], degree, scale=3.0)
    assert np.abs(scaled - expect[:, 0]).max() <= 1e-12
    assert enm.chebyshev_basis(_operator(S), block, 0).shape == (1, 3, 6)
    # into the caller's array through a transposed view, as classical_series writes its terms
    out = np.empty((3, degree + 1, 6))
    into = enm.chebyshev_basis(_operator(S), block, degree, out=out.transpose(1, 0, 2))
    assert into.base is out and np.array_equal(out.transpose(1, 0, 2), basis)


def _site_first_basis(S, block, degree, scale=1.0):
    """T_k(S / scale) of an (M, cols) block by products ``S @``, as the recurrence ran before
    it worked along the site axis: (degree + 1, M, cols)."""
    basis = np.empty((degree + 1, *block.shape), dtype=np.result_type(S.dtype, block.dtype))
    basis[0] = block
    if degree >= 1:
        basis[1] = S @ block
        basis[1] /= scale
    for k in range(2, degree + 1):
        basis[k] = S @ basis[k - 1]
        basis[k] *= 2.0 / scale
        basis[k] -= basis[k - 2]
    return basis


@pytest.mark.parametrize("shape", [(2, 1), (3, 2), (4, 4), (5, 5)])
def test_classical_terms_equal_the_site_first_recurrence_bit_for_bit(shape):
    sys = enm.build_system(LatticeSpec(*shape))
    x0, xdot0 = thermalish_ics(sys, seed=17)
    times = np.linspace(0.0, 10.0, 200)
    lam_bar = enm.gershgorin_bound(sys)
    degree = enm.chebyshev_degree(lam_bar, 10.0)
    L = sys.op_L
    S = enm.BondOperator(L.rows, L.cols, (2.0 / lam_bar) * L.vals - (L.rows == L.cols), L.shape)
    # (K + 1, N, 2D), column 2a of x0[a] and 2a + 1 of xdot0[a], laid out as the terms
    old = _site_first_basis(S, np.stack([x0, xdot0], axis=1).reshape(-1, sys.n).T, degree)
    old = old.reshape(degree + 1, sys.n, 2, 2).transpose(3, 0, 2, 1).reshape(-1, 2, sys.n)
    assert np.array_equal(enm.classical_series(sys, x0, xdot0, times).terms, old)


def test_quantum_terms_equal_the_site_first_recurrence_bit_for_bit():
    sys = enm.build_system(LatticeSpec(3, 2))
    x0, xdot0 = thermalish_ics(sys, seed=19)
    st0 = encoding.prepare_standard(sys, x0, xdot0)
    bh = encoding.build_block_H(sys)
    times = np.linspace(0.0, 6.0, 50)
    degree = encoding.series_degree(bh.scale * 6.0)
    old = _site_first_basis(bh.H, st0.amps.T, degree, bh.scale)       # (K + 1, N + P, D)
    terms = encoding.jacobi_anger(st0, bh, times).terms
    assert terms.dtype == complex and np.array_equal(terms, old.transpose(0, 2, 1))


def test_series_degree_bounds_the_jacobi_anger_tail():
    assert encoding.series_degree(0.0) == 0
    degrees = []
    for tau in (-30.0, -2.5, 1e-3, 0.5, 1.0, 7.3, 30.0, 98.0):
        deg = encoding.series_degree(tau)
        tail = 2.0 * np.abs(jv(np.arange(deg + 1, deg + 200), tau)).sum()
        assert tail <= encoding.SERIES_EPS
        assert deg + 2 >= abs(tau)
        degrees.append(deg)
    assert degrees[2:] == sorted(degrees[2:])
    assert encoding.series_degree(-7.3) == encoding.series_degree(7.3)


BESSEL_TAUS = [0.0, 1e-3, -1e-3, 2.45, 14.7, -23.3, 24.5, 707.0, 4000.0]


@pytest.mark.parametrize("tau", BESSEL_TAUS)
def test_bessel_j_matches_scipy(tau):
    degree = encoding.series_degree(abs(tau))
    got = encoding.bessel_j(degree, np.array([tau]))
    assert got.shape == (degree + 1, 1)
    err = np.abs(got[:, 0] - jv(np.arange(degree + 1), tau)).max()
    assert err <= (1e-15 if abs(tau) <= 25.0 else 1e-13)


def test_bessel_j_on_one_grid_at_the_largest_degree():
    # evolve_exact takes every sample's values to the degree of the longest time, and a time
    # below 2^-30 (there J_k = (tau/2)^k / k!) must neither overflow nor divide by zero
    taus = np.array([*BESSEL_TAUS, -1e-200, 1e-12, 5e-9])
    degree = encoding.series_degree(4000.0)
    got = encoding.bessel_j(degree, taus)
    assert np.isfinite(got).all()
    assert np.abs(got - jv(np.arange(degree + 1)[:, None], taus)).max() <= 1e-13
    # orders far below |tau| start their recurrence past |tau|, not past the degree
    assert np.abs(encoding.bessel_j(3, taus) - jv(np.arange(4)[:, None], taus)).max() <= 1e-13


def test_block_H_matches_csr_bmat():
    from scipy import sparse
    rng = np.random.default_rng(12)
    for n_r in range(2, 6):
        for n_c in range(1, 6):
            sys = enm.build_system(LatticeSpec(n_r, n_c))
            if len(sys.bonds) == 0:
                continue
            B = sys.sparse_B
            want_H = -sparse.bmat([[None, B], [B.T, None]], format="csr")
            H = encoding.build_block_H(sys).H
            assert H.shape == want_H.shape
            for shape in ((H.shape[0],), (H.shape[0], 3)):
                for x in (rng.normal(size=shape),
                          rng.normal(size=shape) + 1j * rng.normal(size=shape)):
                    want = want_H @ x
                    got = H @ x
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_tensor_scatters_amps_into_padded_layout(small_sheet):
    sys = small_sheet
    x0, xdot0 = thermalish_ics(sys, seed=4, displaced=4)
    st = encoding.prepare_standard(sys, x0, xdot0)
    n = sys.n
    expect = np.zeros((st.axes, 2, n, n), dtype=complex)
    for a in range(st.axes):
        for j in range(n):
            expect[a, 0, j, 0] = st.amps[a, j]
        for col, (j, k) in enumerate(sys.pairs):
            expect[a, 1, j, k] = st.amps[a, n + col]
    padded = st.tensor
    assert padded.shape == (2, 2, n, n)
    assert np.array_equal(padded, expect)
    assert not padded.flags.writeable
    assert np.count_nonzero(padded) == np.count_nonzero(st.amps)


def test_norm_preserved_over_many_times(small_sheet):
    x0, xdot0 = thermalish_ics(small_sheet, seed=8)
    st0 = encoding.prepare_standard(small_sheet, x0, xdot0)
    bh = encoding.build_block_H(small_sheet)
    drift = max(abs(st.norm() - 1.0)
                for st in encoding.evolve_exact(st0, bh, np.linspace(0.0, 40.0, 1000)))
    assert drift <= 1e-10


@pytest.mark.parametrize("tag", ["standard", "alternative"])
def test_schrodinger_finite_difference_order(small_sheet, tag):
    # centered difference of the evolved state converges to -iH psi at order 2
    sys = small_sheet
    x0, xdot0 = thermalish_ics(sys, seed=9, axes=2 if tag == "standard" else 1)
    if tag == "standard":
        st0 = encoding.prepare_standard(sys, x0, xdot0)
    else:
        st0 = encoding.prepare_alternative(sys, x0[0], xdot0[0])
    bh = encoding.build_block_H(sys)
    t0 = 1.0
    psi_t, = encoding.evolve_exact(st0, bh, [t0])
    Hd = bh.dense()
    rhs = np.concatenate([-1j * (Hd @ psi_t.tensor[a].reshape(-1))
                          for a in range(psi_t.axes)])
    errors = []
    for dt in (1e-2, 5e-3):
        plus, minus = encoding.evolve_exact(st0, bh, [t0 + dt, t0 - dt])
        diff = np.concatenate([
            (plus.tensor[a].reshape(-1) - minus.tensor[a].reshape(-1)) / (2 * dt)
            for a in range(psi_t.axes)])
        errors.append(float(np.linalg.norm(diff - rhs)))
    order = math.log2(errors[0] / errors[1])
    assert abs(order - 2.0) <= 0.2


# -- block Hamiltonian structure -------------------------------------------------------

def test_block_h_hermitian_and_entries(small_sheet):
    bh = encoding.build_block_H(small_sheet)
    Hd = bh.dense()
    assert np.abs(Hd - Hd.T).max() <= 1e-12
    nz = np.abs(Hd[np.abs(Hd) > 0])
    assert np.allclose(nz, 1.0)   # kappa = m = 1
    assert bh.scale == pytest.approx(math.sqrt(6.0))


def test_block_h_eigenvalues_pair_with_sqrt_lattice_spectrum(small_sheet):
    bh = encoding.build_block_H(small_sheet)
    w = np.sort(np.linalg.eigvalsh(bh.H_active))
    assert np.allclose(w, -w[::-1], atol=1e-12)  # symmetric +- pairs
    lam = np.linalg.eigvalsh(small_sheet.A)
    nz_h = np.unique(np.round(np.abs(w[np.abs(w) > 1e-9]), 9))
    nz_a = np.unique(np.round(np.sqrt(lam[lam > 1e-9]), 9))
    assert np.allclose(nz_h, nz_a)


def test_block_h_requires_uniform_system():
    sys = enm.system_from_bonds(3, [(0, 1), (1, 2)])
    sys.masses[0] = 7.0
    with pytest.raises(ValueError):
        encoding.build_block_H(sys)


def test_block_h_compares_couplings_relative_to_their_size():
    sys = enm.system_from_bonds(3, [(0, 1), (1, 2)], kappa=[1e-9, 3e-9])
    with pytest.raises(ValueError, match="uniform coupling"):
        encoding.build_block_H(sys)


# -- alternative encoding ---------------------------------------------------------------

def test_alternative_velocity_free(small_sheet):
    sys = small_sheet
    rng = np.random.default_rng(12)
    phys = np.flatnonzero(sys.physical)
    x0 = np.zeros(sys.n)
    x0[phys] = rng.normal(0.0, 0.2, phys.size)
    st = encoding.prepare_alternative(sys, x0, np.zeros(sys.n))
    assert np.all(st.tensor[0, 1] == 0)
    y = np.sqrt(sys.masses) * x0
    py = enm.project_range(sys, y)
    expect = py / np.linalg.norm(py)
    assert np.allclose(st.tensor[0, 0, :, 0].real, expect, atol=1e-12)


def test_projector_kills_uniform_vector(small_sheet):
    ones = np.ones(small_sheet.n)
    assert np.linalg.norm(enm.project_range(small_sheet, ones)) <= 1e-10 * math.sqrt(small_sheet.n)


def test_pseudo_inverse_reconstruction(small_sheet):
    sys = small_sheet
    rng = np.random.default_rng(13)
    phys = np.flatnonzero(sys.physical)
    ydot = np.zeros(sys.n)
    ydot[phys] = rng.normal(0.0, 1.0, phys.size)
    pair = sys.B.T @ enm.pinv_apply(sys, ydot)    # B^+ P ydot
    assert np.abs(sys.B @ pair - enm.project_range(sys, ydot)).max() <= 1e-9


def test_alternative_evolution_tracks_classical(small_sheet):
    sys = small_sheet
    rng = np.random.default_rng(14)
    phys = np.flatnonzero(sys.physical)
    x0 = np.zeros(sys.n)
    xdot0 = np.zeros(sys.n)
    x0[phys] = rng.normal(0.0, 0.2, phys.size)
    xdot0[phys] = rng.normal(0.0, 1.0, phys.size)
    ts = np.linspace(0.0, 7.0, 30)
    traj = enm.evolve_classical(sys, x0, xdot0, ts)
    st0 = encoding.prepare_alternative(sys, x0, xdot0)
    bh = encoding.build_block_H(sys)
    worst = 0.0
    for ti, st in enumerate(encoding.evolve_exact(st0, bh, ts)):
        ref = encoding.prepare_alternative(sys, traj.x[ti, 0], traj.xdot[ti, 0])
        worst = max(worst, float(np.abs(st.tensor - ref.tensor).max()))
    assert worst <= 1e-8


def test_alternative_first_block_weight(small_sheet):
    sys = small_sheet
    rng = np.random.default_rng(15)
    phys = np.flatnonzero(sys.physical)
    x0 = np.zeros(sys.n)
    x0[phys] = rng.normal(0.0, 0.2, phys.size)
    xdot0 = np.zeros(sys.n)
    xdot0[phys] = rng.normal(0.0, 0.5, phys.size)
    st = encoding.prepare_alternative(sys, x0, xdot0)
    y = np.sqrt(sys.masses) * x0
    expect = float(y @ enm.project_range(sys, y)) / (2.0 * st.norm_constant)
    got = float(np.sum(np.abs(st.tensor[0, 0, :, 0]) ** 2))
    assert got == pytest.approx(expect, abs=1e-12)


# -- amplitude amplification bookkeeping ---------------------------------------------

def test_aa_rounds_velocity_only(small_sheet):
    assert encoding.aa_rounds(small_sheet, alpha=2.0, beta=0.0) == 1


def test_aa_rounds_graphene_sparsity(small_sheet):
    assert encoding.sparsity(small_sheet) == 3
    energy = 0.5 * 4.0 + 0.5 * 1.0 * 0.01    # not the real E; just exercises the formula
    rounds = encoding.aa_rounds(small_sheet, 2.0, 0.1, energy)
    expect = math.ceil(math.sqrt((4.0 + 2 * 3 * 0.01) / (2 * energy)))
    assert rounds == expect


def test_aa_rounds_requires_energy_with_displacements(small_sheet):
    with pytest.raises(ValueError):
        encoding.aa_rounds(small_sheet, 1.0, 1.0)


# -- doubled-mass axis encoding --------------------------------------------------------

def test_doubled_mass_spectrum_and_dynamics(small_sheet):
    doubled = encoding.doubled_mass_encoding(small_sheet)
    assert doubled.n == 2 * small_sheet.n
    assert np.all(doubled.kappa[0::2, 1::2] == 0)
    assert np.all(doubled.kappa[1::2, 0::2] == 0)
    w_single = np.linalg.eigvalsh(small_sheet.A)
    w_double = np.linalg.eigvalsh(doubled.A)
    assert np.allclose(np.sort(w_double), np.sort(np.concatenate([w_single, w_single])),
                       atol=1e-10)
    # x trajectory carried on even slots matches the per-axis system
    rng = np.random.default_rng(16)
    phys = np.flatnonzero(small_sheet.physical)
    x0 = np.zeros(small_sheet.n)
    x0[phys] = rng.normal(0.0, 0.1, phys.size)
    ts = np.linspace(0.0, 5.0, 11)
    traj_single = enm.evolve_classical(small_sheet, x0, np.zeros_like(x0), ts)
    x0d = np.zeros(doubled.n)
    x0d[0::2] = x0
    traj_double = enm.evolve_classical(doubled, x0d, np.zeros_like(x0d), ts)
    assert np.abs(traj_double.x[:, 0, 0::2] - traj_single.x[:, 0, :]).max() <= 1e-10


# -- circuit block encodings ------------------------------------------------------------

@pytest.mark.parametrize("spec", [LatticeSpec(2, 1), LatticeSpec(2, 2)])
def test_incidence_block_matches_expected(spec):
    # column j is +-1/sqrt(2d) on the row (min, max) of each valid bond of j, + where j is
    # the smaller end, re-derived here from the scalar neighbor rule
    n = spec.n_total
    expect = np.zeros((n * n, n))
    for j in range(n):
        for slot in range(SPARSITY):
            k, valid = neighbor(j, slot, spec)
            if valid:
                expect[min(j, k) * n + max(j, k), j] += ((1.0 if k >= j else -1.0)
                                                        / math.sqrt(2.0 * SPARSITY))
    got = oracles.incidence_block(oracles.incidence_block_circuit(spec), spec, np.arange(n))
    assert np.abs(got.toarray() - expect).max() <= 1e-10


def test_incidence_block_matches_dense_b(small_sheet):
    spec = small_sheet.spec
    circ = oracles.incidence_block_circuit(spec)
    bh = encoding.build_block_H(small_sheet)
    n = small_sheet.n
    bt = np.zeros((n * n, n))
    for col, (j, k) in enumerate(small_sheet.pairs):
        bt[j * n + k, j] = small_sheet.B[j, col]
        bt[j * n + k, k] = small_sheet.B[k, col]
    bt /= bh.scale
    got = oracles.incidence_block(circ, spec, np.arange(n))
    assert np.abs(got.toarray() - bt).max() <= 1e-10


def test_diffusion_projector_block():
    n = 3
    circ = oracles.diffusion_projector_circuit(n)
    for t_in in range(1 << n):
        state = simulate(circ, {"a": 0, "t": t_in})
        for t_out in range(1 << n):
            amp = state.amplitude({"a": 0, "t": t_out})
            expect = 1.0 if (t_in == 0 and t_out == 0) else 0.0
            assert amp == pytest.approx(expect, abs=1e-12)


def test_hamiltonian_block_full_entrywise(small_sheet):
    spec = small_sheet.spec
    n = small_sheet.n
    bh = encoding.build_block_H(small_sheet)
    circ = oracles.hamiltonian_block_circuit(spec)
    part, j, k = np.unravel_index(np.arange(2 * n * n), (2, n, n))
    got = oracles.hamiltonian_block(circ, spec, part, j, k)
    assert np.abs(got.toarray() - bh.dense() / bh.scale).max() <= 1e-10


def test_state_dump(tmp_path, small_sheet):
    x0, xdot0 = thermalish_ics(small_sheet)
    st = encoding.prepare_standard(small_sheet, x0, xdot0)
    path = tmp_path / "state.csv"
    output.dump_state_csv(st, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "axis,part,j,k,re,im"
    assert len(lines) > 1
    # the padded-tensor sweep is the reference: same rows, same order, same digits
    tensor = st.tensor
    expect = [f"{a},{part},{j},{k},{amp.real:.17g},{amp.imag:.17g}"
              for a in range(st.axes) for part in range(2)
              for j in range(st.n) for k in range(st.n)
              if abs(amp := tensor[a, part, j, k]) > 1e-12]
    assert lines[1:] == expect
