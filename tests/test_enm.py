import collections
import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from qenm import boltzmann, encoding, enm, linalg, output, reference
from qenm.lattice import LatticeSpec, adjacency, dummy_mask


@pytest.fixture(scope="module")
def sheet():
    return enm.build_system(LatticeSpec(3, 3))


def test_two_node_laplacian():
    sys = enm.system_from_bonds(2, [(0, 1)])
    assert sys.F.tolist() == [[1.0, -1.0], [-1.0, 1.0]]


def test_interior_diagonal_three_kappa(sheet):
    adj = adjacency(sheet.spec)
    interior = [j for j in range(sheet.n) if adj.valid[j].sum() == 3]
    assert interior
    for j in interior[:5]:
        assert sheet.F[j, j] == pytest.approx(3.0)


def test_factorizations(sheet):
    assert np.abs(sheet.B @ sheet.B.T - sheet.A).max() <= 1e-10
    sq = np.sqrt(sheet.masses)[:, None]
    assert np.abs((sq * sheet.B) @ (sq * sheet.B).T - sheet.F).max() <= 1e-10


def test_a_positive_semidefinite(sheet):
    assert np.linalg.eigvalsh(sheet.A)[0] >= -1e-10


def test_null_space_dimension_physical_block(sheet):
    phys = np.flatnonzero(sheet.physical)
    w = np.linalg.eigvalsh(sheet.A[np.ix_(phys, phys)])
    assert int((w <= 1e-9 * w[-1]).sum()) == 1


def test_incidence_column_order_and_signs():
    sys = enm.system_from_bonds(3, [(0, 1), (1, 2)], kappa=4.0, mass=1.0)
    assert sys.pairs == [(0, 1), (1, 2)]
    assert sys.B[0, 0] == pytest.approx(2.0)    # +sqrt(kappa/m_j) on j
    assert sys.B[1, 0] == pytest.approx(-2.0)   # -sqrt(kappa/m_k) on k


def test_bond_arrays_match_pair_scan(sheet):
    n = sheet.n
    scan = [(j, k) for j in range(n) for k in range(j + 1, n) if sheet.kappa[j, k] > 0.0]
    assert sheet.pairs == scan
    assert sheet.bonds.tolist() == [list(p) for p in scan]
    assert enm.pair_index(sheet, scan[::-1]).tolist() == list(range(len(scan)))[::-1]


def test_potential_energy_matches_bond_loop(sheet):
    rng = np.random.default_rng(2)
    x = rng.normal(0.0, 0.3, (3, sheet.n))
    bonds = [sheet.pairs[i] for i in rng.choice(len(sheet.pairs), 9)] + [(0, 5), (7, 2)]
    for subset in (None, bonds, ()):
        loop = 0.0
        for j, k in (sheet.pairs if subset is None else subset):
            loop += 0.5 * sheet.kappa[j, k] * float(np.sum((x[:, j] - x[:, k]) ** 2))
        assert reference.potential_energy(sheet, x, subset) == pytest.approx(loop, rel=1e-13,
                                                                             abs=0.0)
    assert reference.potential_energy(sheet, x[0]) == pytest.approx(
        reference.potential_energy(sheet, x[:1]), rel=1e-15)


def test_disconnected_warning():
    with pytest.warns(UserWarning, match="disconnected"):
        enm.system_from_bonds(4, [(0, 1)])


def test_rest_state_stays_at_rest():
    sys = enm.system_from_bonds(2, [(0, 1)])
    traj = enm.evolve_classical(sys, np.zeros(2), np.zeros(2), np.linspace(0, 5, 7))
    assert np.all(traj.x == 0.0) and np.all(traj.xdot == 0.0)


def test_two_mass_antisymmetric_mode():
    # closed form: opposite displacements +-a oscillate at omega = sqrt(2 kappa/m)
    kappa, mass, a = 3.0, 2.0, 0.4
    sys = enm.system_from_bonds(2, [(0, 1)], kappa=kappa, mass=mass)
    ts = np.linspace(0.0, 8.0, 160)
    traj = enm.evolve_classical(sys, [a, -a], [0.0, 0.0], ts)
    omega = np.sqrt(2.0 * kappa / mass)
    assert np.abs(traj.x[:, 0, 0] - a * np.cos(omega * ts)).max() <= 1e-12
    assert np.abs(traj.x[:, 0, 1] + a * np.cos(omega * ts)).max() <= 1e-12


def test_empty_time_grid_rejected():
    sys = enm.system_from_bonds(2, [(0, 1)])
    with pytest.raises(ValueError):
        enm.evolve_classical(sys, [0.0, 0.0], [0.0, 0.0], [])
    for times in (1.0, [[0.0, 1.0]]):
        with pytest.raises(ValueError, match="1-D"):
            enm.evolve_classical(sys, [0.0, 0.0], [0.0, 0.0], times)


def test_energy_conservation_long_run(sheet):
    rng = np.random.default_rng(11)
    phys = np.flatnonzero(sheet.physical)
    x0 = np.zeros((2, sheet.n))
    xdot0 = np.zeros((2, sheet.n))
    x0[:, phys] = rng.normal(0, 0.05, (2, phys.size))
    xdot0[:, phys] = rng.normal(0, 1.0, (2, phys.size))
    ts = np.linspace(0.0, 50.0, 1000)
    traj = enm.evolve_classical(sheet, x0, xdot0, ts)
    e0 = reference.total_energy(traj, 0)
    drift = max(abs(reference.total_energy(traj, ti) - e0) for ti in range(0, 1000, 37))
    assert drift / e0 <= 1e-9


def test_total_energy_of_many_samples_matches_the_bond_sums():
    # x^T F x over one op_F product of every sample, against the bond sums
    sys = _masses_sheet()
    rng = np.random.default_rng(29)
    x0, xdot0 = rng.normal(0.0, 0.3, (2, 3, sys.n))
    traj = enm.evolve_classical(sys, x0, xdot0, np.linspace(0.0, 5.0, 70))
    energy = reference.total_energy(traj, np.arange(70))
    ref = [enm.kinetic_energy_subset(traj, ti) + reference.potential_energy(traj.sys, traj.x[ti])
           for ti in range(70)]
    assert energy.shape == (70,) and energy == pytest.approx(ref, rel=1e-13)
    assert isinstance(reference.total_energy(traj, 7), float)
    assert reference.total_energy(traj, 7) == pytest.approx(ref[7], rel=1e-13)


def test_null_space_linear_motion():
    # uniform translation: both masses drift together, no oscillation
    sys = enm.system_from_bonds(2, [(0, 1)])
    ts = np.array([0.0, 2.0, 4.0])
    traj = enm.evolve_classical(sys, [0.0, 0.0], [0.5, 0.5], ts)
    assert np.abs(traj.x[:, 0, 0] - 0.5 * ts).max() <= 1e-12


def test_velocity_verlet_cross_check(sheet):
    rng = np.random.default_rng(4)
    phys = np.flatnonzero(sheet.physical)
    xdot0 = np.zeros((1, sheet.n))
    xdot0[0, phys] = rng.normal(0, 1.0, phys.size)
    x0 = np.zeros((1, sheet.n))
    dt, steps = 1e-3, 2000
    vv = reference.velocity_verlet(sheet, x0, xdot0, dt, steps)
    sp = enm.evolve_classical(sheet, x0, xdot0, vv.times)
    assert np.abs(vv.x - sp.x).max() <= 1e-4


def test_kinetic_subset_values():
    sys = enm.system_from_bonds(2, [(0, 1)], mass=3.0)
    traj = enm.evolve_classical(sys, [0.0, 0.0], [2.0, 0.0], [0.0])
    assert enm.kinetic_energy_subset(traj, 0, [0]) == pytest.approx(0.5 * 3.0 * 4.0)
    assert enm.kinetic_energy_subset(traj, 0, [1]) == pytest.approx(0.0, abs=1e-30)
    # zero displacements: K over all nodes equals the total energy
    assert enm.kinetic_energy_subset(traj, 0) == pytest.approx(reference.total_energy(traj, 0))


def test_potential_subset_values():
    sys = enm.system_from_bonds(2, [(0, 1)], kappa=5.0)
    traj = enm.evolve_classical(sys, [0.3, 0.0], [0.0, 0.0], [0.0])
    assert reference.potential_energy(traj.sys, traj.x[0]) == pytest.approx(0.5 * 5.0 * 0.09)
    traj0 = enm.evolve_classical(sys, [0.0, 0.0], [1.0, 0.0], [0.0])
    assert reference.potential_energy(traj0.sys, traj0.x[0]) == 0.0


def test_subset_partition_conserves_energy(sheet):
    rng = np.random.default_rng(2)
    phys = np.flatnonzero(sheet.physical)
    x0 = np.zeros((2, sheet.n))
    xdot0 = np.zeros((2, sheet.n))
    xdot0[:, phys] = rng.normal(0, 1.0, (2, phys.size))
    ts = np.linspace(0.0, 9.0, 12)
    traj = enm.evolve_classical(sheet, x0, xdot0, ts)
    e0 = reference.total_energy(traj, 0)
    half = phys[: phys.size // 2]
    rest = phys[phys.size // 2:]
    for ti in range(len(ts)):
        total = (enm.kinetic_energy_subset(traj, ti, half)
                 + enm.kinetic_energy_subset(traj, ti, rest)
                 + reference.potential_energy(traj.sys, traj.x[ti]))
        assert total == pytest.approx(e0, rel=1e-10)


def test_msd_values():
    sys = enm.system_from_bonds(2, [(0, 1)])
    traj = enm.evolve_classical(sys, [0.0, 0.0], [0.0, 0.0], [0.0])
    assert enm.msd_subset(traj, 0, [0, 1]) == 0.0
    traj.x[0, 0, 0] = 0.7
    assert enm.msd_subset(traj, 0, [0]) == pytest.approx(0.49)
    with pytest.raises(ValueError):
        enm.msd_subset(traj, 0, [])


@pytest.mark.parametrize("axes", [1, 2, 3])
def test_subset_sums_over_an_index_array_keep_the_bits_of_one_index(axes):
    # the reference is each sample's own sum, as these functions took it one index at a time
    sys = enm.build_system(LatticeSpec(4, 4), mass=12.0)
    rng = np.random.default_rng(axes)
    phys = np.flatnonzero(sys.physical)
    x0, xdot0 = rng.normal(0.0, 1.0, (2, axes, sys.n)) * sys.physical
    traj = enm.evolve_classical(sys, x0, xdot0, np.linspace(0.0, 6.0, 50))
    samples = np.arange(50)
    for nodes in (phys, phys[::3], rng.permutation(phys)[:17], phys[:1]):
        msd = [float(np.sum(traj.x[ti][:, nodes] ** 2)) / len(nodes) for ti in samples]
        kinetic = [0.5 * float(np.sum(sys.masses[nodes] * traj.xdot[ti][:, nodes] ** 2))
                   for ti in samples]
        assert enm.msd_subset(traj, samples, nodes).tolist() == msd
        assert [enm.msd_subset(traj, ti, nodes) for ti in samples] == msd
        assert enm.kinetic_energy_subset(traj, samples, nodes).tolist() == kinetic
        assert [enm.kinetic_energy_subset(traj, ti, nodes) for ti in samples] == kinetic
    whole = [0.5 * float(np.sum(sys.masses * traj.xdot[ti] ** 2)) for ti in samples]
    assert enm.kinetic_energy_subset(traj, samples).tolist() == whole
    assert isinstance(enm.msd_subset(traj, 3, phys), float)
    assert isinstance(enm.kinetic_energy_subset(traj, 3), float)


def test_b_factor_ratio():
    assert enm.b_factor(1.0) == pytest.approx(8.0 * np.pi**2)
    assert enm.b_factor(0.0) == 0.0


def test_pseudoinverse_trace_two_node():
    sys = enm.system_from_bonds(2, [(0, 1)])
    w = np.linalg.eigvalsh(sys.A)
    assert w == pytest.approx([0.0, 2.0], abs=1e-12)
    assert enm.pseudoinverse_trace(sys) == pytest.approx(0.5)


def test_condition_number_two_node():
    sys = enm.system_from_bonds(2, [(0, 1)])
    # single column, sigma_max = sigma_min = sqrt(2)
    assert enm.condition_number_B(sys) == pytest.approx(1.0)


def _full_band_graph():
    # sites 3 and 8 unbonded, bond (0, n-1) spans the whole band, masses differ
    rng = np.random.default_rng(5)
    n, isolated = 12, (3, 8)
    sites = [j for j in range(n) if j not in isolated]
    bonds = set(zip(sites, sites[1:])) | {(0, n - 1)}
    bonds |= {(j, k) for j in sites for k in sites if j < k and rng.random() < 0.3}
    physical = np.ones(n, dtype=bool)
    physical[list(isolated)] = False
    return enm.system_from_bonds(n, sorted(bonds), kappa=1.7,
                                 mass=rng.uniform(0.5, 12.0, n), physical=physical)


SPECTRUM_CASES = {
    **{f"sheet-{r}x{c}": (lambda r=r, c=c: enm.build_system(LatticeSpec(r, c)))
       for r, c in ((3, 2), (3, 3), (4, 3), (4, 4))},
    "sheet-3x3-heavy": lambda: enm.build_system(LatticeSpec(3, 3), kappa=2.0, mass=12.0),
    # lambda_max < 1: the nonzero cut must scale with the spectrum, not stop at 1e-9
    "sheet-3x2-soft": lambda: enm.build_system(LatticeSpec(3, 2), kappa=1e-8),
    "sheet-3x2-massive": lambda: enm.build_system(LatticeSpec(3, 2), mass=1e8),
    "graph-isolated-full-band": _full_band_graph,
    "chain-end-to-end-bond": lambda: enm.system_from_bonds(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5)], mass=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
}


@pytest.fixture(params=sorted(SPECTRUM_CASES))
def spectrum_system(request):
    return SPECTRUM_CASES[request.param]()


def test_eigenvalues_match_dense_eigvalsh(spectrum_system):
    w = reference.eigenvalues(spectrum_system)
    ref = np.linalg.eigvalsh(spectrum_system.A)
    assert w.shape == ref.shape and np.all(np.diff(w) >= 0)
    assert np.abs(w - ref).max() <= 1e-12 * ref[-1]


def test_condition_number_matches_svd(spectrum_system):
    sigma = np.linalg.svd(spectrum_system.B, compute_uv=False)
    nz = sigma[sigma > enm.RANK_RTOL * sigma[0]]
    assert enm.condition_number_B(spectrum_system) == pytest.approx(nz[0] / nz[-1], rel=1e-10)


def test_pseudoinverse_trace_matches_dense(spectrum_system):
    w = np.linalg.eigvalsh(spectrum_system.A)
    nz = w[w > enm.RANK_RTOL * w[-1]]
    assert enm.pseudoinverse_trace(spectrum_system) == pytest.approx(np.sum(1.0 / nz), rel=1e-10)


def test_eigenvalues_without_bonds_are_zero():
    with pytest.warns(UserWarning, match="disconnected"):
        sys = enm.system_from_bonds(5, [])
    assert reference.eigenvalues(sys).tolist() == [0.0] * 5
    assert enm.pseudoinverse_trace(sys) == 0.0
    assert enm.extreme_eigenvalues(sys).tolist() == [0.0] * 5
    assert enm.pinv_apply(sys, np.arange(1.0, 6.0)).tolist() == [0.0] * 5
    with pytest.raises(ValueError, match="no nonzero eigenvalue"):
        enm.condition_number_B(sys)


def _two_component_graph():
    # a bonded 4-site path and a bonded triangle, one unbonded site between them; masses differ
    bonds = [(0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (5, 7)]
    return enm.system_from_bonds(8, bonds, kappa=[1.0, 2.5, 0.7, 1.3, 3.0, 0.4],
                                 mass=[1.0, 2.0, 3.0, 1.5, 1.0, 4.0, 0.5, 2.0])


EXTREME_CASES = {
    **SPECTRUM_CASES,
    "two-node": lambda: enm.system_from_bonds(2, [(0, 1)]),
    "graph-two-components": _two_component_graph,
    "sheet-5x5": lambda: enm.build_system(LatticeSpec(5, 5)),
}


@pytest.mark.filterwarnings("ignore:physical subgraph is disconnected")
@pytest.mark.parametrize("case", sorted(EXTREME_CASES))
def test_extreme_eigenvalues_match_the_banded_solve(case):
    sys = EXTREME_CASES[case]()
    bonded = np.unique(sys.bonds)
    components = len(np.unique(sys.components[bonded]))
    k = min(components + 1, len(bonded) - 1)
    unbonded = sys.n - len(bonded)
    w, ends = reference.eigenvalues(sys), enm.extreme_eigenvalues(sys)
    assert ends.shape == (unbonded + k + 1,) and np.all(np.diff(ends) >= 0)
    assert np.abs(ends[:-1] - w[:unbonded + k]).max() <= 1e-10 * w[-1]
    assert abs(ends[-1] - w[-1]) <= 1e-10 * w[-1]
    # one null direction per connected component, unbonded sites included, and no more
    # (graph-two-components: the two bonded nulls, both inside the shift-invert solve, and site 4)
    assert len(ends) - len(enm.nonzero_eigenvalues(ends)) == len(np.unique(sys.components))


def test_lanczos_starts_are_identical_across_reruns(monkeypatch):
    # the starts are counter-based uniforms: no draw of numpy's generators moves them
    starts = []

    def recording(key, *shape):
        starts.append(boltzmann.prf_uniform(key, *shape))
        return starts[-1]

    monkeypatch.setattr(linalg, "prf_uniform", recording)
    runs = []
    for seed in (1, 2):
        np.random.seed(seed)
        np.random.default_rng(seed).uniform(size=3)
        runs.append(enm.extreme_eigenvalues(enm.build_system(LatticeSpec(4, 4))))
    assert [start.shape for start in starts] == [(434, 2), (434,)] * 2
    assert all(np.array_equal(a, b) for a, b in zip(starts[:2], starts[2:]))
    assert np.array_equal(runs[0], runs[1])


@pytest.mark.parametrize("k", [1, 2])
def test_top_ritz_values_of_a_doubled_top_eigenvalue(k):
    # T = diag(1, ..., 11, 11): one start column spans one direction of the eigenvalue 11, so
    # its Krylov space is invariant after 11 columns; a block of two finds both copies
    spectrum = np.append(np.arange(1.0, 12.0), 11.0)
    n = len(spectrum)
    start = boltzmann.prf_uniform(0, n, k)

    def solve(x):
        return spectrum[:, None] * x

    theta, converged = linalg._top_ritz_values(solve, start, n)
    assert converged and theta == pytest.approx([11.0] * k, abs=1e-13)
    for cap in range(k, n + 1):
        theta, converged = linalg._top_ritz_values(solve, start, cap)
        assert theta.shape == (k,) and np.all(np.diff(theta) >= 0)
        # a lower bound for the bisection of largest_eigenvalue, to rounding
        assert np.all(theta <= spectrum[-k:] * (1.0 + 4 * np.finfo(float).eps))
        assert converged == (cap >= {1: 11, 2: 12}[k])


@pytest.mark.filterwarnings("ignore:physical subgraph is disconnected")
@pytest.mark.parametrize("case", sorted(EXTREME_CASES))
def test_factored_trace_and_condition_number_match_the_banded_solve(case):
    sys = EXTREME_CASES[case]()
    nz = enm.nonzero_eigenvalues(reference.eigenvalues(sys))
    assert enm.pseudoinverse_trace(sys) == pytest.approx(np.sum(1.0 / nz), rel=1e-10)
    assert enm.condition_number_B(sys) == pytest.approx(np.sqrt(nz[-1] / nz[0]), rel=1e-10)


@pytest.mark.filterwarnings("ignore:physical subgraph is disconnected")
@pytest.mark.parametrize("case", sorted(EXTREME_CASES))
def test_condition_number_by_bisection_matches_the_banded_solve(case, monkeypatch):
    # two Lanczos steps converge only where A has at most two bonded sites
    monkeypatch.setattr(linalg, "LANCZOS_STEPS", 2)
    sys = EXTREME_CASES[case]()
    nz = enm.nonzero_eigenvalues(reference.eigenvalues(sys))
    assert enm.condition_number_B(sys) == pytest.approx(np.sqrt(nz[-1] / nz[0]), rel=1e-10)


@pytest.mark.parametrize("shape", [(2, 6), (8, 1)])
def test_condition_number_of_long_narrow_sheets_matches_the_banded_solve(shape):
    # the top of the spectrum is crowded: Lanczos for lambda_max stops after LANCZOS_STEPS
    # (it would need 74 steps at 2x6 and over 150 at 8x1) and bisection finishes it
    sys = enm.build_system(LatticeSpec(*shape))
    nz = enm.nonzero_eigenvalues(reference.eigenvalues(sys))
    assert enm.condition_number_B(sys) == pytest.approx(np.sqrt(nz[-1] / nz[0]), rel=1e-10)
    assert enm.pseudoinverse_trace(sys) == pytest.approx(np.sum(1.0 / nz), rel=1e-10)


def test_condition_number_matches_shift_invert_ends_at_6x6():
    sys = enm.build_system(LatticeSpec(6, 6))
    nz = enm.nonzero_eigenvalues(enm.extreme_eigenvalues(sys))
    assert enm.condition_number_B(sys) == pytest.approx(np.sqrt(nz[-1] / nz[0]), rel=1e-10)


@pytest.mark.filterwarnings("ignore:physical subgraph is disconnected")
def test_sheet_factor_entries_bounds_the_grounded_factor():
    # scaling checks every size against this bound before the first solve
    shapes = [(n_r, n_c) for n_r in range(1, 7) for n_c in range(1, 7)] + [(8, 1), (10, 1)]
    for shape in shapes:
        spec = LatticeSpec(*shape)
        factor = enm.build_system(spec)._grounded[1]
        bound = linalg.sheet_factor_entries(spec)
        assert factor.inv.size <= bound and factor.low.size <= bound, shape


@pytest.mark.parametrize("nodes", [1, 2, 30, 4000])
def test_chebyshev_coefficients_match_the_cosine_matrix(nodes):
    samples = np.random.default_rng(nodes).standard_normal((nodes, 5))
    theta = np.pi * (np.arange(nodes) + 0.5) / nodes
    k = np.arange(nodes)

    def reference(cosines):
        coeffs = cosines @ samples * (2.0 / nodes)
        coeffs[0] /= 2.0
        return coeffs

    got = enm.chebyshev_coefficients(samples)
    by_matrix = reference(np.cos(np.outer(k, theta)))
    # the matrix's own cos(k theta_j) loses digits as k theta_j grows; reduce the angle exactly
    exact = reference(np.cos(np.pi * (np.outer(k, 2 * k + 1) % (4 * nodes)) / (2 * nodes)))
    assert np.abs(got - by_matrix).max() <= 1e-12 * np.abs(by_matrix).max()
    assert np.abs(got - exact).max() <= 1e-14 * np.abs(exact).max()


def _evolve_per_sample(sys, x0, xdot0, times):
    # reference: mode amplitudes at one time, then two eigenvector mat-vecs, per sample and axis
    sp = reference.spectral(sys)
    omega = np.sqrt(np.maximum(sp.eigenvalues, 0.0))
    zero = sp.eigenvalues <= enm.RANK_RTOL * sp.eigenvalues[-1]
    sqrt_m = np.sqrt(sys.masses)
    xs = np.empty((len(times), len(x0), sys.n))
    vs = np.empty_like(xs)
    for a in range(len(x0)):
        cy = sp.eigenvectors.T @ (sqrt_m * x0[a])
        cv = sp.eigenvectors.T @ (sqrt_m * xdot0[a])
        for ti, t in enumerate(times):
            yt = np.cos(omega * t) * cy + np.sin(omega * t) / np.where(zero, 1.0, omega) * cv
            vt = -omega * np.sin(omega * t) * cy + np.cos(omega * t) * cv
            yt[zero] = cy[zero] + t * cv[zero]
            vt[zero] = cv[zero]
            xs[ti, a] = (sp.eigenvectors @ yt) / sqrt_m
            vs[ti, a] = (sp.eigenvectors @ vt) / sqrt_m
    return xs, vs


EVOLVE_CASES = {
    "sheet-3x2-D1": (lambda: enm.build_system(LatticeSpec(3, 2)), 1,
                     np.linspace(-3.0, 5.0, 17)),
    # sites 3 and 8 have no bond: their velocity rides the linear-in-t zero-mode branch
    "graph-unbonded-D2": (_full_band_graph, 2, np.array([0.0, -4.5, 0.3, 12.0, -0.01])),
    "chain-masses-D3": (lambda: enm.system_from_bonds(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5)], mass=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        3, np.array([-2.5, 0.0, 7.0, 0.1])),
}


@pytest.mark.parametrize("case", sorted(EVOLVE_CASES))
def test_evolve_classical_matches_per_sample_loop(case):
    make, d, ts = EVOLVE_CASES[case]
    sys = make()
    rng = np.random.default_rng(17)
    x0 = rng.normal(0.0, 0.2, (d, sys.n))
    xdot0 = rng.normal(0.0, 1.0, (d, sys.n))
    traj = enm.evolve_classical(sys, x0, xdot0, ts)
    ref_x, ref_v = _evolve_per_sample(sys, x0, xdot0, ts)
    assert traj.x.shape == traj.xdot.shape == (len(ts), d, sys.n)
    assert np.abs(traj.x - ref_x).max() <= 1e-12 * np.abs(ref_x).max()
    assert np.abs(traj.xdot - ref_v).max() <= 1e-12 * np.abs(ref_v).max()
    if case == "graph-unbonded-D2":
        for j in (3, 8):
            assert np.allclose(traj.x[:, :, j], x0[:, j] + ts[:, None] * xdot0[:, j],
                               rtol=0.0, atol=1e-12)


def _unequal_graph():
    # a ring of five with a chord: every mass and every coupling differs
    return enm.system_from_bonds(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)],
                                 kappa=[0.6, 1.4, 2.3, 0.9, 3.1, 1.7],
                                 mass=[1.0, 2.5, 0.7, 4.0, 1.6])


# validate's grid, a grid through negative times, and one sample
GRAM_GRIDS = {"validate": np.linspace(0.0, 10.0, 200), "negative": np.linspace(-7.0, 3.0, 57),
              "one-sample": np.array([2.5])}


@pytest.mark.parametrize("grid", sorted(GRAM_GRIDS))
@pytest.mark.parametrize("shape", [(2, 1), (3, 2), (4, 4), (5, 5), "graph"],
                         ids=["2x1", "3x2", "4x4", "5x5", "graph"])
def test_series_energies_match_total_energy_of_the_samples(shape, grid):
    sys = _unequal_graph() if shape == "graph" else enm.build_system(LatticeSpec(*shape))
    times = GRAM_GRIDS[grid]
    rng = np.random.default_rng(17)
    for d in (1, 2, 3):
        x, v = rng.normal(0.0, 0.3, (2, d, sys.n))
        # moving and displaced, at rest (validate's start: no x0 rows), and displaced alone
        for x0, xdot0 in ((x, v), (0.0 * x, v), (x, 0.0 * v)):
            energy = enm.series_energies(sys, enm.classical_series(sys, x0, xdot0, times))
            ref = reference.total_energy(enm.evolve_classical(sys, x0, xdot0, times),
                                   np.arange(times.size))
            e0 = reference.total_energy(enm.evolve_classical(sys, x0, xdot0, [0.0]), 0)
            assert energy.shape == (times.size,)
            assert np.abs(energy - ref).max() <= 1e-13 * e0


def test_series_energies_of_a_sheet_that_never_moves():
    sys = enm.build_system(LatticeSpec(3, 2))
    series = enm.classical_series(sys, np.zeros((2, sys.n)), np.zeros((2, sys.n)), [0.0, 1.0])
    assert np.array_equal(enm.series_energies(sys, series), [0.0, 0.0])



@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("shape, times", [((4, 4), np.linspace(0.0, 6.0, 50)),
                                          ((5, 5), np.linspace(0.0, 10.0, 200))],
                         ids=["simulate-4x4", "validate-5x5"])
def test_classical_series_of_a_start_at_rest_holds_half_the_terms(shape, times, seed):
    # a zero x0 (or xdot0) keeps none of its terms or coefficient rows, and every sample has
    # the bits of the whole series, whose zero rows add nothing
    sys = enm.build_system(LatticeSpec(*shape))
    phys = np.flatnonzero(sys.physical)
    v = np.zeros((2, sys.n))
    v[:, phys] = np.random.default_rng(seed).normal(0.0, 0.3, (2, phys.size))
    full = enm.classical_series(sys, v, v, times)       # both starts move: every row
    nodes = len(full.terms) // 2
    for x0, xdot0, half in ((0.0 * v, v, slice(nodes, None)), (v, 0.0 * v, slice(nodes))):
        series = enm.classical_series(sys, x0, xdot0, times)
        assert series.terms.shape == (nodes, 2, sys.n)
        assert np.array_equal(series.terms, full.terms[half])
        assert np.array_equal(series.coeffs, full.coeffs[half])
        terms = np.zeros_like(full.terms)
        terms[half] = series.terms
        whole = enm.ChebyshevSeries(full.coeffs, terms).read(0, len(times))
        assert np.array_equal(series.read(0, len(times)), whole)

def test_evolve_classical_single_sample_shape():
    sys = enm.system_from_bonds(3, [(0, 1), (1, 2)], mass=[1.0, 2.0, 3.0])
    x0 = np.array([[1.0, 0.0, -1.0], [0.5, 0.2, 0.0]])
    xdot0 = np.array([[0.0, 0.3, 0.0], [-1.0, 0.0, 1.0]])
    traj = enm.evolve_classical(sys, x0, xdot0, [1.5])
    assert traj.times.shape == (1,)
    assert traj.x.shape == traj.xdot.shape == (1, 2, 3)
    ref_x, ref_v = _evolve_per_sample(sys, x0, xdot0, [1.5])
    assert np.abs(traj.x - ref_x).max() <= 1e-12
    assert np.abs(traj.xdot - ref_v).max() <= 1e-12


def test_conserved_F_velocity_free():
    sys = enm.system_from_bonds(3, [(0, 1), (1, 2)])
    y = np.array([0.4, -0.1, 0.2])
    f = enm.conserved_F(sys, y, np.zeros(3))
    assert f == pytest.approx(0.5 * float(y @ enm.project_range(sys, y)))


def test_conserved_F_constant_along_trajectory(sheet):
    rng = np.random.default_rng(9)
    phys = np.flatnonzero(sheet.physical)
    x0 = np.zeros(sheet.n)
    xdot0 = np.zeros(sheet.n)
    x0[phys] = rng.normal(0, 0.1, phys.size)
    xdot0[phys] = rng.normal(0, 1.0, phys.size)
    ts = np.linspace(0.0, 20.0, 40)
    traj = enm.evolve_classical(sheet, x0, xdot0, ts)
    sq = np.sqrt(sheet.masses)
    fs = [enm.conserved_F(sheet, sq * traj.x[ti, 0], sq * traj.xdot[ti, 0])
          for ti in range(len(ts))]
    assert (max(fs) - min(fs)) / max(fs) <= 1e-8


@pytest.mark.filterwarnings("ignore:physical subgraph is disconnected")
@pytest.mark.parametrize("cg", [False, True], ids=["factor", "cg"])
@pytest.mark.parametrize("case", ["graph-two-components", "graph-isolated-full-band", "sheet-4x4"])
def test_range_operators_on_blocks_match_each_column(case, cg, monkeypatch):
    # validate's F-conservation takes its ten states as one (N, 10) block
    if cg:
        monkeypatch.setattr(linalg, "FACTOR_ENTRIES", 0)
    sys = EXTREME_CASES[case]()
    rng = np.random.default_rng(23)
    y, ydot = rng.normal(size=(2, sys.n, 5))
    proj = enm.project_range(sys, y)
    assert all(np.array_equal(proj[:, i], enm.project_range(sys, y[:, i])) for i in range(5))
    pinv = enm.pinv_apply(sys, ydot)
    for i in range(5):
        column = enm.pinv_apply(sys, ydot[:, i])
        assert np.abs(pinv[:, i] - column).max() <= 1e-12 * np.abs(column).max()
    f = enm.conserved_F(sys, y, ydot)
    assert f.shape == (5,)
    assert f == pytest.approx([enm.conserved_F(sys, y[:, i], ydot[:, i]) for i in range(5)],
                              rel=1e-12)


def test_thermal_pinv_quadratic_form_expectation(sheet):
    # E[ydot^T A+ ydot] = (k_B T / m) Tr(A+) for iid N(0, k_B T/m) components
    kbt_over_m = 0.8
    trace = enm.pseudoinverse_trace(sheet)
    rng = np.random.default_rng(21)
    samples = []
    for _ in range(2000):
        ydot = rng.normal(0.0, np.sqrt(kbt_over_m), sheet.n)
        samples.append(float(ydot @ enm.pinv_apply(sheet, ydot)))
    samples = np.array(samples)
    se = samples.std(ddof=1) / np.sqrt(len(samples))
    assert abs(samples.mean() - kbt_over_m * trace) <= 3.0 * se


def test_trajectory_csv(tmp_path):
    sys = enm.system_from_bonds(2, [(0, 1)])
    traj = enm.evolve_classical(sys, [0.1, -0.1], [0.0, 0.0], [0.0, 1.0])
    path = tmp_path / "traj.csv"
    output.dump_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,node,axis,x,xdot"
    assert len(lines) == 1 + 2 * 2
    assert path.read_bytes() == _reference_trajectory_csv(traj)


def _reference_trajectory_csv(traj):
    # one f-string per row: the bytes the writer must reproduce
    rows = ["t,node,axis,x,xdot\n"]
    for ti, t in enumerate(traj.times.tolist()):
        for a, axis in enumerate(traj.axes):
            for j in range(traj.x.shape[2]):
                xj, vj = float(traj.x[ti, a, j]), float(traj.xdot[ti, a, j])
                rows.append(f"{t:.17g},{j},{axis},{xj:.17g},{vj:.17g}\n")
    return "".join(rows).encode()


@pytest.mark.parametrize("times", [[0.0, 0.7, 1.3, 2.9], [0.5]], ids=["grid", "one-sample"])
def test_trajectory_csv_bytes_three_axes(tmp_path, sheet, times):
    rng = np.random.default_rng(4)
    assert sheet.n >= 12                      # node column of more than one digit
    traj = enm.evolve_classical(sheet, rng.normal(0.0, 1.0, (3, sheet.n)),
                                rng.normal(0.0, 1.0, (3, sheet.n)), times)
    path = tmp_path / "traj.csv"
    output.dump_trajectory_csv(traj, path)
    assert path.read_bytes() == _reference_trajectory_csv(traj)
    assert len(path.read_text().splitlines()) == 1 + len(times) * 3 * sheet.n


def test_trajectory_csv_bytes_of_edge_floats(tmp_path):
    edge = [-0.0, 5e-324, 1e-7, 0.1, 1e16, 1e17, 1.7976931348623157e308, float("nan"),
            float("inf")]
    values = np.array(edge + [-v for v in edge[1:]])          # 17 sites
    x = np.stack([values, values[::-1]])[None]                # (1, 2, 17)
    times = np.array([-0.0, 1e-7, 0.1, 1e17])
    # an axis name with % in it must reach the file as written
    traj = enm.Trajectory(times, np.repeat(x, 4, 0), np.repeat(-x, 4, 0), ("x", "y%"),
                          sys=None)                          # the writer reads no system
    path = tmp_path / "traj.csv"
    output.dump_trajectory_csv(traj, path)
    data = path.read_bytes()
    assert data == _reference_trajectory_csv(traj)
    assert b"\n-0,0,x,-0,0\n" in data and b",4.9406564584124654e-324," in data


def test_trajectory_csv_of_no_samples(tmp_path):
    empty = np.zeros((0, 2, 3))
    traj = enm.Trajectory(np.zeros(0), empty, empty, ("x", "y"), sys=None)
    path = tmp_path / "traj.csv"
    output.dump_trajectory_csv(traj, path)
    assert path.read_bytes() == b"t,node,axis,x,xdot\n"


def test_trajectory_csv_formats_one_sample_at_a_time():
    # samples of the 5x5 sheet, 2 axes x 2048 sites: formatting one costs about 1 MB at
    # peak, while all 64 converted to Python floats up front would take about 17 MB
    rng = np.random.default_rng(5)
    x = rng.normal(0.0, 1.0, (64, 2, 2048))
    traj = enm.Trajectory(np.linspace(0.0, 10.0, 64), x, -x, ("x", "y"), sys=None)
    tracemalloc.start()
    try:
        output.dump_trajectory_csv(traj, os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_trajectory_csv_memory_at_the_simulate_4x4_shape():
    # 51 samples x 2 axes x 512 sites: the formatter's temporaries and one block's rows
    x = np.random.default_rng(6).normal(0.0, 1.0, (51, 2, 512))
    traj = enm.Trajectory(np.linspace(0.0, 6.0, 51), x, -x, ("x", "y"), sys=None)
    output.dump_trajectory_csv(traj, os.devnull)        # the formatter's tables, built once
    tracemalloc.start()
    try:
        output.dump_trajectory_csv(traj, os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20


def _python_17g(values):
    return np.array([b"%.17g" % v for v in np.ravel(values).tolist()], dtype="S24")


def test_format_17g_random_bit_patterns():
    # every value formatted in numpy is checked; of those left to Python, which
    # formats them itself, every 8th, to keep the test near 2 s
    bits = np.random.default_rng(17).integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64)
    values = np.concatenate([bits.view(np.float64), [np.nan, -np.nan, np.inf, -np.inf]])
    rows, python = output.format_17g(values)
    assert rows.dtype == np.dtype("S24") and rows.shape == values.shape
    a = np.abs(values)
    exact = (a >= 1e-6) & (a < 1e17)              # -6 <= E <= 16: every one in numpy
    assert exact.sum() > 30_000 and np.array_equal(python, ~exact & (a > 0) | np.isnan(a))
    assert np.array_equal(rows[~python], _python_17g(values[~python]))
    checked = np.flatnonzero(python)[::8]
    assert np.array_equal(rows[checked], _python_17g(values[checked]))
    assert np.array_equal(rows[-4:], _python_17g(values[-4:]))


def test_format_17g_random_values_of_the_exact_range():
    # |v| from 10^-6 to 10^17, random signs: both forms of %g, every value in numpy
    rng = np.random.default_rng(18)
    values = 10.0 ** rng.uniform(-6.0, 17.0, 200_000) * rng.choice([-1.0, 1.0], 200_000)
    values = values[(np.abs(values) >= 1e-6) & (np.abs(values) < 1e17)]
    rows, python = output.format_17g(values)
    assert np.array_equal(rows, _python_17g(values))
    assert not python.any()


def _with_neighbours(values):
    values = np.asarray(values, dtype=float)
    values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("values", [
    _with_neighbours([float(f"1e{e}") for e in range(-323, 309)]),
    _with_neighbours([1e-5, 1e-4, 1e16, 1e17]),                 # where %g switches form
    [123456789012345.625, 123456789012345.875, -123456789012345.625],
    [1.0, -1.0, 2.0 ** 52, -2.0 ** 52, 0.0, -0.0, 5e-324, -5e-324,
     1.7976931348623157e308, -1.7976931348623157e308],
], ids=["powers-of-ten", "switch-points", "ties", "edges"])
def test_format_17g_equals_python(values):
    rows, python = output.format_17g(values)
    assert np.array_equal(rows, _python_17g(values))
    assert rows.tolist() == [b"%.17g" % v for v in np.ravel(values).tolist()]


def test_format_17g_ties_go_to_even_and_zeros_stay_in_numpy():
    rows, python = output.format_17g([123456789012345.625, 123456789012345.875, 0.0, -0.0])
    assert rows.tolist() == [b"123456789012345.62", b"123456789012345.88", b"0", b"-0"]
    assert not python.any()


def test_format_17g_of_trajectories():
    # a 4x4 thermal-like trajectory as it is (fixed form, almost all in numpy), near 1e-5
    # (the exponent form, partly below 1e-6) and in metres (all below 1e-6): bytes equal
    sys = enm.build_system(LatticeSpec(4, 4))
    rng = np.random.default_rng(8)
    traj = enm.evolve_classical(sys, rng.normal(0.0, 0.1, (2, sys.n)),
                                rng.normal(0.0, 1.0, (2, sys.n)), np.linspace(0.0, 6.0, 20))
    for scale in (1.0, 1e-5, 1e-10):
        values = scale * np.stack([traj.x, traj.xdot])
        rows, python = output.format_17g(values)
        assert np.array_equal(rows, _python_17g(values))
        a = np.abs(values).ravel()
        assert not python[(a >= 1e-6) & (a < 1e17)].any()
        if scale == 1.0:
            assert python.mean() <= 0.01


def test_format_17g_leaves_everything_to_python_on_a_big_endian_host(monkeypatch):
    values = np.array([0.1, -2.5e-300, 7.0, np.nan])
    monkeypatch.setattr(output.np, "little_endian", False)
    rows, python = output.format_17g(values)
    assert python.all()
    assert rows.tolist() == [b"0.10000000000000001", b"-2.5e-300", b"7", b"nan"]


LADDER = ((2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (5, 4), (5, 5))


@pytest.fixture(scope="module", params=LADDER, ids=[f"{r}x{c}" for r, c in LADDER])
def ladder_sheet(request):
    # module scope with one param at a time: each dense eigh runs once and is freed after
    return enm.build_system(LatticeSpec(*request.param))


def _masses_sheet():
    # the 3x3 sheet's bonds with a different mass on every site
    sheet = enm.build_system(LatticeSpec(3, 3))
    masses = np.random.default_rng(8).uniform(0.5, 12.0, sheet.n)
    return enm.system_from_bonds(sheet.n, sheet.pairs, kappa=1.3, mass=masses,
                                 physical=sheet.physical)


def _disconnected_graph():
    # two chains of unequal masses and one site without a bond
    with pytest.warns(UserWarning, match="disconnected"):
        return enm.system_from_bonds(8, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)],
                                     mass=[1.0, 2.0, 3.0, 1.5, 2.5, 4.0, 0.7, 5.0])


GRAPHS = {"graph-unbonded-full-band": _full_band_graph, "sheet-3x3-masses": _masses_sheet,
          "graph-disconnected": _disconnected_graph}


OPERATOR_CASES = {
    **{f"sheet-{n_r}x{n_c}": (lambda n_r=n_r, n_c=n_c: enm.build_system(LatticeSpec(n_r, n_c)))
       for n_r in range(2, 6) for n_c in range(1, 6)},
    **GRAPHS, "graph-no-bonds": lambda: enm.system_from_bonds(3, []),
}


@pytest.mark.filterwarnings("ignore:physical subgraph is disconnected")
@pytest.mark.parametrize("case", list(OPERATOR_CASES))
def test_bond_operators_match_csr(case):
    # A x, M^-1 F x, B w and B^T u by gathers against the CSR views, on (N,) vectors and
    # (N, k) blocks, real and complex
    from scipy import sparse
    sys = OPERATOR_CASES[case]()
    rng = np.random.default_rng(13)
    pairs = [(sys.op_A, reference.csr(sys.op_A)),
             (sys.op_L, sparse.diags_array(1.0 / sys.masses) @ reference.csr(sys.op_F)),
             (sys.op_F, reference.csr(sys.op_F)), (sys.op_B, reference.csr(sys.op_B)),
             (sys.op_B.T, reference.csr(sys.op_B).T)]
    for op, csr in pairs:
        assert op.shape == csr.shape
        for shape in ((op.shape[1],), (op.shape[1], 4)):
            for x in (rng.normal(size=shape),
                      rng.normal(size=shape) + 1j * rng.normal(size=shape)):
                want = csr @ x
                got = op @ x
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.abs(got - want).max(initial=0.0) <= 1e-13 * np.abs(want).max(
                    initial=0.0)


FACTORIZATION_CASES = {**{name: build for name, build in OPERATOR_CASES.items()
                          if name.startswith("sheet-")},
                       "graph-two-components": _two_component_graph}


@pytest.mark.filterwarnings("ignore:physical subgraph is disconnected")
@pytest.mark.parametrize("case", list(FACTORIZATION_CASES))
def test_factorization_error_matches_csr(case):
    # validate's max |B B^T - A| and |sqrt(M) B (sqrt(M) B)^T - F| from the triples against the
    # CSR products, for the system's B and for a perturbed B that factors neither
    from scipy import sparse
    sys = FACTORIZATION_CASES[case]()
    b = sys.op_B
    noise = np.random.default_rng(17).uniform(1.0 - 1e-3, 1.0 + 1e-3, len(b.vals))
    for vals in (b.vals, b.vals * noise):
        for scale, target, ref in ((np.ones(sys.n), sys.op_A, reference.csr(sys.op_A)),
                                   (np.sqrt(sys.masses), sys.op_F, reference.csr(sys.op_F))):
            op = enm.BondOperator(b.rows, b.cols, scale[b.rows] * vals, b.shape)
            csr = sparse.csr_array((op.vals, (op.rows, op.cols)), shape=op.shape)
            assert enm.factorization_error(op, target) == float(abs(csr @ csr.T - ref).max())


def _assert_matches_spectral(sys, times, seed, tol):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(0.0, 0.2, (2, sys.n))
    xdot0 = rng.normal(0.0, 1.0, (2, sys.n))
    traj = enm.evolve_classical(sys, x0, xdot0, times)
    ref = reference.evolve_spectral(sys, x0, xdot0, times)
    assert np.abs(traj.x - ref.x).max() <= tol * np.abs(ref.x).max()
    assert np.abs(traj.xdot - ref.xdot).max() <= tol * np.abs(ref.xdot).max()
    assert np.array_equal(traj.x[times == 0.0][0], x0)
    assert np.array_equal(traj.xdot[times == 0.0][0], xdot0)


def test_evolve_classical_matches_evolve_spectral_on_sheets(ladder_sheet):
    # t_max sqrt(lambda_bar) = 98: every time-grid point at the largest degree used
    t_max = 98.0 / np.sqrt(enm.gershgorin_bound(ladder_sheet))
    _assert_matches_spectral(ladder_sheet, np.linspace(-t_max, t_max, 41), 31, 1e-12)


@pytest.mark.parametrize("case", sorted(GRAPHS))
def test_evolve_classical_matches_evolve_spectral_on_graphs(case):
    sys = GRAPHS[case]()
    t_max = 98.0 / np.sqrt(enm.gershgorin_bound(sys))
    _assert_matches_spectral(sys, np.concatenate([[0.0], np.linspace(-t_max, t_max, 40)]),
                             32, 1e-12)


@pytest.mark.parametrize("physics", [{"kappa": 1e-9}, {"mass": 1e9}])
def test_evolve_spectral_holds_at_small_kappa_over_mass(physics):
    # a zero-mode cut at RANK_RTOL max(lambda_max, 1) took 32 eigenvalues of this sheet for
    # zero modes where 23 are, and evolve_spectral was off by 0.91 of max |x|
    sys = enm.build_system(LatticeSpec(3, 2), **physics)
    t_max = 98.0 / np.sqrt(enm.gershgorin_bound(sys))
    _assert_matches_spectral(sys, np.concatenate([[0.0], np.linspace(-t_max, t_max, 40)]),
                             34, 1e-12)


def _unit_step_degree(tau, eps):
    """``bessel_tail_degree`` by the scan it replaced: one degree at a time from |tau| - 2."""
    a = abs(tau)
    if a == 0.0:
        return 0
    k = max(0, math.ceil(a) - 2)
    while (k + 1) * math.log(a / 2.0) - math.lgamma(k + 2) > math.log(eps / 4.0):
        k += 1
    return k


@pytest.mark.parametrize("eps", [enm.CHEB_EPS / 2.0, encoding.SERIES_EPS])
@pytest.mark.parametrize("tau", [0.0, 1e-3, 2.45, 24.5, 707.0, 24495.0])
def test_bessel_tail_degree_equals_the_unit_step_scan(tau, eps):
    assert enm.bessel_tail_degree(tau, eps) == _unit_step_degree(tau, eps)
    assert enm.bessel_tail_degree(-tau, eps) == _unit_step_degree(tau, eps)


def test_bessel_tail_degree_of_a_huge_window_is_quick():
    # the scan took seconds at 1e7 and had not ended after 120 s at 1e9
    start = time.perf_counter()
    degree = enm.bessel_tail_degree(1e9, enm.CHEB_EPS / 2.0)
    assert time.perf_counter() - start < 0.5

    def log_bound(k):       # log (|tau|/2)^(k+1) / (k+1)!
        return (k + 1) * math.log(5e8) - math.lgamma(k + 2)

    # the smallest degree that passes: its bound is at most eps / 4, the one below it is not
    assert log_bound(degree) <= math.log(enm.CHEB_EPS / 8.0) < log_bound(degree - 1)


def test_evolve_classical_physical_units_ripple_window():
    # qenm ripple in physical units: m = 12, a 1000 ps window, degree near 500.  Roundoff
    # in the Chebyshev sum grows with the degree, so this check allows 3e-11 of max |x|
    sys = enm.build_system(LatticeSpec(4, 4), mass=12.0)
    times = np.linspace(0.0, 1000.0, 50)
    assert 400 <= enm.chebyshev_degree(enm.gershgorin_bound(sys), 1000.0) <= 600
    rng = np.random.default_rng(33)
    sqrt_m = np.sqrt(sys.masses)
    zdot0 = np.where(sys.physical, rng.choice([-0.26, 0.26], sys.n), 0.0)
    zdot0 = enm.project_range(sys, sqrt_m * zdot0) / sqrt_m
    traj = enm.evolve_classical(sys, np.zeros(sys.n), zdot0, times, axes=("z",))
    ref = reference.evolve_spectral(sys, np.zeros(sys.n), zdot0, times, axes=("z",))
    assert np.abs(traj.x - ref.x).max() <= 3e-11 * np.abs(ref.x).max()
    assert np.abs(traj.xdot - ref.xdot).max() <= 3e-11 * np.abs(ref.xdot).max()


def test_gershgorin_bound_holds(spectrum_system):
    assert reference.eigenvalues(spectrum_system)[-1] <= enm.gershgorin_bound(spectrum_system)


def _eigh_null_and_pinv(sys):
    sp = reference.spectral(sys)
    nz = sp.eigenvalues > enm.RANK_RTOL * sp.eigenvalues[-1]
    v0 = sp.eigenvectors[:, ~nz]
    vr = sp.eigenvectors[:, nz]
    return v0, lambda vec: vr @ ((vr.T @ vec) / sp.eigenvalues[nz])


def _assert_range_ops_match_eigh(sys, seed):
    v0, pinv_ref = _eigh_null_and_pinv(sys)
    assert v0.shape[1] == sys.components.max() + 1
    rng = np.random.default_rng(seed)
    for _ in range(3):
        vec = rng.normal(0.0, 1.0, sys.n)
        proj = vec - v0 @ (v0.T @ vec)
        assert np.abs(enm.project_range(sys, vec) - proj).max() <= 1e-10 * np.abs(proj).max()
        ref = pinv_ref(vec)
        assert np.abs(enm.pinv_apply(sys, vec) - ref).max() <= 1e-10 * np.abs(ref).max()


def test_range_projection_and_pinv_match_eigh_on_sheets(ladder_sheet):
    _assert_range_ops_match_eigh(ladder_sheet, 41)


@pytest.mark.parametrize("case", sorted(GRAPHS))
def test_range_projection_and_pinv_match_eigh_on_graphs(case):
    _assert_range_ops_match_eigh(GRAPHS[case](), 42)


@pytest.mark.filterwarnings("ignore:physical subgraph is disconnected")
@pytest.mark.parametrize("case", sorted(EXTREME_CASES))
def test_range_projection_and_pinv_match_eigh_on_spectrum_cases(case):
    _assert_range_ops_match_eigh(EXTREME_CASES[case](), 43)


@pytest.mark.filterwarnings("ignore:physical subgraph is disconnected")
@pytest.mark.parametrize("case", sorted(EXTREME_CASES))
def test_pinv_past_the_factor_bound_is_conjugate_gradients(case, monkeypatch):
    monkeypatch.setattr(linalg, "FACTOR_ENTRIES", 0)
    sys = EXTREME_CASES[case]()
    _assert_range_ops_match_eigh(sys, 44)
    # the exact Tr(A^+) and cond(B) have no such fallback and refuse
    for exact in (enm.pseudoinverse_trace, enm.condition_number_B):
        with pytest.raises(ValueError, match="block factorization of A would hold more than 0"):
            exact(sys)


def test_pinv_with_one_long_bond_stays_within_memory():
    # in node order the bond (1, 2999) makes the grounded A one dense block of 2998^2
    # entries, 72 MB per factor array; in level order its bandwidth is 2
    n = 3000
    sys = enm.system_from_bonds(n, [(j, j + 1) for j in range(n - 1)] + [(1, n - 1)])
    vec = np.random.default_rng(7).normal(0.0, 1.0, n)
    tracemalloc.start()
    try:
        x = enm.pinv_apply(sys, vec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    b = enm.project_range(sys, vec)
    assert np.abs(reference.csr(sys.op_A) @ x - b).max() <= 1e-10 * np.abs(b).max()
    assert np.abs(enm.project_range(sys, x) - x).max() <= 1e-12 * np.abs(x).max()


@pytest.mark.parametrize("n_r, n_c", [(2, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 7),
                                      (2, 7), (2, 9), (8, 2), (10, 1), (6, 3), (3, 6)])
def test_grounded_order_is_the_bonded_order_less_the_lowest_sites(n_r, n_c):
    sys = enm.build_system(LatticeSpec(n_r, n_c))
    sites, _ = sys._grounded
    order = sys._bonded_order
    lowest = np.unique(sys.components, return_index=True)[1]
    assert np.array_equal(sites, order[~np.isin(order, lowest)])
    # dropping sites cannot widen the band, and the bonded order is as narrow as a fresh
    # _narrow_order of the grounded sites on every sheet; narrower on 2x7, 2x9 and 3x6
    width = linalg.bandwidth(linalg.restricted(sys.op_A, sites))
    grounded = linalg.restricted(sys.op_A, np.sort(sites))
    fresh = linalg.bandwidth(linalg.restricted(grounded, linalg.narrow_order(grounded)))
    assert width <= linalg.bandwidth(enm._bonded(sys))
    assert width <= fresh
    assert (width < fresh) == ((n_r, n_c) in {(2, 7), (2, 9), (3, 6)})


def _queue_level_order(m):
    """Breadth-first levels by a plain queue, each piece from its lowest unseen site, each
    level ascending: the reference for ``linalg.level_order``."""
    n = m.shape[0]
    neighbours = [[] for _ in range(n)]
    for r, c in zip(m.rows.tolist(), m.cols.tolist()):
        neighbours[r].append(c)
    level = [-1] * n
    order = []
    for root in range(n):
        if level[root] >= 0:
            continue
        level[root], queue, piece = 0, collections.deque([root]), []
        while queue:
            site = queue.popleft()
            piece.append(site)
            for k in neighbours[site]:
                if level[k] < 0:
                    level[k] = level[site] + 1
                    queue.append(k)
        order += sorted(piece, key=lambda site: (level[site], site))
    return np.array(order)


LEVEL_ORDER_CASES = {
    "sheet-2x9": lambda: enm._bonded(enm.build_system(LatticeSpec(2, 9))),
    "sheet-5x5": lambda: enm._bonded(enm.build_system(LatticeSpec(5, 5))),
    "one-long-bond": lambda: enm.system_from_bonds(
        3000, [(j, j + 1) for j in range(2999)] + [(1, 2999)]).op_A,
    "two-components": lambda: _two_component_graph().op_A,
    "unbonded-sites": lambda: _full_band_graph().op_A,
}


@pytest.mark.filterwarnings("ignore:physical subgraph is disconnected")
@pytest.mark.parametrize("case", sorted(LEVEL_ORDER_CASES))
def test_level_order_matches_a_queue_bfs(case):
    m = LEVEL_ORDER_CASES[case]()
    assert np.array_equal(linalg.level_order(m), _queue_level_order(m))


@pytest.mark.parametrize("mu", [0.5, 5.8, 5.95, 12.0])
def test_positive_definite_matches_the_dense_spectrum(mu):
    # mu - A on the 3x3 sheet, whose lambda_max is 5.87, tested one block at a time
    a = enm._bonded(enm.build_system(LatticeSpec(3, 3)))
    assert np.linalg.eigvalsh(a.toarray())[-1] == pytest.approx(5.87, abs=0.01)
    assert linalg.factor(linalg.shifted(a, mu)).positive_definite() == (mu > 5.87)


def test_positive_definite_copies_no_factor():
    # the bisection called np.linalg.cholesky on the whole stack of inverse Schur complements
    factor = enm.build_system(LatticeSpec(5, 5))._grounded[1]
    tracemalloc.start()
    try:
        assert factor.positive_definite()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < factor.inv.nbytes // 10


def _cut_sheet():
    # the first bond cut off from the rest of the 4x4 sheet: a second bonded component
    sys = enm.build_system(LatticeSpec(4, 4))
    crossing = np.isin(sys.bonds, sys.bonds[0]).sum(axis=1) == 1
    return enm.system_from_bonds(sys.n, sys.bonds[~crossing], physical=sys.physical)


def _negative_spring():
    # a spring of stiffness 1 - 3 on the first bond of the 4x4 sheet: one negative eigenvalue
    sys = enm.build_system(LatticeSpec(4, 4))
    (j, k), a = sys.bonds[0], sys.op_A
    vals = a.vals.copy()
    for r, c, change in ((j, j, -3.0), (k, k, -3.0), (j, k, 3.0), (k, j, 3.0)):
        vals[(a.rows == r) & (a.cols == c)] += change
    sys.__dict__["op_A"] = enm.BondOperator(a.rows, a.cols, vals, a.shape)
    return sys


def _weak_bond():
    # a path of unit bonds and one site hung on by 1e-12: lambda_2 lies under the null cut
    n = 40
    return enm.system_from_bonds(n, [(j, j + 1) for j in range(n - 1)],
                                 kappa=[1.0] * (n - 2) + [1e-12])


CERTIFICATE_CASES = {
    **{f"sheet-{r}x{c}": (lambda r=r, c=c: enm.build_system(LatticeSpec(r, c)))
       for r, c in LADDER},
    "sheet-4x4-physical": lambda: enm.build_system(LatticeSpec(4, 4), mass=12.0),
    **{f"sheet-{r}x{c}-{name}": (lambda r=r, c=c, kw=kw: enm.build_system(LatticeSpec(r, c), **kw))
       for r, c in ((3, 2), (4, 3), (5, 5))
       for name, kw in (("kappa-1e-9", {"kappa": 1e-9}), ("mass-1e9", {"mass": 1e9}))},
    "cut-sheet": _cut_sheet,
    "negative-spring": _negative_spring,
    "graph-two-components": _two_component_graph,
    "graph-unbonded-sites": _full_band_graph,
    "weak-bond": _weak_bond,
}
DECLINED = {"negative-spring", "weak-bond"}


@pytest.mark.filterwarnings("ignore:physical subgraph is disconnected")
@pytest.mark.parametrize("case", sorted(CERTIFICATE_CASES))
def test_inertia_certificate_against_the_dense_spectrum(case):
    sys = CERTIFICATE_CASES[case]()
    certificate = enm.inertia_certificate(sys)
    assert (certificate is None) == (case in DECLINED)
    if certificate is None:
        return
    nulls, spread = certificate
    w = np.linalg.eigvalsh(sys.op_A.toarray())
    # validate's two verdicts from the dense spectrum follow from the certificate
    assert w[0] >= -sys.n * np.finfo(float).eps * w[-1]
    assert len(w) - len(enm.nonzero_eigenvalues(w)) == nulls == len(np.unique(sys.components))
    # and so do its bounds, up to the roundoff of the dense solve
    roundoff = 64 * np.finfo(float).eps * w[-1]
    assert np.abs(w[:nulls]).max() <= spread + roundoff
    assert spread <= sys.n * np.finfo(float).eps * np.diag(sys.op_A.toarray()).max()
    assert w[nulls] >= 1.0 / sys._grounded[1].inverse_trace() - roundoff


def test_components_label_unbonded_sites_alone():
    sys = _disconnected_graph()
    assert sys.components.tolist() == [0, 0, 0, 1, 1, 1, 1, 2]
    graph = _full_band_graph()
    assert graph.components.tolist() == [0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 0]
    # no warning: the unbonded sites 3 and 8 are padding, the physical sites connected
    assert int((graph.components[graph.physical] != 0).sum()) == 0


@pytest.mark.filterwarnings("ignore:physical subgraph is disconnected")
def test_components_match_csgraph_on_random_graphs():
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        bonds = rng.integers(0, n, (int(rng.integers(0, 2 * n)), 2))
        sys = enm.system_from_bonds(n, bonds)
        graph = sparse.coo_array((np.ones(len(bonds)), tuple(bonds.T)), shape=(n, n))
        assert sys.components.tolist() == connected_components(graph, directed=False)[1].tolist()


# -- the bond-list system against a dense assembly ---------------------------------------

def _dense_reference(masses, kappa):
    """F, A, B and the bond array assembled from a dense (N, N) coupling matrix."""
    F = -kappa.copy()
    np.fill_diagonal(F, 0.0)
    np.fill_diagonal(F, -F.sum(axis=1))
    inv_sqrt_m = 1.0 / np.sqrt(masses)
    A = F * np.outer(inv_sqrt_m, inv_sqrt_m)
    j, k = np.nonzero(kappa)                # row-major, so lexicographic
    keep = (j < k) & (kappa[j, k] > 0.0)
    j, k = j[keep], k[keep]
    cols = np.arange(len(j))
    B = np.zeros((len(masses), len(j)))
    B[j, cols] = np.sqrt(kappa[j, k]) * inv_sqrt_m[j]
    B[k, cols] = -np.sqrt(kappa[j, k]) * inv_sqrt_m[k]
    return F, A, B, np.stack([j, k], axis=1)


def _sheet_case(r, c, kappa=1.0, mass=1.0):
    spec = LatticeSpec(r, c)
    adj = adjacency(spec)
    j, l = np.nonzero(adj.valid)
    km = np.zeros((spec.n_total, spec.n_total))
    km[j, adj.neighbors[j, l]] = kappa
    return (lambda: enm.build_system(spec, kappa, mass)), np.full(spec.n_total, mass), km


def _graph_case(n, bonds, kappa=1.0, mass=1.0):
    j, k = np.asarray(bonds, dtype=int).reshape(-1, 2).T
    km = np.zeros((n, n))
    km[np.concatenate([j, k]), np.concatenate([k, j])] = kappa
    return ((lambda: enm.system_from_bonds(n, bonds, kappa, mass)),
            np.full(n, mass, dtype=float), km)


REFERENCE_CASES = {
    **{f"sheet-{r}x{c}": (lambda r=r, c=c: _sheet_case(r, c)) for r, c in LADDER},
    "sheet-3x3-heavy": lambda: _sheet_case(3, 3, kappa=2.5, mass=12.0),
    "graph-reversed": lambda: _graph_case(4, [(1, 0), (3, 2), (2, 1)], kappa=1.7),
    "graph-duplicates": lambda: _graph_case(4, [(0, 1), (1, 2), (1, 0), (0, 1), (2, 3)]),
    "graph-self-loops": lambda: _graph_case(4, [(2, 2), (0, 1), (1, 2), (3, 3), (2, 3)]),
    "graph-masses": lambda: _graph_case(5, [(0, 4), (3, 1), (1, 2), (2, 4), (4, 3)],
                                        kappa=0.6, mass=[1.0, 12.0, 0.5, 3.0, 7.0]),
    "graph-no-bonds": lambda: _graph_case(4, []),
}


@pytest.mark.filterwarnings("ignore:physical subgraph is disconnected")
@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_bond_list_system_matches_dense_assembly(case):
    make, masses, km = REFERENCE_CASES[case]()
    sys = make()
    F, A, B, bonds = _dense_reference(masses, km)
    assert sys.bonds.tolist() == bonds.tolist()
    assert sys.pairs == [tuple(p) for p in bonds.tolist()]
    # a self-loop is no spring: it never reaches F, A or B
    assert np.array_equal(sys.kappa, km - np.diag(np.diag(km)))
    assert np.array_equal(sys.F, F)
    assert np.array_equal(sys.B, B)
    assert np.abs(sys.A - A).max(initial=0.0) <= 4 * np.finfo(float).eps * np.abs(A).max(
        initial=0.0)
    assert np.array_equal(sys.masses, masses)
    for name in ("kappa", "F", "A", "B"):
        with pytest.raises(ValueError):
            getattr(sys, name)[0, 0] = 1.0
    # potential energy over any pair list, reversed, absent and repeated pairs included
    x = np.random.default_rng(13).normal(0.0, 0.4, (2, sys.n))
    pairs = [(k, j) for j, k in bonds.tolist()] + [(0, 0), (0, sys.n - 1)] + bonds.tolist()
    for subset in (None, pairs):
        jk = bonds if subset is None else np.array(subset)
        ref = 0.5 * float(np.sum(km[jk[:, 0], jk[:, 1]] * (x[:, jk[:, 0]] - x[:, jk[:, 1]]) ** 2))
        assert reference.potential_energy(sys, x, subset) == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_system_without_bonds_keeps_zero_coupling():
    from qenm import encoding
    with pytest.warns(UserWarning, match="disconnected"):
        sys = enm.system_from_bonds(3, [(1, 1)], kappa=2.0)
    assert sys.bonds.shape == (0, 2) and sys.coupling.shape == (0,)
    assert encoding.sparsity(sys) == 0
    # k_max = 0: the displacement term adds nothing, so a = 1 at energy 1/2 is one round
    assert encoding.aa_rounds(sys, 1.0, 5.0, energy=0.5) == 1
    assert reference.potential_energy(sys, np.ones(3), [(0, 1), (2, 1)]) == 0.0


def test_bond_endpoints_outside_the_system_raise():
    for bonds in ([(0, 3)], [(-1, 2)]):
        with pytest.raises(IndexError):
            enm.system_from_bonds(3, bonds)
