import csv
from dataclasses import replace

import numpy as np
import pytest

from qenm import encoding, enm, measure, output, reference
from qenm.lattice import LatticeSpec
from qenm.measure import SubsetSelector
from qenm.reference import energy_fraction


@pytest.fixture(scope="module")
def evolved_sheet():
    sys = enm.build_system(LatticeSpec(2, 1))
    rng = np.random.default_rng(31)
    phys = np.flatnonzero(sys.physical)
    x0 = np.zeros((2, sys.n))
    xdot0 = np.zeros((2, sys.n))
    x0[:, phys[:2]] = rng.normal(0.0, 0.2, (2, 2))
    xdot0[:, phys] = rng.normal(0.0, 1.0, (2, phys.size))
    ts = np.linspace(0.0, 6.0, 10)
    traj = enm.evolve_classical(sys, x0, xdot0, ts)
    st0 = encoding.prepare_standard(sys, x0, xdot0)
    bh = encoding.build_block_H(sys)
    states = list(encoding.evolve_exact(st0, bh, ts))
    return sys, traj, states, ts


def test_full_kinetic_fraction_is_one_for_velocity_only():
    sys = enm.build_system(LatticeSpec(2, 1))
    phys = np.flatnonzero(sys.physical)
    xdot0 = np.zeros((2, sys.n))
    xdot0[:, phys] = 1.0
    st = encoding.prepare_standard(sys, np.zeros_like(xdot0), xdot0)
    frac = reference.energy_fraction(st, SubsetSelector("kinetic", tuple(range(sys.n))))
    assert frac.estimate == pytest.approx(1.0, abs=1e-12)
    assert frac.mode == "exact-expectation" and frac.stderr == 0.0


def test_energy_fraction_matches_classical(evolved_sheet):
    sys, traj, states, ts = evolved_sheet
    rng = np.random.default_rng(7)
    phys = np.flatnonzero(sys.physical)
    energy = states[0].norm_constant
    for ti in range(len(ts)):
        for _ in range(5):
            subset = tuple(int(j) for j in rng.choice(phys, 3, replace=False))
            got = reference.energy_fraction(states[ti], SubsetSelector("kinetic", subset))
            ref = enm.kinetic_energy_subset(traj, ti, subset) / energy
            assert got.estimate == pytest.approx(ref, abs=1e-8)


def test_potential_fraction_matches_classical(evolved_sheet):
    sys, traj, states, ts = evolved_sheet
    energy = states[0].norm_constant
    bonds = tuple(sys.pairs[:4])
    for ti in (2, 5, 9):
        got = reference.energy_fraction(states[ti], SubsetSelector("potential", bonds=bonds))
        ref = reference.potential_energy(traj.sys, traj.x[ti], bonds) / energy
        assert got.estimate == pytest.approx(ref, abs=1e-8)


def test_potential_subset_matches_padded_layout(evolved_sheet):
    # absent and reversed bonds have no slot: zero weight, as in the padded tensor
    sys, _, states, _ = evolved_sheet
    st = states[6]
    j, k = sys.pairs[3]
    absent = next((a, b) for a in range(sys.n) for b in range(a + 1, sys.n)
                  if (a, b) not in set(sys.pairs))
    for bonds in [((k, j),), (absent,), ((k, j), absent, sys.pairs[0]),
                  (sys.pairs[0], sys.pairs[0], sys.pairs[5])]:
        got = measure.subset_probability(st, SubsetSelector("potential", bonds=bonds))
        ref = sum(abs(st.tensor[a, 1, jj, kk]) ** 2
                  for a in range(st.axes) for jj, kk in bonds)
        assert got == pytest.approx(ref, rel=1e-14, abs=0.0)
    assert measure.subset_probability(
        st, SubsetSelector("potential", bonds=((k, j), absent))) == 0.0
    with pytest.raises(IndexError):
        measure.subset_probability(st, SubsetSelector("potential", bonds=((0, sys.n),)))


def test_complement_law(evolved_sheet):
    sys, _, states, _ = evolved_sheet
    phys = tuple(int(j) for j in np.flatnonzero(sys.physical))
    half = phys[: len(phys) // 2]
    rest = phys[len(phys) // 2:]
    st = states[4]
    total = (reference.energy_fraction(st, SubsetSelector("kinetic", half)).estimate
             + reference.energy_fraction(st, SubsetSelector("kinetic", rest)).estimate
             + reference.energy_fraction(st, SubsetSelector("potential")).estimate)
    assert total == pytest.approx(1.0, abs=1e-10)



@pytest.mark.parametrize("shape", [(2, 1), (4, 4)])
def test_standard_comparison_is_each_samples_energy_fraction(shape):
    # simulate's block reductions: every bit of the deviation and of both fractions is that
    # of the sample's own EncodedState, summed by subset_probability's rule
    sys = enm.build_system(LatticeSpec(*shape))
    rng = np.random.default_rng(11)
    phys = np.flatnonzero(sys.physical)
    x0, xdot0 = np.zeros((2, sys.n)), np.zeros((2, sys.n))
    x0[:, phys[:3]] = rng.normal(0.0, 0.2, (2, 3))
    xdot0[:, phys] = rng.normal(0.0, 1.0, (2, phys.size))
    times = np.linspace(0.0, 6.0, 9)
    st0 = encoding.prepare_standard(sys, x0, xdot0)
    grid = encoding.evolve_grid(st0, encoding.build_block_H(sys), times)
    traj = enm.evolve_classical(sys, x0, xdot0, times)
    reference = encoding.standard_amplitudes(sys, traj.x, traj.xdot)[0]
    dev, kin, pot = measure.standard_comparison(grid, reference, sys.n)
    nodes = tuple(range(sys.n))
    for ti in range(len(times)):
        st = replace(st0, amps=grid[ti])
        assert dev[ti] == np.abs(grid[ti] - reference[ti]).max()
        assert kin[ti] == energy_fraction(st, SubsetSelector("kinetic", nodes)).estimate
        assert pot[ti] == energy_fraction(st, SubsetSelector("potential")).estimate
        assert pot[ti] == sum(np.sum(np.abs(row) ** 2) for row in st.pair_amps)


def test_subset_probability_sums_each_axis_as_one_row():
    # a fancy-indexed node block is column-major; summed in its memory order rather than
    # row by row, the fractions move in their last bits
    sys = enm.build_system(LatticeSpec(4, 4))
    phys = np.flatnonzero(sys.physical)
    xdot0 = np.zeros((2, sys.n))
    xdot0[:, phys] = np.random.default_rng(0).normal(0.0, 1.0, (2, phys.size))
    st = encoding.prepare_standard(sys, np.zeros_like(xdot0), xdot0)
    for nodes in (np.arange(sys.n), phys[::-3], phys[:40]):
        block = st.node_amps[:, nodes]
        want = sum(np.sum(np.abs(row) ** 2) for row in block)
        assert measure.subset_probability(st, SubsetSelector("kinetic", tuple(nodes))) == want

def test_displacement_under_standard_rejected(evolved_sheet):
    _, _, states, _ = evolved_sheet
    with pytest.raises(ValueError, match="kappa_jj"):
        reference.energy_fraction(states[0], SubsetSelector("displacement", (1,)))


def test_oracle_call_mapping_monotone():
    calls = [reference.oracle_call_estimate(eps, 0.05) for eps in (0.1, 0.05, 0.01, 0.001)]
    assert all(a < b for a, b in zip(calls, calls[1:]))
    with pytest.raises(ValueError):
        reference.oracle_call_estimate(0.0, 0.5)


def test_msd_fraction_matches_classical():
    sys = enm.build_system(LatticeSpec(2, 1))
    rng = np.random.default_rng(9)
    phys = np.flatnonzero(sys.physical)
    sqm = np.sqrt(sys.masses)
    x0 = np.zeros(sys.n)
    xdot0 = np.zeros(sys.n)
    x0[phys] = rng.normal(0.0, 0.2, phys.size)
    xdot0[phys] = rng.normal(0.0, 1.0, phys.size)
    # zero-net-momentum/centered initial conditions: P y = y exactly
    x0 = enm.project_range(sys, sqm * x0) / sqm
    xdot0 = enm.project_range(sys, sqm * xdot0) / sqm
    ts = np.linspace(0.0, 6.0, 12)
    traj = enm.evolve_classical(sys, x0, xdot0, ts)
    st0 = encoding.prepare_alternative(sys, x0, xdot0)
    bh = encoding.build_block_H(sys)
    subset = tuple(int(j) for j in phys)
    for ti, st in enumerate(encoding.evolve_exact(st0, bh, ts)):
        got = reference.msd_fraction(st, SubsetSelector("displacement", subset))
        assert got.observable == pytest.approx(enm.msd_subset(traj, ti, subset), abs=1e-8)


def test_msd_zero_at_t0_for_velocity_only():
    sys = enm.build_system(LatticeSpec(2, 1))
    phys = np.flatnonzero(sys.physical)
    xdot0 = np.zeros(sys.n)
    # every other site: a uniform velocity is a pure translation, which P maps to exactly 0
    xdot0[phys[::2]] = 1.0
    sqm = np.sqrt(sys.masses)
    xdot0 = enm.project_range(sys, sqm * xdot0) / sqm
    st = encoding.prepare_alternative(sys, np.zeros(sys.n), xdot0)
    got = reference.msd_fraction(st, SubsetSelector("displacement", tuple(phys)))
    assert got.observable == pytest.approx(0.0, abs=1e-12)


def test_b_factor_scaling():
    assert enm.b_factor(2.0) == pytest.approx(16.0 * np.pi**2)


def test_shot_sampling_zero_fraction(evolved_sheet):
    sys, _, states, _ = evolved_sheet
    dummies = tuple(int(j) for j in np.flatnonzero(~sys.physical))[:3]
    rep = reference.shot_sample(states[0], SubsetSelector("kinetic", dummies), 1000, seed=0)
    assert rep.estimate == 0.0 and rep.shots == 1000


def test_shot_sampling_three_sigma(evolved_sheet):
    sys, _, states, _ = evolved_sheet
    phys = tuple(int(j) for j in np.flatnonzero(sys.physical))
    sel = SubsetSelector("kinetic", phys[:4])
    exact = reference.energy_fraction(states[3], sel).estimate
    shots = 100_000
    rep = reference.shot_sample(states[3], sel, shots, seed=11)
    sigma = np.sqrt(exact * (1 - exact) / shots)
    assert abs(rep.estimate - exact) <= 3.0 * sigma
    assert rep.mode == "shot-sampled"


def test_shot_error_scales_inverse_sqrt(evolved_sheet):
    sys, _, states, _ = evolved_sheet
    phys = tuple(int(j) for j in np.flatnonzero(sys.physical))
    sel = SubsetSelector("kinetic", phys[:4])
    exact = reference.energy_fraction(states[3], sel).estimate
    shot_grid = [100, 1_000, 10_000, 100_000]
    errors = []
    for shots in shot_grid:
        devs = [abs(reference.shot_sample(states[3], sel, shots, seed=s).estimate - exact)
                for s in range(40)]
        errors.append(np.mean(devs))
    slope = np.polyfit(np.log10(shot_grid), np.log10(errors), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.12)


def test_column_regions_cover_physical():
    spec = LatticeSpec(2, 3)
    regions = measure.column_regions(spec, 8)
    assert len(regions) == 8
    assert all(regions), "every region must hold physical nodes"
    sys = enm.build_system(spec)
    assert sum(len(r) for r in regions) == int(sys.physical.sum())


def test_column_regions_reject_bad_tiling():
    with pytest.raises(ValueError):
        measure.column_regions(LatticeSpec(2, 2), 8)


def test_binary_search_locates_hotspot_at_t0():
    spec = LatticeSpec(2, 3)
    sys = enm.build_system(spec)
    regions = measure.column_regions(spec, 8)
    xdot0 = np.zeros((2, sys.n))
    for j in regions[5]:
        xdot0[0, j] = 1.0
    st = encoding.prepare_standard(sys, np.zeros_like(xdot0), xdot0)
    res = measure.heat_binary_search(st, regions)
    assert res.region_index == 5
    assert res.query_count == 3


def test_binary_search_tie_breaks_low():
    spec = LatticeSpec(2, 3)
    sys = enm.build_system(spec)
    regions = measure.column_regions(spec, 8)
    xdot0 = np.zeros((2, sys.n))
    # perfectly symmetric energy in regions 2 and 6: every split ties
    for region in (2, 6):
        for j in regions[region]:
            xdot0[0, j] = 1.0
    st = encoding.prepare_standard(sys, np.zeros_like(xdot0), xdot0)
    res = measure.heat_binary_search(st, regions)
    assert res.region_index == 2
    assert res.rounds[0].kept == "low"


def test_heat_experiment_matches_classical_argmax():
    result = measure.heat_experiment(LatticeSpec(2, 3), [0.0, 1.5, 3.0],
                                     temperature=1.0, seed=4)
    assert result.found_regions == result.classical_argmax
    assert all(log.query_count == 3 for log in result.search_logs)


def test_ripple_zero_temperature():
    res = measure.ripple_msd(LatticeSpec(2, 1), np.linspace(0, 10, 5), temperature=0.0)
    assert res.mean_msd == 0.0 and res.b_factor == 0.0
    assert np.all(res.msd == 0.0)


def test_ripple_quantum_matches_classical():
    res = measure.ripple_msd(LatticeSpec(2, 1), np.linspace(0, 15, 40),
                             temperature=0.8, seed=3)
    assert np.abs(res.msd - res.msd_classical).max() <= 1e-8
    assert res.b_factor == pytest.approx(8 * np.pi**2 * res.mean_msd)


def test_ripple_quantum_matches_classical_at_carbon_mass():
    # node amplitudes carry sqrt(m) x; the MSD must not scale with m
    res = measure.ripple_msd(LatticeSpec(2, 1), np.linspace(0, 15, 40),
                             temperature=0.8, mass=12.0, seed=3)
    assert np.abs(res.msd - res.msd_classical).max() <= 1e-8 * res.msd.max()


def _recording(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that keeps each call's (args, result)."""
    calls, fn = [], getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append((args, fn(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.mark.parametrize("shape, mass, stop, seed",
                         [((2, 1), 1.0, 6.0, 3), ((3, 2), 12.0, 20.0, 5), ((4, 4), 1.0, 6.0, 0),
                          ((4, 4), 1.0, 6.0, 3)])
def test_ripple_grid_msd_is_msd_fraction_of_each_state(monkeypatch, shape, mass, stop, seed):
    grids = _recording(monkeypatch, encoding, "evolve_grid")
    res = measure.ripple_msd(LatticeSpec(*shape), np.linspace(0.0, stop, 50), temperature=1.0,
                             mass=mass, seed=seed)
    (st0, bh, times), _ = grids[0]
    sel = SubsetSelector("displacement", tuple(np.flatnonzero(st0.sys.physical).tolist()))
    want = np.array([reference.msd_fraction(st, sel).observable
                     for st in encoding.evolve_exact(st0, bh, times)])
    assert np.abs(res.msd - want).max() <= 1e-14 * want.max()


@pytest.mark.parametrize("shape, seed", [((2, 1), 3), ((4, 4), 0), ((4, 4), 3)])
def test_ripple_classical_msd_is_msd_subset_bit_for_bit(monkeypatch, shape, seed):
    trajs = _recording(monkeypatch, enm, "evolve_classical")
    res = measure.ripple_msd(LatticeSpec(*shape), np.linspace(0.0, 6.0, 50), temperature=1.0,
                             seed=seed)
    _, traj = trajs[0]
    phys = np.flatnonzero(traj.sys.physical)
    assert res.msd_classical.tolist() == [enm.msd_subset(traj, ti, phys)
                                          for ti in range(len(res.times))]


def test_heat_argmax_table_is_the_per_probe_argmax(monkeypatch):
    trajs = _recording(monkeypatch, enm, "evolve_classical")
    spec = LatticeSpec(4, 4)
    regions = measure.column_regions(spec, 8)
    for seed in range(20):
        res = measure.heat_experiment(spec, [0.0, 1.0, 2.0, 3.0, 4.0, 4.5], seed=seed)
        _, traj = trajs[-1]
        assert res.classical_argmax == [
            int(np.argmax([enm.kinetic_energy_subset(traj, ti, band) for band in regions]))
            for ti in range(len(res.times))]


def test_ripple_linear_in_temperature():
    temps = np.array([0.4, 0.8, 1.2, 1.6])
    times = np.linspace(0.0, 15.0, 40)
    means = np.array([measure.ripple_msd(LatticeSpec(2, 1), times, temperature=t,
                                         seed=6).mean_msd for t in temps])
    slope, intercept = np.polyfit(temps, means, 1)
    pred = slope * temps + intercept
    ss_res = float(np.sum((means - pred) ** 2))
    ss_tot = float(np.sum((means - means.mean()) ** 2))
    assert 1.0 - ss_res / ss_tot >= 0.95


def test_ripple_short_window_warns():
    with pytest.warns(UserWarning, match="window"):
        measure.ripple_msd(LatticeSpec(2, 1), np.linspace(0.0, 0.5, 4),
                           temperature=1.0, seed=1)


def test_results_csv(tmp_path):
    path = tmp_path / "results.csv"
    output.dump_results_csv(path, [(0.0, "kinetic", "V0", 0.5, 0.01, "shot-sampled")])
    lines = path.read_text().splitlines()
    assert lines[0] == "t,observable,subset_id,estimate,stderr,mode"
    assert len(lines) == 2


def test_write_rows_formats_floats_at_full_precision_and_the_rest_as_str(tmp_path):
    path = tmp_path / "rows.csv"
    output.write_rows(path, "t,n,label,zero,subset_id",
                       [(np.float64(0.1), 3, "msd", -0.0, '"0,1"'),
                        (1.0 / 3.0, np.int64(-7), "all", 0.0, "all")])
    assert path.read_text() == ('t,n,label,zero,subset_id\n'
                                '0.10000000000000001,3,msd,-0,"0,1"\n'
                                '0.33333333333333331,-7,all,0,all\n')
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["0.10000000000000001", "3", "msd", "-0", "0,1"]
