"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are fixed here and nowhere else.
"""

import json
import time

import numpy as np
import pytest
from scipy import sparse

from qenm import boltzmann, cli, encoding, enm, measure, oracles, reference
from qenm.lattice import LatticeSpec, brute_force_adjacency
from qenm.measure import SubsetSelector
from qenm.oracles import connectivity_oracle, oracle_mismatches


def _report(num: int, detail: str) -> None:
    print(f"[criterion {num:2d}] PASS — {detail}")


def _centered_thermal_ics(sys, seed, n_displaced=2, axes=2, temperature=1.0):
    """Perturbed displacements plus two-bucket thermal velocities, COM removed."""
    rng = np.random.default_rng(seed)
    phys = np.flatnonzero(sys.physical)
    x0 = np.zeros((axes, sys.n))
    xdot0 = np.zeros((axes, sys.n))
    if n_displaced:
        x0[:, phys[:n_displaced]] = rng.normal(0.0, 0.1, (axes, n_displaced))
    disc = boltzmann.discretize_two_bucket(boltzmann.MBParams(T=temperature))
    for a in range(axes):
        key = boltzmann.BucketKey.random(sys.spec.address_bits, rng)
        for j in phys:
            xdot0[a, j] = disc.velocities[reference.bucket_assignment(int(j), key)]
    sqm = np.sqrt(sys.masses)
    for a in range(axes):
        x0[a] = enm.project_range(sys, sqm * x0[a]) / sqm
        xdot0[a] = enm.project_range(sys, sqm * xdot0[a]) / sqm
    return x0, xdot0


def test_criterion_1_factorization_identities():
    start = time.time()
    worst_a = worst_f = 0.0
    count = 0
    for n_r in range(1, 9):
        for n_c in range(1, 10 - n_r):
            spec = LatticeSpec(n_r, n_c)
            assert spec.n_total <= 1 << 10
            import warnings
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")   # degenerate n_r=1 sheets are empty
                sys = enm.build_system(spec)
            worst_a = max(worst_a, float(np.abs(sys.B @ sys.B.T - sys.A).max()))
            sq = np.sqrt(sys.masses)[:, None]
            worst_f = max(worst_f, float(
                np.abs((sq * sys.B) @ (sq * sys.B).T - sys.F).max()))
            count += 1
    elapsed = time.time() - start
    assert worst_a <= 1e-10 and worst_f <= 1e-10
    assert elapsed < 60.0
    _report(1, f"{count} lattices ≤ 2^10 nodes, max errors "
               f"{worst_a:.1e} / {worst_f:.1e}, {elapsed:.1f}s")


def test_criterion_2_connectivity_oracle_equivalence():
    start = time.time()
    specs = [LatticeSpec(2, 1), LatticeSpec(2, 2), LatticeSpec(3, 3),
             LatticeSpec(4, 4), LatticeSpec(5, 6)]
    total = mismatches = 0
    for spec in specs:
        assert spec.address_bits <= 12
        states, bad, circuit_bonds = oracle_mismatches(connectivity_oracle(spec), spec)
        total += states
        mismatches += bad + (not np.array_equal(circuit_bonds, brute_force_adjacency(spec)))
    elapsed = time.time() - start
    assert mismatches == 0
    assert elapsed < 120.0
    _report(2, f"{total} basis states over {len(specs)} lattices up to 12 address "
               f"qubits, 0 mismatches, bond sets equal geometric oracle, {elapsed:.1f}s")


def test_criterion_3_trajectory_equivalence():
    start = time.time()
    spec = LatticeSpec(2, 1)           # 16 padded nodes
    sys = enm.build_system(spec)
    x0, xdot0 = _centered_thermal_ics(sys, seed=42)
    times = np.linspace(0.0, 10.0, 50)
    traj = enm.evolve_classical(sys, x0, xdot0, times)
    st0 = encoding.prepare_standard(sys, x0, xdot0)
    bh = encoding.build_block_H(sys)
    worst = 0.0
    for ti, st in enumerate(encoding.evolve_exact(st0, bh, times)):
        ref = encoding.prepare_standard(sys, traj.x[ti], traj.xdot[ti])
        worst = max(worst, float(np.abs(st.tensor - ref.tensor).max()))
    elapsed = time.time() - start
    assert worst <= 1e-8
    assert elapsed < 60.0
    _report(3, f"N={sys.n}, 50 time points, max amplitude deviation {worst:.2e}, "
               f"{elapsed:.1f}s")


def test_criterion_4_energy_fraction_identity():
    spec = LatticeSpec(2, 2)
    sys = enm.build_system(spec)
    x0, xdot0 = _centered_thermal_ics(sys, seed=7)
    times = np.linspace(0.0, 9.0, 10)
    traj = enm.evolve_classical(sys, x0, xdot0, times)
    st0 = encoding.prepare_standard(sys, x0, xdot0)
    bh = encoding.build_block_H(sys)
    energy = st0.norm_constant
    rng = np.random.default_rng(3)
    phys = np.flatnonzero(sys.physical)
    worst_k = worst_u = 0.0
    n_subsets = 22
    subsets = [tuple(int(j) for j in rng.choice(phys, rng.integers(1, 8), replace=False))
               for _ in range(n_subsets)]
    bond_subsets = [tuple(sys.pairs[i] for i in
                          rng.choice(len(sys.pairs), 4, replace=False))
                    for _ in range(n_subsets)]
    for ti, st in enumerate(encoding.evolve_exact(st0, bh, times)):
        for nodes, bonds in zip(subsets, bond_subsets):
            got = reference.energy_fraction(st, SubsetSelector("kinetic", nodes)).estimate
            ref = enm.kinetic_energy_subset(traj, ti, nodes) / energy
            worst_k = max(worst_k, abs(got - ref))
            got_u = reference.energy_fraction(
                st, SubsetSelector("potential", bonds=bonds)).estimate
            ref_u = reference.potential_energy(traj.sys, traj.x[ti], bonds) / energy
            worst_u = max(worst_u, abs(got_u - ref_u))
    assert worst_k <= 1e-8 and worst_u <= 1e-8
    _report(4, f"{n_subsets} subsets x {len(times)} times, kinetic dev {worst_k:.2e}, "
               f"potential dev {worst_u:.2e}")


def test_criterion_5_alternative_encoding_conservation():
    spec = LatticeSpec(2, 1)
    sys = enm.build_system(spec)
    x0, xdot0 = _centered_thermal_ics(sys, seed=12, axes=1)
    times = np.linspace(0.0, 12.0, 40)
    traj = enm.evolve_classical(sys, x0, xdot0, times)
    sqm = np.sqrt(sys.masses)
    f_vals = [enm.conserved_F(sys, sqm * traj.x[ti, 0], sqm * traj.xdot[ti, 0])
              for ti in range(len(times))]
    drift = (max(f_vals) - min(f_vals)) / max(f_vals)
    st0 = encoding.prepare_alternative(sys, x0[0], xdot0[0])
    bh = encoding.build_block_H(sys)
    phys = tuple(int(j) for j in np.flatnonzero(sys.physical))
    worst = 0.0
    for ti, st in enumerate(encoding.evolve_exact(st0, bh, times)):
        got = reference.msd_fraction(st, SubsetSelector("displacement", phys)).observable
        worst = max(worst, abs(got - enm.msd_subset(traj, ti, phys)))
    assert drift <= 1e-8
    assert worst <= 1e-8
    _report(5, f"F drift {drift:.2e}, MSD deviation {worst:.2e} over {len(times)} times")


def test_criterion_6_moment_matching():
    params = boltzmann.MBParams(m=2.0, T=1.7, k_B=1.0)
    disc = boltzmann.discretize_two_bucket(params)
    odd1 = abs(disc.moment(1))
    odd3 = abs(disc.moment(3))
    second = abs(disc.moment(2) - params.k_B * params.T / params.m)
    assert sum(disc.probabilities) == 1.0
    assert odd1 <= 1e-12 and odd3 <= 1e-12
    assert second <= 1e-9
    _report(6, f"odd moments {max(odd1, odd3):.1e}, second-moment error {second:.1e}")


def test_criterion_7_lemma1_statistics():
    results = []
    for d_dim, n_atoms in ((2, 8), (2, 64), (3, 27)):
        params = boltzmann.MBParams(m=1.0, T=1.0, D=d_dim)
        ks = reference.sample_kinetic_energies(params, n_atoms, 100_000,
                                               seed=1000 + n_atoms)
        r_hat = ks.std(ddof=1) / ks.mean()
        rng = np.random.default_rng(77)
        boot = []
        for _ in range(200):
            idx = rng.integers(0, len(ks), len(ks))
            boot.append(ks[idx].std(ddof=1) / ks[idx].mean())
        se = float(np.std(boot, ddof=1))
        target = reference.lemma1_rel_fluctuation(d_dim, n_atoms)
        assert abs(r_hat - target) <= 3.0 * se, (d_dim, n_atoms, r_hat, target, se)
        results.append(f"(D={d_dim},N={n_atoms}): {r_hat:.5f} vs {target:.5f} "
                       f"(3se={3 * se:.5f})")
    _report(7, "; ".join(results))


def test_criterion_8_scaling_studies():
    start = time.time()
    sizes = [(3, 2), (3, 3), (4, 3), (4, 4), (5, 4), (5, 5)]
    ns, conds, traces = [], [], []
    for n_r, n_c in sizes:
        spec = LatticeSpec(n_r, n_c)
        assert spec.n_total <= 1 << 11
        sys = enm.build_system(spec)
        ns.append(int(sys.physical.sum()))
        conds.append(enm.condition_number_B(sys))
        traces.append(enm.pseudoinverse_trace(sys))
    ns = np.array(ns, dtype=float)

    slope, intercept = np.polyfit(np.log10(ns), np.log10(conds), 1)
    pred = slope * np.log10(ns) + intercept
    r2_cond = 1.0 - (np.sum((np.log10(conds) - pred) ** 2)
                     / np.sum((np.log10(conds) - np.mean(np.log10(conds))) ** 2))
    tr_slope, tr_int = np.polyfit(ns, traces, 1)
    pred_t = tr_slope * ns + tr_int
    r2_trace = 1.0 - (np.sum((np.array(traces) - pred_t) ** 2)
                      / np.sum((np.array(traces) - np.mean(traces)) ** 2))
    elapsed = time.time() - start
    assert len(sizes) >= 5
    assert 0.4 <= slope <= 0.6 and r2_cond >= 0.98
    assert r2_trace >= 0.99
    assert elapsed < 600.0
    _report(8, f"{len(sizes)} sizes (N up to {int(ns[-1])} physical / "
               f"{1 << 11} padded): cond slope {slope:.3f} (R2 {r2_cond:.4f}), "
               f"trace fit R2 {r2_trace:.5f}, {elapsed:.1f}s")


def _selection(rows, n_rows: int) -> sparse.csr_array:
    """The (n_rows, len(rows)) matrix that places entry i at row rows[i]."""
    return sparse.csr_array((np.ones(len(rows)), (rows, np.arange(len(rows)))),
                            shape=(n_rows, len(rows)))


def _incidence_target(sys) -> sparse.csr_array:
    """B^T / sqrt(2 kappa/m d) with pair (j, k) on row j N + k."""
    bh = encoding.build_block_H(sys)
    pairs = _selection(sys.bonds[:, 0] * sys.n + sys.bonds[:, 1], sys.n * sys.n)
    return pairs @ reference.csr(sys.op_B).T / bh.scale


def _hamiltonian_target(sys) -> sparse.csr_array:
    """H / sqrt(2 kappa/m d) on the padded 2 N^2 space, built sparse from the active block."""
    bh = encoding.build_block_H(sys)
    slots = _selection(bh.active, 2 * sys.n * sys.n)
    H = sparse.csr_array((bh.H.vals, (bh.H.rows, bh.H.cols)), shape=bh.H.shape)
    return slots @ H @ slots.T / bh.scale


def test_criterion_9_block_encoding_extraction():
    start = time.time()
    # complete entrywise U_B^T at ten address qubits, every column in one batch
    spec_big = LatticeSpec(4, 5)
    assert spec_big.address_bits == 10
    sys_big = enm.build_system(spec_big)
    n_big = sys_big.n
    got = reference.incidence_block(oracles.incidence_block_circuit(spec_big), spec_big,
                                  np.arange(n_big))
    worst_b = abs(got - _incidence_target(sys_big)).max()

    # complete entrywise U_H on small lattices (every column of the 2N^2 space)
    worst_h, columns_h = 0.0, 0
    for shape in ((2, 1), (2, 2), (3, 2)):
        spec = LatticeSpec(*shape)
        sys = enm.build_system(spec)
        n = sys.n
        part, j, k = np.unravel_index(np.arange(2 * n * n), (2, n, n))
        got = reference.hamiltonian_block(oracles.hamiltonian_block_circuit(spec), spec,
                                        part, j, k)
        worst_h = max(worst_h, abs(got - _hamiltonian_target(sys)).max())
        columns_h += 2 * n * n

    # U_H at ten address qubits: every structurally nonzero column (the node
    # slots (0, j, 0) and bonded pair slots (1, j, k)) plus a seeded sample of
    # zero columns
    active = encoding.active_slots(sys_big)
    rng = np.random.default_rng(5)
    zero_cols = []
    for _ in range(300):                         # ghost columns must extract to zero
        j = int(rng.integers(0, n_big))
        k = int(rng.integers(0, n_big))
        part = int(rng.integers(0, 2))
        col = (part * n_big + j) * n_big + k
        if col not in active:
            zero_cols.append(col)
    cols = np.concatenate([active, zero_cols]).astype(np.int64)
    part, j, k = np.unravel_index(cols, (2, n_big, n_big))
    got = reference.hamiltonian_block(oracles.hamiltonian_block_circuit(spec_big), spec_big,
                                    part, j, k)
    worst_hb = abs(got - _hamiltonian_target(sys_big)[:, cols]).max()
    elapsed = time.time() - start
    assert worst_b <= 1e-10
    assert worst_h <= 1e-10
    assert worst_hb <= 1e-10
    _report(9, f"U_B^T complete at 10 address qubits (err {worst_b:.1e}); U_H complete "
               f"on {columns_h} columns at 2x1, 2x2, 3x2 (err {worst_h:.1e}); U_H at 10 "
               f"qubits on all {len(active)} nonzero + {len(zero_cols)} zero columns "
               f"(err {worst_hb:.1e}); {elapsed:.1f}s")


def test_criterion_10_heat_transfer_search():
    spec = LatticeSpec(2, 3)
    probe_times = [0.0, 1.0, 2.0, 3.0, 4.0, 4.5]
    result = measure.heat_experiment(
        spec, probe_times, n_regions=8, temperature=1.0,
        seed=cli.derive_seed(0, "bucket-key"))
    assert result.n_regions == 8
    for t, found, argmax, log in zip(result.times, result.found_regions,
                                     result.classical_argmax, result.search_logs):
        assert log.query_count == 3, f"t={t}: {log.query_count} queries"
        assert found == argmax, f"t={t}: search {found} vs classical argmax {argmax}"
    moved = len(set(result.classical_argmax)) > 1
    _report(10, f"8 regions, {len(probe_times)} probes, search == argmax everywhere, "
                f"3 queries each, front moved across regions: {moved}")


def test_criterion_11_determinism(tmp_path):
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        code = cli.main(["simulate", "--seed", "9", "--time-steps", "8",
                         "--out-dir", str(out)])
        assert code == 0
        outs.append(out)
    same = all((outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
               for name in ("trajectory.csv", "comparison.csv", "state_t0.csv"))
    assert same
    _report(11, "repeated runs byte-identical across trajectory, comparison "
                "and state CSVs")
