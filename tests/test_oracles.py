import math

import numpy as np
import pytest

from qenm.boltzmann import BucketKey, bucket_velocities, discretize_two_bucket, MBParams
from qenm.circuits import Circuit, expand_composites, inverse, permute_basis
from qenm.lattice import SHIFT_TABLE, LatticeSpec, brute_force_adjacency, decode_index
from qenm.oracles import (comparator, connectivity_oracle, coord_adder,
                          emit_slot_superposition, inequality_test_loader,
                          mass_oracle, oracle_mismatches, ordered_swap,
                          run_inequality_loader, run_velocity_loader, shift_init,
                          velocity_loader_two_bucket)
from qenm.reference import bucket_assignment, run_basis, simulate


def signed(value: int, width: int) -> int:
    return value - (1 << width) if value >= 1 << (width - 1) else value


# -- mass oracle ---------------------------------------------------------------

def test_mass_oracle_carbon():
    circ = mass_oracle("1100", 4)
    assert sum(1 for g in circ.gates if g.kind == "x") == 2
    assert run_basis(circ, {"j": 5, "z": 0})["z"] == 12


def test_mass_oracle_involution():
    circ = mass_oracle(12, 4)
    once = run_basis(circ, {"j": 0, "z": 0})["z"]
    assert run_basis(circ, {"j": 0, "z": once})["z"] == 0


# -- shift initialization --------------------------------------------------------

def test_shift_table_all_cases():
    spec = LatticeSpec(3, 2)
    circ = shift_init(spec)
    for (r0, s, l), (dr, dc) in SHIFT_TABLE.items():
        out = run_basis(circ, {"r": r0, "s": s, "ell": l})
        assert signed(out["rp"], spec.n_r) == dr
        assert signed(out["cp"], spec.n_c) == dc
        assert out["sp"] == 1
        assert out["ell"] == l          # slot preserved at this stage


def test_shift_specific_entries():
    circ = shift_init(LatticeSpec(2, 2))
    out = run_basis(circ, {"r": 0, "s": 0, "ell": 1})
    assert (signed(out["rp"], 2), signed(out["cp"], 2)) == (-1, 0)
    out = run_basis(circ, {"r": 3, "s": 1, "ell": 2})
    assert (signed(out["rp"], 2), signed(out["cp"], 2)) == (+1, 0)


# -- coordinate adder ------------------------------------------------------------

def test_coord_adder_wraps():
    spec = LatticeSpec(3, 2)
    circ = coord_adder(spec)
    out = run_basis(circ, {"r": 0, "c": 1, "s": 0,
                           "rp": (1 << spec.n_r) - 1, "cp": 0, "sp": 1})
    assert out["rp"] == spec.rows - 1      # 0 + (-1) wraps
    assert out["cp"] == 1 and out["sp"] == 1
    out = run_basis(circ, {"r": 5, "c": 2, "s": 1, "rp": 0, "cp": 0, "sp": 1})
    assert out["rp"] == 5 and out["cp"] == 2 and out["sp"] == 0


# -- bond validation & full oracle ------------------------------------------------

@pytest.mark.parametrize("spec", [LatticeSpec(2, 1), LatticeSpec(2, 2), LatticeSpec(3, 2)])
def test_connectivity_oracle_exhaustive(spec):
    states, mismatches, _ = oracle_mismatches(connectivity_oracle(spec), spec)
    assert (states, mismatches) == (3 * spec.n_total, 0)


def test_oracle_sweep_catches_every_dropped_gate():
    spec = LatticeSpec(2, 2)
    n_gates = len(connectivity_oracle(spec).gates)
    for i in range(n_gates):
        circ = connectivity_oracle(spec)
        del circ.gates[i]
        assert oracle_mismatches(circ, spec)[1] > 0, f"dropping gate {i} went unnoticed"


def _slot_inputs(spec: LatticeSpec) -> dict[str, np.ndarray]:
    """Every (j, slot) input of S_a as register value arrays."""
    j = np.repeat(np.arange(spec.n_total), 3)
    return {"r": j >> (spec.n_c + 1), "c": (j >> 1) & (spec.cols - 1), "s": j & 1,
            "ell": np.tile(np.arange(3), spec.n_total)}


def _random_inputs(circ: Circuit, rng, count: int) -> dict[str, np.ndarray]:
    """Uniform values in every register: slot 3, dirty scratch and neighbor registers too."""
    return {name: rng.integers(0, 1 << reg.width, count)
            for name, reg in circ.registers.items()}


def _assert_batch_matches_run_basis(circ: Circuit, inputs: dict[str, np.ndarray]) -> None:
    out = permute_basis(circ, inputs)
    for i in range(len(next(iter(inputs.values())))):
        expected = run_basis(circ, {name: int(v[i]) for name, v in inputs.items()})
        assert {name: int(v[i]) for name, v in out.items()} == expected


@pytest.mark.parametrize("spec", [LatticeSpec(2, 2), LatticeSpec(4, 4)])
def test_connectivity_oracle_batch_matches_run_basis_on_every_input(spec):
    circ = connectivity_oracle(spec)
    _assert_batch_matches_run_basis(circ, _slot_inputs(spec))
    _assert_batch_matches_run_basis(circ, _random_inputs(circ, np.random.default_rng(1), 500))


def test_connectivity_oracle_batch_matches_run_basis_on_a_5x5_sample():
    spec = LatticeSpec(5, 5)
    circ = connectivity_oracle(spec)
    rng = np.random.default_rng(5)
    pick = rng.choice(3 * spec.n_total, 400, replace=False)
    _assert_batch_matches_run_basis(circ, {k: v[pick] for k, v in _slot_inputs(spec).items()})
    _assert_batch_matches_run_basis(circ, _random_inputs(circ, rng, 400))


def test_expanded_connectivity_oracle_batch_matches_run_basis():
    spec = LatticeSpec(2, 1)
    flat = expand_composites(connectivity_oracle(spec))
    _assert_batch_matches_run_basis(flat, _slot_inputs(spec))
    _assert_batch_matches_run_basis(flat, _random_inputs(flat, np.random.default_rng(2), 500))


def test_connectivity_oracle_exhaustive_past_twelve_address_bits():
    # 6x6: 13 address bits, 35 qubits, 24,576 (j, slot) inputs in one batch
    spec = LatticeSpec(6, 6)
    circ = connectivity_oracle(spec)
    assert (spec.address_bits, circ.n_qubits) == (13, 35)
    states, mismatches, bonds = oracle_mismatches(circ, spec)
    assert (states, mismatches) == (24576, 0)
    assert np.array_equal(bonds, brute_force_adjacency(spec))


def test_connectivity_oracle_reversible():
    spec = LatticeSpec(2, 2)
    circ = connectivity_oracle(spec)
    inv = inverse(circ)
    for j in (0, 9, 17, 30):
        co = decode_index(j, spec)
        for l in range(3):
            init = {"r": co.r, "c": co.c, "s": co.s, "ell": l}
            out = run_basis(circ, init)
            back = run_basis(inv, out)
            assert back["ell"] == l and back["rp"] == 0 and back["f"] == 0
            assert (back["r"], back["c"], back["s"]) == (co.r, co.c, co.s)


def test_connectivity_oracle_expanded_to_elementary_gates():
    # the composite adders inside S_a behave identically when rewritten
    # into MAJ/UMA ripple chains
    spec = LatticeSpec(2, 1)
    flat = expand_composites(connectivity_oracle(spec))
    assert all(g.kind == "x" for g in flat.gates)
    assert oracle_mismatches(flat, spec)[1] == 0     # the chains' scratch ends at 0 too


def test_slot_three_is_flagged_by_driver():
    spec = LatticeSpec(2, 1)
    circ = connectivity_oracle(spec)
    out = run_basis(circ, {"r": 1, "c": 0, "s": 0, "ell": 3})
    assert out["ell"] == 3    # undefined slot never cleared; callers assert on it


def test_bond_validation_standalone():
    from qenm.lattice import encode_coord, is_dummy, NodeCoord
    from qenm.oracles import bond_validation
    spec = LatticeSpec(2, 2)
    circ = bond_validation(spec)
    for j in range(spec.n_total):
        cj = decode_index(j, spec)
        for k in range(0, spec.n_total, 3):
            ck = decode_index(k, spec)
            out = run_basis(circ, {"r": cj.r, "c": cj.c, "s": cj.s,
                                   "rp": ck.r, "cp": ck.c, "sp": ck.s})
            expect = int(is_dummy(cj, spec) or is_dummy(ck, spec))
            assert out["f"] == expect
            assert out["anc"] == 0


def test_bond_validation_top_buffer_flagged():
    from qenm.oracles import bond_validation
    spec = LatticeSpec(3, 2)
    circ = bond_validation(spec)
    out = run_basis(circ, {"r": 1, "c": 0, "s": 0,
                           "rp": spec.rows - 1, "cp": 0, "sp": 1})
    assert out["f"] == 1


def test_no_amplitude_leak_on_scratch_registers():
    # superposed slot input: every scratch register must end exactly |0>
    from qenm.oracles import incidence_block_circuit
    spec = LatticeSpec(2, 1)
    circ = incidence_block_circuit(spec)
    co = decode_index(9, spec)
    state = simulate(circ, {"r": co.r, "c": co.c, "s": co.s})
    leak = sum(abs(amp) ** 2 for key, amp in state.amps.items()
               if state.value(key, "anc") != 0 or state.value(key, "ell") != 0
               or state.value(key, "cmp") != 0)
    assert leak <= 1e-12


# -- comparator / ordered swap -----------------------------------------------------

def test_comparator_flag():
    circ = comparator(4)
    assert run_basis(circ, {"j": 3, "k": 5})["flag"] == 0
    assert run_basis(circ, {"j": 5, "k": 3})["flag"] == 1
    assert run_basis(circ, {"j": 4, "k": 4})["flag"] == 0     # strict k < j


def test_ordered_swap_cases():
    circ = ordered_swap(4)
    out = run_basis(circ, {"j": 3, "k": 5})
    assert (out["j"], out["k"], out["order"], out["flag"]) == (3, 5, 0, 0)
    out = run_basis(circ, {"j": 5, "k": 3})
    assert (out["j"], out["k"], out["order"], out["flag"]) == (3, 5, 1, 0)
    out = run_basis(circ, {"j": 4, "k": 4})
    assert (out["j"], out["k"], out["order"], out["flag"]) == (4, 4, 0, 0)


def test_ordered_swap_exhaustive():
    circ = ordered_swap(3)
    for j in range(8):
        for k in range(8):
            out = run_basis(circ, {"j": j, "k": k})
            assert (out["j"], out["k"]) == (min(j, k), max(j, k))
            assert out["order"] == (1 if k < j else 0)


# -- velocity loaders ----------------------------------------------------------------

def test_velocity_loader_median_split():
    n = 4
    key = BucketKey(s=0b0110, r=1, n=n)
    disc = discretize_two_bucket(MBParams())
    amps, prob = run_velocity_loader(n, key, disc.velocities)
    assert prob == pytest.approx(1.0)       # equal magnitudes: no postselection loss
    classical = bucket_velocities(1 << n, key, disc)
    classical = classical / np.linalg.norm(classical)
    assert abs(np.vdot(amps, classical)) == pytest.approx(1.0, abs=1e-10)


def test_velocity_loader_zero_key_product_state():
    n = 3
    amps, prob = run_velocity_loader(n, BucketKey(s=0, r=0, n=n), (0.8, -0.8), scale=1.0)
    assert prob == pytest.approx(0.64)
    assert np.allclose(amps, np.full(8, 1 / math.sqrt(8)))


def test_velocity_loader_unequal_buckets():
    n = 3
    key = BucketKey(s=0b101, r=0, n=n)
    velocities = (0.9, -0.3)
    amps, prob = run_velocity_loader(n, key, velocities)
    classical = np.array([velocities[bucket_assignment(j, key)] for j in range(8)])
    expected_prob = float(np.mean((classical / 0.9) ** 2))
    assert prob == pytest.approx(expected_prob)
    classical /= np.linalg.norm(classical)
    assert abs(np.vdot(amps, classical)) == pytest.approx(1.0, abs=1e-10)


def test_velocity_loader_rejects_overscale():
    with pytest.raises(ValueError):
        velocity_loader_two_bucket(2, BucketKey(0, 0, 2), (1.5, -0.5), scale=1.0)


def test_inequality_loader_uniform_table():
    values = [5, 5, 5, 5]
    amps, prob = run_inequality_loader(values, r=3)
    assert prob == pytest.approx((5 / 8) ** 2)
    assert np.allclose(amps, 0.5)


def test_inequality_loader_signed_values():
    values = [3, -3, 3, -3]
    amps, prob = run_inequality_loader(values, r=3)
    target = np.array(values, dtype=float)
    target /= np.linalg.norm(target)
    assert np.allclose(amps, target, atol=1e-10)


def test_inequality_loader_matches_velocity_loader():
    n = 3
    key = BucketKey(s=0b011, r=0, n=n)
    table_values = [6, -6]
    values = [table_values[bucket_assignment(j, key)] for j in range(1 << n)]
    amps_ineq, _ = run_inequality_loader(values, r=3)
    amps_vel, _ = run_velocity_loader(n, key, (1.0, -1.0))
    assert abs(np.vdot(amps_ineq, amps_vel)) == pytest.approx(1.0, abs=1e-10)


def test_inequality_loader_preselection_amplitude():
    # amplitude before postselection at (i, x=0, flag=0) must be v_i / (2^r sqrt(N))
    values = [1, 2, 3, 4]
    r = 3
    circ = inequality_test_loader(values, r)
    state = simulate(circ)
    for i, v in enumerate(values):
        amp = state.amplitude({"i": i, "v": 0, "x": 0, "flag": 0, "sign": 0})
        assert amp == pytest.approx(v / (2**r * 2.0), abs=1e-12)


def test_inequality_loader_precision_guard():
    with pytest.raises(ValueError):
        inequality_test_loader([9, 1], r=3)


def test_slot_superposition_normalization():
    circ = Circuit()
    ell = circ.register("ell", 2)
    emit_slot_superposition(circ, ell)
    state = simulate(circ)
    for value in (0, 1, 2):
        assert state.amplitude({"ell": value}) == pytest.approx(1 / math.sqrt(3))
    assert state.amplitude({"ell": 3}) == pytest.approx(0.0, abs=1e-15)
