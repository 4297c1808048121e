import math

import numpy as np
import pytest

from qenm import circuits
from qenm.circuits import (PRUNE_EPS, Circuit, basis_keys, circuit_text, expand_composites,
                           inverse, permute_basis, permute_keys, run_basis, simulate,
                           simulate_keys)
from qenm.oracles import inequality_test_loader


def bell_pair():
    circ = Circuit()
    q = circ.register("q", 2)
    circ.h(q[0])
    circ.x(q[1], [(q[0], 1)])
    return circ


def test_basis_permutation_gates():
    circ = Circuit()
    a = circ.register("a", 3)
    circ.x(a[0])
    circ.x(a[2], [(a[0], 1)])
    out = run_basis(circ)
    assert out["a"] == 0b101


def test_negative_controls():
    circ = Circuit()
    a = circ.register("a", 2)
    circ.x(a[1], [(a[0], 0)])
    assert run_basis(circ, {"a": 0})["a"] == 2
    assert run_basis(circ, {"a": 1})["a"] == 1


def test_swap_gate():
    circ = Circuit()
    a = circ.register("a", 2)
    circ.swap(a[0], a[1])
    assert run_basis(circ, {"a": 0b01})["a"] == 0b10


def test_hadamard_superposition_and_interference():
    circ = bell_pair()
    state = simulate(circ)
    assert state.amplitude({"q": 0}) == pytest.approx(1 / math.sqrt(2))
    assert state.amplitude({"q": 3}) == pytest.approx(1 / math.sqrt(2))
    # H twice is the identity
    circ2 = Circuit()
    q = circ2.register("q", 1)
    circ2.h(q[0])
    circ2.h(q[0])
    assert run_basis(circ2, {"q": 1})["q"] == 1


def test_ry_rotation_amplitudes():
    theta = 0.73
    circ = Circuit()
    q = circ.register("q", 1)
    circ.ry(q[0], theta)
    state = simulate(circ)
    assert state.amplitude({"q": 0}) == pytest.approx(math.cos(theta / 2))
    assert state.amplitude({"q": 1}) == pytest.approx(math.sin(theta / 2))


def test_phase_gates():
    circ = Circuit()
    q = circ.register("q", 1)
    circ.x(q[0])
    circ.s(q[0])
    state = simulate(circ)
    assert state.amplitude({"q": 1}) == pytest.approx(1j)
    circ.sdg(q[0])
    circ.z(q[0])
    state = simulate(circ)
    assert state.amplitude({"q": 1}) == pytest.approx(-1.0)


def test_gphase():
    circ = Circuit()
    circ.register("q", 1)
    circ.gphase(math.pi)
    state = simulate(circ)
    assert state.amplitude({"q": 0}) == pytest.approx(-1.0)


def test_add_sub_modular():
    circ = Circuit()
    a = circ.register("a", 3)
    b = circ.register("b", 3)
    circ.add(a.bits, b.bits)
    out = run_basis(circ, {"a": 5, "b": 6})
    assert out["b"] == (5 + 6) % 8 and out["a"] == 5
    inv = inverse(circ)
    back = run_basis(inv, {"a": 5, "b": out["b"]})
    assert back["b"] == 6


def test_compare_lt_exhaustive():
    circ = Circuit()
    a = circ.register("a", 3)
    b = circ.register("b", 3)
    f = circ.register("f", 1)
    circ.compare_lt(a.bits, b.bits, f[0])
    for av in range(8):
        for bv in range(8):
            out = run_basis(circ, {"a": av, "b": bv})
            assert out["f"] == (1 if av < bv else 0)
            assert (out["a"], out["b"]) == (av, bv)


def test_lookup_gate():
    table = [3, 0, 5, 6]
    circ = Circuit()
    i = circ.register("i", 2)
    v = circ.register("v", 3)
    circ.lookup(i.bits, v.bits, table)
    for idx, entry in enumerate(table):
        assert run_basis(circ, {"i": idx})["v"] == entry
        assert run_basis(circ, {"i": idx, "v": 7})["v"] == 7 ^ entry


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_adder_expansion_matches_composite(width):
    circ = Circuit()
    a = circ.register("a", width)
    b = circ.register("b", width)
    circ.add(a.bits, b.bits)
    expanded = expand_composites(circ)
    for av in range(1 << width):
        for bv in range(1 << width):
            o1 = run_basis(circ, {"a": av, "b": bv})
            o2 = run_basis(expanded, {"a": av, "b": bv})
            assert (o1["a"], o1["b"]) == (o2["a"], o2["b"])
            assert o2["scratch"] == 0


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_comparator_expansion_matches_composite(width):
    circ = Circuit()
    a = circ.register("a", width)
    b = circ.register("b", width)
    f = circ.register("f", 1)
    circ.compare_lt(a.bits, b.bits, f[0])
    expanded = expand_composites(circ)
    for av in range(1 << width):
        for bv in range(1 << width):
            for fv in (0, 1):
                o1 = run_basis(circ, {"a": av, "b": bv, "f": fv})
                o2 = run_basis(expanded, {"a": av, "b": bv, "f": fv})
                assert (o1["a"], o1["b"], o1["f"]) == (o2["a"], o2["b"], o2["f"])
                assert o2["scratch"] == 0


def test_controlled_adder_expansion():
    circ = Circuit()
    a = circ.register("a", 2)
    b = circ.register("b", 2)
    c = circ.register("c", 1)
    circ.add(a.bits, b.bits, controls=[(c[0], 1)])
    expanded = expand_composites(circ)
    for cv in (0, 1):
        o1 = run_basis(circ, {"a": 3, "b": 2, "c": cv})
        o2 = run_basis(expanded, {"a": 3, "b": 2, "c": cv})
        assert o1["b"] == o2["b"] == ((2 + 3) % 4 if cv else 2)


def test_lookup_expansion_matches_composite():
    table = [0, 3, 1, 2]
    circ = Circuit()
    i = circ.register("i", 2)
    v = circ.register("v", 2)
    circ.lookup(i.bits, v.bits, table)
    expanded = expand_composites(circ)
    for idx in range(4):
        assert run_basis(circ, {"i": idx})["v"] == run_basis(expanded, {"i": idx})["v"]


def test_inverse_of_superposition_circuit():
    circ = Circuit()
    q = circ.register("q", 3)
    circ.h(q[0])
    circ.ry(q[1], 1.1, [(q[0], 1)])
    circ.s(q[2])
    circ.x(q[2], [(q[1], 0)])
    state = simulate(circ, {"q": 5})
    amps = dict(state.amps)
    for gate in inverse(circ).gates:
        from qenm.circuits import _apply
        amps = _apply(gate, amps)
    keys = [k for k, v in amps.items() if abs(v) > 1e-12]
    assert len(keys) == 1
    assert abs(amps[keys[0]] - 1.0) <= 1e-12


def test_run_basis_rejects_superpositions():
    circ = Circuit()
    q = circ.register("q", 1)
    circ.h(q[0])
    with pytest.raises(AssertionError):
        run_basis(circ)


def test_circuit_text_golden():
    circ = Circuit()
    a = circ.register("a", 2)
    f = circ.register("f", 1)
    circ.x(a[0], [(f[0], 0)])
    circ.ry(a[1], 0.5)
    circ.add(a.bits, a.bits[:1])
    expected = ("reg a 0 2\n"
                "reg f 2 1\n"
                "x c=-2 t=0\n"
                "ry t=1 theta=0.5\n"
                "add a=0,1 b=0\n")
    assert circuit_text(circ) == expected


def test_register_bounds():
    circ = Circuit()
    a = circ.register("a", 2)
    with pytest.raises(IndexError):
        a[2]
    with pytest.raises(ValueError):
        circ.x(5)
    with pytest.raises(ValueError):
        circ.register("a", 1)


# -- batched basis permutations ------------------------------------------------

PERMUTATION_KINDS = ("x", "swap", "add", "sub", "lt", "lookup", "z", "s", "sdg", "gphase")


def random_permutation_circuit(rng, widths, n_gates, kinds=PERMUTATION_KINDS):
    """Every gate kind of ``kinds`` on random operands and controls; by default every
    permutation gate kind and every phase gate.

    Controls are drawn with replacement from the qubits the gate does not act
    on, so some gates repeat a control and some ask one qubit for both values.
    The first ry turns by pi, where cos(theta/2) is zero up to rounding.
    """
    circ = Circuit()
    for name, width in widths.items():
        circ.register(name, width)
    n = circ.n_qubits
    for i in range(n_gates):
        kind = kinds[i % len(kinds)] if i < len(kinds) else str(rng.choice(kinds))
        perm = [int(q) for q in rng.permutation(n)]
        wa, wb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a, b, t = perm[:wa], perm[wa:wa + wb], perm[wa + wb]
        free = perm[wa + wb + 1:]
        controls = [(int(rng.choice(free)), int(rng.integers(2)))
                    for _ in range(int(rng.integers(0, 3)))]
        if kind in ("x", "z", "s", "sdg", "h"):
            getattr(circ, kind)(t, controls)
        elif kind == "ry":
            circ.ry(t, math.pi if i < len(kinds) else float(rng.uniform(-math.pi, math.pi)),
                    controls)
        elif kind == "swap":
            circ.swap(t, a[0], controls)
        elif kind in ("add", "sub"):
            getattr(circ, kind)(a, b, controls)
        elif kind == "lt":
            circ.compare_lt(a, b, t, controls)
        elif kind == "lookup":      # entries one bit wider than the value register
            circ.lookup(a, b, rng.integers(0, 2 << wb, 1 << wa), controls)
        else:
            circ.gphase(float(rng.uniform(-math.pi, math.pi)), controls)
    return circ


@pytest.mark.parametrize("seed", range(5))
def test_permute_basis_matches_run_basis_on_random_circuits(seed):
    rng = np.random.default_rng(seed)
    widths = {"a": 4, "b": 3, "c": 3}
    circ = random_permutation_circuit(rng, widths, 40)
    grids = np.meshgrid(*(np.arange(1 << w) for w in widths.values()), indexing="ij")
    inputs = {name: grid.ravel() for name, grid in zip(widths, grids)}
    out = permute_basis(circ, inputs)
    for i in range(len(inputs["a"])):
        expected = run_basis(circ, {name: int(v[i]) for name, v in inputs.items()})
        assert {name: int(v[i]) for name, v in out.items()} == expected


@pytest.mark.parametrize("seed", range(10))
def test_simulate_keys_matches_simulate_on_random_circuits(seed):
    rng = np.random.default_rng(seed)
    widths = {"a": 4, "b": 3, "c": 3}
    circ = random_permutation_circuit(rng, widths, 40, (*PERMUTATION_KINDS, "h", "ry"))
    grids = np.meshgrid(*(np.arange(1 << w) for w in widths.values()), indexing="ij")
    inputs = {name: grid.ravel() for name, grid in zip(widths, grids)}
    rows, keys, amps = simulate_keys(circ, basis_keys(circ, inputs))
    assert np.all(np.abs(amps) > PRUNE_EPS)
    bounds = np.searchsorted(rows, np.arange(len(inputs["a"]) + 1))     # rows come sorted
    for i in range(len(inputs["a"])):
        expected = simulate(circ, {name: int(v[i]) for name, v in inputs.items()}).amps
        row = slice(bounds[i], bounds[i + 1])
        got = dict(zip(keys[row].tolist(), amps[row].tolist()))
        assert max(abs(got.get(key, 0.0) - expected.get(key, 0.0))
                   for key in got.keys() | expected.keys()) <= 1e-12


@pytest.mark.parametrize("seed", [*range(10), "inequality-loader"])
def test_superposing_gates_receive_each_row_and_key_once(monkeypatch, seed):
    """Each h or ry gate merges equal (row, key) entries, as the dict reference does."""
    superpose = circuits._superpose_gate
    calls = []

    def checked(gate, rows, keys, amps):
        entries = np.stack([rows.astype(np.uint64), keys], axis=1)
        calls.append((len(entries), len(np.unique(entries, axis=0))))
        return superpose(gate, rows, keys, amps)

    monkeypatch.setattr(circuits, "_superpose_gate", checked)
    if seed == "inequality-loader":     # unmerged, its batch would grow as 2^n 4^r
        circ = inequality_test_loader([3, -5, 7, 1, 0, 6, -2, 4], 5)
        keys = np.zeros(1, dtype=np.uint64)
    else:
        widths = {"a": 4, "b": 3, "c": 3}
        circ = random_permutation_circuit(np.random.default_rng(seed), widths, 40,
                                          (*PERMUTATION_KINDS, "h", "ry"))
        keys = np.arange(1 << circ.n_qubits, dtype=np.uint64)
    simulate_keys(circ, keys)
    assert calls and all(size == unique for size, unique in calls)


def test_permute_basis_broadcasts_and_defaults_registers_to_zero():
    circ = Circuit()
    a = circ.register("a", 2)
    b = circ.register("b", 2)
    circ.add(a.bits, b.bits)
    out = permute_basis(circ, {"a": np.arange(4), "b": 1})
    assert out["b"].tolist() == [1, 2, 3, 0] and out["a"].tolist() == [0, 1, 2, 3]
    assert permute_basis(circ, {"a": [3]})["b"].tolist() == [3]


def test_permute_keys_leaves_keys_under_phase_gates():
    circ = Circuit()
    q = circ.register("q", 3)
    circ.z(q[0])
    circ.s(q[1], [(q[0], 1)])
    circ.sdg(q[2], [(q[1], 0)])
    circ.gphase(0.7, [(q[2], 1)])
    keys = np.arange(8, dtype=np.uint64)
    assert permute_keys(circ, keys).tolist() == keys.tolist()


@pytest.mark.parametrize("kind", ["h", "ry"])
def test_permute_keys_rejects_superposing_gates(kind):
    circ = Circuit()
    q = circ.register("q", 1)
    if kind == "h":
        circ.h(q[0])
    else:
        circ.ry(q[0], 0.3)
    with pytest.raises(ValueError, match="not a basis permutation"):
        permute_keys(circ, np.zeros(1, dtype=np.uint64))


def test_basis_keys_reject_wide_circuits_and_values_outside_registers():
    circ = Circuit()
    circ.register("q", 64)
    assert basis_keys(circ, {"q": np.array([2**64 - 1], dtype=np.uint64)}).tolist() == [2**64 - 1]
    circ.register("extra", 1)
    with pytest.raises(ValueError, match="65 qubits"):
        basis_keys(circ, {"extra": [1]})
    with pytest.raises(ValueError, match="65 qubits"):
        permute_keys(circ, np.zeros(1, dtype=np.uint64))
    small = Circuit()
    small.register("a", 2)
    for bad in ([4], [-1]):
        with pytest.raises(ValueError, match="do not fit register a"):
            basis_keys(small, {"a": bad})
