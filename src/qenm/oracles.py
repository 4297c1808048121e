"""Oracle circuits: mass lookup, graphene connectivity, comparators, loaders,
and the gate-level block encodings built from them.

The connectivity oracle S_a computes, for a source node j = (r, c, s) and a
neighbor slot l, the neighbor coordinates and a flag marking ghost bonds:

    |j> |l> |0>_k |0>_f  ->  |j> |0>_l |k> |D(j) or D(k)>_f

in four stages: load the slot's two's-complement unit-cell shift into the
neighbor register (controlled on row parity and sublattice, one case per
table row, deliberately unsimplified), uncompute the slot index from the
shift pattern so the slot register disentangles, ripple-add the source
coordinates (modular, so boundary cells wrap), and OR the four dummy rules
for both endpoints into the flag, restoring every scratch ancilla.  The
register layout (``_oracle_registers``) and the stage sequence
(``_emit_connectivity``) are declared once; the standalone stage circuits
and the block encodings below build on them, and
``oracle_mismatches`` is the one exhaustive check against the lattice: it
runs every (j, slot) input as one batch of ``uint64`` keys through
``circuits.permute_keys``.  Node indices enter and leave the registers
only through ``lattice.decode_index`` and ``lattice.encode_coord``.

Slot values outside {0, 1, 2} are undefined; drivers assert they never
reach the oracle.

Circuit block encodings (uniform mass and coupling):

* ``incidence_block_circuit``: slot superposition (1/sqrt(3)), connectivity
  oracle, comparator + order bit + controlled swaps, then Z and H on the
  order qubit.  Projecting slot, validity flag, scratch, comparator and
  order qubits onto |0> leaves B^T / sqrt(2 kappa/m d) between the node
  registers.
* ``diffusion_projector_circuit``: Hadamard, zero-controlled reflection
  2|0><0| - 1, Hadamard; its ancilla-|0> block is the all-zero projector.
* ``hamiltonian_block_circuit``: glues the two above with a part qubit so
  that the |0>-ancilla block is H / sqrt(2 kappa/m d), the block
  Hamiltonian of ``encoding.build_block_H`` over its scale.

No command runs the stage circuits, the loaders (which postselect through
``circuits.postselect``) or the block encodings: they are the paper's
circuits, which resource counts and gate-level evolution are to build on.
"""

from __future__ import annotations

import math

import numpy as np

from .boltzmann import BucketKey
from .circuits import (Circuit, Gate, Register, basis_keys, controlled_gates, inverted_gates,
                       key_values, permute_keys, postselect)
from .lattice import (SHIFT_TABLE, SPARSITY, Adjacency, LatticeSpec, NodeCoord, adjacency,
                      decode_index, encode_coord)


def _twos(value: int, width: int) -> int:
    return value % (1 << width)


def mass_oracle(mass: int | str, n_address: int) -> Circuit:
    """XOR the fixed mass bit pattern into the value register: |j>|z> -> |j>|z ^ m>."""
    m = int(mass, 2) if isinstance(mass, str) else int(mass)
    width = max(m.bit_length(), 1)
    circ = Circuit()
    circ.register("j", n_address)
    z = circ.register("z", width)
    for i in range(width):
        if (m >> i) & 1:
            circ.x(z[i])
    return circ


# -- connectivity oracle stages ---------------------------------------------


def _emit_shift(circ: Circuit) -> None:
    """Load the slot's (delta_r, delta_c, 1) into the neighbor register."""
    reg = circ.registers
    r, s, ell, rp, cp, sp = (reg[nm] for nm in ("r", "s", "ell", "rp", "cp", "sp"))
    for (r0v, sv, lv), (drv, dcv) in sorted(SHIFT_TABLE.items()):
        if lv == 0:
            continue
        controls = [(ell[0], lv & 1), (ell[1], (lv >> 1) & 1), (s[0], sv), (r[0], r0v)]
        for i in range(rp.width):
            if (_twos(drv, rp.width) >> i) & 1:
                circ.x(rp[i], controls)
        for i in range(cp.width):
            if (_twos(dcv, cp.width) >> i) & 1:
                circ.x(cp[i], controls)
    circ.x(sp[0])


def _emit_slot_uncompute(circ: Circuit) -> None:
    """Clear the slot register; the shift pattern determines the slot."""
    reg = circ.registers
    r, s, ell, rp, cp = (reg[nm] for nm in ("r", "s", "ell", "rp", "cp"))
    for (r0v, sv, lv), (drv, dcv) in sorted(SHIFT_TABLE.items()):
        if lv == 0:
            continue
        controls = [(s[0], sv), (r[0], r0v)]
        controls += [(rp[i], (_twos(drv, rp.width) >> i) & 1) for i in range(rp.width)]
        controls += [(cp[i], (_twos(dcv, cp.width) >> i) & 1) for i in range(cp.width)]
        for i in range(2):
            if (lv >> i) & 1:
                circ.x(ell[i], controls)


def _emit_coord_add(circ: Circuit) -> None:
    """Neighbor register: shift -> absolute coordinates, modular wrap."""
    reg = circ.registers
    circ.add(reg["r"].bits, reg["rp"].bits)
    circ.add(reg["c"].bits, reg["cp"].bits)
    circ.x(reg["sp"][0], [(reg["s"][0], 1)])


def _emit_conditions(circ: Circuit, r: Register, c: Register, s: Register,
                     anc: Register) -> None:
    """Boundary rules C1..C4 of one node into four scratch bits."""
    n_r, n_c = r.width, c.width
    circ.x(anc[0], [(s[0], 0)] + [(r[i], 0) for i in range(n_r)])
    circ.x(anc[1], [(r[i], 1) for i in range(n_r)])
    second_last = (1 << n_r) - 2
    circ.x(anc[2], [(s[0], 1)] + [(r[i], (second_last >> i) & 1) for i in range(n_r)])
    circ.x(anc[3], [(c[i], 1) for i in range(n_c)] + [(r[0], 0)])


def _emit_node_dummy(circ: Circuit, r: Register, c: Register, s: Register,
                     anc: Register, d_bit: int) -> None:
    """d ^= C1 or C2 or C3 or C4; condition bits restored."""
    _emit_conditions(circ, r, c, s, anc)
    circ.x(d_bit)
    circ.x(d_bit, [(anc[i], 0) for i in range(4)])
    _emit_conditions(circ, r, c, s, anc)


def _emit_validation(circ: Circuit) -> None:
    """f ^= D(j) or D(k); all six scratch bits uncomputed."""
    reg = circ.registers
    src = reg["r"], reg["c"], reg["s"]
    dst = reg["rp"], reg["cp"], reg["sp"]
    f, anc = reg["f"], reg["anc"]
    dj, dk = anc[4], anc[5]
    _emit_node_dummy(circ, *src, anc, dj)
    _emit_node_dummy(circ, *dst, anc, dk)
    circ.x(f[0])
    circ.x(f[0], [(dj, 0), (dk, 0)])
    _emit_node_dummy(circ, *dst, anc, dk)
    _emit_node_dummy(circ, *src, anc, dj)


def _oracle_registers(circ: Circuit, spec: LatticeSpec) -> Circuit:
    """Declare S_a's registers on ``circ``; the stage emitters read them by name."""
    circ.register("r", spec.n_r)
    circ.register("c", spec.n_c)
    circ.register("s", 1)
    circ.register("ell", 2)
    circ.register("rp", spec.n_r)
    circ.register("cp", spec.n_c)
    circ.register("sp", 1)
    circ.register("f", 1)
    circ.register("anc", 6)
    return circ


def _emit_connectivity(circ: Circuit) -> None:
    """S_a on registers declared by ``_oracle_registers``."""
    _emit_shift(circ)
    _emit_slot_uncompute(circ)
    _emit_coord_add(circ)
    _emit_validation(circ)


def shift_init(spec: LatticeSpec) -> Circuit:
    """Standalone shift-loading stage; inputs r (only its parity bit acts), s, ell."""
    circ = _oracle_registers(Circuit(), spec)
    _emit_shift(circ)
    return circ


def coord_adder(spec: LatticeSpec) -> Circuit:
    """Standalone modular coordinate addition; shift registers pre-loaded."""
    circ = _oracle_registers(Circuit(), spec)
    _emit_coord_add(circ)
    return circ


def bond_validation(spec: LatticeSpec) -> Circuit:
    """Standalone ghost-bond detector over two populated node registers."""
    circ = _oracle_registers(Circuit(), spec)
    _emit_validation(circ)
    return circ


def connectivity_oracle(spec: LatticeSpec) -> Circuit:
    """Full S_a: shift, slot uncompute, coordinate add, bond validation."""
    circ = _oracle_registers(Circuit(), spec)
    _emit_connectivity(circ)
    return circ


def oracle_mismatches(circ: Circuit, spec: LatticeSpec) -> tuple[int, int, np.ndarray]:
    """Run a built S_a on every (j, slot) basis input and check it against ``lattice.adjacency``.

    All 3N inputs go through ``permute_keys`` as one batch.  An output
    matches when its whole key equals the expected one: the source, the
    neighbor, f = 1 exactly for ghost bonds and 0 in every other register
    (slot, scratch).  Returns (inputs, mismatching outputs, the bonds read
    off the f = 0 outputs as ``Adjacency.bond_set`` gives them).
    """
    adj = adjacency(spec)
    j = np.repeat(np.arange(spec.n_total), SPARSITY)
    src = node_assign(spec, j, primed=False)
    slots = np.tile(np.arange(SPARSITY), spec.n_total)
    keys = permute_keys(circ, basis_keys(circ, {**src, "ell": slots}))
    expected = basis_keys(circ, {**src, **node_assign(spec, adj.neighbors.ravel(), primed=True),
                                 "f": (~adj.valid.ravel()).astype(np.int64)})
    out = key_values(circ, keys)
    k = encode_coord(NodeCoord(out["rp"], out["cp"], out["sp"]), spec).astype(np.int64)
    bonds = Adjacency(k.reshape(-1, SPARSITY), (out["f"] == 0).reshape(-1, SPARSITY)).bond_set()
    return len(keys), int(np.count_nonzero(keys != expected)), bonds


def node_assign(spec: LatticeSpec, j, primed: bool) -> dict:
    """Register values {r, c, s} (or the primed names) of node j, an int or an int array."""
    co = decode_index(j, spec)
    return {"rp": co.r, "cp": co.c, "sp": co.s} if primed else {"r": co.r, "c": co.c, "s": co.s}


def node_value_bits(circ: Circuit, primed: bool) -> tuple[int, ...]:
    """Qubits of a node register in index significance order (s, c, r)."""
    names = ("sp", "cp", "rp") if primed else ("s", "c", "r")
    return tuple(q for name in names for q in circ.registers[name].bits)


# -- comparator and ordered swap --------------------------------------------


def _emit_ordered_swap(circ: Circuit, j_bits, k_bits, flag: int, order: int) -> None:
    """Swap j and k when k < j and record that in ``order``; ``flag`` is restored."""
    circ.compare_lt(k_bits, j_bits, flag)
    circ.x(order, [(flag, 1)])
    for qa, qb in zip(j_bits, k_bits):
        circ.swap(qa, qb, [(flag, 1)])
    circ.x(flag, [(order, 1)])


def comparator(width: int) -> Circuit:
    """flag ^= [k < j] over two node-index registers."""
    circ = Circuit()
    j = circ.register("j", width)
    k = circ.register("k", width)
    flag = circ.register("flag", 1)
    circ.compare_lt(k.bits, j.bits, flag[0])
    return circ


def ordered_swap(width: int) -> Circuit:
    """Sort |j>|k>: compare, record the order bit, swap, uncompute the flag."""
    circ = Circuit()
    j = circ.register("j", width)
    k = circ.register("k", width)
    flag = circ.register("flag", 1)
    order = circ.register("order", 1)
    _emit_ordered_swap(circ, j.bits, k.bits, flag[0], order[0])
    return circ


# -- velocity loaders --------------------------------------------------------


def velocity_loader_two_bucket(n: int, key: BucketKey, velocities,
                               scale: float | None = None) -> Circuit:
    """Bucket-keyed velocity loading over all 2**n node indices.

    Uniform superposition, parity-key bucket bit, bucket-controlled Ry on
    the rotation ancilla with sin(theta_b/2) = v_b / scale, then key
    uncomputation.  Postselecting the ancilla on |1> leaves amplitudes
    proportional to the bucket velocities.
    """
    v0, v1 = float(velocities[0]), float(velocities[1])
    if scale is None:
        scale = max(abs(v0), abs(v1))
    if scale <= 0 or max(abs(v0), abs(v1)) > scale * (1 + 1e-12):
        raise ValueError("velocities exceed the rotation scale")
    circ = Circuit()
    j = circ.register("j", n)
    b = circ.register("b", 1)
    anc = circ.register("anc", 1)
    for i in range(n):
        circ.h(j[i])

    def key_mix():
        if key.r:
            circ.x(b[0])
        for i in range(n):
            if (key.s >> i) & 1:
                circ.x(b[0], [(j[i], 1)])

    key_mix()
    circ.ry(anc[0], 2.0 * math.asin(max(-1.0, min(1.0, v0 / scale))), [(b[0], 0)])
    circ.ry(anc[0], 2.0 * math.asin(max(-1.0, min(1.0, v1 / scale))), [(b[0], 1)])
    key_mix()
    return circ


def _postselect(circ: Circuit, conditions: dict[str, int], read: str
                ) -> tuple[np.ndarray, float]:
    """Run ``circ`` from |0>, keep the outputs whose registers match ``conditions``
    and renormalize; returns (amplitudes indexed by register ``read``, success prob)."""
    _, values, amps = postselect(circ, {}, conditions)
    prob = float(np.sum(np.abs(amps) ** 2))
    out = np.zeros(1 << circ.registers[read].width, dtype=complex)
    out[values[read]] = amps / math.sqrt(prob)
    return out, prob


def run_velocity_loader(n: int, key: BucketKey, velocities,
                        scale: float | None = None) -> tuple[np.ndarray, float]:
    """Simulate the loader and postselect; returns (amplitudes over j, success prob)."""
    circ = velocity_loader_two_bucket(n, key, velocities, scale)
    return _postselect(circ, {"anc": 1, "b": 0}, "j")


def inequality_test_loader(values, r: int) -> Circuit:
    """Amplitude loading by inequality testing against a value table.

    The table is looked up into a value register, a uniform r-qubit
    reference register is compared against it (flag set when reference >=
    value), and Hadamards concentrate weight on the all-zero reference.
    Postselecting reference = 0 and flag = 0 leaves amplitudes
    proportional to the (signed) table entries; the lookup is uncomputed.
    """
    n = int(math.log2(len(values)))
    if 1 << n != len(values):
        raise ValueError("table length must be a power of two")
    mags = [abs(int(v)) for v in values]
    signs = [1 if v < 0 else 0 for v in values]
    if max(mags) >= 1 << r:
        raise ValueError(f"values need more than {r} precision bits")
    circ = Circuit()
    i_reg = circ.register("i", n)
    v_reg = circ.register("v", r)
    x_reg = circ.register("x", r)
    flag = circ.register("flag", 1)
    sign = circ.register("sign", 1)
    for q in i_reg.bits:
        circ.h(q)
    circ.lookup(i_reg.bits, v_reg.bits, mags)
    if any(signs):
        circ.lookup(i_reg.bits, sign.bits, signs)
        circ.z(sign[0])
        circ.lookup(i_reg.bits, sign.bits, signs)
    for q in x_reg.bits:
        circ.h(q)
    circ.x(flag[0])
    circ.compare_lt(x_reg.bits, v_reg.bits, flag[0])
    for q in x_reg.bits:
        circ.h(q)
    circ.lookup(i_reg.bits, v_reg.bits, mags)
    return circ


def run_inequality_loader(values, r: int) -> tuple[np.ndarray, float]:
    """Simulate the inequality-test loader; returns (amplitudes over i, success prob)."""
    circ = inequality_test_loader(values, r)
    return _postselect(circ, {"x": 0, "flag": 0, "v": 0, "sign": 0}, "i")


def emit_slot_superposition(circ: Circuit, ell: Register) -> None:
    """Prepare (|0> + |1> + |2>)/sqrt(3) on the two slot qubits."""
    circ.ry(ell[1], 2.0 * math.acos(math.sqrt(2.0 / 3.0)))
    circ.h(ell[0], [(ell[1], 0)])


# -- gate-level block encodings ----------------------------------------------


def _emit_incidence_dagger(circ: Circuit) -> list[Gate]:
    """Gate list whose |0>-ancilla block is B^T / sqrt(2 kappa/m d)."""
    sh = circ.blank()
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
    sh = circ.blank()
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

