"""Gate-level circuit IR, a batched basis-key simulator and its dict reference.

Registers are named runs of qubits, little-endian (bit 0 of a register is
its least significant bit and lowest global qubit index).  Gates carry an
optional list of (qubit, value) controls; a gate fires on a basis state
only when every control bit matches.

``simulate_keys`` runs every circuit the program runs.  Each basis input
is one ``uint64`` key in a numpy array, carried with its input row and a
complex amplitude.  Each x, swap, add, sub, lt and lookup gate, with its
controls, is a few array operations over all keys; z, s, sdg and gphase
multiply the amplitudes of the entries they fire on; h and ry scale those
entries, append a copy of each with the target flipped, then sum equal
(row, key) entries and drop sums of modulus <= ``PRUNE_EPS``, the dict
reference's rule.  ``postselect`` runs register values through it and
keeps the outputs whose registers hold given values.

``permute_keys`` (and ``permute_basis``, with ``basis_keys`` and
``key_values`` around it) returns the batch's keys for basis-permutation
circuits, which keep one key per input, and rejects circuits whose h or ry
gates leave an input in superposition.  Circuits wider than 64 qubits raise
``ValueError``.

``simulate`` and ``run_basis`` keep the state as a dict {basis int:
amplitude} of Python ints, so they reach any width.  They are the reference
the tests compare the batch against, and no other module calls them.

Reversible arithmetic (`add`, `sub`, `lt`) and table lookups execute
functionally on the keys; `expand_composites` rewrites them into a
CNOT/Toffoli ripple-carry form (MAJ/UMA chains) that the tests check
against the functional behavior exhaustively on small widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

PRUNE_EPS = 1e-15


@dataclass(frozen=True)
class Register:
    name: str
    offset: int
    width: int

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.width:
            raise IndexError(f"bit {i} out of register {self.name}[{self.width}]")
        return self.offset + i

    def __len__(self) -> int:
        return self.width

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(range(self.offset, self.offset + self.width))


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...] = ()
    controls: tuple[tuple[int, int], ...] = ()
    theta: float = 0.0
    a: tuple[int, ...] = ()       # operand bits (source / index)
    b: tuple[int, ...] = ()       # operand bits (destination / value)
    table: tuple[int, ...] = ()


def _norm_controls(controls) -> tuple[tuple[int, int], ...]:
    return tuple((int(q), int(v)) for q, v in controls) if controls else ()


class Circuit:
    def __init__(self):
        self.registers: dict[str, Register] = {}
        self.n_qubits = 0
        self.gates: list[Gate] = []

    def blank(self) -> Circuit:
        """A gate-free circuit over a copy of this circuit's registers."""
        out = Circuit()
        out.registers = dict(self.registers)
        out.n_qubits = self.n_qubits
        return out

    def register(self, name: str, width: int) -> Register:
        if name in self.registers:
            raise ValueError(f"register {name!r} already declared")
        reg = Register(name, self.n_qubits, width)
        self.registers[name] = reg
        self.n_qubits += width
        return reg

    def _append(self, gate: Gate) -> None:
        for q in (*gate.targets, *gate.a, *gate.b, *(q for q, _ in gate.controls)):
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"qubit {q} outside circuit of {self.n_qubits} qubits")
        self.gates.append(gate)

    # -- elementary gates ------------------------------------------------
    def x(self, q, controls=()):
        self._append(Gate("x", (q,), _norm_controls(controls)))

    def z(self, q, controls=()):
        self._append(Gate("z", (q,), _norm_controls(controls)))

    def s(self, q, controls=()):
        self._append(Gate("s", (q,), _norm_controls(controls)))

    def sdg(self, q, controls=()):
        self._append(Gate("sdg", (q,), _norm_controls(controls)))

    def h(self, q, controls=()):
        self._append(Gate("h", (q,), _norm_controls(controls)))

    def ry(self, q, theta, controls=()):
        self._append(Gate("ry", (q,), _norm_controls(controls), theta=float(theta)))

    def swap(self, q1, q2, controls=()):
        self._append(Gate("swap", (q1, q2), _norm_controls(controls)))

    def gphase(self, theta, controls=()):
        self._append(Gate("gphase", (), _norm_controls(controls), theta=float(theta)))

    # -- reversible composites --------------------------------------------
    def add(self, src_bits, dst_bits, controls=()):
        """dst += src mod 2**len(dst); src unchanged."""
        self._append(Gate("add", a=tuple(src_bits), b=tuple(dst_bits),
                          controls=_norm_controls(controls)))

    def sub(self, src_bits, dst_bits, controls=()):
        self._append(Gate("sub", a=tuple(src_bits), b=tuple(dst_bits),
                          controls=_norm_controls(controls)))

    def compare_lt(self, a_bits, b_bits, flag, controls=()):
        """flag ^= [a < b], unsigned; operands unchanged."""
        self._append(Gate("lt", (flag,), _norm_controls(controls),
                          a=tuple(a_bits), b=tuple(b_bits)))

    def lookup(self, index_bits, value_bits, table, controls=()):
        """value ^= table[index]."""
        self._append(Gate("lookup", a=tuple(index_bits), b=tuple(value_bits),
                          table=tuple(int(t) for t in table),
                          controls=_norm_controls(controls)))


# -- gate algebra ---------------------------------------------------------

_INVERSE = {"x": "x", "z": "z", "h": "h", "swap": "swap", "lt": "lt",
            "lookup": "lookup", "s": "sdg", "sdg": "s", "add": "sub", "sub": "add"}


def inverted_gates(gates) -> list[Gate]:
    return [replace(g, theta=-g.theta) if g.kind in ("ry", "gphase")
            else replace(g, kind=_INVERSE[g.kind]) for g in reversed(gates)]


def controlled_gates(gates, extra_controls) -> list[Gate]:
    extra = _norm_controls(extra_controls)
    return [replace(g, controls=g.controls + extra) for g in gates]


def inverse(circ: Circuit) -> Circuit:
    inv = circ.blank()
    inv.gates = inverted_gates(circ.gates)
    return inv


# -- reference dict simulator ---------------------------------------------

def _gather(key: int, bits) -> int:
    v = 0
    for i, q in enumerate(bits):
        v |= ((key >> q) & 1) << i
    return v


def _scatter(key: int, bits, value: int) -> int:
    for i, q in enumerate(bits):
        if (value >> i) & 1:
            key |= 1 << q
        else:
            key &= ~(1 << q)
    return key


class SparseState:
    """Statevector as {basis int: amplitude} over a circuit's registers."""

    def __init__(self, circuit: Circuit, amps: dict[int, complex]):
        self.circuit = circuit
        self.amps = amps

    @classmethod
    def from_basis(cls, circuit: Circuit, init: dict[str, int] | None = None):
        key = 0
        for name, value in (init or {}).items():
            reg = circuit.registers[name]
            if not 0 <= value < (1 << reg.width):
                raise ValueError(f"{value} does not fit register {name}[{reg.width}]")
            key = _scatter(key, reg.bits, value)
        return cls(circuit, {key: 1.0 + 0.0j})

    def value(self, key: int, name: str) -> int:
        return _gather(key, self.circuit.registers[name].bits)

    def assignment(self, key: int) -> dict[str, int]:
        return {name: _gather(key, reg.bits) for name, reg in self.circuit.registers.items()}

    def amplitude(self, assign: dict[str, int]) -> complex:
        key = 0
        for name, value in assign.items():
            key = _scatter(key, self.circuit.registers[name].bits, value)
        return self.amps.get(key, 0.0 + 0.0j)


def _phase(gate: Gate) -> complex:
    """The factor a z, s, sdg or gphase gate puts on the states it acts on."""
    if gate.kind == "gphase":
        return complex(math.cos(gate.theta), math.sin(gate.theta))
    return {"z": -1.0, "s": 1j, "sdg": -1j}[gate.kind]


def _matrix(gate: Gate) -> tuple[float, float, float, float]:
    """(m00, m01, m10, m11) of an h or ry gate on its target qubit."""
    if gate.kind == "h":
        r = 1.0 / math.sqrt(2.0)
        return r, r, r, -r
    cth, sth = math.cos(gate.theta / 2.0), math.sin(gate.theta / 2.0)
    return cth, -sth, sth, cth


def _apply(gate: Gate, amps: dict[int, complex]) -> dict[int, complex]:
    kind = gate.kind
    ctrl = gate.controls

    def ok(key):
        return all((key >> q) & 1 == v for q, v in ctrl)

    if kind in ("x", "swap", "add", "sub", "lt", "lookup"):
        out = {}
        for key, amp in amps.items():
            if not ok(key):
                out[key] = amp
                continue
            if kind == "x":
                key ^= 1 << gate.targets[0]
            elif kind == "swap":
                q1, q2 = gate.targets
                b1, b2 = (key >> q1) & 1, (key >> q2) & 1
                if b1 != b2:
                    key ^= (1 << q1) | (1 << q2)
            elif kind in ("add", "sub"):
                w = len(gate.b)
                src = _gather(key, gate.a)
                dst = _gather(key, gate.b)
                dst = (dst + src) % (1 << w) if kind == "add" else (dst - src) % (1 << w)
                key = _scatter(key, gate.b, dst)
            elif kind == "lt":
                if _gather(key, gate.a) < _gather(key, gate.b):
                    key ^= 1 << gate.targets[0]
            else:  # lookup
                key = _scatter(key, gate.b,
                               _gather(key, gate.b) ^ gate.table[_gather(key, gate.a)])
            out[key] = amp
        return out

    if kind in ("z", "s", "sdg", "gphase"):
        phase = _phase(gate)
        out = {}
        for key, amp in amps.items():
            if ok(key) and (kind == "gphase" or (key >> gate.targets[0]) & 1):
                amp = amp * phase
            out[key] = amp
        return out

    if kind in ("h", "ry"):
        t = gate.targets[0]
        m00, m01, m10, m11 = _matrix(gate)
        out: dict[int, complex] = {}
        for key, amp in amps.items():
            if not ok(key):
                out[key] = out.get(key, 0.0) + amp
                continue
            k0, k1 = key & ~(1 << t), key | (1 << t)
            if (key >> t) & 1:
                out[k0] = out.get(k0, 0.0) + amp * m01
                out[k1] = out.get(k1, 0.0) + amp * m11
            else:
                out[k0] = out.get(k0, 0.0) + amp * m00
                out[k1] = out.get(k1, 0.0) + amp * m10
        return {k: a for k, a in out.items() if abs(a) > PRUNE_EPS}

    raise ValueError(f"unknown gate kind {kind!r}")


def simulate(circ: Circuit, init: dict[str, int] | None = None) -> SparseState:
    state = SparseState.from_basis(circ, init)
    amps = state.amps
    for gate in circ.gates:
        amps = _apply(gate, amps)
    state.amps = amps
    return state


def run_basis(circ: Circuit, init: dict[str, int] | None = None) -> dict[str, int]:
    """Apply a permutation-style circuit to a basis input.

    Asserts the output is a single basis state of unit magnitude and
    returns its register values.
    """
    state = simulate(circ, init)
    if len(state.amps) != 1:
        raise AssertionError(f"not a basis permutation: {len(state.amps)} output keys")
    key, amp = next(iter(state.amps.items()))
    if abs(abs(amp) - 1.0) > 1e-9:
        raise AssertionError(f"output magnitude {abs(amp)} != 1")
    return state.assignment(key)


# -- batched simulation ---------------------------------------------------

KEY_BITS = 64
_ALL_ONES = (1 << KEY_BITS) - 1
_PERMUTING = ("x", "swap", "add", "sub", "lt", "lookup")
_PHASES = ("z", "s", "sdg", "gphase")


def _check_key_width(circ: Circuit) -> None:
    if circ.n_qubits > KEY_BITS:
        raise ValueError(f"{circ.n_qubits} qubits do not fit a {KEY_BITS}-bit basis key")


def _take_bits(keys: np.ndarray, bits) -> np.ndarray:
    """The qubits ``bits`` of every key as little-endian values."""
    out = np.zeros_like(keys)
    for i, q in enumerate(bits):
        out |= ((keys >> q) & 1) << i
    return out


def _put_bits(keys: np.ndarray, bits, values: np.ndarray) -> np.ndarray:
    """Every key with the qubits ``bits`` overwritten by the low bits of ``values``."""
    cleared = _ALL_ONES
    for q in bits:
        cleared &= ~(1 << q)
    out = keys & np.uint64(cleared)
    for i, q in enumerate(bits):
        out |= ((values >> i) & 1) << q
    return out


def _fires(keys: np.ndarray, controls) -> np.ndarray | bool:
    """Mask of the keys on which every control matches (True when uncontrolled)."""
    ones = zeros = 0
    for q, v in controls:
        if v:
            ones |= 1 << q
        else:
            zeros |= 1 << q
    if ones & zeros:                # one qubit asked to be both 0 and 1
        return np.zeros(keys.shape, dtype=bool)
    if not ones | zeros:
        return True
    return (keys & np.uint64(ones | zeros)) == np.uint64(ones)


def _permute_gate(gate: Gate, keys: np.ndarray) -> np.ndarray:
    kind = gate.kind
    fires = _fires(keys, gate.controls)
    if kind == "x":
        new = keys ^ np.uint64(1 << gate.targets[0])
    elif kind == "swap":
        q1, q2 = gate.targets
        differ = ((keys >> q1) ^ (keys >> q2)) & 1
        new = keys ^ (differ << q1) ^ (differ << q2)
    elif kind in ("add", "sub"):
        src, dst = _take_bits(keys, gate.a), _take_bits(keys, gate.b)
        new = _put_bits(keys, gate.b, dst + src if kind == "add" else dst - src)
    elif kind == "lt":
        less = _take_bits(keys, gate.a) < _take_bits(keys, gate.b)
        new = keys ^ (less.astype(np.uint64) << gate.targets[0])
    else:  # lookup; keys the controls leave alone index entry 0
        table = np.array([t & _ALL_ONES for t in gate.table], dtype=np.uint64)
        index = np.where(fires, _take_bits(keys, gate.a), 0)
        new = _put_bits(keys, gate.b, _take_bits(keys, gate.b) ^ table[index])
    return new if fires is True else np.where(fires, new, keys)


def _phase_gate(gate: Gate, keys: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """The amplitudes after a z, s, sdg or gphase gate."""
    hits = _fires(keys, gate.controls)
    if gate.kind != "gphase":
        hits = hits & (((keys >> gate.targets[0]) & 1) == 1)
    return np.where(hits, amps * _phase(gate), amps)


def _superpose_gate(gate: Gate, rows: np.ndarray, keys: np.ndarray, amps: np.ndarray):
    """An h or ry gate: each entry it fires on keeps its key with the diagonal coefficient
    and gains a copy, target flipped, with the off-diagonal one; then ``_merge``."""
    t = gate.targets[0]
    m00, m01, m10, m11 = _matrix(gate)
    fires = np.broadcast_to(_fires(keys, gate.controls), keys.shape)
    one = ((keys >> t) & 1) == 1
    copies = amps[fires] * np.where(one[fires], m01, m10)
    amps = np.where(fires, amps * np.where(one, m11, m00), amps)
    return _merge(np.concatenate([rows, rows[fires]]),
                  np.concatenate([keys, keys[fires] ^ np.uint64(1 << t)]),
                  np.concatenate([amps, copies]))


def _merge(rows: np.ndarray, keys: np.ndarray, amps: np.ndarray):
    """Sum equal (row, key) entries, drop sums of modulus <= ``PRUNE_EPS``, sort by row, key."""
    order = np.lexsort((keys, rows))
    rows, keys, amps = rows[order], keys[order], amps[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (keys[1:] != keys[:-1])
    group = np.cumsum(first) - 1
    sums = np.bincount(group, amps.real) + 1j * np.bincount(group, amps.imag)
    kept = np.abs(sums) > PRUNE_EPS
    return rows[first][kept], keys[first][kept], sums[kept]


def basis_keys(circ: Circuit, values: dict[str, object]) -> np.ndarray:
    """Pack register values (integer arrays, broadcast together) into ``uint64`` keys.

    Registers not named are 0; a value outside its register raises ``ValueError``.
    """
    _check_key_width(circ)
    names = list(values)
    arrays = np.broadcast_arrays(*(np.asarray(values[name]) for name in names))
    keys = np.zeros(arrays[0].shape if arrays else (), dtype=np.uint64)
    for name, arr in zip(names, arrays):
        reg = circ.registers[name]
        if arr.size and not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"register {name} needs integer values, got {arr.dtype}")
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) >> reg.width):
            raise ValueError(f"values of {name} do not fit register {name}[{reg.width}]")
        keys |= arr.astype(np.uint64) << reg.offset
    return keys


def key_values(circ: Circuit, keys: np.ndarray) -> dict[str, np.ndarray]:
    """Unpack ``uint64`` keys into one ``uint64`` value array per register."""
    return {name: (keys >> reg.offset) & np.uint64((1 << reg.width) - 1)
            for name, reg in circ.registers.items()}


def simulate_keys(circ: Circuit, keys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run any circuit on a batch of ``uint64`` basis keys at once.

    Returns ``(rows, keys, amps)``: for each input row (its position in the
    flattened ``keys``), every output key of nonzero amplitude, sorted by row,
    then key.  Each h or ry gate merges equal (row, key) entries and the other
    gates map a row's entries one to one, so every (row, key) occurs once.
    """
    _check_key_width(circ)
    keys = np.asarray(keys, dtype=np.uint64).ravel()
    rows = np.arange(keys.size)
    amps = np.ones(keys.size, dtype=complex)
    for gate in circ.gates:
        if gate.kind in _PERMUTING:
            keys = _permute_gate(gate, keys)
        elif gate.kind in _PHASES:
            amps = _phase_gate(gate, keys, amps)
        elif gate.kind in ("h", "ry"):
            rows, keys, amps = _superpose_gate(gate, rows, keys, amps)
        else:
            raise ValueError(f"unknown gate kind {gate.kind!r}")
    order = np.lexsort((keys, rows))
    return rows[order], keys[order], amps[order]


def postselect(circ: Circuit, inputs: dict[str, object], conditions: dict[str, int]
               ) -> tuple[np.ndarray, dict[str, np.ndarray], np.ndarray]:
    """Run ``circ`` on basis inputs (register value arrays, as for ``basis_keys``) and keep
    the outputs whose registers equal ``conditions``: ``(rows, values, amps)`` are each kept
    entry's input row, register values (as ``key_values``) and unnormalized amplitude."""
    rows, keys, amps = simulate_keys(circ, basis_keys(circ, inputs))
    mask = sum(1 << q for name in conditions for q in circ.registers[name].bits)
    kept = (keys & np.uint64(mask)) == basis_keys(circ, conditions)
    return rows[kept], key_values(circ, keys[kept]), amps[kept]


def permute_keys(circ: Circuit, keys: np.ndarray) -> np.ndarray:
    """Apply a basis-permutation circuit to every ``uint64`` basis key at once.

    Raises ``ValueError`` when an input does not end as exactly one key.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    rows, out, _ = simulate_keys(circ, keys)
    if not np.array_equal(rows, np.arange(keys.size)):
        raise ValueError(f"not a basis permutation: {rows.size} output keys for "
                         f"{keys.size} inputs")
    return out.reshape(keys.shape)


def permute_basis(circ: Circuit, inputs: dict[str, object]) -> dict[str, np.ndarray]:
    """Batched ``run_basis``: register value arrays in, every register's value array out."""
    return key_values(circ, permute_keys(circ, basis_keys(circ, inputs)))


# -- ripple-carry expansions ----------------------------------------------

def _maj(gates, c, b, a, controls):
    gates.append(Gate("x", (b,), _norm_controls([(a, 1), *controls])))
    gates.append(Gate("x", (c,), _norm_controls([(a, 1), *controls])))
    gates.append(Gate("x", (a,), _norm_controls([(c, 1), (b, 1), *controls])))


def _uma(gates, c, b, a, controls):
    gates.append(Gate("x", (a,), _norm_controls([(c, 1), (b, 1), *controls])))
    gates.append(Gate("x", (c,), _norm_controls([(a, 1), *controls])))
    gates.append(Gate("x", (b,), _norm_controls([(c, 1), *controls])))


def _adder_expansion(a_bits, b_bits, scratch, controls) -> list[Gate]:
    """b += a mod 2**w as a MAJ/UMA ripple chain (no carry out)."""
    gates: list[Gate] = []
    w = len(b_bits)
    carries = [scratch, *a_bits[:-1]]
    for i in range(w):
        _maj(gates, carries[i], b_bits[i], a_bits[i], controls)
    for i in reversed(range(w)):
        _uma(gates, carries[i], b_bits[i], a_bits[i], controls)
    return gates


def _comparator_expansion(a_bits, b_bits, flag, scratch, controls) -> list[Gate]:
    """flag ^= [a < b] via the carry of b + ~a; operands restored."""
    gates: list[Gate] = []
    w = len(a_bits)
    for q in a_bits:
        gates.append(Gate("x", (q,), _norm_controls(controls)))
    carries = [scratch, *a_bits[:-1]]
    chain: list[Gate] = []
    for i in range(w):
        _maj(chain, carries[i], b_bits[i], a_bits[i], controls)
    gates.extend(chain)
    gates.append(Gate("x", (flag,), _norm_controls([(a_bits[-1], 1), *controls])))
    gates.extend(inverted_gates(chain))
    for q in a_bits:
        gates.append(Gate("x", (q,), _norm_controls(controls)))
    return gates


def _lookup_expansion(index_bits, value_bits, table, controls) -> list[Gate]:
    gates: list[Gate] = []
    n = len(index_bits)
    for idx, entry in enumerate(table):
        if entry == 0:
            continue
        pattern = [(q, (idx >> i) & 1) for i, q in enumerate(index_bits)]
        for i, q in enumerate(value_bits):
            if (entry >> i) & 1:
                gates.append(Gate("x", (q,), _norm_controls(pattern + list(controls))))
    return gates


def expand_composites(circ: Circuit) -> Circuit:
    """Rewrite add/sub/lt/lookup into elementary gates (one scratch qubit)."""
    out = circ.blank()
    scratch = out.register("scratch", 1)[0] if any(
        g.kind in ("add", "sub", "lt") for g in circ.gates) else None
    for g in circ.gates:
        if g.kind == "add":
            out.gates.extend(_adder_expansion(g.a, g.b, scratch, g.controls))
        elif g.kind == "sub":
            out.gates.extend(inverted_gates(_adder_expansion(g.a, g.b, scratch, g.controls)))
        elif g.kind == "lt":
            out.gates.extend(
                _comparator_expansion(g.a, g.b, g.targets[0], scratch, g.controls))
        elif g.kind == "lookup":
            out.gates.extend(_lookup_expansion(g.a, g.b, g.table, g.controls))
        else:
            out.gates.append(g)
    return out


# -- text dump -------------------------------------------------------------

def circuit_text(circ: Circuit) -> str:
    """Stable line-oriented dump for golden-file comparisons."""
    lines = [f"reg {r.name} {r.offset} {r.width}" for r in circ.registers.values()]
    for g in circ.gates:
        parts = [g.kind]
        if g.controls:
            parts.append("c=" + ",".join(f"{'+' if v else '-'}{q}" for q, v in g.controls))
        if g.targets:
            parts.append("t=" + ",".join(str(q) for q in g.targets))
        if g.a:
            parts.append("a=" + ",".join(str(q) for q in g.a))
        if g.b:
            parts.append("b=" + ",".join(str(q) for q in g.b))
        if g.kind in ("ry", "gphase"):
            parts.append(f"theta={g.theta:.17g}")
        if g.table:
            parts.append("table=" + ",".join(str(t) for t in g.table))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
