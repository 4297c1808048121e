"""Padded graphene lattice: index arithmetic, neighbor shifts, dummy rules.

A sheet of ``N = 2**(n_r + n_c + 1)`` sites is addressed by two-atom unit
cells: ``n_r`` row bits, ``n_c`` column bits and one sublattice bit, packed
little-endian as

    j = 2**(n_c + 1) * r + 2 * c + s

Only ``decode_index`` and ``encode_coord`` (ints or int arrays) know this
layout, and ``SPARSITY`` is the one copy of d = 3.

Every site has exactly three neighbor slots l in {0, 1, 2}, always on the
opposite sublattice (delta_s = 1).  The unit-cell offset (delta_r, delta_c)
of slot l depends only on the row parity r0 (low bit of r) and the
sublattice bit s.  Coordinate additions wrap modulo the register sizes;
sites in the padding region are flagged as dummies by four boundary rules,
and a bond is valid only when neither endpoint is a dummy.  Ghost bonds
created by the wrap-around always terminate on a dummy, so no wrap is ever
special-cased.  ``neighbor`` is the one rule combining all of this, for ints
or int arrays alike; ``adjacency`` is a single call of it on every slot.

The geometric embedding used by the brute-force test oracle places a site
at ``x = sqrt(3) * (c - r0/2)``, ``y = 1.5 * r + s`` with bond length 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: (r0, s, l) -> (delta_r, delta_c); the sublattice shift is always 1.
SHIFT_TABLE = {
    (0, 0, 0): (0, 0), (0, 0, 1): (-1, 0), (0, 0, 2): (-1, +1),
    (0, 1, 0): (0, 0), (0, 1, 1): (+1, 0), (0, 1, 2): (+1, +1),
    (1, 0, 0): (0, 0), (1, 0, 1): (-1, -1), (1, 0, 2): (-1, 0),
    (1, 1, 0): (0, 0), (1, 1, 1): (+1, -1), (1, 1, 2): (+1, 0),
}

SPARSITY = 3


@dataclass(frozen=True)
class LatticeSpec:
    """Bit widths of the row and column registers."""

    n_r: int
    n_c: int

    def __post_init__(self):
        if self.n_r < 1 or self.n_c < 1:
            raise ValueError("register widths must be >= 1")

    @property
    def rows(self) -> int:
        return 1 << self.n_r

    @property
    def cols(self) -> int:
        return 1 << self.n_c

    @property
    def n_total(self) -> int:
        return 1 << (self.n_r + self.n_c + 1)

    @property
    def address_bits(self) -> int:
        return self.n_r + self.n_c + 1


@dataclass(frozen=True)
class NodeCoord:
    r: int
    c: int
    s: int


def decode_index(j: int | np.ndarray, spec: LatticeSpec) -> NodeCoord:
    """Unpack node index j, an int or an int array, into (r, c, s)."""
    if isinstance(j, np.ndarray):
        bad = (j < 0) | (j >= spec.n_total)
        if bad.any():
            raise ValueError(f"node index {j[bad][0]} out of range for {spec}")
    elif not 0 <= j < spec.n_total:
        raise ValueError(f"node index {j} out of range for {spec}")
    s = j & 1
    c = (j >> 1) & (spec.cols - 1)
    r = j >> (spec.n_c + 1)
    return NodeCoord(r, c, s)


def encode_coord(coord: NodeCoord, spec: LatticeSpec) -> int | np.ndarray:
    """Pack (r, c, s), ints or int arrays, into the node index."""
    return (coord.r << (spec.n_c + 1)) | (coord.c << 1) | coord.s


def shift_vector(r0: int | np.ndarray, s: int | np.ndarray, l: int | np.ndarray) -> tuple:
    """Unit-cell offset of slot l for a source with parity r0, sublattice s; ints or arrays.

    Read from ``SHIFT_TABLE`` on every call, so an edit to the table takes effect at once.
    """
    l = np.asarray(l)
    bad = (l < 0) | (l >= SPARSITY)
    if bad.any():
        raise ValueError(f"neighbor slot must be 0, 1 or 2, got {l[bad][0]}")
    dr, dc = np.moveaxis(np.array([[[SHIFT_TABLE[r, t, k] for k in range(SPARSITY)]
                                    for t in (0, 1)] for r in (0, 1)]), -1, 0)
    return dr[r0, s, l], dc[r0, s, l]


def is_dummy(coord: NodeCoord, spec: LatticeSpec) -> bool | np.ndarray:
    """Boundary rules flagging padding sites, for int or array coordinates.

    C1: bottom edge, C2: top buffer row, C3: second-to-last row upper
    sublattice, C4: right buffer column on even rows.
    """
    r, c, s = coord.r, coord.c, coord.s
    c1 = (s == 0) & (r == 0)
    c2 = r == spec.rows - 1
    c3 = (s == 1) & (r == spec.rows - 2)
    c4 = (c == spec.cols - 1) & ((r & 1) == 0)
    return c1 | c2 | c3 | c4


def neighbor(j: int | np.ndarray, l: int | np.ndarray, spec: LatticeSpec) -> tuple:
    """Site in slot l of j and whether the bond is physical; ints or arrays that broadcast."""
    src = decode_index(j, spec)
    dr, dc = shift_vector(src.r & 1, src.s, l)
    dst = NodeCoord((src.r + dr) % spec.rows, (src.c + dc) % spec.cols, src.s ^ 1)
    return encode_coord(dst, spec), ~(is_dummy(src, spec) | is_dummy(dst, spec))


@dataclass
class Adjacency:
    """Per-node neighbor slots with bond validity flags.

    ``neighbors[j, l]`` is the site in slot l of j; ``valid[j, l]`` marks
    physical bonds.
    """

    neighbors: np.ndarray
    valid: np.ndarray

    def bond_set(self) -> np.ndarray:
        """Physical bonds as (min, max) rows, each once, lexsorted: a (P, 2) int array."""
        j, l = np.nonzero(self.valid)
        k = self.neighbors[j, l]
        n = len(self.neighbors)
        keys = np.sort(np.minimum(j, k) * n + np.maximum(j, k))
        # each key once by sort and dedupe: a bare np.unique imports numpy.ma (1.2 MB)
        return np.stack(np.divmod(keys[np.diff(keys, prepend=-1) != 0], n), axis=1)

    def degrees(self) -> np.ndarray:
        return self.valid.sum(axis=1)


def adjacency(spec: LatticeSpec) -> Adjacency:
    """Shift-table adjacency over the full padded lattice, one ``neighbor`` call."""
    return Adjacency(*neighbor(np.arange(spec.n_total)[:, None], np.arange(SPARSITY), spec))


def dummy_mask(spec: LatticeSpec) -> np.ndarray:
    """Boolean mask over node indices, True where the site is padding."""
    return is_dummy(decode_index(np.arange(spec.n_total), spec), spec)


def node_positions(spec: LatticeSpec) -> np.ndarray:
    """Honeycomb embedding of every site (bond length 1), shape (N, 2)."""
    co = decode_index(np.arange(spec.n_total), spec)
    return np.stack([np.sqrt(3.0) * (co.c - 0.5 * (co.r & 1)), 1.5 * co.r + co.s], axis=1)


def brute_force_adjacency(spec: LatticeSpec) -> np.ndarray:
    """Geometric bonds as lexsorted (min, max) rows, independent of the shift table.

    Physical sites are embedded in the plane and every pair at unit
    distance is bonded.  A cell list finds the pairs: binned into square
    cells as wide as that distance, two sites that close lie in one cell or
    in two neighbouring ones, so each site is measured against the sites of
    its own cell and its eight neighbours alone.  The tests and ``qenm
    validate``'s shift-table-vs-geometric-adjacency check compare
    ``adjacency``'s ``bond_set`` with it.
    """
    if spec.n_total > 1 << 15:
        raise ValueError("geometric oracle is meant for small lattices")
    phys = np.flatnonzero(~dummy_mask(spec))
    pos = node_positions(spec)[phys]
    reach = 1.0 + 1e-6
    # cell (x, y) of each site, numbered from 1, so that no neighbour of a cell wraps to another row
    cell = np.floor((pos - pos.min(axis=0, initial=0.0)) / reach).astype(np.intp) + 1
    width = int(cell[:, 0].max(initial=0)) + 2
    key = cell[:, 1] * width + cell[:, 0]
    offsets = (np.arange(-1, 2)[:, None] * width + np.arange(-1, 2)).ravel()    # the 3 x 3 cells
    near = (key[:, None] + offsets).ravel()
    # in key order, each cell's sites are one run: where each near cell's run starts, how long
    order = np.argsort(key, kind="stable")
    size = np.bincount(key, minlength=near.max(initial=0) + 1)
    start, count = (np.cumsum(size) - size)[near], size[near]
    a = np.repeat(np.arange(len(phys)).repeat(len(offsets)), count)
    b = order[np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())]
    a, b = a[a < b], b[a < b]       # a < b index the ascending phys, so each bond is (min, max)
    bonded = np.hypot(*(pos[a] - pos[b]).T) <= reach
    pairs = phys[np.stack([a[bonded], b[bonded]], axis=1)]
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]

