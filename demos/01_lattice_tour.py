"""Tour of the padded honeycomb indexing: decode rule, shifts, dummy rules.

Run from the repository root:  python demos/01_lattice_tour.py
Writes out/lattice.svg with physical sites solid and padding hollow.
"""

from pathlib import Path

import numpy as np

from qenm.lattice import (LatticeSpec, adjacency, brute_force_adjacency,
                          decode_index, dummy_mask, neighbor, shift_vector)
from qenm.svgplot import lattice_svg

spec = LatticeSpec(n_r=3, n_c=3)   # the 8x8-unit-cell sheet, 128 sites
print(f"lattice: {spec.rows} x {spec.cols} unit cells, {spec.n_total} sites, "
      f"{spec.address_bits} address bits")

# the decode rule j = 2^(n_c+1) r + 2c + s, little-endian
for j in (0, 11, 77):
    print(f"  j={j:3d} -> {decode_index(j, spec)}")

# neighbor slots always flip the sublattice; the unit-cell shift depends on
# row parity and sublattice only (shift_vector and neighbor take arrays too)
dr, dc = shift_vector(0, 0, np.arange(3))
print("shift table row (r0=0, s=0):", list(zip(dr.tolist(), dc.tolist())))

dummies = dummy_mask(spec)
print(f"padding: {int(dummies.sum())} dummy sites out of {spec.n_total}")

j = 18
for l in range(3):
    k, valid = neighbor(j, l, spec)
    print(f"  neighbor({j}, slot {l}) = {k}  valid={valid}")

# the shift-table adjacency agrees with a purely geometric reconstruction
assert adjacency(spec).bond_set() == brute_force_adjacency(spec)
print("shift-table bonds == geometric unit-distance bonds")

out = Path("out")
out.mkdir(exist_ok=True)
lattice_svg(out / "lattice.svg", spec)
print(f"wrote {out / 'lattice.svg'}")
