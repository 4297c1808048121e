"""Desk-scale quantum elastic network model laboratory for graphene sheets.

Classical coupled-oscillator reference dynamics, gate-level oracle
circuits, block-encoded Hamiltonian evolution and observable extraction,
cross-validated against each other at every seam.
"""

from .boltzmann import BucketKey, DiscretizedMB, MBParams, discretize_two_bucket
from .circuits import Circuit, inverse
from .encoding import (BlockHamiltonian, EncodedState, build_block_H, evolve_exact,
                       prepare_alternative, prepare_standard)
from .enm import (SystemMatrices, Trajectory, build_system, condition_number_B,
                  conserved_F, evolve_classical, pseudoinverse_trace,
                  system_from_bonds)
from .lattice import (Adjacency, LatticeSpec, NodeCoord, adjacency,
                      brute_force_adjacency, decode_index, encode_coord, is_dummy,
                      neighbor, shift_vector)
from .measure import SubsetSelector, heat_binary_search, heat_experiment, ripple_msd
from .oracles import (comparator, connectivity_oracle, coord_adder,
                      hamiltonian_block_circuit, incidence_block_circuit,
                      inequality_test_loader, mass_oracle, oracle_mismatches,
                      ordered_swap, shift_init, velocity_loader_two_bucket)

__version__ = "0.1.0"
