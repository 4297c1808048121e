"""Observables over encoded states and the two flagship experiments.

The standard encoding exposes energies as probabilities: the summed
|amplitude|^2 over a node subset V of the velocity block is K_V(t)/E, and
over a bond subset of the pair block is U_V(t)/E.  The alternative
encoding exposes squared displacements: the first-block weight of V is
sum_V (P y)_i^2 / 2F with y = sqrt(m) x, so the subset MSD is (2F/|V|)
times that weight with each node's term divided by its mass m_i.

``subset_probability`` reads such a fraction off the statevector exactly;
the estimate reports of the amplitude-estimation contract are ``reference``'s.

Heat transfer: a boundary hotspot gets thermal velocities, the rest of the
sheet starts cold, and a classical binary search over column bands tracks
the leading edge by keeping the half with the larger kinetic-energy
fraction at each of ceil(log2(#regions)) halvings (ties keep the
lexicographically lower half); bands are unit-cell columns from
``lattice.decode_index``.  Rippling: out-of-plane thermal velocities,
alternative encoding, time-averaged MSD and the B-factor 8 pi^2 <M>.
Both load thermal velocities with ``boltzmann.thermal_velocities``.

The two experiments read the one Jacobi-Anger series of ``encoding``, an
``enm.ChebyshevSeries``, through its one reader, a sample or a whole grid
at a time; ``cli``'s simulate reads it a block of samples at a time and
reduces each block with ``standard_comparison``: the largest deviation from
the classical reference's amplitudes and the kinetic and potential fractions
of every sample.  Heat searches state by state, so it walks
``encoding.evolve_exact``; rippling reads the MSD of ``amplitude_msd`` at
every sample, so it takes the whole grid from ``encoding.evolve_grid`` and
reduces the node block once.  Their classical references
are one reduction over the time grid too: a (probes, regions) table of
``enm.kinetic_energy_subset`` for the argmax region, ``enm.msd_subset``
over every sample for the MSD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import boltzmann, encoding, enm
from .lattice import LatticeSpec, decode_index, dummy_mask


@dataclass(frozen=True)
class SubsetSelector:
    target: str                       # "kinetic" | "potential" | "displacement"
    nodes: tuple[int, ...] = ()
    bonds: tuple[tuple[int, int], ...] = ()


def subset_probability(state: encoding.EncodedState, sel: SubsetSelector) -> float:
    """Summed |amplitude|^2 over the basis states selected by ``sel``, on every axis.

    Bonds that are not bonded pairs (j, k), j < k, of the system select no
    basis state and add nothing.
    """
    if sel.target == "kinetic" or (sel.target == "displacement"
                                   and state.tag == "alternative"):
        nodes = np.asarray(sel.nodes, dtype=int)
        if nodes.size == 0:
            raise ValueError("empty node subset")
        block = state.node_amps[:, nodes]
    elif sel.target == "potential":
        block = state.pair_amps
        if sel.bonds:
            cols = enm.pair_index(state.sys, sel.bonds)
            block = block[:, cols[cols >= 0]]
    elif sel.target == "displacement":
        raise ValueError(
            "standard encoding carries no displacement amplitudes (all kappa_jj = 0)")
    else:
        raise ValueError(f"unknown selector target {sel.target!r}")
    return float(_weight(block))


def _weight(block: np.ndarray) -> np.ndarray:
    """Summed |amplitude|^2 of each (..., D, columns) block: one sum per axis, then the axes
    added in order (a single sum over the block moves comparison.csv in its last bits).

    The squares are laid out row by row, so that each axis is summed pairwise as one
    contiguous row, whatever the block's strides (a fancy-indexed block is column-major).
    """
    per_axis = np.sum(np.abs(block, order="C") ** 2, axis=-1)
    total = per_axis[..., 0]
    for a in range(1, per_axis.shape[-1]):
        total = total + per_axis[..., a]
    return total


def standard_comparison(amps: np.ndarray, reference: np.ndarray,
                        n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each sample of a block of standard-encoding ``amps`` (samples, D, N + P), N = ``n``:
    the largest |amps - reference| and the kinetic and potential fractions.

    The fractions are those over all nodes and over all bonds, summed by
    ``subset_probability``'s rule, so each equals that of the sample's ``EncodedState``.
    """
    deviation = np.abs(amps - reference).reshape(len(amps), -1).max(axis=1)
    return deviation, _weight(amps[..., :n]), _weight(amps[..., n:])


def amplitude_msd(node_amps: np.ndarray, masses: np.ndarray, f_const: float) -> np.ndarray:
    """(2F/|V|) sum_V |amp_j|^2 / m_j over the last axis of the alternative
    encoding's amplitudes ``node_amps`` of V, whose masses are ``masses``."""
    weight = np.sum(np.abs(node_amps) ** 2 / masses, axis=-1)
    return 2.0 * f_const * weight / node_amps.shape[-1]


# -- heat transfer -------------------------------------------------------------


def column_regions(spec: LatticeSpec, n_regions: int) -> list[tuple[int, ...]]:
    """Physical nodes split into contiguous unit-cell-column bands."""
    cols = spec.cols
    if n_regions < 1 or cols % n_regions != 0:
        raise ValueError(f"{n_regions} regions do not tile {cols} columns")
    phys = np.flatnonzero(~dummy_mask(spec))
    band = decode_index(phys, spec).c // (cols // n_regions)
    return [tuple(phys[band == b].tolist()) for b in range(n_regions)]


@dataclass
class SearchRound:
    low: tuple[int, ...]               # the region indices of each half measured
    high: tuple[int, ...]
    frac_low: float
    frac_high: float
    kept: str                          # "low" | "high"


@dataclass
class SearchResult:
    region_index: int
    nodes: tuple[int, ...]
    rounds: list[SearchRound]

    @property
    def query_count(self) -> int:
        return len(self.rounds)


def heat_binary_search(state: encoding.EncodedState,
                       regions: list[tuple[int, ...]]) -> SearchResult:
    """Locate the kinetic-energy leading edge among 2^m disjoint regions.

    Each query halves the candidate set, measuring the kinetic fraction of
    both halves and keeping the larger; exact ties keep the
    lexicographically lower half.  Issues exactly log2(#regions) queries.
    """
    m = int(math.log2(len(regions)))
    if 1 << m != len(regions):
        raise ValueError("region count must be a power of two")
    current = tuple(range(len(regions)))
    rounds: list[SearchRound] = []
    while len(current) > 1:
        half = len(current) // 2
        low, high = current[:half], current[half:]
        frac_low = subset_probability(
            state, SubsetSelector("kinetic", sum((regions[i] for i in low), ())))
        frac_high = subset_probability(
            state, SubsetSelector("kinetic", sum((regions[i] for i in high), ())))
        if frac_high > frac_low:
            current, kept = high, "high"
        else:
            current, kept = low, "low"
        rounds.append(SearchRound(low, high, frac_low, frac_high, kept))
    idx = current[0]
    return SearchResult(idx, regions[idx], rounds)


@dataclass
class HeatResult:
    times: np.ndarray
    found_regions: list[int]
    classical_argmax: list[int]
    search_logs: list[SearchResult]
    n_regions: int


def heat_experiment(spec: LatticeSpec, times, n_regions: int = 8, temperature: float = 1.0,
                    kappa: float = 1.0, mass: float = 1.0, k_B: float = 1.0,
                    seed: int = 0) -> HeatResult:
    """Boundary-hotspot heat propagation tracked by binary search.

    The hotspot, boundary region 0, carries median-split thermal
    velocities; the rest of the sheet starts at T = 0 with zero
    displacements, so the total energy is purely kinetic and the standard
    encoding needs no amplitude amplification.
    """
    sys = enm.build_system(spec, kappa=kappa, mass=mass)
    regions = column_regions(spec, n_regions)
    stream = boltzmann.KeyStream(seed)
    keys = [boltzmann.BucketKey.random(spec.address_bits, stream) for _ in range(2)]
    params = boltzmann.MBParams(m=mass, T=temperature, k_B=k_B)
    xdot0 = boltzmann.thermal_velocities(params, keys, sys.n, list(regions[0]))
    if not xdot0.any():
        raise ValueError("the hotspot starts with zero energy (temperature 0): "
                         "a zero-energy state has no encoding")
    x0 = np.zeros((2, sys.n))
    traj = enm.evolve_classical(sys, x0, xdot0, times)
    st0 = encoding.prepare_standard(sys, x0, xdot0)
    bh = encoding.build_block_H(sys)
    logs = [heat_binary_search(st, regions) for st in encoding.evolve_exact(st0, bh, traj.times)]
    probes = np.arange(traj.times.size)
    kinetic = np.stack([enm.kinetic_energy_subset(traj, probes, band) for band in regions],
                       axis=1)      # (probes, regions)
    argmax = np.argmax(kinetic, axis=1).tolist()
    return HeatResult(traj.times, [res.region_index for res in logs], argmax, logs, n_regions)


# -- out-of-plane rippling ------------------------------------------------------


@dataclass
class RippleResult:
    times: np.ndarray
    msd: np.ndarray                  # quantum-path subset MSD per time
    msd_classical: np.ndarray
    mean_msd: float
    b_factor: float


def ripple_msd(spec: LatticeSpec, times, temperature: float,
               kappa: float = 1.0, mass: float = 1.0, k_B: float = 1.0,
               seed: int = 0) -> RippleResult:
    """Out-of-plane MSD of the whole physical sheet from thermal velocities.

    The z axis reuses the in-plane harmonic machinery (axes are uncoupled).
    Velocities are median-split thermal samples with the center-of-mass
    drift projected out, zero displacements; the quantum path evolves the
    alternative encoding over the whole grid and reads ``amplitude_msd``
    at every sample, the classical path is ``enm.evolve_classical``'s.
    """
    times = np.asarray(times, dtype=float)
    sys = enm.build_system(spec, kappa=kappa, mass=mass)
    phys = np.flatnonzero(sys.physical)
    if temperature == 0.0:
        zeros = np.zeros_like(times)
        return RippleResult(times, zeros, zeros.copy(), 0.0, 0.0)
    lam_bar = enm.gershgorin_bound(sys)       # >= lambda_max: at most the shortest period
    period = 2.0 * math.pi / math.sqrt(lam_bar) if lam_bar > 0.0 else math.inf
    if times[-1] - times[0] < period:
        import warnings
        warnings.warn("averaging window shorter than one oscillation period")

    key = boltzmann.BucketKey.random(spec.address_bits, boltzmann.KeyStream(seed))
    params = boltzmann.MBParams(m=mass, T=temperature, k_B=k_B)
    zdot0 = boltzmann.thermal_velocities(params, [key], sys.n, phys)[0]
    # zero net momentum: project the mass-weighted velocity onto range(A)
    sqrt_m = np.sqrt(sys.masses)
    zdot0 = enm.project_range(sys, sqrt_m * zdot0) / sqrt_m
    z0 = np.zeros(sys.n)

    # the trajectory is dropped before the quantum grid is formed, which then holds the peak
    msd_c = enm.msd_subset(enm.evolve_classical(sys, z0, zdot0, times, axes=("z",)),
                           np.arange(times.size), phys)
    st0 = encoding.prepare_alternative(sys, z0, zdot0)
    bh = encoding.build_block_H(sys)
    # the MSD of every sample, read off the grid's node block at once
    msd_q = amplitude_msd(encoding.evolve_grid(st0, bh, times)[:, 0, phys], sys.masses[phys],
                 st0.norm_constant)
    mean = enm.time_average(msd_q, times)
    return RippleResult(times, msd_q, msd_c, mean, enm.b_factor(mean))

