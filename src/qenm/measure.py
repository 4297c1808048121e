"""Observables over encoded states and the two flagship experiments.

The standard encoding exposes energies as probabilities: the summed
|amplitude|^2 over a node subset V of the velocity block is K_V(t)/E, and
over a bond subset of the pair block is U_V(t)/E.  The alternative
encoding exposes squared displacements: the first-block weight of V is
sum_V (P y)_i^2 / 2F with y = sqrt(m) x, so the subset MSD is (2F/|V|)
times that weight with each node's term divided by its mass m_i.

Exact-expectation mode reads the probabilities off the statevector; shot
mode Bernoulli-samples subset membership and reports the binomial standard
error.  A report's ``estimate``, the fraction itself, is also its
detectability ratio (a subset exponentially smaller than E is formally
measurable but needs exponentially many estimation calls,
~log(1/delta)/epsilon per the amplitude-estimation contract).

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
at a time.  Heat searches state by state, so it walks
``encoding.evolve_exact``; rippling reads ``msd_fraction``'s MSD at every
sample, so it takes the whole grid from ``encoding.evolve_grid`` and reduces
the node block once, with the same formula.  Their classical references
are one reduction over the time grid too: a (probes, regions) table of
``enm.kinetic_energy_subset`` for the argmax region, ``enm.msd_subset``
over every sample for the MSD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import boltzmann, encoding, enm
from .lattice import LatticeSpec, decode_index, dummy_mask


@dataclass(frozen=True)
class SubsetSelector:
    target: str                       # "kinetic" | "potential" | "displacement"
    nodes: tuple[int, ...] = ()
    bonds: tuple[tuple[int, int], ...] = ()


@dataclass
class EstimateReport:
    estimate: float                   # fraction of the conserved constant
    mode: str                         # "exact-expectation" | "shot-sampled"
    shots: int | None = None
    stderr: float = 0.0
    observable: float | None = None   # rescaled physical value when defined
    epsilon: float = 0.01
    delta: float = 0.05
    oracle_calls: int = field(init=False)

    def __post_init__(self):
        self.oracle_calls = oracle_call_estimate(self.epsilon, self.delta)


def oracle_call_estimate(epsilon: float, delta: float) -> int:
    """Amplitude-estimation call count O(log(1/delta)/epsilon)."""
    if epsilon <= 0 or not 0 < delta < 1:
        raise ValueError("need epsilon > 0 and 0 < delta < 1")
    return math.ceil(math.log(1.0 / delta) / epsilon)


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
    # one sum per axis: a single sum over the block moves comparison.csv in its last bits
    return float(sum(np.sum(np.abs(row) ** 2) for row in block))


def energy_fraction(state: encoding.EncodedState, sel: SubsetSelector) -> EstimateReport:
    """K_V/E (or U_V/E) as an exact expectation over the standard encoding."""
    if state.tag != "standard":
        raise ValueError("energy fractions require the standard encoding")
    frac = subset_probability(state, sel)
    return EstimateReport(frac, "exact-expectation", observable=frac * state.norm_constant)


def msd_fraction(state: encoding.EncodedState, sel: SubsetSelector) -> EstimateReport:
    """Subset MSD fraction and the MSD (2F/|V|) sum_V |amp_j|^2 / m_j, alternative encoding."""
    if state.tag != "alternative":
        raise ValueError("MSD requires the alternative encoding")
    frac = subset_probability(state, SubsetSelector("displacement", sel.nodes))
    nodes = np.asarray(sel.nodes, dtype=int)
    msd = float(_msd(state.node_amps[0, nodes], state.sys.masses[nodes], state.norm_constant))
    return EstimateReport(frac, "exact-expectation", observable=msd)


def _msd(node_amps: np.ndarray, masses: np.ndarray, f_const: float) -> np.ndarray:
    """(2F/|V|) sum_V |amp_j|^2 / m_j over the last axis of the alternative
    encoding's amplitudes ``node_amps`` of V, whose masses are ``masses``."""
    weight = np.sum(np.abs(node_amps) ** 2 / masses, axis=-1)
    return 2.0 * f_const * weight / node_amps.shape[-1]


def shot_sample(state: encoding.EncodedState, sel: SubsetSelector, shots: int,
                seed: int) -> EstimateReport:
    """Bernoulli sampling of subset membership; binomial standard error."""
    if shots < 1:
        raise ValueError("need at least one shot")
    p = subset_probability(state, sel)
    rng = np.random.default_rng(seed)
    hits = int(rng.binomial(shots, min(max(p, 0.0), 1.0)))
    est = hits / shots
    stderr = math.sqrt(max(est * (1.0 - est), 0.0) / shots)
    return EstimateReport(est, "shot-sampled", shots=shots, stderr=stderr,
                          observable=est * state.norm_constant)


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
    region_indices: tuple[int, ...]
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
        rounds.append(SearchRound(current, frac_low, frac_high, kept))
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
    rng = np.random.default_rng(seed)
    keys = [boltzmann.BucketKey.random(spec.address_bits, rng) for _ in range(2)]
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
    alternative encoding over the whole grid and reads ``msd_fraction``'s
    MSD at every sample, the classical path is ``enm.evolve_classical``'s.
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

    key = boltzmann.BucketKey.random(spec.address_bits, np.random.default_rng(seed))
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
    # msd_fraction's observable at every sample, read off the grid's node block at once
    msd_q = _msd(encoding.evolve_grid(st0, bh, times)[:, 0, phys], sys.masses[phys],
                 st0.norm_constant)
    mean = enm.time_average(msd_q, times)
    return RippleResult(times, msd_q, msd_c, mean, enm.b_factor(mean))


def write_rows(path, header: str, rows) -> None:
    """``header``, then one comma-joined line per row: floats (numpy float64
    included) as ``%.17g``, every other value as ``str``."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
                      + "\n" for row in rows)


def dump_results_csv(path, rows) -> None:
    """rows: iterables of (t, observable, subset_id, estimate, stderr, mode); a
    subset id that holds commas must come quoted."""
    write_rows(path, "t,observable,subset_id,estimate,stderr,mode", rows)
