"""Command-line surface: lattice inspection, validation, simulation, studies.

Subcommands: lattice, validate, simulate, heat, ripple, scaling.
Configuration comes from an optional JSON file (--config) with flag
overrides.  ``main`` creates the output directory, runs the command in it
and, once the command returns (a failed validation included, a raised
error not), writes the resolved configuration to ``manifest.json`` there.
Identical configuration plus seed produces byte-identical outputs.

Seed streams: component seeds derive from the master seed through the keyed
64-bit mix ``prf64(master, role)`` with fixed role indices (velocity-x 0,
velocity-y 1, velocity-z 2, shot-sampler 3, bucket-key 4), so adding a
consumer never shifts existing streams.  Bucket keys are drawn from
``boltzmann.KeyStream``, numpy's PCG64 reproduced exactly, so they are the
keys ``np.random.default_rng(seed)`` would draw; validate's initial
velocities are ``prf64`` uniforms of its bucket-key seed.  No command loads
``numpy.random``, which would add about 6 MB to a fresh process's peak RSS.

Units: the default is the reduced system kappa = m = k_B = 1.  With
``"units": "physical"`` the defaults switch to carbon masses in amu
(m = 12), Angstrom lengths, picosecond times and k_B in amu A^2 ps^-2 K^-1;
this is a pure multiplier layer over the same dimensionless dynamics.

Exit codes: 0 ok, 1 validation failure, 2 configuration error, a
configuration too large to allocate included.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import sys as _sys
from pathlib import Path

import numpy as np

from . import boltzmann, encoding, enm, linalg, measure, output, svgplot
from .boltzmann import BucketKey, MBParams, prf64
from .circuits import permute_basis, postselect
# neighbor is not called here; benchmarks/test_bench.py checks that its tracer rebinds it
from .lattice import (SPARSITY, Adjacency, LatticeSpec, adjacency,  # noqa: F401
                      brute_force_adjacency, decode_index, dummy_mask, encode_coord, is_dummy,
                      neighbor)
from .oracles import (comparator, connectivity_oracle, diffusion_projector_circuit, mass_oracle,
                      oracle_mismatches)

K_B_PHYSICAL = 0.8314462618     # amu A^2 ps^-2 K^-1
SEED_ROLES = {"velocity-x": 0, "velocity-y": 1, "velocity-z": 2,
              "shot-sampler": 3, "bucket-key": 4}

DEFAULTS = {
    "lattice": {"n_r": 3, "n_c": 2},
    "physics": {"units": "reduced", "kappa": 1.0, "mass": 1.0,
                "temperature": 1.0, "k_B": 1.0},
    "initial": {"kind": "boltzmann", "nodes": [], "displacements": []},
    "times": {"start": 0.0, "stop": 6.0, "steps": 50},
    "regions": 8,
    "heat_lattice": {"n_r": 2, "n_c": 3},
    "probe_times": [0.0, 1.0, 2.0, 3.0, 4.0, 4.5],
    "window": None,
    "sizes": [[3, 2], [3, 3], [4, 3], [4, 4], [5, 4], [5, 5]],
    "seed": 0,
    "out_dir": "out",
}


class ConfigError(Exception):
    pass


def derive_seed(master: int, role: str) -> int:
    return prf64(master, SEED_ROLES[role]) & 0x7FFFFFFF


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def resolve_config(args) -> dict:
    file_cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    cfg = _merge(copy.deepcopy(DEFAULTS), file_cfg)
    _check_types(cfg, DEFAULTS)
    if cfg["physics"].get("units") == "physical":
        phys_defaults = {"mass": 12.0, "k_B": K_B_PHYSICAL, "temperature": 300.0}
        file_phys = file_cfg.get("physics", {})
        for key, val in phys_defaults.items():
            if key not in file_phys:
                cfg["physics"][key] = val
        if cfg.get("window") is None:
            cfg["window"] = 1000.0   # ~1 ns in ps
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out_dir is not None:
        cfg["out_dir"] = args.out_dir
    if getattr(args, "temperature", None) is not None:
        cfg["physics"]["temperature"] = args.temperature
    if getattr(args, "time_steps", None) is not None:
        cfg["times"]["steps"] = args.time_steps
    if getattr(args, "sizes", None):
        try:
            cfg["sizes"] = [[int(a), int(b)] for a, b in
                            (item.split("x") for item in args.sizes.split(","))]
        except ValueError as exc:
            raise ConfigError(f"bad --sizes: {args.sizes}") from exc
    _validate_config(cfg)
    return cfg


def _check_types(cfg: dict, defaults: dict, prefix: str = "") -> None:
    """Every key must be a ``DEFAULTS`` key, each value must have the type of its
    ``DEFAULTS`` value, bools are not ints, and a float setting, or the None
    default of ``window``, takes any number."""
    unknown = sorted(cfg.keys() - defaults.keys())
    if unknown:
        raise ConfigError("unknown config key " + ", ".join(prefix + k for k in unknown))
    for key, default in defaults.items():
        name, value = prefix + key, cfg[key]
        numeric = default is None or isinstance(default, float)
        accepted = (int, float, type(default)) if numeric else type(default)
        if isinstance(value, bool) or not isinstance(value, accepted):
            expected = "a number" if numeric else type(default).__name__
            raise ConfigError(f"{name} must be {expected}, got {value!r}")
        if isinstance(default, dict):
            _check_types(value, default, name + ".")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite int or float; bools, NaN and infinities are not numbers here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= _sys.float_info.max)


def _validate_config(cfg: dict) -> None:
    for key in ("lattice", "heat_lattice"):
        if cfg[key]["n_r"] < 1 or cfg[key]["n_c"] < 1:
            raise ConfigError(f"{key} register widths must be >= 1")
    lat = cfg["lattice"]
    phys = cfg["physics"]
    for key in ("kappa", "mass", "k_B"):
        if not (_is_number(phys[key]) and phys[key] > 0):
            raise ConfigError(f"physics.{key} must be a finite number > 0, got {phys[key]!r}")
    # F's largest diagonal entry and A's Gershgorin bound must be finite, and A not vanish
    kappa, mass = float(phys["kappa"]), float(phys["mass"])
    if not (_is_number(SPARSITY * kappa) and _is_number(2 * SPARSITY * kappa / mass)
            and kappa / mass >= _sys.float_info.min):
        raise ConfigError(f"physics.kappa and physics.mass must keep {SPARSITY} kappa and "
                          f"{2 * SPARSITY} kappa / mass finite and kappa / mass at least "
                          f"{_sys.float_info.min!r}, got {kappa!r} and {mass!r}")
    if not (_is_number(phys["temperature"]) and phys["temperature"] >= 0):
        raise ConfigError(f"physics.temperature must be a finite number >= 0, "
                          f"got {phys['temperature']!r}")
    for key in ("start", "stop"):
        if not _is_number(cfg["times"][key]):
            raise ConfigError(f"times.{key} must be a finite number, got {cfg['times'][key]!r}")
    if phys["units"] not in ("reduced", "physical"):
        raise ConfigError(f"physics.units must be 'reduced' or 'physical', got {phys['units']!r}")
    if cfg["times"]["steps"] < 1:
        raise ConfigError("need at least one time step")
    window = cfg["window"]
    if window is not None and not (_is_number(window) and window > 0):
        raise ConfigError(f"window must be a positive number or null, got {window!r}")
    if not cfg["sizes"]:
        raise ConfigError("sizes must list at least one [n_r, n_c] pair")
    for size in cfg["sizes"]:
        if not (isinstance(size, list) and len(size) == 2
                and all(_is_int(v) and v >= 1 for v in size)):
            raise ConfigError(f"sizes entries must be [n_r, n_c] of positive ints, got {size!r}")
    init = cfg["initial"]
    if init["kind"] not in ("zero", "perturbed", "boltzmann"):
        raise ConfigError(f"initial.kind must be 'zero', 'perturbed' or 'boltzmann', "
                          f"got {init['kind']!r}")
    for key, values in (("initial.displacements", init["displacements"]),
                        ("probe_times", cfg["probe_times"])):
        for value in values:
            if not _is_number(value):
                raise ConfigError(f"{key} entries must be finite numbers, got {value!r}")
    if len(init["displacements"]) not in (0, len(init["nodes"])):
        raise ConfigError(f"initial.displacements must be empty or one per initial.nodes "
                          f"entry, got {len(init['displacements'])} for {len(init['nodes'])}")
    bits = lat["n_r"] + lat["n_c"] + 1
    if len(init.get("nodes", [])) > 4 * bits * bits:
        raise ConfigError("perturbation list exceeds the polylog budget (4 n^2 nodes)")
    spec = _spec(cfg)
    for j in init.get("nodes", []):
        if not (_is_int(j) and 0 <= j < spec.n_total
                and not is_dummy(decode_index(j, spec), spec)):
            raise ConfigError(f"initial.nodes entries must be non-padding sites in "
                              f"[0, {spec.n_total}), got {j!r}")
    if phys.get("units") == "physical":
        if any(abs(d) > 1.0 for d in init.get("displacements", [])):
            raise ConfigError("physical-units displacements must stay within 1 Angstrom")


def _spec(cfg) -> LatticeSpec:
    return LatticeSpec(cfg["lattice"]["n_r"], cfg["lattice"]["n_c"])


def _require_physical(spec: LatticeSpec, key: str, study: str) -> None:
    """ConfigError when every site of the sheet is padding, as every n_r = 1 sheet is."""
    if dummy_mask(spec).all():
        raise ConfigError(f"{key} {spec.n_r}x{spec.n_c} has no physical site to {study}")


def _times(cfg) -> np.ndarray:
    t = cfg["times"]
    return np.linspace(t["start"], t["stop"], t["steps"])


def _initial_conditions(cfg, sys):
    """(x0, xdot0) shaped (2, N) from the configured initial-condition spec."""
    init, phys = cfg["initial"], cfg["physics"]
    x0 = np.zeros((2, sys.n))
    xdot0 = np.zeros((2, sys.n))
    for idx, j in enumerate(init["nodes"]):     # listed nodes are displaced under any kind
        x0[:, j] = init["displacements"][idx] if init["displacements"] else 0.1
    if init["kind"] == "boltzmann":
        params = MBParams(m=phys["mass"], T=phys["temperature"], k_B=phys["k_B"])
        keys = [BucketKey.random(sys.spec.address_bits,
                                 boltzmann.KeyStream(derive_seed(cfg["seed"], role)))
                for role in ("velocity-x", "velocity-y")]
        xdot0 = boltzmann.thermal_velocities(params, keys, sys.n, np.flatnonzero(sys.physical))
    return x0, xdot0


# -- subcommands ---------------------------------------------------------------


def cmd_lattice(cfg, out: Path) -> int:
    spec = _spec(cfg)
    output.dump_lattice_csv(spec, out / "lattice.csv")
    svgplot.lattice_svg(out / "lattice.svg", spec)
    dummies = int(dummy_mask(spec).sum())
    print(f"lattice {spec.rows}x{spec.cols} cells: {spec.n_total} sites, "
          f"{spec.n_total - dummies} physical, {dummies} dummy")
    print(f"wrote {out / 'lattice.csv'} and {out / 'lattice.svg'}")
    return 0


def _validation_checks(cfg):
    spec = _spec(cfg)
    _require_physical(spec, "lattice", "validate")    # the drifts below would divide by 0
    checks = []

    adj = adjacency(spec)
    j = np.arange(spec.n_total)
    round_trip = bool(np.array_equal(encode_coord(decode_index(j, spec), spec), j))
    checks.append(("encode-decode-roundtrip", round_trip, f"{spec.n_total} indices"))
    adj_bonds, geo_bonds = adj.bond_set(), brute_force_adjacency(spec)
    checks.append(("shift-table-vs-geometric-adjacency", np.array_equal(adj_bonds, geo_bonds),
                   f"{len(adj_bonds)} bonds"))
    ghosts_rule = Adjacency(adj.neighbors, ~adj.valid).bond_set()
    key = np.array([spec.n_total, 1])       # one int per (min, max) pair
    # each bond set lists a pair once, and without that promise np.isin's np.unique
    # imports numpy.ma (1.2 MB)
    ghosts_physical = np.isin(ghosts_rule @ key, geo_bonds @ key, assume_unique=True).any()
    checks.append(("dummy-rules-vs-geometry", not ghosts_physical,
                   f"{len(ghosts_rule)} flagged ghost bonds, none physical"))
    # every slot (j, l) -> k has a back slot of k that points to j with the same validity
    back = ((adj.neighbors[adj.neighbors] == np.arange(spec.n_total)[:, None, None])
            & (adj.valid[adj.neighbors] == adj.valid[:, :, None]))
    checks.append(("validity-symmetric", bool(back.any(axis=2).all()), "all (j,l)"))
    degrees = adj.degrees()[~dummy_mask(spec)]
    deg_ok = bool(np.all((degrees >= 1) & (degrees <= SPARSITY)) and np.any(degrees == SPARSITY))
    checks.append(("degree-profile", deg_ok,
                   f"degrees {sorted(set(int(d) for d in degrees))}"))

    kappa, mass = cfg["physics"]["kappa"], cfg["physics"]["mass"]
    sys = enm.build_system(spec, kappa, mass)
    # B has two nonzeros per column: products of its triples, compared over every entry of
    # both sides; roundoff bounds scale with the entries of A and F, so hold at any kappa and mass
    eps = np.finfo(float).eps
    b = sys.op_B
    err_a = enm.factorization_error(b, sys.op_A)
    checks.append(("factorization-BBt-equals-A", err_a <= 16 * eps * np.abs(sys.op_A.vals).max(),
                   f"max err {err_a:.2e}"))
    sqrt_mb = linalg.BondOperator(b.rows, b.cols, np.sqrt(sys.masses)[b.rows] * b.vals, b.shape)
    err_f = enm.factorization_error(sqrt_mb, sys.op_F)
    checks.append(("factorization-sqrtMB-equals-F", err_f <= 16 * eps * np.abs(sys.op_F.vals).max(),
                   f"max err {err_f:.2e}"))
    phys = np.flatnonzero(sys.physical)

    x0 = np.zeros((2, sys.n))
    xdot0 = np.zeros((2, sys.n))
    xdot0[:, phys] = boltzmann.prf_uniform(derive_seed(cfg["seed"], "bucket-key"), 2, len(phys))
    # ten units of sqrt(m / kappa): the sheet moves as far, at the same series degree, at any scale
    ts = np.linspace(0.0, 10.0 * math.sqrt(mass / kappa), 200)
    # the energies come off the series' Gram matrices and F-conservation reads the every-20th
    # samples alone, so no (200, 2, N) array is ever formed
    series = enm.classical_series(sys, x0, xdot0, ts)
    energy = enm.series_energies(sys, series)
    every_20th = enm.ChebyshevSeries(series.coeffs[:, ::20], series.terms[:, 0])    # axis 0
    states = every_20th.read(0, every_20th.coeffs.shape[1])     # (10, 2, N): x, then xdot
    del series, every_20th      # the terms go before the grounded factor below is built
    checks += _spectral_checks(sys)
    drift = float(np.abs(energy - energy[0]).max() / energy[0])
    checks.append(("energy-conservation", drift <= 1e-9, f"rel drift {drift:.2e}"))
    sqm = np.sqrt(sys.masses)[:, None]
    fvals = enm.conserved_F(sys, sqm * states[:, 0].T, sqm * states[:, 1].T)     # (N, 10) each
    fdrift = float((fvals.max() - fvals.min()) / fvals.max())
    checks.append(("F-conservation", fdrift <= 1e-8, f"rel drift {fdrift:.2e}"))

    states, mismatches, _ = oracle_mismatches(connectivity_oracle(spec), spec)
    checks.append(("connectivity-oracle-exhaustive", mismatches == 0,
                   f"{states} basis states, {mismatches} mismatches"))

    mo = mass_oracle(12, spec.address_bits)
    once = int(permute_basis(mo, {"j": 3, "z": 0})["z"])
    twice = int(permute_basis(mo, {"j": 3, "z": once})["z"])
    checks.append(("mass-oracle-involution", once == 12 and twice == 0, f"z -> {once} -> {twice}"))
    j, k = np.divmod(np.arange(256), 16)
    comp_ok = bool(np.all(permute_basis(comparator(4), {"j": j, "k": k})["flag"] == (k < j)))
    checks.append(("comparator-table", comp_ok, "256 pairs"))
    uc = diffusion_projector_circuit(3)
    t_in, out, amps = postselect(uc, {"t": np.arange(8)}, {"a": 0})
    block = np.zeros((8, 8), dtype=complex)     # (t out, t in) at a = 0
    block[out["t"], t_in] = amps
    block[0, 0] -= 1.0                          # the block must be |0><0|
    checks.append(("zero-projector-block", bool(np.abs(block).max() <= 1e-12), "8 basis states"))

    params = MBParams(m=cfg["physics"]["mass"], T=cfg["physics"]["temperature"] or 1.0,
                      k_B=cfg["physics"]["k_B"])
    disc = boltzmann.discretize_two_bucket(params)
    moment_ok = (abs(disc.moment(1)) <= 1e-12 and abs(disc.moment(3)) <= 1e-12
                 and abs(disc.moment(2) - params.sigma**2) <= 1e-9)
    checks.append(("two-bucket-moments", moment_ok,
                   f"m2 err {abs(disc.moment(2) - params.sigma**2):.2e}"))
    return checks


def _spectral_checks(sys) -> list:
    """The semidefiniteness and null-space checks of A, from the inertia of its grounded
    factor, which F-conservation then reuses; where that certifies nothing, from the ends of
    the spectrum."""
    certificate = enm.inertia_certificate(sys)
    if certificate is None:
        eigs = enm.extreme_eigenvalues(sys)
        semidefinite = (eigs[0] >= -sys.n * np.finfo(float).eps * eigs[-1],
                        f"min eig {eigs[0]:.2e}")
        null_dim = len(eigs) - len(enm.nonzero_eigenvalues(eigs))
    else:   # every eigenvalue is at least -spread >= -N eps lambda_max
        null_dim, spread = certificate
        semidefinite = (True, f"min eig >= -{spread:.2e}")
    # no bond touches a dummy site, so each is an isolated zero row of A and one null direction
    dummy_rows_zero = not (~sys.physical)[sys.bonds].any()
    nulls = null_dim - int((~sys.physical).sum())
    return [("A-positive-semidefinite", *semidefinite),
            ("null-space-dimension", dummy_rows_zero and nulls == 1, f"dim {nulls}")]


def cmd_validate(cfg, out: Path) -> int:
    checks = _validation_checks(cfg)
    lines = []
    for name, passed, detail in checks:
        status = "PASS" if passed else "FAIL"
        lines.append(f"{status} {name}: {detail}")
    failed = sum(1 for _, passed, _ in checks if not passed)
    lines.append(f"{len(checks)} checks, {failed} failed")
    print("\n".join(lines))
    (out / "validation.txt").write_text("\n".join(lines) + "\n")
    return 1 if failed else 0


def cmd_simulate(cfg, out: Path) -> int:
    spec = _spec(cfg)
    sys = enm.build_system(spec, cfg["physics"]["kappa"], cfg["physics"]["mass"])
    x0, xdot0 = _initial_conditions(cfg, sys)
    times = _times(cfg)
    zero_ic = not (np.any(x0) or np.any(xdot0))
    # the t = 0 encoding raises on a zero-energy start before any file is written
    st0 = None if zero_ic else encoding.prepare_standard(sys, x0, xdot0)
    traj = enm.evolve_classical(sys, x0, xdot0, times)
    output.dump_trajectory_csv(traj, out / "trajectory.csv")

    if zero_ic:
        rows = [(t, 0, 0, 0) for t in times]
    else:
        output.dump_state_csv(st0, out / "state_t0.csv")
        series = encoding.jacobi_anger(st0, encoding.build_block_H(sys), times)
        rows = []
        # a block of samples at a time: one read of the series, one batched reference
        # encoding of the classical samples, and the block's reductions; no block's
        # amplitudes outlive it
        for start, stop in encoding.sample_blocks(len(times), st0.amps.nbytes):
            dev, kin, pot = measure.standard_comparison(
                series.read(start, stop),
                encoding.standard_amplitudes(sys, traj.x[start:stop], traj.xdot[start:stop])[0],
                sys.n)
            rows += zip(times[start:stop].tolist(), dev.tolist(), kin.tolist(), pot.tolist())
    output.write_rows(out / "comparison.csv",
                      "t,max_amplitude_deviation,kinetic_fraction,potential_fraction", rows)
    print(f"wrote {out / 'trajectory.csv'} and {out / 'comparison.csv'}")
    return 0


def cmd_heat(cfg, out: Path) -> int:
    lat = cfg["heat_lattice"]
    spec = LatticeSpec(lat["n_r"], lat["n_c"])
    _require_physical(spec, "heat_lattice", "heat")
    result = measure.heat_experiment(
        spec, np.asarray(cfg["probe_times"], dtype=float),
        n_regions=cfg["regions"], temperature=cfg["physics"]["temperature"],
        kappa=cfg["physics"]["kappa"], mass=cfg["physics"]["mass"],
        k_B=cfg["physics"]["k_B"], seed=derive_seed(cfg["seed"], "bucket-key"))
    output.write_rows(out / "heat_search.csv", "t,found_region,classical_argmax,queries,match", (
        (t, f, a, log.query_count, int(f == a)) for t, f, a, log in zip(
            result.times, result.found_regions, result.classical_argmax, result.search_logs)))
    output.dump_results_csv(out / "heat_queries.csv", (
        (t, f"round{i}-{side}", f'"{",".join(map(str, half))}"', frac, 0.0, "exact-expectation")
        for t, log in zip(result.times, result.search_logs) for i, rnd in enumerate(log.rounds)
        for side, half, frac in (("low", rnd.low, rnd.frac_low),
                                 ("high", rnd.high, rnd.frac_high))))
    svgplot.series_svg(out / "heat_regions.svg", result.times,
                       {"search": np.array(result.found_regions, dtype=float),
                        "classical argmax": np.array(result.classical_argmax, dtype=float)},
                       title="heat front region vs time", ylabel="region index")
    matches = sum(f == a for f, a in zip(result.found_regions, result.classical_argmax))
    print(f"heat search matched classical argmax at {matches}/{len(result.times)} probes")
    return 0


def cmd_ripple(cfg, out: Path) -> int:
    spec = _spec(cfg)
    _require_physical(spec, "lattice", "ripple")
    window = cfg["times"]["stop"] if cfg["window"] is None else cfg["window"]
    if window <= 0:     # a configured window is checked positive with the config
        raise ConfigError(f"times.stop is the ripple window when window is null and must be "
                          f"> 0, got {window!r}")
    times = np.linspace(0.0, float(window), cfg["times"]["steps"])
    result = measure.ripple_msd(
        spec, times, temperature=cfg["physics"]["temperature"],
        kappa=cfg["physics"]["kappa"], mass=cfg["physics"]["mass"],
        k_B=cfg["physics"]["k_B"], seed=derive_seed(cfg["seed"], "velocity-z"))
    disc = boltzmann.discretize_two_bucket(MBParams(
        m=cfg["physics"]["mass"], T=cfg["physics"]["temperature"],
        k_B=cfg["physics"]["k_B"], D=1))
    output.write_json(out / "bucket_spec.json", boltzmann.bucket_spec_json(disc))
    output.dump_results_csv(out / "ripple_msd.csv", (
        row for t, mq, mc in zip(result.times, result.msd, result.msd_classical)
        for row in ((t, "msd", "all", mq, 0, "exact-expectation"),
                    (t, "msd-classical", "all", mc, 0, "classical"))))
    svgplot.series_svg(out / "ripple_msd.svg", result.times,
                       {"quantum": result.msd, "classical": result.msd_classical},
                       title="out-of-plane MSD", ylabel="MSD")
    print(f"time-averaged MSD {result.mean_msd:.6g}, B-factor {result.b_factor:.6g}")
    return 0


def cmd_scaling(cfg, out: Path, kind: str) -> int:
    specs = [LatticeSpec(n_r, n_c) for n_r, n_c in cfg["sizes"]]
    for spec in specs:     # every size is checked before the first solve
        # Sites cost time of their own: on a long narrow sheet lambda_max takes ~40
        # factorizations of n / BLOCK_SITES blocks each, and scaling cond at 13x1 (2^15
        # sites) takes 5.4 s, at 14x1 11 s.
        if spec.n_total > 1 << 15 or linalg.sheet_factor_entries(spec) > linalg.FACTOR_ENTRIES:
            raise ConfigError(f"lattice {spec.n_r}x{spec.n_c} has {spec.n_total} sites; the "
                              f"exact block-tridiagonal solve is capped at {1 << 15} sites "
                              f"and {linalg.FACTOR_ENTRIES} entries per factor array")
        _require_physical(spec, "lattice", "scale")    # no cond(B) or Tr(A^+) of an empty spectrum
    records = []
    for spec in specs:
        sys = enm.build_system(spec, cfg["physics"]["kappa"], cfg["physics"]["mass"])
        value = enm.condition_number_B(sys) if kind == "cond" else enm.pseudoinverse_trace(sys)
        records.append((int(sys.physical.sum()), value))
    records.sort()
    ns = np.array([r[0] for r in records], dtype=float)
    vals = np.array([r[1] for r in records], dtype=float)

    fit = {}
    if len(set(ns)) >= 2:     # different sizes can share one N (4x3 and 5x2: 210 sites)
        # cond(B) ~ N^slope is fit on log10-log10 axes, Tr(A^+) ~ slope N on linear ones
        fx, fy = (np.log10(ns), np.log10(vals)) if kind == "cond" else (ns, vals)
        slope, intercept = np.polyfit(fx, fy, 1)
        ss_res = float(np.sum((fy - (slope * fx + intercept)) ** 2))
        ss_tot = float(np.sum((fy - fy.mean()) ** 2))
        fit = {"slope": float(slope), "intercept": float(intercept),
               "r_squared": 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0}

    output.write_rows(out / f"scaling_{kind}.csv", "n_physical,value", records)
    output.write_json(out / f"scaling_{kind}_fit.json", fit)
    svgplot.scatter_svg(
        out / f"scaling_{kind}.svg", ns, vals,
        title=("incidence condition number" if kind == "cond" else "pseudoinverse trace"),
        xlabel="log10 N" if kind == "cond" else "N",
        ylabel="log10 value" if kind == "cond" else "value",
        fit=(fit["slope"], fit["intercept"]) if fit else None,
        loglog=(kind == "cond"))
    if fit:
        print(f"{kind}: slope {fit['slope']:.4f}, R^2 {fit['r_squared']:.5f} "
              f"over {len(records)} sizes")
    elif len(records) == 1:
        print(f"{kind}: single size, points only")
    else:
        print(f"{kind}: {len(records)} sizes share one N ({int(ns[0])} physical sites), "
              f"points only")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qenm`` argument parser, built once per process: ``parse_args`` leaves it as it is."""
    parser = argparse.ArgumentParser(prog="qenm", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("lattice", "validate", "simulate", "heat", "ripple", "scaling"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", default=None)
        p.add_argument("--temperature", type=float, default=None)
        p.add_argument("--time-steps", type=int, default=None)
        p.add_argument("--sizes", default=None)
        if name == "scaling":
            p.add_argument("kind", choices=("cond", "trace"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    handlers = {"lattice": cmd_lattice, "validate": cmd_validate,
                "simulate": cmd_simulate, "heat": cmd_heat, "ripple": cmd_ripple,
                "scaling": lambda cfg, out: cmd_scaling(cfg, out, args.kind)}
    out = Path(cfg["out_dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:      # the path, or a parent of it, is a file
        print(f"config error: cannot create output directory {out}: {exc.strerror}",
              file=_sys.stderr)
        return 2
    try:
        code = handlers[args.command](cfg, out)
    except (ConfigError, ValueError, MemoryError) as exc:
        # numpy's MemoryError names the size and shape of the array that did not fit
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    output.write_json(out / "manifest.json", cfg)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
