"""The benchmark's workloads: configs, command sequences and correctness gates.

Each workload is a fixed sequence of ``qenm`` commands run in-process.  Every
setting goes through the ``--config`` file; the benchmark writes its seed
into the config's ``seed``.  ``--temperature`` and ``--time-steps`` are never
passed, because ``resolve_config`` writes them into ``cli.DEFAULTS``.  Why
each workload was chosen is recorded in ``BENCHMARK.json``.

A gate reads one command's output directory and returns a list of problems,
empty when the output is correct.  Tolerances are those of
``tests/test_acceptance.py``.  Gates compare against the classical reference
the program writes beside the quantum result, or against values recorded
with a tolerance, never against fixed digests, so legitimate numerical
changes in the last digits still pass.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

TOL = 1e-8

# (n_physical, value) of `qenm scaling cond|trace` on the default ladder
# (3,2) ... (5,5), recorded when this benchmark was written.
SCALING_REFERENCE = {
    "cond": ((42, 8.3070658539224969), (90, 11.58551924534067),
             (210, 19.20380874780367), (434, 24.126489208751416),
             (930, 40.858117439143804), (1890, 49.100850057014064)),
    "trace": ((42, 43.43791914362231), (90, 101.83020135795961),
              (210, 273.90503845444277), (434, 587.13955749520949),
              (930, 1414.0560845096918), (1890, 2938.2580059202437)),
}


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def gate_simulate(out: Path, cfg: dict) -> list[str]:
    """Quantum amplitudes match the classical trajectory; energy fractions sum to 1."""
    rows = _rows(out / "comparison.csv")
    problems = []
    if len(rows) != cfg["times"]["steps"]:
        problems.append(f"comparison.csv has {len(rows)} rows, "
                        f"expected {cfg['times']['steps']}")
    for row in rows:
        dev = float(row["max_amplitude_deviation"])
        total = float(row["kinetic_fraction"]) + float(row["potential_fraction"])
        if not dev <= TOL:
            problems.append(f"t={row['t']}: amplitude deviation {dev:.3g} > {TOL}")
        if not abs(total - 1.0) <= TOL:
            problems.append(f"t={row['t']}: kinetic+potential = {total!r}")
    return problems


def gate_validate(out: Path, cfg: dict) -> list[str]:
    """Every named validation check passed."""
    lines = (out / "validation.txt").read_text().splitlines()
    last = lines[-1] if lines else ""
    return [] if last == "16 checks, 0 failed" else [f"validation.txt ends {last!r}"]


def gate_scaling(kind: str) -> Callable[[Path, dict], list[str]]:
    """Six ladder rows that match the recorded values within rtol 1e-8."""
    reference = SCALING_REFERENCE[kind]

    def gate(out: Path, cfg: dict) -> list[str]:
        rows = _rows(out / f"scaling_{kind}.csv")
        if len(rows) != len(reference):
            return [f"scaling_{kind}.csv has {len(rows)} rows, expected {len(reference)}"]
        problems = []
        for row, (n_phys, value) in zip(rows, reference):
            got = float(row["value"])
            if int(row["n_physical"]) != n_phys or not math.isclose(got, value, rel_tol=TOL):
                problems.append(f"{kind} at N={row['n_physical']}: {got!r}, "
                                f"expected {value!r} at N={n_phys}")
        return problems

    return gate


def gate_ripple(out: Path, cfg: dict) -> list[str]:
    """Quantum-path MSD equals the classical MSD at every time."""
    rows = _rows(out / "ripple_msd.csv")
    msd = [float(r["estimate"]) for r in rows if r["observable"] == "msd"]
    classical = [float(r["estimate"]) for r in rows if r["observable"] == "msd-classical"]
    if len(msd) != cfg["times"]["steps"] or len(classical) != len(msd):
        return [f"ripple_msd.csv has {len(msd)} msd and {len(classical)} classical rows, "
                f"expected {cfg['times']['steps']} each"]
    scale = max(msd)
    if not scale > 0.0:
        return [f"ripple MSD never positive (max {scale!r})"]
    return [f"row {i}: |msd - msd-classical| = {abs(q - c):.3g} > {TOL} * {scale:.6g}"
            for i, (q, c) in enumerate(zip(msd, classical))
            if not abs(q - c) <= TOL * scale]


def gate_heat(out: Path, cfg: dict) -> list[str]:
    """The binary search finds the classical argmax region at every probe."""
    rows = _rows(out / "heat_search.csv")
    if len(rows) != len(cfg["probe_times"]):
        return [f"heat_search.csv has {len(rows)} rows, "
                f"expected {len(cfg['probe_times'])}"]
    return [f"t={r['t']}: search found {r['found_region']}, "
            f"classical argmax {r['classical_argmax']}"
            for r in rows if r["match"] != "1"]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    gate: Callable[[Path, dict], list[str]]

    @property
    def label(self) -> str:
        return "-".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict            # everything but the seed
    commands: tuple[Command, ...]

    def config_for(self, seed: int) -> dict:
        return {**self.config, "seed": seed}


_PHYSICS = {"units": "reduced", "kappa": 1.0, "mass": 1.0, "temperature": 1.0, "k_B": 1.0}
_TIMES = {"start": 0.0, "stop": 6.0, "steps": 50}

WORKLOADS = {w.name: w for w in (
    Workload("simulate-4x4",
             {"lattice": {"n_r": 4, "n_c": 4}, "physics": _PHYSICS,
              "initial": {"kind": "boltzmann"}, "times": _TIMES},
             (Command(("simulate",), gate_simulate),)),
    Workload("validate-5x5",
             {"lattice": {"n_r": 5, "n_c": 5}, "physics": _PHYSICS},
             (Command(("validate",), gate_validate),)),
    Workload("scaling-ladder",
             {"physics": _PHYSICS,
              "sizes": [[3, 2], [3, 3], [4, 3], [4, 4], [5, 4], [5, 5]]},
             (Command(("scaling", "cond"), gate_scaling("cond")),
              Command(("scaling", "trace"), gate_scaling("trace")))),
    Workload("thermal-4x4",
             {"lattice": {"n_r": 4, "n_c": 4}, "physics": _PHYSICS, "times": _TIMES,
              "heat_lattice": {"n_r": 4, "n_c": 4}, "regions": 8,
              "probe_times": [0.0, 1.0, 2.0, 3.0, 4.0, 4.5]},
             (Command(("ripple",), gate_ripple), Command(("heat",), gate_heat))),
)}
