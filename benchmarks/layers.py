"""Per-layer metrics of a traced run, from spans, call hooks and import timing.

Naming: ``<layer>.<function>_s`` is time inside that function and
``<layer>.self_s`` the layer's self time: time in its functions not covered
by another traced function.  Self times of all traced functions add up to
the traced command time.  Which function metrics are inclusive and which
are self time is set in ``TIMES``: self time where an inclusive figure would
also hold another stage, such as the ``eigh(A)`` that ``evolve_classical``
triggers through ``spectral``.

Counts repeat exactly from run to run.  Sizes (``enm.*``,
``encoding.active_dim``, ``encoding.state_bytes``) are of the largest object
built in the workload; byte counts are computed from array sizes.
"""

from __future__ import annotations

import numpy as np

from spans import Stat, Tracer, inclusive, summarize

# metric -> (span names, or layer prefixes ending in ".", and "incl" | "self")
TIMES = {
    "lattice.adjacency_s": (("lattice.adjacency",), "incl"),
    "lattice.dummy_mask_s": (("lattice.dummy_mask",), "incl"),
    "lattice.brute_force_adjacency_s": (("lattice.brute_force_adjacency",), "incl"),
    "enm.build_system_s": (("enm.build_system",), "self"),
    "enm.spectral_s": (("enm.spectral",), "incl"),
    "enm.condition_number_B_s": (("enm.condition_number_B",), "incl"),
    "enm.evolve_classical_s": (("enm.evolve_classical",), "self"),
    "enm.energy_s": (("enm.kinetic_energy_subset", "enm.potential_energy_subset",
                      "enm.total_energy"), "incl"),
    "enm.conserved_F_s": (("enm.conserved_F",), "incl"),
    "enm.dump_trajectory_csv_s": (("enm.dump_trajectory_csv",), "incl"),
    "boltzmann.discretize_s": (("boltzmann.discretize_two_bucket",
                                "boltzmann.discretize_k_bucket"), "incl"),
    "circuits.simulate_s": (("circuits.simulate",), "incl"),
    "oracles.build_s": (("oracles.",), "incl"),
    "encoding.prepare_standard_s": (("encoding.prepare_standard",), "incl"),
    "encoding.prepare_alternative_s": (("encoding.prepare_alternative",), "incl"),
    "encoding.build_block_H_s": (("encoding.build_block_H",), "incl"),
    "encoding.eig_s": (("encoding.BlockHamiltonian.eig",), "incl"),
    "encoding.evolve_exact_s": (("encoding.evolve_exact",), "self"),
    "encoding.dump_state_csv_s": (("encoding.dump_state_csv",), "incl"),
    "measure.subset_probability_s": (("measure.subset_probability",), "incl"),
    "measure.heat_experiment_self_s": (("measure.heat_experiment",), "self"),
    "measure.ripple_msd_self_s": (("measure.ripple_msd",), "self"),
    "cli.svg_s": (("svgplot.",), "incl"),
}

LAYER_SELF = {f"{layer}.self_s": f"{layer}." for layer in (
    "lattice", "enm", "boltzmann", "circuits", "oracles", "encoding", "measure", "cli")}

CALLS = {
    "lattice.neighbor_calls": "lattice.neighbor",
    "boltzmann.bucket_assignment_calls": "boltzmann.bucket_assignment",
    "circuits.simulate_calls": "circuits.simulate",
    "encoding.evolve_calls": "encoding.evolve_exact",
    "measure.subset_probability_calls": "measure.subset_probability",
}

COUNTS = {
    "enm.n": "count", "enm.n_physical": "count", "enm.bonds": "count",
    "enm.nnz_A": "count", "enm.dense_bytes": "bytes",
    "circuits.gates_applied": "count", "circuits.max_amps": "count",
    "oracles.gates": "count", "encoding.active_dim": "count",
    "encoding.state_bytes": "bytes", "measure.heat_queries": "count",
}

# setup metric -> packages whose first import it times, from `python -X importtime`
IMPORTS = {
    "setup.import_numpy_s": ("numpy",),
    "setup.import_scipy_stats_s": ("scipy.stats", "scipy.integrate"),
    "setup.import_scipy_spatial_s": ("scipy.spatial",),
}
QENM_IMPORT = "setup.import_qenm_s"    # self time of qenm's own module bodies

RUN_METRICS = {"cli.output_bytes": "bytes", "trace.overhead_s": "s"}

UNITS = {**{m: "s" for m in (*IMPORTS, QENM_IMPORT, *TIMES, *LAYER_SELF)},
         **{m: "count" for m in CALLS}, **COUNTS, **RUN_METRICS}


def _selector(patterns):
    exact = {p for p in patterns if not p.endswith(".")}
    prefixes = tuple(p for p in patterns if p.endswith("."))
    return lambda name: name in exact or name.startswith(prefixes)


class Counts:
    """Exact counts read off the arguments and results of traced calls."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.values = dict.fromkeys(COUNTS, 0)
        self._largest_system = None

    def hooks(self) -> dict:
        return {
            "circuits.simulate": self._simulate,
            "oracles.": self._oracle,
            "enm.build_system": self._system,
            "encoding.build_block_H": self._block_h,
            "encoding.prepare_standard": self._state,
            "encoding.prepare_alternative": self._state,
            "measure.heat_binary_search": self._search,
        }

    def _simulate(self, tracer, args, kwargs, state):
        circ = args[0] if args else kwargs["circ"]
        self.values["circuits.gates_applied"] += len(circ.gates)
        self.values["circuits.max_amps"] = max(self.values["circuits.max_amps"],
                                               len(state.amps))

    def _oracle(self, tracer, args, kwargs, result):
        if hasattr(result, "gates") and not tracer.inside("oracles."):
            self.values["oracles.gates"] += len(result.gates)

    def _system(self, tracer, args, kwargs, sys):
        if self._largest_system is None or sys.n > self._largest_system.n:
            self._largest_system = sys

    def _block_h(self, tracer, args, kwargs, bh):
        self.values["encoding.active_dim"] = max(self.values["encoding.active_dim"],
                                                 len(bh.active))

    def _state(self, tracer, args, kwargs, state):
        self.values["encoding.state_bytes"] = max(self.values["encoding.state_bytes"],
                                                  state.tensor.nbytes)

    def _search(self, tracer, args, kwargs, result):
        self.values["measure.heat_queries"] += result.query_count

    def result(self) -> dict[str, int]:
        """The counts, with the sizes of the largest system filled in."""
        values = dict(self.values)
        sys = self._largest_system
        if sys is not None:
            values.update({
                "enm.n": sys.n, "enm.n_physical": int(sys.physical.sum()),
                "enm.bonds": len(sys.pairs), "enm.nnz_A": int(np.count_nonzero(sys.A)),
                "enm.dense_bytes": sys.kappa.nbytes + sys.F.nbytes + sys.A.nbytes
                + sys.B.nbytes,
            })
        return values


def new_tracer() -> tuple[Tracer, Counts]:
    counts = Counts()
    return Tracer(hooks=counts.hooks()), counts


def span_metrics(spans: list[list], counts: Counts) -> dict[str, float]:
    """Every per-layer metric that comes from one traced command sequence."""
    stats = summarize(spans)
    out: dict[str, float] = {}
    for metric, (patterns, kind) in TIMES.items():
        selected = _selector(patterns)
        out[metric] = (inclusive(spans, selected) if kind == "incl" else
                       sum(st.self for name, st in stats.items() if selected(name)))
    for metric, prefix in LAYER_SELF.items():
        out[metric] = sum(st.self for name, st in stats.items() if name.startswith(prefix))
    for metric, name in CALLS.items():
        out[metric] = stats.get(name, Stat()).calls
    out.update(counts.result())
    return out


def parse_importtime(stderr: str) -> list[tuple[str, float, float, int]]:
    """``-X importtime`` lines as (module, self s, cumulative s, parent index).

    The interpreter prints a module after everything it imported, one level
    of indentation deeper, so a line's children are the pending lines one
    level below it.
    """
    entries: list[list] = []
    pending: dict[int, list[int]] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2]
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        idx = len(entries)
        entries.append([name.strip(), int(fields[0]) * 1e-6, int(fields[1]) * 1e-6, -1])
        for child in pending.pop(depth + 1, []):
            entries[child][3] = idx
        pending.setdefault(depth, []).append(idx)
    return [tuple(e) for e in entries]


def import_metrics(stderr: str) -> dict[str, float]:
    """The ``setup.*`` metrics from one ``python -X importtime -c 'import qenm.cli'``.

    Each figure is the cumulative time of the outermost imports of the
    named packages and their submodules.  An import is charged where it
    first happens, so figures can nest: today scipy.spatial loads inside
    scipy.integrate's import of scipy.optimize.
    """
    entries = parse_importtime(stderr)
    as_spans = [[name, 0.0, cum, parent] for name, _, cum, parent in entries]
    out = {metric: inclusive(as_spans, _selector((*pkgs, *(p + "." for p in pkgs))))
           for metric, pkgs in IMPORTS.items()}
    out[QENM_IMPORT] = sum(own for name, own, _, _ in entries
                           if name == "qenm" or name.startswith("qenm."))
    return out
