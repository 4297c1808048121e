"""Tests of the benchmark's own machinery: gates, run checks, tracer, metrics.

    python3 -m pytest -q benchmarks

Each gate is shown to pass on real output of a small sheet and to fire on
a corrupted copy of it.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import bench
import layers
import spans
import workloads
from workloads import SCALING_REFERENCE, Command, Workload

sys.path.insert(0, str(bench.SRC))
from qenm import cli, enm, lattice  # noqa: E402
from qenm.lattice import SHIFT_TABLE, LatticeSpec  # noqa: E402

SMALL = {"lattice": {"n_r": 2, "n_c": 1}, "times": {"start": 0.0, "stop": 6.0, "steps": 8},
         "heat_lattice": {"n_r": 2, "n_c": 3}, "regions": 8,
         "probe_times": [0.0, 1.0, 2.0, 3.0, 4.0, 4.5], "seed": 3}
VALIDATE = {**SMALL, "lattice": {"n_r": 3, "n_c": 2}}   # 2x1 has no degree-3 site


def run_cli(tmp_path: Path, *argv: str, cfg: dict = SMALL) -> Path:
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "-".join(argv)
    assert cli.main([*argv, "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    return out


def rewrite(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def csv_cell(path: Path, row: int, column: str) -> str:
    lines = path.read_text().splitlines()
    return lines[row + 1].split(",")[lines[0].split(",").index(column)]


def test_simulate_gate(tmp_path):
    out = run_cli(tmp_path, "simulate")
    comparison = out / "comparison.csv"
    assert workloads.gate_simulate(out, SMALL) == []
    good = comparison.read_text()

    dev = csv_cell(comparison, 3, "max_amplitude_deviation")
    rewrite(comparison, f",{dev},", ",2e-8,")
    assert any("amplitude deviation" in p for p in workloads.gate_simulate(out, SMALL))

    comparison.write_text(good)
    kin = csv_cell(comparison, 5, "kinetic_fraction")
    rewrite(comparison, f",{kin},", f",{float(kin) + 1e-7!r},")
    assert any("kinetic+potential" in p for p in workloads.gate_simulate(out, SMALL))

    comparison.write_text("".join(good.splitlines(keepends=True)[:-1]))
    assert any("rows" in p for p in workloads.gate_simulate(out, SMALL))


def test_validate_gate(tmp_path):
    out = run_cli(tmp_path, "validate", cfg=VALIDATE)
    assert workloads.gate_validate(out, VALIDATE) == []
    rewrite(out / "validation.txt", "16 checks, 0 failed", "16 checks, 1 failed")
    assert workloads.gate_validate(out, VALIDATE) != []


def test_validate_gate_on_a_broken_program(tmp_path):
    original = SHIFT_TABLE[(0, 0, 1)]
    SHIFT_TABLE[(0, 0, 1)] = (0, +1)
    try:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(VALIDATE))
        code = cli.main(["validate", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
    finally:
        SHIFT_TABLE[(0, 0, 1)] = original
    assert code == 1
    assert "FAIL shift-table-vs-geometric-adjacency" in (tmp_path / "validation.txt").read_text()
    assert workloads.gate_validate(tmp_path, VALIDATE) != []


@pytest.mark.parametrize("kind", ["cond", "trace"])
def test_scaling_gate(tmp_path, kind):
    gate = workloads.gate_scaling(kind)
    path = tmp_path / f"scaling_{kind}.csv"

    def write(rows):
        path.write_text("n_physical,value\n" + "".join(f"{n},{v:.17g}\n" for n, v in rows))

    rows = list(SCALING_REFERENCE[kind])
    write(rows)
    assert gate(tmp_path, {}) == []
    write([(n, v * (1 + 1e-10)) for n, v in rows])
    assert gate(tmp_path, {}) == []
    write(rows[:3] + [(rows[3][0], rows[3][1] * (1 + 1e-7))] + rows[4:])
    assert len(gate(tmp_path, {})) == 1
    write(rows[:-1])
    assert gate(tmp_path, {}) != []


def test_scaling_reference_matches_the_program():
    for size, (n_r, n_c) in enumerate([(3, 2), (3, 3), (4, 3)]):
        sys_ = enm.build_system(LatticeSpec(n_r, n_c))
        for kind, fn in (("cond", enm.condition_number_B), ("trace", enm.pseudoinverse_trace)):
            n_phys, value = SCALING_REFERENCE[kind][size]
            assert int(sys_.physical.sum()) == n_phys
            assert math.isclose(fn(sys_), value, rel_tol=1e-8)


def test_ripple_gate(tmp_path):
    out = run_cli(tmp_path, "ripple")
    assert workloads.gate_ripple(out, SMALL) == []
    path = out / "ripple_msd.csv"
    row = next(line for line in path.read_text().splitlines()[1:]
               if line.split(",")[1] == "msd-classical" and float(line.split(",")[3]) > 0)
    fields = row.split(",")
    fields[3] = repr(float(fields[3]) * (1 + 1e-3))
    rewrite(path, row, ",".join(fields))
    assert len(workloads.gate_ripple(out, SMALL)) == 1


def test_heat_gate(tmp_path):
    out = run_cli(tmp_path, "heat")
    assert workloads.gate_heat(out, SMALL) == []
    path = out / "heat_search.csv"
    row = path.read_text().splitlines()[2]
    rewrite(path, row, row[:-1] + "0")
    assert len(workloads.gate_heat(out, SMALL)) == 1


def small_run(tmp_path: Path, *commands: Command, fake_cli=None) -> bench.Run:
    wl = Workload("small", {k: v for k, v in SMALL.items() if k != "seed"}, commands)
    return bench.Run(fake_cli or cli, wl, seed=3, work=tmp_path)


def test_run_counts_each_command_and_passes_on_the_program(tmp_path):
    run = small_run(tmp_path, Command(("ripple",), workloads.gate_ripple),
                    Command(("heat",), workloads.gate_heat))
    run.loop(0.0, 2)
    assert (run.attempted, run.failed) == (4, 0)


def test_run_fails_a_command_that_changes_cli_defaults(tmp_path):
    before = json.dumps(cli.DEFAULTS, sort_keys=True)
    run = small_run(tmp_path, Command(("simulate", "--temperature", "2"),
                                      workloads.gate_simulate))
    run.iterate()
    assert (run.attempted, run.failed) == (1, 1)
    assert json.dumps(cli.DEFAULTS, sort_keys=True) == before


def test_run_fails_output_that_differs_between_iterations(tmp_path):
    calls = []

    def main(argv):
        out = Path(argv[argv.index("--out-dir") + 1])
        out.mkdir(parents=True)
        calls.append(out)
        (out / "x.csv").write_text(f"{len(calls) % 2}\n")
        return 0

    fake = SimpleNamespace(DEFAULTS={}, main=main)
    run = small_run(tmp_path, Command(("x",), lambda out, cfg: []), fake_cli=fake)
    run.loop(0.0, 3)
    assert (run.attempted, run.failed) == (3, 1)


def test_run_fails_a_nonzero_exit(tmp_path):
    fake = SimpleNamespace(DEFAULTS={}, main=lambda argv: 1)
    run = small_run(tmp_path, Command(("x",), lambda out, cfg: []), fake_cli=fake)
    run.iterate()
    assert run.failed == 1


def test_tracer_wraps_every_binding_site_and_restores_them():
    original = lattice.neighbor
    tracer, counts = layers.new_tracer()
    tracer.install()
    try:
        assert cli.neighbor is lattice.neighbor is not original
        spec = LatticeSpec(1, 1)
        enm.build_system(spec)
        recorded = tracer.take()
    finally:
        tracer.uninstall()
    assert lattice.neighbor is original and cli.neighbor is original
    metrics = layers.span_metrics(recorded, counts)
    assert metrics["lattice.neighbor_calls"] == 3 * spec.n_total
    assert metrics["enm.n"] == spec.n_total
    names = {s[0] for s in recorded}
    assert {"enm.build_system", "lattice.adjacency", "lattice.dummy_mask"} <= names
    by_index = {i: s for i, s in enumerate(recorded)}
    neighbor_parents = {by_index[s[3]][0] for s in recorded if s[0] == "lattice.neighbor"}
    assert neighbor_parents == {"lattice.adjacency"}


def test_self_and_inclusive_time():
    # a [0, 10] holds b [1, 4] which holds a [2, 3]; c [5, 6] under a
    recorded = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["a", 2.0, 3.0, 1],
                ["c", 5.0, 6.0, 0]]
    stats = spans.summarize(recorded)
    assert stats["a"].calls == 2 and stats["a"].self == pytest.approx(6.0 + 1.0)
    assert stats["b"].self == pytest.approx(2.0)
    assert spans.inclusive(recorded, lambda n: n == "a") == pytest.approx(10.0)
    assert spans.inclusive(recorded, lambda n: n in ("b", "c")) == pytest.approx(4.0)


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |         numpy.core
import time:       200 |        300 |       numpy
import time:        50 |         50 |           scipy.spatial._kdtree
import time:       400 |        450 |         scipy.optimize
import time:      1000 |       1450 |       scipy.integrate._quad
import time:        10 |         10 |         scipy.integrate._ode
import time:       500 |        510 |       scipy.stats._dist
import time:        30 |       2290 |     qenm.boltzmann
import time:        20 |       2310 |   qenm
import time:         5 |       2315 | qenm.cli
"""


def test_import_metrics():
    m = layers.import_metrics(IMPORTTIME)
    assert m["setup.import_numpy_s"] == pytest.approx(300e-6)
    assert m["setup.import_scipy_stats_s"] == pytest.approx(1960e-6)
    assert m["setup.import_scipy_spatial_s"] == pytest.approx(50e-6)
    assert m["setup.import_qenm_s"] == pytest.approx(55e-6)


def test_benchmark_json_matches_the_code():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
