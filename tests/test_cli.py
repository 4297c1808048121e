import copy
import csv
import json
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import qenm
from qenm import cli, encoding, enm, linalg, measure, output
from qenm.lattice import SHIFT_TABLE, LatticeSpec, dummy_mask


def run(args):
    return cli.main(args)


def test_lattice_eight_by_eight_row_count(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 3, "n_c": 3}}))
    assert run(["lattice", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "lattice.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 ** (3 + 3 + 1)


def test_lattice_tiny_renders_valid_svg(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 1, "n_c": 1}}))
    assert run(["lattice", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    ET.parse(tmp_path / "o" / "lattice.svg")


def test_lattice_dummy_count_matches_rule_sweep(tmp_path):
    assert run(["lattice", "--out-dir", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "lattice.csv").read_text().splitlines()[1:]
    dummies_csv = sum(int(line.split(",")[4]) for line in rows)
    assert dummies_csv == int(dummy_mask(LatticeSpec(3, 2)).sum())


def test_validate_passes_and_reports(tmp_path, capsys):
    assert run(["validate", "--out-dir", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 10
    assert "FAIL" not in out
    assert (tmp_path / "o" / "validation.txt").exists()


def test_validate_fault_injection(tmp_path, capsys):
    # corrupt one shift-table entry; the named adjacency check must fail
    original = SHIFT_TABLE[(0, 0, 1)]
    SHIFT_TABLE[(0, 0, 1)] = (0, +1)
    try:
        code = run(["validate", "--out-dir", str(tmp_path / "o")])
    finally:
        SHIFT_TABLE[(0, 0, 1)] = original
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL shift-table-vs-geometric-adjacency" in out


def test_simulate_zero_initial_conditions(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"initial": {"kind": "zero"},
                               "lattice": {"n_r": 2, "n_c": 1},
                               "times": {"start": 0.0, "stop": 2.0, "steps": 4}}))
    assert run(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()[1:]
    assert all(float(r.split(",")[3]) == 0.0 for r in rows)
    comp = (tmp_path / "o" / "comparison.csv").read_text().splitlines()[1:]
    assert all(r.split(",")[1] == "0" for r in comp)


def test_simulate_deviation_column_small(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 2, "n_c": 1},
                               "times": {"start": 0.0, "stop": 4.0, "steps": 9}}))
    assert run(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    comp = (tmp_path / "o" / "comparison.csv").read_text().splitlines()[1:]
    assert max(float(r.split(",")[1]) for r in comp) <= 1e-8



def _per_sample_comparison(cfg):
    """comparison.csv's rows as simulate formed them one sample at a time: a one-row read of
    the quantum series, an encoding of the classical sample and two energy fractions."""
    sys = enm.build_system(cli._spec(cfg), cfg["physics"]["kappa"], cfg["physics"]["mass"])
    x0, xdot0 = cli._initial_conditions(cfg, sys)
    times = cli._times(cfg)
    traj = enm.evolve_classical(sys, x0, xdot0, times)
    st0 = encoding.prepare_standard(sys, x0, xdot0)
    kinetic = measure.SubsetSelector("kinetic", tuple(range(sys.n)))
    potential = measure.SubsetSelector("potential")
    rows = []
    for ti, st in enumerate(encoding.evolve_exact(st0, encoding.build_block_H(sys), times)):
        ref = encoding.prepare_standard(sys, traj.x[ti], traj.xdot[ti])
        rows.append((times[ti], float(np.abs(st.amps - ref.amps).max()),
                     measure.energy_fraction(st, kinetic).estimate,
                     measure.energy_fraction(st, potential).estimate))
    return np.array(rows)


SIMULATE_STARTS = {"at-rest": {"kind": "boltzmann"},
                   "displaced": {"kind": "boltzmann", "nodes": [1], "displacements": [0.2]},
                   "zero-kind": {"kind": "zero", "nodes": [1], "displacements": [0.2]}}


@pytest.mark.parametrize("steps", [50, 1])
@pytest.mark.parametrize("start", SIMULATE_STARTS, ids=list(SIMULATE_STARTS))
@pytest.mark.parametrize("shape", [(2, 1), (3, 2), (4, 4)])
def test_simulate_compares_in_blocks_as_it_did_sample_by_sample(tmp_path, shape, start, steps):
    # The blocked reads of the quantum series are matrix products, the one-row reads of the
    # per-sample loop matrix-vector products, so each sample's amplitudes move by a few ulps
    # of the largest; the deviation then moves by at most eps and each fraction by at most
    # 4 eps (two ulps near 1 on simulate-4x4, up to three on the 2x1 sheet, whose largest
    # amplitudes are 0.29-0.5).  A grid of one sample is the one-row read, bit for bit.
    over = {"lattice": {"n_r": shape[0], "n_c": shape[1]}, "initial": SIMULATE_STARTS[start],
            "times": {"start": 0.0, "stop": 6.0, "steps": steps}, "seed": 3}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(over))
    assert run(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    got = np.loadtxt(tmp_path / "o" / "comparison.csv", delimiter=",", skiprows=1, ndmin=2)
    want = _per_sample_comparison(cli._merge(cli.DEFAULTS, over))
    eps = np.finfo(float).eps
    assert got.shape == want.shape == (steps, 4)
    assert np.array_equal(got[:, 0], want[:, 0])
    assert np.abs(got[:, 1] - want[:, 1]).max() <= (eps if steps > 1 else 0.0)
    assert np.abs(got[:, 2:] - want[:, 2:]).max() <= (4 * eps if steps > 1 else 0.0)


def test_simulate_encodes_the_start_once(tmp_path, monkeypatch):
    # the classical references of every sample come from standard_amplitudes in blocks
    calls = []
    prepare_standard = encoding.prepare_standard

    def counted(*args):
        calls.append(args)
        return prepare_standard(*args)

    monkeypatch.setattr(encoding, "prepare_standard", counted)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 4, "n_c": 4}}))
    assert run(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    assert len(calls) == 1
    assert len((tmp_path / "o" / "comparison.csv").read_text().splitlines()) == 51


def test_simulate_refuses_a_zero_energy_start_before_writing(tmp_path, capsys):
    # every physical node of a 2x1 sheet displaced alike: a rigid translation, at rest
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 2, "n_c": 1},
                               "initial": {"kind": "zero", "nodes": [1, 4, 5, 6, 7, 8]}}))
    assert run(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert "config error: zero-energy state has no encoding" in capsys.readouterr().err
    assert not (tmp_path / "o" / "trajectory.csv").exists()
    assert not (tmp_path / "o" / "state_t0.csv").exists()

@pytest.mark.parametrize("physics, seed", [({}, 0), ({}, 3), ({"units": "physical"}, 0)],
                         ids=["reduced-seed0", "reduced-seed3", "physical"])
def test_simulate_formats_almost_every_value_in_numpy(tmp_path, monkeypatch, physics, seed):
    # simulate-4x4: at most 1 % of the values written may fall to Python's '%.17g'
    seen = []
    format_17g = output.format_17g

    def spy(values):
        rows, python = format_17g(values)
        seen.append(python)
        return rows, python

    monkeypatch.setattr(output, "format_17g", spy)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 4, "n_c": 4}, "physics": physics,
                               "seed": seed}))
    assert run(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    python = np.concatenate(seen)
    assert python.size >= 50 * 2 * 512 * 2 and python.mean() <= 0.01


def test_heat_command(tmp_path):
    assert run(["heat", "--out-dir", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "heat_search.csv").read_text().splitlines()[1:]
    assert all(r.split(",")[3] == "3" for r in rows)       # 3 queries per probe
    assert all(r.split(",")[4] == "1" for r in rows)       # search matches argmax
    ET.parse(tmp_path / "o" / "heat_regions.svg")


def test_heat_search_follows_the_moving_front(tmp_path):
    # on 4x4 at seed 0 the hottest region moves 0 -> 1 -> 2 over these probes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"heat_lattice": {"n_r": 4, "n_c": 4}, "regions": 8,
                               "probe_times": [0, 4.5, 15, 20, 40]}))
    assert run(["heat", "--config", str(cfg), "--seed", "0",
                "--out-dir", str(tmp_path / "o")]) == 0
    rows = [r.split(",") for r in
            (tmp_path / "o" / "heat_search.csv").read_text().splitlines()[1:]]
    assert [r[1] for r in rows] == ["0", "0", "1", "1", "2"]
    assert all(r[4] == "1" for r in rows)


def test_heat_queries_name_the_half_each_fraction_measures(tmp_path):
    # each row's subset is the half whose kinetic fraction it holds: the two halves of a
    # round split the half kept the round before, and that half's fraction is their sum
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"heat_lattice": {"n_r": 4, "n_c": 4}, "regions": 8,
                               "probe_times": [0, 4.5, 15, 20, 40]}))
    assert run(["heat", "--config", str(cfg), "--seed", "0",
                "--out-dir", str(tmp_path / "o")]) == 0
    found = [int(r.split(",")[1]) for r in
             (tmp_path / "o" / "heat_search.csv").read_text().splitlines()[1:]]
    with open(tmp_path / "o" / "heat_queries.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5 * 3 * 2
    for probe in range(5):
        kept, kept_fraction = list(range(8)), None
        for i in range(3):
            low, high = rows[6 * probe + 2 * i:6 * probe + 2 * i + 2]
            assert (low["observable"], high["observable"]) == (f"round{i}-low", f"round{i}-high")
            halves = [[int(v) for v in r["subset_id"].split(",")] for r in (low, high)]
            assert halves == [kept[:len(kept) // 2], kept[len(kept) // 2:]]
            fractions = [float(low["estimate"]), float(high["estimate"])]
            if kept_fraction is not None:
                assert sum(fractions) == pytest.approx(kept_fraction, rel=1e-12, abs=1e-30)
            side = int(fractions[1] > fractions[0])
            kept, kept_fraction = halves[side], fractions[side]
        assert kept == [found[probe]]
    # at t = 15 the last round measures region 0 against region 1, which it keeps
    last = {r["observable"]: r for r in rows if r["t"] == "15"}
    assert last["round2-low"]["subset_id"] == "0" and last["round2-high"]["subset_id"] == "1"
    assert float(last["round2-low"]["estimate"]) == pytest.approx(0.14277, abs=1e-5)
    assert float(last["round2-high"]["estimate"]) == pytest.approx(0.18063, abs=1e-5)


def test_ripple_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 2, "n_c": 1},
                               "times": {"start": 0.0, "stop": 15.0, "steps": 20}}))
    assert run(["ripple", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    ET.parse(tmp_path / "o" / "ripple_msd.svg")
    rows = (tmp_path / "o" / "ripple_msd.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 * 20


def test_scaling_single_size_no_fit(tmp_path):
    assert run(["scaling", "trace", "--sizes", "3x2",
                "--out-dir", str(tmp_path / "o")]) == 0
    fit = json.loads((tmp_path / "o" / "scaling_trace_fit.json").read_text())
    assert fit == {}


def test_scaling_trace_fit(tmp_path):
    assert run(["scaling", "trace", "--sizes", "3x2,3x3,4x3,4x4",
                "--out-dir", str(tmp_path / "o")]) == 0
    fit = json.loads((tmp_path / "o" / "scaling_trace_fit.json").read_text())
    assert fit["r_squared"] >= 0.99


def test_manifest_written_everywhere(tmp_path):
    # a 2x1 sheet is one hexagon with every degree 2, so validate fails degree-profile
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 2, "n_c": 1}, "sizes": [[2, 1], [3, 2]],
                               "times": {"start": 0.0, "stop": 8.0, "steps": 5}}))
    for argv, code in ((["lattice"], 0), (["validate"], 1), (["simulate"], 0), (["heat"], 0),
                       (["ripple"], 0), (["scaling", "cond"], 0), (["scaling", "trace"], 0)):
        out = tmp_path / "-".join(argv)
        assert run([*argv, "--config", str(cfg), "--out-dir", str(out), "--seed", "7"]) == code
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7 and manifest["out_dir"] == str(out)
        assert manifest["lattice"] == {"n_r": 2, "n_c": 1}


def test_byte_identical_reruns(tmp_path):
    for sub in ("a", "b"):
        assert run(["simulate", "--seed", "3", "--time-steps", "6",
                    "--out-dir", str(tmp_path / sub)]) == 0
    for name in ("trajectory.csv", "comparison.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    manifests = [json.loads((tmp_path / sub / "manifest.json").read_text())
                 for sub in ("a", "b")]
    for m in manifests:
        m.pop("out_dir")
    assert manifests[0] == manifests[1]


def test_seed_changes_outputs(tmp_path):
    for sub, seed in (("a", "1"), ("b", "2")):
        assert run(["simulate", "--seed", seed, "--time-steps", "6",
                    "--out-dir", str(tmp_path / sub)]) == 0
    assert ((tmp_path / "a" / "trajectory.csv").read_bytes()
            != (tmp_path / "b" / "trajectory.csv").read_bytes())


def test_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run(["lattice", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2


def test_parser_is_built_once_and_keeps_no_flag_between_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sizes": [[3, 2], [3, 3]]}))
    assert run(["scaling", "cond", "--sizes", "3x2", "--out-dir", str(tmp_path / "flag")]) == 0
    assert run(["scaling", "cond", "--config", str(cfg), "--out-dir", str(tmp_path / "cfg")]) == 0
    for name, rows in (("flag", 1), ("cfg", 2)):
        assert len((tmp_path / name / "scaling_cond.csv").read_text().splitlines()) == 1 + rows
    assert json.loads((tmp_path / "cfg" / "manifest.json").read_text())["sizes"] == [[3, 2],
                                                                                     [3, 3]]
    capsys.readouterr()
    assert run(["scaling", "cond", "--no-such-flag"]) == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err


def test_perturbation_budget_enforced(tmp_path):
    cfg = tmp_path / "cfg.json"
    bits = 2 + 1 + 1
    cfg.write_text(json.dumps({
        "lattice": {"n_r": 2, "n_c": 1},
        "initial": {"kind": "perturbed", "nodes": list(range(5 * bits * bits))},
    }))
    assert run(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2


def test_physical_units_displacement_cap(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "physics": {"units": "physical"},
        "initial": {"kind": "perturbed", "nodes": [3], "displacements": [1.7]},
    }))
    assert run(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2


def test_an_allocation_that_fails_exits_2_with_its_message(tmp_path, capsys, monkeypatch):
    # as simulate over a million time units on 3x2 does (11.7 GiB); never tried for real,
    # since a host that overcommits memory could grant it
    message = ("Unable to allocate 11.7 GiB for an array with shape (10000000, 157) "
               "and data type float64")

    def too_big(cfg, out):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "cmd_simulate", too_big)
    assert run(["simulate", "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_seed_stream_roles_are_stable():
    a = cli.derive_seed(0, "velocity-x")
    b = cli.derive_seed(0, "velocity-y")
    assert a != b
    assert cli.derive_seed(0, "velocity-x") == a


def test_flags_leave_defaults_untouched(tmp_path):
    before = copy.deepcopy(cli.DEFAULTS)
    assert run(["lattice", "--out-dir", str(tmp_path / "o"),
                "--temperature", "7", "--time-steps", "3"]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["physics"]["temperature"] == 7.0 and manifest["times"]["steps"] == 3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"physics": {"units": "physical"}}))
    assert run(["lattice", "--config", str(cfg), "--out-dir", str(tmp_path / "p")]) == 0
    assert cli.DEFAULTS == before


def test_non_object_config_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert run(["lattice", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("config, key", [({"physics": 5}, "physics"),
                                         ({"lattice": {"n_r": "3"}}, "lattice.n_r"),
                                         ({"times": {"steps": 2.5}}, "times.steps"),
                                         # a misspelt unit used to run in reduced units
                                         ({"physics": {"units": "phsyical"}}, "physics.units")])
def test_ill_typed_config_exit_code(tmp_path, capsys, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["lattice", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert f"config error: {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", [[3], [[3, "a"]], [[3, 2, 1]], [[0, 2]], [[3, True]]])
def test_scaling_sizes_must_be_positive_int_pairs(tmp_path, capsys, sizes):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sizes": sizes}))
    assert run(["scaling", "cond", "--config", str(cfg),
                "--out-dir", str(tmp_path / "o")]) == 2
    assert "config error: sizes entries must be" in capsys.readouterr().err


@pytest.mark.parametrize("node", [999, 16, -1, 15, 2.0])
def test_initial_nodes_must_be_sites_of_the_lattice(tmp_path, capsys, node):
    # 2x1 has 16 sites and 15 is padding; -1 used to perturb it and 999 raised IndexError
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 2, "n_c": 1},
                               "initial": {"kind": "perturbed", "nodes": [node]}}))
    assert run(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: initial.nodes entries must be non-padding sites in [0, 16)" in err


# the scipy modules loaded so far, printed as the last line of a child's output
SCIPY_LOADED = ("print(sorted(m for m in sys.modules\n"
                "             if m == 'scipy' or m.startswith('scipy.')))")


def test_cli_import_skips_heavy_scipy_modules():
    # any scipy module loads scipy._lib._util, whose array-API shim loads numpy.f2py,
    # numpy.testing, numpy.ma and numpy.random: about half of the import; none is needed
    env = {**os.environ, "PYTHONPATH": str(Path(qenm.__file__).resolve().parents[1])}
    code = "import sys, qenm.cli\n" + SCIPY_LOADED
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("command, config, key", [
    # [[1]] was broadcast over both axes and [null] ended in a NaN-to-int error
    ("simulate", {"initial": {"kind": "perturbed", "nodes": [5], "displacements": [[1]]}},
     "initial.displacements"),
    ("simulate", {"initial": {"kind": "perturbed", "nodes": [5], "displacements": [None]}},
     "initial.displacements"),
    ("simulate", {"initial": {"kind": "perturbed", "nodes": [5], "displacements": [True]}},
     "initial.displacements"),
    ("heat", {"probe_times": [None]}, "probe_times"),
    ("heat", {"probe_times": [0.0, "1"]}, "probe_times"),
    ("heat", {"probe_times": [0.0, False]}, "probe_times"),
])
def test_config_list_entries_must_be_numbers(tmp_path, capsys, command, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 2, "n_c": 1}, **config}))
    assert run([command, "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert f"config error: {key} entries must be finite numbers" in capsys.readouterr().err


def test_scaling_sizes_must_not_be_empty(tmp_path, capsys):
    # used to end in "zero-size array to reduction operation minimum"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sizes": []}))
    assert run(["scaling", "cond", "--config", str(cfg),
                "--out-dir", str(tmp_path / "o")]) == 2
    assert "config error: sizes must list at least one" in capsys.readouterr().err


def test_scaling_refuses_sheets_past_the_banded_solve_cap(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sizes": [[3, 2], [8, 8]]}))
    assert run(["scaling", "trace", "--config", str(cfg),
                "--out-dir", str(tmp_path / "o")]) == 2
    assert ("config error: lattice 8x8 has 131072 sites; the exact block-tridiagonal solve is "
            "capped at 32768 sites and 8388608 entries per factor array"
            ) in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["cond", "trace"])
@pytest.mark.parametrize("sizes, message", [
    ("1x1,2x1", "lattice 1x1 has no physical site to scale"),
    ("3x2,1x1", "lattice 1x1 has no physical site to scale"),
    ("3x2,1x2,6x6", "lattice 1x2 has no physical site to scale"),
    ("3x2,8x8,1x1", "lattice 8x8 has 131072 sites"),
])
def test_scaling_checks_every_size_before_the_first_solve(tmp_path, capsys, monkeypatch,
                                                          kind, sizes, message):
    # cond on a sheet without physical sites ended in an IndexError, trace fitted a 0,0 row
    def refuse(*args, **kwargs):
        raise AssertionError("system built before every size was checked")

    monkeypatch.setattr(enm, "build_system", refuse)
    assert run(["scaling", kind, "--sizes", sizes, "--out-dir", str(tmp_path / "o")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert list((tmp_path / "o").iterdir()) == []


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_out_dir_blocked_by_a_file(tmp_path, capsys, under):
    # used to end in a FileExistsError (or NotADirectoryError) traceback from the mkdir
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    out = blocker / "o" if under else blocker
    assert run(["lattice", "--out-dir", str(out)]) == 2
    assert f"config error: cannot create output directory {out}: " in capsys.readouterr().err
    assert blocker.read_text() == "keep\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]     # no manifest anywhere


def test_validate_factorization_checks_read_the_system_B(tmp_path, capsys, monkeypatch):
    # one flipped sign in the incidence operator must fail both factorization checks and nothing
    # else
    build = enm.build_system

    def flipped_build(*args, **kwargs):
        sys = build(*args, **kwargs)
        b = sys.op_B
        sys.__dict__["op_B"] = enm.BondOperator(b.rows, b.cols, np.append(-b.vals[0], b.vals[1:]),
                                                b.shape)
        return sys

    monkeypatch.setattr(enm, "build_system", flipped_build)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 2, "n_c": 2}}))
    assert run(["validate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    failed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL")]
    assert failed == ["FAIL factorization-BBt-equals-A", "FAIL factorization-sqrtMB-equals-F"]


def _validate_4x4(tmp_path, name="o"):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 4, "n_c": 4}}))
    return run(["validate", "--config", str(cfg), "--out-dir", str(tmp_path / name)])


@pytest.mark.filterwarnings("ignore:physical subgraph is disconnected")
def test_validate_counts_the_null_direction_of_a_cut_sheet(tmp_path, capsys, monkeypatch):
    # the first bond, cut off from the rest of the sheet, is a second bonded component and adds
    # one null direction inside the bonded block, which only the shift-invert solve can see
    build = enm.build_system

    def cut_build(*args, **kwargs):
        sys = build(*args, **kwargs)
        crossing = np.isin(sys.bonds, sys.bonds[0]).sum(axis=1) == 1
        cut = enm.system_from_bonds(sys.n, sys.bonds[~crossing], physical=sys.physical)
        bonded = np.unique(cut.bonds)
        assert np.array_equal(bonded, np.flatnonzero(sys.physical))
        assert len(np.unique(cut.components[bonded])) == 2
        return cut

    monkeypatch.setattr(enm, "build_system", cut_build)
    assert _validate_4x4(tmp_path) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert failed == ["FAIL null-space-dimension: dim 2"]


def test_validate_finds_a_negative_eigenvalue_of_A(tmp_path, capsys, monkeypatch):
    # a spring of stiffness 1 - 3 on the first bond keeps A 1 = 0 and gives A exactly one
    # negative eigenvalue, far below the small shift a semidefinite A would allow
    build = enm.build_system

    def negative_spring(*args, **kwargs):
        sys = build(*args, **kwargs)
        (j, k), a = sys.bonds[0], sys.op_A
        vals = a.vals.copy()
        for r, c, change in ((j, j, -3.0), (k, k, -3.0), (j, k, 3.0), (k, j, 3.0)):
            vals[(a.rows == r) & (a.cols == c)] += change
        sys.__dict__["op_A"] = enm.BondOperator(a.rows, a.cols, vals, a.shape)
        assert np.count_nonzero(np.linalg.eigvalsh(sys.op_A.toarray()) < -1e-12) == 1
        return sys

    monkeypatch.setattr(enm, "build_system", negative_spring)
    assert _validate_4x4(tmp_path) == 1
    assert "FAIL A-positive-semidefinite: min eig -3.18e+00" in capsys.readouterr().out


def test_validate_reports_the_ends_where_the_certificate_declines(tmp_path, capsys, monkeypatch):
    # the first bond's pair hangs on the rest of the sheet by springs of 1e-12, so lambda_2 lies
    # under the null cut and Tr(A_GG^-1) is too large to certify it; validate then reads the
    # ends of the spectrum and reports what it reported before the certificate
    build, certify = enm.build_system, enm.inertia_certificate
    certificates = []

    def weak_build(*args, **kwargs):
        sys = build(*args, **kwargs)
        crossing = np.isin(sys.bonds, sys.bonds[0]).sum(axis=1) == 1
        return enm.system_from_bonds(sys.n, sys.bonds, kappa=np.where(crossing, 1e-12, 1.0),
                                     physical=sys.physical)

    def recorded(sys):
        certificates.append(certify(sys))
        return certificates[-1]

    monkeypatch.setattr(enm, "build_system", weak_build)
    monkeypatch.setattr(enm, "inertia_certificate", recorded)
    assert _validate_4x4(tmp_path, "certified") == 1
    monkeypatch.setattr(enm, "inertia_certificate", lambda sys: None)
    assert _validate_4x4(tmp_path, "ends") == 1
    assert certificates == [None]
    certified, ends = ((tmp_path / name / "validation.txt").read_text()
                       for name in ("certified", "ends"))
    assert certified == ends
    assert "FAIL null-space-dimension: dim 2\n" in certified


def test_validate_builds_one_factorization_and_reads_no_spectral_ends(tmp_path, capsys,
                                                                      monkeypatch):
    # the two spectral checks come from the inertia of the grounded factor that F-conservation
    # builds: no shift-invert factor and no Lanczos run
    def refuse(sys):
        raise AssertionError("validate read the ends of the spectrum")

    built, init = [], linalg.BlockTridiagonal.__init__

    def counted(self, m, w):
        built.append(m.shape)
        init(self, m, w)

    monkeypatch.setattr(enm, "extreme_eigenvalues", refuse)
    monkeypatch.setattr(linalg.BlockTridiagonal, "__init__", counted)
    assert _validate_4x4(tmp_path) == 0
    assert len(built) == 1
    assert "PASS A-positive-semidefinite: min eig >= -" in capsys.readouterr().out


def test_validate_reruns_are_identical_after_unseeded_draws(tmp_path, capsys):
    # the Lanczos start vectors are seeded, so the global numpy generator cannot move them
    assert _validate_4x4(tmp_path, "first") == 0
    np.random.uniform(size=3)
    assert _validate_4x4(tmp_path, "second") == 0
    first, second = ((tmp_path / name / "validation.txt").read_bytes()
                     for name in ("first", "second"))
    assert first == second


def test_validate_passes_at_6x6(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 6, "n_c": 6}}))
    assert run(["validate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out.endswith("16 checks, 0 failed\n")


def test_validate_passes_at_7x7(tmp_path, capsys):
    # 2^15 sites, the geometric oracle's cap: the energies come off the series' Gram matrices,
    # so no (200, 2, N) array is formed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 7, "n_c": 7}}))
    assert run(["validate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out.endswith("16 checks, 0 failed\n")


def test_validate_at_8x8_stops_at_the_oracle_before_any_solve(tmp_path, capsys, monkeypatch):
    def no_system(*args, **kwargs):
        raise AssertionError("validate built a system past the oracle's cap")

    monkeypatch.setattr(enm, "build_system", no_system)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 8, "n_c": 8}}))
    assert run(["validate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: geometric oracle is meant for small lattices\n"


def test_validate_holds_no_whole_trajectory(capsys):
    # x and xdot of 200 samples, 2 axes and 2048 sites took 13.1 MB alone.  The energies come
    # off the series' Gram matrices: the 1.0 MB terms of the xdot0 half (the start is at rest)
    # and 3 of their 30 rows at a time with their op_F gather (0.5 MB), 3.0 MB in all; the run
    # peaks at 4.3 MB in the F-conservation check.  All 30 rows through op_F at once (8.2 MB)
    # breaks the bound
    cfg = cli._merge(cli.DEFAULTS, {"lattice": {"n_r": 5, "n_c": 5}})
    cli._validation_checks(cfg)     # the first run fills the caches of imports and oracles
    tracemalloc.start()
    try:
        checks = cli._validation_checks(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(passed for _, passed, _ in checks)
    assert peak < 5_400_000


def test_validate_reads_every_block_of_the_trajectory(tmp_path, capsys, monkeypatch):
    # the energies come off the series' Gram matrices, so a kick to the last sample's xdot
    # coefficients must fail the energy check, which a check of a few samples would pass; the
    # only read is of the ten every-20th samples, for F-conservation, none of them the kicked one
    build, read = enm.classical_series, enm.ChebyshevSeries.read
    built, reads = [], []

    def kicked_series(*args, **kwargs):
        series = build(*args, **kwargs)
        series.coeffs[:, -1, 1] *= 1.5
        built.append(series)
        return series

    def recorded(self, start, stop):
        reads.append(self.coeffs[:, start:stop])
        return read(self, start, stop)

    monkeypatch.setattr(enm, "classical_series", kicked_series)
    monkeypatch.setattr(enm.ChebyshevSeries, "read", recorded)
    assert _validate_4x4(tmp_path) == 1
    (series,) = built
    (coeffs,) = reads
    assert np.array_equal(coeffs, series.coeffs[:, ::20]) and coeffs.shape[1] == 10
    failed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL")]
    assert failed == ["FAIL energy-conservation"]


@pytest.mark.parametrize("command, code", [("simulate", 0), ("heat", 2)])
def test_zero_temperature_thermal_state(tmp_path, capsys, command, code):
    # T = 0 has one velocity bucket and the key picks bucket 0 or 1: used to end in IndexError
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 2, "n_c": 1},
                               "physics": {"temperature": 0.0}}))
    assert run([command, "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == code
    if command == "simulate":
        rows = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()[1:]
        assert all(r.split(",")[3:] == ["0", "0"] for r in rows)
        comp = (tmp_path / "o" / "comparison.csv").read_text().splitlines()[1:]
        assert len(comp) == 50 and all(r.split(",")[1:] == ["0", "0", "0"] for r in comp)
    else:
        assert "zero-energy state" in capsys.readouterr().err


@pytest.mark.parametrize("config, key", [({"physcs": {"mass": 3}}, "physcs"),
                                         ({"physics": {"mas": 3}}, "physics.mas"),
                                         ({"initial": {"node": [1]}}, "initial.node")])
def test_unknown_config_key_exit_code(tmp_path, capsys, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert f"config error: unknown config key {key}" in capsys.readouterr().err


@pytest.mark.parametrize("window", [0, 0.0, -5])
def test_window_must_be_positive_or_null(tmp_path, capsys, window):
    # 0 used to fall back to times.stop and -5 ran ripple on a reversed grid, both exiting 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 2, "n_c": 1}, "window": window}))
    assert run(["ripple", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert "config error: window must be a positive number or null" in capsys.readouterr().err


def _dynamics_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 3, "n_c": 2},
                               "heat_lattice": {"n_r": 3, "n_c": 2}, "regions": 4}))
    return str(cfg)


def test_dynamics_commands_leave_scipy_linalg_unloaded(tmp_path):
    # the bond operators, the null space, A^+ and the Bessel values need only numpy
    env = {**os.environ, "PYTHONPATH": str(Path(qenm.__file__).resolve().parents[1])}
    code = ("import sys\nfrom qenm import cli\n"
            "for command in ('lattice', 'simulate', 'ripple', 'heat'):\n"
            f"    assert cli.main([command, '--config', {_dynamics_config(tmp_path)!r}, "
            f"'--out-dir', {str(tmp_path)!r} + '/' + command]) == 0\n" + SCIPY_LOADED)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_scaling_leaves_scipy_linalg_unloaded(tmp_path):
    # the block-tridiagonal factor of the bond list's triples and Lanczos need only numpy
    env = {**os.environ, "PYTHONPATH": str(Path(qenm.__file__).resolve().parents[1])}
    code = ("import sys\nfrom qenm import cli\n"
            "for kind in ('cond', 'trace'):\n"
            "    assert cli.main(['scaling', kind, '--sizes', '3x2,4x4', "
            f"'--out-dir', {str(tmp_path)!r} + '/' + kind]) == 0\n" + SCIPY_LOADED)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_validate_loads_no_scipy_and_passes(tmp_path):
    # the spectral ends, the geometric oracle and the factorization checks need only numpy
    env = {**os.environ, "PYTHONPATH": str(Path(qenm.__file__).resolve().parents[1])}
    code = ("import sys\nfrom qenm import cli\n"
            f"assert cli.main(['validate', '--out-dir', {str(tmp_path)!r}]) == 0\n"
            + SCIPY_LOADED)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.splitlines()[-2:] == ["16 checks, 0 failed", "[]"]
    assert (tmp_path / "validation.txt").read_text().endswith("16 checks, 0 failed\n")


def test_validate_and_scaling_leave_numpy_ma_unloaded(tmp_path):
    # the first bare np.unique call imports numpy.ma (1.2 MB of RSS); 5x5 is the first sheet
    # whose bonded sites take the breadth-first level order
    env = {**os.environ, "PYTHONPATH": str(Path(qenm.__file__).resolve().parents[1])}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 5, "n_c": 5}}))
    loaded = "print('numpy.ma loaded:', 'numpy.ma' in sys.modules)\n"
    code = ("import sys\nfrom qenm import cli\n"
            f"assert cli.main(['validate', '--config', {str(cfg)!r}, "
            f"'--out-dir', {str(tmp_path)!r} + '/validate']) == 0\n" + loaded
            + "for kind in ('cond', 'trace'):\n"
            "    assert cli.main(['scaling', kind, '--sizes', '3x2,3x3,4x3,4x4,5x4,5x5', "
            f"'--out-dir', {str(tmp_path)!r} + '/' + kind]) == 0\n" + loaded)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert [line for line in out.stdout.splitlines() if line.startswith("numpy.ma")] == \
        ["numpy.ma loaded: False"] * 2


def test_no_command_loads_numpy_random(tmp_path):
    # numpy.random brings secrets, hmac and OpenSSL's _hashlib, about 6 MB of a fresh
    # process's peak RSS; commands draw keys from boltzmann.KeyStream and starts from prf64
    env = {**os.environ, "PYTHONPATH": str(Path(qenm.__file__).resolve().parents[1])}
    code = "import sys\nfrom qenm import cli\n"
    for n_r, n_c in ((3, 2), (5, 5)):
        cfg = tmp_path / f"{n_r}x{n_c}.json"
        cfg.write_text(json.dumps({"lattice": {"n_r": n_r, "n_c": n_c},
                                   "heat_lattice": {"n_r": n_r, "n_c": n_c}, "regions": 4}))
        for argv in (["lattice"], ["validate"], ["simulate"], ["ripple"], ["heat"],
                     ["scaling", "cond"], ["scaling", "trace"]):
            out_dir = tmp_path / f"{n_r}x{n_c}-{'-'.join(argv)}"
            flags = argv + (["--sizes", f"{n_r}x{n_c}"] if argv[0] == "scaling" else [])
            flags += ["--config", str(cfg), "--out-dir", str(out_dir)]
            code += (f"assert cli.main({flags!r}) == 0\n"
                     f"print({' '.join(argv)!r}, 'numpy.random' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    loaded = [line for line in out.stdout.splitlines() if line.endswith(("True", "False"))]
    assert len(loaded) == 14 and all(line.endswith("False") for line in loaded), loaded


def test_scaling_reruns_are_identical_after_unseeded_draws(tmp_path, capsys):
    # the Lanczos start vectors are seeded, so the global numpy generator cannot move them
    for name in ("first", "second"):
        np.random.uniform(size=3)
        assert run(["scaling", "cond", "--sizes", "3x2,4x4",
                    "--out-dir", str(tmp_path / name)]) == 0
    first, second = ((tmp_path / name / "scaling_cond.csv").read_bytes()
                     for name in ("first", "second"))
    assert first == second


@pytest.mark.parametrize("kind", ["cond", "trace"])
def test_scaling_runs_past_the_dense_ceiling(tmp_path, capsys, kind):
    assert run(["scaling", kind, "--sizes", "5x5,6x6", "--out-dir", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / f"scaling_{kind}.csv").read_text().splitlines()
    assert rows[0] == "n_physical,value" and len(rows) == 3


def test_commands_run_without_dense_eigensolvers(tmp_path, monkeypatch):
    # no command eigendecomposes A, its bonded block (42 of the 3x2 sheet's 64 sites) or any
    # matrix that large; the Lanczos runs of validate's spectral ends solve only their
    # Rayleigh-Ritz problems, 22 x 22 at most from 3x2 to 6x6
    bonded = len(np.unique(enm.build_system(LatticeSpec(3, 2)).bonds))

    def refuse(solver):
        def small_only(a, *args, **kwargs):
            if np.shape(a)[-1] >= bonded:
                raise AssertionError("dense eigensolver called")
            return solver(a, *args, **kwargs)
        return small_only

    monkeypatch.setattr(np.linalg, "eigh", refuse(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse(np.linalg.eigvalsh))
    cfg = _dynamics_config(tmp_path)
    for command in ("validate", "simulate", "ripple", "heat"):
        assert run([command, "--config", cfg, "--out-dir", str(tmp_path / command)]) == 0


def test_commands_run_without_dense_system_matrices(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("dense system matrix read")

    for name in ("kappa", "F", "A", "B"):
        monkeypatch.setattr(enm.SystemMatrices, name, property(refuse))
    cfg = json.loads(Path(_dynamics_config(tmp_path)).read_text())
    (tmp_path / "cfg.json").write_text(json.dumps({**cfg, "sizes": [[3, 2], [3, 3]]}))
    for argv in (["lattice"], ["validate"], ["simulate"], ["heat"], ["ripple"],
                 ["scaling", "cond"], ["scaling", "trace"]):
        assert run([*argv, "--config", str(tmp_path / "cfg.json"),
                    "--out-dir", str(tmp_path / "-".join(argv))]) == 0


def test_sheet_system_stores_only_bond_arrays():
    sys = enm.build_system(LatticeSpec(6, 6))
    n, p = sys.n, len(sys.bonds)
    sizes = [v.size for v in vars(sys).values() if isinstance(v, np.ndarray)]
    assert max(sizes) == sys.bonds.size == 2 * p < n * p
    assert not any(hasattr(v, "nnz") for v in vars(sys).values())      # no matrix built yet


def test_validate_symmetry_check_reads_the_adjacency_arrays(tmp_path, capsys, monkeypatch):
    # one physical bond marked invalid in one direction only must fail validity-symmetric
    from qenm import lattice

    def one_sided(spec):
        adj = lattice.adjacency(spec)
        j, l = map(int, np.argwhere(adj.valid)[0])
        adj.valid[j, l] = False
        return adj

    monkeypatch.setattr(cli, "adjacency", one_sided)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 2, "n_c": 2}}))
    assert run(["validate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    assert "FAIL validity-symmetric: all (j,l)" in capsys.readouterr().out


def test_validate_zero_projector_check_reads_the_whole_block(tmp_path, capsys, monkeypatch):
    # two prepended gates map (a=0, t=2) to (a=0, t=3) with sign -1 and leave the diagonal
    # of the a = 0 block that of |0><0|; a check of the diagonal alone passed this circuit
    from qenm import oracles
    from qenm.circuits import Gate

    def off_diagonal(n):
        circ = oracles.diffusion_projector_circuit(n)
        a, t = circ.registers["a"][0], circ.registers["t"]
        circ.gates = [Gate("x", (a,), ((t[0], 0), (t[1], 1), (t[2], 0))),
                      Gate("x", (t[0],), ((a, 1), (t[1], 1), (t[2], 0))), *circ.gates]
        return circ

    monkeypatch.setattr(cli, "diffusion_projector_circuit", off_diagonal)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 2, "n_c": 2}}))
    assert run(["validate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert failed == ["FAIL zero-projector-block: 8 basis states"]


@pytest.mark.parametrize("command", ["ripple", "simulate"])
@pytest.mark.parametrize("config, message", [
    ({"physics": {"temperature": float("nan")}}, "physics.temperature must be a finite number"),
    ({"physics": {"temperature": float("inf")}}, "physics.temperature must be a finite number"),
    ({"physics": {"temperature": -1.0}}, "physics.temperature must be a finite number >= 0"),
    ({"physics": {"k_B": -1.0}}, "physics.k_B must be a finite number > 0"),
    ({"physics": {"k_B": float("nan")}}, "physics.k_B must be a finite number > 0"),
    ({"physics": {"kappa": float("nan")}}, "physics.kappa must be a finite number > 0"),
    ({"physics": {"mass": float("inf")}}, "physics.mass must be a finite number > 0"),
    ({"physics": {"mass": 0}}, "physics.mass must be a finite number > 0"),
    ({"times": {"stop": float("inf")}}, "times.stop must be a finite number"),
    ({"times": {"start": float("nan")}}, "times.start must be a finite number"),
])
def test_physics_and_times_must_be_finite(tmp_path, capsys, command, config, message):
    # NaN temperature and bad k_B used to end in a traceback from solving with A^+ (exit 1),
    # NaN kappa and an infinite stop in "cannot convert float NaN to integer"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 2, "n_c": 1}, **config}))
    assert run([command, "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("stop", [0.0, -5.0])
def test_ripple_fallback_window_must_be_positive(tmp_path, capsys, stop):
    # with window null, stop 0 printed "MSD nan" and -5 ran on a reversed grid, both exiting 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 2, "n_c": 1}, "times": {"stop": stop}}))
    assert run(["ripple", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert ("config error: times.stop is the ripple window when window is null and must be > 0"
            in capsys.readouterr().err)
    assert not (tmp_path / "o" / "manifest.json").exists()     # none after a raised error


@pytest.mark.parametrize("argv", [["lattice"], ["validate"], ["simulate"], ["heat"], ["ripple"],
                                  ["scaling", "cond"]])
@pytest.mark.parametrize("initial, message", [
    ({"kind": "bogus"}, "initial.kind must be 'zero', 'perturbed' or 'boltzmann', got 'bogus'"),
    ({"kind": "perturbed", "nodes": [5], "displacements": [0.1, 0.2]},
     "initial.displacements must be empty or one per initial.nodes entry, got 2 for 1"),
], ids=["kind", "length"])
def test_initial_conditions_are_checked_at_load(tmp_path, capsys, argv, initial, message):
    # only simulate reads them; the other commands used to run with exit 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 2, "n_c": 1}, "sizes": [[2, 1]],
                               "initial": initial}))
    assert run([*argv, "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("n_c", [1, 2])
def test_validate_sheet_without_physical_sites(tmp_path, capsys, n_c):
    # with n_r = 1 every site is padding; the energy-drift check divided by zero
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 1, "n_c": n_c}}))
    assert run(["validate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert (f"config error: lattice 1x{n_c} has no physical site to validate"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command, config, message", [
    ("validate", {"lattice": {"n_r": 1, "n_c": 2}}, "lattice 1x2 has no physical site to validate"),
    ("heat", {"heat_lattice": {"n_r": 1, "n_c": 3}}, "heat_lattice 1x3 has no physical site to heat"),
    ("ripple", {"lattice": {"n_r": 1, "n_c": 2}}, "lattice 1x2 has no physical site to ripple"),
])
def test_studies_refuse_a_sheet_without_physical_sites(tmp_path, capsys, monkeypatch, recwarn,
                                                       command, config, message):
    # heat blamed a zero-temperature hotspot; ripple warned about its window, then found a
    # zero-energy state
    def refuse(*args, **kwargs):
        raise AssertionError("system built before the sheet was checked")

    monkeypatch.setattr(enm, "build_system", refuse)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([command, "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert len(recwarn) == 0


@pytest.mark.parametrize("argv", [["lattice"], ["validate"], ["simulate"], ["heat"], ["ripple"],
                                  ["scaling", "cond"]])
@pytest.mark.parametrize("heat_lattice", [{"n_r": 0}, {"n_c": 0}])
def test_heat_lattice_widths_are_checked_at_load(tmp_path, capsys, argv, heat_lattice):
    # only heat read them, and its error did not name the key; the rest exited 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": 2, "n_c": 1}, "sizes": [[2, 1]],
                               "heat_lattice": heat_lattice}))
    assert run([*argv, "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert "config error: heat_lattice register widths must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["cond", "trace"])
@pytest.mark.parametrize("sizes", ["3x2,4x1", "3x2,3x2"])
def test_scaling_fits_only_across_two_distinct_n(tmp_path, capsys, recwarn, kind, sizes):
    # both sheets have 42 physical sites; polyfit warned and wrote a slope through one N
    out = tmp_path / "o"
    assert run(["scaling", kind, "--sizes", sizes, "--out-dir", str(out)]) == 0
    assert json.loads((out / f"scaling_{kind}_fit.json").read_text()) == {}
    assert (out / f"scaling_{kind}.svg").read_text().count("<line") == 2     # the axes only
    assert (f"{kind}: 2 sizes share one N (42 physical sites), points only"
            in capsys.readouterr().out)
    assert len(recwarn) == 0


@pytest.mark.parametrize("kind", ["cond", "trace"])
def test_scaling_on_one_size_writes_points_only(tmp_path, capsys, kind):
    out = tmp_path / "o"
    assert run(["scaling", kind, "--sizes", "3x2", "--out-dir", str(out)]) == 0
    assert json.loads((out / f"scaling_{kind}_fit.json").read_text()) == {}
    assert capsys.readouterr().out == f"{kind}: single size, points only\n"


# each config fails validate where the factorization, semidefiniteness and null-space bounds are
# absolute; kappa / mass >= 1e5 fails there too.  The last two ran out of memory where validate
# evolved over t in [0, 10] whatever the scale: at kappa / m = 1e9 the series needs a 2 TiB table
@pytest.mark.parametrize("size, physics", [
    *((size, physics) for size in ((3, 2), (4, 3), (5, 5))
      for physics in ({"kappa": 1e-9}, {"mass": 1e9})),
    ((5, 5), {"kappa": 1e4}),
    ((3, 2), {"kappa": 3e5, "mass": 3e5}),
    ((3, 2), {"kappa": 1e9}),
    ((3, 2), {"mass": 1e-9}),
])
def test_validate_bounds_scale_with_kappa_and_mass(tmp_path, capsys, size, physics):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"n_r": size[0], "n_c": size[1]}, "physics": physics}))
    assert run(["validate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out.endswith("16 checks, 0 failed\n")
