import numpy as np
import pytest

from qenm import output, svgplot
from qenm.lattice import (LatticeSpec, NodeCoord, adjacency, brute_force_adjacency,
                          decode_index, dummy_mask, encode_coord, is_dummy,
                          neighbor, node_positions, shift_vector)

SPECS = [LatticeSpec(2, 1), LatticeSpec(2, 2), LatticeSpec(3, 2), LatticeSpec(3, 3),
         LatticeSpec(4, 3)]


def test_decode_zero():
    assert decode_index(0, LatticeSpec(2, 2)) == NodeCoord(0, 0, 0)


def test_decode_paper_example():
    # j = 8*1 + 2*1 + 1 = 11 with two column bits
    assert decode_index(11, LatticeSpec(2, 2)) == NodeCoord(1, 1, 1)


def test_decode_column_boundary():
    # j = 2**(n_c+1) - 1 = 7: bits are s=1, c=11, r=00
    assert decode_index(7, LatticeSpec(2, 2)) == NodeCoord(0, 3, 1)


def test_decode_out_of_range():
    with pytest.raises(ValueError):
        decode_index(32, LatticeSpec(2, 2))


@pytest.mark.parametrize("n_r, n_c", [(n_r, n_c) for n_r in range(2, 6) for n_c in range(1, 6)])
def test_decode_index_array_equals_scalar(n_r, n_c):
    spec = LatticeSpec(n_r, n_c)
    j = np.arange(spec.n_total)
    co = decode_index(j, spec)
    coords = [NodeCoord(*rcs) for rcs in zip(co.r.tolist(), co.c.tolist(), co.s.tolist())]
    assert coords == [decode_index(int(i), spec) for i in j]
    assert np.array_equal(encode_coord(co, spec), j)


@pytest.mark.parametrize("bad", [-1, 32, 1 << 40])
def test_decode_index_array_out_of_range(bad):
    j = np.arange(32)
    j[17] = bad
    with pytest.raises(ValueError, match=f"node index {bad} out of range"):
        decode_index(j, LatticeSpec(2, 2))


@pytest.mark.parametrize("spec", SPECS + [LatticeSpec(6, 7)])
def test_encode_decode_roundtrip_exhaustive(spec):
    for j in range(spec.n_total):
        assert encode_coord(decode_index(j, spec), spec) == j


def test_shift_vector_table_entries():
    assert shift_vector(0, 0, 2) == (-1, +1)
    assert shift_vector(1, 1, 1) == (+1, -1)
    for r0 in (0, 1):
        for s in (0, 1):
            assert shift_vector(r0, s, 0) == (0, 0)


def test_shift_vector_invalid_slot():
    with pytest.raises(ValueError):
        shift_vector(0, 0, 3)


@pytest.mark.parametrize("bad", [3, -1])
def test_slot_array_out_of_range_raises(bad):
    # unchecked, numpy indexing would wrap -1 round to slot 2
    slots = np.array([0, 1, bad, 2])
    with pytest.raises(ValueError, match=f"neighbor slot must be 0, 1 or 2, got {bad}"):
        shift_vector(np.zeros(4, dtype=int), np.ones(4, dtype=int), slots)
    with pytest.raises(ValueError, match=f"neighbor slot must be 0, 1 or 2, got {bad}"):
        neighbor(np.arange(8)[:, None], slots, LatticeSpec(2, 1))


def test_neighbor_slot0_same_cell():
    spec = LatticeSpec(3, 3)
    j = encode_coord(NodeCoord(2, 1, 0), spec)
    k, valid = neighbor(j, 0, spec)
    assert decode_index(k, spec) == NodeCoord(2, 1, 1)
    assert valid


def test_neighbor_dummy_source_invalid():
    spec = LatticeSpec(3, 3)
    j = encode_coord(NodeCoord(spec.rows - 1, 0, 0), spec)  # top buffer row
    for l in range(3):
        _, valid = neighbor(j, l, spec)
        assert not valid


@pytest.mark.parametrize("n_r, n_c", [(n_r, n_c) for n_r in range(2, 6) for n_c in range(1, 6)])
def test_neighbor_array_equals_scalar(n_r, n_c):
    spec = LatticeSpec(n_r, n_c)
    k, valid = neighbor(np.arange(spec.n_total)[:, None], np.arange(3), spec)
    assert k.shape == valid.shape == (spec.n_total, 3) and valid.dtype == bool
    scalar = [neighbor(j, l, spec) for j in range(spec.n_total) for l in range(3)]
    assert scalar == list(zip(k.ravel().tolist(), valid.ravel().tolist()))


@pytest.mark.parametrize("spec", SPECS + [LatticeSpec(5, 5), LatticeSpec(6, 6),
                                          LatticeSpec(6, 7)])
def test_adjacency_matches_geometric_oracle(spec):
    assert np.array_equal(adjacency(spec).bond_set(), brute_force_adjacency(spec))


@pytest.mark.parametrize("spec", SPECS)
def test_validity_symmetric(spec):
    for j in range(spec.n_total):
        for l in range(3):
            k, valid = neighbor(j, l, spec)
            assert (j, valid) in [neighbor(k, lb, spec) for lb in range(3)]


def test_is_dummy_bottom_edge():
    assert is_dummy(NodeCoord(0, 0, 0), LatticeSpec(3, 3))


def test_is_dummy_top_buffer():
    spec = LatticeSpec(3, 3)
    for c in range(spec.cols):
        for s in (0, 1):
            assert is_dummy(NodeCoord(spec.rows - 1, c, s), spec)


def test_is_dummy_interior_physical():
    assert not is_dummy(NodeCoord(1, 0, 0), LatticeSpec(3, 3))


@pytest.mark.parametrize("spec", SPECS)
def test_dummy_rules_flag_exactly_the_nonphysical_sites(spec):
    # geometric oracle: a site is physical iff it carries at least one unit bond
    # or is an isolated interior site; rule-based dummies must carry no
    # geometric bonds at all
    assert not dummy_mask(spec)[brute_force_adjacency(spec)].any()


@pytest.mark.parametrize("spec", SPECS)
def test_physical_degrees(spec):
    adj = adjacency(spec)
    degrees = adj.degrees()[~dummy_mask(spec)]
    assert degrees.min() >= 1 and degrees.max() <= 3
    if spec.n_total >= 64:   # smaller sheets have no interior site
        assert (degrees == 3).any()


def test_interior_node_has_three_bonds():
    spec = LatticeSpec(3, 3)
    j = encode_coord(NodeCoord(3, 2, 0), spec)
    adj = adjacency(spec)
    assert adj.valid[j].sum() == 3


@pytest.mark.parametrize("spec", SPECS)
def test_geometric_oracle_degree_profile(spec):
    bonds = brute_force_adjacency(spec)
    degrees = np.bincount(bonds.ravel(), minlength=spec.n_total)
    degrees = degrees[~dummy_mask(spec)]
    if spec.n_total >= 64:
        assert degrees.max() == 3
    assert (degrees < 3).any()  # boundary sites exist
    assert (bonds[:, 0] < bonds[:, 1]).all()
    assert np.array_equal(bonds, np.unique(bonds, axis=0))     # lexsorted, each once


@pytest.mark.parametrize("n_r, n_c", [(n_r, n_c) for n_r in range(1, 7) for n_c in range(1, 8)])
def test_geometric_oracle_matches_kd_tree_pairs(n_r, n_c):
    # the cell list against scipy's k-d tree, on every sheet under the cap
    from scipy.spatial import cKDTree
    spec = LatticeSpec(n_r, n_c)
    phys = np.flatnonzero(~dummy_mask(spec))
    pairs = phys[cKDTree(node_positions(spec)[phys]).query_pairs(r=1.0 + 1e-6,
                                                                 output_type="ndarray")]
    got = brute_force_adjacency(spec)
    assert got.shape == pairs.shape
    assert np.array_equal(got, pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))])


def test_geometric_oracle_is_capped_at_two_to_the_fifteen_sites():
    # the site cap of scaling too: validate runs at 7x7 and refuses 8x8 before any solve
    spec = LatticeSpec(7, 7)
    assert np.array_equal(brute_force_adjacency(spec), adjacency(spec).bond_set())
    with pytest.raises(ValueError, match="small lattices"):
        brute_force_adjacency(LatticeSpec(8, 7))


def test_geometric_positions_unit_bonds():
    spec = LatticeSpec(3, 2)
    pos = node_positions(spec)
    for j, k in brute_force_adjacency(spec):
        assert np.linalg.norm(pos[j] - pos[k]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("spec", SPECS + [LatticeSpec(6, 6)])
def test_dummy_mask_and_positions_equal_per_site_forms(spec):
    coords = [decode_index(j, spec) for j in range(spec.n_total)]
    mask = dummy_mask(spec)
    assert mask.dtype == bool
    assert mask.tolist() == [is_dummy(co, spec) for co in coords]
    assert all(type(is_dummy(co, spec)) is bool for co in coords[:8])
    pos = [(np.sqrt(3.0) * (co.c - 0.5 * (co.r & 1)), 1.5 * co.r + co.s) for co in coords]
    assert np.array_equal(node_positions(spec), np.array(pos))


def test_lattice_svg_takes_each_minimum_once_whatever_the_sheet(tmp_path, monkeypatch):
    # its px and py took xs.min() and ys.min() for every coordinate, so 8x8 took 41 s
    calls = []

    class Counting(np.ndarray):
        def min(self, *args, **kwargs):
            calls.append(1)
            return super().min(*args, **kwargs)

    monkeypatch.setattr(svgplot, "node_positions",
                        lambda spec: node_positions(spec).view(Counting))
    counts = []
    for spec in (LatticeSpec(2, 1), LatticeSpec(4, 4)):
        calls.clear()
        svgplot.lattice_svg(tmp_path / "lattice.svg", spec)
        counts.append(len(calls))
    assert counts == [2, 2]


def test_lattice_csv_schema(tmp_path):
    spec = LatticeSpec(2, 1)
    output.dump_lattice_csv(spec, tmp_path / "lattice.csv")
    rows = (tmp_path / "lattice.csv").read_bytes().split(b"\r\n")
    assert len(rows) == 1 + spec.n_total + 1 and rows[-1] == b""
    assert rows[0].split(b",") == [b"j", b"r", b"c", b"s", b"dummy", b"neigh0", b"neigh1",
                                   b"neigh2", b"valid0", b"valid1", b"valid2"]
