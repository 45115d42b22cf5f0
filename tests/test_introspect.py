import numpy as np
import pytest

from conftest import config_path
from sparseagg.architecture import load_spec
from sparseagg.errors import DataFormatError, PlanError
from sparseagg.introspect import (
    ABSENT,
    export_heatmap,
    heatmap_to_pgm,
    load_heatmap_csv,
    weight_heatmap,
)
from sparseagg.model import compile_network
from sparseagg.topology import build_graph


@pytest.fixture(scope="module")
def nets():
    return {
        "dense": compile_network(load_spec(config_path("dense40_k12_cifar.json")), seed=0),
        "sparse": compile_network(load_spec(config_path("sparse40_k12_cifar.json")), seed=0),
        "tiny_bc": compile_network(load_spec(config_path("sparse_bc_tiny_cifar.json")), seed=0),
    }


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_support_equals_block_adjacency(nets, kind):
    net = nets[kind]
    report = weight_heatmap(net)
    assert len(report.blocks) == 3
    for hm, bp in zip(report.blocks, net.plan.blocks):
        n = bp.num_layers
        assert hm.matrix.shape == (n, n + 1)
        graph = build_graph(net.spec.topology, n + 1)
        for i in range(n):
            wired = {src for src in graph.predecessors_of(i + 1)}
            assert {s for s in range(n + 1) if hm.mask[i, s]} == wired


def test_present_entries_are_positive_and_normalized(nets):
    report = weight_heatmap(nets["sparse"])
    for hm in report.blocks:
        assert np.all(hm.raw[hm.mask] > 0.0)  # He init never lands on exact zero
        assert np.all(hm.matrix[hm.mask] >= 0.0)
        assert np.all(hm.matrix[hm.mask] <= 1.0)
        assert np.all(hm.matrix[~hm.mask] == 0.0)
        assert np.all(hm.raw[~hm.mask] == 0.0)


def test_each_row_spans_zero_to_one(nets):
    report = weight_heatmap(nets["dense"])
    for hm in report.blocks:
        for i in range(hm.matrix.shape[0]):
            vals = hm.matrix[i, hm.mask[i]]
            if len(vals) >= 2:
                assert vals.min() == 0.0
                assert vals.max() == 1.0


def test_single_source_row_normalizes_to_one(nets):
    report = weight_heatmap(nets["sparse"])
    first_row_vals = report.blocks[0].matrix[0, report.blocks[0].mask[0]]
    np.testing.assert_array_equal(first_row_vals, [1.0])


def test_zeroed_slice_pins_row_minimum(nets):
    net = compile_network(load_spec(config_path("sparse40_k12_cifar.json")), seed=1)
    # layer 6 reads sources 5, 4, 2; silence the slice for source 4
    lp = net.plan.blocks[0].layers[5]
    assert lp.predecessors == (5, 4, 2)
    w = net.params["block1.layer6.conv1"]
    k = net.spec.blocks[0].growth_rate
    offset = k  # source 5 slice comes first, then source 4
    w.data[:, offset:offset + k] = 0.0
    hm = weight_heatmap(net).blocks[0]
    assert hm.raw[5, 4] == 0.0
    assert hm.matrix[5, 4] == 0.0
    assert hm.matrix[5, 5] > 0.0 or hm.matrix[5, 2] > 0.0


def test_swapping_source_slices_swaps_attribution():
    net = compile_network(load_spec(config_path("sparse40_k12_cifar.json")), seed=2)
    before = weight_heatmap(net).blocks[0]
    lp = net.plan.blocks[0].layers[5]
    assert lp.predecessors == (5, 4, 2)
    k = net.spec.blocks[0].growth_rate
    w = net.params["block1.layer6.conv1"]
    a = w.data[:, 0:k].copy()          # slice read from source 5
    b = w.data[:, k:2 * k].copy()      # slice read from source 4
    w.data[:, 0:k], w.data[:, k:2 * k] = b, a
    after = weight_heatmap(net).blocks[0]
    assert after.raw[5, 5] == before.raw[5, 4]
    assert after.raw[5, 4] == before.raw[5, 5]
    assert after.raw[5, 2] == before.raw[5, 2]


def test_constant_weights_make_constant_rows():
    net = compile_network(load_spec(config_path("dense40_k12_cifar.json")), seed=0)
    for name, p in net.params.items():
        if name.endswith("conv1"):
            p.data[:] = 0.25
    report = weight_heatmap(net)
    for hm in report.blocks:
        np.testing.assert_array_equal(hm.matrix[hm.mask], 1.0)


def test_bottleneck_networks_slice_the_pointwise_conv(nets):
    net = nets["tiny_bc"]
    assert net.params["block1.layer2.conv1"].data.shape[2:] == (1, 1)
    report = weight_heatmap(net)
    graph = build_graph(net.spec.topology, net.plan.blocks[0].num_layers + 1)
    hm = report.blocks[0]
    for i in range(hm.mask.shape[0]):
        assert {s for s in range(hm.mask.shape[1]) if hm.mask[i, s]} == \
            set(graph.predecessors_of(i + 1))


def test_sum_family_has_no_slice_attribution():
    net = compile_network(load_spec(config_path("sum_plain_d12_cifar.json")), seed=0)
    with pytest.raises(PlanError, match="sum"):
        weight_heatmap(net)


# ---------------------------------------------------------------------------
# export formats


def test_csv_round_trip_is_exact(nets, tmp_path):
    report = weight_heatmap(nets["sparse"])
    paths = export_heatmap(report, tmp_path, formats=("csv",))
    for hm in report.blocks:
        matrix, mask = load_heatmap_csv(tmp_path / f"heatmap_block{hm.block}.csv")
        np.testing.assert_array_equal(mask, hm.mask)
        np.testing.assert_array_equal(matrix, hm.matrix)
    assert str(tmp_path / "heatmap_meta.json") in paths


def test_csv_marks_missing_edges(nets, tmp_path):
    report = weight_heatmap(nets["sparse"])
    export_heatmap(report, tmp_path, formats=("csv",))
    text = (tmp_path / "heatmap_block1.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "target," + ",".join(f"source_{s}" for s in range(13))
    # layer 12 of a 12-layer block reads sources 11, 10, 8, 4 under base 2
    last = lines[-1].split(",")
    assert last[0] == "12"
    present = {s for s in range(13) if last[1 + s] != ABSENT}
    assert present == {11, 10, 8, 4}


def test_csv_rejects_malformed_rows(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("target,source_0,source_1\n1,0.5\n")
    with pytest.raises(DataFormatError):
        load_heatmap_csv(bad)
    for cell in ("abc", "nan", "inf", "2", "-3"):
        bad.write_text(f"target,source_0,source_1\n1,{cell},{ABSENT}\n")
        with pytest.raises(DataFormatError, match=cell):
            load_heatmap_csv(bad)
    notcsv = tmp_path / "other.csv"
    notcsv.write_text("hello\n")
    with pytest.raises(DataFormatError):
        load_heatmap_csv(notcsv)


def test_pgm_bytes(nets):
    report = weight_heatmap(nets["sparse"])
    hm = report.blocks[0]
    blob = heatmap_to_pgm(hm)
    n, n_src = hm.matrix.shape
    header = f"P5\n{n_src} {n}\n255\n".encode("ascii")
    assert blob.startswith(header)
    pixels = np.frombuffer(blob[len(header):], dtype=np.uint8).reshape(n, n_src)
    assert np.all(pixels[~hm.mask] == 255)
    expected = np.round(hm.matrix[hm.mask] * 254.0).astype(np.uint8)
    np.testing.assert_array_equal(pixels[hm.mask], expected)
    assert pixels[hm.mask].max() <= 254


def test_export_is_deterministic(nets, tmp_path):
    report = weight_heatmap(nets["sparse"], epoch=5)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    export_heatmap(report, dir_a)
    export_heatmap(weight_heatmap(nets["sparse"], epoch=5), dir_b)
    for name in ("heatmap_block1.csv", "heatmap_block2.pgm", "heatmap_meta.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
