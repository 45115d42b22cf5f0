import dataclasses
import json
import os

import numpy as np
import pytest

from conftest import config_path
from sparseagg.architecture import (
    BlockSpec,
    InputSpec,
    NetworkSpec,
    StemSpec,
    analyze,
    compare_topologies,
    load_spec,
    plan_network,
    save_spec,
    spec_hash,
)
from sparseagg.errors import PlanError, SpecFormatError
from sparseagg.topology import Dense, Fractal, Plain, Sparse, predecessors

CONFIGS = sorted(os.listdir(os.path.dirname(config_path("x"))))


def cifar_spec(topology, family="concat", n=12, k=12, width=16, stem=16,
               bottleneck=False, compression=1.0, blocks=3):
    if family == "concat":
        bs = tuple(BlockSpec(num_layers=n, growth_rate=k) for _ in range(blocks))
    else:
        bs = tuple(BlockSpec(num_layers=n, width=width) for _ in range(blocks))
    return NetworkSpec(family=family, topology=topology, blocks=bs,
                       stem=StemSpec(out_channels=stem, kernel=3, stride=1),
                       num_classes=10, input=InputSpec(32, 32, 3),
                       bottleneck=bottleneck, compression=compression)


# ---------------------------------------------------------------------------
# width schedules


def test_dense_concat_width_schedule():
    plan = plan_network(load_spec(config_path("dense40_k12_cifar.json")))
    ins = [lp.in_channels for lp in plan.blocks[0].layers]
    assert ins[:3] == [16, 28, 40]
    assert ins == [16 + 12 * (i - 1) for i in range(1, 13)]


def test_sparse_layer6_in_channels():
    plan = plan_network(load_spec(config_path("sparse40_k12_cifar.json")))
    layer6 = plan.blocks[0].layers[5]
    assert layer6.predecessors == (5, 4, 2)
    assert layer6.in_channels == 36


def test_sum_family_constant_width():
    plan = plan_network(load_spec(config_path("sum_plain_d12_cifar.json")))
    widths = (16, 32, 64)
    for block, width in zip(plan.blocks, widths):
        assert all(lp.in_channels == width for lp in block.layers)
        assert all(lp.out_channels == width for lp in block.layers)


@pytest.mark.parametrize("name", CONFIGS)
def test_unit_slices_tile_the_aggregated_input(name):
    spec = load_spec(config_path(name))
    plan = plan_network(spec)
    assert plan.stem.in_channels == spec.input.channels
    feeding = plan.stem
    for block in plan.blocks:
        widths = [feeding.out_channels] + [unit.out_channels for unit in block.layers]
        for li, unit in enumerate((*block.layers, block.exit), start=1):
            assert unit.predecessors == tuple(predecessors(spec.topology, li))
            lo = 0
            for p, start, end in unit.slices:
                assert end - start == widths[p]
                if spec.family == "concat":
                    assert start == lo
                    lo = end
                else:
                    assert (start, end) == (0, unit.in_channels)
            if spec.family == "concat":
                assert lo == unit.in_channels
            assert unit.ops[0].channels == unit.in_channels  # every unit opens with BN-ReLU
        feeding = block.exit


@pytest.mark.parametrize("name", CONFIGS)
def test_each_block_owns_its_exit_unit(name):
    plan = plan_network(load_spec(config_path(name)))
    rows = [block.exit.row for block in plan.blocks]
    assert rows == [f"transition{i}" for i in range(1, len(plan.blocks))] + ["classifier"]
    assert [block.exit.block for block in plan.blocks] == [block.index for block in plan.blocks]
    assert [f.name for f in dataclasses.fields(plan)] == ["spec", "stem", "blocks"]
    assert [f.name for f in dataclasses.fields(plan.blocks[0])] == ["index", "layers", "exit"]


# ---------------------------------------------------------------------------
# cost pins against reference model totals


def test_dense121_exact_params():
    report = analyze(load_spec(config_path("dense121_imagenet.json")))
    assert report.total_params == 7_978_856
    assert abs(report.total_flops - 5.7e9) <= 0.10 * 5.7e9


def test_sparse121_flops():
    report = analyze(load_spec(config_path("sparse121_imagenet.json")))
    assert abs(report.total_flops - 3.46e9) <= 0.15 * 3.46e9


def test_depth40_and_100_param_pins():
    assert analyze(load_spec(config_path("dense40_k12_cifar.json"))).total_params == 1_019_722
    assert analyze(load_spec(config_path("dense100_k12_cifar.json"))).total_params == 6_979_642
    assert analyze(load_spec(config_path("sparse40_k12_cifar.json"))).total_params == 185_778
    big = analyze(load_spec(config_path("sparse_bc_k32-64-128_d100_cifar.json"))).total_params
    assert abs(big - 16.7e6) <= 0.10 * 16.7e6


def test_single_conv_cost_row():
    report = analyze(load_spec(config_path("dense40_k12_cifar.json")))
    stem = report.rows[0]
    assert stem.layer == "stem"
    assert stem.params == 432
    assert stem.flops == 884_736


def test_dense_has_more_params_than_sparse_at_depth100():
    dense = analyze(load_spec(config_path("dense100_k12_cifar.json"))).total_params
    sparse = analyze(cifar_spec(Sparse(2), n=32)).total_params
    assert dense > sparse


def test_depth400_param_divergence():
    # depth 400 without bottleneck: (400 - 4) / 3 = 132 layers per block
    n = 132
    dense = analyze(cifar_spec(Dense(), n=n)).total_params
    sparse = analyze(cifar_spec(Sparse(2), n=n)).total_params
    assert dense / sparse > 10


def test_param_scaling_exponents():
    ns = np.array([16, 32, 64, 128, 256])

    def exponent(build):
        params = [analyze(build(int(n))).total_params for n in ns]
        return np.polyfit(np.log(ns), np.log(params), 1)[0]

    assert 1.8 <= exponent(lambda n: cifar_spec(Dense(), n=n)) <= 2.2
    assert 1.0 <= exponent(lambda n: cifar_spec(Sparse(2), n=n)) <= 1.3
    assert 0.9 <= exponent(lambda n: cifar_spec(Dense(), family="sum", n=n)) <= 1.1


def test_aggregated_feature_scaling_via_in_channels():
    n = 64
    dense_plan = plan_network(cifar_spec(Dense(), n=n))
    sparse_plan = plan_network(cifar_spec(Sparse(2), n=n))
    dense_deg = [len(lp.predecessors) for lp in dense_plan.blocks[0].layers]
    sparse_deg = [len(lp.predecessors) for lp in sparse_plan.blocks[0].layers]
    assert dense_deg == list(range(1, n + 1))
    assert max(sparse_deg) == int(np.log2(n)) + 1


# ---------------------------------------------------------------------------
# report mechanics


def test_analyze_total_is_additive():
    report = analyze(load_spec(config_path("sparse40_k12_cifar.json")))
    assert report.total_params == sum(r.params for r in report.rows)
    assert report.total_flops == sum(r.flops for r in report.rows)


def test_report_csv_shape():
    report = analyze(cifar_spec(Plain(), n=2))
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "layer,block,in_ch,out_ch,params,flops"
    assert lines[-1] == f"total,,,,{report.total_params},{report.total_flops}"
    assert json.loads(report.to_json())["total_params"] == report.total_params


def test_plan_json_deterministic():
    spec = load_spec(config_path("sparse40_k12_cifar.json"))
    assert plan_network(spec) == plan_network(spec)


def test_compare_topologies_replans():
    spec = load_spec(config_path("dense40_k12_cifar.json"))
    reports = compare_topologies(spec, [Plain(), Sparse(2), Dense()])
    assert set(reports) == {"plain", "sparse:2", "dense"}
    assert reports["dense"].total_params == 1_019_722
    assert reports["plain"].total_params < reports["sparse:2"].total_params


def test_sparse_with_large_base_plans_like_plain():
    base = cifar_spec(Plain(), n=6)
    wide = dataclasses.replace(base, topology=Sparse(8))  # base >= n + 2
    assert analyze(base).to_csv() == analyze(wide).to_csv()


# ---------------------------------------------------------------------------
# spec validation and serialization


def test_spec_round_trip(tmp_path):
    spec = load_spec(config_path("sparse_bc_tiny_cifar.json"))
    path = tmp_path / "copy.json"
    save_spec(spec, path)
    again = load_spec(path)
    assert again == spec
    assert spec_hash(again) == spec_hash(spec)


def test_spec_hash_tracks_content():
    a = cifar_spec(Sparse(2), n=4)
    b = cifar_spec(Sparse(2), n=5)
    assert spec_hash(a) != spec_hash(b)
    assert spec_hash(a) == spec_hash(cifar_spec(Sparse(2), n=4))


def test_unknown_field_rejected(tmp_path):
    obj = json.loads(load_spec(config_path("sparse_bc_tiny_cifar.json")).to_json())
    obj["wombat"] = 3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(SpecFormatError, match="wombat"):
        load_spec(path)


def test_missing_field_rejected(tmp_path):
    obj = json.loads(load_spec(config_path("sparse_bc_tiny_cifar.json")).to_json())
    del obj["family"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(SpecFormatError, match="family"):
        load_spec(path)


def test_bottleneck_requires_concat():
    with pytest.raises(SpecFormatError):
        cifar_spec(Dense(), family="sum", bottleneck=True)


def test_compression_requires_bottleneck():
    with pytest.raises(SpecFormatError):
        cifar_spec(Dense(), compression=0.5)


def test_fractal_is_not_plannable():
    with pytest.raises(PlanError):
        plan_network(cifar_spec(Fractal(2), n=4))


def test_sum_width_change_needs_projection():
    spec = dataclasses.replace(load_spec(config_path("sum_plain_d12_cifar.json")),
                               allow_projection=False)
    with pytest.raises(PlanError):
        plan_network(spec)


def test_transition_pool_must_divide_its_input():
    spec = load_spec(config_path("sparse40_k12_cifar.json"))
    for size in (34, 2):  # block 2 would be 17x17; a 2x2 input would reach 0x0
        odd = dataclasses.replace(spec, input=InputSpec(size, size, 3))
        with pytest.raises(PlanError, match="transition"):
            analyze(odd)


# A spec's hash keys the checkpoints written for it, so these must not move.
SPEC_HASHES = {
    "dense100_k12_cifar.json": "eb302134a32d5324068cb87bb2d912ca41318ce1d1c5ffd0330347c3b09063a9",
    "dense121_imagenet.json": "09cca28fea9972a91034ac3aaa962ecb11dfbe677d7837f3a1a310ad6aa0de35",
    "dense40_k12_cifar.json": "32ba013e7f46a52156fffdb41703aa7ab51e36fe2d114bd94d492d05a56e5fc1",
    "sparse121_imagenet.json": "cfe3997df13c09c89c4154890c6a0bed0ab68b530d60ba553a9c8a7438e6f9d0",
    "sparse40_k12_cifar.json": "8233cdd37d0484708a5d05027db486b68f7e0c13ddade9f5c6991043c41ee937",
    "sparse_bc_k32-64-128_d100_cifar.json":
        "e2e01cafa8574983025075b5896b3b0f878b5ab0bc10afa630d02ab943766613",
    "sparse_bc_tiny_cifar.json": "9fccefd6a2345b68dc39baa7ed3b9eb4b882fc9384c6bd97a03aee631f3d251c",
    "sum_plain_d12_cifar.json": "46091f20cf8ff132786228e0470211c332e2cdd744231373aebc8aeeaf7820e3",
}


def test_every_config_hash_is_pinned():
    assert sorted(SPEC_HASHES) == CONFIGS
    for name, digest in SPEC_HASHES.items():
        assert spec_hash(load_spec(config_path(name))) == digest, name


@pytest.mark.parametrize("unit_order,ok", [(None, True), ("preact", True), ("postact", False)])
def test_only_preact_units_load(tmp_path, unit_order, ok):
    obj = json.loads(load_spec(config_path("sparse_bc_tiny_cifar.json")).to_json())
    assert obj["unit_order"] == "preact"
    if unit_order is None:
        del obj["unit_order"]
    else:
        obj["unit_order"] = unit_order
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    if ok:
        assert spec_hash(load_spec(path)) == SPEC_HASHES["sparse_bc_tiny_cifar.json"]
    else:
        with pytest.raises(SpecFormatError, match="unit_order"):
            load_spec(path)


@pytest.mark.parametrize("key", ["bottleneck", "allow_projection"])
def test_boolean_fields_reject_other_types(tmp_path, key):
    obj = json.loads(load_spec(config_path("sum_plain_d12_cifar.json")).to_json())
    obj[key] = "no"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(SpecFormatError, match=key):
        load_spec(path)
