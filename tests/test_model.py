import dataclasses
import hashlib
import os
import tracemalloc

import numpy as np
import pytest

from conftest import config_path
from sparseagg import tensor as tensor_module
from sparseagg.architecture import Conv, analyze, load_spec
from sparseagg.errors import CheckpointError
from sparseagg.model import ForwardStats, compile_network, load_checkpoint, save_checkpoint
from sparseagg.tensor import conv2d, no_grad, save_array, softmax_cross_entropy
from sparseagg.topology import Sparse
from sparseagg.train import SGD

CONFIGS_WITH_TOTALS = [
    ("sparse_bc_tiny_cifar.json", 37_978),
    ("dense40_k12_cifar.json", 1_019_722),
    ("sparse40_k12_cifar.json", 185_778),
    ("sum_plain_d12_cifar.json", 198_298),
    ("dense100_k12_cifar.json", 6_979_642),
    ("dense121_imagenet.json", 7_978_856),
    ("sparse121_imagenet.json", 3_250_824),
    ("sparse_bc_k32-64-128_d100_cifar.json", 17_282_090),
]


def batch(rng, n=4):
    return rng.standard_normal((n, 3, 32, 32)).astype(np.float32)


@pytest.mark.parametrize("name,total", CONFIGS_WITH_TOTALS)
def test_compiled_params_match_static_analysis(name, total):
    spec = load_spec(config_path(name))
    net = compile_network(spec, seed=0)
    assert net.num_params() == total
    assert net.num_params() == analyze(spec).total_params


def test_every_config_has_a_pinned_total():
    names = sorted(os.listdir(os.path.dirname(config_path("x"))))
    assert sorted(name for name, _ in CONFIGS_WITH_TOTALS) == names


# SHA-256 over (name, float32 bytes) of the seed-0 parameters, sorted by name.
# PCG64 normal draws and a float32 cast are the same on every platform, so
# these pin the order in which compile_network draws its weights.
INIT_DIGESTS = {
    "sparse_bc_tiny_cifar.json": "fc897693b24d59f6baac9cc38158916a2bb8474a4e32f30e9c40c324ab5e45d1",
    "sum_plain_d12_cifar.json": "5164d9356119668e9ae8bd061a23ab2cf69014b929d3ad2e09cbae1ef8c71a14",
    "sparse40_k12_cifar.json": "092baf9afde1769f2e915c0f2013c7c33e0366e8ad901f0cab1ccb7083f745c5",
    "sparse121_imagenet.json": "9cfa5a247197c493e82c689c90fe0fd86672275ae444cd5855a0fdbae37b812b",
}


@pytest.mark.parametrize("name", sorted(INIT_DIGESTS))
def test_seeded_initial_parameters_are_pinned(name):
    net = compile_network(load_spec(config_path(name)), seed=0)
    digest = hashlib.sha256()
    for pname in sorted(net.params):
        digest.update(pname.encode())
        digest.update(net.params[pname].data.tobytes())
    assert digest.hexdigest() == INIT_DIGESTS[name]


def test_logits_shape():
    net = compile_network(load_spec(config_path("sparse_bc_tiny_cifar.json")), seed=0)
    rng = np.random.default_rng(0)
    out = net.forward(batch(rng, 8))
    assert out.shape == (8, 10)
    assert out.dtype == np.float32


def test_forward_rejects_wrong_input_shape():
    net = compile_network(load_spec(config_path("sparse_bc_tiny_cifar.json")), seed=0)
    with pytest.raises(Exception):
        net.forward(np.zeros((2, 3, 16, 16), dtype=np.float32))


def test_same_seed_same_network():
    spec = load_spec(config_path("sparse_bc_tiny_cifar.json"))
    a = compile_network(spec, seed=7)
    b = compile_network(spec, seed=7)
    assert set(a.params) == set(b.params)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    c = compile_network(spec, seed=8)
    assert any(not np.array_equal(a.params[n].data, c.params[n].data) for n in a.params)


def test_large_sparse_base_degenerates_to_chain():
    # base >= layers + 2 leaves no long offsets anywhere, including the
    # aggregation feeding each transition, so logits match the plain chain
    spec = load_spec(config_path("sum_plain_d12_cifar.json"))
    n = spec.blocks[0].num_layers
    wide = dataclasses.replace(spec, topology=Sparse(n + 2))
    plain = compile_network(spec, seed=3)
    chainlike = compile_network(wide, seed=3)
    rng = np.random.default_rng(1)
    x = batch(rng)
    np.testing.assert_array_equal(plain.predict(x), chainlike.predict(x))


def test_eval_mode_is_pure():
    net = compile_network(load_spec(config_path("sparse_bc_tiny_cifar.json")), seed=0)
    rng = np.random.default_rng(2)
    x = batch(rng)
    before = {k: s.running_mean.copy() for k, s in net.bn_states.items()}
    first = net.predict(x)
    second = net.predict(x)
    np.testing.assert_array_equal(first, second)
    for k, s in net.bn_states.items():
        np.testing.assert_array_equal(s.running_mean, before[k])
        assert s.steps == 0


def test_training_forward_updates_bn_state():
    net = compile_network(load_spec(config_path("sparse_bc_tiny_cifar.json")), seed=0)
    rng = np.random.default_rng(3)
    net.forward(batch(rng), training=True)
    assert all(s.steps == 1 for s in net.bn_states.values())


def test_gradient_reaches_earliest_parameters():
    rng = np.random.default_rng(4)
    for name in ("sparse_bc_tiny_cifar.json", "dense40_k12_cifar.json"):
        net = compile_network(load_spec(config_path(name)), seed=0)
        x = batch(rng)
        labels = rng.integers(0, 10, size=x.shape[0])
        loss = softmax_cross_entropy(net.forward(x, training=True), labels)
        net.zero_grad()
        loss.backward()
        stem = net.params["stem.conv"]
        assert stem.grad is not None and np.any(stem.grad != 0.0)
        first_conv = net.params["block1.layer1.conv1"]
        assert first_conv.grad is not None and np.any(first_conv.grad != 0.0)


def test_every_parameter_receives_gradient():
    rng = np.random.default_rng(5)
    net = compile_network(load_spec(config_path("sparse_bc_tiny_cifar.json")), seed=0)
    x = batch(rng)
    labels = rng.integers(0, 10, size=x.shape[0])
    loss = softmax_cross_entropy(net.forward(x, training=True), labels)
    net.zero_grad()
    loss.backward()
    missing = [n for n, p in net.params.items() if p.grad is None or not np.any(p.grad)]
    assert missing == []


def test_sparse_caches_fewer_activations_than_dense():
    rng = np.random.default_rng(6)
    x = batch(rng, 2)
    dense = compile_network(load_spec(config_path("dense40_k12_cifar.json")), seed=0)
    sparse = compile_network(load_spec(config_path("sparse40_k12_cifar.json")), seed=0)
    dense_stats, sparse_stats = ForwardStats(), ForwardStats()
    dense.forward(x, stats=dense_stats)
    sparse.forward(x, stats=sparse_stats)
    n = dense.plan.blocks[0].num_layers
    assert dense_stats.peak_cached == n + 1
    assert sparse_stats.peak_cached < dense_stats.peak_cached


def test_each_bn_relu_runs_as_one_node(monkeypatch):
    def unfused(x):
        raise AssertionError("a planned BnRelu ran relu as a node of its own")

    monkeypatch.setattr(tensor_module, "relu", unfused)
    net = compile_network(load_spec(config_path("sparse_bc_tiny_cifar.json")), seed=0)
    rng = np.random.default_rng(8)
    x = batch(rng, 2)
    softmax_cross_entropy(net.forward(x, training=True), np.array([1, 2])).backward()
    with no_grad():
        net.forward(x, training=False)


def test_training_step_peak_stays_under_bound():
    # sparse_bc_tiny at batch 16: 66.97 MB when BnRelu ran as two nodes and
    # every first gradient was copied, 46.65 MB with one node and handover.
    net = compile_network(load_spec(config_path("sparse_bc_tiny_cifar.json")), seed=0)
    sgd = SGD(net.params, lr=0.1)
    rng = np.random.default_rng(1)
    x = batch(rng, 16)
    labels = rng.integers(0, 10, size=16)
    tracemalloc.start()
    try:
        loss = softmax_cross_entropy(net.forward(x, training=True), labels)
        loss.backward()
        sgd.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50_000_000, peak


def graph_tensors(root):
    seen, stack = {}, [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return list(seen.values())


@pytest.mark.parametrize("family", ["concat", "sum"])
def test_every_gradient_owns_its_memory_and_shares_it_with_none(family):
    # the sum-family spec is rewired to sparse:2 so that its sum aggregates
    # have several parents
    if family == "concat":
        spec = load_spec(config_path("sparse_bc_tiny_cifar.json"))
    else:
        spec = dataclasses.replace(load_spec(config_path("sum_plain_d12_cifar.json")),
                                   topology=Sparse(2))
    net = compile_network(spec, seed=0)
    rng = np.random.default_rng(11)
    x = batch(rng, 16)
    labels = rng.integers(0, 10, size=16)
    grads = {}
    for free_graph in (True, False):
        net.zero_grad()
        loss = softmax_cross_entropy(net.forward(x, training=True), labels)
        # without free_graph every node keeps its .grad, so views handed to
        # several parents would show up as shared memory here
        tensors = net.params.values() if free_graph else graph_tensors(loss)
        loss.backward(free_graph=free_graph)
        held = [t.grad for t in tensors if t.grad is not None]
        assert all(g.flags.owndata and g.flags.c_contiguous for g in held)
        assert len({g.ctypes.data for g in held}) == len(held)
        grads[free_graph] = {n: p.grad for n, p in net.params.items()}
    assert all(g is not None for g in grads[True].values())
    for name, g in grads[True].items():
        np.testing.assert_array_equal(grads[False][name], g)


def test_plain_topology_keeps_constant_live_set():
    spec = load_spec(config_path("sum_plain_d12_cifar.json"))
    net = compile_network(spec, seed=0)
    rng = np.random.default_rng(7)
    stats = ForwardStats()
    net.forward(batch(rng, 2), stats=stats)
    assert stats.peak_cached == 1


def test_checkpoint_round_trip_preserves_logits(tmp_path):
    spec = load_spec(config_path("sparse_bc_tiny_cifar.json"))
    net = compile_network(spec, seed=11)
    rng = np.random.default_rng(8)
    x = batch(rng)
    # move running stats off their init values so restore has to carry them
    net.forward(x, training=True)
    before = net.predict(x)
    save_checkpoint(net, tmp_path / "ckpt", epoch=3, extra={"note": "round trip"})
    restored, manifest = load_checkpoint(tmp_path / "ckpt", expect_spec=spec)
    assert manifest["epoch"] == 3
    assert manifest["extra"]["note"] == "round trip"
    for name in net.params:
        np.testing.assert_array_equal(restored.params[name].data, net.params[name].data)
    np.testing.assert_array_equal(restored.predict(x), before)


def test_checkpoint_rejects_different_spec(tmp_path):
    spec = load_spec(config_path("sparse_bc_tiny_cifar.json"))
    other = load_spec(config_path("sum_plain_d12_cifar.json"))
    save_checkpoint(compile_network(spec, seed=0), tmp_path / "ckpt")
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "ckpt", expect_spec=other)


def test_checkpoint_detects_tampered_manifest(tmp_path):
    import json
    spec = load_spec(config_path("sparse_bc_tiny_cifar.json"))
    save_checkpoint(compile_network(spec, seed=0), tmp_path / "ckpt")
    mpath = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["spec"]["stem"]["out_channels"] = 32
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "ckpt")


def test_missing_checkpoint_file_is_reported(tmp_path):
    spec = load_spec(config_path("sparse_bc_tiny_cifar.json"))
    save_checkpoint(compile_network(spec, seed=0), tmp_path / "ckpt")
    (tmp_path / "ckpt" / "stem.conv.bin").unlink()
    with pytest.raises((CheckpointError, FileNotFoundError)):
        load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("stat", ["running_mean", "running_var"])
def test_batch_norm_stat_of_wrong_shape_is_rejected(tmp_path, stat):
    spec = load_spec(config_path("sparse_bc_tiny_cifar.json"))
    net = compile_network(spec, seed=0)
    save_checkpoint(net, tmp_path / "ckpt")
    name, st = next(iter(net.bn_states.items()))
    wrong = np.zeros(getattr(st, stat).shape[0] + 1, dtype=np.float32)
    save_array(wrong, tmp_path / "ckpt" / f"{name}.{stat}")
    with pytest.raises(CheckpointError, match=stat):
        load_checkpoint(tmp_path / "ckpt")


def test_plain_and_sparse_share_parameter_naming():
    plain = compile_network(load_spec(config_path("sum_plain_d12_cifar.json")), seed=0)
    assert "stem.conv" in plain.params
    assert "block1.layer1.conv1" in plain.params
    assert "classifier.fc.weight" in plain.params
    assert "classifier.fc.bias" in plain.params
    assert all(".conv2" not in name for name in plain.params)  # no bottleneck units


def test_sparse_predecessor_wiring_matches_plan():
    net = compile_network(load_spec(config_path("sparse40_k12_cifar.json")), seed=0)
    layer6 = net.plan.blocks[0].layers[5]
    assert layer6.predecessors == (5, 4, 2)
    w = net.params["block1.layer6.conv1"]
    assert w.data.shape[1] == layer6.in_channels == 36



def test_imagenet_config_runs_forward_at_its_own_input_size(monkeypatch):
    # The 7x7/2 pad-3 stem maps 224 to (224 + 6 - 7) // 2 + 1 = 112 in the planner, and
    # conv2d must floor the same way (it once required an integral quotient).
    spec = load_spec(config_path("sparse121_imagenet.json"))
    assert (spec.input.height, spec.input.width) == (224, 224)
    net = compile_network(spec, seed=0)
    planned = [op for unit in net.plan.units for op in unit.ops if isinstance(op, Conv)]
    assert (planned[0].kernel, planned[0].out_h) == (7, 112)
    shapes = []

    def conv_spy(x, w, stride, padding):
        out = conv2d(x, w, stride, padding)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(tensor_module, "conv2d", conv_spy)
    x = np.random.default_rng(6).standard_normal((1, 3, 224, 224)).astype(np.float32)
    with no_grad():
        logits = net.forward(x)
    assert shapes == [(1, op.out_channels, op.out_h, op.out_w) for op in planned]
    assert logits.shape == (1, net.plan.blocks[-1].exit.out_channels) == (1, spec.num_classes)
    assert np.isfinite(logits.data).all()
