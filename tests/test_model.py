import dataclasses
import gc
import hashlib
import multiprocessing
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import config_path
from sparseagg import tensor as tensor_module
from sparseagg.architecture import (
    BlockSpec,
    Conv,
    InputSpec,
    NetworkSpec,
    Pool,
    StemSpec,
    analyze,
    load_spec,
    plan_network,
)
from sparseagg.errors import CheckpointError
from sparseagg.gradcheck import check_gradients
from sparseagg.model import ForwardStats, compile_network, load_checkpoint, save_checkpoint
from sparseagg.tensor import Tensor, conv2d, no_grad, save_array, softmax_cross_entropy
from sparseagg.topology import Dense, Sparse
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


def training_step_peak(spec, n=16) -> int:
    """tracemalloc peak of one seeded training step (forward, backward, SGD) at batch ``n``."""
    net = compile_network(spec, seed=0)
    sgd = SGD(net.params, lr=0.1)
    rng = np.random.default_rng(1)
    x = batch(rng, n)
    labels = rng.integers(0, 10, size=n)
    tracemalloc.start()
    try:
        loss = softmax_cross_entropy(net.forward(x, training=True), labels)
        loss.backward()
        sgd.step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_step_peak_stays_under_bound():
    # sparse_bc_tiny at batch 16: 66.97 MB when BnRelu ran as two nodes and
    # every first gradient was copied, 46.65 MB with one node and handover,
    # 25.37 MB with each conv's BnRelu input rebuilt in backward, 19.80 MB
    # with batch norm writing each conv's operand and the conv freeing its
    # output gradient early.  Dropping the transitions' pool inputs leaves it
    # at 19.80 MB: the peak falls inside a bottleneck layer's backward.
    peak = training_step_peak(load_spec(config_path("sparse_bc_tiny_cifar.json")))
    assert peak < 21_500_000, peak


def test_sparse40_training_step_peak_stays_under_bound():
    # sparse40_k12 at batch 16: 24.94 MB with every op on the calling thread,
    # 24.96 MB with each conv and batch norm split between it and a worker.
    peak = training_step_peak(load_spec(config_path("sparse40_k12_cifar.json")))
    assert peak < 25_190_000, peak


def dense_wired_tiny():
    return dataclasses.replace(load_spec(config_path("sparse_bc_tiny_cifar.json")),
                               topology=Dense())


def test_dense_wired_training_step_writes_each_conv_input_into_its_operand():
    # sparse_bc_tiny rewired dense, batch 16: 58.35 MB while every concat
    # unit built its concatenation and kept it for backward, 44.21 MB with
    # its BnRelu reading the predecessors in place.  29.44 MB with each
    # conv's BnRelu input released after the conv and rebuilt when the
    # conv's backward reads it.  29.47 MB while each conv gathered its
    # BnRelu input into a padded operand of its own, kept every part's xhat
    # from the rebuild and built its whole operand gradient; 24.66 MB with
    # batch norm writing the operand, no xhat kept, and the gradient folded
    # a few images at a time.  22.58 MB with the conv's backward freeing its
    # output gradient once the padded copy holds it.
    peak = training_step_peak(dense_wired_tiny())
    assert peak < 23_500_000, peak


def test_sum_plain_training_step_peak_stays_under_bound():
    # sum_plain_d12 at batch 16: 34.54 MB while every unit copied its lone
    # predecessor into a sum node, 25.62 MB reading it directly, 17.23 MB
    # with each conv's BnRelu input rebuilt in backward, 16.61 MB with batch
    # norm writing each conv's operand, 13.46 MB with each transition conv's
    # output freed once its pool has run.
    peak = training_step_peak(load_spec(config_path("sum_plain_d12_cifar.json")))
    assert peak < 15_000_000, peak


def test_dense40_training_step_keeps_no_pool_input():
    # dense40_k12 at batch 16: 62.27 MB while each transition kept its conv's
    # full-resolution output for the pool's backward, which reads only its
    # shape; 51.78 MB with that output freed once the pool has run.
    peak = training_step_peak(load_spec(config_path("dense40_k12_cifar.json")))
    assert peak < 56_000_000, peak


def test_dropped_training_forward_leaves_no_reference_cycle():
    # With gc off, a cycle through a node's closure keeps the whole graph:
    # 16.2 MB when batch norm's closure read its output through the output
    # Tensor.  The first forward runs traced, so that the running statistics
    # the second one replaces were allocated under tracemalloc too.
    net = compile_network(load_spec(config_path("sparse_bc_tiny_cifar.json")), seed=0)
    x = batch(np.random.default_rng(1), 16)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        net.forward(x, training=True)
        baseline = tracemalloc.get_traced_memory()[0]
        net.forward(x, training=True)
        left = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
        gc.enable()
    assert left < 64 * 1024, left


@pytest.mark.parametrize("name", ["sparse_bc_tiny_cifar.json", "sum_plain_d12_cifar.json"])
def test_only_sum_units_call_aggregate(monkeypatch, name):
    spec = load_spec(config_path(name))
    if spec.family == "sum":
        # rewired so that some sum units have one predecessor and some several
        spec = dataclasses.replace(spec, topology=Sparse(2))
    calls = []
    aggregate = tensor_module.aggregate

    def probe(op, tensors):
        if spec.family == "concat":
            raise AssertionError("a concat unit built its concatenation")
        calls.append((op, len(tensors)))
        return aggregate(op, tensors)

    monkeypatch.setattr(tensor_module, "aggregate", probe)
    net = compile_network(spec, seed=0)
    rng = np.random.default_rng(4)
    x = batch(rng, 2)
    softmax_cross_entropy(net.forward(x, training=True), np.array([3, 5])).backward()
    net.predict(x)
    assert all(p.grad is not None for p in net.params.values())
    if spec.family != "concat":
        # a lone predecessor is read directly; every other unit sums, in
        # the training forward and again in predict
        arities = [len(unit.predecessors) for unit in net.plan.units][1:]  # the stem reads x
        assert 1 in arities
        assert calls == [("sum", k) for k in arities if k > 1] * 2


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


@pytest.mark.parametrize("name", ["sparse_bc_tiny", "strided_stem"])
def test_training_forward_keeps_only_the_shape_of_each_pool_input(name):
    # Every pool's input is freed once the pool has run: a transition conv's
    # output, the classifier's BnRelu output and the strided stem's BnRelu
    # output before its max pool.  Their Tensors keep shape and dtype.
    if name == "sparse_bc_tiny":
        spec, n = load_spec(config_path("sparse_bc_tiny_cifar.json")), 4
    else:
        spec, n = tiny_fd_spec("concat", stem_stride=2), 2
    net = compile_network(spec, seed=0)
    x = np.random.default_rng(1).standard_normal(
        (n, spec.input.channels, spec.input.height, spec.input.width)).astype(np.float32)
    out = net.forward(x, training=True)
    pools = [t for t in graph_tensors(out)
             if t._backward is not None and t._backward.__qualname__.startswith(
                 ("avg_pool2d.", "max_pool2d.", "global_avg_pool."))]
    stem_pools = len(net.plan.stem.ops) > 1
    assert len(pools) == len(net.plan.blocks) + stem_pools
    for pool in pools:
        (source,) = pool._parents
        assert source.data is None
        assert len(source.shape) == 4 and source.dtype == np.float32
        if not pool._backward.__qualname__.startswith("max_pool2d."):  # it keeps argmax indices
            assert not any(isinstance(cell.cell_contents, np.ndarray)
                           for cell in pool._backward.__closure__)


def tiny_fd_spec(family, stem_stride=1):
    """Two blocks at 8x8, small enough for a finite-difference check of every parameter.

    The concat transition is BnRelu -> Conv -> Pool("avg"), and its layers
    are bottleneck ones, whose second BnRelu reads a conv's output in
    backward; the sum transition, at equal widths, is BnRelu -> Pool("avg")
    with no conv (criterion 5's spec).  With ``stem_stride=2`` the stem is
    the ImageNet one, a 7x7/2 conv, BnRelu and a 3x3/2 max pool, on a 16x16
    input, and the blocks are 4x4.
    """
    if family == "concat":
        block, extra = BlockSpec(num_layers=2, growth_rate=2), {"bottleneck": True,
                                                                "compression": 0.5}
    else:
        block, extra = BlockSpec(num_layers=2, width=4), {}
    side = 8 * stem_stride
    stem = StemSpec(out_channels=4, kernel=7 if stem_stride > 1 else 3, stride=stem_stride)
    return NetworkSpec(family=family, topology=Sparse(2), blocks=(block, block), stem=stem,
                       num_classes=10, input=InputSpec(side, side, 3), **extra)


@pytest.mark.parametrize("family,stem_stride,stem,transition", [
    ("concat", 1, ("Conv",), ("BnRelu", "Conv", "Pool")),
    ("sum", 1, ("Conv",), ("BnRelu", "Pool")),
    ("concat", 2, ("Conv", "BnRelu", "Pool"), ("BnRelu", "Conv", "Pool"))],
    ids=["concat", "sum", "strided_stem"])
def test_training_forward_gradients_match_finite_differences(family, stem_stride, stem,
                                                             transition):
    spec = tiny_fd_spec(family, stem_stride)
    plan = plan_network(spec)
    assert tuple(type(op).__name__ for op in plan.stem.ops) == stem
    assert tuple(type(op).__name__ for op in plan.blocks[0].exit.ops) == transition
    net = compile_network(spec, seed=0, dtype=np.float64)
    rng = np.random.default_rng(1000)
    x = rng.standard_normal((2, 3, spec.input.height, spec.input.width))
    labels = rng.integers(0, 10, size=2)

    def loss(*_):
        return softmax_cross_entropy(net.forward(Tensor(x), training=True), labels)

    report = check_gradients(loss, list(net.params.values()), tolerance=1e-4)
    assert report.passed, report.per_input


@pytest.mark.parametrize("name", ["sparse_bc_tiny", "sum_sparse2", "strided_stem"])
def test_freeing_activations_changes_no_bit_of_a_training_step(monkeypatch, name):
    # One seeded training step as it runs, with every conv and pool input
    # after a unit's first op freed, and again with nothing freed: the loss,
    # every parameter gradient and the running statistics keep their bits.
    # sum_sparse2 has conv-less transitions and sums of several inputs.
    spec = {"sparse_bc_tiny": lambda: load_spec(config_path("sparse_bc_tiny_cifar.json")),
            "sum_sparse2": lambda: tiny_fd_spec("sum"),
            "strided_stem": lambda: tiny_fd_spec("concat", stem_stride=2)}[name]()
    release = tensor_module._release
    results, freed = [], []
    for keep_all in (False, True):
        spy = (lambda t: None) if keep_all else (lambda t: freed.append(t) or release(t))
        monkeypatch.setattr(tensor_module, "_release", spy)
        net = compile_network(spec, seed=0)
        rng = np.random.default_rng(21)
        x = rng.standard_normal((4, 3, spec.input.height, spec.input.width)).astype(np.float32)
        loss = softmax_cross_entropy(net.forward(x, training=True), rng.integers(0, 10, size=4))
        loss.backward()
        stats = [a for st in net.bn_states.values() for a in (st.running_mean, st.running_var)]
        results.append([loss.data, *(p.grad for p in net.params.values()), *stats])
    assert len(freed) == sum(isinstance(op, (Conv, Pool))
                             for unit in net.plan.units for op in unit.ops[1:])
    for got, ref in zip(*results):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def seeded_step(spec, n=4):
    """Loss, every parameter gradient and the running statistics of one seeded training step."""
    net = compile_network(spec, seed=0)
    rng = np.random.default_rng(22)
    x = rng.standard_normal((n, 3, spec.input.height, spec.input.width)).astype(np.float32)
    loss = softmax_cross_entropy(net.forward(x, training=True), rng.integers(0, 10, size=n))
    loss.backward()
    stats = [a for st in net.bn_states.values() for a in (st.running_mean, st.running_var)]
    return [loss.data, *(p.grad for p in net.params.values()), *stats]


def equal_width_sum_sparse2():
    """sum_plain_d12 rewired sparse:2, every block 16 wide: conv-less transitions."""
    spec = load_spec(config_path("sum_plain_d12_cifar.json"))
    return dataclasses.replace(spec, topology=Sparse(2),
                               blocks=tuple(dataclasses.replace(b, width=16) for b in spec.blocks))


@pytest.mark.parametrize("name", ["sparse_bc_tiny", "sum_sparse2", "dense40_k12"])
def test_splitting_ops_between_threads_changes_no_bit_of_a_training_step(monkeypatch, name):
    # Once with every op on the calling thread, once with every conv and batch
    # norm split between it and a worker, however small.
    spec = {"sparse_bc_tiny": lambda: load_spec(config_path("sparse_bc_tiny_cifar.json")),
            "sum_sparse2": equal_width_sum_sparse2,
            "dense40_k12": lambda: load_spec(config_path("dense40_k12_cifar.json"))}[name]()
    cuttable, cut = tensor_module._cuttable, []
    monkeypatch.setattr(tensor_module, "_cuttable", lambda *a: cut.append(cuttable(*a)) or cut[-1])
    monkeypatch.setattr(tensor_module, "_SPLIT_BYTES", 0)
    results = []
    for workers in (0, 1):
        monkeypatch.setattr(tensor_module, "_WORKERS", workers)
        results.append(seeded_step(spec))
    if name == "dense40_k12":
        assert any(cut)  # some forward GEMMs were cut between the threads
    for got, ref in zip(*results):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_more_shares_than_cpus_change_no_bit_of_a_training_step(monkeypatch):
    # Four shares on any host, switching threads as often as the interpreter
    # can: a lost update or a share reading another's unfinished work shows.
    spec = load_spec(config_path("sparse_bc_tiny_cifar.json"))
    monkeypatch.setattr(tensor_module, "_SPLIT_BYTES", 0)
    results = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (0, 3):
            monkeypatch.setattr(tensor_module, "_WORKERS", workers)
            runner = threading.Thread(target=lambda: results.append(seeded_step(spec)), daemon=True)
            runner.start()
            runner.join(timeout=300)
            assert not runner.is_alive(), f"a training step in {workers + 1} shares did not finish"
    finally:
        sys.setswitchinterval(interval)
    for got, ref in zip(*results):
        assert got.tobytes() == ref.tobytes()


def send_seeded_loss(conn, spec):
    conn.send(seeded_step(spec)[0].tobytes())
    conn.close()


def test_a_forked_child_trains_with_the_bits_of_its_parent(monkeypatch):
    # The parent has split ops, so its worker pool exists; the forked child
    # has none of its threads and must make its own.
    monkeypatch.setattr(tensor_module, "_WORKERS", 1)
    monkeypatch.setattr(tensor_module, "_SPLIT_BYTES", 0)
    spec = load_spec(config_path("sparse_bc_tiny_cifar.json"))
    loss = seeded_step(spec)[0]
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=send_seeded_loss, args=(send, spec))
    child.start()
    try:
        assert receive.poll(120), "the forked child sent no loss"
        assert receive.recv() == loss.tobytes()
        child.join(30)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()


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


def test_checkpoint_records_fixed_batch_norm_constants_and_loads_without_them(tmp_path):
    import json
    spec = load_spec(config_path("sparse_bc_tiny_cifar.json"))
    net = compile_network(spec, seed=11)
    rng = np.random.default_rng(8)
    x = batch(rng)
    net.forward(x, training=True)
    save_checkpoint(net, tmp_path / "ckpt")
    mpath = tmp_path / "ckpt" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    assert sorted(manifest["bn_states"]) == sorted(net.bn_states)
    for meta in manifest["bn_states"].values():
        assert meta == {"steps": 1, "eps": 1e-05, "momentum": 0.9}
        del meta["eps"], meta["momentum"]
    mpath.write_text(json.dumps(manifest))
    restored, _ = load_checkpoint(tmp_path / "ckpt")
    with no_grad():
        np.testing.assert_array_equal(restored.forward(x).data, net.forward(x).data)


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
