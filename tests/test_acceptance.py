"""Acceptance gate: nine numbered criteria, one printed verdict line each.

Every test prints ``[acceptance] criterion N: PASS/FAIL <detail>`` on the
real stdout (capture suspended) before asserting, so the verdicts are
visible in any pytest run.  Criterion 1 carries a reference total that
this analyzer does not reproduce; see README for the accounting.
"""

import math
import time

import numpy as np
import pytest

from conftest import config_path
from sparseagg.architecture import (
    BlockSpec,
    InputSpec,
    NetworkSpec,
    StemSpec,
    analyze,
    load_spec,
    plan_network,
)
from sparseagg.gradcheck import check_gradients
from sparseagg.introspect import weight_heatmap
from sparseagg.model import compile_network, load_checkpoint, save_checkpoint
from sparseagg.tensor import (
    BatchNormState,
    Tensor,
    aggregate,
    avg_pool2d,
    batch_norm,
    conv2d,
    global_avg_pool,
    linear,
    max_pool2d,
    relu,
    softmax_cross_entropy,
    weighted_sum,
)
from sparseagg.topology import (
    Dense,
    Fractal,
    Plain,
    Sparse,
    build_graph,
    gradient_path_lengths,
    predecessors,
    shortest_gradient_path,
)
from sparseagg.train import TrainConfig, load_cifar10, normalize_images, train_model


@pytest.fixture
def verdict(capfd):
    """Per-criterion verdict printer that writes through fd capture."""

    def report(criterion: int, ok: bool, detail: str = "") -> bool:
        line = f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        return ok

    return report


# ---------------------------------------------------------------------------


def test_criterion_1_parameter_totals(verdict):
    checks = [
        ("dense121_imagenet.json", 7.98e6, 0.02),
        ("dense40_k12_cifar.json", 1.1e6, 0.10),
        ("dense100_k12_cifar.json", 7.2e6, 0.10),
        ("sparse40_k12_cifar.json", 0.8e6, 0.10),
        ("sparse_bc_k32-64-128_d100_cifar.json", 16.7e6, 0.10),
    ]
    failures = []
    for name, expected, tol in checks:
        t0 = time.perf_counter()
        total = analyze(load_spec(config_path(name))).total_params
        elapsed = time.perf_counter() - t0
        if abs(total - expected) > tol * expected:
            failures.append(f"{name}: {total:,} outside {expected:,.0f} +/- {tol:.0%}")
        if elapsed > 1.0:
            failures.append(f"{name}: analysis took {elapsed:.2f}s, budget 1s")
    ok = verdict(1, not failures, "; ".join(failures) or "5 reference totals matched")
    assert ok, failures


def test_criterion_2_flop_totals(verdict):
    t0 = time.perf_counter()
    dense = analyze(load_spec(config_path("dense121_imagenet.json"))).total_flops
    sparse = analyze(load_spec(config_path("sparse121_imagenet.json"))).total_flops
    elapsed = time.perf_counter() - t0
    failures = []
    if abs(dense - 5.7e9) > 0.10 * 5.7e9:
        failures.append(f"221-layer dense: {dense:,} outside 5.7e9 +/- 10%")
    if abs(sparse - 3.46e9) > 0.15 * 3.46e9:
        failures.append(f"121-layer sparse: {sparse:,} outside 3.46e9 +/- 15%")
    if elapsed > 2.0:
        failures.append(f"analysis took {elapsed:.2f}s, budget ~1s each")
    ok = verdict(2, not failures,
                 "; ".join(failures) or f"dense {dense:,}, sparse {sparse:,}")
    assert ok, failures


def test_criterion_3_edge_counts_and_in_degrees(verdict):
    t0 = time.perf_counter()
    failures = []
    for L in (64, 128, 256, 512, 1024, 4096):
        dense_edges = build_graph(Dense(), L).num_edges
        if dense_edges != L * (L - 1) // 2:
            failures.append(f"dense L={L}: {dense_edges} edges")
        sparse = build_graph(Sparse(2), L)
        if sparse.num_edges > L * (math.log2(L) + 1):
            failures.append(f"sparse L={L}: {sparse.num_edges} edges over bound")
        fractal_edges = build_graph(Fractal(int(math.log2(L))), L).num_edges
        if fractal_edges > 4 * L:
            failures.append(f"fractal L={L}: {fractal_edges} edges over 4L")
        for layer in range(1, L):
            expected = int(math.floor(math.log2(layer))) + 1
            if len(sparse.predecessors_of(layer)) != expected:
                failures.append(f"sparse L={L} layer {layer}: in-degree")
                break
            if len(predecessors(Dense(), layer)) != layer:
                failures.append(f"dense layer {layer}: in-degree")
                break
    elapsed = time.perf_counter() - t0
    if elapsed > 30.0:
        failures.append(f"took {elapsed:.1f}s, budget seconds")
    ok = verdict(3, not failures,
                 "; ".join(failures) or f"L up to 4096 in {elapsed:.1f}s")
    assert ok, failures


def _dp_shortest_from(graph, src: int) -> np.ndarray:
    """Layer-order DP over the DAG, one Python comparison per edge."""
    dist = np.full(graph.num_layers, -1, dtype=np.int64)
    dist[src] = 0
    for dst in range(src + 1, graph.num_layers):
        best = -1
        for p in graph.predecessors_of(dst):
            if p >= src and dist[p] >= 0:
                cand = dist[p] + 1
                if best < 0 or cand < best:
                    best = cand
        dist[dst] = best
    return dist


def test_criterion_4_shortest_path_suite(verdict):
    t0 = time.perf_counter()
    failures = []

    cases = [(Plain(), range(2, 257)), (Sparse(2), range(2, 257)),
             (Sparse(3), range(2, 257)),
             (Dense(), list(range(2, 65)) + [96, 128, 192, 256]),
             (Fractal(1), [2]), (Fractal(3), [8]), (Fractal(5), [32]),
             (Fractal(8), [256])]
    for kind, sizes in cases:
        for L in sizes:
            graph = build_graph(kind, L)
            hops = gradient_path_lengths(graph, 0)
            dp = _dp_shortest_from(graph, 0)
            if not np.array_equal(hops, dp):
                failures.append(f"{kind} L={L}: paths != DP")
                break

    for L in (2, 17, 100, 256):
        dense = build_graph(Dense(), L)
        if any(shortest_gradient_path(dense, 0, t) != 1 for t in range(1, L)):
            failures.append(f"dense L={L}: path != 1")
        plain = build_graph(Plain(), L)
        if shortest_gradient_path(plain, 0, L - 1) != L - 1:
            failures.append(f"plain L={L}: path != L-1")

    big = gradient_path_lengths(build_graph(Sparse(2), 1024), 0)
    if big.max() > 2 * math.log2(1024):
        failures.append(f"sparse L=1024 max path {big.max()} > 20")

    elapsed = time.perf_counter() - t0
    if elapsed > 30.0:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    ok = verdict(4, not failures,
                 "; ".join(failures) or f"paths == DP, bounds hold, {elapsed:.1f}s")
    assert ok, failures


def _op_cases(rng):
    """One scalar-valued finite-difference case per tensor op."""
    x = Tensor(rng.standard_normal((2, 3, 6, 6)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
    p_conv = rng.standard_normal((2, 4, 6, 6))
    yield "conv", lambda a, b: weighted_sum(conv2d(a, b, padding=1), p_conv), [x, w]

    xs = Tensor(rng.standard_normal((1, 2, 7, 7)), requires_grad=True)
    ws = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
    p_s = rng.standard_normal((1, 3, 4, 4))
    yield "conv_s2", lambda a, b: weighted_sum(conv2d(a, b, stride=2, padding=1), p_s), [xs, ws]

    xb = Tensor(rng.standard_normal((2, 4, 5, 5)), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True)
    beta = Tensor(rng.standard_normal(4), requires_grad=True)
    state = BatchNormState.create(4, dtype=np.float64)
    p_bn = rng.standard_normal((2, 4, 5, 5))
    yield "batch_norm", lambda a, g, b: weighted_sum(
        batch_norm(a, g, b, state, training=True), p_bn), [xb, gamma, beta]

    raw = rng.standard_normal((2, 3, 4, 4))
    raw = np.where(np.abs(raw) < 0.1, raw + 0.3 * np.sign(raw + 0.5), raw)
    p_r = rng.standard_normal(raw.shape)
    yield "relu", lambda a: weighted_sum(relu(a), p_r), [Tensor(raw, requires_grad=True)]

    xp = Tensor(rng.standard_normal((2, 2, 6, 6)), requires_grad=True)
    p_p = rng.standard_normal((2, 2, 3, 3))
    yield "avg_pool", lambda a: weighted_sum(avg_pool2d(a, 2), p_p), [xp]

    xm = Tensor(rng.standard_normal((2, 2, 6, 6)), requires_grad=True)
    yield "max_pool", lambda a: weighted_sum(max_pool2d(a, 2, 2), p_p), [xm]

    xg = Tensor(rng.standard_normal((1, 3, 5, 5)), requires_grad=True)
    p_g = rng.standard_normal((1, 3))
    yield "global_avg_pool", lambda a: weighted_sum(global_avg_pool(a), p_g), [xg]

    xl = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    wl = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    bl = Tensor(rng.standard_normal(3), requires_grad=True)
    p_l = rng.standard_normal((4, 3))
    yield "linear", lambda a, ww, bb: weighted_sum(linear(a, ww, bb), p_l), [xl, wl, bl]

    labels = rng.integers(0, 10, size=5)
    xe = Tensor(rng.standard_normal((5, 10)), requires_grad=True)
    yield "cross_entropy", lambda a: softmax_cross_entropy(a, labels), [xe]

    pc = rng.standard_normal((1, 9, 2, 2))
    parts = [Tensor(rng.standard_normal((1, 3, 2, 2)), requires_grad=True) for _ in range(3)]
    yield "concat", lambda a, b, c: weighted_sum(aggregate("concat", [a, b, c]), pc), parts

    p3 = rng.standard_normal((1, 3, 2, 2))
    parts = [Tensor(rng.standard_normal((1, 3, 2, 2)), requires_grad=True) for _ in range(3)]
    yield "sum", lambda a, b, c: weighted_sum(aggregate("sum", [a, b, c]), p3), parts


def _fd_net_spec():
    return NetworkSpec(family="sum", topology=Sparse(2),
                       blocks=(BlockSpec(num_layers=2, width=4),
                               BlockSpec(num_layers=2, width=4)),
                       stem=StemSpec(out_channels=4, kernel=3, stride=1),
                       num_classes=10, input=InputSpec(8, 8, 3))


@pytest.mark.slow
def test_criterion_5_finite_difference_gradients(verdict):
    t0 = time.perf_counter()
    failures = []
    worst = 0.0

    for seed in range(20):
        rng = np.random.default_rng(seed)
        for name, fn, inputs in _op_cases(rng):
            report = check_gradients(fn, inputs, tolerance=1e-4)
            worst = max(worst, report.max_rel_error)
            if not report.passed:
                failures.append(f"{name} seed {seed}: rel err {report.max_rel_error:.2e}")

    spec = _fd_net_spec()
    for seed in range(20):
        net = compile_network(spec, seed=seed, dtype=np.float64)
        rng = np.random.default_rng(1000 + seed)
        x = rng.standard_normal((2, 3, 8, 8))
        labels = rng.integers(0, 10, size=2)
        params = list(net.params.values())

        def full_net(*_):
            logits = net.forward(Tensor(x), training=True)
            return softmax_cross_entropy(logits, labels)

        report = check_gradients(full_net, params, tolerance=1e-4)
        worst = max(worst, report.max_rel_error)
        if not report.passed:
            failures.append(f"full net seed {seed}: rel err {report.max_rel_error:.2e}")

    elapsed = time.perf_counter() - t0
    if elapsed > 300.0:
        failures.append(f"took {elapsed:.0f}s, budget 300s")
    ok = verdict(5, not failures,
                 "; ".join(failures) or f"max rel err {worst:.2e} over 20 seeds, {elapsed:.0f}s")
    assert ok, failures


@pytest.mark.slow
def test_criterion_6_training_smoke(cifar_dir, verdict):
    t0 = time.perf_counter()
    data = load_cifar10(cifar_dir, train_subset=2000, test_subset=500)
    spec = load_spec(config_path("sparse_bc_tiny_cifar.json"))
    net = compile_network(spec, seed=0)
    cfg = TrainConfig(epochs=10, batch_size=64, base_lr=0.1, seed=0)
    history = train_model(net, data, cfg)
    elapsed = time.perf_counter() - t0

    losses = [row["train_loss"] for row in history]
    final_acc = history[-1]["train_acc"]
    failures = []
    if not (losses[0] > losses[1] > losses[2]):
        failures.append(f"first 3 epoch losses not strictly decreasing: {losses[:3]}")
    if final_acc <= 0.40:
        failures.append(f"final train accuracy {final_acc:.3f} <= 0.40")
    if elapsed > 1800.0:
        failures.append(f"took {elapsed:.0f}s, budget 1800s")
    ok = verdict(6, not failures,
                 "; ".join(failures) or
                 f"losses {losses[0]:.3f}>{losses[1]:.3f}>{losses[2]:.3f}, "
                 f"final acc {final_acc:.3f}, {elapsed:.0f}s")
    assert ok, failures


def test_criterion_7_degenerate_topology_equivalence(verdict):
    import dataclasses
    failures = []

    plain_spec = load_spec(config_path("sum_plain_d12_cifar.json"))
    n = plain_spec.blocks[0].num_layers
    wide_spec = dataclasses.replace(plain_spec, topology=Sparse(n + 2))
    x = np.random.default_rng(0).standard_normal((4, 3, 32, 32)).astype(np.float32)
    for seed in (0, 3):
        a = compile_network(plain_spec, seed=seed).predict(x)
        b = compile_network(wide_spec, seed=seed).predict(x)
        if not np.array_equal(a, b):
            failures.append(f"sum family seed {seed}: logits differ")

    concat_plain = NetworkSpec(family="concat", topology=Plain(),
                               blocks=(BlockSpec(num_layers=3, growth_rate=6),) * 2,
                               stem=StemSpec(out_channels=8, kernel=3, stride=1),
                               num_classes=10, input=InputSpec(32, 32, 3))
    concat_wide = dataclasses.replace(concat_plain, topology=Sparse(5))
    a = compile_network(concat_plain, seed=1).predict(x)
    b = compile_network(concat_wide, seed=1).predict(x)
    if not np.array_equal(a, b):
        failures.append("concat family: logits differ")

    plan = plan_network(load_spec(config_path("dense40_k12_cifar.json")))
    widths = [lp.in_channels for lp in plan.blocks[0].layers]
    expected = [16 + 12 * i for i in range(12)]
    if widths != expected:
        failures.append(f"dense widths {widths[:4]}... != 16,28,40,...")

    ok = verdict(7, not failures, "; ".join(failures) or
                 "chain-equivalent logits bit-identical; widths 16,28,40,...")
    assert ok, failures


def test_criterion_8_heatmap_structure(verdict):
    failures = []
    for name in ("dense40_k12_cifar.json", "sparse40_k12_cifar.json"):
        net = compile_network(load_spec(config_path(name)), seed=0)
        report = weight_heatmap(net)
        graph = build_graph(net.spec.topology, net.plan.blocks[0].num_layers + 1)
        for hm in report.blocks:
            for i in range(hm.mask.shape[0]):
                wired = set(graph.predecessors_of(i + 1))
                got = {s for s in range(hm.mask.shape[1]) if hm.mask[i, s]}
                if got != wired:
                    failures.append(f"{name} block {hm.block} row {i + 1}: support")
                vals = hm.matrix[i, hm.mask[i]]
                if len(vals) and (vals.min() < 0.0 or vals.max() > 1.0):
                    failures.append(f"{name} block {hm.block} row {i + 1}: range")
                if len(vals) >= 2 and (vals.min() != 0.0 or vals.max() != 1.0):
                    failures.append(f"{name} block {hm.block} row {i + 1}: not min-max")

    net = compile_network(load_spec(config_path("sparse40_k12_cifar.json")), seed=2)
    before = weight_heatmap(net).blocks[0]
    k = net.spec.blocks[0].growth_rate
    w = net.params["block1.layer6.conv1"]  # reads sources 5, 4, 2 in that order
    a, b = w.data[:, :k].copy(), w.data[:, k:2 * k].copy()
    w.data[:, :k], w.data[:, k:2 * k] = b, a
    after = weight_heatmap(net).blocks[0]
    if not (after.raw[5, 5] == before.raw[5, 4] and after.raw[5, 4] == before.raw[5, 5]):
        failures.append("slice permutation did not permute attribution")

    ok = verdict(8, not failures,
                 "; ".join(failures) or "support == adjacency; rows span [0,1]")
    assert ok, failures


@pytest.mark.slow
def test_criterion_9_determinism_and_round_trip(cifar_dir, tmp_path, verdict):
    failures = []
    data = load_cifar10(cifar_dir, train_subset=100, test_subset=100)
    spec = NetworkSpec(family="concat", topology=Sparse(2),
                       blocks=(BlockSpec(num_layers=2, growth_rate=4),
                               BlockSpec(num_layers=2, growth_rate=4)),
                       stem=StemSpec(out_channels=8, kernel=3, stride=1),
                       num_classes=10, input=InputSpec(32, 32, 3))
    cfg = TrainConfig(epochs=2, batch_size=32, base_lr=0.1, seed=9)

    def run():
        net = compile_network(spec, seed=4)
        return net, train_model(net, data, cfg)

    net_a, hist_a = run()
    net_b, hist_b = run()
    for row_a, row_b in zip(hist_a, hist_b):
        for key in ("epoch", "lr", "train_loss", "train_acc", "test_loss", "test_err"):
            if row_a[key] != row_b[key]:
                failures.append(f"history mismatch at epoch {row_a['epoch']}: {key}")

    x = normalize_images(data.test_images[:32], data.mean, data.std)
    save_checkpoint(net_a, tmp_path / "ckpt", epoch=cfg.epochs)
    restored, _ = load_checkpoint(tmp_path / "ckpt")
    if not np.array_equal(net_a.predict(x), restored.predict(x)):
        failures.append("restored checkpoint changed eval logits")

    ok = verdict(9, not failures,
                 "; ".join(failures) or "histories identical; round-trip logits bit-equal")
    assert ok, failures
