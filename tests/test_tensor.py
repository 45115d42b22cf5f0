import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import config_path
from sparseagg import _kernels as K
from sparseagg import tensor as tensor_module
from sparseagg._kernels import im2col
from sparseagg.architecture import Conv, Pool, load_spec, plan_network
from sparseagg.errors import CheckpointError, NonFiniteError
from sparseagg.gradcheck import check_gradients
from sparseagg.tensor import (
    BN_EPS,
    BatchNormState,
    Tensor,
    aggregate,
    avg_pool2d,
    batch_norm,
    conv2d,
    global_avg_pool,
    linear,
    load_array,
    max_pool2d,
    no_grad,
    relu,
    save_array,
    set_debug,
    softmax_cross_entropy,
    weighted_sum,
)

SEEDS = range(20)


def t64(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def rand64(rng, shape, grad=True):
    return t64(rng.standard_normal(shape), grad=grad)


def conv_ref(x, w, stride, padding):
    n, c, h, ww = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (ww + 2 * padding - kw) // stride + 1
    out = np.zeros((n, o, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for oi in range(o):
            for oy in range(oh):
                for ox in range(ow):
                    patch = xp[ni, :, oy * stride:oy * stride + kh, ox * stride:ox * stride + kw]
                    out[ni, oi, oy, ox] = np.sum(patch * w[oi])
    return out


# ---------------------------------------------------------------------------
# convolution forward


def test_conv_overlap_counts():
    x = t64(np.ones((1, 1, 3, 3)))
    w = t64(np.ones((1, 1, 3, 3)))
    out = conv2d(x, w, stride=1, padding=1).data[0, 0]
    np.testing.assert_array_equal(out, [[4, 6, 4], [6, 9, 6], [4, 6, 4]])


def test_conv_pointwise_identity():
    rng = np.random.default_rng(0)
    x = t64(rng.standard_normal((2, 3, 5, 5)))
    eye = np.zeros((3, 3, 1, 1))
    eye[np.arange(3), np.arange(3), 0, 0] = 1.0
    np.testing.assert_array_equal(conv2d(x, t64(eye)).data, x.data)


def test_conv_shape_pin():
    x = Tensor(np.zeros((2, 3, 32, 32), dtype=np.float32))
    w = Tensor(np.zeros((16, 3, 3, 3), dtype=np.float32))
    assert conv2d(x, w, stride=1, padding=1).shape == (2, 16, 32, 32)


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
def test_conv_matches_direct_sum(stride, padding):
    rng = np.random.default_rng(7)
    h = 7 if stride == 2 and padding == 1 else 6 if stride == 2 else 6
    x = rng.standard_normal((2, 3, h, h))
    w = rng.standard_normal((4, 3, 3, 3)) if stride == 1 or padding == 1 \
        else rng.standard_normal((4, 3, 2, 2))
    kh = w.shape[2]
    if (h + 2 * padding - kh) % stride != 0:
        pytest.skip("shape not representative for this case")
    got = conv2d(t64(x), t64(w), stride=stride, padding=padding).data
    ref = conv_ref(x, w, stride, padding)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("k,stride,padding,h,wd", [
    (3, 2, 1, 6, 6),    # (6 + 2 - 3) / 2 = 2.5 -> 3x3
    (7, 2, 3, 8, 8),    # the ImageNet stem's kernel at an even input: 4.5 -> 4x4
    (7, 2, 3, 9, 10),   # non-square, one side floored
    (3, 3, 0, 10, 11),
    (1, 2, 0, 7, 6),
])
def test_conv_floors_fractional_output(k, stride, padding, h, wd):
    # The planner floors (H + 2p - k) / stride + 1; the executor must size the same way.
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 3, h, wd))
    w = rng.standard_normal((4, 3, k, k))
    got = conv2d(t64(x), t64(w), stride=stride, padding=padding).data
    ref = conv_ref(x, w, stride, padding)
    assert got.shape == (2, 4, (h + 2 * padding - k) // stride + 1,
                         (wd + 2 * padding - k) // stride + 1)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_conv_rejects_kernel_larger_than_padded_input():
    x = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
    w = Tensor(np.zeros((1, 1, 5, 5), dtype=np.float32))
    with pytest.raises(ValueError, match="larger than the padded input"):
        conv2d(x, w, padding=1)


def test_conv_rejects_channel_mismatch():
    x = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
    w = Tensor(np.zeros((1, 3, 3, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        conv2d(x, w, padding=1)


# ---------------------------------------------------------------------------
# batch norm forward


def test_batch_norm_standardizes_training_batch():
    rng = np.random.default_rng(1)
    x = t64(rng.standard_normal((8, 3, 6, 6)) * 4.0 + 2.0)
    gamma, beta = t64(np.ones(3)), t64(np.zeros(3))
    state = BatchNormState.create(3, dtype=np.float64)
    out = batch_norm(x, gamma, beta, state, training=True).data
    np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-6)
    assert state.steps == 1
    np.testing.assert_allclose(state.running_mean, 0.1 * x.data.mean(axis=(0, 2, 3)))


def test_batch_norm_constant_channel_is_finite_zero():
    x = t64(np.full((2, 2, 4, 4), 5.0))
    state = BatchNormState.create(2, dtype=np.float64)
    out = batch_norm(x, t64(np.ones(2)), t64(np.zeros(2)), state, training=True).data
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, 0.0, atol=1e-9)


def test_batch_norm_eval_uses_running_stats():
    x = t64(np.zeros((1, 1, 2, 2)))
    state = BatchNormState(running_mean=np.array([2.0]), running_var=np.array([4.0]), steps=1)
    out = batch_norm(x, t64(np.ones(1)), t64(np.zeros(1)), state, training=False).data
    np.testing.assert_allclose(out, -2.0 / np.sqrt(4.0 + BN_EPS))


# ---------------------------------------------------------------------------
# other forward pins


def test_relu_pin():
    out = relu(t64([[-1.0, 0.0, 2.0]])).data
    np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])


def test_relu_propagates_nan():
    # a diverged activation must reach the loss check, not be masked to 0
    out = relu(t64([[np.nan, -1.0, 2.0]])).data
    assert np.isnan(out[0, 0])
    np.testing.assert_array_equal(out[0, 1:], [0.0, 2.0])


def test_avg_pool_pin():
    x = t64(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
    np.testing.assert_array_equal(avg_pool2d(x, 2).data[0, 0], [[2.5, 4.5], [10.5, 12.5]])


def avg_pool_reference(x, k):
    """The former avg_pool2d forward: a reshape and mean over the window axes."""
    n, c, h, w = x.shape
    return x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5)).astype(x.dtype, copy=False)


def avg_pool_backward_reference(g, k):
    """The former avg_pool2d backward: broadcast, divide, reshape."""
    n, c, oh, ow = g.shape
    ge = np.broadcast_to(g.reshape(n, c, oh, 1, ow, 1), (n, c, oh, k, ow, k)) / (k * k)
    return ge.reshape(n, c, oh * k, ow * k).astype(g.dtype, copy=False)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("seed", range(3))
def test_avg_pool_matches_former_mean_bit_for_bit(dtype, k, seed):
    rng = np.random.default_rng(1300 + seed)
    x = (rng.standard_normal((3, 5, 8, 12)) * rng.uniform(0.01, 100.0, (3, 5, 8, 12))).astype(dtype)
    x[0, 0, :k, :k] = -0.0   # an all-negative-zero window: mean gives +0.0
    x[1, 2, k, 0] = 0.0
    xt = Tensor(x, requires_grad=True)
    out = avg_pool2d(xt, k)
    g = rng.standard_normal(out.shape).astype(dtype)
    out.backward(g)
    assert same_bits(out.data, avg_pool_reference(x, k))
    assert same_bits(xt.grad, avg_pool_backward_reference(g, k))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [2, 4])
def test_avg_pool_gradient_is_the_same_with_its_input_released(dtype, k):
    # The executor frees a transition conv's output once its pool has run;
    # the pool's backward reads only the shape and dtype its Tensor keeps.
    rng = np.random.default_rng(1310 + k)
    x = rng.standard_normal((3, 5, 8, 12)).astype(dtype)
    g = rng.standard_normal((3, 5, 8 // k, 12 // k)).astype(dtype)
    grads = []
    for released in (False, True):
        xt = Tensor(x.copy(), requires_grad=True)
        out = avg_pool2d(xt, k)
        if released:
            tensor_module._release(xt)
            assert xt.data is None
        out.backward(g)
        grads.append(xt.grad)
    assert same_bits(grads[1], grads[0])
    assert grads[1].flags.owndata and grads[1].flags.c_contiguous


def test_avg_pool_requires_divisibility():
    with pytest.raises(ValueError):
        avg_pool2d(Tensor(np.zeros((1, 1, 5, 5), dtype=np.float32)), 2)


def test_max_pool_pin():
    x = t64(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
    np.testing.assert_array_equal(max_pool2d(x, 2, 2).data[0, 0], [[5.0, 7.0], [13.0, 15.0]])


def test_global_avg_pool_pin():
    x = np.zeros((2, 3, 4, 4))
    x[:, 1] = 2.0
    out = global_avg_pool(t64(x)).data
    assert out.shape == (2, 3)
    np.testing.assert_array_equal(out, [[0.0, 2.0, 0.0], [0.0, 2.0, 0.0]])


def test_linear_pin():
    x = t64([[1.0, 2.0]])
    w = t64([[1.0, 10.0, 100.0], [2.0, 20.0, 200.0]])
    b = t64([0.5, 0.5, 0.5])
    np.testing.assert_array_equal(linear(x, w, b).data, [[5.5, 50.5, 500.5]])


def test_cross_entropy_uniform_logits():
    logits = t64(np.zeros((4, 10)))
    loss = softmax_cross_entropy(logits, np.array([0, 3, 5, 9]))
    assert abs(float(loss.data) - np.log(10.0)) < 1e-12


def test_cross_entropy_gradient_at_uniform():
    logits = t64(np.zeros((2, 10)))
    loss = softmax_cross_entropy(logits, np.array([0, 1]))
    loss.backward()
    expected = np.full((2, 10), 0.1)
    expected[0, 0] -= 1.0
    expected[1, 1] -= 1.0
    np.testing.assert_allclose(logits.grad, expected / 2.0, atol=1e-12)


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(ValueError):
        softmax_cross_entropy(t64(np.zeros((1, 10))), np.array([10]))


# ---------------------------------------------------------------------------
# aggregation


def test_concat_layout_and_slice_gradients():
    rng = np.random.default_rng(2)
    parts = [rand64(rng, (2, 12, 4, 4)) for _ in range(3)]
    out = aggregate("concat", parts)
    assert out.shape == (2, 36, 4, 4)
    for i, p in enumerate(parts):
        np.testing.assert_array_equal(out.data[:, 12 * i:12 * (i + 1)], p.data)
    g = rng.standard_normal(out.shape)
    out.backward(g)
    for i, p in enumerate(parts):
        np.testing.assert_array_equal(p.grad, g[:, 12 * i:12 * (i + 1)])


def test_concat_preserves_argument_order():
    a = t64(np.full((1, 2, 1, 1), 1.0))
    b = t64(np.full((1, 3, 1, 1), 2.0))
    out = aggregate("concat", [a, b]).data[0, :, 0, 0]
    np.testing.assert_array_equal(out, [1.0, 1.0, 2.0, 2.0, 2.0])


def test_sum_of_opposites_is_exact_zero():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((2, 4, 3, 3))
    out = aggregate("sum", [t64(base), t64(-base)])
    assert np.all(out.data == 0.0)


def test_sum_is_commutative():
    rng = np.random.default_rng(4)
    parts = [rng.standard_normal((2, 4, 3, 3)).astype(np.float32) for _ in range(4)]
    a = aggregate("sum", [Tensor(p) for p in parts]).data
    b = aggregate("sum", [Tensor(p) for p in reversed(parts)]).data
    np.testing.assert_allclose(a, b, atol=1e-6)


def test_sum_gives_each_parent_its_own_gradient():
    rng = np.random.default_rng(7)
    a, b = rand64(rng, (2, 3, 4, 4)), rand64(rng, (2, 3, 4, 4))
    out = aggregate("sum", [a, b])
    out.backward(rng.standard_normal(out.shape))
    assert not np.shares_memory(a.grad, b.grad)
    before = b.grad.copy()
    a.grad += 1.0
    np.testing.assert_array_equal(b.grad, before)


def test_sum_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        aggregate("sum", [t64(np.zeros((1, 2, 2, 2))), t64(np.zeros((1, 3, 2, 2)))])


def test_aggregate_rejects_unknown_op():
    with pytest.raises(ValueError):
        aggregate("median", [t64(np.zeros((1, 1, 1, 1)))])


# ---------------------------------------------------------------------------
# autodiff mechanics


def test_ops_do_not_mutate_inputs():
    rng = np.random.default_rng(5)
    x = rand64(rng, (2, 3, 6, 6))
    w = rand64(rng, (4, 3, 3, 3))
    snap_x, snap_w = x.data.copy(), w.data.copy()
    out = relu(conv2d(x, w, padding=1))
    loss = weighted_sum(out, rng.standard_normal(out.shape))
    loss.backward()
    np.testing.assert_array_equal(x.data, snap_x)
    np.testing.assert_array_equal(w.data, snap_w)


def test_gradients_accumulate_across_backward_calls():
    x = t64(np.ones((1, 1, 2, 2)) * 3.0)
    for _ in range(2):
        loss = weighted_sum(relu(x), np.ones((1, 1, 2, 2)))
        loss.backward()
    np.testing.assert_array_equal(x.grad, np.full((1, 1, 2, 2), 2.0))


def test_shared_input_gets_summed_gradient():
    x = t64(np.full((1, 2, 2, 2), 1.5))
    out = aggregate("sum", [relu(x), relu(x)])
    weighted_sum(out, np.ones(out.shape)).backward()
    np.testing.assert_array_equal(x.grad, np.full((1, 2, 2, 2), 2.0))


def test_no_grad_blocks_graph_construction():
    x = t64(np.ones((1, 1, 4, 4)))
    w = t64(np.ones((1, 1, 3, 3)))
    with no_grad():
        out = conv2d(x, w, padding=1)
    assert not out.requires_grad
    assert out._parents == ()
    with pytest.raises(ValueError):
        out.backward(np.ones(out.shape))


def test_backward_needs_scalar_without_seed():
    x = t64(np.ones((2, 2)))
    y = relu(x)
    with pytest.raises(ValueError):
        y.backward()


def test_backward_rejects_a_seed_of_another_shape():
    # a seed of another shape used to be broadcast into the gradient
    x = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
    for seed in (np.float32(2.0), np.ones(3, np.float32), np.ones((3, 2), np.float32)):
        with pytest.raises(ValueError, match="seed has shape"):
            relu(x).backward(seed)
    assert x.grad is None


def test_backward_frees_intermediate_gradients():
    x = t64(np.ones((1, 1, 2, 2)))
    y = relu(x)
    weighted_sum(y, np.ones(y.shape)).backward()
    assert y.grad is None and y._backward is None
    np.testing.assert_array_equal(x.grad, np.ones((1, 1, 2, 2)))

    x.zero_grad()
    y = relu(x)
    weighted_sum(y, np.ones(y.shape)).backward(free_graph=False)
    np.testing.assert_array_equal(y.grad, np.ones((1, 1, 2, 2)))

    # A closure may overwrite the gradient it is handed; without free_graph
    # it is handed a copy, so the node's own .grad is left as it was.
    x = t64(np.array([[[[-1.0, 2.0], [3.0, -4.0]]]]))
    gamma, beta = t64(np.ones(1)), t64(np.zeros(1))
    state = BatchNormState.create(1, dtype=np.float64)
    for op in (relu,
               lambda t: batch_norm(t, gamma, beta, state, training=True, relu=True),
               lambda t: batch_norm(t, gamma, beta, state, training=False, relu=True)):
        x.zero_grad()
        y = op(x)
        weighted_sum(y, np.ones(y.shape)).backward(free_graph=False)
        np.testing.assert_array_equal(y.grad, np.ones((1, 1, 2, 2)))
        assert x.grad is not None and not np.shares_memory(x.grad, y.grad)


def test_backward_never_adopts_the_seed_gradient():
    x = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
    seed = np.full((2, 3), 2.0, np.float32)
    x.backward(seed)
    y = relu(x)
    seed_y = np.full((2, 3), 3.0, np.float32)
    y.backward(seed_y, free_graph=False)
    assert not np.shares_memory(y.grad, seed_y)
    seed[...] = seed_y[...] = 7.0
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 5.0))
    np.testing.assert_array_equal(y.grad, np.full((2, 3), 3.0))


@pytest.mark.parametrize("k,padding", [(1, 0), (3, 1)])
def test_concat_and_conv_gradients_are_not_views(k, padding):
    # a concat slice or the conv's unpadded d_operand is a view of a larger
    # buffer; handing it over would keep that buffer alive as .grad
    rng = np.random.default_rng(8)
    parts = [rand64(rng, (2, 3, 5, 5)) for _ in range(2)]
    x = rand64(rng, (2, 6, 5, 5))
    w = rand64(rng, (4, 6, k, k))
    cat = aggregate("concat", parts)
    cat.backward(rng.standard_normal(cat.shape))
    out = conv2d(x, w, padding=padding)
    out.backward(rng.standard_normal(out.shape))
    for t in (*parts, x, w):
        assert t.grad.base is None and t.grad.flags.c_contiguous


def backward_peak(out, g):
    tracemalloc.start()
    try:
        out.backward(g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_relu_and_fused_bn_relu_backward_hand_their_gradients_over():
    # Measured at this shape: relu 1.32x its gradient (the seed's copy, masked
    # in place, and the mask), fused BnRelu training 2.07x (the masked seed
    # copy and dx); 2.32x and 3.07x when the closures could not write into g.
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((16, 8, 32, 32)).astype(np.float32), requires_grad=True)
    gamma = Tensor(np.ones(8, np.float32), requires_grad=True)
    beta = Tensor(np.zeros(8, np.float32), requires_grad=True)
    g = rng.standard_normal(x.shape).astype(np.float32)
    assert backward_peak(relu(x), g) < 1.5 * g.nbytes
    x.zero_grad()
    out = batch_norm(x, gamma, beta, BatchNormState.create(8), training=True, relu=True)
    assert backward_peak(out, g) < 2.25 * g.nbytes
    assert x.grad.base is None


def test_backward_sweep_releases_activations_as_it_goes():
    # 16 relus on a 1 MB input: the graph holds 16 MB after forward; a sweep
    # that kept every node's data and gradient to the end would peak at 32 MB
    x = Tensor(np.ones((256, 1024), dtype=np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        y = x
        for _ in range(16):
            y = relu(y)
        loss = weighted_sum(y, np.ones(y.shape, dtype=np.float32))
        del y
        after_forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < after_forward + 4 * x.data.nbytes, (peak, after_forward)


# ---------------------------------------------------------------------------
# replaced kernels against the code they replaced


def im2col_reference(x, kh, kw, stride, oh, ow):
    """The former patch gather over padded NCHW ``x``: (C*kh*kw, N*oh*ow),
    rows in (c, ky, kx) order, columns in (n, y, x) order."""
    n, c, _, _ = x.shape
    cols = np.empty((c * kh * kw, n, oh, ow), dtype=x.dtype)
    r = 0
    for ci in range(c):
        for ky in range(kh):
            for kx in range(kw):
                cols[r] = x[:, ci, ky:ky + stride * oh:stride, kx:kx + stride * ow:stride]
                r += 1
    return cols.reshape(c * kh * kw, n * oh * ow)


def col2im_reference(cols, shape, kh, kw, stride, oh, ow):
    """The former patch scatter: adds patch gradients onto the padded input shape."""
    n, c, hp, wp = shape
    cols4 = cols.reshape(c * kh * kw, n, oh, ow)
    out = np.zeros(shape, dtype=cols.dtype)
    r = 0
    for ci in range(c):
        for ky in range(kh):
            for kx in range(kw):
                out[:, ci, ky:ky + stride * oh:stride, kx:kx + stride * ow:stride] += cols4[r]
                r += 1
    return out


def conv_saved_patches(x, w, g, stride, padding):
    """The former conv2d: forward keeps the im2col patches (or the 1x1 channel-major copy)
    for backward.  Returns (out, dx, dw) for upstream gradient g."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    if kh == 1 and kw == 1 and stride == 1 and padding == 0:
        w2d = w.reshape(o, c)
        xc = x.transpose(1, 0, 2, 3).reshape(c, -1)
        out = (w2d @ xc).reshape(o, n, h, wd).transpose(1, 0, 2, 3)
        gc = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(o, -1)
        dw = (gc @ xc.T).reshape(w.shape)
        dx = (w2d.T @ gc).reshape(c, n, h, wd).transpose(1, 0, 2, 3)
        return np.ascontiguousarray(out), dx, dw
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x
    cols = im2col_reference(xp, kh, kw, stride, oh, ow)
    w2d = w.reshape(o, -1)
    out = (w2d @ cols).reshape(o, n, oh, ow).transpose(1, 0, 2, 3)
    g2d = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(o, -1)
    dw = np.ascontiguousarray((cols @ g2d.T).T).reshape(w.shape)
    dxp = col2im_reference(w2d.T @ g2d, xp.shape, kh, kw, stride, oh, ow)
    if padding:
        dxp = dxp[:, :, padding:padding + h, padding:padding + wd]
    return np.ascontiguousarray(out), dxp, dw


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and \
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def conv_against_saved_patches(k, stride, padding, seed):
    rng = np.random.default_rng(900 + seed)
    h = 9 if stride == 2 else 8
    x = rng.standard_normal((3, 5, h, h)).astype(np.float32)
    w = rng.standard_normal((7, 5, k, k)).astype(np.float32)
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = conv2d(xt, wt, stride=stride, padding=padding)
    g = rng.standard_normal(out.shape).astype(np.float32)
    out.backward(g)
    return (out.data, xt.grad, wt.grad), conv_saved_patches(x, w, g, stride, padding)


def assert_within_8_ulps(got, ref):
    """Within 8 float32 ulps of the largest magnitude in ``ref``."""
    assert got.dtype == ref.dtype and got.shape == ref.shape
    atol = 8 * np.finfo(np.float32).eps * np.abs(ref).max()
    np.testing.assert_allclose(got, ref, rtol=0, atol=atol)


CONV_REFERENCE_CASES = [(3, 1, 1), (3, 1, 0), (3, 2, 1), (1, 1, 0)]


@pytest.mark.parametrize("k,stride,padding", CONV_REFERENCE_CASES)
@pytest.mark.parametrize("seed", range(3))
def test_conv_matches_saved_patch_reference_bit_for_bit(k, stride, padding, seed):
    # Where the summation order is unchanged the bits are too: every 1x1 output and
    # gradient (one tap, one GEMM each).  The 3x3 out, dx and dw are pinned in ulps below.
    (out, dx, dw), (ref_out, ref_dx, ref_dw) = conv_against_saved_patches(k, stride, padding, seed)
    if k == 1:
        assert same_bits(out, ref_out)
        assert same_bits(dx, ref_dx)
        assert same_bits(dw, ref_dw)


@pytest.mark.parametrize("k,stride,padding", CONV_REFERENCE_CASES[:3])
@pytest.mark.parametrize("seed", range(3))
def test_conv_3x3_out_and_dw_within_ulps_of_saved_patch_reference(k, stride, padding, seed):
    # 3x3 out sums C*9 products tap by tap instead of in (c, ky, kx) order, dw's GEMM
    # runs over the whole padded grid instead of the oh*ow patch columns, and dx is one
    # GEMM over all 9*O stacked tap gradients instead of 9 GEMMs added tap by tap, so
    # their rounding differs: allow 8 float32 ulps of the array's largest magnitude (at
    # most 3.6 seen over 20 seeds).
    (out, dx, dw), (ref_out, ref_dx, ref_dw) = conv_against_saved_patches(k, stride, padding, seed)
    for got, ref in [(out, ref_out), (dx, ref_dx), (dw, ref_dw)]:
        assert_within_8_ulps(got, ref)


def test_conv_forward_backward_peaks_below_patch_matrix():
    # The former path built a 9x-input patch matrix in forward and again in backward.
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((8, 16, 16, 16)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((8, 16, 3, 3)).astype(np.float32), requires_grad=True)
    g = rng.standard_normal((8, 8, 16, 16)).astype(np.float32)
    patch_bytes = 16 * 9 * 8 * 16 * 16 * 4
    tracemalloc.start()
    try:
        out = conv2d(x, w, padding=1)
        out.backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.grad is not None and w.grad is not None
    assert peak < patch_bytes, (peak, patch_bytes)


def test_conv_forward_does_not_retain_patches():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((8, 16, 16, 16)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((8, 16, 3, 3)).astype(np.float32), requires_grad=True)
    patch_bytes = 16 * 9 * 8 * 16 * 16 * 4
    tracemalloc.start()
    try:
        out = conv2d(x, w, padding=1)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out._backward is not None
    assert live < patch_bytes, (live, patch_bytes)


def conv_per_tap_forward(x, w, stride, padding):
    """The former conv2d forward: one GEMM per kernel tap over the whole grid of window
    origins, added onto the grid tap by tap in (ky, kx) order."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    hp, wp = h + 2 * padding, wd + 2 * padding
    oh, ow = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    span = n * hp * wp - (kh - 1) * wp - (kw - 1)
    offsets = [ky * wp + kx for ky in range(kh) for kx in range(kw)]
    taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(kh * kw, o, c)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    operand = np.ascontiguousarray(xp.transpose(1, 0, 2, 3)).reshape(c, -1)
    grid = np.empty((o, n * hp * wp), dtype=x.dtype)
    acc = grid[:, :span]
    np.matmul(taps[0], operand[:, :span], out=acc)
    for t, d in enumerate(offsets[1:], 1):
        acc += taps[t] @ operand[:, d:d + span]
    corner = grid.reshape(o, n, hp, wp)[:, :, :stride * oh:stride, :stride * ow:stride]
    return np.ascontiguousarray(corner.transpose(1, 0, 2, 3))


FORWARD_CASES = [(k, stride, padding) for k in (1, 3, 7) for stride in (1, 2)
                 for padding in (0, 1, 3)]


def conv_forward_against_per_tap(k, stride, padding, seed, dtype=np.float32):
    rng = np.random.default_rng(1200 + seed)
    h = 9 if stride == 2 else 8
    x = rng.standard_normal((3, 5, h, h + 1)).astype(dtype)
    w = rng.standard_normal((7, 5, k, k)).astype(dtype)
    with no_grad():
        out = conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
    return out, conv_per_tap_forward(x, w, stride, padding)


@pytest.mark.parametrize("k,stride,padding", FORWARD_CASES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", range(3))
def test_conv_forward_matches_per_tap_reference_bit_for_bit(k, stride, padding, dtype, seed):
    # Each stacked-GEMM element is the same C-long dot product as in its tap's own
    # GEMM, and the taps are added onto the grid in the same order.
    out, ref = conv_forward_against_per_tap(k, stride, padding, seed, dtype)
    assert same_bits(out, ref)


# A chunk narrower than the largest tap offset (at least 18 below) that divides
# none of the N*Hp*Wp grid widths, so every chunk seam cuts through tap windows.
SEAM_CHUNK = 7


@pytest.fixture(params=["inline", "split"])
def split_paths(request, monkeypatch):
    """Every op inline, then every op split between the caller and one worker, with each
    float32 GEMM that a conv forward may cut cut into one piece per share."""
    if request.param == "inline":
        monkeypatch.setattr(tensor_module, "_WORKERS", 0)
    else:
        monkeypatch.setattr(tensor_module, "_WORKERS", 1)
        monkeypatch.setattr(tensor_module, "_SPLIT_BYTES", 0)
        monkeypatch.setattr(tensor_module, "_WHOLE_GEMM", 0)


def seam_chunk(monkeypatch, x_shape, w_shape, padding):
    """Patch the chunk rule to SEAM_CHUNK; return the (chunk, lead, width) a conv of these
    shapes then walks its N*Hp*Wp grid with, lead being the largest tap offset."""
    monkeypatch.setattr(tensor_module, "_CHUNK", SEAM_CHUNK)
    n, c, h, wd = x_shape
    o, _, kh, kw = w_shape
    hp, wp = h + 2 * padding, wd + 2 * padding
    chunk = tensor_module._chunk_columns(c * n * hp * wp, kh * kw * o)
    return chunk, (kh - 1) * wp + kw - 1, n * hp * wp


@pytest.mark.usefixtures("split_paths")
@pytest.mark.parametrize("k,stride,padding", CONV_REFERENCE_CASES)
@pytest.mark.parametrize("seed", range(3))
def test_conv_backward_chunk_seams_within_ulps_of_saved_patch_reference(
        monkeypatch, k, stride, padding, seed):
    h = 9 if stride == 2 else 8
    chunk, lead, width = seam_chunk(monkeypatch, (3, 5, h, h), (7, 5, k, k), padding)
    # A multi-tap chunk is narrower than its lead; a 1x1 grid ends in a ragged chunk.
    assert chunk < lead if k > 1 else width % chunk
    (out, dx, dw), (ref_out, ref_dx, ref_dw) = conv_against_saved_patches(k, stride, padding, seed)
    for got, ref in [(out, ref_out), (dx, ref_dx), (dw, ref_dw)]:
        assert_within_8_ulps(got, ref)


@pytest.mark.usefixtures("split_paths")
@pytest.mark.parametrize("k,stride,padding", FORWARD_CASES)
@pytest.mark.parametrize("seed", range(3))
def test_conv_forward_chunk_seams_match_per_tap_reference(monkeypatch, k, stride, padding, seed):
    # Each multi-tap chunk is narrower than its lead, so its GEMM reads past the
    # next seams; a 1x1 forward is one GEMM and has no chunks.
    h = 9 if stride == 2 else 8
    chunk, lead, _ = seam_chunk(monkeypatch, (3, 5, h, h + 1), (7, 5, k, k), padding)
    assert chunk < lead or k == 1
    out, ref = conv_forward_against_per_tap(k, stride, padding, seed)
    assert same_bits(out, ref)


@pytest.mark.usefixtures("split_paths")
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("seed", range(5))
def test_fd_conv_at_chunk_seams(monkeypatch, stride, seed):
    h = 6 if stride == 1 else 7
    chunk, lead, _ = seam_chunk(monkeypatch, (2, 3, h, h), (4, 3, 3, 3), 1)
    assert chunk < lead
    rng = np.random.default_rng(700 + seed)
    x = rand64(rng, (2, 3, h, h))
    w = rand64(rng, (4, 3, 3, 3))
    oh = (h + 2 - 3) // stride + 1
    proj = rng.standard_normal((2, 4, oh, oh))
    report = check_gradients(
        lambda a, b: weighted_sum(conv2d(a, b, stride=stride, padding=1), proj), [x, w])
    assert report.passed, report.max_rel_error


def planned_convs(plan, batch):
    """(conv, operand size) for every Conv in the plan, the operand being the padded,
    channel-major (C, N*Hp*Wp) input that both directions of conv2d chunk over."""
    h, w = plan.spec.input.height, plan.spec.input.width
    for unit in plan.units:
        for op in unit.ops:
            if isinstance(op, Conv):
                hp, wp = h + 2 * op.padding, w + 2 * op.padding
                assert (hp - op.kernel) // op.stride + 1 == op.out_h, op.name  # the walk's sizes
                yield op, op.in_channels * batch * hp * wp
                h, w = op.out_h, op.out_w
            elif isinstance(op, Pool):
                if op.kind == "max":
                    h = (h + 2 * op.padding - op.kernel) // op.stride + 1
                    w = (w + 2 * op.padding - op.kernel) // op.stride + 1
                else:
                    h, w = (1, 1) if op.kind == "global" else (h // op.stride, w // op.stride)


@pytest.mark.parametrize("name", sorted(os.listdir(os.path.dirname(config_path("x")))))
def test_conv_chunk_stays_within_operand_and_4096_columns(name):
    # One chunk width serves forward and backward: at most 4096 columns, and a
    # (kh*kw*O, chunk) tap stack no larger than the operand unless 1024 columns are.
    convs = list(planned_convs(plan_network(load_spec(config_path(name))), batch=64))
    assert convs
    for conv, operand_size in convs:
        rows = conv.kernel * conv.kernel * conv.out_channels
        chunk = tensor_module._chunk_columns(operand_size, rows)
        assert 0 < chunk <= 4096, (conv.name, chunk)
        assert rows * chunk <= max(operand_size, rows * 1024), (conv.name, chunk, operand_size)


def test_conv_forward_peak_stays_below_per_tap_peak():
    # The per-tap forward peaked with x, the padded operand, the grid and one
    # (O, span) tap product live: 2.89 MB here.  A 4096-column stack of all 9*O
    # tap products would be 1.80 MB, three times this 8-channel operand; cut to the
    # operand's size, the peak is about 2.7 MB.
    n, c, h, o = 16, 8, 32, 12
    hp = h + 2
    span = n * hp * hp - 2 * hp - 2
    former = 4 * (n * c * h * h + c * n * hp * hp + o * n * hp * hp + o * span)
    rng = np.random.default_rng(19)
    xd = rng.standard_normal((n, c, h, h)).astype(np.float32)
    w = Tensor(rng.standard_normal((o, c, 3, 3)).astype(np.float32))
    tracemalloc.start()
    try:
        x = Tensor(xd.copy())
        with no_grad():
            out = conv2d(x, w, padding=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (n, o, h, h)
    assert peak <= former, (peak, former)


def test_conv_backward_stack_stays_chunk_sized():
    # Unchunked, the (9*O, N*Hp*Wp) gradient stack alone would be 8.0 MB against a
    # 0.59 MB operand, and the backward peak 10.9 MB.  Chunked, the peak was 3.32 MB:
    # out's 0.79 MB gradient, the zero-led gradient grid, the operand and its gradient,
    # and one 0.44 MB stack.
    rng = np.random.default_rng(17)
    x = Tensor(rng.standard_normal((16, 8, 32, 32)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((12, 8, 3, 3)).astype(np.float32), requires_grad=True)
    g = rng.standard_normal((16, 12, 32, 32)).astype(np.float32)
    out = conv2d(x, w, padding=1)
    tracemalloc.start()
    try:
        out.backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.grad is not None and w.grad is not None
    assert peak < 3_600_000, peak


@pytest.mark.parametrize("seed", range(5))
def test_relu_matches_where_reference(seed):
    rng = np.random.default_rng(1000 + seed)
    x = rng.standard_normal((4, 6, 5, 5)).astype(np.float32)
    x.flat[::7] = 0.0
    g = rng.standard_normal(x.shape).astype(np.float32)
    xt = Tensor(x, requires_grad=True)
    out = relu(xt)
    out.backward(g)
    assert same_bits(out.data, np.where(x > 0, x, 0).astype(np.float32))
    ref_dx = np.where(x > 0, g, 0).astype(np.float32)
    np.testing.assert_array_equal(xt.grad, ref_dx)
    # g * False is -0.0 where g < 0; folding that into +0.0 leaves the bits identical
    assert same_bits(xt.grad + np.float32(0.0), ref_dx)


def batch_norm_reference(x, gamma, beta, g, eps=1e-5):
    """The former training-mode batch norm: keeps xhat, np.var, sums over g * gamma."""
    c = x.shape[1]
    g4, b4 = gamma.reshape(1, c, 1, 1), beta.reshape(1, c, 1, 1)
    mu, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu.reshape(1, c, 1, 1)) * inv.reshape(1, c, 1, 1)
    out = g4 * xhat + b4
    count = x.shape[0] * x.shape[2] * x.shape[3]
    dxhat = g * g4
    s1 = dxhat.sum(axis=(0, 2, 3), keepdims=True)
    s2 = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
    dx = (inv.reshape(1, c, 1, 1) / count) * (count * dxhat - s1 - xhat * s2)
    return out, dx, (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3)), mu, var


@pytest.mark.parametrize("seed", range(5))
def test_batch_norm_train_matches_former_formula(seed):
    rng = np.random.default_rng(1100 + seed)
    x = (rng.standard_normal((16, 6, 8, 8)) * 3.0 + 1.5).astype(np.float32)
    gamma = rng.uniform(0.5, 1.5, 6).astype(np.float32)
    beta = rng.standard_normal(6).astype(np.float32)
    g = rng.standard_normal(x.shape).astype(np.float32)
    xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
    state = BatchNormState.create(6)
    out = batch_norm(xt, gt, bt, state, training=True)
    out.backward(g)
    ref_out, ref_dx, ref_dgamma, ref_dbeta, mu, var = batch_norm_reference(x, gamma, beta, g)
    assert out.data.dtype == xt.grad.dtype == np.float32
    for got, ref in [(out.data, ref_out), (xt.grad, ref_dx), (gt.grad, ref_dgamma),
                     (bt.grad, ref_dbeta), (state.running_mean, 0.1 * mu),
                     (state.running_var, 0.9 + 0.1 * var)]:
        # the per-channel sums run over 1024 elements in another order: allow 16
        # float32 ulps of the array's largest magnitude (about 2 are seen)
        atol = 16 * np.finfo(np.float32).eps * np.abs(ref).max()
        np.testing.assert_allclose(got, ref, rtol=0, atol=atol)


def test_batch_norm_eval_matches_former_formula_bit_for_bit():
    rng = np.random.default_rng(12)
    x = (rng.standard_normal((4, 5, 6, 6)) * 2.0 - 1.0).astype(np.float32)
    gamma = rng.uniform(0.5, 1.5, 5).astype(np.float32)
    beta = rng.standard_normal(5).astype(np.float32)
    state = BatchNormState(running_mean=rng.standard_normal(5).astype(np.float32),
                           running_var=rng.uniform(0.5, 2.0, 5).astype(np.float32), steps=1)
    with no_grad():
        out = batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), state, training=False).data
    inv = (1.0 / np.sqrt(state.running_var + BN_EPS)).reshape(1, 5, 1, 1)
    ref = gamma.reshape(1, 5, 1, 1) * ((x - state.running_mean.reshape(1, 5, 1, 1)) * inv) \
        + beta.reshape(1, 5, 1, 1)
    assert same_bits(out, ref)


# ---------------------------------------------------------------------------
# batch norm with relu=True against relu(batch_norm(...))


def bn_relu_inputs(case, seed):
    """x, gamma, beta, g and a state factory for one float32 case."""
    rng = np.random.default_rng(1200 + seed)
    x = (rng.standard_normal((8, 6, 7, 7)) * 2.0 + 0.5).astype(np.float32)
    x.flat[::11] = 0.0
    gamma = rng.uniform(0.5, 1.5, 6).astype(np.float32)
    beta = (0.5 * rng.standard_normal(6)).astype(np.float32)
    g = rng.standard_normal(x.shape).astype(np.float32)
    mean = rng.standard_normal(6).astype(np.float32)
    var = rng.uniform(0.5, 2.0, 6).astype(np.float32)
    if case == "nan":
        x[3, 2, 4, 1] = np.nan
    if case == "constant_channel":
        x[:, 4] = 2.5
    if case.startswith("eval"):
        stat = np.float64 if case == "eval_float64_stats" else np.float32
        return x, gamma, beta, g, lambda: BatchNormState(mean.astype(stat), var.astype(stat),
                                                         steps=1)
    return x, gamma, beta, g, lambda: BatchNormState.create(6)


def run_bn_relu(x, gamma, beta, g, state, training, fused):
    xt, gt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, gamma, beta))
    if fused:
        out = batch_norm(xt, gt, bt, state, training, relu=True)
        assert out._parents == (xt, gt, bt)
    else:
        out = relu(batch_norm(xt, gt, bt, state, training))
    out.backward(g)
    return [out.data, xt.grad, gt.grad, bt.grad, state.running_mean, state.running_var]


@pytest.mark.parametrize("case", ["train", "eval", "eval_float64_stats", "nan",
                                  "constant_channel"])
@pytest.mark.parametrize("seed", range(4))
def test_fused_bn_relu_matches_relu_of_batch_norm_bit_for_bit(case, seed):
    x, gamma, beta, g, make_state = bn_relu_inputs(case, seed)
    training = not case.startswith("eval")
    fused = run_bn_relu(x, gamma, beta, g, make_state(), training, fused=True)
    pair = run_bn_relu(x, gamma, beta, g, make_state(), training, fused=False)
    for got, ref in zip(fused, pair):
        assert same_bits(got, ref)
    if case == "nan":
        assert np.isnan(fused[0][:, 2]).all()


# ---------------------------------------------------------------------------
# batch norm over a list of parts against batch norm over their concat

# The first part has one channel: numpy sums the planes of a one-channel
# array in another order than those of a wider one.  Split between two
# shares, the 6 channels are cut at 3: "1+4+1" straddles the cut, and "1+3+2"
# would leave one channel of its middle part alone, so the cut moves to 4.
PART_CHANNELS = ((0, 1), (1, 4), (4, 6))
SPLITS = {"1+3+2": PART_CHANNELS, "1x6": tuple((i, i + 1) for i in range(6)),
          "5+1": ((0, 5), (5, 6)), "1+4+1": ((0, 1), (1, 5), (5, 6)), "6": ((0, 6),)}


def run_bn_of_parts(x, gamma, beta, g, state, training, relu_on, parts_of, listed):
    parts = [Tensor(x[:, lo:hi].copy(), requires_grad=True) for lo, hi in parts_of]
    gt, bt = (Tensor(a.copy(), requires_grad=True) for a in (gamma, beta))
    if listed:
        out = batch_norm(parts, gt, bt, state, training, relu=relu_on)
        assert out._parents == (*parts, gt, bt)
    else:
        out = batch_norm(aggregate("concat", parts), gt, bt, state, training, relu=relu_on)
    out.backward(g)
    if listed:  # each part's gradient was built for it, not sliced from a shared one
        assert all(p.grad.base is None for p in parts)
    return [out.data, *(p.grad for p in parts), gt.grad, bt.grad, state.running_mean,
            state.running_var]


@pytest.mark.usefixtures("split_paths")
@pytest.mark.parametrize("split", sorted(SPLITS))
@pytest.mark.parametrize("relu_on", [True, False])
@pytest.mark.parametrize("case", ["train", "eval", "eval_float64_stats", "nan",
                                  "constant_channel"])
@pytest.mark.parametrize("seed", range(3))
def test_batch_norm_of_parts_matches_batch_norm_of_concat_bit_for_bit(case, relu_on, split, seed):
    x, gamma, beta, g, make_state = bn_relu_inputs(case, seed)
    training = not case.startswith("eval")
    parts_of = SPLITS[split]
    listed = run_bn_of_parts(x, gamma, beta, g, make_state(), training, relu_on, parts_of, True)
    concat = run_bn_of_parts(x, gamma, beta, g, make_state(), training, relu_on, parts_of, False)
    for got, ref in zip(listed, concat):
        assert same_bits(got, ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(64, 136, 32, 32), (8, 5, 7, 7), (4, 2, 56, 56)])
def test_per_plane_then_images_sums_match_whole_array_reductions_bit_for_bit(shape, dtype):
    # batch_norm sums each (image, channel) plane and then the images in
    # order; numpy's whole-array mean and einsum over two or more channels
    # give the same bits, for any split into parts and in a channel-major
    # copy.  A numpy whose reductions change order fails here by name.
    rng = np.random.default_rng(31)
    x = (rng.standard_normal(shape) * 2.0 + 0.5).astype(dtype)
    g = rng.standard_normal(shape).astype(dtype)
    n, c, h, w = shape
    over = tensor_module._over_images
    means = x.mean(axis=(0, 2, 3))
    squares = np.einsum("nchw,nchw->c", x, x)
    sums_g = np.einsum("nchw->c", g)
    sums_gx = np.einsum("nchw,nchw->c", g, x)
    for split in ([(0, c)], [(0, 1), (1, c)], [(lo, lo + 1) for lo in range(c)]):
        got = {"mean": [], "squares": [], "g": [], "gx": []}
        for lo, hi in split:
            part, gp = x[:, lo:hi].copy(), g[:, lo:hi]  # as batch_norm reads them
            got["mean"].append(over(part.sum(axis=(2, 3))))
            got["squares"].append(over(np.einsum("nchw,nchw->nc", part, part)))
            got["g"].append(over(np.einsum("nchw->nc", gp)))
            got["gx"].append(over(np.einsum("nchw,nchw->nc", gp, part)))
        got = {k: np.concatenate(v) for k, v in got.items()}
        np.true_divide(got["mean"], np.intp(n * h * w), out=got["mean"], casting="unsafe")
        for name, ref in [("mean", means), ("squares", squares), ("g", sums_g), ("gx", sums_gx)]:
            assert same_bits(got[name], ref), (name, len(split))
    xc = np.ascontiguousarray(x.transpose(1, 0, 2, 3))
    gc = np.ascontiguousarray(g.transpose(1, 0, 2, 3))
    assert same_bits(over(np.einsum("cnhw,cnhw->cn", xc, xc).T), squares)
    assert same_bits(over(np.einsum("cnhw->cn", gc).T), sums_g)
    assert same_bits(over(np.einsum("cnhw,cnhw->cn", gc, xc).T), sums_gx)
    assert same_bits(over(xc.sum(axis=(2, 3)).T), over(x.sum(axis=(2, 3))))


def test_training_batch_norm_of_parts_centres_one_part_at_a_time():
    # 13 parts written into a margined operand.  The forward used to centre
    # the whole batch in one buffer first: a peak of 1.89x the operand, and
    # 1.09x with one part-sized buffer.
    rng = np.random.default_rng(32)
    widths = [16] + [12] * 12
    parts = [Tensor(rng.standard_normal((16, k, 32, 32)).astype(np.float32), requires_grad=True)
             for k in widths]
    c = sum(widths)
    gamma = Tensor(np.ones(c, np.float32), requires_grad=True)
    beta = Tensor(np.zeros(c, np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        out = batch_norm(parts, gamma, beta, BatchNormState.create(c), training=True, relu=True,
                         margin=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    operand = out._rebuild.operand
    assert operand.shape == (c, 16, 34, 34)
    assert peak < 1.25 * operand.nbytes, peak / operand.nbytes


def test_batch_norm_rejects_parts_that_cannot_be_joined():
    gamma, beta = t64(np.ones(4)), t64(np.zeros(4))
    state = BatchNormState.create(4, dtype=np.float64)
    a = t64(np.zeros((2, 2, 3, 3)))
    for b in (t64(np.zeros((2, 2, 3, 4))), t64(np.zeros((1, 2, 3, 3))),
              Tensor(np.zeros((2, 2, 3, 3), np.float32))):
        with pytest.raises(ValueError, match="agree"):
            batch_norm([a, b], gamma, beta, state, training=True)
    with pytest.raises(ValueError, match="mismatch for 6 channels"):
        batch_norm([a, a, a], gamma, beta, state, training=True)


# ---------------------------------------------------------------------------
# ops split between the calling thread and a worker


def pieces_of(widths, shares=2):
    """Each share's (part, start, stop) channel pieces of parts of these widths."""
    bounds = np.cumsum([0, *widths]).tolist()
    spans = list(zip(range(len(widths)), bounds[:-1], bounds[1:]))
    return [[(part, a, b) for part, _, a, b in share]
            for share in tensor_module._pieces(spans, bounds[-1], shares)]


def test_channel_cut_never_leaves_one_channel_of_a_wider_part_alone():
    assert pieces_of([6]) == [[(0, 0, 3)], [(0, 3, 6)]]
    assert pieces_of([1, 4, 1]) == [[(0, 0, 1), (1, 1, 3)], [(1, 3, 5), (2, 5, 6)]]
    assert pieces_of([1, 3, 2]) == [[(0, 0, 1), (1, 1, 4)], [(2, 4, 6)]]
    assert pieces_of([3]) == [[], [(0, 0, 3)]]
    assert pieces_of([2, 2, 2], shares=3) == [[(0, 0, 2)], [(1, 2, 4)], [(2, 4, 6)]]


@pytest.mark.parametrize("n,image_bytes", [(64, 48 * 1024), (64, 4096), (5, 10**6), (3, 33124),
                                           (2, 10**7), (1, 10**7), (7, 1)])
def test_batch_norm_blocks_cover_the_images_two_or_more_at_a_time(n, image_bytes):
    blocks = tensor_module._blocks(n, image_bytes)
    assert [i for i, _ in blocks[1:]] == [j for _, j in blocks[:-1]]
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert all(j - i >= min(2, n) for i, j in blocks)
    assert blocks[0][1] == max(j - i for i, j in blocks)  # the buffer is sized by the first


@pytest.mark.parametrize("widths", [(3,), (1, 2), (5,)])
def test_split_batch_norm_of_one_image_keeps_the_inline_bits(monkeypatch, widths):
    # einsum sums a lone plane of more than 8192 elements in another order than
    # two or more; at batch 1, a one-channel piece of a wider part would be one.
    rng = np.random.default_rng(42)
    c = sum(widths)
    x = (rng.standard_normal((1, c, 91, 91)) * 2.0 + 0.5).astype(np.float32)
    gamma = rng.uniform(0.5, 1.5, c).astype(np.float32)
    beta = rng.standard_normal(c).astype(np.float32)
    g = rng.standard_normal(x.shape).astype(np.float32)
    bounds = np.cumsum([0, *widths])
    monkeypatch.setattr(tensor_module, "_SPLIT_BYTES", 0)
    results = []
    for workers in (0, 1):
        monkeypatch.setattr(tensor_module, "_WORKERS", workers)
        state = BatchNormState.create(c)
        parts_of = tuple(zip(bounds[:-1], bounds[1:]))
        results.append(run_bn_of_parts(x, gamma, beta, g, state, True, True, parts_of, True))
    for got, ref in zip(*results):
        assert same_bits(got, ref)


def test_an_error_in_a_worker_reaches_the_caller_and_the_next_split_completes(monkeypatch):
    monkeypatch.setattr(tensor_module, "_WORKERS", 1)
    monkeypatch.setattr(tensor_module, "_SPLIT_BYTES", 0)
    rng = np.random.default_rng(43)

    def conv_backward():
        x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32), requires_grad=True)
        conv2d(x, w, padding=1).backward(np.ones((2, 4, 6, 6), np.float32))
        return x.grad, w.grad

    caller, col2im = threading.get_ident(), K.col2im

    def broken(grad, padding):  # each share folds its own channels
        if threading.get_ident() == caller:
            return col2im(grad, padding)
        raise RuntimeError("fold failed on a worker")

    monkeypatch.setattr(K, "col2im", broken)
    with pytest.raises(RuntimeError, match="fold failed on a worker"):
        conv_backward()
    monkeypatch.setattr(K, "col2im", col2im)
    done = []
    runner = threading.Thread(target=lambda: done.append(conv_backward()), daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert done, "the conv backward after the failed one did not complete"
    assert all(grad is not None for grad in done[0])


# Two threads each run 1000 conv backwards in four shares on a pool of three
# workers, switching as often as the interpreter can, and check the inline bits.
TWO_CALLERS = """
import sys, threading
import numpy as np
from sparseagg import tensor as T
from sparseagg.tensor import Tensor, conv2d
T._SPLIT_BYTES = 0
rng = np.random.default_rng(44)
xd = rng.standard_normal((4, 6, 8, 8)).astype(np.float32)
wd = rng.standard_normal((5, 6, 3, 3)).astype(np.float32)
gd = rng.standard_normal((4, 5, 8, 8)).astype(np.float32)

def conv_backward(times):
    x, w = Tensor(xd.copy(), requires_grad=True), Tensor(wd.copy(), requires_grad=True)
    for _ in range(times):
        x.grad = w.grad = None
        conv2d(x, w, padding=1).backward(gd.copy())
    return x.grad.tobytes() + w.grad.tobytes()

T._WORKERS = 0
ref = conv_backward(1)
T._WORKERS = 3
sys.setswitchinterval(1e-6)
results = []
runners = [threading.Thread(target=lambda: results.append(conv_backward(1000))) for _ in range(2)]
for runner in runners:
    runner.start()
for runner in runners:
    runner.join()
assert results == [ref, ref]
"""


def test_conv_backwards_on_two_threads_at_once_complete_with_the_inline_bits():
    # Two splits at once could fill the pool with shares that wait at their
    # barriers for shares queued behind them: without _SPLIT_LOCK, 3 of 4
    # pairs of 400 backwards hung.  A child process, because pool workers
    # stuck at a barrier would keep the interpreter from exiting.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tensor_module.__file__)))
    try:
        done = subprocess.run([sys.executable, "-c", TWO_CALLERS], env=env,
                              capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        pytest.fail("two conv backwards at once hung")
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# a conv's BnRelu input, released after the conv and rebuilt in its backward

PAIR_PARTS = {"one": ((0, 6),), "many": PART_CHANNELS}
PAIR_CONVS = [(1, 1, 0), (1, 2, 0), (3, 1, 1), (3, 2, 1)]
GRAD_FLAGS = [(parts, w, gamma) for parts in (True, False) for w in (True, False)
              for gamma in (True, False)]


def same_or_none(a, b):
    return (a is None and b is None) or (a is not None and b is not None and same_bits(a, b))


def bn_relu_conv(case, seed, parts_of, conv, flags, released, margin=None, relu_on=True):
    """The graph of conv2d(batch_norm(parts, ..., relu_on, margin), w), its leaves and a seed gradient.

    With ``released`` the BnRelu output's array is dropped after the conv,
    as ``Network`` does, and the conv's backward rebuilds it.
    """
    x, gamma, beta, _, make_state = bn_relu_inputs(case, seed)
    k, stride, padding = conv
    rng = np.random.default_rng(1300 + seed)
    w = (rng.standard_normal((5, 6, k, k)) * 0.3).astype(np.float32)
    parts = [Tensor(x[:, lo:hi].copy(), requires_grad=flags[0]) for lo, hi in parts_of]
    wt = Tensor(w, requires_grad=flags[1])
    gt = Tensor(gamma.copy(), requires_grad=flags[2])
    bt = Tensor(beta.copy(), requires_grad=True)
    state = make_state()
    y = batch_norm(parts, gt, bt, state, not case.startswith("eval"), relu=relu_on, margin=margin)
    out = conv2d(y, wt, stride, padding)
    if released:
        tensor_module._release(y)
        assert y.data is None
    g = rng.standard_normal(out.shape).astype(np.float32)
    return (*parts, wt, gt, bt), state, y, out, g


def run_bn_relu_conv(*args, **kwargs):
    """Outputs, gradients and statistics after one backward sweep of ``bn_relu_conv``."""
    leaves, state, y, out, g = bn_relu_conv(*args, **kwargs)
    out.backward(g)
    return [out.data, y.data, *(t.grad for t in leaves), state.running_mean, state.running_var]


@pytest.mark.parametrize("flags", GRAD_FLAGS, ids=lambda f: "parts{}-w{}-gamma{}".format(*map(int, f)))
@pytest.mark.parametrize("conv", PAIR_CONVS, ids=lambda c: "k{}s{}".format(*c))
@pytest.mark.parametrize("parts_of", sorted(PAIR_PARTS))
@pytest.mark.parametrize("case", ["train", "eval"])
@pytest.mark.parametrize("margin", ["none", "same", "other"])
@pytest.mark.parametrize("relu_on", [True, False], ids=["relu", "no_relu"])
def test_released_bn_relu_conv_matches_kept_bit_for_bit(relu_on, margin, case, parts_of, conv,
                                                        flags):
    # Released, and with the batch-norm output written into the conv's operand
    # ("same") or into an operand of another padding that the conv does not
    # read ("other"), against the output kept as a plain NCHW array; with
    # and without the ReLU.
    margin = {"none": None, "same": conv[2], "other": conv[2] + 1}[margin]
    kept = run_bn_relu_conv(case, 0, PAIR_PARTS[parts_of], conv, flags, released=False,
                            relu_on=relu_on)
    released = run_bn_relu_conv(case, 0, PAIR_PARTS[parts_of], conv, flags, released=True,
                                margin=margin, relu_on=relu_on)
    for got, ref in zip(released, kept):
        assert same_or_none(got, ref)


@pytest.mark.parametrize("case", ["train", "eval"])
def test_released_pair_backward_twice_without_free_graph_matches_one_sweep(case):
    # The first sweep rebuilds x; the second finds it rebuilt already.  Both
    # build each part's xhat from the part, in the buffer of its dx.
    pair = (case, 1, PART_CHANNELS, (3, 1, 1), (True,) * 3)
    ref = run_bn_relu_conv(*pair, released=True)[:-2]
    leaves, _, y, out, g = bn_relu_conv(*pair, released=True)
    for _ in range(2):
        for t in (*leaves, y, out):
            t.zero_grad()
        out.backward(g, free_graph=False)
        got = [out.data, y.data, *(t.grad for t in leaves)]
        assert all(same_bits(a, b) for a, b in zip(got, ref))


def test_conv_gathers_an_unmarked_view_of_a_margined_array(monkeypatch):
    # A view laid out as a conv operand's interior, but not written by
    # batch_norm: its margins hold data, and the conv must not read them.
    rng = np.random.default_rng(23)
    base = rng.standard_normal((4, 3, 9, 9)).astype(np.float32)  # (C, N, H+2, W+2), margin 1
    view = base[:, :, 1:-1, 1:-1].transpose(1, 0, 2, 3)
    w = rng.standard_normal((5, 4, 3, 3)).astype(np.float32)
    g = rng.standard_normal((3, 5, 7, 7)).astype(np.float32)
    gathered = []
    monkeypatch.setattr(K, "im2col", lambda *args: gathered.append(1) or im2col(*args))
    results = []
    for data in (view, np.ascontiguousarray(view)):
        xt, wt = Tensor(data, requires_grad=True), Tensor(w.copy(), requires_grad=True)
        out = conv2d(xt, wt, padding=1)
        out.backward(g.copy())
        results.append([out.data, xt.grad, wt.grad])
    assert len(gathered) == 4  # forward and backward, for each input
    assert all(same_bits(a, b) for a, b in zip(*results))


def test_accumulate_grad_copies_into_c_order():
    x, gamma, beta, _, make_state = bn_relu_inputs("train", 0)
    y = batch_norm(Tensor(x, requires_grad=True), Tensor(gamma), Tensor(beta), make_state(),
                   True, relu=True, margin=1)
    assert not y.data.flags.c_contiguous  # a view of the channel-major operand
    g = np.random.default_rng(4).standard_normal((8, 12, 7, 7)).astype(np.float32)[:, ::2]
    y.accumulate_grad(g)
    assert y.grad.flags.c_contiguous and same_bits(y.grad, g)


def test_a_released_array_that_nothing_can_rebuild_fails_loudly():
    # A conv's output has no make(), nor has a batch-norm output recorded
    # without a graph: once released, a read raises and names the shape.
    x, gamma, beta, _, make_state = bn_relu_inputs("train", 2)
    rng = np.random.default_rng(5)
    w1 = Tensor(rng.standard_normal((4, 6, 3, 3)).astype(np.float32), requires_grad=True)
    w2 = Tensor(rng.standard_normal((2, 4, 1, 1)).astype(np.float32), requires_grad=True)
    h = conv2d(Tensor(x), w1, padding=1)
    out = conv2d(h, w2)
    tensor_module._release(h)
    assert h.data is None
    assert repr(h) == "Tensor(shape=(8, 4, 7, 7), dtype=float32, requires_grad=True)"
    with pytest.raises(RuntimeError, match=r"\(8, 4, 7, 7\) float32 array .* released"):
        out.backward(np.ones(out.shape, np.float32))
    with no_grad():
        y = batch_norm(*(Tensor(a) for a in (x, gamma, beta)), make_state(), True, relu=True)
    tensor_module._release(y)
    assert y.data is None and y._rebuild.out is None
    with pytest.raises(RuntimeError, match=r"\(8, 6, 7, 7\) float32"):
        tensor_module._data(y)


# ---------------------------------------------------------------------------
# finite-difference checks, 20 seeds per op


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_conv(seed):
    rng = np.random.default_rng(seed)
    x = rand64(rng, (2, 3, 6, 6))
    w = rand64(rng, (4, 3, 3, 3))
    proj = rng.standard_normal((2, 4, 6, 6))
    report = check_gradients(lambda a, b: weighted_sum(conv2d(a, b, padding=1), proj), [x, w])
    assert report.passed, report.max_rel_error


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_conv_strided(seed):
    rng = np.random.default_rng(100 + seed)
    x = rand64(rng, (1, 2, 7, 7))
    w = rand64(rng, (3, 2, 3, 3))
    proj = rng.standard_normal((1, 3, 4, 4))
    report = check_gradients(lambda a, b: weighted_sum(conv2d(a, b, stride=2, padding=1), proj),
                             [x, w])
    assert report.passed, report.max_rel_error


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_batch_norm(seed):
    rng = np.random.default_rng(200 + seed)
    x = rand64(rng, (2, 4, 5, 5))
    gamma = t64(rng.uniform(0.5, 1.5, 4))
    beta = rand64(rng, (4,))
    proj = rng.standard_normal((2, 4, 5, 5))
    state = BatchNormState.create(4, dtype=np.float64)
    report = check_gradients(
        lambda a, g, b: weighted_sum(batch_norm(a, g, b, state, training=True), proj),
        [x, gamma, beta], tolerance=1e-6)
    assert report.passed, report.max_rel_error


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_relu_away_from_kink(seed):
    rng = np.random.default_rng(300 + seed)
    raw = rng.standard_normal((2, 3, 4, 4))
    raw = np.where(np.abs(raw) < 0.1, raw + 0.3 * np.sign(raw + 0.5), raw)
    proj = rng.standard_normal(raw.shape)
    report = check_gradients(lambda a: weighted_sum(relu(a), proj), [t64(raw)])
    assert report.passed, report.max_rel_error


def bn_relu_away_from_kink(rng, training):
    """Float64 x, gamma, beta and state whose pre-ReLU output stays 0.02 or more from 0.

    Each channel's batch holds values z and -z with 0.3 <= |z| <= 2, so
    training normalizes them to |xhat| >= 0.15; eval maps x back from z.
    """
    c = 3
    half = rng.uniform(0.3, 2.0, (2, c, 3, 3)) * rng.choice([-1.0, 1.0], (2, c, 3, 3))
    z = np.concatenate([half, -half])
    gamma, beta = rng.uniform(0.5, 1.5, c), rng.uniform(-0.05, 0.05, c)
    if training:
        state = BatchNormState.create(c, dtype=np.float64)
        x = z * rng.uniform(0.5, 2.0, (1, c, 1, 1)) + rng.standard_normal((1, c, 1, 1))
    else:
        state = BatchNormState(rng.standard_normal(c), rng.uniform(0.5, 2.0, c), steps=1)
        x = z * np.sqrt(state.running_var + BN_EPS).reshape(1, c, 1, 1) \
            + state.running_mean.reshape(1, c, 1, 1)
    with no_grad():
        probe = BatchNormState(state.running_mean.copy(), state.running_var.copy(), steps=1)
        pre = batch_norm(t64(x), t64(gamma), t64(beta), probe, training).data
    assert np.abs(pre).min() >= 0.02
    return t64(x), t64(gamma), t64(beta), state


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("seed", SEEDS)
def test_fd_fused_bn_relu(training, seed):
    rng = np.random.default_rng(250 + seed)
    x, gamma, beta, state = bn_relu_away_from_kink(rng, training)
    proj = rng.standard_normal(x.shape)
    report = check_gradients(
        lambda a, g, b: weighted_sum(batch_norm(a, g, b, state, training, relu=True), proj),
        [x, gamma, beta], tolerance=1e-6)
    assert report.passed, report.max_rel_error


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("seed", SEEDS)
def test_fd_batch_norm_of_parts(training, seed):
    rng = np.random.default_rng(280 + seed)
    parts = [rand64(rng, (2, hi - lo, 4, 4)) for lo, hi in PART_CHANNELS]
    gamma = t64(rng.uniform(0.5, 1.5, 6))
    beta = rand64(rng, (6,))
    proj = rng.standard_normal((2, 6, 4, 4))
    state = BatchNormState(rng.standard_normal(6), rng.uniform(0.5, 2.0, 6), steps=1)
    report = check_gradients(
        lambda a, b, c, g, bb: weighted_sum(batch_norm([a, b, c], g, bb, state, training), proj),
        [*parts, gamma, beta], tolerance=1e-6)
    assert report.passed, report.max_rel_error


@pytest.mark.parametrize("margin", [None, 1, 2], ids=["none", "same", "other"])
@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("seed", range(10))
def test_fd_released_bn_relu_conv(training, seed, margin):
    rng = np.random.default_rng(330 + seed)
    x, gamma, beta, state = bn_relu_away_from_kink(rng, training)
    parts = [t64(x.data[:, :1].copy()), t64(x.data[:, 1:].copy())]  # one channel, and two
    w = rand64(rng, (2, 3, 3, 3))
    proj = rng.standard_normal((4, 2, 3, 3))

    def fn(a, b, ww, g, bb):
        y = batch_norm([a, b], g, bb, state, training, relu=True, margin=margin)
        out = conv2d(y, ww, padding=1)
        tensor_module._release(y)
        return weighted_sum(out, proj)

    report = check_gradients(fn, [*parts, w, gamma, beta], tolerance=1e-6)
    assert report.passed, report.max_rel_error


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_pools(seed):
    rng = np.random.default_rng(400 + seed)
    x = rand64(rng, (2, 2, 6, 6))
    proj_a = rng.standard_normal((2, 2, 3, 3))
    report = check_gradients(lambda a: weighted_sum(avg_pool2d(a, 2), proj_a[:, :, :3, :3]),
                             [x])
    assert report.passed, report.max_rel_error

    x2 = rand64(rng, (2, 2, 6, 6))
    report = check_gradients(lambda a: weighted_sum(max_pool2d(a, 2, 2), proj_a), [x2])
    assert report.passed, report.max_rel_error

    x3 = rand64(rng, (1, 3, 5, 5))
    proj_c = rng.standard_normal((1, 3))
    report = check_gradients(lambda a: weighted_sum(global_avg_pool(a), proj_c), [x3])
    assert report.passed, report.max_rel_error


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_linear_tight(seed):
    rng = np.random.default_rng(500 + seed)
    x = rand64(rng, (4, 6))
    w = rand64(rng, (6, 3))
    b = rand64(rng, (3,))
    proj = rng.standard_normal((4, 3))
    report = check_gradients(lambda a, ww, bb: weighted_sum(linear(a, ww, bb), proj),
                             [x, w, b], tolerance=1e-7)
    assert report.passed, report.max_rel_error


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_cross_entropy(seed):
    rng = np.random.default_rng(600 + seed)
    logits = rand64(rng, (5, 10))
    labels = rng.integers(0, 10, size=5)
    report = check_gradients(lambda a: softmax_cross_entropy(a, labels), [logits])
    assert report.passed, report.max_rel_error


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_aggregate(seed):
    rng = np.random.default_rng(700 + seed)
    proj36 = rng.standard_normal((1, 9, 2, 2))
    parts = [rand64(rng, (1, 3, 2, 2)) for _ in range(3)]
    report = check_gradients(
        lambda a, b, c: weighted_sum(aggregate("concat", [a, b, c]), proj36), parts)
    assert report.passed, report.max_rel_error

    proj3 = rng.standard_normal((1, 3, 2, 2))
    parts = [rand64(rng, (1, 3, 2, 2)) for _ in range(3)]
    report = check_gradients(
        lambda a, b, c: weighted_sum(aggregate("sum", [a, b, c]), proj3), parts)
    assert report.passed, report.max_rel_error


@pytest.mark.parametrize("seed", SEEDS)
def test_fd_conv_relu_pool_chain(seed):
    rng = np.random.default_rng(800 + seed)
    x = rand64(rng, (2, 2, 6, 6))
    w = rand64(rng, (3, 2, 3, 3))
    proj = rng.standard_normal((2, 3, 3, 3))

    def f(a, b):
        return weighted_sum(avg_pool2d(relu(conv2d(a, b, padding=1)), 2), proj)

    report = check_gradients(f, [x, w])
    assert report.passed, report.max_rel_error


def test_gradcheck_rejects_wrong_gradients():
    # a backward that scales by 3 instead of 2 must fail at every step size
    def doubled_with_bad_backward(t):
        out = Tensor(t.data * 2.0, requires_grad=True)
        out._parents = (t,)

        def backward(g):
            t.accumulate_grad(g * 3.0)

        out._backward = backward
        return out

    rng = np.random.default_rng(42)
    x = rand64(rng, (2, 3))
    proj = rng.standard_normal((2, 3))
    report = check_gradients(lambda a: weighted_sum(doubled_with_bad_backward(a), proj), [x])
    assert not report.passed
    assert report.max_rel_error > 0.1


def test_fd_constant_function_has_exact_zero_gradient():
    rng = np.random.default_rng(9)
    x = rand64(rng, (2, 3, 4, 4))
    report = check_gradients(lambda a: weighted_sum(a, np.zeros(a.shape)), [x])
    assert report.max_rel_error == 0.0
    weighted_sum(x, np.zeros(x.shape)).backward()
    assert np.all(x.grad == 0.0)


# ---------------------------------------------------------------------------
# array serialization


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    for dtype in (np.float32, np.float64):
        arr = rng.standard_normal((3, 4, 5)).astype(dtype)
        save_array(arr, tmp_path / f"arr_{arr.dtype}")
        back = load_array(tmp_path / f"arr_{arr.dtype}")
        assert back.dtype == dtype
        np.testing.assert_array_equal(back, arr)


@pytest.mark.parametrize("delta", [-4, -1, 4])
def test_load_array_rejects_wrong_byte_count(tmp_path, delta):
    save_array(np.arange(6, dtype=np.float32).reshape(2, 3), tmp_path / "arr")
    raw = (tmp_path / "arr.bin").read_bytes()
    fixed = raw[:delta] if delta < 0 else raw + bytes(delta)
    (tmp_path / "arr.bin").write_bytes(fixed)
    with pytest.raises(CheckpointError):
        load_array(tmp_path / "arr")


@pytest.mark.parametrize("sidecar", [
    '{"shape": [2], "dtype": "int8"}',
    '{"shape": [-2], "dtype": "float32"}',
    '{"shape": "2", "dtype": "float32"}',
    '[2, 2]',
    '{"shape": [2]',
])
def test_load_array_rejects_malformed_sidecar(tmp_path, sidecar):
    save_array(np.zeros(2, dtype=np.float32), tmp_path / "arr")
    (tmp_path / "arr.json").write_text(sidecar)
    with pytest.raises(CheckpointError):
        load_array(tmp_path / "arr")


@contextmanager
def debug(enabled):
    previous = tensor_module._DEBUG
    set_debug(enabled)
    try:
        yield
    finally:
        set_debug(previous)


def nan_input_and_fresh_batch_norm():
    x = Tensor(np.array([[[[1.0, np.nan]]]], dtype=np.float32))
    ones, zeros = Tensor(np.ones(1, np.float32)), Tensor(np.zeros(1, np.float32))
    return x, lambda: batch_norm(Tensor(np.ones((2, 1, 2, 2), np.float32)), ones, zeros,
                                 BatchNormState.create(1), training=False)


def test_debug_mode_names_non_finite_op_and_warns_on_untrained_batch_norm():
    x, eval_bn = nan_input_and_fresh_batch_norm()
    with debug(True):
        with pytest.raises(NonFiniteError, match="relu"):
            relu(x)
        with pytest.warns(RuntimeWarning, match="before any training step"):
            eval_bn()


def test_debug_mode_off_neither_raises_nor_warns():
    x, eval_bn = nan_input_and_fresh_batch_norm()
    with debug(False), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(relu(x).data).any()
        eval_bn()
