from unittest import mock

import numpy as np
import pytest

from sparseagg import _kernels as K
from sparseagg.tensor import BatchNormState, Tensor, batch_norm, conv2d, max_pool2d

CONV_CASES = [
    # (n, c, h, w, kh, kw, stride) with h, w already padded
    (2, 3, 8, 8, 3, 3, 1),
    (1, 4, 7, 7, 3, 3, 2),
    (2, 2, 5, 5, 1, 1, 1),
    (1, 1, 9, 9, 5, 5, 2),
    (3, 5, 6, 6, 2, 2, 2),
]

POOL_CASES = [
    # (n, c, h, w, kernel, stride, padding)
    (2, 3, 8, 8, 2, 2, 0),
    (1, 2, 7, 7, 3, 2, 1),
    (2, 1, 5, 5, 3, 1, 1),
    (1, 4, 6, 6, 2, 2, 1),
]


def out_size(h, k, stride):
    return (h - k) // stride + 1


def im2col_ref(x, kh, kw, stride, oh, ow):
    n, c, _, _ = x.shape
    cols = np.zeros((c * kh * kw, n * oh * ow), dtype=x.dtype)
    for ci in range(c):
        for ky in range(kh):
            for kx in range(kw):
                r = (ci * kh + ky) * kw + kx
                for ni in range(n):
                    for oy in range(oh):
                        for ox in range(ow):
                            m = (ni * oh + oy) * ow + ox
                            cols[r, m] = x[ni, ci, oy * stride + ky, ox * stride + kx]
    return cols


def unpadded(rng, n, c, h, w, padding):
    return rng.standard_normal((n, c, h - 2 * padding, w - 2 * padding))


@pytest.mark.parametrize("n,c,h,w,kh,kw,stride", CONV_CASES)
def test_im2col_matches_reference(n, c, h, w, kh, kw, stride):
    # Tap (ky, kx) of conv2d reads the flat operand at offset ky*w + kx; on the
    # stride-s corner of the grid that view is exactly the tap's patch rows.
    rng = np.random.default_rng(0)
    padding = 1
    x = unpadded(rng, n, c, h, w, padding)
    operand = K.im2col(x, padding)
    assert operand.shape == (c, n, h, w) and operand.flags.c_contiguous
    flat = operand.reshape(c, -1)
    oh, ow = out_size(h, kh, stride), out_size(w, kw, stride)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = im2col_ref(xp, kh, kw, stride, oh, ow)
    span = n * h * w - (kh - 1) * w - (kw - 1)
    for ky in range(kh):
        for kx in range(kw):
            grid = np.zeros_like(flat)
            grid[:, :span] = flat[:, ky * w + kx:ky * w + kx + span]
            corner = grid.reshape(c, n, h, w)[:, :, :stride * oh:stride, :stride * ow:stride]
            rows = cols.reshape(c, kh, kw, -1)[:, ky, kx]
            np.testing.assert_array_equal(corner.reshape(c, -1), rows)


@pytest.mark.parametrize("n,c,h,w,kh,kw,stride", CONV_CASES)
def test_col2im_is_adjoint_of_im2col(n, c, h, w, kh, kw, stride):
    # <im2col(x), y> == <x, col2im(y)> pins the fold against the gather
    rng = np.random.default_rng(3)
    padding = kh // 2
    x = unpadded(rng, n, c, h, w, padding)
    y = rng.standard_normal((c, n, h, w))
    lhs = float(np.sum(K.im2col(x, padding) * y))
    rhs = float(np.sum(x * K.col2im(y, padding)))
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


@pytest.mark.parametrize("padding", [1, 3])
def test_im2col_margins_are_zero(padding):
    x = np.random.default_rng(5).uniform(1.0, 2.0, (2, 3, 4, 5))
    operand = K.im2col(x, padding)
    inner = np.zeros(operand.shape, dtype=bool)
    inner[:, :, padding:-padding, padding:-padding] = True
    assert np.all(operand[~inner] == 0.0)
    assert np.all(operand[inner] >= 1.0)


def test_pointwise_round_trip_is_identity():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 5, 5))
    operand = K.im2col(x, 0)
    np.testing.assert_array_equal(operand, x.transpose(1, 0, 2, 3))
    np.testing.assert_array_equal(K.col2im(operand, 0), x)
    np.testing.assert_array_equal(K.col2im(K.im2col(x, 2), 2), x)


def test_col2im_counts_patch_coverage():
    # conv2d's input gradient adds every tap into the operand buffer and folds it
    h = w = 4
    x = Tensor(np.ones((1, 1, h, w)), requires_grad=True)
    out = conv2d(x, Tensor(np.ones((1, 1, 3, 3))))
    out.backward(np.ones(out.shape))
    expected = np.array([[1, 2, 2, 1],
                         [2, 4, 4, 2],
                         [2, 4, 4, 2],
                         [1, 2, 2, 1]], dtype=float)
    np.testing.assert_array_equal(x.grad[0, 0], expected)


def maxpool_ref(x, kernel, stride, padding):
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    out = np.full((n, c, oh, ow), -np.inf, dtype=x.dtype)
    arg = np.zeros((n, c, oh, ow), dtype=np.int64)
    for ni in range(n):
        for ci in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    for ky in range(kernel):
                        for kx in range(kernel):
                            y = oy * stride + ky - padding
                            xq = ox * stride + kx - padding
                            if 0 <= y < h and 0 <= xq < w:
                                v = x[ni, ci, y, xq]
                                if v > out[ni, ci, oy, ox]:
                                    out[ni, ci, oy, ox] = v
                                    arg[ni, ci, oy, ox] = ky * kernel + kx
    return out, arg


def pool_and_route(x, kernel, stride, padding, g=None):
    """max_pool2d's output and the input gradient it routes back (default: ones)."""
    t = Tensor(x, requires_grad=True)
    out = max_pool2d(t, kernel, stride, padding)
    out.backward(np.ones(out.shape, dtype=x.dtype) if g is None else g)
    return out.data, t.grad


@pytest.mark.parametrize("n,c,h,w,kernel,stride,padding", POOL_CASES)
def test_maxpool_forward_matches_reference(n, c, h, w, kernel, stride, padding):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((n, c, h, w))
    g = rng.standard_normal((n, c, out_size(h + 2 * padding, kernel, stride),
                             out_size(w + 2 * padding, kernel, stride)))
    out, dx = pool_and_route(x, kernel, stride, padding, g)
    ref_out, ref_arg = maxpool_ref(x, kernel, stride, padding)
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(dx, maxpool_backward_former(g, ref_arg, x.shape,
                                                              kernel, stride, padding))


def test_maxpool_ties_pick_first_window_slot():
    _, dx = pool_and_route(np.ones((1, 1, 4, 4)), 2, 2, 0)
    expected = np.zeros((4, 4))
    expected[::2, ::2] = 1.0
    np.testing.assert_array_equal(dx[0, 0], expected)


def test_maxpool_backward_routes_to_argmax_only():
    x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
    out, dx = pool_and_route(x, 2, 2, 0)
    np.testing.assert_array_equal(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])
    assert dx.sum() == 4.0
    assert dx[0, 0, 1, 1] == 1.0 and dx[0, 0, 3, 3] == 1.0
    assert dx[0, 0, 0, 0] == 0.0


def maxpool_forward_former(x, kernel, stride, padding):
    """The former max-pool forward: argmax over sliding-window copies."""
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    xp = np.full((n, c, h + 2 * padding, w + 2 * padding), -np.inf, dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(2, 3))
    flat = windows[:, :, ::stride, ::stride][:, :, :oh, :ow].reshape(n, c, oh, ow, -1)
    arg = flat.argmax(axis=-1)
    return np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0], arg


def maxpool_backward_former(grad, arg, x_shape, kernel, stride, padding):
    """The former max-pool backward: one np.add.at over all routed gradients."""
    n, c, h, w = x_shape
    oh, ow = grad.shape[2:]
    dxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=grad.dtype)
    rows = (np.arange(oh).reshape(oh, 1) * stride + arg // kernel).reshape(n, c, -1)
    cols = (np.arange(ow) * stride + arg % kernel).reshape(n, c, -1)
    np.add.at(dxp, (np.arange(n).reshape(n, 1, 1), np.arange(c).reshape(1, c, 1), rows, cols),
              grad.reshape(n, c, -1))
    return dxp[:, :, padding:padding + h, padding:padding + w]


@pytest.mark.parametrize("n,c,h,w,kernel,stride,padding", POOL_CASES + [(2, 3, 12, 12, 3, 2, 1)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_matches_former_kernels_bit_for_bit(n, c, h, w, kernel, stride, padding, dtype):
    # Few distinct values, so most windows hold ties; signed zeros, -inf and NaN included.
    rng = np.random.default_rng(23)
    x = rng.choice(np.array([-2.0, -1.0, -0.0, 0.0, 1.0, -np.inf, np.nan]), (n, c, h, w),
                   p=[0.2, 0.2, 0.2, 0.2, 0.14, 0.03, 0.03]).astype(dtype)
    ref_out, ref_arg = maxpool_forward_former(x, kernel, stride, padding)
    g = rng.standard_normal(ref_out.shape).astype(dtype)
    out, dx = pool_and_route(x, kernel, stride, padding, g)
    assert out.tobytes() == np.ascontiguousarray(ref_out).tobytes()
    ref_dx = maxpool_backward_former(g, ref_arg, x.shape, kernel, stride, padding)
    assert dx.tobytes() == np.ascontiguousarray(ref_dx).tobytes()


def test_maxpool_window_with_nan_is_nan():
    # A window holding NaN gives its first NaN, and its gradient goes there.
    x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    x[0, 0, 0, 1] = x[0, 0, 1, 1] = x[0, 0, 3, 2] = np.nan
    out, dx = pool_and_route(x, 2, 2, 0, np.array([[[[1.0, 2.0], [3.0, 4.0]]]], np.float32))
    assert np.isnan(out[0, 0, 0, 0]) and np.isnan(out[0, 0, 1, 1])
    np.testing.assert_array_equal(out[0, 0, [0, 1], [1, 0]], [7.0, 13.0])
    expected = np.zeros((4, 4), dtype=np.float32)
    expected[0, 1], expected[1, 3], expected[3, 1], expected[3, 2] = 1.0, 2.0, 3.0, 4.0
    np.testing.assert_array_equal(dx[0, 0], expected)


def test_max_pool_rejects_padding_over_half_kernel():
    # padding 2 with kernel 2 gave windows wholly in the padding, emitted as -inf
    x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="padding"):
        max_pool2d(x, 2, 2, 2)
    with pytest.raises(ValueError, match="padding"):
        max_pool2d(x, 3, 1, 2)
    assert max_pool2d(x, 3, 2, 1).data.shape == (1, 1, 1, 1)


def test_kernels_preserve_dtype():
    x32 = np.ones((1, 1, 4, 4), dtype=np.float32)
    x64 = np.ones((1, 1, 4, 4), dtype=np.float64)
    assert K.im2col(x32, 1).dtype == np.float32
    assert K.im2col(x64, 1).dtype == np.float64
    assert K.col2im(K.im2col(x32, 1), 1).dtype == np.float32
    assert max_pool2d(Tensor(x32), 2, 2, 0).data.dtype == np.float32


def test_active_backend_reports_dispatch():
    # conv2d looks the gather and fold up at call time, so a profiler can wrap them
    assert K.active_backend() == "numpy"
    calls = []

    def spy(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapped

    x = Tensor(np.ones((1, 2, 4, 4)), requires_grad=True)
    w = Tensor(np.ones((3, 2, 3, 3)), requires_grad=True)
    with mock.patch.object(K, "im2col", spy(K.im2col)), \
            mock.patch.object(K, "col2im", spy(K.col2im)):
        out = conv2d(x, w, padding=1)
        out.backward(np.ones(out.shape))
    assert calls == ["im2col", "im2col", "col2im"]

    # A BnRelu output written with the conv's padding as its margin is the
    # conv's operand: nothing is gathered.  25 images of 10x10 padded columns
    # run as 1024-column chunks, and each chunk completes whole images (10,
    # 20, then 25), which one col2im call folds.
    calls.clear()
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((25, 2, 8, 8)), requires_grad=True)
    y = batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), BatchNormState.create(2, np.float64),
                   True, relu=True, margin=1)
    with mock.patch.object(K, "im2col", spy(K.im2col)), \
            mock.patch.object(K, "col2im", spy(K.col2im)):
        out = conv2d(y, w, padding=1)
        out.backward(rng.standard_normal(out.shape))
    assert calls == ["col2im"] * 3
